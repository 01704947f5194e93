"""Conjugation isomorphisms making the duals an involution on tensor products.

Each conjugation is the unitary determined on elementary tensors by

    eta-bar (x) xi-bar  |->  (xi (x) eta)-bar.

Dual coordinates are conjugate coordinates, so a member of Y* kind X*
is the conjugate of a tensor of frame columns of Y and X
(:func:`_conjugated`), and c is read off the members
(:func:`bimodcat.tensor._member_map`).  ``conjugation_mixed`` maps
Y* rtimes X* -> (X ltimes Y)*, the paper's basic map, and swaps rtimes'
sector projections for ltimes'.  ``conjugation`` maps Y* kind X* ->
(X kind Y)* for one kind: a dual's frame is the conjugate of the
original's, so its members are those of X kind Y, reordered, and c is a
permutation matrix.  Neither uses the multiplicativity map m, so
the relation between the two kinds through m is a check on m.

Each function takes the bimodules and fetches the products and duals it
needs from ``tensor`` and ``dual_bimodule``; inside an open product store
(:mod:`bimodcat.store`) those are built once and shared with every other
caller.  ``conjugation`` opens a store when none is open, so a call on its
own builds each product once.
"""

from __future__ import annotations

from .bimodule import Bimodule, Morphism, dual_bimodule
from .store import product_store
from .tensor import (Members, TensorProduct, _member_map, _sector_swap, tensor,
                     tensor_left, tensor_right)


def _conjugated(tp_dual: TensorProduct, tp: TensorProduct) -> Members:
    """The members eta-bar (x) xi-bar of Y* (x) X* as tensors xi (x) eta of X (x) Y.

    A dual's frame is its original's, conjugated, so xi and eta are the
    columns b and a of X's and Y's frames.
    """
    return tp.members._replace(a=tp_dual.b, b=tp_dual.a)


def conjugation_mixed(x: Bimodule, y: Bimodule) -> Morphism:
    """c_{X,Y} : Y* rtimes X* -> (X ltimes Y)* on conjugate coordinates.

    A member eta-bar (x) xi-bar of Y* rtimes X* has eta in the sector
    p Y and xi in X p of rtimes' projection p = e_(m-1, m-1); c sends it to
    the conjugate of xi (x) eta, which is xi u* (x) u eta in the members of
    X ltimes Y (:func:`bimodcat.tensor._sector_swap`).  So c is the
    conjugate of R_X(u*) (x) L_Y(u) from the conjugated members.
    """
    tp_left = tensor_left(x, y)
    tp_dual = tensor_right(dual_bimodule(y), dual_bimodule(x))
    u, ustar = _sector_swap(x.right_algebra)
    mat = _member_map(_conjugated(tp_dual, tp_left), tp_left.members,
                      x.right_units[ustar].sum(axis=0),
                      y.left_units[u].sum(axis=0)).conj()
    return Morphism(tp_dual.result, dual_bimodule(tp_left.result), mat)


@product_store()
def conjugation(kind: str, x: Bimodule, y: Bimodule) -> Morphism:
    """Single-kind conjugation c : (Y* kind X*) -> (X kind Y)*.

    The frame columns of Y* and X* are the conjugates of those of Y and X
    for the same projection, so the conjugated members of Y* kind X* are
    members of X kind Y: c sends each to its own coordinate, which is real.
    """
    tp = tensor(kind, x, y)
    tp_dual = tensor(kind, dual_bimodule(y), dual_bimodule(x))
    mat = _member_map(_conjugated(tp_dual, tp), tp.members, None, None)
    return Morphism(tp_dual.result, dual_bimodule(tp.result), mat.astype(float))

