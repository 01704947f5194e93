"""Conjugation isomorphisms making the duals an involution on tensor products.

Each conjugation is the unitary determined on elementary tensors by

    eta-bar (x) xi-bar  |->  (xi (x) eta)-bar.

Dual coordinates are conjugate coordinates, so a member of Y* kind X*
is the conjugate of a tensor of frame columns of Y and X, and c is read
off the members.  ``conjugation_mixed`` maps Y* rtimes X* ->
(X ltimes Y)*, the paper's basic map, and moves frame columns from
rtimes' sector projections to ltimes' (:func:`bimodcat.bimodule.corner_base`).
``conjugation`` maps Y* kind X* -> (X kind Y)* for one kind: a dual's
frame is the conjugate of the original's, so its members are those of
X kind Y, reordered, and c is a permutation.  :func:`conjugation_perm`
gives it as an index array, one gather through the member table of
X kind Y (:attr:`bimodcat.tensor.TensorProduct.index`), and builds no
dual of a product's result; ``conjugation`` gives the Morphism, its 0/1 matrix
made from that array.  Neither uses the multiplicativity map m, so the
relation between the two kinds through m is a check on m.

Each function takes the bimodules and fetches the products and duals it
needs from ``tensor`` and ``dual_bimodule``; inside an open product store
(:mod:`bimodcat.store`) those are built once and shared with every other
caller.  Outside a store each call builds its own, and a factor keeps
its frame either way (:class:`bimodcat.bimodule.Bimodule`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .bimodule import Bimodule, Morphism, corner_base, dual_bimodule
from .linalg import permutation_matrix
from .tensor import TensorProduct, tensor, tensor_left, tensor_right


def conjugation_mixed(x: Bimodule, y: Bimodule) -> Morphism:
    """c_{X,Y} : Y* rtimes X* -> (X ltimes Y)* on conjugate coordinates.

    A member eta-bar (x) xi-bar of Y* rtimes X* has eta in the sector
    p Y and xi in X p of rtimes' projection p = e_(m-1, m-1); c sends it to
    the conjugate of xi (x) eta, which is xi u* (x) u eta in the members of
    X ltimes Y, for u = sum_l e_(0, m_l - 1).  A dual's frame columns are
    its original's, conjugated, and u* and u move X's and Y's to frame
    columns (:func:`bimodcat.bimodule.corner_base`): c is a 0/1 matrix.
    """
    tp_left = tensor_left(x, y)
    tp_dual = tensor_right(dual_bimodule(y), dual_bimodule(x))
    perm = tp_left.index[corner_base(x, "right")[tp_dual.b],
                         corner_base(y, "left")[tp_dual.a]]
    return Morphism(tp_dual.result, dual_bimodule(tp_left.result),
                    permutation_matrix(perm))


def conjugation(kind: str, x: Bimodule, y: Bimodule) -> Morphism:
    """Single-kind conjugation c : (Y* kind X*) -> (X kind Y)*, a real 0/1 matrix."""
    tp, tp_dual = _single_kind(kind, x, y)
    return Morphism(tp_dual.result, dual_bimodule(tp.result),
                    permutation_matrix(_conjugation_perm(tp, tp_dual), float))


def conjugation_perm(kind: str, x: Bimodule, y: Bimodule) -> np.ndarray:
    """Single-kind conjugation c : (Y* kind X*) -> (X kind Y)* as an index array.

    The frame columns of Y* and X* are the conjugates of those of Y and X
    for the same projection, so the conjugated members of Y* kind X* are
    members of X kind Y: c sends each to its own coordinate.  It is in the
    frame coordinates of (X kind Y)*, a dual of a product's result, which
    are its raw ones.
    """
    return _conjugation_perm(*_single_kind(kind, x, y))


def _single_kind(kind: str, x: Bimodule, y: Bimodule
                 ) -> Tuple[TensorProduct, TensorProduct]:
    """X kind Y and Y* kind X*."""
    return tensor(kind, x, y), tensor(kind, dual_bimodule(y), dual_bimodule(x))


def _conjugation_perm(tp: TensorProduct, tp_dual: TensorProduct) -> np.ndarray:
    """Member (b, a) of Y* kind X* goes to the member (a, b) of X kind Y."""
    return tp.index[tp_dual.b, tp_dual.a]

