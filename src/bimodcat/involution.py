"""Conjugation isomorphisms making the duals an involution on tensor products.

The basic map is ``conjugation_mixed``: the unitary

    c_{X,Y} : Y* rtimes X*  ->  (X ltimes Y)*

determined on elementary tensors by  eta-bar (x) xi-bar  |->  (xi (x) eta)-bar.
Dual coordinates are conjugate coordinates, so a member of Y* rtimes X*
is the conjugate of a tensor of sector vectors of X and Y, and c is the
conjugate of a member map (:func:`bimodcat.tensor._member_map`) between
the two products' members.  Both one-kind versions derive from it through
the multiplicativity isomorphism m: the rtimes one by inverting the
transposed m of (X, Y) (m is unitary, so that inverse is its conjugate),
the ltimes one by precomposing with the m of (Y*, X*).

Each function takes the bimodules and fetches the products and duals it
needs from ``tensor_left``, ``tensor_right`` and ``dual_bimodule``; inside
an open product store (:mod:`bimodcat.store`) those are built once and
shared with every other caller.  The single-kind conjugations open a
store when none is open, so a call on its own builds each product once.
"""

from __future__ import annotations

from typing import Tuple

from .bimodule import Bimodule, Morphism, dual_bimodule, transpose
from .store import product_store
from .tensor import (KIND_LEFT, KIND_RIGHT, Members, _member_map, _sector_swap,
                     m_iso, tensor_left, tensor_right)


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
    dual = tp_dual.members
    plain = Members(dual.d.conj(), dual.c.conj(), dual.b, dual.a, ())
    u, ustar = _sector_swap(x.right_algebra)
    mat = _member_map(plain, tp_left.members, x.right_units[ustar].sum(axis=0),
                      y.left_units[u].sum(axis=0)).conj()
    return Morphism(tp_dual.result, dual_bimodule(tp_left.result), mat)


@product_store()
def conjugation(kind: str, x: Bimodule, y: Bimodule) -> Morphism:
    """Single-kind conjugation c : (Y* kind X*) -> (X kind Y)*."""
    if kind == KIND_LEFT:
        ystar, xstar = dual_bimodule(y), dual_bimodule(x)
        c = conjugation_mixed(x, y)
        m_dual = m_iso(ystar, xstar)
        return Morphism(tensor_left(ystar, xstar).result, c.target,
                        c.matrix @ m_dual)
    if kind == KIND_RIGHT:
        c = conjugation_mixed(x, y)
        m = m_iso(x, y)
        # c = (transpose m) o c_rtimes; m is unitary, so the inverse of
        # its transpose is its plain conjugate
        mat = m.conj() @ c.matrix
        return Morphism(c.source, dual_bimodule(tensor_right(x, y).result), mat)
    raise ValueError(f"unknown tensor kind {kind!r}")


@product_store()
def conjugation_pair(x: Bimodule, y: Bimodule) -> Tuple[Morphism, Morphism]:
    """Both single-kind conjugations (ltimes, rtimes)."""
    return conjugation(KIND_LEFT, x, y), conjugation(KIND_RIGHT, x, y)


def transpose_on_product(f: Morphism, c_src: Morphism,
                         c_tgt: Morphism) -> Morphism:
    """Conjugate a morphism f : X kind Y -> X' kind Y' through the c maps.

    Here c_src = c_{X,Y} and c_tgt = c_{X',Y'}.
    Returns c_src^{-1} o (transpose f) o c_tgt : Y'* kind X'* -> Y* kind X*,
    which equals (transpose of the second leg) kind (transpose of the first)
    by naturality when f is an elementary tensor of morphisms.
    """
    mat = c_src.matrix.conj().T @ transpose(f).matrix @ c_tgt.matrix
    return Morphism(c_tgt.source, c_src.source, mat)
