"""Conjugation isomorphisms making the duals an involution on tensor products.

The basic map is ``conjugation_mixed``: the unitary

    c_{X,Y} : Y* rtimes X*  ->  (X ltimes Y)*

determined on spanning tensors by  eta-bar (x) x-star  |->  (x (x) eta)-bar
for right bounded vectors x of X and vectors eta of Y.  Both one-kind
versions derive from it through the multiplicativity isomorphism m:
the rtimes one by inverting the transposed m of (X, Y) (m is unitary, so
that inverse is its conjugate), the ltimes one by
precomposing with the m of (Y*, X*).

Each function takes the bimodules and fetches the products and duals it
needs from ``tensor_left``, ``tensor_right`` and ``dual_bimodule``; inside
an open product store (:mod:`bimodcat.store`) those are built once and
shared with every other caller.  The single-kind conjugations open a
store when none is open, so a call on its own builds each product once.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .bimodule import Bimodule, Morphism, dual_bimodule, transpose
from .linalg import map_from_spanning
from .store import product_store
from .tensor import KIND_LEFT, KIND_RIGHT, m_iso, tensor_left, tensor_right


def conjugation_mixed(x: Bimodule, y: Bimodule) -> Morphism:
    """c_{X,Y} : Y* rtimes X* -> (X ltimes Y)* on conjugate coordinates.

    Solves the defining relation on a spanning family of the ltimes product
    of (X, Y) and the rtimes product of (Y*, X*), and verifies consistency
    (raises ValueError if the family is not the graph of a linear map).
    """
    tp_left = tensor_left(x, y)
    tp_dual = tensor_right(dual_bimodule(y), dual_bimodule(x))
    dy = y.dim
    # eval vector of the star of the i-th right bounded basis map is the
    # plain conjugate of its value at the identity
    star_coeff = tp_dual.bounded.expand(np.conj(tp_left.bounded.vectors))
    qd = tp_dual.quotient.reshape(tp_dual.dim, dy, tp_dual.bounded.size)
    src = np.swapaxes(qd @ star_coeff, 1, 2).reshape(
        tp_dual.dim, star_coeff.shape[1] * dy)
    tgt = tp_left.quotient.conj()
    mat = map_from_spanning(src, tgt)
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
