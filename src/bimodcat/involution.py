"""Conjugation isomorphisms making the duals an involution on tensor products.

The basic map is ``conjugation_mixed``: the unitary

    c_{X,Y} : Y* rtimes X*  ->  (X ltimes Y)*

determined on spanning tensors by  eta-bar (x) x-star  |->  (x (x) eta)-bar
for right bounded vectors x of X and vectors eta of Y.  Both one-kind
versions derive from it through the multiplicativity isomorphism m:
the rtimes one by inverting the transposed m of (X, Y), the ltimes one by
precomposing with the m of (Y*, X*).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bimodule import Bimodule, Morphism, dual_bimodule, transpose
from .linalg import map_from_spanning
from .tensor import (KIND_LEFT, KIND_RIGHT, TensorProduct, m_iso,
                     tensor_left, tensor_right)


def conjugation_mixed(x: Bimodule, y: Bimodule,
                      tp_left: Optional[TensorProduct] = None,
                      tp_dual: Optional[TensorProduct] = None,
                      xstar: Optional[Bimodule] = None,
                      ystar: Optional[Bimodule] = None) -> Morphism:
    """c_{X,Y} : Y* rtimes X* -> (X ltimes Y)* on conjugate coordinates.

    ``tp_left`` is the ltimes product of (X, Y); ``tp_dual`` the rtimes
    product of (Y*, X*).  Solves the defining relation on a spanning family
    and verifies consistency (raises ValueError if the family is not the
    graph of a linear map).
    """
    if xstar is None:
        xstar = dual_bimodule(x)
    if ystar is None:
        ystar = dual_bimodule(y)
    if tp_left is None:
        tp_left = tensor_left(x, y)
    if tp_dual is None:
        tp_dual = tensor_right(ystar, xstar)
    dy = y.dim
    # eval vector of the star of the i-th right bounded basis map is the
    # plain conjugate of its value at the identity
    star_coeff = tp_dual.bounded.expand(np.conj(tp_left.bounded.vectors))
    qd = tp_dual.quotient.reshape(tp_dual.dim, dy, tp_dual.bounded.size)
    src = np.einsum("rsm,mi->ris", qd, star_coeff).reshape(
        tp_dual.dim, star_coeff.shape[1] * dy)
    tgt = tp_left.quotient.conj()
    mat = map_from_spanning(src, tgt)
    return Morphism(tp_dual.result, dual_bimodule(tp_left.result), mat)


def conjugation(kind: str, x: Bimodule, y: Bimodule,
                tp: Optional[TensorProduct] = None,
                tp_dual: Optional[TensorProduct] = None,
                xstar: Optional[Bimodule] = None,
                ystar: Optional[Bimodule] = None) -> Morphism:
    """Single-kind conjugation c : (Y* kind X*) -> (X kind Y)*.

    ``tp`` is the kind-product of (X, Y) and ``tp_dual`` the kind-product
    of (Y*, X*), when already available.
    """
    if xstar is None:
        xstar = dual_bimodule(x)
    if ystar is None:
        ystar = dual_bimodule(y)
    if kind == KIND_LEFT:
        tp_left = tp if tp is not None else tensor_left(x, y)
        tpd_l = tp_dual if tp_dual is not None else tensor_left(ystar, xstar)
        tpd_r = tensor_right(ystar, xstar)
        c = conjugation_mixed(x, y, tp_left=tp_left, tp_dual=tpd_r,
                              xstar=xstar, ystar=ystar)
        m_dual = m_iso(ystar, xstar, tp_left=tpd_l, tp_right=tpd_r)
        return Morphism(tpd_l.result, c.target, c.matrix @ m_dual)
    if kind == KIND_RIGHT:
        tp_right = tp if tp is not None else tensor_right(x, y)
        tp_left = tensor_left(x, y)
        tpd_r = tp_dual if tp_dual is not None else tensor_right(ystar, xstar)
        c = conjugation_mixed(x, y, tp_left=tp_left, tp_dual=tpd_r,
                              xstar=xstar, ystar=ystar)
        m = m_iso(x, y, tp_left=tp_left, tp_right=tp_right)
        # c = (transpose m) o c_rtimes, so invert the transpose
        mat = np.linalg.solve(m.T, c.matrix)
        return Morphism(tpd_r.result, dual_bimodule(tp_right.result), mat)
    raise ValueError(f"unknown tensor kind {kind!r}")


def conjugation_pair(x: Bimodule, y: Bimodule) -> Tuple[Morphism, Morphism]:
    """Both single-kind conjugations (ltimes, rtimes), sharing the duals."""
    xstar, ystar = dual_bimodule(x), dual_bimodule(y)
    return (conjugation(KIND_LEFT, x, y, xstar=xstar, ystar=ystar),
            conjugation(KIND_RIGHT, x, y, xstar=xstar, ystar=ystar))


def transpose_on_product(kind: str, x: Bimodule, y: Bimodule,
                         f: Morphism, c_src: Morphism,
                         c_tgt: Morphism) -> Morphism:
    """Conjugate a morphism f : X kind Y -> X' kind Y' through the c maps.

    Here c_src = c_{X,Y} and c_tgt = c_{X',Y'} for f : X kind Y -> X' kind Y'.
    Returns c_src^{-1} o (transpose f) o c_tgt : Y'* kind X'* -> Y* kind X*,
    which equals (transpose of the second leg) kind (transpose of the first)
    by naturality when f is an elementary tensor of morphisms.
    """
    tf = transpose(f, source_dual=c_tgt.target, target_dual=c_src.target)
    mat = np.linalg.solve(c_src.matrix, tf.matrix @ c_tgt.matrix)
    return Morphism(c_tgt.source, c_src.source, mat)
