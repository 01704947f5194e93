"""Relative tensor products, structural isomorphisms and the multiplicativity map.

Two tensor products are implemented for a composable pair X (A-B) and
Y (B-C):

* ``kind="left"``  : completion of XB(-1/2) (x)_B Y        (the ltimes product)
* ``kind="right"`` : completion of X (x)_B B(-1/2)Y        (the rtimes product)

Both are built from the sectors of B = (+)_l M_m.  For a minimal
projection p of block l, [xi, xi']_B = <xi, xi'> p on X p, so X (x)_B Y is
the orthogonal sum over l of X p (x) p Y.  The columns c_a of X's frame
(:class:`bimodcat.bimodule.Frame`) labelled p on the right and d_b of Y's
labelled p on the left (:func:`_sector_columns`) are orthonormal bases of
X p and p Y, so the tensors c_a (x) d_b, each a pair (a, b) of frame
columns, are an orthonormal basis of the product: its members
(:class:`Members`) and the result's frame.  ltimes cuts block l with
p = e_00 and rtimes with its last diagonal unit, and rtimes lists its
members in reverse.

The result bimodule has the member count as its dimension.  Its action
stacks are built on their first read only
(:meth:`bimodcat.bimodule.Bimodule.deferred`), which most results never
get.  It is unital without a check: the factors' frames are orthonormal
(:func:`bimodcat.bimodule._stack_frame` checks those found numerically).

Every map between products is read off the pairs of frame columns and the
factors' frames.  One formula, :func:`_member_map`, sends c_a (x) d_b to
f c_a (x) g d_b; its cases are the result actions, f (x) g, the
multiplicativity map m, the extension identifications and, on conjugate
members, the conjugation c of :mod:`bimodcat.involution`.  The unitors and
the associator pair frame columns the same way.  They and m take a kind,
where they have one, and bimodules, and fetch their products through
:func:`tensor`; only :func:`tensor_morphisms` takes the two products it
maps between.  No bounded-vector space, algebraic tensor space or
spanning family is built; the tests keep those constructions as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .algebra import MultiMatrixAlgebra, standard_form
from .bimodule import Bimodule, Frame, matrix_extension
from .store import product_store, stored

KIND_LEFT = "left"     # ltimes
KIND_RIGHT = "right"   # rtimes


class WellDefinednessError(ValueError):
    """A leg of f (x) g is not B-linear, so f (x) g does not descend to X (x)_B Y."""


class Members(NamedTuple):
    """A product's orthonormal basis: member i is wx[:, a[i]] (x) wy[:, b[i]].

    ``a`` and ``b`` index the frame columns of X and Y; ``wx`` and ``wy``
    are their frames' W, None for the identity.
    """

    a: np.ndarray
    b: np.ndarray
    wx: Optional[np.ndarray]
    wy: Optional[np.ndarray]


@dataclass(frozen=True, eq=False)
class TensorProduct:
    """A relative tensor product: its factors, its members and the result bimodule.

    Member i is the pair (a[i], b[i]) of frame columns of the two factors.
    """

    kind: str
    left_factor: Bimodule
    right_factor: Bimodule
    result: Bimodule
    a: np.ndarray
    b: np.ndarray

    @property
    def members(self) -> Members:
        """The result's coordinates; no stored field holds a factor's frame."""
        return Members(self.a, self.b, self.left_factor.frame.w,
                       self.right_factor.frame.w)

    @property
    def dim(self) -> int:
        return self.result.dim

    @property
    def alg_dim(self) -> int:
        """Dimension of the algebraic tensor space: a bounded basis has d members."""
        return self.left_factor.dim * self.right_factor.dim


def _sector_columns(x: Bimodule, side: str, kind: str) -> Tuple[np.ndarray, ...]:
    """Per block of the ``side`` algebra, the indices of the frame columns labelled p.

    ltimes takes p = e_00 of each block, rtimes the last diagonal unit
    e_dd.  With one p shared by both kinds, the two results would get
    equal action matrices and m would be the identity.
    """
    alg = x.left_algebra if side == "left" else x.right_algebra
    labels = getattr(x.frame, side)   # Frame.left or Frame.right
    first = np.cumsum((0,) + alg.blocks)   # each block's first diagonal unit
    return tuple(np.flatnonzero(labels == first[k] + (0 if kind == KIND_LEFT else n - 1))
                 for k, n in enumerate(alg.blocks))


def tensor_left(x: Bimodule, y: Bimodule) -> TensorProduct:
    """X ltimes Y: completion of XB(-1/2) (x)_B Y.

    The result is the orthogonal sum over the blocks l of B of
    X p_l (x) p_l Y, with p_l = e_00 of block l (:func:`_tensor_product`).
    Inside an open product store, each product is built once.
    """
    return stored(_tensor_product, KIND_LEFT, x, y)


def tensor_right(x: Bimodule, y: Bimodule) -> TensorProduct:
    """X rtimes Y: completion of X (x)_B B(-1/2)Y.

    The result is the orthogonal sum over the blocks l of B of
    X p_l (x) p_l Y, with p_l the last diagonal unit of block l, listed in
    reverse (:func:`_tensor_product`).  Inside an open product store, each
    product is built once.
    """
    return stored(_tensor_product, KIND_RIGHT, x, y)


def tensor(kind: str, x: Bimodule, y: Bimodule) -> TensorProduct:
    if kind == KIND_LEFT:
        return tensor_left(x, y)
    if kind == KIND_RIGHT:
        return tensor_right(x, y)
    raise ValueError(f"unknown tensor kind {kind!r}")


@product_store()
def _tensor_product(kind: str, x: Bimodule, y: Bimodule) -> TensorProduct:
    """The product's members and the result's actions on them.

    Member (a, b) of block l pairs X's frame column a labelled p_l on the
    right with Y's column b labelled p_l on the left, listed block by
    block, then by a, then by b, reversed for rtimes.  A acts by
    W_X^H L_u W_X on the index a alone, C by W_Y^H R_v W_Y on b alone: the
    cases L_u (x) 1 and 1 (x) R_v of f (x) g, built on the result's first
    read.  With no store open it opens one for its build, so that a factor
    given by its stacks finds its frame once.
    """
    if x.right_algebra.blocks != y.left_algebra.blocks:
        raise ValueError(
            f"middle algebras differ: {x.right_algebra} vs {y.left_algebra}")
    pairs = [(np.repeat(cx, cy.size), np.tile(cy, cx.size)) for cx, cy in zip(
        stored(_sector_columns, x, "right", kind),
        stored(_sector_columns, y, "left", kind))]
    a, b = (np.concatenate(cols) for cols in zip(*pairs))
    if kind == KIND_RIGHT:
        # listed in reverse, so that m is not the identity where the middle
        # blocks have size 1
        a, b = a[::-1], b[::-1]
    members = Members(a, b, x.frame.w, y.frame.w)
    # member (a, b) lies in the corner of c_a's left label and d_b's right one
    result = Bimodule.deferred(
        x.left_algebra, y.right_algebra, a.size,
        lambda: (_member_map(members, members, x.left_units, None),
                 _member_map(members, members, None, y.right_units)),
        Frame(None, x.frame.left[a], y.frame.right[b]))
    return TensorProduct(kind, x, y, result, a, b)


def _member_map(src: Members, tgt: Members, f, g) -> np.ndarray:
    """f (x) g from ``src``'s members to ``tgt``'s; f and g may be stacks.

    Entry (i', i) is (W_X'^H f W_X)[a'_i', a_i] (W_Y'^H g W_Y)[b'_i', b_i].
    It needs f c_a in the span of the target's first columns and g d_b in
    that of its second, which holds for a right-B-linear f and a
    left-B-linear g.  None is the identity of a factor that ``src`` and
    ``tgt`` share.
    """
    legs = (_leg(f, src.wx, tgt.wx, src.a, tgt.a),
            _leg(g, src.wy, tgt.wy, src.b, tgt.b))
    # in place on the leg of the product's shape and type: one r x r array less
    small, big = sorted(legs, key=lambda leg: (leg.ndim, leg.dtype != bool))
    big *= small
    return big


def _leg(f, w, w2, i, i2) -> np.ndarray:
    """(W2^H f W)[i2, i]; a W that is None is the identity, so that side is a gather.

    An f that is None is the mask i2 == i of a shared factor.  Only a
    factor that is no product's result has a W, of that factor's dimension.
    """
    if f is None:
        return i2[:, None] == i
    f = np.asarray(f, dtype=complex)   # so that the product fits in place
    if w2 is not None:
        f = w2.conj().T @ f
    if w is not None:
        f = f @ w
    return f[..., i2[:, None], i]


def tensor_morphisms(src: TensorProduct, tgt: TensorProduct,
                     f: Optional[np.ndarray], g: Optional[np.ndarray]) -> np.ndarray:
    """Matrix of f (x) g between tensor products of the same kind.

    ``f`` : X -> X' and ``g`` : Y -> Y' are raw matrices, or None for the
    identity of a factor that ``src`` and ``tgt`` share, read off the
    members as an index mask: the whiskerings f (x) 1 and 1 (x) g.  A None
    leg on factors that differ raises ValueError naming it.  For both
    kinds f must be right-B-linear and g left-B-linear (any bimodule
    morphism qualifies): then f (x) g respects xi b (x) eta = xi (x) b eta.
    WellDefinednessError names a given leg m for which
    ||m U_w - U'_w m||_F, stacked over every matrix unit w of B, exceeds
    1e-6 max(1, ||m||_F); rounding leaves about machine epsilon ||m||.
    """
    if src.kind != tgt.kind:
        raise ValueError("source and target tensor kinds differ")
    legs = (("f", "right", f, src.left_factor, tgt.left_factor),
            ("g", "left", g, src.right_factor, tgt.right_factor))
    for name, side, m, factor, factor2 in legs:
        if m is None and factor is not factor2:
            raise ValueError(f"{name} is None, but the two products do not "
                             f"share that factor")
        if m is None:
            continue
        units = f"{side}_units"
        defect = np.linalg.norm(m @ getattr(factor, units) - getattr(factor2, units) @ m)
        if defect > 1e-6 * max(1.0, np.linalg.norm(m)):
            raise WellDefinednessError(
                f"{name} is not {side}-B-linear, so f (x) g does not descend "
                f"to the tensor product (defect {defect:.3e})")
    # two None legs give the boolean mask of the identity
    return _member_map(src.members, tgt.members, f, g).astype(complex, copy=False)


# -- unit isomorphisms --------------------------------------------------------

def left_unitor(kind: str, x: Bimodule) -> np.ndarray:
    """l : L2(A) (x) X -> X on the members of the kind's product.

    L2(A)'s frame is the identity, so c_a is the matrix unit e_a of A and
    l(c_a (x) d_b) = e_a . d_b = L_a W_X[:, b].
    """
    m = tensor(kind, standard_form(x.left_algebra).bimodule, x).members
    moved = x.left_units if m.wy is None else x.left_units @ m.wy
    return moved[m.a, :, m.b].T


def right_unitor(kind: str, x: Bimodule) -> np.ndarray:
    """r : X (x) L2(B) -> X on the members of the kind's product.

    L2(B)'s frame is the identity, so d_b is the matrix unit e_b of B and
    r(c_a (x) d_b) = c_a . e_b = R_b W_X[:, a].
    """
    m = tensor(kind, x, standard_form(x.right_algebra).bimodule).members
    moved = x.right_units if m.wx is None else x.right_units @ m.wx
    return moved[m.b, :, m.a].T


# -- associators --------------------------------------------------------------

def associator(kind: str, x: Bimodule, y: Bimodule, z: Bimodule) -> np.ndarray:
    """a : (X (x) Y) (x) Z  ->  X (x) (Y (x) Z), all four products of the kind.

    Every member of either side is a triple of frame columns of X, Y and Z:
    (c_a (x) d_b) (x) z_c and c_a (x) (d_b (x) z_c).  a sends each triple
    to itself, so it is a 0/1 permutation and reads no frame.
    """
    tp_xy, tp_yz = tensor(kind, x, y), tensor(kind, y, z)
    src = tensor(kind, tp_xy.result, z)
    tgt = tensor(kind, x, tp_yz.result)
    # the X, Y and Z columns of each member
    xa, yb, zc = tp_xy.a[src.a], tp_xy.b[src.a], src.b
    xa2, yb2, zc2 = tgt.a, tp_yz.a[tgt.b], tp_yz.b[tgt.b]
    same = (xa2[:, None] == xa) & (yb2[:, None] == yb) & (zc2[:, None] == zc)
    return same.astype(complex)


# -- matrix-extension identification and the multiplicativity isomorphism ----

def tensor_matrix_extension_iso(x: Bimodule, y: Bimodule, ni: int, nj: int,
                                kind: str):
    """Unitary ( ^I X ) (x) ( Y ^J )  ->  ^I ( X (x) Y ) ^J.

    Returns (matrix, tp_ext, ext_result) where tp_ext is the tensor product
    of the extended factors and ext_result the Hilbert-Schmidt extension of
    X (x) Y that the matrix maps onto.
    """
    tp_xy = tensor(kind, x, y)
    tp_ext = tensor(kind, matrix_extension(x, ni, 1), matrix_extension(y, 1, nj))
    ext_result = matrix_extension(tp_xy.result, ni, nj)
    return _ext_iso(tp_xy, tp_ext, ni, nj), tp_ext, ext_result


def _ext_iso(tp_xy: TensorProduct, tp_ext: TensorProduct,
             ni: int, nj: int) -> np.ndarray:
    """The extension identification: the identity, from members to members.

    Coordinate (i, j, r) of ^I (X (x) Y) ^J, row-major, is the slot (i, j)
    of member r = c_a (x) d_b, which is (e_i (x) c_a) (x) (d_b (x) e_j):
    column i dim X + a of the frame 1_I (x) W_X and column j dim Y + b of
    1_J (x) W_Y.
    """
    m, ext = tp_xy.members, tp_ext.members
    i, j, r = np.indices((ni, nj, m.a.size)).reshape(3, -1)
    slots = Members(i * tp_xy.left_factor.dim + m.a[r],
                    j * tp_xy.right_factor.dim + m.b[r],
                    *(None if w is None else np.kron(np.eye(n), w)
                      for n, w in ((ni, m.wx), (nj, m.wy))))
    return _member_map(ext, slots, np.eye(tp_ext.left_factor.dim),
                       np.eye(tp_ext.right_factor.dim))


@product_store()
def m_standard(b: MultiMatrixAlgebra, ni: int, nj: int):
    """The unitary ^I m ^J on extensions of the standard bimodule.

    Returns (matrix, tp_left, tp_right): the map from the ltimes to the
    rtimes product of ( ^I L2(B), L2(B) ^J ), via the entrywise unit
    isomorphism and the extension identifications, in a product store.
    """
    l2 = standard_form(b).bimodule
    ext_l, tpl_ext, _ = tensor_matrix_extension_iso(l2, l2, ni, nj, KIND_LEFT)
    ext_r, tpr_ext, _ = tensor_matrix_extension_iso(l2, l2, ni, nj, KIND_RIGHT)
    ml = np.kron(np.eye(ni * nj), left_unitor(KIND_LEFT, l2)) @ ext_l
    mr = np.kron(np.eye(ni * nj), left_unitor(KIND_RIGHT, l2)) @ ext_r
    return mr.conj().T @ ml, tpl_ext, tpr_ext


def _sector_swap(alg: MultiMatrixAlgebra) -> Tuple[List[int], List[int]]:
    """Unit indices of u = sum_l e_(0, m_l - 1) over the blocks of B, and of u*.

    u carries rtimes' projection e_(m-1, m-1) of each block to ltimes'
    e_00: X e_00 u = X e_(m-1, m-1) and u* e_00 Y = e_(m-1, m-1) Y.
    """
    u = [off + m - 1 for off, m in zip(alg.offsets, alg.blocks)]
    ustar = [off + (m - 1) * m for off, m in zip(alg.offsets, alg.blocks)]
    return u, ustar


def m_iso(x: Bimodule, y: Bimodule) -> np.ndarray:
    """The multiplicativity isomorphism m_{X,Y} : X ltimes Y -> X rtimes Y.

    Both products are X (x)_B Y, cut by different projections.  A member
    c_a (x) d_b of X ltimes Y equals c_a u (x) u* d_b, since u u* = e_00
    block by block (:func:`_sector_swap`), and c_a u lies in rtimes' X p,
    u* d_b in its p Y: so m = R_X(u) (x) L_Y(u*) on members.  Built once
    inside an open product store.
    """
    return stored(_m_iso, x, y)


def _m_iso(x: Bimodule, y: Bimodule) -> np.ndarray:
    u, ustar = _sector_swap(x.right_algebra)
    return _member_map(tensor_left(x, y).members, tensor_right(x, y).members,
                       x.right_units[u].sum(axis=0), y.left_units[ustar].sum(axis=0))
