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
columns, are an orthonormal basis of the product and the result's frame.
A product keeps its members as two index arrays, ``tp.a`` and ``tp.b``;
the frames stay with the factors.  ltimes cuts block l with p = e_00 and
rtimes with its last diagonal unit, and rtimes lists its members in
reverse.

The result has the member count as its dimension and the identity on
its members as its frame (:meth:`bimodcat.bimodule.Bimodule.from_frame`):
its 0/1 action stacks are read off that frame only when something reads
them, which no check of a suite, ``generate`` or ``tensor`` does.

Maps that send frame columns to frame columns are index arrays:
``perm[j]`` is the target member of source member j, the 0/1 matrix P
with P[perm[j], j] = 1 (:func:`bimodcat.linalg.permutation_matrix`),
looked up in the products' member tables (:attr:`TensorProduct.index`).
So are the associator, a triple of frame columns sent to itself
(:func:`associator_perm`), the extension identifications, and m and the
unitors, whose matrix units carry frame columns to frame columns
(:func:`bimodcat.bimodule.moved_columns`).  :func:`m_iso`,
:func:`left_unitor` and :func:`right_unitor` give their raw matrices.

f (x) g of 2-cells has one entry point, :func:`tensor_morphisms`, for
index and dense legs; of a dense leg it is a matrix (:func:`_member_map`).
In adapted frames the matrix units of a side act by the same 0/1 maps
between corners (:func:`bimodcat.bimodule.corner_base`), so one rule on
the frames tests both forms of leg for B-linearity, and it reads no
action stack.  Inside a product store a read-only dense leg is tested
once per pair of factors and side (:func:`_frame_leg`).

The maps take a kind, where they have one, and bimodules, and fetch their
products through :func:`tensor`; only :func:`tensor_morphisms` takes the
two products it maps between.  The index arrays are built once per open
product store.  No bounded-vector space, algebraic tensor space or
spanning family is built; the tests keep those constructions as oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import MultiMatrixAlgebra, standard_form
from .bimodule import (Bimodule, Frame, corner_base, matrix_extension,
                       moved_columns)
from .linalg import permutation_matrix
from .store import product_store, stored, stored_for

KIND_LEFT = "left"     # ltimes
KIND_RIGHT = "right"   # rtimes


class WellDefinednessError(ValueError):
    """A leg of f (x) g is not B-linear, so f (x) g does not descend to X (x)_B Y."""


@dataclass(frozen=True, eq=False)
class TensorProduct:
    """A relative tensor product: its factors, its members and the result bimodule.

    Member i is the pair (a[i], b[i]) of frame columns of the two factors,
    c_a[i] (x) d_b[i]; ``a`` and ``b`` are read-only.
    """

    kind: str
    left_factor: Bimodule
    right_factor: Bimodule
    result: Bimodule
    a: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.result.dim

    @functools.cached_property
    def index(self) -> np.ndarray:
        """(dim X, dim Y) table of the members: index[a[i], b[i]] = i, else -1.

        Built on first read and kept, read-only.
        """
        table = np.full((self.left_factor.dim, self.right_factor.dim), -1,
                        dtype=np.intp)
        table[self.a, self.b] = np.arange(self.a.size)
        table.setflags(write=False)
        return table

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
    first = alg.diagonal.first        # each block's first label, then the count
    cut = first[:-1] if kind == KIND_LEFT else first[1:] - 1
    return tuple((labels == p).nonzero()[0] for p in cut)


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


def _tensor_product(kind: str, x: Bimodule, y: Bimodule) -> TensorProduct:
    """The product's members and the result, framed by them.

    Member (a, b) of block l pairs X's frame column a labelled p_l on the
    right with Y's column b labelled p_l on the left, listed block by
    block, then by a, then by b, reversed for rtimes.  A moves a alone and
    C b alone, so the frame is adapted.  The members and the result's
    frame labels are made read-only, inside a product store or not: a
    write into them would corrupt every later product of the result.
    """
    if x.right_algebra.blocks != y.left_algebra.blocks:
        raise ValueError(
            f"middle algebras differ: {x.right_algebra} vs {y.left_algebra}")
    pairs = [(cx.repeat(cy.size), cy[None, :].repeat(cx.size, 0).ravel())
             for cx, cy in zip(stored(_sector_columns, x, "right", kind),
                               stored(_sector_columns, y, "left", kind))]
    a, b = (np.concatenate(cols) for cols in zip(*pairs))
    if kind == KIND_RIGHT:
        # listed in reverse, so that m is not the identity where the middle
        # blocks have size 1
        a, b = a[::-1], b[::-1]
    # member (a, b) lies in the corner of c_a's left label and d_b's right one
    frame = Frame(None, x.frame.left[a], y.frame.right[b])
    for arr in (a, b, frame.left, frame.right):
        arr.setflags(write=False)
    result = Bimodule.from_frame(x.left_algebra, y.right_algebra, a.size, frame)
    return TensorProduct(kind, x, y, result, a, b)


def _member_map(f, g, a, b, a2, b2) -> np.ndarray:
    """f (x) g from the members (a, b) to the members (a2, b2).

    f and g are in frame coordinates: a dense leg is complex
    (:func:`_dense_frame_leg`).  Entry (i', i) is
    f[a2[i'], a[i]] g[b2[i'], b[i]].  It needs f c_a in the span of the
    target's first columns and g d_b in that of its second, which holds for
    a right-B-linear f and a left-B-linear g.  None is the identity of a
    factor that the two products share, the mask a2[:, None] == a, and an
    index array p is its 0/1 matrix, the mask a2[:, None] == p[a].
    """
    legs = [i2[:, None] == (i if m is None else m[i])
            if m is None or m.ndim == 1 else m[..., i2[:, None], i]
            for m, i, i2 in ((f, a, a2), (g, b, b2))]
    # in place on the leg of the product's shape and type: one r x r array less
    small, big = sorted(legs, key=lambda leg: (leg.ndim, leg.dtype != bool))
    big *= small
    return big


def _not_b_linear(name: str, side: str, detail: str) -> WellDefinednessError:
    return WellDefinednessError(
        f"{name} is not {side}-B-linear, so f (x) g does not descend to the "
        f"tensor product ({detail})")


def _frame_leg(name: str, side: str, m, x: Bimodule, x2: Bimodule):
    """Leg ``m`` : X -> X' in frame coordinates, checked B-linear on ``side``.

    None (X' must be X) and an index array stay as they are; a raw matrix
    becomes F = W'^H m W.  The units carry each column to and from its
    base (:func:`bimodcat.bimodule.corner_base`) by fixed 0/1 maps, so F
    must be F[base', base] between columns of equal ``side`` labels and 0
    between unequal ones, to 1e-6 max(1, ||m||_F) in the Frobenius norm;
    an index array must keep labels and bases exactly.  Inside a product
    store a read-only raw matrix is tested once per (leg, X, X', side) and
    its F kept (:func:`bimodcat.store.stored_for`); a writable one may
    change between calls, so it is tested on every call.
    """
    if m is None:
        if x is not x2:
            raise ValueError(f"{name} is None, but the two products do not "
                             f"share that factor")
        return None
    m = np.asarray(m)
    if m.shape not in ((x.dim,), (x2.dim, x.dim)):
        raise ValueError(f"{name} has shape {m.shape}, not ({x.dim},) or "
                         f"({x2.dim}, {x.dim})")
    if m.ndim == 2:
        return stored_for(m, _dense_frame_leg, name, side, x, x2)
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError(f"{name} is an index array of dtype {m.dtype}")
    if not ((0 <= m) & (m < x2.dim)).all():
        raise ValueError(f"{name} has an index outside 0..{x2.dim - 1}")
    labels, labels2 = getattr(x.frame, side), getattr(x2.frame, side)
    base, base2 = (stored(corner_base, y, side) for y in (x, x2))
    if x2.dim != x.dim or not (np.array_equal(labels2[m], labels)
                               and np.array_equal(base2[m], m[base])):
        raise _not_b_linear(name, side, "it moves frame labels or corners")
    return m


def _dense_frame_leg(m: np.ndarray, name: str, side: str, x: Bimodule,
                     x2: Bimodule) -> np.ndarray:
    """Raw matrix leg ``m`` in frame coordinates, once B-linear (:func:`_frame_leg`)."""
    labels, labels2 = getattr(x.frame, side), getattr(x2.frame, side)
    base, base2 = (stored(corner_base, y, side) for y in (x, x2))
    # W'^H m W, complex so that a product fits in place; a W that is None,
    # as a product's result's, is the identity
    frame = np.asarray(m, dtype=complex)
    if x2.frame.w is not None:
        frame = x2.frame.w.conj().T @ frame
    if x.frame.w is not None:
        frame = frame @ x.frame.w
    defect = np.linalg.norm(
        frame - (labels2[:, None] == labels) * frame[base2[:, None], base])
    if defect > 1e-6 * max(1.0, np.linalg.norm(m)):
        raise _not_b_linear(name, side, f"defect {defect:.3e}")
    return frame


def tensor_morphisms(src: TensorProduct, tgt: TensorProduct,
                     f: Optional[np.ndarray], g: Optional[np.ndarray]) -> np.ndarray:
    """f (x) g between tensor products of the same kind.

    ``f`` : X -> X' and ``g`` : Y -> Y' are each None, the identity of a
    factor that ``src`` and ``tgt`` share, an index array of frame columns
    or a raw matrix; ValueError names a malformed leg.  f must be
    right-B-linear and g left-B-linear (:func:`_frame_leg`;
    WellDefinednessError names a leg that is not).
    Index legs give an index array, a gather through ``tgt.index``; a
    dense leg gives a matrix (:func:`_member_map`), with an index leg as its
    0/1 matrix, and so do two None legs, the identity.
    """
    if src.kind != tgt.kind:
        raise ValueError("source and target tensor kinds differ")
    legs = [_frame_leg("f", "right", f, src.left_factor, tgt.left_factor),
            _frame_leg("g", "left", g, src.right_factor, tgt.right_factor)]
    if {leg.ndim for leg in legs if leg is not None} == {1}:
        a = src.a if legs[0] is None else legs[0][src.a]
        b = src.b if legs[1] is None else legs[1][src.b]
        return tgt.index[a, b]
    # two None legs give the boolean mask of the identity
    return _member_map(*legs, src.a, src.b, tgt.a, tgt.b).astype(complex, copy=False)


# -- unit isomorphisms --------------------------------------------------------

def left_unitor(kind: str, x: Bimodule) -> np.ndarray:
    """l : L2(A) (x) X -> X on the members of the kind's product, W_X[:, perm]."""
    return _frame_columns(x, left_unitor_perm(kind, x))


def right_unitor(kind: str, x: Bimodule) -> np.ndarray:
    """r : X (x) L2(B) -> X on the members of the kind's product, W_X[:, perm]."""
    return _frame_columns(x, right_unitor_perm(kind, x))


def left_unitor_perm(kind: str, x: Bimodule) -> np.ndarray:
    """l as an index array: member (e_pq, b) goes to X's frame column L(e_pq) d_b.

    L2(A)'s column e_pq is labelled p, q, so l moves d_b to the left label
    p (:func:`bimodcat.bimodule.moved_columns`) and r moves c_a to the
    right label q.  Built once inside an open product store.
    """
    return stored(_unitor_perm, kind, x, "left")


def right_unitor_perm(kind: str, x: Bimodule) -> np.ndarray:
    """r as an index array: member (a, e_pq) goes to X's frame column c_a R(e_pq)."""
    return stored(_unitor_perm, kind, x, "right")


def _unitor_perm(kind: str, x: Bimodule, side: str) -> np.ndarray:
    l2 = standard_form(getattr(x, f"{side}_algebra")).bimodule
    if side == "left":
        tp = tensor(kind, l2, x)
        return moved_columns(x, side, tp.b, l2.frame.left[tp.a])
    tp = tensor(kind, x, l2)
    return moved_columns(x, side, tp.a, l2.frame.right[tp.b])


def _frame_columns(x: Bimodule, perm: np.ndarray) -> np.ndarray:
    """W_X[:, perm], complex: the raw map of an index array into X's frame columns."""
    w = np.eye(x.dim, dtype=complex) if x.frame.w is None else x.frame.w
    return w[:, perm]


# -- associators --------------------------------------------------------------

def associator(kind: str, x: Bimodule, y: Bimodule, z: Bimodule) -> np.ndarray:
    """a : (X (x) Y) (x) Z  ->  X (x) (Y (x) Z) as a 0/1 matrix (:func:`associator_perm`)."""
    return permutation_matrix(associator_perm(kind, x, y, z))


def associator_perm(kind: str, x: Bimodule, y: Bimodule, z: Bimodule) -> np.ndarray:
    """a : (X (x) Y) (x) Z  ->  X (x) (Y (x) Z) as an index array, all four products of the kind.

    Every member of either side is a triple of frame columns of X, Y and Z:
    (c_a (x) d_b) (x) z_c and c_a (x) (d_b (x) z_c).  a sends each triple
    to itself, so it is a permutation, looked up in the tables of Y (x) Z
    and X (x) (Y (x) Z), and reads no frame.  Built once inside an open
    product store.
    """
    return stored(_associator_perm, kind, x, y, z)


def _associator_perm(kind: str, x: Bimodule, y: Bimodule, z: Bimodule) -> np.ndarray:
    tp_xy, tp_yz = tensor(kind, x, y), tensor(kind, y, z)
    src = tensor(kind, tp_xy.result, z)
    tgt = tensor(kind, x, tp_yz.result)
    # the X, Y and Z columns of each source member
    xa, yb, zc = tp_xy.a[src.a], tp_xy.b[src.a], src.b
    return tgt.index[xa, tp_yz.index[yb, zc]]


# -- matrix-extension identification and the multiplicativity isomorphism ----

def tensor_matrix_extension_iso(x: Bimodule, y: Bimodule, ni: int, nj: int,
                                kind: str):
    """Unitary ( ^I X ) (x) ( Y ^J )  ->  ^I ( X (x) Y ) ^J.

    Returns (matrix, tp_ext, ext_result) where tp_ext is the tensor product
    of the extended factors and ext_result the Hilbert-Schmidt extension of
    X (x) Y that the matrix maps onto.  The matrix is a permutation of
    members: coordinate (i, j, r) of ext_result, row-major, is the slot
    (i, j) of member r = c_a (x) d_b, which is (e_i (x) c_a) (x) (d_b (x) e_j),
    the member of frame columns i dim X + a of 1_I (x) W_X and j dim Y + b
    of 1_J (x) W_Y, the extensions' frames
    (:func:`bimodcat.bimodule.matrix_extension`).
    """
    tp_xy = tensor(kind, x, y)
    tp_ext = tensor(kind, matrix_extension(x, ni, 1), matrix_extension(y, 1, nj))
    i, j, r = np.indices((ni, nj, tp_xy.a.size)).reshape(3, -1)
    members = tp_ext.index[i * x.dim + tp_xy.a[r], j * y.dim + tp_xy.b[r]]
    return (permutation_matrix(members).T, tp_ext,
            matrix_extension(tp_xy.result, ni, nj))


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


def m_iso(x: Bimodule, y: Bimodule) -> np.ndarray:
    """The multiplicativity isomorphism m_{X,Y} as a 0/1 matrix (:func:`m_perm`)."""
    return permutation_matrix(m_perm(x, y))


def m_perm(x: Bimodule, y: Bimodule) -> np.ndarray:
    """m_{X,Y} : X ltimes Y -> X rtimes Y as an index array.

    Both products are X (x)_B Y, cut by different projections.  With
    u = sum_l e_(0, m_l - 1), u u* = e_00 block by block, so a member
    c_a (x) d_b of X ltimes Y equals c_a u (x) u* d_b, and c_a u lies in
    rtimes' X p, u* d_b in its p Y: m = R_X(u) (x) L_Y(u*).  u and u*
    carry frame columns to frame columns, so m is the inverse of one
    lookup in X ltimes Y's table (:func:`bimodcat.bimodule.corner_base`).
    On every input tested m is the member reversal, derived here, not
    assumed: u and u* keep the frame order of the columns they move, as
    every frame the library builds lists the corners of a pair of blocks
    alike, and rtimes lists its members in reverse.  Built once inside an
    open product store.
    """
    return stored(_m_perm, x, y)


def _m_perm(x: Bimodule, y: Bimodule) -> np.ndarray:
    # m^-1 = R_X(u*) (x) L_Y(u) moves the columns of a member of X rtimes Y
    # to their bases, the first labels of their blocks, as in X ltimes Y
    tp = tensor_right(x, y)
    back = tensor_left(x, y).index[corner_base(x, "right")[tp.a],
                                   corner_base(y, "left")[tp.b]]
    perm = np.empty_like(back)
    perm[back] = np.arange(back.size)
    return perm
