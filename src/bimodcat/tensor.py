"""Relative tensor products, structural isomorphisms and the multiplicativity map.

Two tensor products are implemented for a composable pair X (A-B) and
Y (B-C):

* ``kind="left"``  : completion of XB(-1/2) (x)_B Y        (the ltimes product)
* ``kind="right"`` : completion of X (x)_B B(-1/2)Y        (the rtimes product)

Both are built from the sectors of B = (+)_l M_m.  For a minimal
projection p of block l, [xi, xi']_B = <xi, xi'> p on X p, so X (x)_B Y is
the orthogonal sum over l of X p (x) p Y.  With orthonormal bases c_a of
X p and d_b of p Y, the tensors c_a (x) d_b are an orthonormal basis of
the product: its members (:class:`Members`).  ltimes cuts block l with
p = e_00 and rtimes with its last diagonal unit, and rtimes lists its
members in reverse.  Each sector basis selects columns of a frame
(:class:`bimodcat.bimodule.Frame`) and is kept in the product store
(:func:`_sector_bases`); the members are the result's frame.

The result bimodule has the member count as its dimension.  Its action
stacks are built on their first read only
(:meth:`bimodcat.bimodule.Bimodule.deferred`), which most results never
get.  Its unitality is checked without them: the result is unital
exactly when the factors' sector bases are orthonormal, which
:func:`_sector_bases` checks once per basis.

Every map between products is read off the members on elementary
tensors.  One formula, :func:`_member_map`, sends c_a (x) d_b to
f c_a (x) g d_b; its cases are the result actions, f (x) g, the
multiplicativity map m, the extension identifications and, on conjugate
members, the conjugation c of :mod:`bimodcat.involution`.  The unitors and
the associator pair sector bases the same way.  They and m take a kind,
where they have one, and bimodules, and fetch their products through
:func:`tensor`; only :func:`tensor_morphisms` takes the two products it
maps between.  No bounded-vector space, algebraic tensor space or
spanning family is built; the tests keep those constructions as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .algebra import MultiMatrixAlgebra, standard_form
from .bimodule import Bimodule, Frame, NotABimoduleError, matrix_extension
from .store import product_store, stored

KIND_LEFT = "left"     # ltimes
KIND_RIGHT = "right"   # rtimes


class WellDefinednessError(ValueError):
    """A leg of f (x) g is not B-linear, so f (x) g does not descend to X (x)_B Y."""


@dataclass(frozen=True, eq=False)
class Members:
    """A product's orthonormal basis: member i is c[:, a[i]] (x) d[:, b[i]].

    ``c`` and ``d`` concatenate the sector bases of X p_l and p_l Y over
    the blocks l of B.  Block l's members are every pair of its c and d
    columns; ``blocks`` holds their indices on that grid and both slices.
    """

    c: np.ndarray
    d: np.ndarray
    a: np.ndarray
    b: np.ndarray
    blocks: Tuple[Tuple[np.ndarray, slice, slice], ...]


@dataclass(frozen=True, eq=False)
class TensorProduct:
    """A relative tensor product: its factors, its members and the result bimodule."""

    kind: str
    left_factor: Bimodule
    right_factor: Bimodule
    result: Bimodule
    members: Members             # the result's coordinates

    @property
    def dim(self) -> int:
        return self.result.dim

    @property
    def alg_dim(self) -> int:
        """Dimension of the algebraic tensor space: a bounded basis has d members."""
        return self.left_factor.dim * self.right_factor.dim


def _sector_position(n: int, kind: str) -> int:
    """The diagonal position of p in a block of size n.

    ltimes takes p = e_00 of each block, rtimes the last diagonal unit
    e_dd.  With one p shared by both kinds, the two results would get
    equal action matrices and m would be the identity.
    """
    return 0 if kind == KIND_LEFT else n - 1


def _sector_columns(x: Bimodule, side: str, kind: str) -> Tuple[np.ndarray, ...]:
    """Per block of the ``side`` algebra, the indices of the frame columns labelled p."""
    alg = x.left_algebra if side == "left" else x.right_algebra
    labels = getattr(x.frame, side)   # Frame.left or Frame.right
    first = np.cumsum((0,) + alg.blocks)   # each block's first diagonal unit
    return tuple(np.flatnonzero(labels == first[k] + _sector_position(n, kind))
                 for k, n in enumerate(alg.blocks))


def _sector_bases(x: Bimodule, side: str, kind: str) -> Tuple[np.ndarray, ...]:
    """Per block of the ``side`` algebra, orthonormal columns spanning X p or p X.

    ``side`` "right" gives X p, "left" p X: the frame columns labelled p
    on ``side`` (:func:`_sector_columns`).  Every basis V must have
    ||V^H V - 1||_F <= 1e-8, or a product's result would not be unital: a
    frame from explicit stacks is orthonormal only up to its corners.
    """
    w = x.frame.w
    w = np.eye(x.dim, dtype=complex) if w is None else w
    bases = tuple(w[:, cols] for cols in stored(_sector_columns, x, side, kind))
    for block, c in enumerate(bases):
        defect = np.linalg.norm(c.conj().T @ c - np.eye(c.shape[1]))
        if defect > 1e-8:
            raise NotABimoduleError(
                f"{side} action of the sector unit of block {block} is not a "
                f"projection: its range basis is off orthonormal by "
                f"{defect:.3e}")
    return bases


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

    Member (a, b) of block l is c_a (x) d_b, with c_a in X p_l and d_b in
    p_l Y, listed block by block, reversed for rtimes.  A acts by
    c^H L_u c on the index a alone, C by d^H R_v d on b alone: the cases
    L_u (x) 1 and 1 (x) R_v of f (x) g, built on the result's first read.
    With no store open it opens one for its build, so that a factor given
    by its stacks finds its frame once.
    """
    if x.right_algebra.blocks != y.left_algebra.blocks:
        raise ValueError(
            f"middle algebras differ: {x.right_algebra} vs {y.left_algebra}")
    cs = stored(_sector_bases, x, "right", kind)
    ds = stored(_sector_bases, y, "left", kind)
    (lc, spans_c), (ld, spans_d) = _columns(cs), _columns(ds)
    # the members: pairs of first and second indices of one block
    a, b = np.nonzero(lc[:, None] == ld)
    if kind == KIND_RIGHT:
        # listed in reverse, so that m is not the identity where the middle
        # blocks have size 1
        a, b = a[::-1], b[::-1]
    c, d = np.concatenate(cs, axis=1), np.concatenate(ds, axis=1)
    index = np.empty((c.shape[1], d.shape[1]), dtype=int)
    index[a, b] = np.arange(a.size)
    members = Members(c, d, a, b, tuple((index[sc, sd], sc, sd)
                                        for sc, sd in zip(spans_c, spans_d)))
    # member (a, b) lies in the corner of c_a's left label and d_b's right one
    cols_x = np.concatenate(stored(_sector_columns, x, "right", kind))
    cols_y = np.concatenate(stored(_sector_columns, y, "left", kind))
    frame = Frame(None, x.frame.left[cols_x][a], y.frame.right[cols_y][b])
    result = Bimodule.deferred(
        x.left_algebra, y.right_algebra, a.size,
        lambda: (_member_map(members, members, x.left_units, None),
                 _member_map(members, members, None, y.right_units)),
        frame)
    return TensorProduct(kind, x, y, result, members)


def _columns(bases: Tuple[np.ndarray, ...]):
    """The block of each concatenated column, and the column slice of each block."""
    sizes = [c.shape[1] for c in bases]
    return (np.repeat(np.arange(len(bases)), sizes),
            [slice(sum(sizes[:k]), sum(sizes[:k + 1])) for k in range(len(sizes))])


def _member_map(src: Members, tgt: Members, f, g) -> np.ndarray:
    """f (x) g from ``src``'s members to ``tgt``'s; f and g may be stacks.

    Entry (i', i) is (c'^H f c)[a'_i', a_i] (d'^H g d)[b'_i', b_i].  It
    needs f c_a in the span of c' and g d_b in that of d', which holds for
    a right-B-linear f and a left-B-linear g.  None is the identity of a
    factor that ``src`` and ``tgt`` share.
    """
    fc = (tgt.a[:, None] == src.a) if f is None else (
        tgt.c.conj().T @ f @ src.c)[..., tgt.a[:, None], src.a]
    gd = (tgt.b[:, None] == src.b) if g is None else (
        tgt.d.conj().T @ g @ src.d)[..., tgt.b[:, None], src.b]
    return fc * gd


def tensor_morphisms(src: TensorProduct, tgt: TensorProduct,
                     f: np.ndarray, g: np.ndarray,
                     check: bool = True) -> np.ndarray:
    """Matrix of f (x) g between tensor products of the same kind.

    ``f`` : X -> X' and ``g`` : Y -> Y' are raw matrices.  For both kinds
    f must be right-B-linear and g left-B-linear (any bimodule morphism
    qualifies): then f (x) g respects xi b (x) eta = xi (x) b eta.  Unless
    ``check`` is false, WellDefinednessError names a leg m for which
    ||m U_w - U'_w m||_F, stacked over every matrix unit w of B, exceeds
    1e-6 max(1, ||m||_F); rounding leaves about machine epsilon ||m||.
    """
    if src.kind != tgt.kind:
        raise ValueError("source and target tensor kinds differ")
    x, y, x2, y2 = src.left_factor, src.right_factor, tgt.left_factor, tgt.right_factor
    legs = (("f", "right", f, x.right_units, x2.right_units),
            ("g", "left", g, y.left_units, y2.left_units))
    for name, side, m, units, target_units in legs if check else ():
        defect = np.linalg.norm(m @ units - target_units @ m)
        if defect > 1e-6 * max(1.0, np.linalg.norm(m)):
            raise WellDefinednessError(
                f"{name} is not {side}-B-linear, so f (x) g does not descend "
                f"to the tensor product (defect {defect:.3e})")
    return _member_map(src.members, tgt.members, f, g)


# -- unit isomorphisms --------------------------------------------------------

def left_unitor(kind: str, x: Bimodule) -> np.ndarray:
    """l : L2(A) (x) X -> X on the members of the kind's product.

    l(c_a (x) d_b) = c_a . d_b = sum_w c_a[w] L_w d_b, for c_a in L2(A) p.
    """
    tp = tensor(kind, standard_form(x.left_algebra).bimodule, x)
    m = tp.members
    return np.einsum("wi,wxi->xi", m.c[:, m.a], x.left_units @ m.d[:, m.b])


def right_unitor(kind: str, x: Bimodule) -> np.ndarray:
    """r : X (x) L2(B) -> X on the members of the kind's product.

    r(c_a (x) d_b) = c_a . d_b = sum_w d_b[w] R_w c_a, for d_b in p L2(B).
    """
    tp = tensor(kind, x, standard_form(x.right_algebra).bimodule)
    m = tp.members
    return np.einsum("wi,wxi->xi", m.d[:, m.b], x.right_units @ m.c[:, m.a])


# -- associators --------------------------------------------------------------

def associator(kind: str, x: Bimodule, y: Bimodule, z: Bimodule) -> np.ndarray:
    """a : (X (x) Y) (x) Z  ->  X (x) (Y (x) Z), all four products of the kind.

    Write the members of X (x) Y as c_a (x) d_b, of (X (x) Y) (x) Z as
    e_alpha (x) z_gamma, of Y (x) Z as y_beta (x) z_gamma and of
    X (x) (Y (x) Z) as c_a (x) h_rho; e is in the member coordinates of
    X (x) Y and h in those of Y (x) Z.  So e_alpha (x) z_gamma is
    sum_(a, b) e[(a, b), alpha] (c_a (x) d_b) (x) z_gamma, which maps to
    the same sum of c_a (x) (d_b (x) z_gamma).  In Y (x) Z, d_b (x) z_gamma
    is sum_beta <y_beta, d_b> y_beta (x) z_gamma, and c_a (x) w has the
    coordinate <h_rho, w> on c_a (x) h_rho.  Blocks l of B and m of C meet
    in one block of the matrix: rows (a, rho), columns (alpha, gamma).
    """
    tp_xy, tp_yz = tensor(kind, x, y), tensor(kind, y, z)
    tp_xy_z = tensor(kind, tp_xy.result, z)
    tp_x_yz = tensor(kind, x, tp_yz.result)
    xy, xy_z, yz, x_yz = (tp.members for tp in (tp_xy, tp_xy_z, tp_yz, tp_x_yz))
    overlap = yz.c.conj().T @ xy.d           # <y_beta, d_b> in Y
    out = np.zeros((tp_x_yz.dim, tp_xy_z.dim), dtype=complex)
    for (xy_ids, _, sd), (tgt_ids, _, sh) in zip(xy.blocks, x_yz.blocks):
        # per index a, (alpha, beta): sum_b e[(a, b), alpha] <y_beta, d_b>
        ey = (overlap[:, sd] @ xy_z.c[xy_ids]).transpose(0, 2, 1)
        for (src_ids, se, _), (yz_ids, sy, _) in zip(xy_z.blocks, yz.blocks):
            if tgt_ids.size and src_ids.size:   # then Y q != 0: no size is 0
                h = x_yz.d[yz_ids][..., sh].conj()   # (beta, gamma, rho)
                block = (ey[:, se, sy] @ h.reshape(len(h), -1)).reshape(
                    len(tgt_ids), len(src_ids), *h.shape[1:])
                out[tgt_ids.reshape(-1, 1), src_ids.ravel()] = block.transpose(
                    0, 3, 1, 2).reshape(tgt_ids.size, src_ids.size)
    return out


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
    a member with first-leg basis 1_I (x) c, index i |c| + a, and
    second-leg basis 1_J (x) d, index j |d| + b.
    """
    m, ext = tp_xy.members, tp_ext.members
    shape = (ni, nj, m.a.size)
    first = np.arange(ni)[:, None, None] * m.c.shape[1] + m.a
    second = np.arange(nj)[None, :, None] * m.d.shape[1] + m.b
    slots = Members(np.kron(np.eye(ni), m.c), np.kron(np.eye(nj), m.d),
                    np.broadcast_to(first, shape).ravel(),
                    np.broadcast_to(second, shape).ravel(), ())
    return _member_map(ext, slots, np.eye(len(ext.c)), np.eye(len(ext.d)))


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
