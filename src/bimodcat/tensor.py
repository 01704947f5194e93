"""Relative tensor products, structural isomorphisms and the multiplicativity map.

Two tensor products are implemented for a composable pair X (A-B) and
Y (B-C):

* ``kind="left"``  : completion of XB(-1/2) (x)_B Y        (the ltimes product)
* ``kind="right"`` : completion of X (x)_B B(-1/2)Y        (the rtimes product)

Each is realized as a quotient of the algebraic tensor space spanned by
(bounded basis) x (orthonormal basis), and both share one construction.
Its Gram is ``G = sum_w A_w (x) B_w`` over the matrix units w of the
middle algebra B = (+)_l M_m: for ``ltimes`` A_w holds the w-coordinates
of the B-valued inner products [f_i, f_j]_B of the bounded basis and B_w
is the left action on Y; for ``rtimes`` A_w is the right action on X and
B_w holds the w-coordinates of _B[v_k, v_j].

The quotient comes from the sectors, with no Gram matrix and no
eigensolver.  For a minimal projection p of block l, [xi, xi']_B =
<xi, xi'> p on X p, so X (x)_B Y is the orthogonal sum over l of
X p (x) p Y.  With orthonormal bases c_a of X p and d_b of p Y, the
family V of tensors c_a (x) d_b (the bounded leg in bounded-basis
coefficients) is G-orthonormal and has as many members as the product
has dimensions.  The bounded basis is a tight frame
(:mod:`bimodcat.bounded`), so G is an orthogonal projection, and
Q = (G V)^H has Q Q^H = id and Q^H Q = G: quotient coordinates are
isometric, and the section is E = Q^H.  G V is summed from the m units
of block l that are nonzero on its sector; each factor's sector bases
and its leg of that sum are built once per bimodule and kind in the
product store.  A product keeps Q.

Since Q V = 1, the quotient coordinates are the members c_a (x) d_b
themselves (:class:`Members`), so f (x) g, the unitors and the
associator are read off the sector bases on elementary tensors; the
tests keep their algebraic-space constructions as oracles.  The
extension identifications solve a spanning family by the adjoint
(``map_from_spanning``: M = T S^H), a quotient's image of a tight frame
and so with orthonormal rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import MultiMatrixAlgebra, standard_form
from .bimodule import Bimodule, Morphism, matrix_extension
from .bounded import BoundedBasis, _acting, left_bounded_space, right_bounded_space
from .linalg import map_from_spanning, op_norm, range_basis, unit_inner
from .store import product_store, stored

KIND_LEFT = "left"     # ltimes
KIND_RIGHT = "right"   # rtimes


class WellDefinednessError(ValueError):
    """A map failed to respect the Gram null space of a tensor quotient."""


@dataclass(frozen=True, eq=False)
class Members:
    """A product's quotient basis: member i is c[:, a[i]] (x) d[:, b[i]].

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
    """A relative tensor product with its quotient bookkeeping."""

    kind: str
    left_factor: Bimodule
    right_factor: Bimodule
    bounded: BoundedBasis        # right-bounded of X (kind left) / left-bounded of Y
    quotient: np.ndarray         # Q : algebraic -> quotient, Q Q^H = id
    result: Bimodule
    members: Members             # the quotient basis, Q V = 1

    @property
    def dim(self) -> int:
        return self.result.dim

    @property
    def alg_dim(self) -> int:
        return self.quotient.shape[1]

    @property
    def section(self) -> np.ndarray:
        """E = Q^H : quotient -> algebraic, Q E = id."""
        return self.quotient.conj().T

    def class_coords(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Quotient coordinates of an elementary tensor.

        kind "left": ``first`` = bounded-basis coefficients, ``second`` = vector in Y.
        kind "right": ``first`` = vector in X, ``second`` = bounded-basis coefficients.
        """
        return self.quotient @ np.kron(first, second)


def _sector_units(alg: MultiMatrixAlgebra, kind: str):
    """Per block of B: the index of its p, and of the units w nonzero on p's sector.

    ltimes takes p = e_00 of each block, so w = e_i0; rtimes the last
    diagonal unit e_dd, so w = e_di.  With one p shared by both kinds, the
    two results would get equal action matrices and m would be the
    identity.
    """
    for off, m in zip(alg.offsets, alg.blocks):
        if kind == KIND_LEFT:
            yield off, off + m * np.arange(m)
        else:
            last = off + (m - 1) * m
            yield last + m - 1, last + np.arange(m)


def _sector_bases(x: Bimodule, side: str, kind: str) -> Tuple[np.ndarray, ...]:
    """Per block of B, orthonormal columns spanning X p (``side`` "right") or p X."""
    alg, units = _acting(x, side)
    return tuple(range_basis(units[p]) for p, _ in _sector_units(alg, kind))


def _sector_legs(x: Bimodule, side: str, kind: str) -> Tuple[np.ndarray, ...]:
    """Per block of B, x's leg of G V on its sector: a (m, n, k) stack over m units w.

    The columns c_a are the sector basis of X p (``side`` "right") or
    p X.  On the bounded leg the stack holds A_w c_a in bounded-basis
    coordinates, (U_w f_i)^H c_a; on the other leg it holds U_w c_a.
    """
    right = side == "right"
    alg, units = _acting(x, side)
    pairs = zip(stored(_sector_bases, x, side, kind), _sector_units(alg, kind))
    if right == (kind == KIND_LEFT):
        bounded = (right_bounded_space if right else left_bounded_space)(x)
        return tuple(unit_inner(units[w], bounded.vectors, c)
                     for c, (_, w) in pairs)
    return tuple(units[w] @ c for c, (_, w) in pairs)


def _sector_quotient(firsts, seconds) -> np.ndarray:
    """Q = (G V)^H for the sector family V, with G = sum_w A_w (x) B_w never formed.

    ``firsts`` and ``seconds`` hold, per block of B, the two legs'
    (m, n1, k) and (m, n2, j) stacks from :func:`_sector_legs`; V's columns
    are the products of their sector bases, so that block of G V is
    sum_w (A_w a) (x) (B_w b), one (m, n1*k)^T @ (m, n2*j) product.
    """
    cols = []
    for ga, gb in zip(firsts, seconds):
        (m, n1, k), (_, n2, j) = ga.shape, gb.shape
        cols.append((ga.reshape(m, n1 * k).T @ gb.reshape(m, n2 * j))
                    .reshape(n1, k, n2, j).transpose(0, 2, 1, 3)
                    .reshape(n1 * n2, k * j))
    return np.concatenate(cols, axis=1).conj().T


def tensor_left(x: Bimodule, y: Bimodule) -> TensorProduct:
    """X ltimes Y: completion of XB(-1/2) (x)_B Y.

    The algebraic space is (bounded basis of X) x (basis of Y).  The result
    is the orthogonal sum over the blocks l of B of X p_l (x) p_l Y, with
    p_l = e_00 of block l (:func:`_tensor_product`).  Inside an open
    product store, each product is built once.
    """
    return stored(_tensor_product, KIND_LEFT, x, y)


def tensor_right(x: Bimodule, y: Bimodule) -> TensorProduct:
    """X rtimes Y: completion of X (x)_B B(-1/2)Y.

    The algebraic space is (basis of X) x (bounded basis of Y).  The result
    is the orthogonal sum over the blocks l of B of X p_l (x) p_l Y, with
    p_l the last diagonal unit of block l, listed in reverse
    (:func:`_tensor_product`).  Inside an open product store, each product
    is built once.
    """
    return stored(_tensor_product, KIND_RIGHT, x, y)


def tensor(kind: str, x: Bimodule, y: Bimodule) -> TensorProduct:
    if kind == KIND_LEFT:
        return tensor_left(x, y)
    if kind == KIND_RIGHT:
        return tensor_right(x, y)
    raise ValueError(f"unknown tensor kind {kind!r}")


def _tensor_product(kind: str, x: Bimodule, y: Bimodule) -> TensorProduct:
    """The sector quotient Q, its members and the result's actions on them.

    Member (a, b) of block l is c_a (x) d_b, with c_a in X p_l and d_b in
    p_l Y; ``quotient`` is (r, n1*n2) and lists the members block by block,
    reversed for rtimes.  A acts by c^H L_u c on the index a alone, C by
    d^H R_v d on b alone: the cases L_u (x) 1 and 1 (x) R_v of f (x) g.
    """
    if x.right_algebra.blocks != y.left_algebra.blocks:
        raise ValueError(
            f"middle algebras differ: {x.right_algebra} vs {y.left_algebra}")
    bb = right_bounded_space(x) if kind == KIND_LEFT else left_bounded_space(y)
    quotient = _sector_quotient(stored(_sector_legs, x, "right", kind),
                                stored(_sector_legs, y, "left", kind))
    cs = stored(_sector_bases, x, "right", kind)
    ds = stored(_sector_bases, y, "left", kind)
    (lc, spans_c), (ld, spans_d) = _columns(cs), _columns(ds)
    # the members: pairs of first and second indices of one block
    a, b = np.nonzero(lc[:, None] == ld)
    if kind == KIND_RIGHT:
        # listed in reverse, so that m is not the identity where the middle
        # blocks have size 1
        quotient = np.ascontiguousarray(quotient[::-1])
        a, b = a[::-1], b[::-1]
    c, d = np.concatenate(cs, axis=1), np.concatenate(ds, axis=1)
    index = np.empty((c.shape[1], d.shape[1]), dtype=int)
    index[a, b] = np.arange(a.size)
    members = Members(c, d, a, b, tuple((index[sc, sd], sc, sd)
                                        for sc, sd in zip(spans_c, spans_d)))
    result = Bimodule(x.left_algebra, y.right_algebra,
                      _member_map(members, members, x.left_units, None),
                      _member_map(members, members, None, y.right_units))
    return TensorProduct(kind, x, y, bb, quotient, result, members)


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


def induced_map(src: TensorProduct, tgt: TensorProduct, alg_map: np.ndarray,
                check: bool = True) -> np.ndarray:
    """Q_tgt A E_src for a map A of algebraic coordinates.

    Unless ``check`` is false, it raises unless A maps the source's Gram
    null space into the target's, so that A descends.  With K an
    orthonormal basis of that null space, E Q = 1 - K K^H, so
    ||QA - (QA E) Q||_F is the Gram seminorm ||Q_tgt A K||_F of its image,
    found without a kernel basis.  Every product's Gram is an orthogonal
    projection (the bounded basis is HS-orthonormal, so
    sum_i f_i f_i^H = 1), hence ||Q|| = 1 and the defect scales with ||A||
    alone.  A true kernel vector leaves a residual of order
    sqrt(machine epsilon), hence the loose 1e-6.
    """
    qa = tgt.quotient @ alg_map
    out = qa @ src.section
    if check and src.dim < src.alg_dim:
        defect = np.linalg.norm(qa - out @ src.quotient)
        if defect > 1e-6 * max(1.0, op_norm(alg_map)):
            raise WellDefinednessError(
                f"map does not descend to the tensor quotient (defect {defect:.3e})")
    return out


def tensor_morphisms(src: TensorProduct, tgt: TensorProduct,
                     f: np.ndarray, g: np.ndarray,
                     check: bool = True) -> np.ndarray:
    """Matrix of f (x) g between tensor quotients of the same kind.

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
                f"to the tensor quotient (defect {defect:.3e})")
    return _member_map(src.members, tgt.members, f, g)


def morphism_tensor(src: TensorProduct, tgt: TensorProduct,
                    f: Morphism, g: Morphism) -> Morphism:
    """Bimodule-morphism wrapper around :func:`tensor_morphisms`."""
    mat = tensor_morphisms(src, tgt, f.matrix, g.matrix)
    return Morphism(src.result, tgt.result, mat)


# -- unit isomorphisms --------------------------------------------------------

def left_unitor(tp: TensorProduct) -> np.ndarray:
    """l : L2(A) (x) X -> X on the quotient; the left factor must be standard.

    l(c_a (x) d_b) = c_a . d_b = sum_w c_a[w] L_w d_b, for c_a in L2(A) p.
    """
    m = tp.members
    return np.einsum("wi,wxi->xi", m.c[:, m.a],
                     tp.right_factor.left_units @ m.d[:, m.b])


def right_unitor(tp: TensorProduct) -> np.ndarray:
    """r : X (x) L2(B) -> X on the quotient; the right factor must be standard.

    r(c_a (x) d_b) = c_a . d_b = sum_w d_b[w] R_w c_a, for d_b in p L2(B).
    """
    m = tp.members
    return np.einsum("wi,wxi->xi", m.d[:, m.b],
                     tp.left_factor.right_units @ m.c[:, m.a])


def unit_isos(kind: str, x: Bimodule) -> Tuple[Morphism, Morphism]:
    """The two unit isomorphisms (l, r) for a bimodule, as morphisms."""
    l2a = standard_form(x.left_algebra).bimodule
    l2b = standard_form(x.right_algebra).bimodule
    tpl = tensor(kind, l2a, x)
    tpr = tensor(kind, x, l2b)
    return (Morphism(tpl.result, x, left_unitor(tpl)),
            Morphism(tpr.result, x, right_unitor(tpr)))


# -- associators --------------------------------------------------------------

def associator(tp_xy: TensorProduct, tp_xy_z: TensorProduct,
               tp_yz: TensorProduct, tp_x_yz: TensorProduct) -> np.ndarray:
    """a : (X (x) Y) (x) Z  ->  X (x) (Y (x) Z), all four products of one kind.

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
    kind = tp_xy.kind
    if {tp_xy_z.kind, tp_yz.kind, tp_x_yz.kind} != {kind}:
        raise ValueError("associator needs four tensor products of one kind")
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
    """The extension identification, solved on a spanning family.

    The family pairs the bounded vectors (slot i, f_a) of ^I X (ltimes) or
    (v_b, slot j) of Y^J (rtimes) with the other factor's basis vectors.
    """
    bb, ext = tp_xy.bounded, tp_ext.bounded
    left = tp_xy.kind == KIND_LEFT
    coeff = ext.expand(np.kron(np.eye(ni if left else nj), bb.vectors))
    if left:
        n1, n2 = bb.size, tp_xy.right_factor.dim
        qsrc = tp_ext.quotient.reshape(tp_ext.dim, ext.size, nj * n2)
        src = coeff.T @ qsrc
    else:
        n1, n2 = tp_xy.left_factor.dim, bb.size
        qsrc = tp_ext.quotient.reshape(tp_ext.dim, ni * n1, ext.size)
        src = qsrc @ coeff
    # target columns e_i (x) e_j (x) Q(e_a (x) e_b), in the order (i, a, j, b)
    r = tp_xy.dim
    tgt = np.kron(np.eye(ni * nj), tp_xy.quotient).reshape(
        ni * nj * r, ni, nj, n1, n2).transpose(0, 1, 3, 2, 4)
    return map_from_spanning(src.reshape(tp_ext.dim, ni * n1 * nj * n2),
                             tgt.reshape(ni * nj * r, ni * n1 * nj * n2))


@product_store()
def m_standard(b: MultiMatrixAlgebra, ni: int, nj: int):
    """The unitary ^I m ^J on extensions of the standard bimodule.

    Returns (matrix, tp_left, tp_right): the map from the ltimes to the
    rtimes product of ( ^I L2(B), L2(B) ^J ), via the entrywise unit
    isomorphism and the extension identifications, in a product store.
    """
    l2 = standard_form(b).bimodule
    tp_l = tensor_left(l2, l2)
    tp_r = tensor_right(l2, l2)
    ext_l, tpl_ext, _ = tensor_matrix_extension_iso(l2, l2, ni, nj, KIND_LEFT)
    ext_r, tpr_ext, _ = tensor_matrix_extension_iso(l2, l2, ni, nj, KIND_RIGHT)
    ml = np.kron(np.eye(ni * nj), left_unitor(tp_l)) @ ext_l
    mr = np.kron(np.eye(ni * nj), left_unitor(tp_r)) @ ext_r
    return mr.conj().T @ ml, tpl_ext, tpr_ext


def _standard_images(b_alg: MultiMatrixAlgebra, avecs: np.ndarray,
                     cvecs: np.ndarray) -> np.ndarray:
    """Images in ^I L2(B) ^J of spanning tensors, entry (i', j') = vec(a_i' c_j').

    ``avecs``: (|B|, n, colsA) algebra vectors per frame row and first spanning
    index; ``cvecs``: (|B|, m, colsC) per frame row and second spanning index.
    Returns (n*m*|B|, colsA*colsC) with rows (i', j', w) and columns
    (first, second), both row-major.
    """
    lunits = standard_form(b_alg).bimodule.left_units       # (w, v, u)
    # vec(a c)[v] = sum_{w,u} a[w] L_w[v, u] c[u]
    out = np.tensordot(np.tensordot(avecs, lunits, axes=(0, 0)), cvecs,
                       axes=(3, 0))                          # (i, x, v, j, s)
    n, ca, w, m, cc = out.shape
    return out.transpose(0, 3, 2, 1, 4).reshape(n * m * w, ca * cc)


def m_iso(x: Bimodule, y: Bimodule,
          right_rotation: Optional[np.ndarray] = None,
          left_rotation: Optional[np.ndarray] = None) -> np.ndarray:
    """The multiplicativity isomorphism m_{X,Y} : X ltimes Y -> X rtimes Y.

    Uses projective realizations u : X -> p ^I L2(B) and v : Y -> L2(B)^J q,
    whose tight frames are the bounded bases the two products already hold
    (right-bounded of X for ltimes, left-bounded of Y for rtimes); both
    sides are mapped into ^I L2(B) ^J by the entrywise multiplication
    formula and composed.
    Optional unitary rotations recombine the frames, producing different
    but equivalent realizations (the result is provably independent).
    Without rotations, m is built once inside an open product store.
    """
    if right_rotation is None and left_rotation is None:
        return stored(_m_iso, x, y)
    return _m_iso(x, y, right_rotation, left_rotation)


def _m_iso(x: Bimodule, y: Bimodule,
           right_rotation: Optional[np.ndarray] = None,
           left_rotation: Optional[np.ndarray] = None) -> np.ndarray:
    tp_left, tp_right = tensor_left(x, y), tensor_right(x, y)
    b_alg = x.right_algebra
    gframe = tp_left.bounded.vectors
    hframe = tp_right.bounded.vectors
    if right_rotation is not None:
        gframe = gframe @ right_rotation
    if left_rotation is not None:
        hframe = hframe @ left_rotation
    # per matrix unit w of B, the rows g_i'^H R_w^H on X and h_j'^H L_w^H on Y
    gh = (x.right_units @ gframe).conj().transpose(0, 2, 1)
    hh = (y.left_units @ hframe).conj().transpose(0, 2, 1)
    # ltimes side, spanning columns (i, s) = Q_left columns, xi_i the
    # right-bounded basis of X:
    #   a-part: vec(a_i') = g_i'^H xi_i ; c-part: vec(c_j') = h_j'^H e_s
    big_l = _standard_images(b_alg, gh @ tp_left.bounded.vectors, hh)
    m_l = big_l @ tp_left.section
    # rtimes side, spanning columns (s, j), eta_j the left-bounded basis of Y:
    #   b-part: vec(b_i') = g_i'^H e_s ; d-part: vec(d_j') = h_j'^H eta_j
    big_r = _standard_images(b_alg, gh, hh @ tp_right.bounded.vectors)
    m_r = big_r @ tp_right.section
    return m_r.conj().T @ m_l
