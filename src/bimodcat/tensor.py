"""Relative tensor products, structural isomorphisms and the multiplicativity map.

Two tensor products are implemented for a composable pair X (A-B) and
Y (B-C):

* ``kind="left"``  : completion of XB(-1/2) (x)_B Y        (the ltimes product)
* ``kind="right"`` : completion of X (x)_B B(-1/2)Y        (the rtimes product)

Each is realized as the Gram quotient of the algebraic tensor space spanned
by (bounded basis) x (orthonormal basis); the quotient map Q satisfies
Q^H Q = Gram on the positive part, so standard coordinates on the quotient
are isometric, and the section E satisfies Q E = id.  An operator F (x) G
on the algebraic space that preserves the Gram null space descends to
Q (F (x) G) E on the quotient.  In particular the result bimodule acts by

* ``Q (F_u (x) 1) E`` on the left, where F_u is the action of the u-th
  matrix unit on the first leg (for ``ltimes`` the bounded-basis
  coefficients of a . f_i, for ``rtimes`` the left action on X);
* ``Q (1 (x) R_u) E`` on the right, where R_u acts on the second leg (for
  ``ltimes`` the right action on Y, for ``rtimes`` the bounded-basis
  coefficients of v_j . b).

These and the other multi-operand contractions run as pairwise batched
matrix products (BLAS): numpy's ``einsum`` runs three operands as one
unblocked loop over every index.  All structural isomorphisms (unitors, associators,
extension identifications, the multiplicativity isomorphism m) are built
on canonical spanning families and verified for consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import MultiMatrixAlgebra, standard_form
from .bimodule import Bimodule, Morphism, matrix_extension
from .bounded import BoundedBasis, left_bounded_space, right_bounded_space
from .linalg import RANK_EPS, map_from_spanning, op_norm, psd_eig, unit_inner

KIND_LEFT = "left"     # ltimes
KIND_RIGHT = "right"   # rtimes


class WellDefinednessError(ValueError):
    """A map failed to respect the Gram null space of a tensor quotient."""


@dataclass(frozen=True, eq=False)
class TensorProduct:
    """A relative tensor product with its quotient bookkeeping."""

    kind: str
    left_factor: Bimodule
    right_factor: Bimodule
    middle: MultiMatrixAlgebra
    bounded: BoundedBasis        # right-bounded of X (kind left) / left-bounded of Y
    gram: np.ndarray             # algebraic Gram matrix
    quotient: np.ndarray         # Q : algebraic coords -> quotient coords
    section: np.ndarray          # E : quotient -> algebraic, Q E = id
    kernel: np.ndarray           # orthonormal basis of the Gram null space
    result: Bimodule

    @property
    def dim(self) -> int:
        return self.result.dim

    @property
    def alg_dim(self) -> int:
        return self.gram.shape[0]

    def class_coords(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Quotient coordinates of an elementary tensor.

        kind "left": ``first`` = bounded-basis coefficients, ``second`` = vector in Y.
        kind "right": ``first`` = vector in X, ``second`` = bounded-basis coefficients.
        """
        return self.quotient @ np.kron(first, second)


def _quotient_from_gram(gram: np.ndarray):
    w, v = psd_eig(gram)
    if w.size == 0 or w[0] == 0.0:
        keep = np.zeros(w.shape, dtype=bool)
    else:
        # absolute floor: the true Gram has integer trace (the product
        # dimension), so an all-noise Gram from a zero product must rank 0
        keep = w > RANK_EPS * max(w[0], 1.0)
    vk = v[:, keep]
    sw = np.sqrt(w[keep])
    quotient = (vk * sw).conj().T          # Q = Lambda^{1/2} V^H
    section = vk / sw[None, :]             # E = V Lambda^{-1/2}
    kernel = v[:, ~keep]
    return quotient, section, kernel


def tensor_left(x: Bimodule, y: Bimodule) -> TensorProduct:
    """X ltimes Y: completion of XB(-1/2) (x)_B Y.

    The algebraic space is (bounded basis of X) x (basis of Y).  The result
    acts by Q (F_u (x) 1) E on the left, F_u the bounded-basis coefficients
    of L_u f_i, and by Q (1 (x) R_u) E on the right, R_u the right action on Y.
    """
    _check_middle(x, y)
    bb = right_bounded_space(x)
    # vec([f_i, f_j]_B)[w] = (R_w xi_i)^H xi_j
    inner_vecs = unit_inner(x.right_units, bb.vectors, bb.vectors)
    gram = np.einsum("wij,wst->isjt", inner_vecs, y.left_units)
    n, dy = bb.size, y.dim
    gram = gram.reshape(n * dy, n * dy)
    quotient, section, kernel = _quotient_from_gram(gram)
    # F_u: bounded-basis coefficients of L_u xi_j
    fstack = bb.expand(x.left_units @ bb.vectors)
    result = _tensor_result(x, y, quotient, section, fstack, y.right_units)
    return TensorProduct(KIND_LEFT, x, y, x.right_algebra, bb, gram,
                         quotient, section, kernel, result)


def tensor_right(x: Bimodule, y: Bimodule) -> TensorProduct:
    """X rtimes Y: completion of X (x)_B B(-1/2)Y.

    The algebraic space is (basis of X) x (bounded basis of Y).  The result
    acts by Q (L_u (x) 1) E on the left, L_u the left action on X, and by
    Q (1 (x) C_u) E on the right, C_u the bounded-basis coefficients of
    R_u v_j.
    """
    _check_middle(x, y)
    bb = left_bounded_space(y)
    # vec(_B[v_k, v_j])[w] = (L_w eta_j)^H eta_k  -> entry for pair (j, k)
    inner_vecs = unit_inner(y.left_units, bb.vectors, bb.vectors)
    gram = np.einsum("wjk,wst->sjtk", inner_vecs, x.right_units)
    dx, m = x.dim, bb.size
    gram = gram.reshape(dx * m, dx * m)
    quotient, section, kernel = _quotient_from_gram(gram)
    # C_u: bounded-basis coefficients of R_u eta_j
    cstack = bb.expand(y.right_units @ bb.vectors)
    result = _tensor_result(x, y, quotient, section, x.left_units, cstack)
    return TensorProduct(KIND_RIGHT, x, y, x.right_algebra, bb, gram,
                         quotient, section, kernel, result)


def tensor(kind: str, x: Bimodule, y: Bimodule) -> TensorProduct:
    if kind == KIND_LEFT:
        return tensor_left(x, y)
    if kind == KIND_RIGHT:
        return tensor_right(x, y)
    raise ValueError(f"unknown tensor kind {kind!r}")


def _check_middle(x: Bimodule, y: Bimodule):
    if x.right_algebra.blocks != y.left_algebra.blocks:
        raise ValueError(
            f"middle algebras differ: {x.right_algebra} vs {y.left_algebra}")


def _tensor_result(x, y, quotient, section, first, second) -> Bimodule:
    """The quotient bimodule: actions Q (F_u (x) 1) E and Q (1 (x) R_u) E.

    ``first`` (U, n1, n1) acts on the first algebraic leg, ``second``
    (V, n2, n2) on the second; ``quotient`` is (r, n1*n2) and ``section``
    (n1*n2, r).  Batch sizes stay explicit so that r = 0 works.
    """
    n1, n2 = first.shape[1], second.shape[1]
    r = quotient.shape[0]
    # (F_u (x) 1) E: F_u on E with rows grouped by the first leg
    left = (first @ section.reshape(n1, n2 * r)).reshape(len(first), n1 * n2, r)
    # (1 (x) R_u) E: R_u on each first-leg slice of E
    right = (second[:, None] @ section.reshape(n1, n2, r)).reshape(
        len(second), n1 * n2, r)
    return Bimodule(x.left_algebra, y.right_algebra,
                    quotient @ left, quotient @ right)


def induced_map(src: TensorProduct, tgt: TensorProduct, alg_map: np.ndarray,
                check: bool = True, tol: float = 1e-6) -> np.ndarray:
    """Quotient map induced by a map of algebraic tensor coordinates.

    Verifies that the Gram null space of the source is mapped into the null
    space of the target (well-definedness of the descended map).  Numerically
    a true kernel vector carries a residual Gram seminorm of order
    sqrt(machine epsilon times the Gram norm), hence the loose default.
    """
    if check and src.kernel.shape[1]:
        defect = _gram_seminorm(tgt.gram, alg_map @ src.kernel)
        scale = (max(1.0, op_norm(alg_map))
                 * np.sqrt(_gram_scale(src) * _gram_scale(tgt)))
        if defect > tol * scale:
            raise WellDefinednessError(
                f"map does not descend to the tensor quotient (defect {defect:.3e})")
    return tgt.quotient @ alg_map @ src.section


def _gram_scale(tp: TensorProduct) -> float:
    """max(1, ||Gram||): Q = Lambda^{1/2} V^H, so ||Q[0]||^2 is the top eigenvalue."""
    top = np.vdot(tp.quotient[0], tp.quotient[0]).real if tp.dim else 0.0
    return max(1.0, float(top))


def _gram_seminorm(gram: np.ndarray, vectors: np.ndarray) -> float:
    """sqrt(tr(V^H G V)): the Gram seminorm of the columns of V, taken together."""
    return float(np.sqrt(max(0.0, np.vdot(vectors, gram @ vectors).real)))


def tensor_morphisms(src: TensorProduct, tgt: TensorProduct,
                     f: np.ndarray, g: np.ndarray,
                     check: bool = True) -> np.ndarray:
    """Matrix of f (x) g between tensor quotients of the same kind.

    ``f`` and ``g`` are raw matrices; for kind "left" f must be right-B-linear
    and g left-B-linear (any bimodule morphism qualifies), mirrored for
    kind "right".
    """
    if src.kind != tgt.kind:
        raise ValueError("source and target tensor kinds differ")
    if src.kind == KIND_LEFT:
        fc = tgt.bounded.expand(f @ src.bounded.vectors)
        alg_map = np.kron(fc, g)
    else:
        gc = tgt.bounded.expand(g @ src.bounded.vectors)
        alg_map = np.kron(f, gc)
    return induced_map(src, tgt, alg_map, check=check)


def morphism_tensor(src: TensorProduct, tgt: TensorProduct,
                    f: Morphism, g: Morphism) -> Morphism:
    """Bimodule-morphism wrapper around :func:`tensor_morphisms`."""
    mat = tensor_morphisms(src, tgt, f.matrix, g.matrix)
    return Morphism(src.result, tgt.result, mat)


# -- unit isomorphisms --------------------------------------------------------

def left_unitor(tp: TensorProduct) -> np.ndarray:
    """l : L2(A) (x) X -> X on the quotient; the left factor must be standard."""
    x = tp.right_factor
    if tp.kind == KIND_LEFT:
        # bounded vectors of L2(A) are left multiplications; evaluate a_i on X
        lxs = np.einsum("wi,wst->ist", tp.bounded.vectors, x.left_units)
        alg = lxs.transpose(1, 0, 2).reshape(x.dim, tp.alg_dim)
    else:
        # left bounded vectors of X applied to the basis of L2(A)
        maps = np.einsum("wab,bj->jaw", x.left_units, tp.bounded.vectors)
        alg = maps.transpose(1, 2, 0).reshape(x.dim, tp.alg_dim)
    return alg @ tp.section


def right_unitor(tp: TensorProduct) -> np.ndarray:
    """r : X (x) L2(B) -> X on the quotient; the right factor must be standard."""
    x = tp.left_factor
    if tp.kind == KIND_LEFT:
        # bounded vectors of X applied to the basis of L2(B)
        maps = np.einsum("wab,bi->iaw", x.right_units, tp.bounded.vectors)
        alg = maps.transpose(1, 0, 2).reshape(x.dim, tp.alg_dim)
    else:
        # left bounded vectors of L2(B) are right multiplications
        rxs = np.einsum("wj,wst->jst", tp.bounded.vectors, x.right_units)
        alg = rxs.transpose(1, 2, 0).reshape(x.dim, tp.alg_dim)
    return alg @ tp.section


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

    Built on the canonical spanning family of triple tensors of bounded
    vectors and basis vectors, then solved as a linear map; the spanning
    consistency check guards well-definedness.
    """
    kind = tp_xy.kind
    if {tp_xy_z.kind, tp_yz.kind, tp_x_yz.kind} != {kind}:
        raise ValueError("associator needs four tensor products of one kind")
    if kind == KIND_LEFT:
        return _associator_left(tp_xy, tp_xy_z, tp_yz, tp_x_yz)
    return _associator_right(tp_xy, tp_xy_z, tp_yz, tp_x_yz)


def _associator_left(tp_xy, tp_xy_z, tp_yz, tp_x_yz):
    z = tp_xy_z.right_factor
    nx = tp_xy.bounded.size
    ny = tp_yz.bounded.size
    dz = z.dim
    r1 = tp_xy.dim
    qxy = tp_xy.quotient.reshape(r1, nx, tp_xy.right_factor.dim)
    # bounded vectors f_i (x) g_j of (X ly Y)C(-1/2): evaluation at 1_C
    wev = np.einsum("ris,sj->rij", qxy, tp_yz.bounded.vectors)
    coeff = tp_xy_z.bounded.expand(wev.reshape(r1, nx * ny)).reshape(
        tp_xy_z.bounded.size, nx, ny)
    qsrc = tp_xy_z.quotient.reshape(tp_xy_z.dim, tp_xy_z.bounded.size, dz)
    src = np.einsum("rtu,tij->riju", qsrc, coeff).reshape(
        tp_xy_z.dim, nx * ny * dz)
    qyz = tp_yz.quotient.reshape(tp_yz.dim, ny, dz)
    qtgt = tp_x_yz.quotient.reshape(tp_x_yz.dim, nx, tp_yz.dim)
    tgt = np.einsum("riq,qju->riju", qtgt, qyz).reshape(
        tp_x_yz.dim, nx * ny * dz)
    return map_from_spanning(src, tgt)


def _associator_right(tp_xy, tp_xy_z, tp_yz, tp_x_yz):
    x = tp_xy.left_factor
    dx = x.dim
    my = tp_xy.bounded.size       # left bounded of Y
    mz = tp_xy_z.bounded.size     # left bounded of Z
    qxy = tp_xy.quotient          # (r1, dx*my)
    qsrc = tp_xy_z.quotient.reshape(tp_xy_z.dim, tp_xy.dim, mz)
    src = np.einsum("rqk,qm->rmk", qsrc, qxy).reshape(
        tp_xy_z.dim, dx * my * mz)
    # left bounded vectors v_j (x) w_k of B(-1/2)(Y rt Z): evaluation at 1_B
    qyz = tp_yz.quotient.reshape(tp_yz.dim, tp_yz.left_factor.dim, mz)
    mev = np.einsum("rsk,sj->rjk", qyz, tp_xy.bounded.vectors)
    coeff = tp_x_yz.bounded.expand(mev.reshape(tp_yz.dim, my * mz))
    qtgt = tp_x_yz.quotient.reshape(tp_x_yz.dim, dx, tp_yz.dim)
    tgt = np.einsum("rst,tjk->rsjk",
                    qtgt, coeff.reshape(tp_x_yz.bounded.size, my, mz)).reshape(
        tp_x_yz.dim, dx * my * mz)
    return map_from_spanning(src, tgt)


# -- matrix-extension identification and the multiplicativity isomorphism ----

def tensor_matrix_extension_iso(x: Bimodule, y: Bimodule, ni: int, nj: int,
                                kind: str,
                                tp_xy: Optional[TensorProduct] = None,
                                tp_ext: Optional[TensorProduct] = None):
    """Unitary ( ^I X ) (x) ( Y ^J )  ->  ^I ( X (x) Y ) ^J.

    Returns (matrix, tp_ext, ext_result) where tp_ext is the tensor product
    of the extended factors and ext_result the Hilbert-Schmidt extension of
    X (x) Y that the matrix maps onto.
    """
    xi_ext = matrix_extension(x, ni, 1)
    yj_ext = matrix_extension(y, 1, nj)
    if tp_xy is None:
        tp_xy = tensor(kind, x, y)
    if tp_ext is None:
        tp_ext = tensor(kind, xi_ext, yj_ext)
    ext_result = matrix_extension(tp_xy.result, ni, nj)
    if kind == KIND_LEFT:
        mat = _ext_iso_left(x, y, ni, nj, tp_xy, tp_ext)
    else:
        mat = _ext_iso_right(x, y, ni, nj, tp_xy, tp_ext)
    return mat, tp_ext, ext_result


def _ext_target_cols(q: np.ndarray, ni: int, nj: int,
                     n1: int, n2: int) -> np.ndarray:
    """Target spanning columns e_i (x) e_j (x) Q(e_a (x) e_b), columns (i,a,j,b)."""
    r = q.shape[0]
    tgt = np.kron(np.eye(ni * nj), q)
    tgt = tgt.reshape(ni * nj * r, ni, nj, n1, n2)
    return tgt.transpose(0, 1, 3, 2, 4).reshape(ni * nj * r, ni * n1 * nj * n2)


def _ext_iso_left(x, y, ni, nj, tp_xy, tp_ext):
    nx = tp_xy.bounded.size
    dy = y.dim
    # spanning: bounded vector (slot i, f_a) of ^I X, basis vector (slot j, e_s) of Y^J
    slot_evals = np.kron(np.eye(ni), tp_xy.bounded.vectors)      # (ni*dX, ni*nx)
    coeff = tp_ext.bounded.expand(slot_evals)                    # (next, ni*nx)
    qsrc = tp_ext.quotient.reshape(tp_ext.dim, tp_ext.bounded.size, nj * dy)
    src = np.einsum("rtm,tc->rcm", qsrc, coeff).reshape(
        tp_ext.dim, ni * nx * nj * dy)
    tgt = _ext_target_cols(tp_xy.quotient, ni, nj, nx, dy)
    return map_from_spanning(src, tgt)


def _ext_iso_right(x, y, ni, nj, tp_xy, tp_ext):
    dx = x.dim
    my = tp_xy.bounded.size
    # spanning: basis (slot i, e_s) of ^I X, left bounded (v_b, slot j) of Y^J
    slot_evals = np.kron(np.eye(nj), tp_xy.bounded.vectors)      # (nj*dY, nj*my)
    coeff = tp_ext.bounded.expand(slot_evals)                    # (mext, nj*my)
    qsrc = tp_ext.quotient.reshape(tp_ext.dim, ni * dx, tp_ext.bounded.size)
    src = np.einsum("rsm,mc->rsc", qsrc, coeff).reshape(
        tp_ext.dim, ni * dx * nj * my)
    tgt = _ext_target_cols(tp_xy.quotient, ni, nj, dx, my)
    return map_from_spanning(src, tgt)


def m_standard(b: MultiMatrixAlgebra, ni: int, nj: int):
    """The unitary ^I m ^J on extensions of the standard bimodule.

    Returns (matrix, tp_left, tp_right): the map from the ltimes to the
    rtimes product of ( ^I L2(B), L2(B) ^J ), via the entrywise unit
    isomorphism and the extension identifications.
    """
    l2 = standard_form(b).bimodule
    tp_l = tensor_left(l2, l2)
    tp_r = tensor_right(l2, l2)
    ext_l, tpl_ext, _ = tensor_matrix_extension_iso(l2, l2, ni, nj, KIND_LEFT,
                                                    tp_xy=tp_l)
    ext_r, tpr_ext, _ = tensor_matrix_extension_iso(l2, l2, ni, nj, KIND_RIGHT,
                                                    tp_xy=tp_r)
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
          tp_left: Optional[TensorProduct] = None,
          tp_right: Optional[TensorProduct] = None,
          right_rotation: Optional[np.ndarray] = None,
          left_rotation: Optional[np.ndarray] = None) -> np.ndarray:
    """The multiplicativity isomorphism m_{X,Y} : X ltimes Y -> X rtimes Y.

    Uses projective realizations u : X -> p ^I L2(B) and v : Y -> L2(B)^J q,
    the tight frames of the bounded bases the two products already hold
    (right-bounded of X for ltimes, left-bounded of Y for rtimes); both
    sides are mapped into ^I L2(B) ^J by the entrywise multiplication
    formula and composed.
    Optional unitary rotations recombine the frames, producing different
    but equivalent realizations (the result is provably independent).
    """
    if tp_left is None:
        tp_left = tensor_left(x, y)
    if tp_right is None:
        tp_right = tensor_right(x, y)
    b_alg = x.right_algebra
    gframe = tp_left.bounded.frame_vectors()
    hframe = tp_right.bounded.frame_vectors()
    if right_rotation is not None:
        gframe = gframe @ right_rotation
    if left_rotation is not None:
        hframe = hframe @ left_rotation
    runits = x.right_units
    lunits = y.left_units
    xi = tp_left.bounded.vectors          # right-bounded basis of X
    eta = tp_right.bounded.vectors        # left-bounded basis of Y
    # ltimes side, spanning columns (i, s) = Q_left columns:
    #   a-part: vec(a_i') = g_i'^H xi_i ; c-part: vec(c_j') = h_j'^H e_s
    av_l = unit_inner(runits, gframe, xi)
    cv_l = (lunits @ hframe).conj().transpose(0, 2, 1)
    big_l = _standard_images(b_alg, av_l, cv_l)
    m_l = big_l @ tp_left.section
    # rtimes side, spanning columns (s, j):
    #   b-part: vec(b_i') = g_i'^H e_s ; d-part: vec(d_j') = h_j'^H eta_j
    bv_r = (runits @ gframe).conj().transpose(0, 2, 1)
    dv_r = unit_inner(lunits, hframe, eta)
    big_r = _standard_images(b_alg, bv_r, dv_r)
    m_r = big_r @ tp_right.section
    return m_r.conj().T @ m_l
