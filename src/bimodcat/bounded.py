"""Bounded-vector spaces and constructive projective-module realizations.

A right bounded vector of an A-B bimodule X is a right-B-linear map
L2(B) -> X.  At finite dimension such a map is determined by its value
xi = T(1) at the identity vector of L2(B), via T(b) = xi . b, and every
xi in X arises this way.  All bases, expansions and Gram data below are
therefore parameterized by these evaluation vectors; the relevant inner
product on them is the positive form W = sum_u R(b_u)^H R(b_u) over the
matrix units of B (Hilbert-Schmidt inner product of the maps).
The left-handed space Hom(L2(A) -> X) works mirror-image with the left
action.  A bounded space reads its side's action stack once, for its form,
and keeps it for its vectors' full matrices (``action_units``).  Inside an
open product store each bounded space is built once.

An orthonormal basis is a tight frame, S = sum_i f_i f_i^H = 1_X, so it is
the frame of the projective realizations: S commutes with B and, being
basis-free, with the unitaries commuting with B, so it is a scalar on each
isotypic component C^k (x) C^m.  With L2(B) under its unnormalized block
trace, S's trace there, the dimension of the bounded maps into it, is k m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, MultiMatrixAlgebra, standard_form
from .bimodule import Bimodule, dual_bimodule
from .linalg import RANK_EPS, op_norm, psd_eig, unit_inner
from .store import stored


class ExtractionError(ValueError):
    """An operator on L2 claimed to be a multiplication failed verification."""


@dataclass(frozen=True, eq=False)
class BoundedVector:
    """One-sided module map from a standard form into a bimodule."""

    side: str              # "right": L2(B) -> X, right-B-linear
    bimodule: Bimodule     # "left":  L2(A) -> X, left-A-linear
    matrix: np.ndarray     # dim X  x  dim L2

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")
        if self.matrix.shape != (self.bimodule.dim, self.algebra.dim):
            raise ValueError("bounded-vector matrix has wrong shape")

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        return getattr(self.bimodule, f"{self.side}_algebra")

    @property
    def eval_vector(self) -> np.ndarray:
        """Value at the identity vector of the standard form."""
        return self.matrix @ self.algebra.identity().vec

    def defect(self) -> float:
        """One-sided intertwiner defect over matrix units."""
        units = getattr(self.bimodule, f"{self.side}_units")
        std_units = getattr(standard_form(self.algebra).bimodule, f"{self.side}_units")
        worst = 0.0
        for u, su in zip(units, std_units):
            worst = max(worst, op_norm(self.matrix @ su - u @ self.matrix))
        return worst

    def module_action(self, a: Optional[AlgebraElement],
                      b: Optional[AlgebraElement]) -> "BoundedVector":
        """a . g . b for right vectors, (a f b) for left vectors."""
        m = self.matrix
        std = standard_form(self.algebra).bimodule
        # the element on the bounded side acts on L2 and the other on the
        # bimodule, both through the action opposite to the bounded side
        inner, outer = (b, a) if self.side == "right" else (a, b)
        act = "left_action" if self.side == "right" else "right_action"
        if inner is not None:
            m = m @ getattr(std, act)(inner)
        if outer is not None:
            m = getattr(self.bimodule, act)(outer) @ m
        return BoundedVector(self.side, self.bimodule, m)

    def hs_inner(self, other: "BoundedVector") -> complex:
        return complex(np.vdot(self.matrix, other.matrix))


@dataclass(frozen=True, eq=False)
class BoundedBasis:
    """Orthonormal basis of a one-sided bounded-vector space.

    ``vectors[:, i]`` are the evaluation vectors of a Hilbert-Schmidt
    orthonormal basis; ``form`` is the positive matrix W representing the
    HS inner product on evaluation vectors, built from ``action_units``.
    """

    side: str
    bimodule: Bimodule
    form: np.ndarray          # (d, d) positive definite (unital action)
    vectors: np.ndarray       # (d, n) with n == d
    action_units: np.ndarray  # (dim algebra, d, d): the side's stack

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        return getattr(self.bimodule, f"{self.side}_algebra")

    @property
    def size(self) -> int:
        return self.vectors.shape[1]

    def map_for(self, eval_vector: np.ndarray) -> np.ndarray:
        """Full matrix L2 -> X of the bounded vector with the given value at 1."""
        return np.einsum("wab,b->aw", self.action_units, eval_vector)

    def vector(self, i: int) -> BoundedVector:
        return BoundedVector(self.side, self.bimodule, self.map_for(self.vectors[:, i]))

    def expand(self, eval_vectors: np.ndarray) -> np.ndarray:
        """HS coordinates w.r.t. the basis, columns of evaluation vectors in, out.

        A stack (..., d, k) of evaluation-vector columns gives a stack
        (..., n, k) of coordinate columns.
        """
        single = eval_vectors.ndim == 1
        ev = eval_vectors[:, None] if single else eval_vectors
        coeff = self.vectors.conj().T @ (self.form @ ev)
        return coeff[:, 0] if single else coeff


def right_bounded_space(x: Bimodule) -> BoundedBasis:
    """Orthonormal basis of XB(-1/2) = Hom(L2(B)_B, X_B)."""
    return stored(_bounded_space, x, "right")


def left_bounded_space(x: Bimodule) -> BoundedBasis:
    """Orthonormal basis of A(-1/2)X = Hom(L2(A), X) as left modules."""
    return stored(_bounded_space, x, "left")


def _bounded_space(x: Bimodule, side: str) -> BoundedBasis:
    # a view, so that sealing it leaves a given stack as its owner gave it
    units = getattr(x, f"{side}_units").view()
    form = np.einsum("wca,wcb->ab", units.conj(), units)
    w, v = psd_eig(form)
    if w.size and w[0] > 0 and w[-1] < RANK_EPS * w[0]:
        raise ValueError(f"{side} action is degenerate; bounded vectors do not span")
    vectors = v / np.sqrt(w)[None, :] if w.size else v
    for arr in (form, vectors, units):     # shared by every caller in a store
        arr.setflags(write=False)
    return BoundedBasis(side, x, form, vectors, units)


def right_bounded_basis(x: Bimodule):
    """List of BoundedVector values forming an orthonormal basis of XB(-1/2)."""
    sp = right_bounded_space(x)
    return [sp.vector(i) for i in range(sp.size)]


def left_bounded_basis(x: Bimodule):
    sp = left_bounded_space(x)
    return [sp.vector(i) for i in range(sp.size)]


def _extract_multiplication(alg: MultiMatrixAlgebra, composite: np.ndarray,
                            side: str) -> AlgebraElement:
    """Recover b from an operator on L2 that is left (or right) multiplication by b."""
    std = standard_form(alg).bimodule
    vec = composite @ alg.identity().vec
    b = alg.unvec(vec)
    model = std.left_action(b) if side == "left" else std.right_action(b)
    defect = op_norm(model - composite)
    if defect > 1e-8 * max(1.0, op_norm(composite)):
        raise ExtractionError(
            f"operator is not a {side} multiplication (defect {defect:.3e}); "
            "input is probably not an intertwiner")
    return b


def right_inner(g: BoundedVector, g2: BoundedVector) -> AlgebraElement:
    """B-valued inner product [g, g']_B with L_[g,g'] = g* g'."""
    if g.side != "right" or g2.side != "right":
        raise ValueError("right_inner needs right bounded vectors")
    if g.bimodule is not g2.bimodule and g.bimodule.dim != g2.bimodule.dim:
        raise ValueError("bounded vectors on different bimodules")
    return _extract_multiplication(g.algebra, g.matrix.conj().T @ g2.matrix, "left")


def left_inner(f2: BoundedVector, f: BoundedVector) -> AlgebraElement:
    """A-valued inner product _A[f', f] with R_[f',f] = f* f'."""
    if f.side != "left" or f2.side != "left":
        raise ValueError("left_inner needs left bounded vectors")
    return _extract_multiplication(f.algebra, f.matrix.conj().T @ f2.matrix, "right")


def star_bounded(x: BoundedVector) -> BoundedVector:
    """The conjugate-linear star map XB(-1/2) -> B(-1/2)X*.

    x-star sends beta to (x(beta-sharp))*, which in conjugate coordinates is
    the linear map with matrix conj(x P) for the sharp permutation P of L2(B).
    """
    if x.side != "right":
        raise ValueError("star_bounded acts on right bounded vectors")
    perm = x.algebra.adjoint_perm()
    return BoundedVector("left", dual_bimodule(x.bimodule),
                         np.conj(x.matrix[:, perm]))


@dataclass(frozen=True, eq=False)
class ProjectiveRealization:
    """Dixmier realization of a one-sided module as a corner of L2-columns.

    For the right side: u(xi)_i = g_i^H xi identifies X with p . (L2(B)^n)
    where the g_i form a tight frame of bounded maps and p_{ij} is the
    algebra element with L(p_ij) = g_i^H g_j.
    """

    basis: BoundedBasis

    @property
    def frame(self) -> np.ndarray:
        """(d, n) evaluation vectors of the tight frame: the orthonormal basis."""
        return self.basis.vectors

    @property
    def size(self) -> int:
        return self.frame.shape[1]

    def frame_maps(self) -> np.ndarray:
        """(n, d, |B|) array of the full matrices of the frame bounded vectors."""
        return np.einsum("wab,bi->iaw", self.basis.action_units, self.frame)

    def u_matrix(self) -> np.ndarray:
        """Isometry X -> (L2)^n, stacked rows g_i^H (shape n*|B| x d)."""
        maps = self.frame_maps()           # (n, d, w)
        n, d, wdim = maps.shape
        return maps.conj().transpose(0, 2, 1).reshape(n * wdim, d)

    def projection_entries(self) -> np.ndarray:
        """(n, n, |alg|) array of vec(p_ij) with g_i^H g_j acting as p_ij.

        On the right side g_i^H g_j = L(p_ij); on the left side the composite
        commutes with left multiplications, so g_i^H g_j = R(p_ij).
        """
        return unit_inner(self.basis.action_units, self.frame,
                          self.frame).transpose(1, 2, 0)


def right_projective_realization(x: Bimodule) -> ProjectiveRealization:
    return ProjectiveRealization(right_bounded_space(x))


def left_projective_realization(y: Bimodule) -> ProjectiveRealization:
    return ProjectiveRealization(left_bounded_space(y))
