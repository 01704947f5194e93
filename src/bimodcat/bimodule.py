"""Bimodules over multi-matrix algebras, intertwiners, duals and matrix extensions.

Actions are two stacks of their values on all matrix units of the acting
algebras: ``left_units[u]`` is the matrix of the left action of the u-th
matrix unit of the left algebra, and likewise for ``right_units``.  By
linearity this determines the action of every algebra element.

A bimodule made from its stacks checks them at once.  Duals and the
results of tensor products (:mod:`bimodcat.tensor`) know their dimension
and their sector bases without their stacks and are made with a build of
the stacks instead (:meth:`Bimodule.deferred`): it runs on the first read
of either stack, which checks the stacks and makes them read-only.  A
product reads no stack of its factors' sector bases, so a result is built
only when a map on a product checks that a leg is B-linear
(:func:`bimodcat.tensor.tensor_morphisms`) or its stacks are read
otherwise; most results never are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .algebra import AlgebraElement, MultiMatrixAlgebra, amplify_algebra
from .linalg import crandn, null_space_hermitian, op_norm
from .store import stored


class NotABimoduleError(ValueError):
    """Raised when action data fails the bimodule axioms at construction."""


class Bimodule:
    """Hilbert space with commuting unital left and right algebra actions.

    ``Bimodule(A, B, left_units, right_units)`` checks the two stacks' shapes
    and unitality at once.  :meth:`deferred` takes the dimension, a build
    of the stacks and a read-off of the sector bases instead; the first read
    of either stack runs the build, checks the stacks the same way and makes
    them read-only.  ``dim``, the algebras, ``canonical`` and ``sectors``
    never run it.
    """

    def __init__(self, left_algebra: MultiMatrixAlgebra,
                 right_algebra: MultiMatrixAlgebra, left_units: np.ndarray,
                 right_units: np.ndarray, canonical: Optional[tuple] = None):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = left_units.shape[1] if left_units.ndim == 3 else 0
        #: optional (multiplicity matrix, basis unitary) for canonical models
        self.canonical = canonical
        #: for a deferred bimodule, ``sectors(side, kind)`` gives its sector
        #: bases (:func:`bimodcat.tensor._sector_bases`) without its stacks
        self.sectors = None
        self._build = None
        self._units = self._checked(left_units, right_units)

    @classmethod
    def deferred(cls, left_algebra: MultiMatrixAlgebra,
                 right_algebra: MultiMatrixAlgebra, dim: int,
                 build: Callable[[], Tuple[np.ndarray, np.ndarray]],
                 sectors: Callable[[str, str], Tuple[np.ndarray, ...]]
                 ) -> "Bimodule":
        """A bimodule of dimension ``dim`` whose stacks ``build()`` returns."""
        x = cls.__new__(cls)
        x.left_algebra, x.right_algebra, x.dim = left_algebra, right_algebra, dim
        x.canonical, x.sectors, x._build, x._units = None, sectors, build, None
        return x

    @property
    def left_units(self) -> np.ndarray:
        """(dim left_algebra, d, d): the left action of each matrix unit."""
        return self._stacks()[0]

    @property
    def right_units(self) -> np.ndarray:
        """(dim right_algebra, d, d): the right action of each matrix unit."""
        return self._stacks()[1]

    def _stacks(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._units is None:
            units = self._checked(*self._build())
            for stack in units:
                stack.setflags(write=False)
            self._units, self._build = units, None
        return self._units

    def _checked(self, left_units: np.ndarray, right_units: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """The stacks, once their shapes and unitality hold."""
        d = self.dim
        sides = ((left_units, self.left_algebra, "left"),
                 (right_units, self.right_algebra, "right"))
        for units, alg, side in sides:
            if units.shape != (alg.dim, d, d):
                raise NotABimoduleError(f"{side} action has wrong shape")
        # unitality is cheap and catches degenerate actions early; the
        # Frobenius norm bounds the operator norm from above, without an
        # SVD.  The bound is 1e-8 times the largest entry, floored at 1, so
        # the stacks are scanned for that entry only past 1e-8
        defects = [np.linalg.norm(units[_diag_unit_indices(alg)].sum(axis=0)
                                  - np.eye(d)) for units, alg, _ in sides]
        if max(defects) > 1e-8:
            scale = max(1.0, float(np.abs(left_units).max(initial=0.0)),
                        float(np.abs(right_units).max(initial=0.0)))
            for defect, (_, _, side) in zip(defects, sides):
                if defect > 1e-8 * scale:
                    raise NotABimoduleError(f"{side} action is not unital")
        return left_units, right_units

    def left_action(self, a: AlgebraElement) -> np.ndarray:
        return np.einsum("u,uij->ij", self.left_algebra.vec(a), self.left_units)

    def right_action(self, b: AlgebraElement) -> np.ndarray:
        return np.einsum("u,uij->ij", self.right_algebra.vec(b), self.right_units)

    def validate(self, tol: float = 1e-8) -> float:
        """Full bimodule-axiom check; returns the worst defect found."""
        worst = 0.0
        for units, alg, anti in ((self.left_units, self.left_algebra, False),
                                 (self.right_units, self.right_algebra, True)):
            pos = alg.unit_positions()
            perm = alg.adjoint_perm()
            for u, (k, p, q) in enumerate(pos):
                # adjoint compatibility: action(x*) = action(x)^H
                worst = max(worst, op_norm(units[perm[u]] - units[u].conj().T))
                for v, (k2, r, s) in enumerate(pos):
                    if k != k2:
                        prod = np.zeros_like(units[0])
                    else:
                        # e_pq e_rs = delta_qr e_ps
                        idx = alg.offsets[k] + p * alg.blocks[k] + s
                        prod = units[idx] if q == r else np.zeros_like(units[0])
                    lhs = units[v] @ units[u] if anti else units[u] @ units[v]
                    worst = max(worst, op_norm(lhs - prod))
        for lu in self.left_units:
            for ru in self.right_units:
                worst = max(worst, op_norm(lu @ ru - ru @ lu))
        if worst > tol:
            raise NotABimoduleError(f"bimodule axioms violated (defect {worst:.3e})")
        return worst


#: the two action stacks of a bimodule, in the order every two-sided loop takes
_SIDES = ("left_units", "right_units")


@functools.cache
def _diag_unit_indices(alg: MultiMatrixAlgebra) -> np.ndarray:
    """Indices of the diagonal matrix units e_pp, block by block; read-only."""
    idx = np.array([off + p * n + p for off, n in zip(alg.offsets, alg.blocks)
                    for p in range(n)], dtype=np.intp)
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True, eq=False)
class Morphism:
    """Linear map intertwining both actions."""

    source: Bimodule
    target: Bimodule
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(
                f"morphism matrix shape {self.matrix.shape} does not match "
                f"({self.target.dim}, {self.source.dim})")

    def intertwiner_defect(self) -> float:
        """Worst defect of T L_a - L'_a T and T R_b - R'_b T over matrix units."""
        t = self.matrix
        worst = 0.0
        for side in _SIDES:
            for u, u2 in zip(getattr(self.source, side),
                             getattr(self.target, side)):
                worst = max(worst, op_norm(t @ u - u2 @ t))
        return worst

    def is_morphism(self, tol: float = 1e-8) -> bool:
        scale = max(1.0, op_norm(self.matrix))
        return self.intertwiner_defect() <= tol * scale

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        if other.target.dim != self.source.dim:
            raise ValueError("morphisms not composable")
        return Morphism(other.source, self.target, self.matrix @ other.matrix)

    def adjoint(self) -> "Morphism":
        return Morphism(self.target, self.source, self.matrix.conj().T)

    def unitary_defect(self) -> float:
        m = self.matrix
        d1 = op_norm(m.conj().T @ m - np.eye(self.source.dim))
        d2 = op_norm(m @ m.conj().T - np.eye(self.target.dim))
        return max(d1, d2)


def _check_same_algebras(x: Bimodule, y: Bimodule):
    if (x.left_algebra.blocks != y.left_algebra.blocks
            or x.right_algebra.blocks != y.right_algebra.blocks):
        raise ValueError("bimodules have different acting algebras")


def hom_basis(x: Bimodule, y: Bimodule) -> List[Morphism]:
    """Orthonormal basis of Hom(X, Y) via the intertwiner null space.

    Vectorizes candidate maps T (dY x dX, row-major) and finds the joint
    kernel of all unit-wise intertwiner equations by eigendecomposing the
    accumulated normal matrix.
    """
    _check_same_algebras(x, y)
    dx, dy = x.dim, y.dim
    n = dx * dy
    if n == 0:
        return []
    normal = np.zeros((n, n), dtype=complex)
    scale = 0.0
    idx = np.eye(dx, dtype=complex), np.eye(dy, dtype=complex)
    for side in _SIDES:
        for su, tu in zip(getattr(x, side), getattr(y, side)):
            k = np.kron(idx[1], su.T) - np.kron(tu, idx[0])
            normal += k.conj().T @ k
            scale += max(op_norm(su), op_norm(tu)) ** 2
    kernel = null_space_hermitian(normal, scale=max(scale, 1.0))
    return [Morphism(x, y, kernel[:, j].reshape(dy, dx)) for j in range(kernel.shape[1])]


def dual_bimodule(x: Bimodule) -> Bimodule:
    """Dual bimodule X* on conjugate coordinates.

    A vector xi in X is sent to the functional xi* with coordinates conj(xi);
    the actions are fixed by  b . xi* . a = (a* xi b*)*.  Inside an open
    product store each dual is built once.
    """
    return stored(_dual_bimodule, x)


def _dual_bimodule(x: Bimodule) -> Bimodule:
    """X*, whose stacks are X's, conjugated and permuted, built on first read.

    Its diagonal units act as X's conjugated on the other side, so it is
    unital when X is, and its sector bases are the conjugates of X's for
    the other side.
    """
    from .tensor import _sector_bases  # the tensor module imports this one

    other = {"left": "right", "right": "left"}
    return Bimodule.deferred(
        x.right_algebra, x.left_algebra, x.dim,
        lambda: (np.conj(x.right_units[x.right_algebra.adjoint_perm()]),
                 np.conj(x.left_units[x.left_algebra.adjoint_perm()])),
        lambda side, kind: tuple(np.conj(c) for c in stored(
            _sector_bases, x, other[side], kind)))


def dual_vector(xi: np.ndarray) -> np.ndarray:
    """Coordinates of xi* in the conjugate-coordinate dual (antilinear)."""
    return np.conj(xi)


def transpose(f: Morphism) -> Morphism:
    """Transposed morphism ^tf : Y* -> X*, pairing <^tf eta*, xi> = (eta | f xi).

    In conjugate coordinates the matrix of ^tf is the plain transpose of f's.
    """
    return Morphism(dual_bimodule(f.target), dual_bimodule(f.source),
                    f.matrix.T)


def double_dual_iso(x: Bimodule) -> Morphism:
    """The canonical unitary d_X : X -> X**; the identity matrix in our coordinates."""
    xss = dual_bimodule(dual_bimodule(x))
    return Morphism(x, xss, np.eye(x.dim, dtype=complex))


def matrix_extension(x: Bimodule, ni: int, nj: int) -> Bimodule:
    """Hilbert-Schmidt extension: ni x nj arrays over X.

    Coordinates are ordered (outer row, outer column, X-coordinate),
    row-major; the acting algebras are the matrix extensions of the
    originals with the shared blockwise flattening.
    """
    if ni < 1 or nj < 1:
        raise ValueError("extension orders must be >= 1")
    # the outer unit e_ij acts on the slots of its own side: on the left it
    # sends row j to row i, on the right slot i feeds slot j
    dext = ni * nj * x.dim
    big_l, left_units = _extended_units(x.left_algebra, x.left_units, ni, dext,
                                        lambda e: np.kron(e, np.eye(nj)))
    big_r, right_units = _extended_units(x.right_algebra, x.right_units, nj,
                                         dext, lambda e: np.kron(np.eye(ni), e.T))
    return Bimodule(big_l, big_r, left_units, right_units)


def _extended_units(alg: MultiMatrixAlgebra, units: np.ndarray, n: int,
                    dext: int, slots: Callable[[np.ndarray], np.ndarray]
                    ) -> Tuple[MultiMatrixAlgebra, np.ndarray]:
    """M_n(alg) and the actions of its matrix units e_ij (x) e_pq.

    ``slots`` maps the n x n outer unit e_ij to its action on the ni x nj
    outer slots; the unit acts as ``slots(e_ij) (x) units[e_pq]``.
    """
    big = amplify_algebra(alg, n)
    out = np.zeros((big.dim, dext, dext), dtype=complex)
    for u, (k, pp, qq) in enumerate(big.unit_positions()):
        nk = alg.blocks[k]
        i, p = divmod(pp, nk)
        j, q = divmod(qq, nk)
        eo = np.zeros((n, n))
        eo[i, j] = 1.0
        out[u] = np.kron(slots(eo), units[alg.offsets[k] + p * nk + q])
    return big, out


def canonical_bimodule(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                       mult: np.ndarray,
                       basis_unitary: Optional[np.ndarray] = None) -> Bimodule:
    """Canonical model with multiplicity matrix ``mult``.

    The space is the direct sum over sectors (k, l) of
    C^{n_k} (x) C^{mult[k,l]} (x) C^{m_l}; the left algebra acts on the first
    leg, the right algebra on the last leg by row-vector multiplication.
    An optional unitary change of basis is applied to avoid axis-aligned data.
    """
    mult = np.asarray(mult, dtype=int)
    if mult.shape != (len(a.blocks), len(b.blocks)):
        raise ValueError("multiplicity matrix has wrong shape")
    if (mult < 0).any():
        raise ValueError("multiplicities must be nonnegative")
    d = canonical_dim(a, b, mult)
    left_units = np.zeros((a.dim, d, d), dtype=complex)
    right_units = np.zeros((b.dim, d, d), dtype=complex)
    sec = slice(0, 0)   # the nonzero sectors (k, l) follow each other row-major
    for k, l in zip(*np.nonzero(mult)):
        nk, ml, mu = a.blocks[k], b.blocks[l], int(mult[k, l])
        sec = slice(sec.stop, sec.stop + nk * mu * ml)
        size = sec.stop - sec.start
        # unit u acts as e_u (x) 1 on the left and 1 (x) e_u^T on the right:
        # entry (p s, q t) of e_u (x) 1 is e_u[p, q] 1[s, t]
        left = np.einsum("upq,st->upsqt", _unit_grid(nk), np.eye(mu * ml))
        right = np.einsum("st,uqp->usptq", np.eye(nk * mu), _unit_grid(ml))
        left_units[a.offsets[k]:a.offsets[k] + nk * nk, sec, sec] = \
            left.reshape(nk * nk, size, size)
        right_units[b.offsets[l]:b.offsets[l] + ml * ml, sec, sec] = \
            right.reshape(ml * ml, size, size)
    w = None if basis_unitary is None else np.asarray(basis_unitary, dtype=complex)
    if w is not None:
        if w.shape != (d, d):
            raise ValueError("basis unitary has wrong shape")
        left_units = w @ left_units @ w.conj().T
        right_units = w @ right_units @ w.conj().T
    return Bimodule(a, b, left_units, right_units, canonical=(mult, w))


def _unit_grid(n: int) -> np.ndarray:
    """(n * n, n, n): the matrix units e_pq of M_n, in row-major order."""
    return np.eye(n * n).reshape(-1, n, n)


def canonical_dim(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                  mult: np.ndarray) -> int:
    """Dimension sum_{k,l} n_k mult[k, l] m_l of the canonical model."""
    return int(np.asarray(a.blocks) @ np.asarray(mult) @ np.asarray(b.blocks))


def multiplicity_matrix(x: Bimodule) -> np.ndarray:
    """Multiplicity matrix of a bimodule, recovered from sector dimensions.

    Works for any valid bimodule: the (k, l) multiplicity is
    dim(z_k X z_l) / (n_k m_l) for the central projections z_k, z_l.
    """
    a, b = x.left_algebra, x.right_algebra
    mult = np.zeros((len(a.blocks), len(b.blocks)), dtype=int)
    diag_l = _diag_unit_indices(a)
    diag_r = _diag_unit_indices(b)
    pos_l = 0
    for k, nk in enumerate(a.blocks):
        zk = x.left_units[diag_l[pos_l:pos_l + nk]].sum(axis=0)
        pos_l += nk
        pos_r = 0
        for l, ml in enumerate(b.blocks):
            zl = x.right_units[diag_r[pos_r:pos_r + ml]].sum(axis=0)
            pos_r += ml
            sector_dim = float(np.real(np.trace(zk @ zl)))
            mu = sector_dim / (nk * ml)
            if abs(mu - round(mu)) > 1e-6:
                raise ValueError(f"non-integral multiplicity {mu} in sector ({k},{l})")
            mult[k, l] = int(round(mu))
    return mult


def random_morphism_matrix(x: Bimodule, y: Bimodule,
                           rng: np.random.Generator) -> np.ndarray:
    """Random intertwiner X -> Y; zero when Hom(X, Y) is trivial.

    Uses the canonical-model structure when both bimodules carry it (fast
    path); otherwise falls back to the generic null-space solver.
    """
    fast = _canonical_hom_sample(x, y, rng)
    if fast is not None:
        return fast
    basis = hom_basis(x, y)
    if not basis:
        return np.zeros((y.dim, x.dim), dtype=complex)
    coeff = crandn(rng, len(basis))
    return sum(c * m.matrix for c, m in zip(coeff, basis))


def _canonical_hom_sample(x: Bimodule, y: Bimodule, rng) -> Optional[np.ndarray]:
    if x.canonical is None or y.canonical is None:
        return None
    _check_same_algebras(x, y)
    mx, wx = x.canonical
    my, wy = y.canonical
    a, b = x.left_algebra, x.right_algebra
    t = np.zeros((y.dim, x.dim), dtype=complex)
    offx = offy = 0
    for k, nk in enumerate(a.blocks):
        for l, ml in enumerate(b.blocks):
            sx, sy = nk * int(mx[k, l]) * ml, nk * int(my[k, l]) * ml
            if sx and sy:
                c = crandn(rng, int(my[k, l]), int(mx[k, l]))
                blk = np.kron(np.kron(np.eye(nk), c), np.eye(ml))
                t[offy:offy + sy, offx:offx + sx] = blk
            offx += sx
            offy += sy
    if wx is not None:
        t = t @ np.asarray(wx).conj().T
    if wy is not None:
        t = np.asarray(wy) @ t
    return t
