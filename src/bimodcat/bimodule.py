"""Bimodules over multi-matrix algebras, intertwiners, duals and matrix extensions.

Actions are two stacks of their values on all matrix units of the acting
algebras: ``left_units[u]`` is the matrix of the left action of the u-th
matrix unit of the left algebra, and likewise for ``right_units``.  By
linearity this determines the action of every algebra element.

Every :class:`Frame` is adapted to the matrix units, so column s of each
corner of a pair of blocks (k, l) is multiplicity index s.  A product's
members are pairs of frame columns; Hom(X, Y), multiplicities and random
intertwiners, 1 (x) T_kl (x) 1 by Schur, are read off the frames.  Only
a bimodule given by its stacks finds its frame from them, by pivoted
Gram-Schmidt once per pair of blocks (:func:`_stack_frame`).

A bimodule made from its stacks checks them at once.  Duals and the
results of tensor products (:mod:`bimodcat.tensor`) know their dimension
and their frame without their stacks and are made with a build of the
stacks instead (:meth:`Bimodule.deferred`): it runs on the first read of
either stack, which checks the stacks and makes them read-only.  No frame
reads the stacks of a product's result or a dual, so a result is built
only when a map on a product checks that a leg is B-linear
(:func:`bimodcat.tensor.tensor_morphisms`) or its stacks are read
otherwise; most results never are.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .algebra import AlgebraElement, MultiMatrixAlgebra, amplify_algebra
from .linalg import crandn, op_norm, range_basis
from .store import stored


class NotABimoduleError(ValueError):
    """Raised when action data fails the bimodule axioms at construction."""


class Frame(NamedTuple):
    """An orthonormal basis of X, column t in the corner L(e_pp) R(e_qq) X.

    p = ``left[t]`` and q = ``right[t]`` index the diagonal matrix units in
    :func:`_diag_unit_indices` order; ``w`` None is the identity.  A
    canonical model's is its basis unitary; a product's result's is the
    identity on its members, pairs of its factors' frame columns; a dual's
    is its original's, conjugated, with the labels swapped.  Every
    frame is adapted to the matrix units: with p0 and q0 the first
    diagonal units of blocks k and l, the s-th column of the corner
    (p0 + i, q0 + j) is L(e_i0) R(e_0j) applied to the s-th of the corner
    (p0, q0) (:func:`_corner_columns`).
    """

    w: Optional[np.ndarray]
    left: np.ndarray
    right: np.ndarray

    def conj(self) -> "Frame":
        """The dual's frame: W conjugated, the two labels swapped."""
        return Frame(None if self.w is None else np.conj(self.w), self.right, self.left)


class Bimodule:
    """Hilbert space with commuting unital left and right algebra actions.

    ``Bimodule(A, B, left_units, right_units)`` checks the two stacks' shapes
    and unitality at once.  :meth:`deferred` takes the dimension, a build
    of the stacks and the frame, or a build of it, instead; the first read
    of either stack runs the stack build, checks the stacks the same way
    and makes them read-only.  ``dim``, the algebras, ``canonical`` and
    ``frame`` never run it.
    """

    def __init__(self, left_algebra: MultiMatrixAlgebra,
                 right_algebra: MultiMatrixAlgebra, left_units: np.ndarray,
                 right_units: np.ndarray):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = left_units.shape[1] if left_units.ndim == 3 else 0
        #: (multiplicity matrix, basis unitary) of a canonical model, else None
        self.canonical = None
        #: the frame or a build of it; None finds it from the stacks
        self._frame = None
        self._build = None
        self._units = self._checked(left_units, right_units)

    @classmethod
    def deferred(cls, left_algebra: MultiMatrixAlgebra,
                 right_algebra: MultiMatrixAlgebra, dim: int,
                 build: Callable[[], Tuple[np.ndarray, np.ndarray]],
                 frame: Union["Frame", Callable[[], "Frame"]]) -> "Bimodule":
        """Dimension ``dim``, the stacks from ``build()``; ``frame`` or ``frame()``."""
        x = cls.__new__(cls)
        x.left_algebra, x.right_algebra, x.dim = left_algebra, right_algebra, dim
        x.canonical, x._frame, x._build, x._units = None, frame, build, None
        return x

    @property
    def frame(self) -> Frame:
        """The :class:`Frame`; from given stacks once per product store, else built once."""
        if self._frame is None:
            return stored(_stack_frame, self)
        if callable(self._frame):
            self._frame = self._frame()
        return self._frame

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


def _diag_positions(alg: MultiMatrixAlgebra) -> Tuple[np.ndarray, np.ndarray]:
    """Per diagonal unit e_pp, in :func:`_diag_unit_indices` order, its block and p."""
    blocks = np.repeat(np.arange(len(alg.blocks)), alg.blocks)
    return blocks, np.arange(len(blocks)) - np.cumsum((0,) + alg.blocks)[blocks]


def _stack_frame(x: Bimodule) -> Frame:
    """The frame of a bimodule given by its stacks, adapted to the matrix units.

    On each pair of blocks (k, l), V = range_basis(P) on the first corner
    P = L(e_00) R(e_00); the corner (i, j) gets L(e_i0) R(e_0j) V.  Either
    is off an orthonormal basis of its corner L(e_ii) R(e_jj) when that is
    no projection, as when the actions do not commute: so every corner
    must have ||P - V V^H||_F <= 1e-8, there must be dim X columns in all
    and the frame W must have ||W^H W - 1||_F <= 1e-8, or a product's
    result would not be unital.  The corners follow each other row-major
    over the diagonal units.
    """
    a, b = x.left_algebra, x.right_algebra
    left, right = x.left_units, x.right_units
    diag_l, diag_r = _diag_unit_indices(a), _diag_unit_indices(b)
    first = {}      # (k, l) -> the range basis of the pair's first corner
    bases, corners = [], []
    for p, (k, i) in enumerate(zip(*_diag_positions(a))):
        for q, (l, j) in enumerate(zip(*_diag_positions(b))):
            proj = left[diag_l[p]] @ right[diag_r[q]]
            if i == j == 0:
                first[k, l] = range_basis(proj)
                bases.append(first[k, l])
            else:
                # e_i0 of block k and e_0j of block l
                bases.append(left[a.offsets[k] + i * a.blocks[k]]
                             @ (right[b.offsets[l] + j] @ first[k, l]))
            defect = np.linalg.norm(proj - bases[-1] @ bases[-1].conj().T)
            if defect > 1e-8:
                raise NotABimoduleError(
                    f"corner L(e_pp) R(e_qq) at (p, q) = ({p}, {q}) is not a "
                    f"projection: it is off V V^H by {defect:.3e}, for V its "
                    f"range basis")
            corners += [(p, q)] * bases[-1].shape[1]
    if len(corners) != x.dim:
        raise NotABimoduleError(
            f"the corners L(e_pp) R(e_qq) have range bases of {len(corners)} "
            f"columns in all, not {x.dim}: some corner is not a projection")
    w = np.concatenate(bases, axis=1)
    defect = np.linalg.norm(w.conj().T @ w - np.eye(x.dim))
    if defect > 1e-8:
        raise NotABimoduleError(
            f"the corners' range bases are off orthonormal by {defect:.3e}: "
            f"some corner L(e_pp) R(e_qq) is not a projection")
    return Frame(w, *np.array(corners, dtype=np.intp).reshape(-1, 2).T)


@dataclass(frozen=True, eq=False)
class Morphism:
    """Linear map intertwining both actions."""

    source: Bimodule
    target: Bimodule
    matrix: np.ndarray

    def __post_init__(self):
        _same_algebras(self.source, self.target)
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


def hom_basis(x: Bimodule, y: Bimodule) -> List[Morphism]:
    """Orthonormal basis of Hom(X, Y), read off the two frames.

    Per pair of blocks that both populate, row-major, each matrix unit e_st
    of M(mu_Y x mu_X), over sqrt(n_k m_l), on every corner of the pair
    (:func:`_hom_pairs`).
    """
    out = []
    for cy, cx in _hom_pairs(x, y):
        n, m, mu_y = cy.shape
        for s, t in np.ndindex(mu_y, cx.shape[2]):
            e = np.zeros((y.dim, x.dim), dtype=complex)
            e[cy[..., s], cx[..., t]] = 1.0 / np.sqrt(n * m)
            out.append(Morphism(x, y, _in_frames(x, y, e)))
    return out


def _hom_pairs(x: Bimodule, y: Bimodule) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per pair of blocks that X and Y both populate, row-major: Y's and X's corner columns.

    By Schur a bimodule map is 1 (x) T_kl (x) 1 on the pair (k, l): in
    adapted frames, the mu_Y x mu_X matrix T_kl on every corner (i, j),
    rows ``cy[i, j]`` and columns ``cx[i, j]``.
    """
    _same_algebras(x, y)
    return [(cy, cx) for cx, cy in zip(_corner_columns(x), _corner_columns(y))
            if cx.shape[2] and cy.shape[2]]


def _same_algebras(x: Bimodule, y: Bimodule) -> None:
    """Raise unless X and Y act by the same two algebras."""
    if (x.left_algebra.blocks, x.right_algebra.blocks) != (
            y.left_algebra.blocks, y.right_algebra.blocks):
        raise ValueError("bimodules have different acting algebras")


def _in_frames(x: Bimodule, y: Bimodule, t: np.ndarray) -> np.ndarray:
    """W_Y t W_X^H: a map X -> Y given in frame coordinates, in the bimodules' own."""
    if x.frame.w is not None:
        t = t @ x.frame.w.conj().T
    if y.frame.w is not None:
        t = y.frame.w @ t
    return t


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
    unital when X is, and its frame is X's, conjugated, with the two
    labels swapped: its frame columns for a side are the conjugates of
    X's for the other side.
    """
    return Bimodule.deferred(
        x.right_algebra, x.left_algebra, x.dim,
        lambda: (np.conj(x.right_units[x.right_algebra.adjoint_perm()]),
                 np.conj(x.left_units[x.left_algebra.adjoint_perm()])),
        lambda: x.frame.conj())


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
    # coordinate (i, s, j) of sector (k, l) lies in the corner of the i-th
    # diagonal unit of block k and the j-th of block l
    first_left, first_right = np.cumsum((0,) + a.blocks), np.cumsum((0,) + b.blocks)
    labels = np.empty((2, d), dtype=np.intp)
    sec = slice(0, 0)   # the nonzero sectors (k, l) follow each other row-major
    for k, l in zip(*np.nonzero(mult)):
        nk, ml, mu = a.blocks[k], b.blocks[l], int(mult[k, l])
        sec = slice(sec.stop, sec.stop + nk * mu * ml)
        i, _, j = np.indices((nk, mu, ml)).reshape(3, -1)
        labels[:, sec] = first_left[k] + i, first_right[l] + j
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
    x = Bimodule(a, b, left_units, right_units)
    x.canonical, x._frame = (mult, w), Frame(w, *labels)
    return x


def _unit_grid(n: int) -> np.ndarray:
    """(n * n, n, n): the matrix units e_pq of M_n, in row-major order."""
    return np.eye(n * n).reshape(-1, n, n)


def canonical_dim(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                  mult: np.ndarray) -> int:
    """Dimension sum_{k,l} n_k mult[k, l] m_l of the canonical model."""
    return int(np.asarray(a.blocks) @ np.asarray(mult) @ np.asarray(b.blocks))


def _corner_columns(x: Bimodule) -> List[np.ndarray]:
    """Per pair of blocks (k, l), row-major, the frame columns of its corners.

    ``cols[i, j, s]`` is the s-th frame column labelled (p0 + i, q0 + j),
    for p0 and q0 the first diagonal units of blocks k and l: in an
    adapted frame, multiplicity index s of the corner (i, j).
    """
    a, b, frame = x.left_algebra, x.right_algebra, x.frame
    (block_l, p), (block_r, q) = _diag_positions(a), _diag_positions(b)
    k, l = block_l[frame.left], block_r[frame.right]
    # lexsort is stable: within a corner the columns keep their frame order
    order = np.lexsort((q[frame.right], p[frame.left], l, k))
    sizes = np.bincount(k * len(b.blocks) + l, minlength=len(a.blocks) * len(b.blocks))
    return [run.reshape(n, m, -1) for run, (n, m) in zip(
        np.split(order, np.cumsum(sizes)[:-1]), itertools.product(a.blocks, b.blocks))]


def multiplicity_matrix(x: Bimodule) -> np.ndarray:
    """Multiplicity matrix: per pair of blocks, the frame columns of its first corner."""
    return np.array([cols.shape[2] for cols in _corner_columns(x)], dtype=int).reshape(
        len(x.left_algebra.blocks), len(x.right_algebra.blocks))


def random_morphism_matrix(x: Bimodule, y: Bimodule,
                           rng: np.random.Generator) -> np.ndarray:
    """Random intertwiner X -> Y; zero when Hom(X, Y) is trivial.

    On each pair of blocks that both populate, row-major, a complex
    Gaussian mu_Y x mu_X matrix T_kl on every corner of the pair in frame
    coordinates (:func:`_hom_pairs`).
    """
    t = np.zeros((y.dim, x.dim), dtype=complex)
    for cy, cx in _hom_pairs(x, y):
        t[cy[..., None], cx[..., None, :]] = crandn(rng, cy.shape[2], cx.shape[2])
    return _in_frames(x, y, t)
