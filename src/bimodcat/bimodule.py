"""Bimodules over multi-matrix algebras, intertwiners, duals and matrix extensions.

A bimodule is its :class:`Frame`, adapted to the matrix units: column s of
each corner of a pair of blocks (k, l) is multiplicity index s, and each
matrix unit carries frame columns to frame columns (:func:`moved_columns`).
Hom(X, Y), multiplicities, random intertwiners (1 (x) T_kl (x) 1 by
Schur), a product's members, m and the unitors are read off the frames.
A bimodule with a frame of its own, a canonical model, a matrix extension
or one given by its stacks, moves its columns through a table of the
columns by corner and rank (:attr:`Bimodule._column_table`).  A derived
bimodule, a dual or a product's result, keeps no such table: it reads
moved columns and corner bases (:func:`corner_base`) off the bimodule it
came from, its ``origin`` (:class:`_DualOf`, and
:class:`bimodcat.tensor._ProductOf` for a result).
The action stacks, ``left_units[u]`` the matrix of the u-th matrix unit of
the left algebra and likewise ``right_units``, are a view: each read
builds its one side afresh off the frame (:func:`_frame_stacks`).  An
element's action is the same scatter off the frame with the element's
coefficients in place of the stack's 1s, and builds no stack
(:func:`_frame_scatter`).  Only a bimodule given by its stacks keeps them
as given, sums an element's action over them and finds its frame from
them, by pivoted Gram-Schmidt once per pair of blocks (:func:`_stack_frame`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .algebra import (AlgebraElement, MultiMatrixAlgebra, amplify_algebra,
                      integral)
from .linalg import crandn, op_norm, range_basis
from .store import stored


class NotABimoduleError(ValueError):
    """Raised when action data fails the bimodule axioms at construction."""


class Frame(NamedTuple):
    """An orthonormal basis of X, column t in the corner L(e_pp) R(e_qq) X.

    p = ``left[t]`` and q = ``right[t]`` label diagonal matrix units: they
    index the rows of the acting algebras' tables
    (:attr:`bimodcat.algebra.MultiMatrixAlgebra.diagonal`).  ``w`` None is
    the identity, as a product's result's.  Every frame is adapted to the
    matrix units: with p0 and q0 the first diagonal units of blocks k and
    l, the s-th column of the corner (p0 + i, q0 + j) is L(e_i0) R(e_0j)
    applied to the s-th of the corner (p0, q0) (:func:`_corner_columns`).
    """

    w: Optional[np.ndarray]
    left: np.ndarray
    right: np.ndarray

    def conj(self) -> "Frame":
        """The dual's frame: W conjugated, read-only, the two labels swapped.

        The labels are this frame's own arrays, as they are.
        """
        if self.w is None:
            return Frame(None, self.right, self.left)
        w = np.conj(self.w)
        w.setflags(write=False)
        return Frame(w, self.right, self.left)


class Bimodule:
    """Hilbert space with commuting unital left and right algebra actions.

    ``Bimodule(A, B, left_units, right_units)`` checks the two stacks' shapes
    and unitality at once and keeps them as given.  :meth:`from_frame` takes
    the dimension and the frame, and every read of a stack reads that one
    stack off the frame afresh.
    """

    #: what a dual or a product's result reads its moves off, set where it
    #: is made; None, the class default, for a frame of its own
    origin = None

    def __init__(self, left_algebra: MultiMatrixAlgebra,
                 right_algebra: MultiMatrixAlgebra, left_units: np.ndarray,
                 right_units: np.ndarray):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = left_units.shape[1] if left_units.ndim == 3 else 0
        #: (multiplicity matrix, basis unitary) of a canonical model, else None
        self.canonical = None
        self._given = self._checked(left_units, right_units)

    @classmethod
    def from_frame(cls, left_algebra: MultiMatrixAlgebra,
                   right_algebra: MultiMatrixAlgebra, dim: int,
                   frame: "Frame") -> "Bimodule":
        """Dimension ``dim`` and ``frame``, which fixes both actions."""
        x = cls.__new__(cls)
        x.left_algebra, x.right_algebra, x.dim = left_algebra, right_algebra, dim
        x.canonical, x._given, x.frame = None, None, frame
        return x

    @functools.cached_property
    def frame(self) -> Frame:
        """The :class:`Frame`: given, or found from the stacks on first read and kept."""
        return _stack_frame(self)

    @property
    def left_units(self) -> np.ndarray:
        """(dim left_algebra, d, d): the left action of each matrix unit."""
        return self._given[0] if self._given is not None else _frame_stacks(self, "left")

    @property
    def right_units(self) -> np.ndarray:
        """(dim right_algebra, d, d): the right action of each matrix unit."""
        return self._given[1] if self._given is not None else _frame_stacks(self, "right")

    @functools.cached_property
    def _column_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Column t's key s * (corners) + its corner, s its rank there, and table[key] = t.

        Built on first read and kept, for a bimodule with a frame of its
        own; a dual or a product's result reads its moved columns off its
        ``origin`` and has no table.
        """
        per_row = self.right_algebra.matrix_dim      # corners per left label
        size = self.left_algebra.matrix_dim * per_row
        corner = self.frame.left * per_row + self.frame.right
        order = corner.argsort(kind="stable")
        ranked = corner[order]
        cols = np.arange(self.dim)
        key = np.empty(self.dim, dtype=np.intp)
        key[order] = cols - ranked.searchsorted(ranked)     # s
        key = key * size + corner
        table = np.empty(key.max(initial=-1) + 1, dtype=np.intp)
        table[key] = cols
        for arr in (key, table):
            arr.setflags(write=False)
        return key, table

    def _checked(self, left_units: np.ndarray, right_units: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """The given stacks, once their shapes, entries and unitality hold."""
        d = self.dim
        sides = ((left_units, self.left_algebra, "left"),
                 (right_units, self.right_algebra, "right"))
        for units, alg, side in sides:
            if units.shape != (alg.dim, d, d):
                raise NotABimoduleError(f"{side} action has wrong shape")
            if not np.isfinite(units).all():
                raise NotABimoduleError(f"{side} action has non-finite entries")
        # unitality is cheap and catches degenerate actions early; the
        # Frobenius norm bounds the operator norm from above, without an
        # SVD.  The bound is 1e-8 times the largest entry, floored at 1, so
        # the stacks are scanned for that entry only past 1e-8
        defects = [np.linalg.norm(units[alg.diagonal.unit].sum(axis=0)
                                  - np.eye(d)) for units, alg, _ in sides]
        if max(defects) > 1e-8:
            scale = max(1.0, float(np.abs(left_units).max(initial=0.0)),
                        float(np.abs(right_units).max(initial=0.0)))
            for defect, (_, _, side) in zip(defects, sides):
                if defect > 1e-8 * scale:
                    raise NotABimoduleError(f"{side} action is not unital")
        return left_units, right_units

    def left_action(self, a: AlgebraElement) -> np.ndarray:
        return _element_action(self, "left", a)

    def right_action(self, b: AlgebraElement) -> np.ndarray:
        return _element_action(self, "right", b)

    def validate(self, tol: float = 1e-8) -> float:
        """Full bimodule-axiom check; returns the worst defect found."""
        worst = 0.0
        left, right = self.left_units, self.right_units
        for units, alg, anti in ((left, self.left_algebra, False),
                                 (right, self.right_algebra, True)):
            pos = alg.unit_positions()
            perm = alg.adjoint_perm()
            for u, (k, p, q) in enumerate(pos):
                # adjoint compatibility: action(x*) = action(x)^H
                worst = max(worst, op_norm(units[perm[u]] - units[u].conj().T))
                for v, (k2, r, s) in enumerate(pos):
                    # e_pq e_rs = delta_qr e_ps within a block, else 0
                    prod = (units[alg.unit(k, p, s)] if (k, q) == (k2, r)
                            else np.zeros_like(units[0]))
                    lhs = units[v] @ units[u] if anti else units[u] @ units[v]
                    worst = max(worst, op_norm(lhs - prod))
        for lu in left:
            for ru in right:
                worst = max(worst, op_norm(lu @ ru - ru @ lu))
        if worst > tol:
            raise NotABimoduleError(f"bimodule axioms violated (defect {worst:.3e})")
        return worst


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
    left, right = x._given
    da, db = a.diagonal, b.diagonal
    first = {}      # (k, l) -> the range basis of the pair's first corner
    bases, corners = [], []
    for p, (k, i) in enumerate(zip(da.block, da.pos)):
        for q, (l, j) in enumerate(zip(db.block, db.pos)):
            proj = left[da.unit[p]] @ right[db.unit[q]]
            if i == j == 0:
                first[k, l] = range_basis(proj)
                bases.append(first[k, l])
            else:
                # e_i0 of block k and e_0j of block l
                bases.append(left[a.unit(k, i, 0)]
                             @ (right[b.unit(l, 0, j)] @ first[k, l]))
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
    frame = Frame(w, *np.array(corners, dtype=np.intp).reshape(-1, 2).T)
    for arr in frame:   # kept on the bimodule and shared by every reader
        arr.setflags(write=False)
    return frame


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
        """Worst defect of T L_a - L'_a T and T R_b - R'_b T over matrix units.

        One stacked product per side and one batched norm (:func:`op_norm`
        of the stack), skipped when the stacked defect is exactly zero.
        """
        return max(op_norm(d) for d in self._defects())

    def _defects(self) -> List[np.ndarray]:
        """The stacked T L_a - L'_a T and T R_b - R'_b T over matrix units.

        Each endpoint's stacks are read once, an endomorphism's once in all.
        """
        t, defects = self.matrix, []
        for side in ("left_units", "right_units"):
            s = getattr(self.source, side)
            u = s if self.target is self.source else getattr(self.target, side)
            defects.append(t @ s - u @ t)
        return defects

    def is_morphism(self, tol: float = 1e-8) -> bool:
        """Whether the intertwiner defect is at most tol max(1, ||T||).

        The Frobenius norm of a stacked defect bounds the operator norm of
        each of its matrices, and the scale is at least 1: so when both
        stacks' Frobenius norms are at most ``tol`` the answer is yes
        without an SVD.  Otherwise the exact rule decides, from the same
        defects, with :func:`op_norm` of them and of T.
        """
        defects = self._defects()
        if max(np.linalg.norm(d) for d in defects) <= tol:
            return True
        return (max(op_norm(d) for d in defects)
                <= tol * max(1.0, op_norm(self.matrix)))

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
    rows ``cy[i, j]`` and columns ``cx[i, j]``.  An endomorphism's two
    bimodules share one table.
    """
    _same_algebras(x, y)
    cols_x = _corner_columns(x)
    cols_y = cols_x if y is x else _corner_columns(y)
    return [(cy, cx) for cx, cy in zip(cols_x, cols_y)
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
    """X*, framed by X's frame, conjugated, with the two labels swapped.

    b acts on xi* as (xi b*)*: X*'s left unit e_pq is X's right e_qp,
    conjugated.  X** is framed by X's own frame arrays: conj(conj(W)) is W
    bit for bit.
    """
    frame = x.origin.x.frame if isinstance(x.origin, _DualOf) else x.frame.conj()
    xs = Bimodule.from_frame(x.right_algebra, x.left_algebra, x.dim, frame)
    xs.origin = _DualOf(x)
    return xs


_OTHER_SIDE = {"left": "right", "right": "left"}


class _DualOf(NamedTuple):
    """A dual X*'s origin: side s of X* is side ``other(s)`` of X, column for column."""

    x: Bimodule

    def moved_columns(self, side: str, cols: np.ndarray,
                      labels: np.ndarray) -> np.ndarray:
        return moved_columns(self.x, _OTHER_SIDE[side], cols, labels)

    def corner_base(self, side: str) -> np.ndarray:
        return corner_base(self.x, _OTHER_SIDE[side])


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
    originals with the shared blockwise flattening.  Its frame is 1 (x) W_X,
    column (i, j, t) labelled i n_k + p and j m_l + q for t's labels p, q.
    """
    if ni < 1 or nj < 1:
        raise ValueError("extension orders must be >= 1")
    i, j, t = np.indices((ni, nj, x.dim)).reshape(3, -1)
    labels = []
    for alg, n, outer, own in ((x.left_algebra, ni, i, x.frame.left[t]),
                               (x.right_algebra, nj, j, x.frame.right[t])):
        k = alg.diagonal.block[own]
        labels.append(n * alg.diagonal.first[k] + outer * np.take(alg.blocks, k)
                      + alg.diagonal.pos[own])
    w = None if x.frame.w is None else np.kron(np.eye(ni * nj), x.frame.w)
    return Bimodule.from_frame(amplify_algebra(x.left_algebra, ni),
                               amplify_algebra(x.right_algebra, nj),
                               ni * nj * x.dim, Frame(w, *labels))


def canonical_bimodule(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                       mult: np.ndarray,
                       basis_unitary: Optional[np.ndarray] = None) -> Bimodule:
    """Canonical model with multiplicity matrix ``mult``.

    The space is the direct sum over sectors (k, l) of
    C^{n_k} (x) C^{mult[k,l]} (x) C^{m_l}; the left algebra acts on the first
    leg, the right algebra on the last leg by row-vector multiplication.
    An optional unitary change of basis is applied to avoid axis-aligned data.

    The frame labels are set for all coordinates of all nonzero sectors
    at once.  A basis unitary W must have finite entries and
    ||W^H W - 1||_F <= 1e-8: the unitality test of the stacks W U W^H,
    up to rounding, which are read off the frame only when read.
    """
    mult = np.asarray(mult)
    if mult.dtype.kind not in "biu":
        for m in mult.ravel().tolist():
            integral(m, "multiplicity")
    mult = mult.astype(int, copy=False)
    if mult.shape != (len(a.blocks), len(b.blocks)):
        raise ValueError("multiplicity matrix has wrong shape")
    if (mult < 0).any():
        raise ValueError("multiplicities must be nonnegative")
    d = canonical_dim(a, b, mult)
    # the nonzero sectors (k, l) follow each other row-major, and in each
    # the coordinates (i, s, j) of C^n_k (x) C^mu (x) C^m_l, row-major
    k, l = np.nonzero(mult)
    nk, ml = np.take(a.blocks, k), np.take(b.blocks, l)
    stride = mult[k, l] * ml        # from (i, s, j) to (i + 1, s, j)
    size = nk * stride
    sector = np.repeat(np.arange(k.size), size)
    i, sj = np.divmod(np.arange(d) - (size.cumsum() - size)[sector],
                      stride[sector])
    # coordinate c lies in the corner of the i-th diagonal unit of block k
    # and the j-th of block l
    labels = (a.diagonal.first[k[sector]] + i,
              b.diagonal.first[l[sector]] + sj % ml[sector])
    w = None if basis_unitary is None else np.asarray(basis_unitary, dtype=complex)
    if w is not None:
        if w.shape != (d, d):
            raise ValueError("basis unitary has wrong shape")
        defect = (np.linalg.norm(w.conj().T @ w - np.eye(d))
                  if np.isfinite(w).all() else np.inf)
        if not defect <= 1e-8:
            raise NotABimoduleError(
                f"basis unitary is not unitary: ||W^H W - 1||_F = {defect:.3e}")
    x = Bimodule.from_frame(a, b, d, Frame(w, *labels))
    x.canonical = mult, w
    return x


def _frame_stacks(x: Bimodule, side: str) -> np.ndarray:
    """X's ``side`` action stack W U W^H, U 0/1, off the frame (:func:`_frame_scatter`)."""
    return _frame_scatter(x, side, np.eye(getattr(x, f"{side}_algebra").dim))


def _element_action(x: Bimodule, side: str, a: AlgebraElement) -> np.ndarray:
    """a acting on X on ``side``: off the frame, or summed over the given stack."""
    vec = getattr(x, f"{side}_algebra").vec(a)
    if x._given is not None:
        return np.einsum("u,uij->ij", vec, getattr(x, f"{side}_units"))
    return _frame_scatter(x, side, vec)


def _frame_scatter(x: Bimodule, side: str, coeffs: np.ndarray) -> np.ndarray:
    """W m W^H for m = sum_u coeffs[..., u] U_u, U_u the u-th unit's 0/1 ``side`` action.

    U_u carries frame columns to frame columns (:func:`moved_columns`), so
    m is a scatter of the coefficients: the identity gives the stack, an
    element's vector its action.
    """
    alg, frame, d = getattr(x, f"{side}_algebra"), x.frame, x.dim
    diag, labels = alg.diagonal, getattr(frame, side)
    # column t, of label i, and each label p of its block: e_pi (left) or
    # e_ip (right), e_pp's or e_ii's unit index moved by i - p, carries t to p
    t, p = (diag.block[labels][:, None] == diag.block).nonzero()
    i = labels[t]
    unit = diag.unit[p] + (i - p) if side == "left" else diag.unit[i] - (i - p)
    m = np.zeros(coeffs.shape[:-1] + (d, d), dtype=complex)
    m[..., moved_columns(x, side, t, p), t] = coeffs[..., unit]
    if frame.w is not None:
        m = frame.w @ m @ frame.w.conj().T
    return m


def moved_columns(x: Bimodule, side: str, cols: np.ndarray,
                  labels: np.ndarray) -> np.ndarray:
    """The frame columns that units of the ``side`` algebra carry ``cols`` to, at ``labels``.

    In an adapted frame e_pq (left) or e_qp (right) carries the s-th column
    of a corner of ``side`` label q to the s-th of the corner of label p.
    A dual or a product's result reads them off its ``origin``.
    """
    if x.origin is not None:
        return x.origin.moved_columns(side, cols, labels)
    key, table = x._column_table
    step = x.right_algebra.matrix_dim if side == "left" else 1
    return table[key[cols] + (labels - getattr(x.frame, side)[cols]) * step]


def canonical_dim(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                  mult: np.ndarray) -> int:
    """Dimension sum_{k,l} n_k mult[k, l] m_l of the canonical model."""
    return int(np.asarray(a.blocks) @ np.asarray(mult) @ np.asarray(b.blocks))


def _corner_columns(x: Bimodule) -> List[np.ndarray]:
    """Per pair of blocks (k, l), row-major, the frame columns of its corners.

    ``cols[i, j, s]`` is the s-th frame column labelled (p0 + i, q0 + j),
    for p0 and q0 the first diagonal units of blocks k and l: in an
    adapted frame, multiplicity index s of the corner (i, j): the columns
    of the pair's first corner (0, 0), moved (:func:`moved_columns`).
    """
    a, b, frame = x.left_algebra, x.right_algebra, x.frame
    pair = (a.diagonal.block[frame.left] * len(b.blocks)
            + b.diagonal.block[frame.right])
    corner = frame.left * b.matrix_dim + frame.right
    order = (pair * a.matrix_dim * b.matrix_dim + corner).argsort(kind="stable")
    sizes = np.bincount(pair, minlength=len(a.blocks) * len(b.blocks))
    shapes = [(n, m) for n in a.blocks for m in b.blocks]
    return [order[end - size:end].reshape(n, m, -1) for end, size, (n, m) in
            zip(sizes.cumsum().tolist(), sizes.tolist(), shapes)]


def corner_base(x: Bimodule, side: str) -> np.ndarray:
    """Per frame column, its column in the first row or column of its pair's corners.

    Multiplicity index s of the corner (i, j) goes to s of (0, j) for
    ``side="left"`` and of (i, 0) for ``side="right"``: the column that
    the ``side`` action's matrix units carry it to and back from.  A dual
    or a product's result gathers its bases from those of the bimodule it
    came from, and builds no column table.  Built once inside an open
    product store.
    """
    return stored(_corner_base, x, side)


def _corner_base(x: Bimodule, side: str) -> np.ndarray:
    if x.origin is not None:
        return x.origin.corner_base(side)
    diag, labels = getattr(x, f"{side}_algebra").diagonal, getattr(x.frame, side)
    return moved_columns(x, side, np.arange(x.dim), diag.first[diag.block[labels]])


def multiplicity_matrix(x: Bimodule) -> np.ndarray:
    """Multiplicity matrix: per pair of blocks, the frame columns of its first corner."""
    da, db = x.left_algebra.diagonal, x.right_algebra.diagonal
    n_a, n_b = da.first[-1], db.first[-1]
    counts = np.bincount(x.frame.left * n_b + x.frame.right, minlength=n_a * n_b)
    return counts.reshape(n_a, n_b)[np.ix_(da.first[:-1], db.first[:-1])]


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
