"""Finite-dimensional W*-algebras (multi-matrix algebras) and their standard forms.

An algebra is a direct sum of full complex matrix blocks.  Its regular
(standard) representation lives on the algebra itself with the trace inner
product; elements are vectorized block-by-block in row-major order.
:class:`MultiMatrixAlgebra` owns that numbering of the matrix units and the
labels 0, 1, ... of the diagonal units (:meth:`MultiMatrixAlgebra.unit`,
:attr:`MultiMatrixAlgebra.diagonal`); no other module does the arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .linalg import RANK_EPS, crandn, hermitize, psd_eig, psd_sqrt


class NotPositiveError(ValueError):
    """Raised when a density matrix fails positivity."""


class DiagonalUnits(NamedTuple):
    """An algebra's diagonal units e_pp by label: block, p and unit index.

    Block k's labels run from ``first[k]`` to ``first[k + 1] - 1``.
    """

    block: np.ndarray
    pos: np.ndarray
    unit: np.ndarray
    first: np.ndarray


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """Direct sum of matrix algebras, given by its block sizes."""

    blocks: Tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) < 1 or any(n < 1 for n in self.blocks):
            raise ValueError(f"block sizes must be positive, got {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(n) for n in self.blocks))

    @property
    def matrix_dim(self) -> int:
        """Total size of the block-diagonal matrices."""
        return sum(self.blocks)

    @property
    def dim(self) -> int:
        """Linear dimension = dimension of the standard form Hilbert space."""
        return sum(n * n for n in self.blocks)

    @property
    def offsets(self) -> Tuple[int, ...]:
        """The unit index of each block's e_00."""
        return _offsets(self.blocks)

    def unit(self, k, p, q) -> np.ndarray:
        """Index of the matrix unit e_pq of block k; broadcasts over arrays."""
        return np.asarray(self.offsets)[k] + p * np.asarray(self.blocks)[k] + q

    @property
    def diagonal(self) -> DiagonalUnits:
        """The table of the diagonal units, built once per block tuple; read-only."""
        return _diagonal(self.blocks)

    def unit_positions(self) -> List[Tuple[int, int, int]]:
        """(block, row, col) for each matrix unit, in vectorization order."""
        return [(k, p, q) for k, n in enumerate(self.blocks)
                for p, q in np.ndindex(n, n)]

    @functools.cache
    def adjoint_perm(self) -> np.ndarray:
        """Index permutation sending each matrix unit to its adjoint; read-only."""
        k, p, q = np.array(self.unit_positions(), dtype=np.intp).T
        perm = self.unit(k, q, p)
        perm.setflags(write=False)
        return perm

    # -- element constructors -------------------------------------------------

    def element(self, blocks: Sequence[np.ndarray]) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.asarray(b, dtype=complex) for b in blocks))

    def zero(self) -> "AlgebraElement":
        return self.element([np.zeros((n, n), dtype=complex) for n in self.blocks])

    def identity(self) -> "AlgebraElement":
        return self.element([np.eye(n, dtype=complex) for n in self.blocks])

    def vec(self, a: "AlgebraElement") -> np.ndarray:
        return np.concatenate([b.ravel() for b in a.data]) if self.blocks else np.zeros(0)

    def unvec(self, v: np.ndarray) -> "AlgebraElement":
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {v.shape}")
        return self.element([b.reshape(n, n) for b, n in
                             zip(np.split(v, self.offsets[1:]), self.blocks)])

    def random_element(self, rng: np.random.Generator) -> "AlgebraElement":
        return self.element([crandn(rng, n, n) for n in self.blocks])

    def random_positive(self, rng: np.random.Generator) -> "AlgebraElement":
        a = self.random_element(rng)
        return a @ a.adjoint()

    def __repr__(self):
        return "MultiMatrixAlgebra(" + "+".join(f"M{n}" for n in self.blocks) + ")"


# The tables are cached on the block tuple, not on the algebra: a lookup
# then hashes a tuple of ints, and every algebra with those blocks shares
# one table.

@functools.cache
def _offsets(blocks: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(np.cumsum([0] + [n * n for n in blocks[:-1]]).tolist())


@functools.cache
def _diagonal(blocks: Tuple[int, ...]) -> DiagonalUnits:
    first = np.cumsum((0,) + blocks)
    block = np.repeat(np.arange(len(blocks)), blocks)
    pos = np.arange(first[-1]) - first[block]
    table = DiagonalUnits(block, pos,
                          MultiMatrixAlgebra(blocks).unit(block, pos, pos), first)
    for column in table:
        column.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Block-diagonal matrix in a multi-matrix algebra."""

    algebra: MultiMatrixAlgebra
    data: Tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.data) != len(self.algebra.blocks):
            raise ValueError("wrong number of blocks")
        for b, n in zip(self.data, self.algebra.blocks):
            if b.shape != (n, n):
                raise ValueError(f"block shape {b.shape} != ({n},{n})")

    def _check(self, other: "AlgebraElement"):
        if other.algebra.blocks != self.algebra.blocks:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return self.algebra.element([x + y for x, y in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check(other)
        return self.algebra.element([x - y for x, y in zip(self.data, other.data)])

    def __mul__(self, scalar):
        return self.algebra.element([scalar * x for x in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        return self.algebra.element([x @ y for x, y in zip(self.data, other.data)])

    def adjoint(self) -> "AlgebraElement":
        return self.algebra.element([x.conj().T for x in self.data])

    def trace(self) -> complex:
        """Sum of the block traces."""
        return complex(sum(np.trace(b) for b in self.data))

    @property
    def vec(self) -> np.ndarray:
        return self.algebra.vec(self)

    def norm(self) -> float:
        """Operator norm (max over blocks)."""
        return max((float(np.linalg.norm(b, 2)) for b in self.data if b.size), default=0.0)

    def allclose(self, other: "AlgebraElement", tol: float = 1e-9) -> bool:
        self._check(other)
        return (self - other).norm() <= tol


@dataclass(frozen=True, eq=False)
class NormalFunctional:
    """Positive normal functional phi(a) = blockTrace(rho a)."""

    algebra: MultiMatrixAlgebra
    density: AlgebraElement

    def __post_init__(self):
        rho = self.density
        if rho.algebra.blocks != self.algebra.blocks:
            raise ValueError("density belongs to a different algebra")
        herm_defect = (rho - rho.adjoint()).norm()
        scale = max(rho.norm(), 1.0)
        if herm_defect > 1e-9 * scale:
            raise NotPositiveError(f"density not Hermitian (defect {herm_defect:.3e})")
        for b in rho.data:
            if b.size:
                w = np.linalg.eigvalsh(hermitize(b))
                if w.min() < -1e-9 * scale:
                    raise NotPositiveError(f"density has eigenvalue {w.min():.3e} < 0")

    def __call__(self, a: AlgebraElement) -> complex:
        return (self.density @ a).trace()


@dataclass(frozen=True, eq=False)
class StandardFormData:
    """The standard bimodule L2(A) with its natural *-operation."""

    algebra: MultiMatrixAlgebra
    bimodule: "Bimodule"  # noqa: F821  (bimodule module imports this one)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def sharp(self, v: np.ndarray) -> np.ndarray:
        """Natural *-operation x -> x* on vectorized elements (antilinear)."""
        a = self.algebra.unvec(np.asarray(v, dtype=complex))
        return a.adjoint().vec

    def sharp_perm(self) -> np.ndarray:
        """Permutation P with sharp(v) = P conj(v)."""
        return self.algebra.adjoint_perm()


@functools.cache
def standard_form(algebra: MultiMatrixAlgebra) -> StandardFormData:
    """Regular representation of the algebra on itself with trace inner product.

    On vectorized elements, L2(A) is the canonical model with multiplicity
    one on each diagonal sector: block k's n x n matrices are
    C^n (x) C^1 (x) C^n, left multiplication acts on the row index and
    right multiplication on the column index.  Built once per block tuple
    and shared by every caller, so its frame labels, which every product
    with L2(A) reads, are read-only.
    """
    from .bimodule import canonical_bimodule  # local import to avoid a cycle

    bim = canonical_bimodule(algebra, algebra,
                             np.eye(len(algebra.blocks), dtype=int))
    for labels in bim.frame[1:]:
        labels.setflags(write=False)
    return StandardFormData(algebra=algebra, bimodule=bim)


def gns_vector(phi: NormalFunctional) -> np.ndarray:
    """phi^{1/2} in L2(A): principal square root of the density, vectorized."""
    return phi.algebra.element([psd_sqrt(b) for b in phi.density.data]).vec


def support_projection(phi: NormalFunctional) -> AlgebraElement:
    """Orthogonal projection onto the range of the density matrix."""
    projs = []
    for b in phi.density.data:
        w, v = psd_eig(b)
        keep = w > RANK_EPS * w[0] if w.size and w[0] > 0 else np.zeros_like(w, bool)
        vk = v[:, keep]
        projs.append(vk @ vk.conj().T)
    return phi.algebra.element(projs)


def amplify_algebra(algebra: MultiMatrixAlgebra, n: int) -> MultiMatrixAlgebra:
    """n-fold matrix extension M_n(A); outer index varies slowest inside each block."""
    if n < 1:
        raise ValueError("amplification order must be >= 1")
    return MultiMatrixAlgebra(tuple(n * nk for nk in algebra.blocks))


def amplified_element(algebra: MultiMatrixAlgebra, n: int,
                      entries: Sequence[Sequence[AlgebraElement]]) -> AlgebraElement:
    """Assemble an n x n matrix over A into the flattened M_n(A) element."""
    return amplify_algebra(algebra, n).element(
        [np.block([[entries[i][j].data[k] for j in range(n)] for i in range(n)])
         for k in range(len(algebra.blocks))])
