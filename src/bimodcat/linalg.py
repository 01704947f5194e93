"""Shared dense linear algebra helpers.

Everything here works on complex128 numpy arrays.  Rank decisions use a
single scale-aware threshold policy (``RANK_EPS`` relative to the largest
eigenvalue / singular value) so that all modules agree on what counts as
zero.
"""

from __future__ import annotations

import numpy as np

#: relative eigenvalue / singular value threshold for rank decisions
RANK_EPS = 1e-10

#: base relative tolerance for numerical identity checks
DEFAULT_TOL = 1e-9


def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian array."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def op_norm(m: np.ndarray) -> float:
    """Operator (spectral) norm, the largest over a stack of matrices.

    0 for an empty or all-zero matrix, without an SVD.  Otherwise the
    largest singular value, from the SVD that ``np.linalg.norm(m, 2)``
    makes, so the two agree bit for bit.
    """
    if not m.any():
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).max())


def permutation_matrix(perm: np.ndarray, dtype=complex) -> np.ndarray:
    """The 0/1 matrix P of an index array: P[perm[j], j] = 1.

    So P M scatters M's rows to ``perm`` and M P gathers M's columns by
    it, bit for bit the products with P.
    """
    p = np.zeros((perm.size, perm.size), dtype=dtype)
    p[perm, np.arange(perm.size)] = 1
    return p


def scale_tol(*norms: float, base: float = DEFAULT_TOL) -> float:
    """Scale-aware tolerance: base times the product of the given norms.

    Each factor enters as max(1, norm) so that contractive maps do not
    shrink the tolerance below ``base``.
    """
    t = base
    for n in norms:
        t *= max(1.0, n)
    return t


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significantly nonzero entry is real positive.

    "Significantly" means above 1e-8 times the column's largest magnitude;
    zero columns are left as they are.  Deterministic tie-breaking for
    eigen/qr bases reproducible across runs.
    """
    if vectors.size == 0:
        return vectors
    mags = np.abs(vectors)
    top = mags.max(axis=0)
    lead = vectors[np.argmax(mags > top * 1e-8, axis=0),
                   np.arange(vectors.shape[1])]
    phase = np.ones_like(lead)
    nonzero = top > 0.0
    phase[nonzero] = lead[nonzero] / np.abs(lead[nonzero])
    return vectors / phase


def unit_inner(units: np.ndarray, left: np.ndarray,
               right: np.ndarray) -> np.ndarray:
    """(W, n, m) stack of the inner products (U_w left_i)^H right_j.

    ``units`` is a (W, d, d) stack of action matrices, ``left`` (d, n) and
    ``right`` (d, m) hold vectors in their columns.
    """
    return (units @ left).conj().transpose(0, 2, 1) @ right


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def psd_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian PSD matrix, descending order, fixed phases.

    Returns (eigenvalues, eigenvectors); tiny negative eigenvalues are clipped.
    """
    if m.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    w, v = np.linalg.eigh(hermitize(m))
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    v = fix_phases(v[:, order])
    return w, v


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = psd_eig(m)
    return (v * np.sqrt(w)) @ v.conj().T


def range_basis(proj: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the range of an orthogonal projection.

    Takes k = round(tr P) steps of column-pivoted Gram-Schmidt on P's
    columns: each step keeps the column with the largest residual, the
    first on a tie, so the basis is fixed by P and not by an eigensolver's
    pick inside a degenerate eigenspace.  A kept v is in the range, so
    v^H P e_j = conj(v_j): column j's residual is P e_j - V conj(V[j]), and
    its squared norm is P_jj - |V[j]|^2.  k is clipped to [0, n].
    """
    residual = proj.diagonal().real.copy()
    rank = int(np.clip(round(residual.sum()), 0, len(proj)))
    basis = np.empty((len(proj), rank), dtype=complex)
    for step in range(basis.shape[1]):
        j = residual.argmax()
        v = proj[:, j] - basis[:, :step] @ basis[j, :step].conj()
        v /= np.sqrt(np.vdot(v, v).real)
        residual -= v.real ** 2 + v.imag ** 2
        basis[:, step] = v
    return basis


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian, deterministic phases."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(crandn(rng, n, n))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return fix_phases(q)


def small_rotation(rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
    """Unitary close to the identity: V diag(exp(i*eps*theta)) V^H."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    v = random_unitary(rng, n)
    theta = rng.uniform(-1.0, 1.0, size=n)
    return (v * np.exp(1j * eps * theta)) @ v.conj().T


def map_from_spanning(src_cols: np.ndarray, tgt_cols: np.ndarray) -> np.ndarray:
    """Linear map M with M @ src_cols == tgt_cols, solved by the adjoint.

    Precondition: ``src_cols`` has orthonormal rows, S S^H = 1, so that
    M = T S^H with no pseudo-inverse.  It holds for the spanning families
    of the algebraic tensor space: an isometry Q (Q Q^H = 1) applied to
    tensors of bounded basis vectors and orthonormal basis vectors.
    Bounded bases are tight frames (:mod:`bimodcat.bounded`), so those
    tensors form a tight frame F with F F^H = 1, and S S^H = Q F F^H Q^H = 1.

    Raises ValueError when ||M S - T||_F > 1e-7 * max(1, ||T||_F / sqrt(k)),
    k = min(T.shape): when the columns are not the graph of a linear map,
    and when S's rows are not orthonormal, since then T S^H S != T.  This
    rejects whatever a least-squares solve T S^+ would reject at 1e-7
    times max(1, ||T||_2) in operator norm: the residual M S - T restricted
    to the complement of S's row space is that solve's residual, the
    Frobenius norm bounds the operator norm, and ||T||_F / sqrt(k) <= ||T||_2.
    """
    if src_cols.shape[0] == 0:
        return np.zeros((tgt_cols.shape[0], 0), dtype=complex)
    m = tgt_cols @ src_cols.conj().T
    k = max(min(tgt_cols.shape), 1)
    scale = max(np.linalg.norm(tgt_cols) / np.sqrt(k), 1.0)
    resid = float(np.linalg.norm(m @ src_cols - tgt_cols))
    if resid > 1e-7 * scale:
        raise ValueError(
            f"spanning-family data does not define a linear map (residual {resid:.3e})")
    return m
