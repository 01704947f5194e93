import numpy as np
import pytest

from bimodcat.linalg import (fix_phases, map_from_spanning, op_norm, psd_eig,
                             psd_sqrt, random_unitary, range_basis, scale_tol,
                             small_rotation)
from oracles import psd_rank


def test_psd_eig_descending_and_clipped():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    g = a @ a.conj().T
    w, v = psd_eig(g)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.all(w >= 0)
    assert op_norm((v * w) @ v.conj().T - g) < 1e-10 * max(1.0, op_norm(g))


def test_psd_sqrt_inverse_pair():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = a @ a.conj().T + np.eye(4)
    s = psd_sqrt(g)
    assert op_norm(s @ s - g) < 1e-9 * op_norm(g)


def test_psd_rank_with_kernel():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert psd_rank(a @ a.conj().T) == 3


def _pivoted_gram_schmidt(proj, k):
    """Loop reference: column norms recomputed at every step."""
    cols, basis = proj.astype(complex), []
    for _ in range(k):
        norms = [np.linalg.norm(cols[:, j]) for j in range(cols.shape[1])]
        v = cols[:, int(np.argmax(norms))] / max(norms)
        basis.append(v)
        cols = cols - np.outer(v, v.conj() @ cols)
    return np.array(basis).T.reshape(len(proj), k)


def test_range_basis_matches_pivoted_gram_schmidt():
    rng = np.random.default_rng(6)
    ties = np.diag([0.0, 1.0, 1.0, 0.0, 1.0])
    for proj in [ties] + [(q @ q.conj().T) for q in
                          (random_unitary(rng, 5)[:, :k] for k in range(6))]:
        k = int(round(np.trace(proj).real))
        basis = range_basis(proj)
        assert basis.shape == (5, k)
        assert op_norm(basis.conj().T @ basis - np.eye(k)) < 1e-12
        assert op_norm(basis @ basis.conj().T - proj) < 1e-12
        assert op_norm(basis - _pivoted_gram_schmidt(proj, k)) < 1e-12
    assert np.array_equal(range_basis(ties), np.eye(5)[:, [1, 2, 4]])


def test_random_unitary_and_small_rotation():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 6)
    assert op_norm(u @ u.conj().T - np.eye(6)) < 1e-12
    r = small_rotation(rng, 6, 1e-3)
    assert op_norm(r @ r.conj().T - np.eye(6)) < 1e-12
    assert 1e-5 < op_norm(r - np.eye(6)) < 1e-2


def test_fix_phases_deterministic():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    assert np.allclose(fix_phases(v * phases), fix_phases(v))


def _fix_phases_loop(vectors):
    """Column-by-column reference for fix_phases."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        idx = int(np.argmax(mags > top * 1e-8))
        out[:, j] = col / (col[idx] / abs(col[idx]))
    return out


def test_fix_phases_convention_and_loop_reference():
    rng = np.random.default_rng(6)
    for trial in range(50):
        rows, cols = rng.integers(1, 9, size=2)
        v = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        # leading entries below the 1e-8 relative cut, and a zero column
        v[0, 0] = 1e-12 * (1 + 1j)
        if cols > 1:
            v[:, 1] = 0.0
        got = fix_phases(v)
        assert np.abs(got - _fix_phases_loop(v)).max() <= 1e-14
        assert np.allclose(np.abs(got), np.abs(v), rtol=0, atol=1e-14)
        for j in range(cols):
            mags = np.abs(v[:, j])
            if mags.max() == 0.0:
                assert np.array_equal(got[:, j], v[:, j])
                continue
            lead = got[np.argmax(mags > 1e-8 * mags.max()), j]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15 * lead.real


def test_scale_tol_floor_and_growth():
    assert scale_tol(base=1e-9) >= 1e-12
    assert scale_tol(10.0, 10.0, base=1e-9) == pytest.approx(1e-7)


def test_map_from_spanning_consistency():
    rng = np.random.default_rng(5)
    # a spanning family with orthonormal rows, as every caller passes
    u = random_unitary(rng, 8)
    src = u[:3]
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    got = map_from_spanning(src, m @ src)
    assert op_norm(got - m) < 1e-9 * max(1.0, op_norm(m))
    # inconsistent targets (not the graph of a linear map) are rejected
    bad = m @ src
    bad[:, 0] += 1.0
    with pytest.raises(ValueError):
        map_from_spanning(src, bad)
    # so is a family whose rows are not orthonormal
    gauss = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    with pytest.raises(ValueError):
        map_from_spanning(gauss, m @ gauss)
    # and a residual off the row space just above 1e-7 * max(1, ||T||_2) in
    # operator norm, the bound a pseudo-inverse solve would reject
    tgt = m @ src
    direction = np.outer(random_unitary(rng, 4)[:, 0], u[3])
    eps = 1.01e-7 * max(1.0, op_norm(tgt))
    assert op_norm(eps * direction) > 1e-7 * max(1.0, op_norm(tgt + eps * direction))
    with pytest.raises(ValueError):
        map_from_spanning(src, tgt + eps * direction)
