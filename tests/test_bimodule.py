import importlib
import warnings

import numpy as np
import pytest

from bimodcat.algebra import MultiMatrixAlgebra, standard_form
from bimodcat.bimodule import (Bimodule, Morphism, NotABimoduleError,
                               canonical_bimodule, double_dual_iso,
                               dual_bimodule, dual_vector, hom_basis,
                               matrix_extension, multiplicity_matrix,
                               random_morphism_matrix, transpose)
from bimodcat.coherence import run_suite
from bimodcat.instances import (InstanceSpec, Limits, generate, load,
                                random_bimodule, save)
from bimodcat.linalg import crandn, op_norm
from bimodcat.store import product_store
from bimodcat.tensor import tensor_left, tensor_right
from oracles import (canonical_sector_loop, canonical_units, dual_stacks,
                     hom_null_space, kronecker_extension, multiplicity_traces)
from random_bims import random_bim

# the module, whose globals its functions read
bimodule_module = importlib.import_module("bimodcat.bimodule")


def test_standard_form_validates():
    for blocks in [(1,), (3,), (2, 2), (1, 2, 3)]:
        bim = standard_form(MultiMatrixAlgebra(blocks)).bimodule
        assert bim.validate() < 1e-12


def test_canonical_stacks_are_the_per_unit_kronecker_products():
    # 120 generated chains, in their basis unitaries and without, and L2
    for limits in (None, Limits(min_mult=1), Limits(min_mult=1, max_mult=2)):
        for seed in range(40):
            for x in generate(seed, limits).bimodules:
                mult, w = x.canonical
                plain = canonical_bimodule(x.left_algebra, x.right_algebra, mult)
                want = canonical_units(x.left_algebra, x.right_algebra, mult)
                for got, units, unit in zip(
                        (plain.left_units, plain.right_units),
                        (x.left_units, x.right_units), want):
                    assert np.array_equal(got, unit)
                    assert np.array_equal(units, w @ unit @ w.conj().T)
    for blocks in [(1,), (2,), (1, 2), (3, 1, 2), (2, 2)]:
        a = MultiMatrixAlgebra(blocks)
        l2 = standard_form(a).bimodule
        want = canonical_units(a, a, np.eye(len(blocks), dtype=int))
        assert np.array_equal(l2.left_units, want[0])
        assert np.array_equal(l2.right_units, want[1])


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_canonical_pass_is_the_sector_loop_bit_for_bit():
    # the stacks, moved by the basis unitary, and the frame labels of the
    # one-pass build against the per-sector loop: generated chains at three
    # limits and the L2 of each of their algebras, a multiplicity matrix
    # with zero rows and columns, and a model of dimension 0
    models, algebras = [], set()
    for limits in (None, Limits(min_mult=1), Limits(min_mult=1, max_mult=2)):
        for seed in range(30):
            spec = generate(seed, limits)
            models += [(x.left_algebra, x.right_algebra, *x.canonical)
                       for x in spec.bimodules]
            algebras.update(spec.algebras)
    # every algebra of at most 2 blocks of size at most 2, the default
    # limits', and three larger ones
    assert len(algebras) == 6
    algebras.update(MultiMatrixAlgebra(blocks)
                    for blocks in ((3,), (1, 2, 3), (2, 2, 2)))
    models += [(a, a, np.eye(len(a.blocks), dtype=int), None)
               for a in sorted(algebras, key=lambda a: a.blocks)]
    a, b = MultiMatrixAlgebra((2, 1, 3)), MultiMatrixAlgebra((1, 2))
    rng = np.random.default_rng(11)
    mult = np.array([[0, 0], [2, 0], [1, 3]])
    models += [(a, b, mult, random_bim(rng, a.blocks, b.blocks, mult).canonical[1]),
               (a, b, np.zeros((3, 2), dtype=int), None)]
    for a, b, mult, w in models:
        x = canonical_bimodule(a, b, mult, basis_unitary=w)
        left, right, labels = canonical_sector_loop(a, b, mult)
        if w is not None:
            left, right = (w @ units @ w.conj().T for units in (left, right))
        assert _same_bytes(x.left_units, left)
        assert _same_bytes(x.right_units, right)
        assert _same_bytes(x.frame.left, labels[0])
        assert _same_bytes(x.frame.right, labels[1])
    assert x.dim == 0 and x.left_units.shape == (a.dim, 0, 0)


def test_canonical_dimension_count():
    a = MultiMatrixAlgebra((2, 3))
    b = MultiMatrixAlgebra((1, 2))
    mult = np.array([[1, 2], [0, 1]])
    x = canonical_bimodule(a, b, mult)
    assert x.dim == 2 * 1 * 1 + 2 * 2 * 2 + 3 * 1 * 2
    assert x.validate() < 1e-12
    assert np.array_equal(multiplicity_matrix(x), mult)


def test_canonical_random_basis_multiplicity_recovery():
    rng = np.random.default_rng(0)
    a = MultiMatrixAlgebra((2, 1))
    b = MultiMatrixAlgebra((2,))
    mult = np.array([[2], [1]])
    x = random_bim(rng, a.blocks, b.blocks, mult)
    assert x.validate() < 1e-10
    assert np.array_equal(multiplicity_matrix(x), mult)


def test_bad_actions_rejected():
    a = MultiMatrixAlgebra((2,))
    sf = standard_form(a).bimodule
    broken = sf.left_units.copy()
    broken[0] += 0.05
    with pytest.raises(NotABimoduleError):
        Bimodule(a, a, broken, sf.right_units)
    # the unitality threshold is 1e-8: a 5e-8 shift of the unit fails,
    # rounding-level noise passes
    slightly = sf.left_units.copy()
    slightly[0] += 5e-8
    with pytest.raises(NotABimoduleError, match="not unital"):
        Bimodule(a, a, slightly, sf.right_units)
    noisy = sf.left_units.copy()
    noisy[0] += 1e-12
    Bimodule(a, a, noisy, sf.right_units)


def test_a_multiplicity_that_is_no_integer_is_rejected():
    # named, not truncated to [[1, 0]], and NaN with no cast warning; an
    # integral float or a numpy integer is its int
    a, b = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((1, 2))
    for bad, named in (([[1.7, 0.4]], "1.7"), ([[1, np.nan]], "nan")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"multiplicity must be an integer, got {named}"):
                canonical_bimodule(a, b, bad)
    x = canonical_bimodule(a, b, [[2.0, np.int64(1)]])
    assert np.array_equal(multiplicity_matrix(x), [[2, 1]]) and x.dim == 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0], ids=["nan", "inf", "two"])
def test_a_basis_unitary_that_is_not_unitary_is_rejected(bad):
    # ||W^H W - 1||_F <= 1e-8 is checked on W itself, with no warning, also
    # for a non-finite entry, which the stacks W U W^H would carry on
    a = MultiMatrixAlgebra((2,))
    w = np.eye(a.dim, dtype=complex)
    w[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotABimoduleError, match="basis unitary is not unitary"):
            canonical_bimodule(a, a, [[1]], basis_unitary=w)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["left", "right"])
def test_given_stacks_with_a_non_finite_entry_are_rejected(side, bad):
    # an off-diagonal unit's entry leaves unitality finite, and validate's
    # SVD would not converge on it: the given stacks are checked entrywise
    a = MultiMatrixAlgebra((2,))
    sf = standard_form(a).bimodule
    units = {"left": sf.left_units, "right": sf.right_units}
    units[side][1, 0, 1] = bad
    with pytest.raises(NotABimoduleError, match=f"{side} action has non-finite"):
        Bimodule(a, a, units["left"], units["right"])


def test_unitality_bound_scales_with_the_largest_entry():
    # the unit defect is measured against 1e-8 times the largest entry of
    # either stack, floored at 1; e_01 acting 1e3 times as strongly leaves
    # the unit as it is and lifts the bound to 1e-5
    a = MultiMatrixAlgebra((2,))
    sf = standard_form(a).bimodule
    shift = np.eye(a.dim) / 2          # Frobenius norm 1
    for delta, unital in ((1e-6, True), (1e-4, False)):
        units = sf.left_units.copy()
        units[1] *= 1e3
        units[0] += delta * shift
        assert np.abs(units).max() == 1e3
        if unital:
            Bimodule(a, a, units, sf.right_units)
        else:
            with pytest.raises(NotABimoduleError, match="left action is not unital"):
                Bimodule(a, a, units, sf.right_units)
    # without the large entry, the same 1e-6 defect fails
    units = sf.left_units.copy()
    units[0] += 1e-6 * shift
    with pytest.raises(NotABimoduleError, match="left action is not unital"):
        Bimodule(a, a, units, sf.right_units)
    # and the right stack lifts the bound of the left one too
    units, right = sf.left_units.copy(), sf.right_units.copy()
    units[0] += 1e-6 * shift
    right[1] *= 1e3
    Bimodule(a, a, units, right)


def test_validate_reports_product_defect():
    a = MultiMatrixAlgebra((2,))
    sf = standard_form(a).bimodule
    # swap two off-diagonal units: unitality still holds, products break
    lu = sf.left_units.copy()
    lu[[1, 2]] = lu[[2, 1]]
    x = Bimodule(a, a, lu, sf.right_units)
    with pytest.raises(NotABimoduleError):
        x.validate()
    assert x.validate(tol=10.0) > 0.1


def test_hom_basis_schur():
    rng = np.random.default_rng(1)
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((1, 2))
    l2 = standard_form(b).bimodule
    assert len(hom_basis(l2, l2)) == len(b.blocks)
    x = random_bim(rng, a.blocks, b.blocks, np.array([[1, 1]]))
    y = random_bim(rng, a.blocks, b.blocks, np.array([[2, 0]]))
    # hom dim = sum over sectors of products of multiplicities
    assert len(hom_basis(x, y)) == 1 * 2 + 1 * 0
    for f in hom_basis(x, y):
        assert f.intertwiner_defect() < 1e-9


def test_intertwiner_defect_is_the_batched_spectral_norm():
    # the worst of ||T U_w - U'_w T|| over both sides' matrix units, bit for
    # bit np.linalg.norm(., 2) of each; 0 for an intertwiner's exact zeros
    rng = np.random.default_rng(4)
    x = random_bim(rng, (2,), (1, 2), np.array([[1, 2]]))
    y = random_bim(rng, (2,), (1, 2), np.array([[2, 1]]))
    for t in (crandn(rng, y.dim, x.dim), np.zeros((y.dim, x.dim))):
        want = max(np.linalg.norm(t @ getattr(x, side)[u]
                                  - getattr(y, side)[u] @ t, 2)
                   for side in ("left_units", "right_units")
                   for u in range(getattr(x, side).shape[0]))
        assert Morphism(x, y, t).intertwiner_defect() == want


def test_is_morphism_is_the_exact_rule():
    # random endomorphisms moved off by a relative 1e-10 to 1e-6, with
    # ||T|| below, near and above 1, against defect <= tol max(1, ||T||)
    # in operator norms
    rng = np.random.default_rng(21)
    verdicts = set()
    for seed in range(4):
        for x in generate(seed, Limits(min_mult=1)).bimodules[:2]:
            t = random_morphism_matrix(x, x, rng)
            h = crandn(rng, x.dim, x.dim)
            h *= np.linalg.norm(t) / np.linalg.norm(h)
            for rel in 10.0 ** np.arange(-10, -5.75, 0.25):
                for scale in (1e-3, 1.0, 1e3):
                    f = Morphism(x, x, scale * (t + rel * h))
                    want = (f.intertwiner_defect()
                            <= 1e-8 * max(1.0, op_norm(f.matrix)))
                    assert f.is_morphism() == want, (seed, rel, scale)
                    verdicts.add(want)
    assert verdicts == {True, False}


def test_is_morphism_takes_no_svd_when_the_frobenius_bound_decides(monkeypatch):
    # an intertwiner's defects are rounding, far below tol in the Frobenius
    # norm: no op_norm of the defects or of T, also for the three
    # endomorphisms a dense document loads
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    spec = generate(4, Limits(min_mult=1))
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for f in spec.morphisms:
        assert f.is_morphism()
        assert Morphism(f.source, f.target, 1e3 * f.matrix).is_morphism()
    assert len(load(save(spec)).morphisms) == 3


def test_morphism_compose_adjoint():
    rng = np.random.default_rng(2)
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((2, 1))
    x = random_bim(rng, a.blocks, b.blocks, np.array([[1, 2]]))
    f = Morphism(x, x, random_morphism_matrix(x, x, rng))
    g = Morphism(x, x, random_morphism_matrix(x, x, rng))
    assert f.is_morphism() and g.is_morphism()
    assert f.compose(g).is_morphism()
    assert f.adjoint().is_morphism()
    assert np.allclose(f.compose(g).matrix, f.matrix @ g.matrix)


def test_dual_bimodule_axioms_and_flip():
    rng = np.random.default_rng(3)
    a = MultiMatrixAlgebra((2, 1))
    b = MultiMatrixAlgebra((2,))
    x = random_bim(rng, a.blocks, b.blocks, np.array([[1], [1]]))
    xs = dual_bimodule(x)
    assert xs.left_algebra.blocks == b.blocks
    assert xs.right_algebra.blocks == a.blocks
    assert xs.validate() < 1e-10
    # multiplicity matrix transposes
    assert np.array_equal(multiplicity_matrix(xs), multiplicity_matrix(x).T)
    # action covariance: (a xi b)* = b* xi* a* in conjugate coordinates
    av = a.random_element(rng)
    bv = b.random_element(rng)
    xi = rng.standard_normal(x.dim) + 1j * rng.standard_normal(x.dim)
    moved = x.left_action(av) @ x.right_action(bv) @ xi
    lhs = dual_vector(moved)
    rhs = (xs.left_action(bv.adjoint()) @ xs.right_action(av.adjoint())
           @ dual_vector(xi))
    assert np.linalg.norm(lhs - rhs) < 1e-9


def test_double_dual_is_identity_data():
    rng = np.random.default_rng(4)
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((1, 1))
    x = random_bim(rng, a.blocks, b.blocks, np.array([[1, 1]]))
    xss = dual_bimodule(dual_bimodule(x))
    assert np.allclose(xss.left_units, x.left_units)
    assert np.allclose(xss.right_units, x.right_units)
    d = double_dual_iso(x)
    assert d.is_morphism()
    assert np.allclose(d.matrix, np.eye(x.dim))


def test_transpose_contravariant():
    rng = np.random.default_rng(5)
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((2,))
    x = random_bim(rng, a.blocks, b.blocks, np.array([[2]]))
    f = Morphism(x, x, random_morphism_matrix(x, x, rng))
    g = Morphism(x, x, random_morphism_matrix(x, x, rng))
    tf, tg = transpose(f), transpose(g)
    assert tf.is_morphism()
    assert np.allclose(transpose(f.compose(g)).matrix,
                       tg.compose(tf).matrix)
    # transpose of adjoint = adjoint of transpose
    assert np.allclose(transpose(f.adjoint()).matrix, tf.adjoint().matrix)


def test_matrix_extension():
    rng = np.random.default_rng(6)
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((1, 2))
    x = random_bim(rng, a.blocks, b.blocks, np.array([[1, 1]]))
    ext = matrix_extension(x, 2, 3)
    assert ext.dim == 2 * 3 * x.dim
    assert ext.left_algebra.blocks == (4,)
    assert ext.right_algebra.blocks == (3, 6)
    assert ext.validate() < 1e-10


def _explicit(x):
    """X given by copies of its stacks, so that its frame is found from them."""
    return Bimodule(x.left_algebra, x.right_algebra, x.left_units.copy(),
                    x.right_units.copy())


def _hom_inputs():
    """Pairs (X, Y) over the same algebras, seeds 0-3 at two limits.

    Canonical models, X given by its stacks, their duals, a canonical
    model with other multiplicities, and X ltimes Y against X rtimes Y.
    """
    pairs = []
    for limits in (None, Limits(min_mult=1)):
        for seed in range(4):
            x, y = generate(seed, limits).bimodules[:2]
            rng = np.random.default_rng(seed)
            other = random_bimodule(x.left_algebra, x.right_algebra, rng,
                                    Limits(max_mult=2, max_dim=12))
            stacks = _explicit(x)
            xs, ss = dual_bimodule(x), dual_bimodule(stacks)
            pairs += [(x, x), (x, stacks), (stacks, stacks), (other, x),
                      (stacks, other), (xs, ss), (ss, xs),
                      (tensor_left(x, y).result, tensor_right(x, y).result),
                      (tensor_right(stacks, y).result,
                       tensor_right(stacks, y).result)]
    return pairs


def test_hom_basis_is_the_null_space_oracle():
    # read off the frames: as many maps as the oracle finds, orthonormal in
    # the Hilbert-Schmidt inner product, each an intertwiner, spanning the
    # same space
    counts = set()
    for x, y in _hom_inputs():
        got, want = hom_basis(x, y), hom_null_space(x, y)
        assert np.array_equal(multiplicity_matrix(x), multiplicity_traces(x))
        assert len(got) == len(want) == (
            multiplicity_matrix(x) * multiplicity_matrix(y)).sum()
        counts.add(len(got))
        if not got:
            continue
        g = np.stack([f.matrix.ravel() for f in got], axis=1)
        o = np.stack([f.matrix.ravel() for f in want], axis=1)
        assert np.linalg.norm(g.conj().T @ g - np.eye(len(got))) <= 1e-12
        assert np.linalg.norm(g @ g.conj().T - o @ o.conj().T) <= 1e-12
        assert max(f.intertwiner_defect() for f in got) <= 1e-12
    assert 0 in counts and max(counts) > 1


def test_random_morphism_matches_hom_basis_span():
    # a random intertwiner lies in the oracle's Hom(X, Y), also for stacks,
    # duals and product results
    rng = np.random.default_rng(7)
    for x, y in _hom_inputs():
        m = random_morphism_matrix(x, y, rng)
        assert Morphism(x, y, m).intertwiner_defect() <= 1e-12 * max(1.0, op_norm(m))
        want = hom_null_space(x, y)
        if not want:
            assert not m.any()
            continue
        o = np.stack([f.matrix.ravel() for f in want], axis=1)
        assert np.linalg.norm(m.ravel() - o @ (o.conj().T @ m.ravel())) \
            <= 1e-12 * max(1.0, np.linalg.norm(m))


def test_random_morphism_draws_one_block_per_pair_of_blocks():
    # crandn(mu_Y, mu_X) per pair of blocks that both populate, row-major,
    # placed as 1 (x) T (x) 1 in the canonical coordinates (i, s, j)
    a, b = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((1, 2))
    x = canonical_bimodule(a, b, np.array([[1, 2], [0, 1]]))
    y = canonical_bimodule(a, b, np.array([[2, 1], [1, 0]]))
    got = random_morphism_matrix(x, y, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    blocks = []
    for k, l, (mx, my) in [(0, 0, (1, 2)), (0, 1, (2, 1))]:
        n, m = a.blocks[k], b.blocks[l]
        blocks.append(np.kron(np.kron(np.eye(n), crandn(rng, my, mx)), np.eye(m)))
    want = np.zeros((y.dim, x.dim), dtype=complex)
    # X's sectors (0, 0), (0, 1), (1, 1) have sizes 2, 8, 2; Y's (0, 0),
    # (0, 1), (1, 0) have sizes 4, 4, 1
    want[0:4, 0:2], want[4:8, 2:10] = blocks
    assert np.array_equal(got, want)


def test_an_endomorphism_draw_reads_the_corner_table_once(monkeypatch):
    # X -> X reads X's corner columns once, X -> Y each side's; the draws
    # are the same, in the same order, as those of a copy of X
    reads = []
    real = bimodule_module._corner_columns

    def counted(x):
        reads.append(x)
        return real(x)
    monkeypatch.setattr(bimodule_module, "_corner_columns", counted)
    rng = np.random.default_rng(5)
    x = random_bim(rng, (2, 1), (1, 2), np.array([[1, 2], [0, 1]]))
    twin = canonical_bimodule(x.left_algebra, x.right_algebra, *x.canonical)
    got = random_morphism_matrix(x, x, np.random.default_rng(8))
    assert reads == [x]
    assert np.array_equal(got, random_morphism_matrix(x, twin,
                                                      np.random.default_rng(8)))
    assert reads == [x, x, twin]


def test_a_suite_on_explicit_stacks_runs_no_eigensolver(monkeypatch):
    # the naturality draws read Hom off the frames, which the stacks give
    # by Gram-Schmidt: no eigh runs, and every check passes
    spec = generate(0, Limits(min_mult=1, max_mult=2))
    chain = tuple(_explicit(x) for x in spec.bimodules)
    spec = load(save(InstanceSpec(
        spec.seed, spec.limits, spec.algebras, chain,
        tuple(Morphism(chain[i], chain[i], f.matrix)
              for i, f in enumerate(spec.morphisms)))))
    assert all(x.canonical is None for x in spec.bimodules)
    calls, eigh = [], np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    report = run_suite(spec)
    assert report["summary"]["passed"] == report["summary"]["total"] > 0
    assert calls == []
    # the spy sees the oracle's call
    hom_null_space(spec.bimodules[0], spec.bimodules[0])
    assert len(calls) == 1


def _framed_inputs():
    """Bimodules whose frames the library knows, with a zero row and dimension 0.

    Chain bimodules of seeds 0-3 at two limits and the ltimes result of
    each chain's first two; a model whose multiplicity matrix has a zero
    row and column, in a random basis; and a model of dimension 0.
    """
    inputs = []
    for limits in (None, Limits(min_mult=1)):
        for seed in range(4):
            x, y = generate(seed, limits).bimodules[:2]
            inputs += [x, tensor_left(x, y).result]
    a, b = MultiMatrixAlgebra((2, 1, 3)), MultiMatrixAlgebra((1, 2))
    mult = np.array([[0, 0], [2, 0], [1, 3]])
    inputs.append(random_bim(np.random.default_rng(11), a.blocks, b.blocks, mult))
    inputs.append(canonical_bimodule(a, b, np.zeros((3, 2), dtype=int)))
    return inputs


def _stacks(x):
    return x.left_units, x.right_units


def test_duals_and_extensions_read_their_stacks_off_the_frames(monkeypatch):
    # a dual's stacks are its original's, conjugated and permuted: equal in
    # value for a canonical or a result original, within 1e-12 for one
    # given by its stacks; an extension's are the Kronecker products of its
    # original's within 1e-14 (measured 2.2e-16), and its frame, 1 (x) W,
    # is made without pivoted Gram-Schmidt
    calls, range_basis = [], bimodule_module.range_basis

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return range_basis(*args, **kwargs)
    monkeypatch.setattr(bimodule_module, "range_basis", counted)
    inputs = _framed_inputs()
    assert inputs[-1].dim == 0
    for x in inputs:
        for got, want in zip(_stacks(dual_bimodule(x)), dual_stacks(x)):
            assert np.array_equal(got, want)
        for ni, nj in ((1, 1), (2, 1), (1, 2), (2, 3)):
            ext = matrix_extension(x, ni, nj)
            assert np.array_equal(multiplicity_matrix(ext),
                                  multiplicity_matrix(x))
            for got, want in zip(_stacks(ext), kronecker_extension(x, ni, nj)):
                assert np.abs(got - want).max(initial=0.0) <= 1e-14
    assert calls == []
    for x in inputs[:-2:2]:
        explicit = _explicit(x)
        for got, want in zip(_stacks(dual_bimodule(explicit)),
                             dual_stacks(explicit)):
            assert np.abs(got - want).max(initial=0.0) <= 1e-12


def test_a_deferred_frame_is_built_once():
    # a dual's frame is its original's, conjugated, made with the dual; a
    # frame from stacks is found on its first read and kept
    x = generate(0).bimodules[0]
    for original in (x, _explicit(x)):
        with product_store():
            xs = dual_bimodule(original)
            assert xs.frame is xs.frame
            assert original.frame is original.frame
            assert np.array_equal(xs.frame.left, original.frame.right)


def test_a_stack_frame_is_found_once_in_and_out_of_stores(monkeypatch):
    # the frame of a bimodule given by its stacks is kept on the bimodule:
    # read in two product stores, through a product and a dual, and outside
    # any store, range_basis runs once per pair of blocks in all
    x = _explicit(generate(1, Limits(min_mult=1)).bimodules[1])
    calls, range_basis = [], bimodule_module.range_basis

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return range_basis(*args, **kwargs)
    monkeypatch.setattr(bimodule_module, "range_basis", counted)
    frames = []
    for _ in range(2):
        with product_store():
            frames.append(x.frame)
            dual_bimodule(x)
            tensor_left(x, standard_form(x.right_algebra).bimodule)
    frames.append(x.frame)
    assert len(calls) == len(x.left_algebra.blocks) * len(x.right_algebra.blocks)
    assert all(frame is frames[0] for frame in frames)
    for arr in frames[0]:
        assert not arr.flags.writeable
