import numpy as np
import pytest

from bimodcat.algebra import MultiMatrixAlgebra, standard_form
from bimodcat.bimodule import (Bimodule, Morphism, NotABimoduleError,
                               canonical_bimodule, double_dual_iso,
                               dual_bimodule, dual_vector, hom_basis,
                               matrix_extension, multiplicity_matrix,
                               random_morphism_matrix, transpose)
from bimodcat.instances import Limits, generate
from bimodcat.linalg import op_norm, random_unitary
from oracles import canonical_units


def _random_bim(rng, a, b, mult):
    d = sum(n * int(np.asarray(mult)[k, l]) * m
            for k, n in enumerate(a.blocks) for l, m in enumerate(b.blocks))
    return canonical_bimodule(a, b, mult, basis_unitary=random_unitary(rng, d))


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
    x = _random_bim(rng, a, b, mult)
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
    x = _random_bim(rng, a, b, np.array([[1, 1]]))
    y = _random_bim(rng, a, b, np.array([[2, 0]]))
    # hom dim = sum over sectors of products of multiplicities
    assert len(hom_basis(x, y)) == 1 * 2 + 1 * 0
    for f in hom_basis(x, y):
        assert f.intertwiner_defect() < 1e-9


def test_morphism_compose_adjoint():
    rng = np.random.default_rng(2)
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((2, 1))
    x = _random_bim(rng, a, b, np.array([[1, 2]]))
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
    x = _random_bim(rng, a, b, np.array([[1], [1]]))
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
    x = _random_bim(rng, a, b, np.array([[1, 1]]))
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
    x = _random_bim(rng, a, b, np.array([[2]]))
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
    x = _random_bim(rng, a, b, np.array([[1, 1]]))
    ext = matrix_extension(x, 2, 3)
    assert ext.dim == 2 * 3 * x.dim
    assert ext.left_algebra.blocks == (4,)
    assert ext.right_algebra.blocks == (3, 6)
    assert ext.validate() < 1e-10


def test_random_morphism_matches_hom_basis_span():
    rng = np.random.default_rng(7)
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((2,))
    x = _random_bim(rng, a, b, np.array([[2]]))
    basis = hom_basis(x, x)
    m = random_morphism_matrix(x, x, rng)
    assert Morphism(x, x, m).is_morphism()
    # m lies in the span of the hom basis
    flat = np.stack([f.matrix.ravel() for f in basis], axis=1)
    coeff, *_ = np.linalg.lstsq(flat, m.ravel(), rcond=None)
    assert np.linalg.norm(flat @ coeff - m.ravel()) < 1e-9 * max(1.0, op_norm(m))
