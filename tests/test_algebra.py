import numpy as np
import pytest

from bimodcat.algebra import (MultiMatrixAlgebra, NormalFunctional,
                              NotPositiveError, amplified_element,
                              amplify_algebra, gns_vector, standard_form,
                              support_projection)


def test_dims_and_offsets():
    a = MultiMatrixAlgebra((2, 3, 1))
    assert a.matrix_dim == 6
    assert a.dim == 4 + 9 + 1
    assert a.offsets == (0, 4, 13)
    assert len(a.unit_positions()) == a.dim


def test_equal_block_tuples_share_one_read_only_table():
    a, b = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((2, 1))
    assert a is not b
    assert a.diagonal is b.diagonal
    assert a.offsets is b.offsets
    for column in a.diagonal:
        assert not column.flags.writeable
    assert np.array_equal(a.diagonal.unit, [0, 3, 4])
    assert np.array_equal(a.diagonal.first, [0, 2, 3])
    assert MultiMatrixAlgebra((1, 2)).diagonal is not a.diagonal


def test_invalid_blocks():
    with pytest.raises(ValueError):
        MultiMatrixAlgebra(())
    with pytest.raises(ValueError):
        MultiMatrixAlgebra((2, 0))


def test_element_arithmetic():
    rng = np.random.default_rng(0)
    a = MultiMatrixAlgebra((2, 3))
    x = a.random_element(rng)
    y = a.random_element(rng)
    assert ((x + y) - y).allclose(x, tol=1e-12)
    assert (2.0 * x - x).allclose(x, tol=1e-12)
    # adjoint is involutive and antimultiplicative
    assert (x @ y).adjoint().allclose(y.adjoint() @ x.adjoint(), tol=1e-12)
    assert x.adjoint().adjoint().allclose(x, tol=1e-12)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(1)
    a = MultiMatrixAlgebra((1, 2, 2))
    for _ in range(5):
        x = a.random_element(rng)
        assert a.unvec(x.vec).allclose(x, tol=0.0)
    v = rng.standard_normal(a.dim) + 0j
    assert np.allclose(a.unvec(v).vec, v)


def test_adjoint_perm_matches_adjoint():
    a = MultiMatrixAlgebra((2, 3))
    rng = np.random.default_rng(2)
    perm = a.adjoint_perm()
    x = a.random_element(rng)
    assert np.allclose(np.conj(x.vec[perm]), x.adjoint().vec)
    assert np.array_equal(perm[perm], np.arange(a.dim))


def test_functional_positivity_enforced():
    a = MultiMatrixAlgebra((2,))
    good = a.element([np.array([[1.0, 0], [0, 0.5]])])
    NormalFunctional(a, good)
    bad = a.element([np.array([[1.0, 0], [0, -0.5]])])
    with pytest.raises(NotPositiveError):
        NormalFunctional(a, bad)
    nonherm = a.element([np.array([[0.0, 1.0], [0, 0]])])
    with pytest.raises(NotPositiveError):
        NormalFunctional(a, nonherm)


def test_standard_form_is_bimodule():
    for blocks in [(1,), (2,), (2, 3), (1, 1, 2)]:
        sf = standard_form(MultiMatrixAlgebra(blocks))
        assert sf.bimodule.validate() < 1e-12
        assert sf.dim == sf.algebra.dim


def test_standard_form_is_built_once_and_read_only():
    sf = standard_form(MultiMatrixAlgebra((1, 2)))
    assert standard_form(MultiMatrixAlgebra((1, 2))) is sf
    # every product with L2 reads its frame labels
    for labels in (sf.bimodule.frame.left, sf.bimodule.frame.right):
        with pytest.raises(ValueError):
            labels[0] = 1


def test_sharp_is_star():
    a = MultiMatrixAlgebra((2, 2))
    sf = standard_form(a)
    rng = np.random.default_rng(3)
    x = a.random_element(rng)
    assert np.allclose(sf.sharp(x.vec), x.adjoint().vec)
    perm = sf.sharp_perm()
    assert np.allclose(perm[perm], np.arange(a.dim))
    # sharp covariance: (a x b)* = b* x* a*
    b = a.random_element(rng)
    c = a.random_element(rng)
    lhs = sf.sharp(sf.bimodule.left_action(b) @ sf.bimodule.right_action(c) @ x.vec)
    rhs = (sf.bimodule.left_action(c.adjoint())
           @ sf.bimodule.right_action(b.adjoint()) @ sf.sharp(x.vec))
    assert np.allclose(lhs, rhs)


def test_gns_vector_reproduces_functional():
    rng = np.random.default_rng(4)
    a = MultiMatrixAlgebra((2, 3))
    sf = standard_form(a)
    for _ in range(5):
        phi = NormalFunctional(a, a.random_positive(rng))
        v = gns_vector(phi)
        x = a.random_element(rng)
        # <phi^(1/2), x . phi^(1/2)> = phi(x)
        got = np.vdot(v, sf.bimodule.left_action(x) @ v)
        assert abs(got - phi(x)) < 1e-9 * max(1.0, abs(phi(x)))


def test_support_projection():
    rng = np.random.default_rng(5)
    a = MultiMatrixAlgebra((3, 2))
    rho = a.random_positive(rng)
    # make one block rank deficient
    blocks = [b.copy() for b in rho.data]
    w, v = np.linalg.eigh(blocks[0])
    w[0] = 0.0
    blocks[0] = (v * w) @ v.conj().T
    phi = NormalFunctional(a, a.element(blocks))
    p = support_projection(phi)
    assert (p @ p).allclose(p, tol=1e-9)
    assert p.adjoint().allclose(p, tol=1e-9)
    rho_e = phi.density
    assert (p @ rho_e @ p).allclose(rho_e, tol=1e-9)
    assert abs(np.trace(p.data[0]) - 2.0) < 1e-9


def test_amplification():
    a = MultiMatrixAlgebra((2, 1))
    big = amplify_algebra(a, 3)
    assert big.blocks == (6, 3)
    rng = np.random.default_rng(6)
    entries = [[a.random_element(rng) for _ in range(2)] for _ in range(2)]
    m = amplified_element(a, 2, entries)
    # multiplication of amplified elements matches matrix multiplication over A
    entries2 = [[a.random_element(rng) for _ in range(2)] for _ in range(2)]
    m2 = amplified_element(a, 2, entries2)
    prod = [[entries[i][0] @ entries2[0][j] + entries[i][1] @ entries2[1][j]
             for j in range(2)] for i in range(2)]
    assert (m @ m2).allclose(amplified_element(a, 2, prod), tol=1e-9)
