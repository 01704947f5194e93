import numpy as np
import pytest

from bimodcat.algebra import MultiMatrixAlgebra
from bimodcat.bimodule import (Morphism, canonical_bimodule, dual_bimodule,
                               dual_vector, random_morphism_matrix, transpose)
from bimodcat.bounded import star_bounded
from bimodcat.involution import (conjugation, conjugation_mixed,
                                 conjugation_pair, transpose_on_product)
from bimodcat.linalg import op_norm, random_unitary
from bimodcat.tensor import (KIND_LEFT, KIND_RIGHT, m_iso, tensor,
                             tensor_left, tensor_morphisms, tensor_right)

KINDS = (KIND_LEFT, KIND_RIGHT)


def _bim(rng, a_blocks, b_blocks, mult):
    a = MultiMatrixAlgebra(a_blocks)
    b = MultiMatrixAlgebra(b_blocks)
    mult = np.asarray(mult)
    d = sum(n * int(mult[k, l]) * m
            for k, n in enumerate(a.blocks) for l, m in enumerate(b.blocks))
    return canonical_bimodule(a, b, mult, basis_unitary=random_unitary(rng, d))


def _pair(rng):
    x = _bim(rng, (2,), (1, 2), [[1, 1]])
    y = _bim(rng, (1, 2), (2,), [[1], [1]])
    return x, y


def test_conjugation_mixed_unitary_morphism():
    rng = np.random.default_rng(0)
    x, y = _pair(rng)
    c = conjugation_mixed(x, y)
    assert c.is_morphism()
    assert c.unitary_defect() < 1e-9


def test_conjugation_both_kinds_unitary_morphisms():
    rng = np.random.default_rng(1)
    x, y = _pair(rng)
    for kind in KINDS:
        c = conjugation(kind, x, y)
        assert c.is_morphism()
        assert c.unitary_defect() < 1e-9
        assert c.source.left_algebra.blocks == y.right_algebra.blocks
        assert c.target.right_algebra.blocks == x.left_algebra.blocks


def test_conjugation_takes_the_duals_from_tp_dual():
    # the duals are tp_dual's factors; built afresh, they give the same bits
    rng = np.random.default_rng(8)
    x, y = _pair(rng)
    xstar, ystar = dual_bimodule(x), dual_bimodule(y)
    for kind in KINDS:
        tp_dual = tensor(kind, ystar, xstar)
        c = conjugation(kind, x, y, tp=tensor(kind, x, y), tp_dual=tp_dual)
        assert c.source is tp_dual.result
        assert np.array_equal(c.matrix, conjugation(kind, x, y).matrix)


def test_conjugation_pair_matches_single_builds():
    rng = np.random.default_rng(2)
    x, y = _pair(rng)
    c_l, c_r = conjugation_pair(x, y)
    assert op_norm(c_l.matrix - conjugation(KIND_LEFT, x, y).matrix) < 1e-10
    assert op_norm(c_r.matrix - conjugation(KIND_RIGHT, x, y).matrix) < 1e-10


def test_mixed_defining_relation_on_spanning_tensors():
    # c maps eta-bar (x) x-star to the conjugate of the class of x (x) eta
    rng = np.random.default_rng(3)
    x, y = _pair(rng)
    xstar, ystar = dual_bimodule(x), dual_bimodule(y)
    tp_left = tensor_left(x, y)
    tp_dual = tensor_right(ystar, xstar)
    c = conjugation_mixed(x, y, tp_left=tp_left, tp_dual=tp_dual,
                          xstar=xstar, ystar=ystar)
    star_coeff = tp_dual.bounded.expand(np.conj(tp_left.bounded.vectors))
    for i in range(tp_left.bounded.size):
        coeff = np.eye(tp_left.bounded.size)[:, i]
        for _ in range(3):
            eta = rng.standard_normal(y.dim) + 1j * rng.standard_normal(y.dim)
            lhs = c.matrix @ tp_dual.class_coords(dual_vector(eta),
                                                  star_coeff[:, i])
            rhs = np.conj(tp_left.class_coords(coeff, eta))
            assert np.linalg.norm(lhs - rhs) < 1e-9 * max(
                1.0, np.linalg.norm(rhs))


def test_theorem_intertwining_between_kinds():
    # c_rtimes o m_{Y*,X*} = (transpose m_{X,Y})^{-1} o c_ltimes
    rng = np.random.default_rng(4)
    x, y = _pair(rng)
    xstar, ystar = dual_bimodule(x), dual_bimodule(y)
    c_l, c_r = conjugation_pair(x, y)
    m_dual = m_iso(ystar, xstar)
    m = m_iso(x, y)
    lhs = c_r.matrix @ m_dual
    rhs = np.linalg.solve(m.T, c_l.matrix)
    assert op_norm(lhs - rhs) < 1e-9


def test_transpose_on_product_naturality():
    # on f (x) g the conjugated morphism is (transpose g) (x) (transpose f)
    rng = np.random.default_rng(5)
    x = _bim(rng, (2,), (2,), [[2]])
    y = _bim(rng, (2,), (1, 1), [[1, 1]])
    f = Morphism(x, x, random_morphism_matrix(x, x, rng))
    g = Morphism(y, y, random_morphism_matrix(y, y, rng))
    xstar, ystar = dual_bimodule(x), dual_bimodule(y)
    tf = transpose(f, source_dual=xstar, target_dual=xstar)
    tg = transpose(g, source_dual=ystar, target_dual=ystar)
    for kind in KINDS:
        tp = tensor(kind, x, y)
        tp_dual = tensor(kind, ystar, xstar)
        c = conjugation(kind, x, y, tp=tp, tp_dual=tp_dual)
        fg = Morphism(tp.result, tp.result,
                      tensor_morphisms(tp, tp, f.matrix, g.matrix))
        conj_fg = transpose_on_product(kind, x, y, fg, c, c)
        expect = tensor_morphisms(tp_dual, tp_dual, tg.matrix, tf.matrix)
        assert op_norm(conj_fg.matrix - expect) < 1e-8 * max(
            1.0, op_norm(expect))
        assert conj_fg.is_morphism()


def test_one_dimensional_case_is_scalar_phase():
    rng = np.random.default_rng(6)
    row = _bim(rng, (1,), (2,), [[1]])
    col = _bim(rng, (2,), (1,), [[1]])
    for kind in KINDS:
        c = conjugation(kind, row, col)
        assert c.matrix.shape == (1, 1)
        assert abs(abs(c.matrix[0, 0]) - 1.0) < 1e-10
        assert c.is_morphism()


def test_conjugation_rejects_unknown_kind():
    rng = np.random.default_rng(7)
    x, y = _pair(rng)
    with pytest.raises(ValueError):
        conjugation("middle", x, y)
