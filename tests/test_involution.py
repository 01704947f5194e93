import importlib

import numpy as np
import pytest

from bimodcat.algebra import MultiMatrixAlgebra, standard_form
from bimodcat.bimodule import (Bimodule, Morphism, _diag_unit_indices,
                               canonical_bimodule, dual_bimodule, dual_vector,
                               random_morphism_matrix, transpose)
from bimodcat.instances import Limits, generate
from bimodcat.involution import conjugation, conjugation_mixed
from bimodcat.linalg import op_norm, random_unitary
from bimodcat.store import product_store
from bimodcat.tensor import (KIND_LEFT, KIND_RIGHT, m_iso, tensor,
                             tensor_left, tensor_morphisms, tensor_right)
from oracles import bounded, quotient, sector_bases, transpose_on_product

# the modules, not the functions the package re-exports
tensor_module = importlib.import_module("bimodcat.tensor")
bimodule_module = importlib.import_module("bimodcat.bimodule")

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


def test_conjugation_takes_its_products_from_the_store():
    # the source is the stored product of the stored duals; the duals are
    # taken inside the store, since one built before it is another object
    rng = np.random.default_rng(8)
    x, y = _pair(rng)
    for kind in KINDS:
        with product_store():
            c = conjugation(kind, x, y)
            tp_dual = tensor(kind, dual_bimodule(y), dual_bimodule(x))
            assert c.source is tp_dual.result
            assert c.target is dual_bimodule(tensor(kind, x, y).result)
        assert np.array_equal(c.matrix, conjugation(kind, x, y).matrix)


def test_m_iso_builds_no_product_in_the_store(monkeypatch):
    rng = np.random.default_rng(9)
    x, y = _pair(rng)
    builds = []
    build = tensor_module._tensor_product

    def counted(*args):
        builds.append(args[0])
        return build(*args)
    monkeypatch.setattr(tensor_module, "_tensor_product", counted)
    with product_store():
        tensor_left(x, y)
        tensor_right(x, y)
        assert builds == [KIND_LEFT, KIND_RIGHT]
        m = m_iso(x, y)
        assert builds == [KIND_LEFT, KIND_RIGHT]
    assert np.array_equal(m, m_iso(x, y))


def test_mixed_defining_relation_on_spanning_tensors():
    # c maps eta-bar (x) x-star to the conjugate of the class of x (x) eta
    rng = np.random.default_rng(3)
    x, y = _pair(rng)
    xstar, ystar = dual_bimodule(x), dual_bimodule(y)
    tp_left = tensor_left(x, y)
    tp_dual = tensor_right(ystar, xstar)
    c = conjugation_mixed(x, y)
    frame = bounded(tp_left)
    star_coeff = bounded(tp_dual).expand(np.conj(frame.vectors))
    q_left, q_dual = quotient(tp_left), quotient(tp_dual)
    for i in range(frame.size):
        coeff = np.eye(frame.size)[:, i]
        for _ in range(3):
            eta = rng.standard_normal(y.dim) + 1j * rng.standard_normal(y.dim)
            lhs = c.matrix @ q_dual @ np.kron(dual_vector(eta), star_coeff[:, i])
            rhs = np.conj(q_left @ np.kron(coeff, eta))
            assert np.linalg.norm(lhs - rhs) < 1e-9 * max(
                1.0, np.linalg.norm(rhs))


def test_theorem_intertwining_between_kinds():
    # c_rtimes o m_{Y*,X*} = (transpose m_{X,Y})^{-1} o c_ltimes
    rng = np.random.default_rng(4)
    x, y = _pair(rng)
    xstar, ystar = dual_bimodule(x), dual_bimodule(y)
    c_l, c_r = conjugation(KIND_LEFT, x, y), conjugation(KIND_RIGHT, x, y)
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
    tf = transpose(f)
    tg = transpose(g)
    for kind in KINDS:
        tp = tensor(kind, x, y)
        tp_dual = tensor(kind, ystar, xstar)
        c = conjugation(kind, x, y)
        fg = Morphism(tp.result, tp.result,
                      tensor_morphisms(tp, tp, f.matrix, g.matrix))
        conj_fg = transpose_on_product(fg, c, c)
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


# -- c read off the members ---------------------------------------------------

def _chains():
    """Seeds 0-7 at the default limits, at min_mult 1 and with max_mult 2 too."""
    return [generate(seed, limits) for limits in (
        None, Limits(min_mult=1), Limits(min_mult=1, max_mult=2))
        for seed in range(8)]


def test_dual_sector_bases_are_the_conjugates_bit_for_bit():
    # X*'s right action of p is X's left action of p, conjugated, and
    # range_basis(conj P) is conj(range_basis(P))
    for spec in _chains():
        for x in spec.bimodules:
            xs = dual_bimodule(x)
            for kind in KINDS:
                for side, other in (("left", "right"), ("right", "left")):
                    got = sector_bases(xs, side, kind)
                    want = sector_bases(x, other, kind)
                    assert len(got) == len(want)
                    for c, d in zip(got, want):
                        assert np.array_equal(c, d.conj())


def test_read_off_sector_bases_span_the_sector_projections():
    # every basis selected from a frame, against the stacks: V^H V = 1 and
    # V V^H = P for the action P of p; each frame column is fixed by the
    # diagonal units its labels name and sent to 0 by the others; and every
    # frame is adapted: on each pair of blocks (k, l), the columns of the
    # corner (i, j) are L(e_i0) R(e_0j) applied to those of the corner (0, 0)
    checked = set()
    adapted = 0
    for spec in _chains():
        with product_store():
            x, y, z = spec.bimodules[:3]
            l2 = standard_form(x.right_algebra).bimodule
            stacks = Bimodule(x.left_algebra, x.right_algebra,
                              x.left_units.copy(), x.right_units.copy())
            serve = [x, l2, dual_bimodule(x), stacks, dual_bimodule(stacks)]
            for kind in KINDS:
                other = KIND_RIGHT if kind == KIND_LEFT else KIND_LEFT
                xy = tensor(kind, x, y).result
                serve += [xy, dual_bimodule(xy),
                          tensor(other, xy, z).result,
                          tensor(kind, x, tensor(kind, y, z).result).result,
                          tensor(kind, l2, y).result,
                          tensor(kind, stacks, y).result,
                          tensor(kind, dual_bimodule(y), dual_bimodule(x)).result]
            for bim in serve:
                frame = bim.frame
                w = np.eye(bim.dim) if frame.w is None else frame.w
                for alg, units, labels in (
                        (bim.left_algebra, bim.left_units, frame.left),
                        (bim.right_algebra, bim.right_units, frame.right)):
                    diag = units[_diag_unit_indices(alg)]
                    named = np.arange(len(diag))[:, None] == labels
                    assert np.linalg.norm(
                        diag @ w - named[:, None, :] * w) <= 1e-12
                a, b = bim.left_algebra, bim.right_algebra
                for (k, l), cols in zip(
                        np.ndindex(len(a.blocks), len(b.blocks)),
                        bimodule_module._corner_columns(bim)):
                    first = w[:, cols[0, 0]]
                    for i, j in np.ndindex(cols.shape[:2]):
                        moved = (bim.left_units[a.offsets[k] + i * a.blocks[k]]
                                 @ bim.right_units[b.offsets[l] + j] @ first)
                        assert np.linalg.norm(w[:, cols[i, j]] - moved) <= 1e-12
                        adapted += cols.size > 0 and (i, j) != (0, 0)
                for kind in KINDS:
                    for side in ("left", "right"):
                        alg, units = ((bim.left_algebra, bim.left_units)
                                      if side == "left" else
                                      (bim.right_algebra, bim.right_units))
                        got = sector_bases(bim, side, kind)
                        assert len(got) == len(alg.blocks)
                        for v, off, n in zip(got, alg.offsets, alg.blocks):
                            pos = 0 if kind == KIND_LEFT else n - 1
                            proj = units[off + pos * (n + 1)]
                            assert np.linalg.norm(
                                v.conj().T @ v - np.eye(v.shape[1])) <= 1e-12
                            assert np.linalg.norm(v @ v.conj().T - proj) <= 1e-12
                            checked.add(v.shape[1] > 0)
    assert checked == {False, True}
    assert adapted


def test_conjugation_is_the_permutation_derived_through_m():
    # c is a 0/1 permutation matrix and equals its derivation from the mixed
    # c: Y* ltimes X* -> Y* rtimes X* by m, then the mixed c; or the mixed
    # c, then (X ltimes Y)* -> (X rtimes Y)* by the conjugate of m
    compared = 0
    for spec in _chains():
        with product_store():
            for x, y in zip(spec.bimodules, spec.bimodules[1:]):
                mixed = conjugation_mixed(x, y).matrix
                want = {KIND_LEFT: mixed @ m_iso(dual_bimodule(y), dual_bimodule(x)),
                        KIND_RIGHT: m_iso(x, y).conj() @ mixed}
                for kind in KINDS:
                    got = conjugation(kind, x, y).matrix
                    assert np.isin(got, (0.0, 1.0)).all()
                    assert (got.sum(axis=0) == 1).all()
                    assert (got.sum(axis=1) == 1).all()
                    assert got.shape == want[kind].shape
                    assert np.abs(got - want[kind]).max(initial=0.0) <= 1e-14
                    compared += got.size > 1
    assert compared
