import importlib
from types import SimpleNamespace

import numpy as np
import pytest

from bimodcat.algebra import MultiMatrixAlgebra, standard_form
from bimodcat.bimodule import (Morphism, canonical_bimodule, matrix_extension,
                               multiplicity_matrix, random_morphism_matrix)
from bimodcat.bounded import (left_projective_realization,
                              right_projective_realization)
from bimodcat.coherence import run_suite
from bimodcat.instances import generate
from bimodcat.linalg import RANK_EPS, op_norm, psd_eig, psd_inv_sqrt, random_unitary
from bimodcat.tensor import (KIND_LEFT, KIND_RIGHT, WellDefinednessError,
                             _gram_scale, _gram_seminorm, _quotient_from_gram,
                             _standard_images, associator,
                             induced_map, left_unitor, m_iso, m_standard,
                             morphism_tensor, right_unitor, tensor, tensor_left,
                             tensor_matrix_extension_iso, tensor_morphisms,
                             tensor_right, unit_isos)

KINDS = (KIND_LEFT, KIND_RIGHT)


def _bim(rng, a_blocks, b_blocks, mult):
    a = MultiMatrixAlgebra(a_blocks)
    b = MultiMatrixAlgebra(b_blocks)
    mult = np.asarray(mult)
    d = sum(n * int(mult[k, l]) * m
            for k, n in enumerate(a.blocks) for l, m in enumerate(b.blocks))
    return canonical_bimodule(a, b, mult, basis_unitary=random_unitary(rng, d))


def test_middle_algebra_mismatch():
    rng = np.random.default_rng(0)
    x = _bim(rng, (2,), (2,), [[1]])
    y = _bim(rng, (3,), (2,), [[1]])
    for kind in KINDS:
        with pytest.raises(ValueError):
            tensor(kind, x, y)


def test_row_times_column_is_one_dimensional():
    # C^2 as a C-M2 bimodule tensored with C^2 as M2-C: one-dimensional result
    rng = np.random.default_rng(1)
    row = _bim(rng, (1,), (2,), [[1]])
    col = _bim(rng, (2,), (1,), [[1]])
    for kind in KINDS:
        tp = tensor(kind, row, col)
        assert tp.dim == 1
        assert tp.result.validate() < 1e-10


def test_multiplicity_matrices_multiply():
    rng = np.random.default_rng(2)
    x = _bim(rng, (2, 1), (1, 2), [[1, 1], [0, 2]])
    y = _bim(rng, (1, 2), (2,), [[1], [1]])
    pred = multiplicity_matrix(x) @ multiplicity_matrix(y)
    for kind in KINDS:
        tp = tensor(kind, x, y)
        assert np.array_equal(multiplicity_matrix(tp.result), pred)
        assert tp.result.validate() < 1e-9


def test_quotient_section_identities():
    rng = np.random.default_rng(3)
    x = _bim(rng, (2,), (1, 2), [[1, 1]])
    y = _bim(rng, (1, 2), (2,), [[1], [1]])
    for kind in KINDS:
        tp = tensor(kind, x, y)
        assert op_norm(tp.quotient @ tp.section - np.eye(tp.dim)) < 1e-10
        # Q^H Q equals the Gram matrix on the positive part
        recon = tp.quotient.conj().T @ tp.quotient
        assert op_norm(recon - tp.gram) < 1e-9 * max(1.0, op_norm(tp.gram))
        if tp.kernel.size:
            assert op_norm(tp.gram @ tp.kernel) < 1e-7 * max(1.0, op_norm(tp.gram))


def test_unit_isos_are_unitary_morphisms():
    rng = np.random.default_rng(4)
    x = _bim(rng, (2,), (1, 2), [[2, 1]])
    for kind in KINDS:
        l, r = unit_isos(kind, x)
        for f in (l, r):
            assert f.is_morphism()
            assert f.unitary_defect() < 1e-10


def test_unitors_agree_on_standard_square():
    b = MultiMatrixAlgebra((1, 2))
    l2 = standard_form(b).bimodule
    for kind in KINDS:
        tp = tensor(kind, l2, l2)
        assert op_norm(left_unitor(tp) - right_unitor(tp)) < 1e-10


def test_associator_unitary_morphism():
    rng = np.random.default_rng(5)
    x = _bim(rng, (2,), (1, 2), [[1, 1]])
    y = _bim(rng, (1, 2), (2,), [[1], [1]])
    z = _bim(rng, (2,), (2,), [[1]])
    for kind in KINDS:
        t_xy = tensor(kind, x, y)
        t_yz = tensor(kind, y, z)
        t_xy_z = tensor(kind, t_xy.result, z)
        t_x_yz = tensor(kind, x, t_yz.result)
        a = associator(t_xy, t_xy_z, t_yz, t_x_yz)
        assert op_norm(a.conj().T @ a - np.eye(a.shape[1])) < 1e-9
        assert Morphism(t_xy_z.result, t_x_yz.result, a).is_morphism()


def test_tensor_morphisms_functorial():
    rng = np.random.default_rng(6)
    x = _bim(rng, (2,), (2,), [[2]])
    y = _bim(rng, (2,), (1, 1), [[1, 1]])
    f1 = random_morphism_matrix(x, x, rng)
    f2 = random_morphism_matrix(x, x, rng)
    g = random_morphism_matrix(y, y, rng)
    for kind in KINDS:
        tp = tensor(kind, x, y)
        t1 = tensor_morphisms(tp, tp, f1, g)
        t2 = tensor_morphisms(tp, tp, f2, np.eye(y.dim))
        t12 = tensor_morphisms(tp, tp, f1 @ f2, g)
        assert op_norm(t1 @ t2 - t12) < 1e-9
        # identity tensor identity is the identity
        ident = tensor_morphisms(tp, tp, np.eye(x.dim), np.eye(y.dim))
        assert op_norm(ident - np.eye(tp.dim)) < 1e-10


def test_induced_map_rejects_kernel_violation():
    rng = np.random.default_rng(7)
    row = _bim(rng, (1,), (2,), [[1]])
    col = _bim(rng, (2,), (1,), [[1]])
    tp = tensor_left(row, col)
    assert tp.kernel.shape[1] > 0
    bad = random_unitary(rng, tp.alg_dim)   # generic map ignores the kernel
    with pytest.raises(WellDefinednessError):
        induced_map(tp, tp, bad)


def test_matrix_extension_iso():
    rng = np.random.default_rng(8)
    x = _bim(rng, (2,), (1, 2), [[1, 1]])
    y = _bim(rng, (1, 2), (2,), [[1], [1]])
    for kind in KINDS:
        mat, tp_ext, ext_res = tensor_matrix_extension_iso(x, y, 2, 2, kind)
        assert op_norm(mat.conj().T @ mat - np.eye(mat.shape[1])) < 1e-9
        assert Morphism(tp_ext.result, ext_res, mat).is_morphism()
        assert ext_res.dim == 4 * tensor(kind, x, y).dim


def test_zero_multiplicity_product_is_zero_dimensional():
    # the product multiplicity is exactly zero: the Gram matrix is pure
    # rounding noise and must rank to 0, not 1
    rng = np.random.default_rng(11)
    x = _bim(rng, (1,), (2, 1), [[0, 1]])
    y = _bim(rng, (2, 1), (1,), [[1], [0]])
    assert (multiplicity_matrix(x) @ multiplicity_matrix(y)).sum() == 0
    for kind in KINDS:
        tp = tensor(kind, x, y)
        assert tp.dim == 0
        assert tp.result.dim == 0


def test_m_standard_unitary_and_scalar_case():
    for blocks in [(1,), (2,), (1, 2)]:
        b = MultiMatrixAlgebra(blocks)
        m, _, _ = m_standard(b, 2, 2)
        assert op_norm(m.conj().T @ m - np.eye(m.shape[1])) < 1e-10
    one = MultiMatrixAlgebra((1,))
    m, _, _ = m_standard(one, 1, 1)
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - 1.0) < 1e-12


def test_m_iso_unitary_morphism_and_realization_independent():
    rng = np.random.default_rng(9)
    x = _bim(rng, (2,), (1, 2), [[1, 1]])
    y = _bim(rng, (1, 2), (2,), [[1], [1]])
    tpl, tpr = tensor_left(x, y), tensor_right(x, y)
    m = m_iso(x, y, tp_left=tpl, tp_right=tpr)
    assert op_norm(m.conj().T @ m - np.eye(m.shape[1])) < 1e-9
    assert Morphism(tpl.result, tpr.result, m).is_morphism()
    for seed in range(3):
        rng2 = np.random.default_rng(100 + seed)
        m2 = m_iso(x, y, tp_left=tpl, tp_right=tpr,
                   right_rotation=random_unitary(rng2, x.dim),
                   left_rotation=random_unitary(rng2, y.dim))
        assert op_norm(m - m2) < 1e-9


def test_m_iso_frames_are_the_products_bounded_frames():
    # m takes its tight frames from the bounded bases its products hold;
    # they are the projective-realization frames, bit for bit
    for seed in range(3):
        spec = generate(seed)
        for x, y in zip(spec.bimodules, spec.bimodules[1:]):
            assert np.array_equal(tensor_left(x, y).bounded.frame_vectors(),
                                  right_projective_realization(x).frame)
            assert np.array_equal(tensor_right(x, y).bounded.frame_vectors(),
                                  left_projective_realization(y).frame)


def test_m_iso_agrees_with_standard_on_square():
    b = MultiMatrixAlgebra((1, 2))
    l2 = standard_form(b).bimodule
    m_direct = m_iso(l2, l2)
    m_std, _, _ = m_standard(b, 1, 1)
    assert op_norm(m_direct - m_std) < 1e-10


def test_morphism_tensor_wrapper():
    rng = np.random.default_rng(10)
    x = _bim(rng, (2,), (2,), [[1]])
    y = _bim(rng, (2,), (1,), [[1]])
    f = Morphism(x, x, random_morphism_matrix(x, x, rng))
    g = Morphism(y, y, random_morphism_matrix(y, y, rng))
    for kind in KINDS:
        tp = tensor(kind, x, y)
        fg = morphism_tensor(tp, tp, f, g)
        assert fg.is_morphism()


# -- the BLAS contractions against their multi-operand einsum subscripts ------

ORACLE_SEEDS = range(6)


def _rel_err(got, want):
    assert got.shape == want.shape
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def _suite_products(monkeypatch, seed):
    """Every tensor product the coherence suite builds for a default-limit seed."""
    tensor_mod = importlib.import_module("bimodcat.tensor")
    real = tensor_mod.TensorProduct
    built = []

    def record(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tensor_mod, "TensorProduct", record)
    run_suite(generate(seed))
    monkeypatch.undo()
    return built


def _einsum_oracle(tp):
    """(gram, left units, right units, second-leg stack) by einsum subscripts."""
    x, y, bb = tp.left_factor, tp.right_factor, tp.bounded
    r, v = tp.dim, bb.vectors
    proj = v.conj().T @ bb.form
    if tp.kind == KIND_LEFT:
        n, dy = bb.size, y.dim
        inner = np.einsum("wab,bi,aj->ijw", x.right_units.conj(), v.conj(), v)
        gram = np.einsum("ijw,wst->isjt", inner, y.left_units).reshape(
            n * dy, n * dy)
        qr, er = tp.quotient.reshape(r, n, dy), tp.section.reshape(n, dy, r)
        fstack = np.einsum("id,ude,ej->uij", proj, x.left_units, v)
        left = np.einsum("ris,uij,jsq->urq", qr, fstack, er)
        right = np.einsum("ris,ust,itq->urq", qr, y.right_units, er)
        return gram, left, right, y.right_units
    dx, m = x.dim, bb.size
    inner = np.einsum("wab,bj,ak->jkw", y.left_units.conj(), v.conj(), v)
    gram = np.einsum("jkw,wst->sjtk", inner, x.right_units).reshape(
        dx * m, dx * m)
    qr, er = tp.quotient.reshape(r, dx, m), tp.section.reshape(dx, m, r)
    left = np.einsum("rsj,ust,tjq->urq", qr, x.left_units, er)
    cstack = np.einsum("id,ude,ej->uij", proj, y.right_units, v)
    right = np.einsum("rsj,uji,siq->urq", qr, cstack, er)
    return gram, left, right, cstack


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_product_contractions_match_einsum(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    products = _suite_products(monkeypatch, seed)
    zero_rank = asymmetric = 0
    for tp in products:
        gram, left, right, second = _einsum_oracle(tp)
        assert _rel_err(tp.gram, gram) <= 1e-12
        assert _rel_err(tp.result.left_units, left) <= 1e-12
        assert _rel_err(tp.result.right_units, right) <= 1e-12
        vecs = rng.standard_normal((tp.alg_dim, 3)) + 0j
        want = np.sqrt(np.einsum("ij,ik,kj->", vecs.conj(), tp.gram, vecs).real)
        assert abs(_gram_seminorm(tp.gram, vecs) - want) <= 1e-12 * max(want, 1e-300)
        # the well-definedness scale reads the top Gram eigenvalue off Q
        scale = max(1.0, op_norm(tp.gram))
        assert abs(_gram_scale(tp) - scale) <= 1e-12 * scale
        zero_rank += tp.dim == 0 < tp.alg_dim
        asymmetric += bool(second.size) and np.abs(
            second - second.transpose(0, 2, 1)).max() > 1e-6
    # r = 0 products and second-leg stacks a transpose would get wrong occur
    assert zero_rank or seed != 1
    assert asymmetric or seed != 2


def test_gram_scale_reads_the_top_eigenvalue():
    # the suite's Grams are projections (every kept eigenvalue is 1), so a
    # spread spectrum checks that the scale reads the largest one
    u = random_unitary(np.random.default_rng(0), 4)
    gram = (u * np.array([0.5, 3.0, 0.0, 2.0])) @ u.conj().T
    quotient = _quotient_from_gram(gram)[0]
    assert abs(_gram_scale(SimpleNamespace(quotient=quotient, dim=3)) - 3.0) <= 1e-12
    assert _gram_scale(SimpleNamespace(quotient=quotient[:0], dim=0)) == 1.0


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_frame_contractions_match_einsum(seed):
    rng = np.random.default_rng(seed)
    spec = generate(seed)
    for x in spec.bimodules:
        for pr in (right_projective_realization(x), left_projective_realization(x)):
            bb, units = pr.basis, pr.basis.action_units
            want = np.einsum("wab,bi,aj->ijw", units.conj(), pr.frame.conj(), pr.frame)
            assert _rel_err(pr.projection_entries(), want) <= 1e-12
            w, v = psd_eig(bb.form)
            # the frame reads the eigenpairs the bounded space kept
            assert np.array_equal(bb.eigenvalues, w)
            assert np.array_equal(bb.eigenvectors, v)
            winv = (v * (1.0 / np.where(w > RANK_EPS * w[0], w, np.inf))) @ v.conj().T
            s = np.einsum("wab,bc,wdc->ad", units, winv, units.conj())
            assert _rel_err(bb.frame_vectors(), psd_inv_sqrt(s) @ bb.vectors) <= 1e-12
        mult, unitary = x.canonical
        plain = canonical_bimodule(x.left_algebra, x.right_algebra, mult)
        for got, units in ((x.left_units, plain.left_units),
                           (x.right_units, plain.right_units)):
            want = np.einsum("ij,ujk,kl->uil", unitary, units, unitary.conj().T)
            assert _rel_err(got, want) <= 1e-12
    for b_alg in spec.algebras:
        w = b_alg.dim
        avecs = rng.standard_normal((w, 3, 4)) + 1j * rng.standard_normal((w, 3, 4))
        cvecs = rng.standard_normal((w, 2, 5)) + 1j * rng.standard_normal((w, 2, 5))
        lunits = standard_form(b_alg).bimodule.left_units
        want = np.einsum("iwx,wvu,jus->ijvxs", avecs.transpose(1, 0, 2), lunits,
                         cvecs.transpose(1, 0, 2)).reshape(3 * 2 * w, 4 * 5)
        assert _rel_err(_standard_images(b_alg, avecs, cvecs), want) <= 1e-12
