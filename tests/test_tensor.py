import importlib
import json
import sys

import numpy as np
import pytest

from bimodcat import cli
from bimodcat.algebra import MultiMatrixAlgebra, standard_form
from bimodcat.bimodule import (Bimodule, Morphism, NotABimoduleError,
                               _in_frames, canonical_bimodule, dual_bimodule,
                               matrix_extension, multiplicity_matrix,
                               random_morphism_matrix)
from bimodcat.bounded import (left_bounded_space, left_projective_realization,
                              right_bounded_space, right_projective_realization)
from bimodcat.coherence import run_suite
from bimodcat.instances import Limits, generate, load, save
from bimodcat.involution import conjugation, conjugation_mixed
from bimodcat.linalg import (RANK_EPS, crandn, map_from_spanning, op_norm,
                             permutation_matrix, psd_eig, random_unitary)
from bimodcat.store import product_store
from bimodcat.tensor import (KIND_LEFT, KIND_RIGHT, WellDefinednessError,
                             associator, associator_perm, left_unitor,
                             left_unitor_perm, m_iso, m_perm, m_standard,
                             right_unitor, right_unitor_perm, tensor,
                             tensor_left, tensor_matrix_extension_iso,
                             tensor_morphisms, tensor_right)
from oracles import (bounded, conjugation_family, dual_stacks, ext_family,
                     gram, induced_map, m_realization, m_stacks, member_stacks,
                     multiplicity_traces, quotient, sector_bases,
                     stack_b_linear, standard_images, unitor_stacks)
from random_bims import random_bim
from stacks import given_by_stacks

KINDS = (KIND_LEFT, KIND_RIGHT)

# the modules, not the functions the package re-exports
tensor_module = importlib.import_module("bimodcat.tensor")
bimodule_module = importlib.import_module("bimodcat.bimodule")


def test_middle_algebra_mismatch():
    rng = np.random.default_rng(0)
    x = random_bim(rng, (2,), (2,), [[1]])
    y = random_bim(rng, (3,), (2,), [[1]])
    for kind in KINDS:
        with pytest.raises(ValueError):
            tensor(kind, x, y)


def test_row_times_column_is_one_dimensional():
    # C^2 as a C-M2 bimodule tensored with C^2 as M2-C: one-dimensional result
    rng = np.random.default_rng(1)
    row = random_bim(rng, (1,), (2,), [[1]])
    col = random_bim(rng, (2,), (1,), [[1]])
    for kind in KINDS:
        tp = tensor(kind, row, col)
        assert tp.dim == 1
        assert tp.result.validate() < 1e-10


def test_multiplicity_matrices_multiply():
    rng = np.random.default_rng(2)
    x = random_bim(rng, (2, 1), (1, 2), [[1, 1], [0, 2]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    pred = multiplicity_matrix(x) @ multiplicity_matrix(y)
    for kind in KINDS:
        tp = tensor(kind, x, y)
        assert np.array_equal(multiplicity_matrix(tp.result), pred)
        assert tp.result.validate() < 1e-9
    # criterion 5's prediction, counted off the frame labels, is the trace
    # oracle's on the stacks: for products, nested products, their duals
    # and factors given by their stacks
    for limits in (None, Limits(min_mult=1), Limits(min_mult=1, max_mult=2)):
        for seed in range(6):
            x, y, z = generate(seed, limits).bimodules[:3]
            stacks = Bimodule(x.left_algebra, x.right_algebra,
                              x.left_units.copy(), x.right_units.copy())
            pred = multiplicity_matrix(x) @ multiplicity_matrix(y)
            for kind in KINDS:
                xy = tensor(kind, x, y).result
                for bim, want in (
                        (xy, pred), (tensor(kind, stacks, y).result, pred),
                        (dual_bimodule(xy), pred.T),
                        (tensor(kind, xy, z).result, pred @ multiplicity_matrix(z))):
                    assert np.array_equal(multiplicity_matrix(bim), want)
                    assert np.array_equal(multiplicity_traces(bim), want)


def _kernel(tp):
    """Orthonormal basis of the Gram null space: the eigenvectors Q drops."""
    return psd_eig(gram(tp))[1][:, tp.dim:]


def test_quotient_section_identities():
    rng = np.random.default_rng(3)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    for kind in KINDS:
        tp = tensor(kind, x, y)
        q, g = quotient(tp), gram(tp)
        assert op_norm(q @ q.conj().T - np.eye(tp.dim)) < 1e-10
        # Q^H Q equals the Gram matrix on the positive part
        assert op_norm(q.conj().T @ q - g) < 1e-9 * max(1.0, op_norm(g))
        kernel = _kernel(tp)
        if kernel.size:
            assert op_norm(g @ kernel) < 1e-7 * max(1.0, op_norm(g))


def test_unit_isos_are_unitary_morphisms():
    rng = np.random.default_rng(4)
    x = random_bim(rng, (2,), (1, 2), [[2, 1]])
    l2a = standard_form(x.left_algebra).bimodule
    l2b = standard_form(x.right_algebra).bimodule
    for kind in KINDS:
        l = Morphism(tensor(kind, l2a, x).result, x, left_unitor(kind, x))
        r = Morphism(tensor(kind, x, l2b).result, x, right_unitor(kind, x))
        for f in (l, r):
            assert f.is_morphism()
            assert f.unitary_defect() < 1e-10


def test_unitors_agree_on_standard_square():
    b = MultiMatrixAlgebra((1, 2))
    l2 = standard_form(b).bimodule
    for kind in KINDS:
        assert op_norm(left_unitor(kind, l2) - right_unitor(kind, l2)) < 1e-10


def test_associator_unitary_morphism():
    rng = np.random.default_rng(5)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    z = random_bim(rng, (2,), (2,), [[1]])
    for kind in KINDS:
        t_xy_z = tensor(kind, tensor(kind, x, y).result, z)
        t_x_yz = tensor(kind, x, tensor(kind, y, z).result)
        a = associator(kind, x, y, z)
        assert op_norm(a.conj().T @ a - np.eye(a.shape[1])) < 1e-9
        assert Morphism(t_xy_z.result, t_x_yz.result, a).is_morphism()


def test_tensor_morphisms_functorial():
    rng = np.random.default_rng(6)
    x = random_bim(rng, (2,), (2,), [[2]])
    y = random_bim(rng, (2,), (1, 1), [[1, 1]])
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
    row = random_bim(rng, (1,), (2,), [[1]])
    col = random_bim(rng, (2,), (1,), [[1]])
    tp = tensor_left(row, col)
    assert _kernel(tp).shape[1] > 0
    bad = random_unitary(rng, tp.alg_dim)   # generic map ignores the kernel
    with pytest.raises(WellDefinednessError):
        induced_map(tp, tp, bad)


def test_matrix_extension_iso():
    rng = np.random.default_rng(8)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    for kind in KINDS:
        mat, tp_ext, ext_res = tensor_matrix_extension_iso(x, y, 2, 2, kind)
        assert op_norm(mat.conj().T @ mat - np.eye(mat.shape[1])) < 1e-9
        assert Morphism(tp_ext.result, ext_res, mat).is_morphism()
        assert ext_res.dim == 4 * tensor(kind, x, y).dim


def test_zero_multiplicity_product_is_zero_dimensional():
    # the product multiplicity is exactly zero: the Gram matrix is pure
    # rounding noise and must rank to 0, not 1
    rng = np.random.default_rng(11)
    x = random_bim(rng, (1,), (2, 1), [[0, 1]])
    y = random_bim(rng, (2, 1), (1,), [[1], [0]])
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
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    tpl, tpr = tensor_left(x, y), tensor_right(x, y)
    m = m_iso(x, y)
    assert op_norm(m.conj().T @ m - np.eye(m.shape[1])) < 1e-9
    assert Morphism(tpl.result, tpr.result, m).is_morphism()
    # the member map against realizations with rotated frames
    assert op_norm(m - m_realization(x, y)) < 1e-9
    for seed in range(3):
        rng2 = np.random.default_rng(100 + seed)
        m2 = m_realization(x, y, right_rotation=random_unitary(rng2, x.dim),
                           left_rotation=random_unitary(rng2, y.dim))
        assert op_norm(m - m2) < 1e-9


def test_m_iso_frames_are_the_products_bounded_frames():
    # the realization frames are the stored orthonormal bounded bases, the
    # ones the products that m reads hold
    for seed in range(3):
        spec = generate(seed)
        with product_store():
            for x in spec.bimodules:
                assert (right_projective_realization(x).frame
                        is right_bounded_space(x).vectors)
                assert (left_projective_realization(x).frame
                        is left_bounded_space(x).vectors)


def test_m_iso_agrees_with_standard_on_square():
    b = MultiMatrixAlgebra((1, 2))
    l2 = standard_form(b).bimodule
    m_direct = m_iso(l2, l2)
    m_std, _, _ = m_standard(b, 1, 1)
    assert op_norm(m_direct - m_std) < 1e-10


def test_f_tensor_g_is_a_bimodule_morphism():
    rng = np.random.default_rng(10)
    x = random_bim(rng, (2,), (2,), [[1]])
    y = random_bim(rng, (2,), (1,), [[1]])
    f = random_morphism_matrix(x, x, rng)
    g = random_morphism_matrix(y, y, rng)
    for kind in KINDS:
        tp = tensor(kind, x, y)
        fg = Morphism(tp.result, tp.result, tensor_morphisms(tp, tp, f, g))
        assert fg.is_morphism()


# -- the BLAS contractions against their multi-operand einsum subscripts ------

ORACLE_SEEDS = range(6)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_associator_is_a_permutation(seed):
    # a sends each triple of frame columns to itself: 0/1 entries, one 1
    # per row and per column
    chain = generate(seed).bimodules
    sizes = 0
    for kind in KINDS:
        for x, y, z in zip(chain, chain[1:], chain[2:]):
            a = associator(kind, x, y, z)
            assert np.isin(a, (0, 1)).all()
            assert (a.sum(axis=0) == 1).all() and (a.sum(axis=1) == 1).all()
            sizes += a.size
    assert sizes


def _rel_err(got, want):
    assert got.shape == want.shape
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def _suite_products(monkeypatch, seed, limits=None):
    """Every tensor product the coherence suite builds for a seed.

    The suite must pass with no errors, so that a broken construction,
    which the suite turns into an error result, cannot leave the products
    unchecked.
    """
    tensor_mod = importlib.import_module("bimodcat.tensor")
    real = tensor_mod.TensorProduct
    built = []

    def record(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tensor_mod, "TensorProduct", record)
    report = run_suite(generate(seed, limits))
    monkeypatch.undo()
    failed = [c for c in report["checks"] if not c["passed"] or c["error"]]
    assert not failed, failed
    assert built
    return built


def _einsum_oracle(tp):
    """(gram, left units, right units, second-leg stack) by einsum subscripts."""
    x, y, bb = tp.left_factor, tp.right_factor, bounded(tp)
    r, v, q = tp.dim, bb.vectors, quotient(tp)
    proj = v.conj().T @ bb.form
    if tp.kind == KIND_LEFT:
        n, dy = bb.size, y.dim
        inner = np.einsum("wab,bi,aj->ijw", x.right_units.conj(), v.conj(), v)
        g = np.einsum("ijw,wst->isjt", inner, y.left_units).reshape(
            n * dy, n * dy)
        qr, er = q.reshape(r, n, dy), q.conj().T.reshape(n, dy, r)
        fstack = np.einsum("id,ude,ej->uij", proj, x.left_units, v)
        left = np.einsum("ris,uij,jsq->urq", qr, fstack, er)
        right = np.einsum("ris,ust,itq->urq", qr, y.right_units, er)
        return g, left, right, y.right_units
    dx, m = x.dim, bb.size
    inner = np.einsum("wab,bj,ak->jkw", y.left_units.conj(), v.conj(), v)
    g = np.einsum("jkw,wst->sjtk", inner, x.right_units).reshape(
        dx * m, dx * m)
    qr, er = q.reshape(r, dx, m), q.conj().T.reshape(dx, m, r)
    left = np.einsum("rsj,ust,tjq->urq", qr, x.left_units, er)
    cstack = np.einsum("id,ude,ej->uij", proj, y.right_units, v)
    right = np.einsum("rsj,uji,siq->urq", qr, cstack, er)
    return g, left, right, cstack


@pytest.mark.parametrize("seed, limits", [
    *(pytest.param(seed, None, id=str(seed)) for seed in ORACLE_SEEDS),
    # sectors with several members; seed 4's einsums take minutes
    *(pytest.param(seed, Limits(min_mult=1), id=f"min-mult-1-{seed}")
      for seed in (0, 1, 2, 3, 5))])
def test_product_contractions_match_einsum(monkeypatch, seed, limits):
    # the result actions, built from the sector bases, against Q (F_u (x) 1) E
    products = _suite_products(monkeypatch, seed, limits)
    zero_rank = asymmetric = 0
    for tp in products:
        want_gram, left, right, second = _einsum_oracle(tp)
        assert _rel_err(gram(tp), want_gram) <= 1e-12
        assert _rel_err(tp.result.left_units, left) <= 1e-12
        assert _rel_err(tp.result.right_units, right) <= 1e-12
        zero_rank += tp.dim == 0 < tp.alg_dim
        asymmetric += bool(second.size) and np.abs(
            second - second.transpose(0, 2, 1)).max() > 1e-6
    if limits is None:
        # r = 0 products and second-leg stacks a transpose would get wrong occur
        assert zero_rank or seed != 1
        assert asymmetric or seed != 2


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_kernel_free_checks_match_the_kernel(monkeypatch, seed):
    # induced maps test ||QA - (QA E) Q||_F, which is ||Q A K||_F since
    # E Q = 1 - K K^H, and ||f (x) g|| = ||f|| ||g||
    rng = np.random.default_rng(seed)
    with_kernel = 0
    for tp in _suite_products(monkeypatch, seed):
        q, g = quotient(tp), gram(tp)
        e = q.conj().T
        # every Gram is an orthogonal projection, so Q Q^H = 1 and E = Q^H
        assert op_norm(q @ e - np.eye(tp.dim)) <= 1e-12
        assert op_norm(g @ g - g) <= 1e-12
        # each leg has the dimension of its factor: the bounded basis has d members
        f, g = (crandn(rng, n, n) for n in (tp.left_factor.dim, tp.right_factor.dim))
        norm = op_norm(f) * op_norm(g)
        assert abs(op_norm(np.kron(f, g)) - norm) <= 1e-12 * norm
        kernel = _kernel(tp)
        if not kernel.size:
            continue    # the check runs only when there is a null space
        with_kernel += 1
        for a in (crandn(rng, tp.alg_dim, tp.alg_dim), np.kron(f, g)):
            qa = q @ a
            want = np.linalg.norm(qa @ kernel)
            assert abs(np.linalg.norm(qa - qa @ e @ q) - want) <= 1e-12 * want
            if tp.dim:      # a generic map does not descend
                with pytest.raises(WellDefinednessError):
                    induced_map(tp, tp, a)
    assert with_kernel


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
            winv = (v * (1.0 / np.where(w > RANK_EPS * w[0], w, np.inf))) @ v.conj().T
            s = np.einsum("wab,bc,wdc->ad", units, winv, units.conj())
            # the orthonormal bounded basis is a tight frame: S = 1, and so
            # is the frame operator sum_i g_i g_i^H of the realization's frame
            maps = pr.frame_maps()
            assert _rel_err(s, np.eye(x.dim)) <= 1e-12
            assert _rel_err(np.einsum("iaw,ibw->ab", maps, maps.conj()),
                            np.eye(x.dim)) <= 1e-12
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
        assert _rel_err(standard_images(b_alg, avecs, cvecs), want) <= 1e-12


# -- the sector quotient against the Gram eigen-quotient ----------------------

def _eigen_quotient(gram):
    """Q = V^H for the Gram's eigenvectors above the rank floor.

    The floor is absolute too: a true Gram has integer trace, the product
    dimension, so an all-noise Gram of a zero product ranks 0.
    """
    w, v = psd_eig(gram)
    if w.size == 0 or w[0] == 0.0:
        return v[:, :0].conj().T
    return v[:, w > RANK_EPS * max(w[0], 1.0)].conj().T


def _predicted_dim(tp):
    """Criterion 5's sum of (mu_X mu_Y)_kl n_k m_l."""
    x, y = tp.left_factor, tp.right_factor
    mu = multiplicity_matrix(x) @ multiplicity_matrix(y)
    return int(np.asarray(x.left_algebra.blocks) @ mu
               @ np.asarray(y.right_algebra.blocks))


@pytest.mark.parametrize("seed, limits", [
    *((seed, None) for seed in ORACLE_SEEDS),
    *((seed, Limits(min_mult=1)) for seed in range(6))])
def test_quotient_matches_the_gram_oracle(monkeypatch, seed, limits):
    # the Frobenius norm bounds the operator norm and needs no SVD
    for tp in _suite_products(monkeypatch, seed, limits):
        g = gram(tp)
        q = quotient(tp)
        assert np.linalg.norm(q @ q.conj().T - np.eye(tp.dim)) <= 1e-12
        assert np.linalg.norm(q.conj().T @ q - g) <= 1e-12
        oracle = _eigen_quotient(g)
        assert tp.dim == oracle.shape[0] == _predicted_dim(tp)
        # both quotients have the Gram's range as row space
        turn = q @ oracle.conj().T
        assert np.linalg.norm(turn @ turn.conj().T - np.eye(tp.dim)) <= 1e-12


def test_m_is_not_the_identity():
    # ltimes and rtimes cut their sectors with different minimal projections
    # and rtimes lists its sector columns reversed; with one shared
    # projection, m = 1 wherever the middle blocks have size 1
    pairs = 0
    for limits in (None, Limits(min_mult=1)):
        for seed in range(10):
            spec = generate(seed, limits)
            with product_store():
                for x, y in zip(spec.bimodules, spec.bimodules[1:]):
                    if tensor_left(x, y).dim >= 2:
                        m = m_iso(x, y)
                        assert op_norm(m - np.eye(len(m))) >= 1.0, (seed, limits)
                        pairs += 1
    assert pairs == 49


def test_m_is_the_reversal_and_the_unitors_are_frames_times_0_1_matrices():
    # in frame coordinates m is the anti-diagonal reversal J of the members,
    # and W^H l and W^H r are 0/1 matrices: m and the unitors reindex frame
    # columns
    shapes = [*((seed, None) for seed in range(20)),
              *((seed, Limits(min_mult=1)) for seed in range(10)),
              *((seed, Limits(min_mult=1, max_mult=2)) for seed in (0, 3, 4, 9))]
    pairs = unitors = 0
    for seed, limits in shapes:
        spec = generate(seed, limits)
        with product_store():
            for x, y in zip(spec.bimodules, spec.bimodules[1:]):
                m = m_iso(x, y)
                assert np.abs(m - np.eye(len(m))[::-1]).max(initial=0) <= 1e-12
                pairs += 1
            for x in spec.bimodules:
                w = np.eye(x.dim) if x.frame.w is None else x.frame.w
                for kind in KINDS:
                    for unitor in (left_unitor, right_unitor):
                        frame = w.conj().T @ unitor(kind, x)
                        assert np.abs(frame - np.round(frame.real)).max(
                            initial=0) <= 1e-12, (seed, limits, kind, unitor)
                        assert set(np.round(frame.real).ravel()) <= {0, 1}
                        unitors += 1
    assert (pairs, unitors) == (102, 544)


def _index_map_chains(spec):
    """Chains of the bimodules m and the unitors take, from an instance.

    Canonical models; the same given by their stacks, framed by
    Gram-Schmidt; their duals, in reverse; their matrix extensions, of
    orders 1 and 2 in turn; and per kind, a chain whose first or second
    bimodule is a product's result.
    """
    bs = spec.bimodules
    orders = [1 + i % 2 for i in range(len(bs) + 1)]
    chains = [bs, load(json.dumps(given_by_stacks(spec))).bimodules,
              [dual_bimodule(x) for x in reversed(bs)],
              [matrix_extension(x, ni, nj)
               for x, ni, nj in zip(bs, orders, orders[1:])]]
    for kind in KINDS:
        chains += [[tensor(kind, bs[0], bs[1]).result, *bs[2:]],
                   [bs[0], tensor(kind, bs[1], bs[2]).result, *bs[3:]]]
    return chains


@pytest.mark.parametrize("seed, limits", [
    (0, None), (3, None), (56, None), (1, Limits(min_mult=1)),
    (3, Limits(min_mult=1, max_mult=2)), (4, Limits(min_mult=1, max_mult=2))])
def test_index_maps_match_the_stack_oracles(seed, limits):
    # m's 0/1 matrix and the raw unitors W_X[:, perm] against the dense maps
    # built from the factors' action stacks, on every kind of bimodule
    # whose frame the library knows or finds; and each raw m, l and r a
    # unitary bimodule map against its factors' actions, the raw-coordinate
    # content that the triangle, m-unit and m-assoc lose as index identities
    ms = unitors = 0
    with product_store():
        for chain in _index_map_chains(generate(seed, limits)):
            for x, y in zip(chain, chain[1:]):
                m = m_iso(x, y)
                assert np.array_equal(m, permutation_matrix(m_perm(x, y)))
                assert np.abs(m - m_stacks(x, y)).max(initial=0.0) <= 1e-12
                f = Morphism(tensor_left(x, y).result, tensor_right(x, y).result, m)
                assert f.is_morphism(1e-12) and f.unitary_defect() <= 1e-12
                ms += 1
            for x in chain:
                l2a = standard_form(x.left_algebra).bimodule
                l2b = standard_form(x.right_algebra).bimodule
                for kind in KINDS:
                    for side, unitor, perm, tp in (
                            ("left", left_unitor, left_unitor_perm,
                             tensor(kind, l2a, x)),
                            ("right", right_unitor, right_unitor_perm,
                             tensor(kind, x, l2b))):
                        raw = _frame(x)[:, perm(kind, x)]
                        assert np.array_equal(raw, unitor(kind, x))
                        assert np.abs(raw - unitor_stacks(kind, x, side)).max(
                            initial=0.0) <= 1e-12
                        f = Morphism(tp.result, x, raw)
                        assert f.is_morphism(1e-12)
                        assert f.unitary_defect() <= 1e-12
                        unitors += 1
    assert ms and unitors


# -- the member-built maps against the spanning solves ------------------------

def _associator_oracle(kind, x, y, z):
    """(source, target) spanning family of the associator."""
    tp_xy, tp_yz = tensor(kind, x, y), tensor(kind, y, z)
    tp_xy_z = tensor(kind, tp_xy.result, z)
    tp_x_yz = tensor(kind, x, tp_yz.result)
    r, rz, ryz, rt = tp_xy.dim, tp_xy_z.dim, tp_yz.dim, tp_x_yz.dim
    q_xy, q_xy_z, q_yz, q_x_yz = map(quotient, (tp_xy, tp_xy_z, tp_yz, tp_x_yz))
    if kind == KIND_LEFT:
        b_xy, b_yz, b_xy_z = bounded(tp_xy), bounded(tp_yz), bounded(tp_xy_z)
        nx, ny = b_xy.size, b_yz.size
        dy, dz = tp_yz.left_factor.dim, tp_yz.right_factor.dim
        wev = np.einsum("ris,sj->rij", q_xy.reshape(r, nx, dy), b_yz.vectors)
        coeff = b_xy_z.expand(wev.reshape(r, nx * ny)).reshape(b_xy_z.size, nx, ny)
        src = np.einsum("rtu,tij->riju", q_xy_z.reshape(rz, b_xy_z.size, dz), coeff)
        tgt = np.einsum("riq,qju->riju", q_x_yz.reshape(rt, nx, ryz),
                        q_yz.reshape(ryz, ny, dz))
        return src.reshape(rz, nx * ny * dz), tgt.reshape(rt, nx * ny * dz)
    b_xy, b_xy_z, b_x_yz = bounded(tp_xy), bounded(tp_xy_z), bounded(tp_x_yz)
    dx, dy = tp_xy.left_factor.dim, tp_yz.left_factor.dim
    my, mz = b_xy.size, b_xy_z.size
    src = np.einsum("rqk,qm->rmk", q_xy_z.reshape(rz, r, mz), q_xy)
    mev = np.einsum("rsk,sj->rjk", q_yz.reshape(ryz, dy, mz), b_xy.vectors)
    coeff = b_x_yz.expand(mev.reshape(ryz, my * mz))
    tgt = np.einsum("rst,tjk->rsjk", q_x_yz.reshape(rt, dx, ryz),
                    coeff.reshape(b_x_yz.size, my, mz))
    return src.reshape(rz, dx * my * mz), tgt.reshape(rt, dx * my * mz)


def _solve(family):
    """map_from_spanning of a family, whose source must have orthonormal rows."""
    src, tgt = family
    assert np.linalg.norm(src @ src.conj().T - np.eye(len(src))) <= 1e-12
    return map_from_spanning(src, tgt)


@pytest.mark.parametrize("seed, limits", [
    *(pytest.param(seed, None, id=str(seed)) for seed in ORACLE_SEEDS),
    *(pytest.param(seed, Limits(min_mult=1), id=f"min-mult-1-{seed}")
      for seed in range(3))])
def test_spanning_families_match_einsum(seed, limits):
    # the member-built associator, extension identifications and c against
    # the spanning solves of the algebraic-space constructions
    x, y, z = generate(seed, limits).bimodules[:3]
    nonempty = 0
    with product_store():
        for kind in KINDS:
            want = _solve(_associator_oracle(kind, x, y, z))
            assert _rel_err(associator(kind, x, y, z), want) <= 1e-12
            nonempty += want.size > 0
            for ni, nj in ((1, 1), (2, 3)):
                got, tp_ext, _ = tensor_matrix_extension_iso(x, y, ni, nj, kind)
                want = _solve(ext_family(tensor(kind, x, y), tp_ext, ni, nj))
                assert _rel_err(got, want) <= 1e-12, (kind, ni, nj)
        want = _solve(conjugation_family(x, y))
        assert _rel_err(conjugation_mixed(x, y).matrix, want) <= 1e-12
    assert nonempty or seed != 0


def test_the_runtime_path_builds_no_algebraic_space(monkeypatch, capsys):
    # no bounded space, quotient or spanning family: spy on every binding of
    # the functions that build them in every bimodcat module
    homes = {"map_from_spanning": importlib.import_module("bimodcat.linalg"),
             "right_bounded_space": importlib.import_module("bimodcat.bounded"),
             "left_bounded_space": importlib.import_module("bimodcat.bounded")}
    calls, patched = [], set()
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "bimodcat":
            continue
        for name, home in homes.items():
            real = getattr(home, name)
            if getattr(module, name, None) is real:
                def spy(*args, name=name, real=real):
                    calls.append(name)
                    return real(*args)
                monkeypatch.setattr(module, name, spy)
                patched.add((module_name, name))
    assert {("bimodcat.linalg", "map_from_spanning"),
            ("bimodcat.bounded", "right_bounded_space"),
            ("bimodcat.bounded", "left_bounded_space")} <= patched
    for seed, limits in [*((seed, None) for seed in ORACLE_SEEDS),
                         *((seed, Limits(min_mult=1)) for seed in range(3))]:
        report = run_suite(generate(seed, limits))
        assert not [c for c in report["checks"] if c["error"]], seed
    x, y = generate(0, length=2).bimodules
    for kind in KINDS:
        conjugation(kind, x, y)
    conjugation_mixed(x, y)
    for blocks, ni, nj in [((1,), 1, 1), ((2,), 2, 1), ((1, 2), 2, 2),
                           ((3, 1), 1, 3)]:
        m_standard(MultiMatrixAlgebra(blocks), ni, nj)
    assert cli.main(["tensor", "--seed", "0"]) == 0
    capsys.readouterr()
    assert calls == []
    # the spies see a call
    homes["right_bounded_space"].right_bounded_space(x)
    assert calls == ["right_bounded_space"]


# -- the member-built maps against their algebraic-space constructions --------

def _unitor_oracle(kind, x, left):
    """A unitor as legs @ section: the algebraic space evaluated on the bimodule.

    The standard factor is the bounded leg where it leads for ltimes or
    trails for rtimes: its bounded vectors are multiplications, evaluated
    on the bimodule.  Otherwise the bimodule's bounded vectors are applied
    to the basis of L2.
    """
    if left:
        tp = tensor(kind, standard_form(x.left_algebra).bimodule, x)
    else:
        tp = tensor(kind, x, standard_form(x.right_algebra).bimodule)
    units = x.left_units if left else x.right_units
    if left == (kind == KIND_LEFT):
        legs = np.einsum("wi,wst->ist", bounded(tp).vectors, units)
    else:
        legs = np.einsum("wab,bi->iaw", units, bounded(tp).vectors)
    order = (1, 0, 2) if kind == KIND_LEFT else (1, 2, 0)
    return (legs.transpose(order).reshape(units.shape[1], tp.alg_dim)
            @ quotient(tp).conj().T)


def _kron_oracle(src, tgt, f, g):
    """f (x) g as the induced map of its Kronecker matrix, the bounded leg in coefficients.

    A leg that is None is the identity of the factor the two products share.
    """
    f = np.eye(src.left_factor.dim) if f is None else f
    g = np.eye(src.right_factor.dim) if g is None else g
    if src.kind == KIND_LEFT:
        f = bounded(tgt).expand(f @ bounded(src).vectors)
    else:
        g = bounded(tgt).expand(g @ bounded(src).vectors)
    return induced_map(src, tgt, np.kron(f, g))


def _morphisms_oracle(src, tgt, f, g):
    """The Kronecker oracle of f (x) g, an index leg as its raw 0/1 matrix W' P W^H."""
    legs = [_in_frames(x, x2, permutation_matrix(m))
            if m is not None and m.ndim == 1 else m
            for m, x, x2 in ((f, src.left_factor, tgt.left_factor),
                             (g, src.right_factor, tgt.right_factor))]
    return _kron_oracle(src, tgt, *legs)


def _frame(x):
    """X's frame W, the identity where it is None."""
    return np.eye(x.dim) if x.frame.w is None else x.frame.w


def _conjugation_oracle(kind, x, y):
    """c of one kind from the mixed c's spanning solve and m's realization.

    Y* ltimes X* -> Y* rtimes X* by m_{Y*,X*}, then the mixed c; or the
    mixed c, then (X ltimes Y)* -> (X rtimes Y)* by the conjugate of m_{X,Y}.
    """
    mixed = _solve(conjugation_family(x, y))
    if kind == KIND_LEFT:
        return mixed @ m_realization(dual_bimodule(y), dual_bimodule(x))
    return m_realization(x, y).conj() @ mixed


@pytest.mark.parametrize("seed, limits", [
    *(pytest.param(seed, None, id=str(seed)) for seed in ORACLE_SEEDS),
    *(pytest.param(seed, Limits(min_mult=1), id=f"min-mult-1-{seed}")
      for seed in range(3))])
def test_member_maps_match_the_algebraic_oracles(monkeypatch, seed, limits):
    # every associator, unitor, f (x) g of index or dense legs, m and c the
    # suite builds, and f (x) g of random bimodule endomorphisms on every
    # product of canonical factors; c against its derivation from the
    # mixed conjugation through m.  An index array is compared as its 0/1
    # matrix, a unitor's, into X's frame columns, as W_X[:, perm]
    coherence = importlib.import_module("bimodcat.coherence")
    oracles = {
        "associator_perm": lambda *args: _solve(_associator_oracle(*args)),
        **{f"{side}_unitor{form}": (lambda kind, x, left=side == "left":
                                    _unitor_oracle(kind, x, left))
           for side in ("left", "right") for form in ("", "_perm")},
        "tensor_morphisms": _morphisms_oracle,
        "m_perm": m_realization,
        "conjugation_perm": _conjugation_oracle}
    compared = dict.fromkeys(oracles, 0)
    forms = set()
    for name, oracle in oracles.items():
        def spy(*args, real=getattr(coherence, name), oracle=oracle, name=name,
                **kwargs):
            got = real(*args, **kwargs)
            if got.ndim == 2:
                matrix = got
            elif name.endswith("unitor_perm"):
                matrix = _frame(args[1])[:, got]
            else:
                matrix = permutation_matrix(got)
            assert _rel_err(matrix, oracle(*args, **kwargs)) <= 1e-12, name
            compared[name] += 1
            forms.add((name, got.ndim))
            return got
        monkeypatch.setattr(coherence, name, spy)
    products = _suite_products(monkeypatch, seed, limits)
    assert all(compared.values()), compared
    # f (x) g of index legs (the whiskered a and c) and of dense ones
    assert {("tensor_morphisms", 1), ("tensor_morphisms", 2)} <= forms
    rng = np.random.default_rng(seed)
    endomorphisms = 0
    for tp in products:
        x, y = tp.left_factor, tp.right_factor
        if x.canonical is None or y.canonical is None:
            continue
        f, g = random_morphism_matrix(x, x, rng), random_morphism_matrix(y, y, rng)
        assert _rel_err(tensor_morphisms(tp, tp, f, g),
                        _kron_oracle(tp, tp, f, g)) <= 1e-12
        endomorphisms += 1
    assert endomorphisms


def test_a_none_leg_is_the_identity_of_a_shared_factor():
    # None reads the identity of a shared factor off the members; on two
    # products that do not share the factor it is a ValueError naming the
    # leg, not a failed B-linearity check
    rng = np.random.default_rng(13)
    x, x2 = random_bim(rng, (2,), (2,), [[1]]), random_bim(rng, (2,), (2,), [[1]])
    y, y2 = (random_bim(rng, (2,), (1, 1), [[1, 1]]),
             random_bim(rng, (2,), (1, 1), [[1, 1]]))
    f, g = random_morphism_matrix(x, x, rng), random_morphism_matrix(y, y, rng)
    for kind in KINDS:
        tp = tensor(kind, x, y)
        assert _rel_err(tensor_morphisms(tp, tp, None, g),
                        tensor_morphisms(tp, tp, np.eye(x.dim), g)) <= 1e-12
        assert _rel_err(tensor_morphisms(tp, tp, f, None),
                        tensor_morphisms(tp, tp, f, np.eye(y.dim))) <= 1e-12
        ident = tensor_morphisms(tp, tp, None, None)
        assert ident.dtype == complex and np.array_equal(ident, np.eye(tp.dim))
        for tgt, legs, name in ((tensor(kind, x2, y), (None, g), "f"),
                                (tensor(kind, x, y2), (f, None), "g")):
            with pytest.raises(ValueError, match=f"^{name} is None") as err:
                tensor_morphisms(tp, tgt, *legs)
            assert err.type is ValueError


def _accepted(build, *args):
    """build(*args), or None if it raises WellDefinednessError."""
    try:
        return build(*args)
    except WellDefinednessError:
        return None


@pytest.mark.parametrize("seed, limits", [
    *(pytest.param(seed, None, id=str(seed)) for seed in range(10)),
    *(pytest.param(seed, Limits(min_mult=1), id=f"min-mult-1-{seed}")
      for seed in range(4))])
def test_the_label_test_is_the_stack_test_on_permutation_legs(seed, limits):
    # a, its transpose and a shuffled a, whiskered by L2 on either side:
    # tensor_morphisms accepts a permutation leg exactly when the stack
    # test accepts its 0/1 matrix, and then f (x) g of the index leg is
    # f (x) g of that matrix, bit for bit
    chain = generate(seed, limits=limits).bimodules
    rng = np.random.default_rng(seed)
    verdicts = {"a": [], "a^T": [], "shuffled": []}
    for kind in KINDS:
        for x, y, z in zip(chain, chain[1:], chain[2:]):
            a = associator_perm(kind, x, y, z)
            inverse = np.argsort(a)
            xy_z = tensor(kind, tensor(kind, x, y).result, z).result
            x_yz = tensor(kind, x, tensor(kind, y, z).result).result
            l2a = standard_form(x.left_algebra).bimodule
            l2c = standard_form(z.right_algebra).bimodule
            for name, perm, src, tgt in (("a", a, xy_z, x_yz),
                                         ("a^T", inverse, x_yz, xy_z),
                                         ("shuffled", a[rng.permutation(a.size)],
                                          xy_z, x_yz)):
                # a product's result has no frame W: its 0/1 matrix is raw
                matrix = permutation_matrix(perm)
                for pair, legs, side in (
                        (lambda m: (m, l2c), lambda p: (p, None), "right"),
                        (lambda m: (l2a, m), lambda p: (None, p), "left")):
                    tp, tp2 = tensor(kind, *pair(src)), tensor(kind, *pair(tgt))
                    want = stack_b_linear(matrix, src, tgt, side)
                    got, dense = (_accepted(tensor_morphisms, tp, tp2, *legs(m))
                                  for m in (perm, matrix))
                    assert (got is not None) == (dense is not None) == want, (
                        kind, name)
                    assert got is None or np.array_equal(
                        permutation_matrix(got), dense)
                    verdicts[name].append(want)
    assert all(verdicts["a"]) and all(verdicts["a^T"])
    if limits is not None:
        # each min-mult 1 chain has a shuffle that both tests reject
        assert not all(verdicts["shuffled"])


def test_tensor_morphisms_rejects_maps_that_keep_the_sectors():
    # on C^2 (x) C^2 over M2, f = c c^H + 2 (1 - c c^H) keeps X p, the span
    # of the member c, but is not right-B-linear; the Kronecker check
    # rejects it on both kinds, and so does g built the same way on p Y
    rng = np.random.default_rng(12)
    row = random_bim(rng, (1,), (2,), [[1]])
    col = random_bim(rng, (2,), (1,), [[1]])
    for kind in KINDS:
        tp = tensor(kind, row, col)
        keep = [v @ v.conj().T + 2 * (np.eye(2) - v @ v.conj().T)
                for v in (np.concatenate(sector_bases(row, "right", kind), axis=1),
                          np.concatenate(sector_bases(col, "left", kind), axis=1))]
        for f, g, leg in ((keep[0], np.eye(2), "f is not right-B-linear"),
                          (np.eye(2), keep[1], "g is not left-B-linear")):
            with pytest.raises(WellDefinednessError):
                _kron_oracle(tp, tp, f, g)
            with pytest.raises(WellDefinednessError, match=leg):
                tensor_morphisms(tp, tp, f, g)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_tensor_morphisms_rejects_what_the_kronecker_check_rejects(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    rejected = 0
    for tp in _suite_products(monkeypatch, seed):
        dx, dy = tp.left_factor.dim, tp.right_factor.dim
        for f, g in ((crandn(rng, dx, dx), np.eye(dy)),
                     (np.eye(dx), crandn(rng, dy, dy))):
            try:
                _kron_oracle(tp, tp, f, g)
            except WellDefinednessError:
                rejected += 1
                with pytest.raises(WellDefinednessError):
                    tensor_morphisms(tp, tp, f, g)
    assert rejected


def _frame_verdict(side, m, x, x2):
    """Whether tensor_morphisms' frame rule accepts the raw leg m : X -> X'."""
    name = "f" if side == "right" else "g"
    return _accepted(tensor_module._frame_leg, name, side, m, x, x2) is not None


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_the_frame_rule_is_the_stack_test_on_a_suites_dense_legs(monkeypatch,
                                                                 seed):
    # every dense leg the suite hands to tensor_morphisms: the naturality
    # squares' f and g, f (x) g and g (x) 1; the unitors and m are index legs
    coherence = importlib.import_module("bimodcat.coherence")
    real, legs = coherence.tensor_morphisms, []

    def spy(src, tgt, f, g):
        for m, side, x, x2 in ((f, "right", src.left_factor, tgt.left_factor),
                               (g, "left", src.right_factor, tgt.right_factor)):
            if m is not None and m.ndim == 2:
                legs.append((side, m, x, x2))
        return real(src, tgt, f, g)
    monkeypatch.setattr(coherence, "tensor_morphisms", spy)
    report = run_suite(generate(seed))
    assert report["summary"]["passed"] == report["summary"]["total"]
    # 2 x 2 unitor squares' f, then per kind f and g, f (x) g, g, f and
    # g (x) 1, and g^T and f^T
    assert len(legs) == 4 + 2 * (2 + 1 + 1 + 2 + 2)
    for side, m, x, x2 in legs:
        assert _frame_verdict(side, m, x, x2)
        assert stack_b_linear(m, x, x2, side)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_the_frame_rule_is_the_stack_test_on_random_legs(monkeypatch, seed):
    # random matrices, random bimodule endomorphisms and endomorphisms
    # moved off by a relative 1e-9, 1e-4 or 1e-2 on both legs of every
    # product a suite builds; between relative 1e-7 and 1e-5 the two
    # Frobenius defects, which differ by a factor of about 2, can straddle
    # the common 1e-6 threshold
    rng = np.random.default_rng(seed)
    verdicts = set()
    for tp in _suite_products(monkeypatch, seed):
        for side, x in (("right", tp.left_factor), ("left", tp.right_factor)):
            f = random_morphism_matrix(x, x, rng)
            h = crandn(rng, x.dim, x.dim)
            nudge = h * (np.linalg.norm(f) / max(np.linalg.norm(h), 1e-300))
            for m in (h, f, *(f + eps * nudge for eps in (1e-9, 1e-4, 1e-2))):
                want = stack_b_linear(m, x, x, side)
                assert _frame_verdict(side, m, x, x) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_a_read_only_dense_leg_is_tested_once_per_store(monkeypatch):
    # the B-linearity test of a raw matrix leg: once per store for a
    # read-only leg, on every call for a writable one, which may change
    # between calls, and on every call outside a store
    tested = []

    def counted(m, *args):
        tested.append(m)
        return real(m, *args)
    real = tensor_module._dense_frame_leg
    monkeypatch.setattr(tensor_module, "_dense_frame_leg", counted)
    x, y = generate(3, Limits(min_mult=1), length=2).bimodules
    l2 = standard_form(x.left_algebra).bimodule
    f = random_morphism_matrix(x, x, np.random.default_rng(0))
    sealed = f.copy()
    sealed.setflags(write=False)
    with product_store():
        products = (tensor_left(x, y), tensor_right(x, y))
        for leg, want in ((f, 6), (sealed, 1)):
            tested.clear()
            got = [tensor_morphisms(tp, tp, leg, None)
                   for _ in range(3) for tp in products]
            assert len(tested) == want
            assert all(np.array_equal(g, h) for g, h in zip(got, got[2:]))
        # the other side is another test, once
        tested.clear()
        tp = tensor_left(l2, x)
        for _ in range(2):
            tensor_morphisms(tp, tp, None, sealed)
        assert len(tested) == 1
        # a write into the writable leg is seen on the next call
        before = tensor_morphisms(products[0], products[0], f, None)
        f *= 2
        assert np.array_equal(
            tensor_morphisms(products[0], products[0], f, None), 2 * before)
    tested.clear()
    for _ in range(2):
        tensor_morphisms(tensor_left(x, y), tensor_left(x, y), sealed, None)
    assert len(tested) == 2


def test_a_malformed_leg_is_a_value_error():
    # a dense leg that does not map X to X' and an index array that is not
    # one column of X' per column of X name the leg, before any B-linearity
    # test
    rng = np.random.default_rng(2)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    dx, dy = x.dim, y.dim
    for kind in KINDS:
        tp = tensor(kind, x, y)
        for legs, match in (
                ((np.eye(dx + 1), None), r"^f has shape \(7, 7\)"),
                ((np.eye(dx)[:, :-1], None), r"^f has shape \(6, 5\)"),
                ((None, np.arange(dy - 1)), r"^g has shape \(5,\)"),
                ((np.arange(dx, dtype=float), None), "^f is an index array of "
                                                      "dtype float64"),
                ((None, np.zeros(dy, dtype=bool)), "^g is an index array of "
                                                    "dtype bool"),
                ((np.arange(dx) - 1, None), r"^f has an index outside 0\.\.5"),
                ((None, np.arange(dy) + 1), r"^g has an index outside 0\.\.5")):
            with pytest.raises(ValueError, match=match) as err:
                tensor_morphisms(tp, tp, *legs)
            assert err.type is ValueError


@pytest.mark.parametrize("seed", range(4))
def test_an_index_leg_beside_a_dense_leg_is_its_0_1_matrix(monkeypatch, seed):
    # a whiskered by L2(C) beside a random endomorphism of L2(C), and the
    # mirror image: the index leg is its 0/1 matrix, raw on a product's
    # result, bit for bit, taken as a mask without building that matrix
    def no_matrix(*args):
        raise AssertionError("tensor_morphisms built a 0/1 matrix")
    monkeypatch.setattr(tensor_module, "permutation_matrix", no_matrix)
    x, y, z = generate(seed, limits=Limits(min_mult=1)).bimodules[:3]
    rng = np.random.default_rng(seed)
    l2a = standard_form(x.left_algebra).bimodule
    l2c = standard_form(z.right_algebra).bimodule
    h, k = (random_morphism_matrix(l2, l2, rng) for l2 in (l2a, l2c))
    for kind in KINDS:
        a = associator_perm(kind, x, y, z)
        xy_z = tensor(kind, tensor(kind, x, y).result, z).result
        x_yz = tensor(kind, x, tensor(kind, y, z).result).result
        for pair, legs in ((lambda m: (m, l2c), lambda p: (p, k)),
                           (lambda m: (l2a, m), lambda p: (h, p))):
            tp, tp2 = tensor(kind, *pair(xy_z)), tensor(kind, *pair(x_yz))
            got = tensor_morphisms(tp, tp2, *legs(a))
            assert got.ndim == 2 and got.dtype == complex
            assert np.array_equal(
                got, tensor_morphisms(tp, tp2, *legs(permutation_matrix(a))))


# -- action stacks read off the frames --------------------------------------------

def _is_0_1(stack):
    """Whether every entry of ``stack`` is exactly 0 or 1, with no imaginary part."""
    return not stack.imag.any() and np.isin(stack.real, (0.0, 1.0)).all()


@pytest.mark.parametrize("seed, limits", [
    *(pytest.param(seed, None, id=str(seed)) for seed in ORACLE_SEEDS),
    *(pytest.param(seed, Limits(min_mult=1), id=f"min-mult-1-{seed}")
      for seed in range(3))])
def test_deferred_stacks_are_the_eager_stacks(monkeypatch, seed, limits):
    # each product's stacks are read off its frame, the identity on its
    # members: exactly 0/1, and within 1e-14 of L_u (x) 1 and 1 (x) R_v
    # from the factors' stacks, which carry the rounding of W^H W (measured
    # <= 3.0e-15); each dual's equal its original's, conjugated and
    # permuted, for a canonical or a result original
    duals = []
    build_dual = bimodule_module._dual_bimodule

    def record(x):
        duals.append((x, build_dual(x)))
        return duals[-1][1]
    monkeypatch.setattr(bimodule_module, "_dual_bimodule", record)
    for tp in _suite_products(monkeypatch, seed, limits):
        for got, want in zip((tp.result.left_units, tp.result.right_units),
                             member_stacks(tp)):
            assert _is_0_1(got)
            assert np.abs(got - want).max(initial=0.0) <= 1e-14
    assert duals
    for x, xs in duals:
        assert xs.dim == x.dim
        for got, want in zip((xs.left_units, xs.right_units), dual_stacks(x)):
            assert np.array_equal(got, want)


def _stack_builds(monkeypatch):
    """The (bimodule, side) of each stack the one builder reads off a frame."""
    builds, real = [], bimodule_module._frame_stacks

    def counted(x, side):
        builds.append((x, side))
        return real(x, side)
    monkeypatch.setattr(bimodule_module, "_frame_stacks", counted)
    return builds


def test_a_suite_builds_fewer_stacks_than_products(monkeypatch):
    # a result's stacks are built when something reads them, and no check
    # of a suite does; after the suite, every read builds them once more
    products = []
    build = tensor_module._tensor_product

    def counted_product(*args):
        products.append(build(*args))
        return products[-1]
    monkeypatch.setattr(tensor_module, "_tensor_product", counted_product)
    builds = _stack_builds(monkeypatch)
    report = run_suite(generate(18, limits=Limits(min_mult=1)))
    assert report["summary"]["passed"] == report["summary"]["total"]
    assert 0 == len(builds) < len(products)
    for tp in products:
        tp.result.left_units, tp.result.left_units
    assert [(id(x), side) for x, side in builds] == [
        (id(tp.result), "left") for tp in products for _ in range(2)]


def test_a_suite_on_a_stack_form_builds_no_stack(monkeypatch):
    # gen --min-mult 1 --seed 18 given by its action stacks: the loader
    # checks the given stacks, and neither it nor a suite reads a stack
    # off a frame, of a chain bimodule, a result or a dual
    doc = json.dumps(given_by_stacks(generate(18, limits=Limits(min_mult=1))))
    builds = _stack_builds(monkeypatch)
    spec = load(doc)
    assert all(x.canonical is None for x in spec.bimodules)
    report = run_suite(spec)
    assert report["summary"]["passed"] == report["summary"]["total"] == 14
    assert builds == []


def test_loading_k_endomorphisms_builds_k_stack_pairs(monkeypatch):
    # the intertwiner test of an endomorphism reads its bimodule's stacks
    # once, for source and target: k stacks per side; the chain itself
    # builds none
    for seed, limits in ((0, None), (18, Limits(min_mult=1))):
        spec = generate(seed, limits)
        doc = save(spec)
        builds = _stack_builds(monkeypatch)
        loaded = load(doc)
        assert len(loaded.morphisms) == len(spec.morphisms) == 3
        assert [(id(x), side) for x, side in builds] == [
            (id(m.source), side) for m in loaded.morphisms
            for side in ("left", "right")]
        monkeypatch.undo()


def test_a_p_unit_that_is_no_projection_is_rejected():
    # the right action stays unital when h moves from e_00 to e_11, so the
    # factor is accepted; its sector bases are not orthonormal, and a
    # product's result would not be unital
    rng = np.random.default_rng(0)
    x, y = random_bim(rng, (2,), (2,), [[1]]), random_bim(rng, (2,), (2,), [[1]])
    right = x.right_units.copy()
    h = crandn(rng, x.dim, x.dim)
    right[0] += 0.1 * (h + h.conj().T)
    right[3] -= 0.1 * (h + h.conj().T)
    bad = Bimodule(x.left_algebra, x.right_algebra, x.left_units, right)
    for kind in KINDS:
        with pytest.raises(NotABimoduleError, match="not a projection"):
            tensor(kind, bad, y)
    # R(e_00) = R(e_11) = 1/2 is unital, and its pivoted Gram-Schmidt
    # returns orthonormal coordinate vectors: only P = V V^H rejects it
    m1, m2 = MultiMatrixAlgebra((1,)), MultiMatrixAlgebra((2,))
    half = np.zeros((4, 4, 4), dtype=complex)
    half[0] = half[3] = 0.5 * np.eye(4)
    bad = Bimodule(m1, m2, np.eye(4, dtype=complex)[None], half)
    with pytest.raises(NotABimoduleError, match="bimodule axioms"):
        bad.validate()
    for kind in KINDS:
        with pytest.raises(NotABimoduleError, match="not a projection"):
            tensor(kind, bad, standard_form(m2).bimodule)
    # M_2 by its matrix units and M_1 + M_1 by (P, 1 - P), P = v v^H: both
    # actions are unital and each unit a projection, but they do not
    # commute, so the corner L(e_00) R(e^0) = e_00 P is no projection
    v = np.array([1, 1j]) / np.sqrt(2)
    p = np.outer(v, v.conj())
    b = MultiMatrixAlgebra((1, 1))
    bad = Bimodule(m2, b, np.eye(4, dtype=complex).reshape(4, 2, 2),
                   np.stack([p, np.eye(2) - p]))
    with pytest.raises(NotABimoduleError, match="bimodule axioms"):
        bad.validate()
    for kind in KINDS:
        with pytest.raises(NotABimoduleError,
                           match=r"\(0, 0\) is not a projection"):
            tensor(kind, bad, standard_form(b).bimodule)
    # R(e^0) = diag(-2, 1), R(e^1) = diag(3, 0) is unital, and the trace
    # -1 of the first corner is no rank: Gram-Schmidt takes no step on it
    right = np.stack([np.diag([-2, 1]), np.diag([3, 0])]).astype(complex)
    bad = Bimodule(m1, b, np.eye(2, dtype=complex)[None], right)
    for kind in KINDS:
        with pytest.raises(NotABimoduleError,
                           match=r"\(0, 0\) is not a projection"):
            tensor(kind, bad, standard_form(b).bimodule)


def test_sector_bases_read_no_stack_and_small_matrices(monkeypatch):
    # selected from the frames of the canonical models, the factors or the
    # original: no result or dual builds its stacks for a sector basis's
    # frame columns, and a suite on a canonical chain runs no Gram-Schmidt
    spec = generate(18, limits=Limits(min_mult=1))
    depth, built, calls = [0], [], []
    bases, frame_stacks, gram_schmidt = (tensor_module._sector_columns,
                                         bimodule_module._frame_stacks,
                                         bimodule_module.range_basis)

    def counted_bases(*args):
        depth[0] += 1
        try:
            return bases(*args)
        finally:
            depth[0] -= 1

    def counted_stacks(x, side):
        if depth[0]:
            built.append((x, side))
        return frame_stacks(x, side)

    def counted_range(proj):
        calls.append(proj)
        return gram_schmidt(proj)
    monkeypatch.setattr(tensor_module, "_sector_columns", counted_bases)
    monkeypatch.setattr(bimodule_module, "_frame_stacks", counted_stacks)
    monkeypatch.setattr(bimodule_module, "range_basis", counted_range)
    report = run_suite(spec)
    assert report["summary"]["passed"] == report["summary"]["total"]
    assert built == []
    assert calls == []


def test_frame_stacks_are_built_afresh_on_every_read(monkeypatch):
    rng = np.random.default_rng(4)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    builds = _stack_builds(monkeypatch)
    with product_store():
        tp, xs = tensor_left(x, y), dual_bimodule(x)
        # neither the store, dim nor a morphism's shape check builds them
        assert tensor_left(x, y) is tp and dual_bimodule(x) is xs
        assert (tp.dim, xs.dim) == (tp.a.size, x.dim)
        Morphism(tp.result, tp.result, np.eye(tp.dim))
        assert builds == []
        # two reads are equal and not the same array, and a write into one
        # leaves the next read as it was; each read builds its own side
        for bim in (x, tp.result, xs):
            for side in ("left", "right"):
                first = getattr(bim, f"{side}_units")
                want = first.copy()
                first[...] = 7.0
                again = getattr(bim, f"{side}_units")
                assert again is not first
                assert np.array_equal(again, want)
        assert [(id(b), side) for b, side in builds] == [
            (id(b), side) for b in (x, tp.result, xs)
            for side in ("left", "left", "right", "right")]
    # a bimodule given by its stacks returns them as given
    left, right = x.left_units, x.right_units
    given = Bimodule(x.left_algebra, x.right_algebra, left, right)
    assert given.left_units is left and given.right_units is right


def test_each_action_read_builds_one_stack_of_its_own_side(monkeypatch):
    # left_units, right_units, left_action and right_action on a canonical
    # model, both products' results, a dual, a matrix extension and L2(A):
    # each read builds its own side's stack once and the other side's not
    rng = np.random.default_rng(4)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    y = random_bim(rng, (1, 2), (2,), [[1], [1]])
    bims = (x, tensor_left(x, y).result, tensor_right(x, y).result,
            dual_bimodule(x), matrix_extension(x, 2, 1),
            standard_form(x.left_algebra).bimodule)
    builds = _stack_builds(monkeypatch)
    for bim in bims:
        a = bim.left_algebra.random_element(rng)
        b = bim.right_algebra.random_element(rng)
        for side, read in (("left", lambda: bim.left_units),
                           ("right", lambda: bim.right_units),
                           ("left", lambda: bim.left_action(a)),
                           ("right", lambda: bim.right_action(b))):
            builds.clear()
            read()
            assert [(id(z), s) for z, s in builds] == [(id(bim), side)]
