import importlib
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from bimodcat.algebra import standard_form
from bimodcat.bimodule import Bimodule
from bimodcat.bounded import (BoundedVector, left_bounded_basis,
                              left_bounded_space, left_inner,
                              left_projective_realization,
                              right_bounded_basis, right_bounded_space,
                              right_inner, right_projective_realization,
                              star_bounded)
from bimodcat.linalg import op_norm
from random_bims import random_bim

bimodule_module = importlib.import_module("bimodcat.bimodule")


def test_bounded_basis_dimension_equals_module_dimension():
    rng = np.random.default_rng(0)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    assert right_bounded_space(x).size == x.dim
    assert left_bounded_space(x).size == x.dim


def test_bounded_vectors_are_intertwiners_and_orthonormal():
    rng = np.random.default_rng(1)
    x = random_bim(rng, (2, 1), (2,), [[1], [2]])
    for basis in (right_bounded_basis(x), left_bounded_basis(x)):
        for g in basis:
            assert g.defect() < 1e-12
        for i, g in enumerate(basis):
            for j, h in enumerate(basis):
                assert abs(g.hs_inner(h) - (i == j)) < 1e-12


def test_module_action_is_one_sided_linear():
    rng = np.random.default_rng(2)
    x = random_bim(rng, (2,), (2,), [[2]])
    b_alg = x.right_algebra
    g = right_bounded_basis(x)[0]
    b = b_alg.random_element(rng)
    moved = g.module_action(None, b)
    # (g . b)(beta) = g(b beta)
    beta = b_alg.random_element(rng)
    lhs = moved.matrix @ beta.vec
    rhs = g.matrix @ (b @ beta).vec
    assert np.linalg.norm(lhs - rhs) < 1e-12
    assert moved.defect() < 1e-10


def test_frame_identity_and_projective_realization():
    rng = np.random.default_rng(3)
    x = random_bim(rng, (2,), (1, 2), [[2, 1]])
    # right side: u u* has blocks L(p_ij); left side: blocks R(p_ij)
    for pr, action in ((right_projective_realization(x), "left"),
                       (left_projective_realization(x), "right")):
        maps = pr.frame_maps()
        s = sum(m @ m.conj().T for m in maps)
        assert op_norm(s - np.eye(x.dim)) < 1e-10
        u = pr.u_matrix()
        assert op_norm(u.conj().T @ u - np.eye(x.dim)) < 1e-10
        # u u* = the projection with entries p_ij
        p = pr.projection_entries()
        alg = pr.basis.algebra
        std = standard_form(alg).bimodule
        n = pr.size
        act = std.left_action if action == "left" else std.right_action
        blocks = np.zeros((n * alg.dim, n * alg.dim), dtype=complex)
        for i in range(n):
            for j in range(n):
                blocks[i * alg.dim:(i + 1) * alg.dim,
                       j * alg.dim:(j + 1) * alg.dim] = act(alg.unvec(p[i, j]))
        assert op_norm(u @ u.conj().T - blocks) < 1e-10
        assert op_norm(blocks @ blocks - blocks) < 1e-10


def test_right_inner_covariance():
    rng = np.random.default_rng(4)
    x = random_bim(rng, (2,), (2, 1), [[1, 1]])
    b_alg = x.right_algebra
    basis = right_bounded_basis(x)
    g, h = basis[0], basis[1]
    b1 = b_alg.random_element(rng)
    b2 = b_alg.random_element(rng)
    # [g b, g' b']_B = b* [g, g']_B b'
    lhs = right_inner(g.module_action(None, b1), h.module_action(None, b2))
    rhs = b1.adjoint() @ right_inner(g, h) @ b2
    assert lhs.allclose(rhs, tol=1e-9)
    # positivity: [g, g]_B >= 0
    diag = right_inner(g, g)
    for blk in diag.data:
        if blk.size:
            assert np.linalg.eigvalsh(0.5 * (blk + blk.conj().T)).min() > -1e-10


def test_left_inner_covariance():
    rng = np.random.default_rng(5)
    x = random_bim(rng, (2, 1), (2,), [[1], [1]])
    a_alg = x.left_algebra
    basis = left_bounded_basis(x)
    f, h = basis[0], basis[1]
    a1 = a_alg.random_element(rng)
    a2 = a_alg.random_element(rng)
    # _A[a' f', a f] = a' _A[f', f] a*
    lhs = left_inner(f.module_action(a1, None), h.module_action(a2, None))
    rhs = a1 @ left_inner(f, h) @ a2.adjoint()
    assert lhs.allclose(rhs, tol=1e-9)


def test_inner_rejects_wrong_side():
    rng = np.random.default_rng(6)
    x = random_bim(rng, (2,), (2,), [[1]])
    g = right_bounded_basis(x)[0]
    f = left_bounded_basis(x)[0]
    with pytest.raises(ValueError):
        right_inner(f, f)
    with pytest.raises(ValueError):
        left_inner(g, g)


def test_star_bounded_covariance_and_inner_identity():
    rng = np.random.default_rng(7)
    x = random_bim(rng, (2,), (1, 2), [[1, 1]])
    a_alg, b_alg = x.left_algebra, x.right_algebra
    basis = right_bounded_basis(x)
    x1, x2 = basis[0], basis[1]
    s1 = star_bounded(x1)
    assert s1.side == "left"
    assert s1.defect() < 1e-10
    # (a x b)-star = b* x-star a*
    a = a_alg.random_element(rng)
    b = b_alg.random_element(rng)
    lhs = star_bounded(x1.module_action(a, b))
    # X* is a B-A bimodule: b* acts on the left, a* on the right
    rhs = s1.module_action(b.adjoint(), a.adjoint())
    assert op_norm(lhs.matrix - rhs.matrix) < 1e-9
    # [x', x]_B^* = _B[x-star, x'-star]
    s2 = star_bounded(x2)
    lhs2 = right_inner(x2, x1).adjoint()
    rhs2 = left_inner(s1, s2)
    assert lhs2.allclose(rhs2, tol=1e-9)


def test_bounded_vector_shape_checked():
    rng = np.random.default_rng(8)
    x = random_bim(rng, (2,), (2,), [[1]])
    with pytest.raises(ValueError):
        BoundedVector("right", x, np.zeros((x.dim, 3)))
    with pytest.raises(ValueError):
        BoundedVector("up", x, np.zeros((x.dim, x.right_algebra.dim)))


def _stack_builds(monkeypatch):
    """The (bimodule, side) of each stack read off a frame."""
    builds, real = [], bimodule_module._frame_stacks

    def counted(y, side):
        builds.append((y, side))
        return real(y, side)
    monkeypatch.setattr(bimodule_module, "_frame_stacks", counted)
    return builds


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_bounded_basis_builds_one_stack_of_its_side(monkeypatch, side):
    # the space reads X's stack of its side once, for its form, and every
    # vector's full matrix reads the kept stack: no other stack is built
    rng = np.random.default_rng(1)
    x = random_bim(rng, (2, 1), (2,), [[1], [2]])
    builds = _stack_builds(monkeypatch)
    basis = {"right": right_bounded_basis, "left": left_bounded_basis}[side](x)
    assert len(basis) == x.dim
    assert [(id(y), s) for y, s in builds] == [(id(x), side)]


def test_a_bounded_basis_keeps_its_stack_read_only():
    # the kept stack is the bimodule's, sealed like the form and the
    # vectors; for given stacks the basis seals a view, not the given array
    rng = np.random.default_rng(1)
    x = random_bim(rng, (2, 1), (2,), [[1], [2]])
    given = Bimodule(x.left_algebra, x.right_algebra, x.left_units, x.right_units)
    for bim in (x, given):
        for sp in (right_bounded_space(bim), left_bounded_space(bim)):
            units = sp.action_units
            assert sp.action_units is units
            assert np.array_equal(units, getattr(bim, f"{sp.side}_units"))
            with pytest.raises(ValueError, match="read-only"):
                units[0, 0, 0] = 1.0
            with pytest.raises(FrozenInstanceError):
                sp.action_units = units.copy()
    for side in ("left", "right"):
        assert getattr(given, f"{side}_units").flags.writeable


def test_inner_products_and_actions_build_no_stack(monkeypatch):
    # an element acts through a scatter off the frame: once the bases are
    # built, inner products, module actions and the multiplications they
    # extract build no stack; a vector's defect reads two stacks of its
    # side, its bimodule's and L2's
    rng = np.random.default_rng(1)
    x = random_bim(rng, (2, 1), (2,), [[1], [2]])
    a, b = x.left_algebra, x.right_algebra
    rb, lb = right_bounded_basis(x), left_bounded_basis(x)
    a1, b1 = a.random_element(rng), b.random_element(rng)
    builds = _stack_builds(monkeypatch)
    for g, g2 in zip(rb, rb[1:]):
        right_inner(g, g2)
    for f, f2 in zip(lb, lb[1:]):
        left_inner(f2, f)
    g, f = rb[0].module_action(a1, b1), lb[0].module_action(a1, b1)
    assert builds == []
    for v in (rb[0], lb[0], g, f):
        builds.clear()
        assert v.defect() < 1e-12
        l2 = standard_form(v.algebra).bimodule
        assert [(id(y), side) for y, side in builds] == [(id(x), v.side),
                                                         (id(l2), v.side)]
    # a g b and a f b are the sums over the stacks
    def summed(bim, side, elem):
        return np.einsum("u,uij->ij", elem.vec, getattr(bim, f"{side}_units"))
    l2a, l2b = standard_form(a).bimodule, standard_form(b).bimodule
    for got, want in (
            (g, summed(x, "left", a1) @ rb[0].matrix @ summed(l2b, "left", b1)),
            (f, summed(x, "right", b1) @ lb[0].matrix @ summed(l2a, "right", a1))):
        assert np.abs(got.matrix - want).max() <= 1e-12


def test_criterion_6_builds_no_l2_stack(monkeypatch):
    # criterion 6 draws 200 vectors from two bounded bases it builds afresh
    # per draw, one stack each: 400 builds of its bimodules' stacks; its
    # inner products and module actions read elements' actions off the
    # frames and build no stack, of L2 or of a bimodule
    import test_acceptance
    builds = _stack_builds(monkeypatch)

    def verdict(label, ok, detail=""):
        assert ok, (label, detail)
    test_acceptance.test_criterion_6_inner_product_identities(verdict)
    assert len(builds) == 400
    assert not any(standard_form(y.left_algebra).bimodule is y for y, _ in builds)
