"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints its own pass/fail
line on the real stdout (bypassing capture) so the verdicts are visible
in any test log.
"""

import json
import time

import numpy as np
import pytest

from bimodcat.algebra import standard_form
from bimodcat.bimodule import (Morphism, double_dual_iso, dual_bimodule,
                               multiplicity_matrix, random_morphism_matrix,
                               transpose)
from bimodcat.bounded import (left_bounded_basis, left_inner,
                              right_bounded_basis, right_inner, star_bounded)
from bimodcat.cli import main as cli_main
from bimodcat.coherence import (check_duality_square, check_involution_hexagon,
                                check_m_assoc, check_m_unit, check_pentagon,
                                check_triangle, run_suite)
from bimodcat.instances import Limits, generate
from bimodcat.involution import conjugation
from bimodcat.linalg import op_norm, random_unitary
from bimodcat.tensor import KIND_LEFT, KIND_RIGHT, m_iso, tensor
from oracles import m_realization

KINDS = (KIND_LEFT, KIND_RIGHT)
TOL = 1e-9


@pytest.fixture
def verdict(capsys):
    def _verdict(label: str, ok: bool, detail: str = ""):
        line = f"{label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


def test_criterion_1_triangle_and_pentagon(verdict):
    # 100 seeded instances, triangle + pentagon in both kinds, within budget
    start = time.monotonic()
    worst = 0.0
    failures = 0
    for seed in range(100):
        spec = generate(seed, limits=Limits())
        bs = spec.bimodules
        for kind in KINDS:
            results = [check_triangle(kind, bs[0], bs[1], TOL),
                       check_pentagon(kind, bs[0], bs[1], bs[2], bs[3], TOL)]
            for r in results:
                worst = max(worst, r.defect)
                failures += not r.passed
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed <= 60.0
    verdict("criterion-1 triangle/pentagon x100", ok,
             f"max defect {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_m_unit_and_assoc(verdict):
    # 50 triples, including reductions where an edge is a standard form
    failures = 0
    worst = 0.0
    for seed in range(50):
        spec = generate(seed, limits=Limits(), length=3)
        x, y, z = spec.bimodules[:3]
        if seed % 5 == 3:
            x = standard_form(y.left_algebra).bimodule      # X = L2(B)
        if seed % 5 == 4:
            z = standard_form(y.right_algebra).bimodule     # Z = L2(C)
        results = [check_m_unit(y, TOL)]
        if x.right_algebra.blocks == y.left_algebra.blocks:
            results.append(check_m_assoc(x, y, z, TOL))
        for r in results:
            worst = max(worst, r.defect)
            failures += not r.passed
    verdict("criterion-2 m-unit/m-assoc x50", failures == 0,
             f"max defect {worst:.2e}")


def test_criterion_3_m_realization_independence(verdict):
    # m, built from the products' members, equals the paper's construction
    # through bounded-vector realizations, with randomly rotated frames
    worst = 0.0
    for seed in range(25):
        spec = generate(seed, limits=Limits(), length=2)
        x, y = spec.bimodules[:2]
        m = m_iso(x, y)
        rng = np.random.default_rng(1000 + seed)
        m2 = m_realization(x, y,
                           right_rotation=random_unitary(rng, x.dim),
                           left_rotation=random_unitary(rng, y.dim))
        worst = max(worst, op_norm(m - m2))
    verdict("criterion-3 m realization-independence x25", worst <= TOL,
             f"max deviation {worst:.2e}")


def test_criterion_4_involution_laws(verdict):
    failures = 0
    worst = 0.0
    for seed in range(50):
        spec = generate(seed, limits=Limits(), length=3)
        x, y, z = spec.bimodules[:3]
        results = []
        for kind in KINDS:
            results.append(check_involution_hexagon(kind, x, y, z, TOL))
            results.append(check_duality_square(kind, x, y, TOL))
        for r in results:
            worst = max(worst, r.defect)
            failures += not r.passed
        # transpose of the double-dual map inverts the dual's double-dual map
        xs = dual_bimodule(x)
        d = op_norm(transpose(double_dual_iso(x)).matrix -
                    np.linalg.inv(double_dual_iso(xs).matrix))
        worst = max(worst, d)
        failures += d > TOL
        # transpose commutes with adjoints
        rng = np.random.default_rng(2000 + seed)
        f = Morphism(x, x, random_morphism_matrix(x, x, rng))
        d = op_norm(transpose(f.adjoint()).matrix -
                    transpose(f).adjoint().matrix)
        worst = max(worst, d)
        failures += d > TOL
        # the two single-kind conjugations intertwine through m
        if x.dim and y.dim:
            c_l = conjugation(KIND_LEFT, x, y)
            c_r = conjugation(KIND_RIGHT, x, y)
            m = m_iso(x, y)
            m_dual = m_iso(dual_bimodule(y), dual_bimodule(x))
            d = op_norm(c_r.matrix @ m_dual - np.linalg.solve(m.T, c_l.matrix))
            worst = max(worst, d)
            failures += d > TOL
    verdict("criterion-4 involution laws x50", failures == 0,
             f"max defect {worst:.2e}")


def _oracle_rank(gram: np.ndarray) -> int:
    if gram.size == 0:
        return 0
    w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    top = max(w.max(), 0.0)
    return int(np.sum(w > 1e-10 * max(top, 1.0)))


def test_criterion_5_gram_rank_oracle(verdict):
    # Gram ranks of both products, from a direct blockwise Gram built out of
    # the one-sided inner products (no quotient machinery), must match the
    # multiplicity-product prediction.
    failures = 0
    for seed in range(50):
        spec = generate(seed, limits=Limits(max_mult=2), length=2)
        x, y = spec.bimodules[:2]
        a_blocks = x.left_algebra.blocks
        c_blocks = y.right_algebra.blocks
        mu = multiplicity_matrix(x) @ multiplicity_matrix(y)
        predicted = sum(int(mu[k, l]) * n * m
                        for k, n in enumerate(a_blocks)
                        for l, m in enumerate(c_blocks))
        # ltimes: blocks pi(<x_i, x_j>_B) acting on Y
        xb = right_bounded_basis(x)
        n = len(xb)
        g1 = np.zeros((n * y.dim, n * y.dim), dtype=complex)
        for i in range(n):
            for j in range(n):
                g1[i * y.dim:(i + 1) * y.dim, j * y.dim:(j + 1) * y.dim] = \
                    y.left_action(right_inner(xb[i], xb[j]))
        # rtimes: blocks of the A-valued inner products acting on X
        yb = left_bounded_basis(y)
        n2 = len(yb)
        g2 = np.zeros((n2 * x.dim, n2 * x.dim), dtype=complex)
        for i in range(n2):
            for j in range(n2):
                g2[i * x.dim:(i + 1) * x.dim, j * x.dim:(j + 1) * x.dim] = \
                    x.right_action(left_inner(yb[j], yb[i]))
        for kind, rank in ((KIND_LEFT, _oracle_rank(g1)),
                           (KIND_RIGHT, _oracle_rank(g2))):
            tp_dim = tensor(kind, x, y).dim
            if not (rank == predicted == tp_dim):
                failures += 1
    verdict("criterion-5 Gram-rank oracle x50", failures == 0,
             f"{failures} mismatches")


def test_criterion_6_inner_product_identities(verdict):
    worst = 0.0
    draws = 0
    pool = []
    for seed in range(10):
        spec = generate(seed, limits=Limits(min_mult=1), length=1)
        pool.append(spec.bimodules[0])
    rng = np.random.default_rng(123)
    k = 0
    while draws < 200:
        x = pool[k % len(pool)]
        k += 1
        if x.dim == 0:
            continue
        a_alg, b_alg = x.left_algebra, x.right_algebra
        rb = right_bounded_basis(x)
        lb = left_bounded_basis(x)
        i, j = rng.integers(0, len(rb), size=2)
        g, g2 = rb[i], rb[j]
        f, f2 = lb[i], lb[j]
        a1, a2 = a_alg.random_element(rng), a_alg.random_element(rng)
        b1, b2 = b_alg.random_element(rng), b_alg.random_element(rng)
        # _A[a' f', a f] = a' _A[f', f] a*
        lhs = left_inner(f2.module_action(a1, None), f.module_action(a2, None))
        rhs = a1 @ left_inner(f2, f) @ a2.adjoint()
        worst = max(worst, max(op_norm(l - r)
                               for l, r in zip(lhs.data, rhs.data)))
        # [g b, g' b']_B = b* [g, g']_B b'
        lhs = right_inner(g.module_action(None, b1), g2.module_action(None, b2))
        rhs = b1.adjoint() @ right_inner(g, g2) @ b2
        worst = max(worst, max(op_norm(l - r)
                               for l, r in zip(lhs.data, rhs.data)))
        # [x', x]_B^* = _B[x-star, x'-star]
        sg, sg2 = star_bounded(g), star_bounded(g2)
        lhs = right_inner(g2, g).adjoint()
        rhs = left_inner(sg, sg2)
        worst = max(worst, max(op_norm(l - r)
                               for l, r in zip(lhs.data, rhs.data)))
        # (a x b)-star = b* x-star a*
        lhs = star_bounded(g.module_action(a1, b1))
        rhs = sg.module_action(b1.adjoint(), a1.adjoint())
        worst = max(worst, op_norm(lhs.matrix - rhs.matrix))
        draws += 1
    verdict("criterion-6 inner-product identities x200", worst <= 1e-8,
             f"max defect {worst:.2e}")


def test_criterion_7_mutation_sensitivity(verdict):
    roles = [("triangle-left", "assoc"), ("triangle-right", "left-unit"),
             ("triangle-left", "right-unit"), ("pentagon-left", "assoc"),
             ("pentagon-right", "assoc"), ("m-unit", "m"),
             ("m-unit", "left-unit"), ("m-assoc", "m"),
             ("m-assoc", "assoc"), ("hexagon-left", "c"),
             ("hexagon-right", "assoc"), ("duality-left", "c"),
             ("duality-right", "c")]
    detected = 0
    for trial in range(100):
        family, role = roles[trial % len(roles)]
        spec = generate(trial, limits=Limits(min_mult=1))
        mut_rng = np.random.default_rng(5000 + trial)
        rep = run_suite(spec, tol=TOL, suite=[family],
                        mutation=(role, mut_rng, 1e-3))
        if rep["summary"]["passed"] < rep["summary"]["total"]:
            detected += 1
    verdict("criterion-7 mutation sensitivity", detected >= 95,
             f"{detected}/100 trials detected")


def test_criterion_8_reproducible_reports(verdict, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    c1 = cli_main(["verify", "--seed", "42", "--json", "--out", str(p1)])
    c2 = cli_main(["verify", "--seed", "42", "--json", "--out", str(p2)])
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    ok = c1 == c2 == 0 and b1 == b2 and len(b1) > 0
    json.loads(b1)   # well-formed
    verdict("criterion-8 byte-identical verify reports", ok)
