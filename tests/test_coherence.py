import importlib
import json

import numpy as np
import pytest

from bimodcat import coherence
from bimodcat.algebra import MultiMatrixAlgebra, standard_form
from bimodcat.bimodule import canonical_bimodule, dual_bimodule
from bimodcat.coherence import (CHECK_FAMILIES, CheckResult, check_duality_square,
                                check_involution_hexagon, check_m_assoc,
                                check_m_unit, check_naturality_suite,
                                check_pentagon, check_triangle, exit_code,
                                run_suite)
from bimodcat.instances import InstanceSpec, Limits, generate
from bimodcat.involution import conjugation
from bimodcat.linalg import random_unitary
from bimodcat.store import product_store, stored
from bimodcat.tensor import (KIND_LEFT, KIND_RIGHT, associator, left_unitor,
                             m_standard, right_unitor, tensor_left, tensor_right)

# the module, not the ``tensor`` function the package re-exports
tensor_module = importlib.import_module("bimodcat.tensor")
bounded_module = importlib.import_module("bimodcat.bounded")

KINDS = (KIND_LEFT, KIND_RIGHT)


def _bim(rng, a_blocks, b_blocks, mult):
    a = MultiMatrixAlgebra(a_blocks)
    b = MultiMatrixAlgebra(b_blocks)
    mult = np.asarray(mult)
    d = sum(n * int(mult[k, l]) * m
            for k, n in enumerate(a.blocks) for l, m in enumerate(b.blocks))
    return canonical_bimodule(a, b, mult, basis_unitary=random_unitary(rng, d))


def _chain(rng):
    a = MultiMatrixAlgebra((2,))
    b = MultiMatrixAlgebra((1, 2))
    x = _bim(rng, (2,), (1, 2), [[1, 1]])
    y = _bim(rng, (1, 2), (2,), [[1], [1]])
    z = _bim(rng, (2,), (2,), [[1]])
    return x, y, z


def test_individual_checks_pass():
    rng = np.random.default_rng(0)
    x, y, z = _chain(rng)
    for kind in KINDS:
        assert check_triangle(kind, x, y).passed
        assert check_involution_hexagon(kind, x, y, z).passed
        assert check_duality_square(kind, x, y).passed
    assert check_m_unit(x).passed
    assert check_m_assoc(x, y, z).passed
    for r in check_naturality_suite(x, y, z, rng):
        assert r.passed


def test_pentagon_passes():
    rng = np.random.default_rng(1)
    x, y, z = _chain(rng)
    for kind in KINDS:
        r = check_pentagon(kind, z, x, y, z)
        assert r.passed
        assert r.defect <= r.tol


def test_degenerate_zero_dimension():
    rng = np.random.default_rng(2)
    zero = _bim(rng, (1,), (2,), [[0]])
    other = _bim(rng, (2,), (2,), [[1]])
    assert zero.dim == 0
    r = check_triangle(KIND_LEFT, zero, _bim(rng, (2,), (2,), [[1]]))
    assert r.degenerate and r.passed and r.defect == 0.0
    assert check_m_unit(zero).degenerate


def test_mutation_breaks_checks():
    rng = np.random.default_rng(3)
    x, y, z = _chain(rng)
    mut_rng = np.random.default_rng(99)
    r = check_triangle(KIND_LEFT, x, y, mutation=("assoc", mut_rng, 1e-3))
    assert not r.passed and r.defect > r.tol
    r = check_m_unit(x, mutation=("m", mut_rng, 1e-3))
    assert not r.passed
    r = check_duality_square(KIND_RIGHT, x, y, mutation=("c", mut_rng, 1e-3))
    assert not r.passed
    # a mutation naming an edge the check does not use leaves it passing
    r = check_triangle(KIND_LEFT, x, y, mutation=("c", mut_rng, 1e-3))
    assert r.passed


def test_a_twisted_whiskered_edge_fails_its_check():
    # the pentagon's a_WXY (x) 1, m-assoc's m_XY (x) 1 and the hexagon's
    # 1 (x) c_XY are twisted as drawn, after whiskering: no leg handed to
    # tensor_morphisms is twisted, so none fails its B-linearity check
    rng = np.random.default_rng(3)
    x, y, z = _chain(rng)
    for check, role in (
            (lambda m: check_pentagon(KIND_LEFT, z, x, y, z, mutation=m), "assoc"),
            (lambda m: check_m_assoc(x, y, z, mutation=m), "m"),
            (lambda m: check_involution_hexagon(KIND_LEFT, x, y, z, mutation=m),
             "c")):
        r = check((role, np.random.default_rng(99), 1e-3))
        assert not r.passed and r.defect > r.tol and not r.error


def test_run_suite_report_structure_and_determinism():
    spec = generate(7, limits=Limits())
    rep1 = run_suite(spec)
    rep2 = run_suite(spec)
    assert rep1 == rep2
    names = [c["name"] for c in rep1["checks"]]
    assert names == sorted(names)
    assert set(names) <= set(CHECK_FAMILIES)
    s = rep1["summary"]
    assert s["total"] == len(names)
    assert s["passed"] == s["total"]
    assert s["errors"] == 0
    assert s["maxDefect"] <= 1e-9 * 1e3  # scale-aware per-check tolerances
    assert exit_code(rep1) == 0


@pytest.mark.parametrize("seed, limits", [(7, Limits()),
                                           (3, Limits(min_mult=1))])
def test_structural_checks_take_the_base_tolerance(seed, limits):
    # a structural edge is a unitary and enters the tolerance as 1, so only
    # the naturality squares' random f and g scale theirs
    spec = generate(seed, limits=limits)
    for base in (1e-9, 1e-7):
        rep = run_suite(spec, tol=base)
        assert rep["summary"]["passed"] == rep["summary"]["total"] == 14
        for c in rep["checks"]:
            if c["name"].startswith("naturality-"):
                assert c["tol"] > base
            else:
                assert c["tol"] == base, c


def test_run_suite_subset():
    spec = generate(8, limits=Limits())
    rep = run_suite(spec, suite=["m-unit", "triangle-left"])
    names = {c["name"] for c in rep["checks"]}
    assert names == {"m-unit", "triangle-left"}


def test_run_suite_mutation_failures_and_exit_codes():
    spec = generate(9, limits=Limits(min_mult=1))
    mut = ("assoc", np.random.default_rng(5), 1e-3)
    rep = run_suite(spec, mutation=mut,
                    suite=["triangle-left", "pentagon-left"])
    assert rep["summary"]["passed"] < rep["summary"]["total"]
    assert exit_code(rep) == 1


def test_guarded_errors_reported():
    # chain whose middle algebras do not match: tensor construction raises,
    # the suite keeps going and records an error result
    rng = np.random.default_rng(10)
    x = _bim(rng, (2,), (2,), [[1]])
    y = _bim(rng, (1,), (2,), [[1]])   # left algebra mismatch with x's right
    spec = InstanceSpec.__new__(InstanceSpec)
    object.__setattr__(spec, "seed", 0)
    object.__setattr__(spec, "limits", Limits())
    object.__setattr__(spec, "algebras", (x.left_algebra, x.right_algebra,
                                          y.right_algebra))
    object.__setattr__(spec, "bimodules", (x, y))
    object.__setattr__(spec, "morphisms", ())
    rep = run_suite(spec, suite=["triangle-left", "duality-left", "m-unit"])
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["m-unit"]["passed"]
    assert not by_name["duality-left"]["passed"]
    assert by_name["duality-left"]["error"]
    assert rep["summary"]["errors"] >= 1
    assert exit_code(rep) == 2


def _mismatched_spec():
    """A 3-chain whose second bimodule's left algebra is not the first's right."""
    rng = np.random.default_rng(11)
    x = _bim(rng, (2,), (2,), [[1]])
    y = _bim(rng, (1,), (2,), [[1]])   # left algebra mismatch with x's right
    z = _bim(rng, (2,), (2,), [[1]])
    spec = InstanceSpec.__new__(InstanceSpec)
    object.__setattr__(spec, "seed", 0)
    object.__setattr__(spec, "limits", Limits())
    object.__setattr__(spec, "algebras", (x.left_algebra, x.right_algebra,
                                          y.right_algebra, z.right_algebra))
    object.__setattr__(spec, "bimodules", (x, y, z))
    object.__setattr__(spec, "morphisms", ())
    return spec


def test_naturality_subset_reports_construction_error():
    # a naturality-only suite on a chain with mismatched middle algebras
    # still reports the failed construction, under the family's name
    spec = _mismatched_spec()
    rep = run_suite(spec, suite=["naturality-m"])
    assert [c["name"] for c in rep["checks"]] == ["naturality"]
    assert "middle algebras differ" in rep["checks"][0]["error"]
    assert exit_code(rep) == 2


def test_suite_builds_each_member_product_once(monkeypatch):
    # a full 4-chain suite asks the store for a product 206 times and
    # builds 50; no bounded space is built, since products and maps come
    # from the sector bases
    builds = {"product": 0, "bounded": 0}

    def counted(module, name, kind):
        build = getattr(module, name)

        def wrapper(*args):
            builds[kind] += 1
            return build(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(tensor_module, "_tensor_product", "product")
    counted(bounded_module, "_bounded_space", "bounded")
    spec = generate(0, limits=Limits())
    assert len(spec.bimodules) == 4
    assert exit_code(run_suite(spec)) == 0
    assert builds == {"product": 50, "bounded": 0}


def test_suite_builds_m_once_per_pair(monkeypatch):
    # a dense suite asks for m 7 times for 6 pairs (X, Y); each pair's m
    # is built once and shared read-only
    asked, builds = [], []

    def ask(x, y, real=coherence.m_iso):
        asked.append((x, y))
        return real(x, y)
    monkeypatch.setattr(coherence, "m_iso", ask)
    build = tensor_module._m_iso

    def counted(x, y):
        builds.append(build(x, y))
        return builds[-1]
    monkeypatch.setattr(tensor_module, "_m_iso", counted)
    assert exit_code(run_suite(generate(18, limits=Limits(min_mult=1)))) == 0
    assert len(asked) == 7
    assert len(builds) == len({(id(x), id(y)) for x, y in asked}) == 6
    assert not any(m.flags.writeable for m in builds)


def _assert_no_store(x, z):
    assert tensor_left(x, z) is not tensor_left(x, z)
    assert dual_bimodule(x) is not dual_bimodule(x)


def test_no_store_after_run_suite():
    spec = _mismatched_spec()
    x, _, z = spec.bimodules
    rep = run_suite(spec)
    assert rep["summary"]["errors"] > 0     # checks raised inside the store
    _assert_no_store(x, z)


def test_no_store_after_run_suite_raises(monkeypatch):
    class Abort(BaseException):
        pass

    def abort(*args, **kwargs):
        raise Abort

    spec = _mismatched_spec()
    x, _, z = spec.bimodules
    monkeypatch.setattr(coherence, "check_m_unit", abort)
    with pytest.raises(Abort):
        run_suite(spec)
    _assert_no_store(x, z)


def test_run_suite_reports_do_not_depend_on_earlier_calls():
    specs = (generate(3, limits=Limits()), generate(4, limits=Limits()))
    in_turn = [run_suite(s) for s in specs]
    standard_form.cache_clear()
    fresh = [run_suite(s) for s in reversed(specs)][::-1]
    assert json.dumps(in_turn) == json.dumps(fresh)


def test_store_keeps_every_product():
    rng = np.random.default_rng(2)
    x, y, z = _chain(rng)
    with product_store():
        t_xy = tensor_left(x, y)
        assert tensor_left(x, y) is t_xy
        assert tensor_right(x, y) is not t_xy
        # a product of a product's result is kept too
        t_xy_z = tensor_left(t_xy.result, z)
        assert tensor_left(t_xy.result, z) is t_xy_z
        for tp in (t_xy, t_xy_z):
            assert not tp.members.a.flags.writeable
            assert not tp.result.left_units.flags.writeable
            # so are the sector columns the product was built from
            for cols in stored(tensor_module._sector_columns,
                               tp.right_factor, "left", KIND_LEFT):
                assert not cols.flags.writeable
        # the factors' arrays stay as given, the basis unitary a canonical
        # model keeps as its frame among them
        for factor in (x, y, z):
            assert factor.left_units.flags.writeable
            assert factor.right_units.flags.writeable
            assert factor.canonical[1].flags.writeable
            assert factor.frame.w is factor.canonical[1]
        xs, ys = dual_bimodule(x), dual_bimodule(y)
        assert dual_bimodule(x) is xs
        assert tensor_right(ys, xs) is tensor_right(ys, xs)
    _assert_no_store(x, y)


def _count_products(monkeypatch) -> list:
    """Kinds of the products built from now on (each store miss is one)."""
    builds = []
    build = tensor_module._tensor_product

    def counted(*args):
        builds.append(args[0])
        return build(*args)
    monkeypatch.setattr(tensor_module, "_tensor_product", counted)
    return builds


@pytest.mark.parametrize("family, check, lead, arity", [
    ("hexagon-left", check_involution_hexagon, (KIND_LEFT,), 3),
    ("hexagon-right", check_involution_hexagon, (KIND_RIGHT,), 3),
    ("duality-left", check_duality_square, (KIND_LEFT,), 2),
    ("duality-right", check_duality_square, (KIND_RIGHT,), 2),
    ("m-assoc", check_m_assoc, (), 3),
    ("m-unit", check_m_unit, (), 1),
])
def test_check_on_its_own_builds_what_the_suite_builds(monkeypatch, family,
                                                        check, lead, arity):
    # a check called outside any store opens its own, so it builds each
    # product once, as inside run_suite, and leaves no store open
    spec = generate(0, limits=Limits(), length=3)
    x, y, _ = spec.bimodules
    builds = _count_products(monkeypatch)
    assert exit_code(run_suite(spec, suite=[family])) == 0
    in_suite = len(builds)
    builds.clear()
    assert check(*lead, *spec.bimodules[:arity]).passed
    assert len(builds) == in_suite
    if family == "hexagon-left":
        assert in_suite == 10
    _assert_no_store(x, y)


@pytest.mark.parametrize("call, products", [
    (lambda x, y, z: conjugation(KIND_LEFT, x, y), 2),
    (lambda x, y, z: conjugation(KIND_RIGHT, x, y), 2),
    (lambda x, y, z: m_standard(MultiMatrixAlgebra((1, 2)), 2, 2), 4),
    (lambda x, y, z: associator(KIND_LEFT, x, y, z), 4),
    (lambda x, y, z: associator(KIND_RIGHT, x, y, z), 4),
    (lambda x, y, z: left_unitor(KIND_LEFT, y), 1),
    (lambda x, y, z: right_unitor(KIND_RIGHT, y), 1),
], ids=["conjugation-left", "conjugation-right", "m_standard",
        "associator-left", "associator-right", "left_unitor", "right_unitor"])
def test_library_call_on_its_own_builds_each_product_once(monkeypatch, call,
                                                          products):
    # a library call outside any store builds each product it needs once,
    # as inside an open store, and leaves no store open
    x, y, z = generate(0, limits=Limits(), length=3).bimodules
    builds = _count_products(monkeypatch)
    call(x, y, z)
    assert len(builds) == products
    builds.clear()
    with product_store():
        call(x, y, z)
    assert len(builds) == products
    _assert_no_store(x, y)


def test_nested_store_joins_the_open_one():
    rng = np.random.default_rng(3)
    x, y, z = _chain(rng)
    with product_store():
        t_xy = tensor_left(x, y)
        with product_store():
            assert tensor_left(x, y) is t_xy
            t_yz = tensor_left(y, z)
        # the inner block kept its values in the outer store
        assert tensor_left(y, z) is t_yz
    _assert_no_store(x, y)


def test_empty_instance_gives_empty_report():
    spec = InstanceSpec(seed=0, limits=Limits(), algebras=(), bimodules=())
    rep = run_suite(spec)
    assert rep["checks"] == []
    assert exit_code(rep) == 0


def test_check_result_as_dict():
    r = CheckResult(name="x", defect=1.0, tol=2.0, passed=True, dims=(1, 2))
    d = r.as_dict()
    assert d == {"name": "x", "defect": 1.0, "tol": 2.0, "passed": True,
                 "dims": [1, 2], "degenerate": False, "error": ""}
