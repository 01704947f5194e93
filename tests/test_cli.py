import copy
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bimodcat import cli, coherence
from bimodcat.algebra import MultiMatrixAlgebra
from bimodcat.bimodule import canonical_bimodule
from bimodcat.cli import main
from bimodcat.instances import (InstanceSpec, Limits, _encode, generate,
                                load_lenient, save, to_document)
from bimodcat.linalg import op_norm, permutation_matrix
from bimodcat.tensor import tensor_left, tensor_right
from oracles import gram, psd_rank
from stacks import given_by_stacks

# the modules, not the functions the package re-exports
tensor_module = importlib.import_module("bimodcat.tensor")
bimodule_module = importlib.import_module("bimodcat.bimodule")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_default_passes(capsys):
    code, out, err = _run(capsys, "verify", "--seed", "0")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_json_byte_identical(capsys):
    code1, out1, _ = _run(capsys, "verify", "--seed", "42", "--json")
    code2, out2, _ = _run(capsys, "verify", "--seed", "42", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["seed"] == 42
    assert rep["summary"]["passed"] == rep["summary"]["total"]


def test_repeated_calls_in_one_process_match_fresh_processes(capsys,
                                                             monkeypatch):
    # the parser and the algebra tables are kept for the process; each call
    # gives the bytes and exit code of a fresh ``python -m bimodcat``
    monkeypatch.delenv("BIMODULE_TOL", raising=False)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for argv in (["verify", "--seed", "3", "--suite", "m-unit", "--json"],
                 ["verify", "--seed", "3", "--json"],
                 ["verify", "--seed", "3"],
                 ["verify", "--seed", "3", "--tol", "1e-3"],
                 ["verify", "--suite", ","],
                 ["verify", "--seed", "3", "--json"]):
        code, out, _ = _run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "bimodcat", *argv],
                               capture_output=True, env=env, check=False)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv
    assert cli._build_parser() is cli._build_parser()


def test_verify_suite_subset_and_unknown(capsys, tmp_path):
    code, out, _ = _run(capsys, "verify", "--seed", "1", "--json",
                        "--suite", "m-unit,triangle-left")
    assert code == 0
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert names == {"m-unit", "triangle-left"}
    code, _, err = _run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown check families" in err
    # a --suite that names no family is a usage error, not an empty run
    for value in (",", "", " , "):
        code, out, err = _run(capsys, "verify", "--suite", value)
        assert code == 2
        assert "--suite" in err
        assert out == ""
    # so is a run in which no check applies to the chain
    path = tmp_path / "pair.json"
    path.write_bytes(save(generate(1, length=2)))
    code, out, err = _run(capsys, "verify", "--instance", str(path), "--json",
                          "--suite", "pentagon-left")
    assert code == 2
    assert "--suite pentagon-left" in err and "2 bimodule" in err
    assert out == ""
    path.write_bytes(save(generate(1, length=0)))
    code, out, err = _run(capsys, "verify", "--instance", str(path))
    assert code == 2
    assert "0 bimodule" in err
    assert out == ""


def test_verify_tol_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("BIMODULE_TOL", "1e-30")
    code, out, _ = _run(capsys, "verify", "--seed", "0", "--json",
                        "--suite", "m-unit")
    rep = json.loads(out)
    assert rep["tolerance"] == 1e-30
    code, out, _ = _run(capsys, "verify", "--seed", "0", "--json",
                        "--suite", "m-unit", "--tol", "1e-9")
    rep = json.loads(out)
    assert rep["tolerance"] == 1e-9
    assert code == 0


def test_verify_honours_a_tol_below_1e_12(capsys):
    # no floor raises --tol: at 1e-20 every defect of about 1e-15 fails;
    # the checks whose paths are exact permutations read 0 and pass
    code, out, _ = _run(capsys, "verify", "--seed", "0", "--tol", "1e-20", "--json")
    rep = json.loads(out)
    assert code == 1
    assert rep["tolerance"] == 1e-20
    assert rep["checks"] and all(c["tol"] == 1e-20 for c in rep["checks"])
    assert all(not c["passed"] for c in rep["checks"] if c["defect"] > 0)


def test_verify_env_tol_used(capsys, monkeypatch):
    monkeypatch.setenv("BIMODULE_TOL", "1e-6")
    code, out, _ = _run(capsys, "verify", "--seed", "0", "--json",
                        "--suite", "m-unit")
    assert json.loads(out)["tolerance"] == 1e-6
    assert code == 0


def test_verify_jobs_option_removed(capsys):
    # the suite runs serially; --jobs is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "3", "--jobs", "2"])
    assert exc.value.code == 2


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


def test_verify_corrupted_instance_fails(capsys, tmp_path):
    doc = to_document(generate(2))
    doc["bimodules"][1]["basis_unitary"][0][0] = [50.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--instance", str(path), "--json")
    assert code == 1
    # the infinite defect of the violation is written as null
    rep = json.loads(out, parse_constant=_reject_constant)
    bad = [c for c in rep["checks"] if c["name"] == "instance-valid"]
    assert bad and all(not c["passed"] and c["defect"] is None for c in bad)
    assert rep["summary"]["maxDefect"] is None
    assert rep["version"] == 2
    # the text report still prints it as inf
    code, out, _ = _run(capsys, "verify", "--instance", str(path))
    assert code == 1
    assert "defect=inf" in out and "max defect inf" in out


def test_a_morphism_that_is_no_intertwiner_is_reported(capsys, tmp_path):
    # gen --seed 1 with morphism 0's matrix a random real one of its shape:
    # verify drops the morphism and reports it with its finite defect,
    # which maxDefect counts; tensor refuses the document
    doc = to_document(generate(1))
    rows, cols = np.shape(doc["morphisms"][0]["matrix"])[:2]
    matrix = np.random.default_rng(0).standard_normal((rows, cols))
    doc["morphisms"][0]["matrix"] = _encode(matrix)
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(doc))
    spec, violations = load_lenient(path.read_bytes())
    assert [msg.split(":")[0] for msg, _ in violations] == ["$.morphisms[0]"]
    assert len(spec.morphisms) == len(generate(1).morphisms) - 1
    code, out, _ = _run(capsys, "verify", "--instance", str(path), "--json")
    assert code == 1
    rep = json.loads(out, parse_constant=_reject_constant)
    (bad,) = [c for c in rep["checks"] if c["name"] == "instance-valid"]
    assert bad["error"].startswith("$.morphisms[0]: matrix is not an intertwiner")
    assert bad["defect"] == violations[0][1] > 1e-8
    assert all(c["passed"] for c in rep["checks"] if c is not bad)
    assert rep["summary"]["maxDefect"] == max(c["defect"] for c in rep["checks"])
    code, out, err = _run(capsys, "tensor", "--instance", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("bimodcat: $.morphisms[0]: matrix is not an intertwiner"), err


def test_instance_violations_are_listed_in_document_order(capsys, tmp_path):
    # gen --seed 1 with morphisms 0 and 1 random real matrices: both are
    # dropped and reported, morphism 0 first
    doc = to_document(generate(1))
    rng = np.random.default_rng(0)
    for m in doc["morphisms"][:2]:
        m["matrix"] = _encode(rng.standard_normal(np.shape(m["matrix"])[:2]))
    path = tmp_path / "morphisms.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--instance", str(path), "--json")
    assert code == 1
    rep = json.loads(out, parse_constant=_reject_constant)
    bad = [c["error"].split(":")[0] for c in rep["checks"]
           if c["name"] == "instance-valid"]
    assert bad == ["$.morphisms[0]", "$.morphisms[1]"]


def test_verify_raising_check_is_strict_json(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(coherence, "check_m_unit", boom)
    code, out, _ = _run(capsys, "verify", "--seed", "0", "--json",
                        "--suite", "m-unit,triangle-left")
    assert code == 2
    rep = json.loads(out, parse_constant=_reject_constant)
    (raised,) = [c for c in rep["checks"] if c["error"]]
    assert raised["name"] == "m-unit" and raised["defect"] is None
    assert raised["error"] == "ValueError: boom"
    assert rep["summary"]["maxDefect"] is None
    assert rep["summary"]["errors"] == 1


def test_verify_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify", "--seed", "0", "--json",
                        "--out", str(path))
    assert code == 0
    assert out == ""
    rep = json.loads(path.read_text())
    assert rep["summary"]["passed"] == rep["summary"]["total"]


def test_gen_deterministic_and_loadable(capsys, tmp_path):
    code, out1, _ = _run(capsys, "gen", "--seed", "7")
    assert code == 0
    _, out2, _ = _run(capsys, "gen", "--seed", "7")
    assert out1 == out2
    assert out1.encode() == save(generate(7))
    path = tmp_path / "inst.json"
    code, out, _ = _run(capsys, "gen", "--seed", "7", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out1.encode()
    code, out, _ = _run(capsys, "verify", "--instance", str(path), "--json")
    assert code == 0


def test_gen_invalid_limits(capsys):
    code, _, err = _run(capsys, "gen", "--max-blocks", "0")
    assert code == 2
    assert "invalid limits" in err
    code, _, err = _run(capsys, "gen", "--min-mult", "5", "--max-mult", "2")
    assert code == 2
    # a chain must hold at least one bimodule
    for length in ("0", "-1"):
        code, out, err = _run(capsys, "gen", "--length", length)
        assert code == 2
        assert "--length" in err
        assert out == ""


def test_tensor_report(capsys):
    code, out, _ = _run(capsys, "tensor", "--seed", "0", "--json")
    assert code == 0
    info = json.loads(out)
    assert set(info) == {"dims", "gramRank", "multiplicities",
                         "mUnitaryDefect"}
    assert info["mUnitaryDefect"] < 1e-9
    code, out, _ = _run(capsys, "tensor", "--seed", "0")
    assert code == 0
    assert "Gram rank" in out
    # gramRank is the product dimension; the Gram's own rank is the reference
    for seed in range(10):
        _, out, _ = _run(capsys, "tensor", "--seed", str(seed), "--json")
        x, y = generate(seed, length=2).bimodules
        assert json.loads(out)["gramRank"] == {
            "ltimes": psd_rank(gram(tensor_left(x, y)), scale=1.0),
            "rtimes": psd_rank(gram(tensor_right(x, y)), scale=1.0)}


def test_tensor_on_the_stack_form_reports_the_canonical_form(capsys, tmp_path):
    # given by its stacks, a chain's frames come from pivoted Gram-Schmidt,
    # and so do its products' results' multiplicities; they report what
    # the canonical form reports
    path = tmp_path / "pair.json"
    for seed in range(5):
        spec = generate(seed, length=2)
        reports = []
        for doc in (to_document(spec), given_by_stacks(spec)):
            path.write_text(json.dumps(doc))
            code, out, _ = _run(capsys, "tensor", "--instance", str(path),
                                "--json")
            assert code == 0
            reports.append(json.loads(out, parse_constant=pytest.fail))
        for key in ("dims", "gramRank", "multiplicities"):
            assert reports[0][key] == reports[1][key], (seed, key)


def test_verify_checks_the_suite_with_the_library_before_loading(capsys,
                                                                 monkeypatch,
                                                                 tmp_path):
    # an unknown family is reported by the library's own check, and
    # before the instance is read: a document that does not exist is not
    # reached
    asked, wanted = [], coherence._wanted

    def spy(suite):
        asked.append(list(suite))
        return wanted(suite)
    monkeypatch.setattr(coherence, "_wanted", spy)
    code, out, err = _run(capsys, "verify", "--instance",
                          str(tmp_path / "missing.json"),
                          "--suite", "m-unit,triangle")
    assert code == 2 and out == ""
    assert "unknown check families: triangle" in err
    assert asked == [["m-unit", "triangle"]]


def test_tensor_builds_each_product_once(capsys, monkeypatch):
    # m takes the two products the report reads from the command's store,
    # and the multiplicities are counted off the frames: no bimodule, chain
    # bimodule, result or dual, builds its stacks
    builds, stacks = [], []
    build, frame_stacks = tensor_module._tensor_product, bimodule_module._frame_stacks

    def counted(*args):
        builds.append(args[0])
        return build(*args)

    def counted_stacks(x, side):
        stacks.append((x, side))
        return frame_stacks(x, side)
    monkeypatch.setattr(tensor_module, "_tensor_product", counted)
    monkeypatch.setattr(bimodule_module, "_frame_stacks", counted_stacks)
    for seed in range(5):
        builds.clear()
        code, _, _ = _run(capsys, "tensor", "--seed", str(seed))
        assert code == 0
        assert sorted(builds) == ["left", "right"]
    assert stacks == []
    # the command leaves no store open
    x, y = generate(0, length=2).bimodules
    assert tensor_left(x, y) is not tensor_left(x, y)


def test_tensor_tol_bounds_the_m_defect(capsys, monkeypatch, tmp_path):
    # m is an index array, so its defect reads 0.0 for every --tol.  The
    # exit test is 10 tol for every --tol, 1e-7 at the default: an m that
    # sends two members to one target (defect ||P^H P - 1|| = 1) fails the
    # default and passes --tol 0.2.  Every block has size 1 and X rtimes Y
    # has one corner, so that m still keeps labels and corner bases
    for tol in ("1e-8", "1e-17"):
        code, out, _ = _run(capsys, "tensor", "--seed", "3", "--json",
                            "--tol", tol)
        assert code == 0
        assert json.loads(out)["mUnitaryDefect"] == 0.0
    a, b = MultiMatrixAlgebra((1,)), MultiMatrixAlgebra((1, 1))
    x = canonical_bimodule(a, b, np.array([[2, 1]]))
    y = canonical_bimodule(b, a, np.array([[2], [1]]))
    path = tmp_path / "ones.json"
    path.write_bytes(save(InstanceSpec(
        seed=0, limits=Limits(max_mult=2), algebras=(a, b, a),
        bimodules=(x, y), morphisms=())))
    real = tensor_module._m_perm
    merged = []

    def merge(x, y):
        perm = real(x, y).copy()
        perm[1] = perm[0]
        merged.append(perm)
        return perm
    monkeypatch.setattr(tensor_module, "_m_perm", merge)
    code, out, _ = _run(capsys, "tensor", "--instance", str(path), "--json")
    assert code == 1
    m = permutation_matrix(merged[-1])
    assert abs(json.loads(out)["mUnitaryDefect"]
               - op_norm(m.conj().T @ m - np.eye(len(m)))) <= 1e-12
    code, out, _ = _run(capsys, "tensor", "--instance", str(path),
                        "--tol", "0.2")
    assert code == 0
    assert "m unitarity defect      = 1.000e+00" in out


def test_tensor_fails_an_m_that_is_no_bimodule_map(capsys, monkeypatch):
    # m with two members of different corners of X rtimes Y swapped is
    # still a permutation, so its unitarity defect reads 0.0; it moves frame
    # labels, so it is no bimodule map: exit 1 and a stderr line naming m,
    # with the report as it was.  The products of seeds 0, 3, 4 and 6 have
    # 2, 2, 6 and 4 members, each in a corner of its own
    seeds = (0, 3, 4, 6)
    want = {}
    for seed in seeds:
        want[seed] = _run(capsys, "tensor", "--seed", str(seed), "--json")
        assert want[seed][0] == 0 and want[seed][2] == ""
    real = tensor_module._m_perm

    def swapped(x, y):
        perm = real(x, y).copy()
        frame = tensor_module.tensor_right(x, y).result.frame
        corners = list(zip(frame.left[perm], frame.right[perm]))
        other = next(j for j, c in enumerate(corners) if c != corners[0])
        perm[[0, other]] = perm[[other, 0]]
        return perm
    monkeypatch.setattr(tensor_module, "_m_perm", swapped)
    for seed in seeds:
        code, out, err = _run(capsys, "tensor", "--seed", str(seed), "--json")
        assert code == 1
        assert out == want[seed][1]
        assert err.startswith("bimodcat: m moves frame labels or corner bases")


def test_tensor_mismatched_chain(capsys, tmp_path):
    doc = to_document(generate(0, length=2))
    # break composability: point the second bimodule at an algebra within
    # the limits (M2, against the chain's C) and drop what no longer fits
    # it, so that only the chain can reject the document
    assert doc["algebras"][1]["blocks"] == [1]
    doc["algebras"].append({"blocks": [2]})
    doc["bimodules"][1]["left"] = len(doc["algebras"]) - 1
    del doc["bimodules"][1]["basis_unitary"]
    doc["morphisms"] = [m for m in doc["morphisms"]
                        if 1 not in (m["source"], m["target"])]
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "tensor", "--instance", str(path))
    assert code == 2
    assert out == ""
    assert "$.bimodules[1].left" in err
    # a chain one algebra short names the right end of its last bimodule
    doc = to_document(generate(0, length=2))
    doc["algebras"].pop()
    doc["bimodules"][1]["right"] = 1
    del doc["bimodules"][1]["basis_unitary"]
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "verify", "--instance", str(path))
    assert code == 2
    assert "$.bimodules[1].right" in err


def test_tensor_needs_two_bimodules(capsys, tmp_path):
    path = tmp_path / "one.json"
    code, _, _ = _run(capsys, "gen", "--length", "1", "--out", str(path))
    assert code == 0
    code, out, err = _run(capsys, "tensor", "--instance", str(path))
    assert (code, out) == (2, "")
    assert "need at least two bimodules in the chain" in err


def test_missing_instance_file(capsys):
    code, _, err = _run(capsys, "verify", "--instance", "/nonexistent.json")
    assert code == 2


def test_structurally_bad_instance(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = _run(capsys, "verify", "--instance", str(path))
    assert code == 2
    assert "bimodcat:" in err


def _explicit_actions(left_cut=(), right_cut=()):
    """Corrupter: bimodule 0 as its two action stacks, each indexed by a cut."""
    x = generate(1).bimodules[0]

    def corrupt(doc):
        doc["bimodules"][0] = {
            "left": 0, "right": 1,
            "left_action": _encode(x.left_units[left_cut]),
            "right_action": _encode(x.right_units[right_cut])}
    return corrupt


def test_malformed_instance_fields_exit_2(capsys, tmp_path):
    cases = (("$.seed", lambda doc: doc.update(seed="x")),
             ("$.bimodules[0].left",
              lambda doc: doc["bimodules"][0].update(left="a")),
             ("$.algebras[0]", lambda doc: doc["algebras"].__setitem__(0, 7)),
             ("$.algebras", lambda doc: doc.update(algebras=3)),
             ("$.morphisms", lambda doc: doc.update(morphisms=3)),
             ("$.limits.min_mult",
              lambda doc: doc["limits"].update(min_mult=None)),
             ("$.seed", lambda doc: doc.update(seed=1.5)),
             ("$.seed", lambda doc: doc.update(seed=True)),
             ("$.seed", lambda doc: doc.update(seed=-3)),
             ("$.limits.max_dim", lambda doc: doc["limits"].update(max_dim=40.9)),
             ("$.limits", lambda doc: doc["limits"].update(max_dim=3)),
             ("$.algebras[0].blocks",
              lambda doc: doc["algebras"][0].update(blocks=[2.5])),
             ("$.morphisms[0].source",
              lambda doc: doc["morphisms"][0].update(source=0.5)),
             ("$.morphisms[0].matrix",
              lambda doc: doc["morphisms"][0].update(matrix="x")),
             ("$.bimodules[0].basis_unitary",
              lambda doc: doc["bimodules"][0].update(basis_unitary="x")),
             ("$.bimodules[0].basis_unitary",
              lambda doc: doc["bimodules"][0]["basis_unitary"].pop()),
             # strings and booleans cast to float, also among numbers
             ("$.bimodules[0].basis_unitary",
              lambda doc: doc["bimodules"][0]["basis_unitary"][0].__setitem__(
                  0, ["1.0", "0"])),
             ("$.morphisms[0].matrix",
              lambda doc: doc["morphisms"][0]["matrix"][0].__setitem__(
                  0, [True, False])),
             ("$.bimodules[0].basis_unitary",
              lambda doc: doc["bimodules"][0]["basis_unitary"][0].__setitem__(
                  0, [True, 0.5])),
             ("$.bimodules[0].basis_unitary",
              lambda doc: doc["bimodules"][0]["basis_unitary"][0].__setitem__(
                  0, [10 ** 400, 0])),
             ("$.bimodules[0].left_action",
              lambda doc: doc["bimodules"].__setitem__(0, {
                  "left": 0, "right": 1, "left_action": "x",
                  "right_action": "x"})),
             ("$.bimodules[0].multiplicities",
              lambda doc: doc["bimodules"][0].update(multiplicities="x")),
             ("$.bimodules[0].multiplicities",
              lambda doc: doc["bimodules"][0]["multiplicities"].append([1])),
             ("$.bimodules[0].multiplicities",
              lambda doc: doc["bimodules"][0]["multiplicities"][0].__setitem__(
                  0, -1)),
             ("$.bimodules[0].multiplicities",
              lambda doc: doc["bimodules"][0]["multiplicities"][0].__setitem__(
                  0, 1.7)))

    def verify(corrupt):
        doc = to_document(generate(1))
        corrupt(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", "--instance", str(path))
        assert code == 2, err
        assert out == ""
        return err

    for field, corrupt in cases:
        err = verify(corrupt)
        assert err.startswith(f"bimodcat: {field}:"), err
    # sizes over the document's own limits, rejected before any bimodule is
    # built: bimodule 0 is a M2-(M2 + C) bimodule, dimension 4 per unit of
    # its first multiplicity
    for field, limit, corrupt in (
            ("$.algebras[0].blocks", "max_block",
             lambda doc: doc["algebras"][0].update(blocks=[3])),
            ("$.algebras[0].blocks", "max_blocks",
             lambda doc: doc["algebras"][0].update(blocks=[2, 1, 1])),
            ("$.bimodules[0].multiplicities", "max_mult",
             _first_bimodule([[5, 5]])),
            ("$.bimodules[0].multiplicities", "max_dim",
             _first_bimodule([[3, 0]], max_mult=3, max_dim=9)),
            ("$.bimodules[0].left_action", "max_dim",
             _first_bimodule([[3, 0]], explicit=True, max_dim=9))):
        err = verify(corrupt)
        assert err.startswith(f"bimodcat: {field}:"), err
        assert f"limits.{limit}" in err, err
    # a morphism from bimodule 0 to bimodule 1, which act by other algebras,
    # with a matrix of the right shape
    doc = to_document(generate(0))
    dims = [generate(0).bimodules[i].dim for i in (0, 1)]
    doc["morphisms"].append({"source": 0, "target": 1,
                             "matrix": _encode(np.zeros(dims[::-1]))})
    err = verify(lambda d: d.update(doc))
    assert err.startswith(f"bimodcat: $.morphisms[{len(doc['morphisms']) - 1}]:"), err
    assert "different acting algebras" in err, err
    # a multiplicity past int64, and one within max_mult whose dimension
    # 2 * 2**62 would wrap to -2**63 in int64 (blocks (2, 2) and (1))
    err = verify(_first_bimodule([[2 ** 64, 0]]))
    assert err.startswith("bimodcat: $.bimodules[0].multiplicities:"), err
    assert "limits.max_mult" in err, err
    huge = {"version": 1, "seed": 0,
            "limits": {"max_blocks": 2, "max_block": 2, "max_mult": 2 ** 62,
                       "max_dim": 40},
            "algebras": [{"blocks": [2, 2]}, {"blocks": [1]}],
            "bimodules": [{"left": 0, "right": 1,
                           "multiplicities": [[2 ** 62], [0]]}]}
    err = verify(lambda d: (d.clear(), d.update(huge)))
    assert err.startswith("bimodcat: $.bimodules[0].multiplicities:"), err
    assert "limits.max_dim" in err, err
    # within limits of 2**64 and 2**70, a multiplicity past int64, and one
    # whose dimension 2**64 would wrap to 0 in int64
    huge["limits"].update(max_mult=2 ** 64, max_dim=2 ** 70)
    for mult in ([[2 ** 64], [0]], [[2 ** 62], [2 ** 62]]):
        huge["bimodules"][0]["multiplicities"] = mult
        err = verify(lambda d: (d.clear(), d.update(huge)))
        assert err.startswith("bimodcat: $.bimodules[0].multiplicities:"), err
        assert "largest array size" in err, err
    # a document nested too deeply for the JSON parser is no valid JSON
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = _run(capsys, "verify", "--instance", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("bimodcat: not valid JSON"), err
    # action stacks of the wrong shape: (dim A, d, d) with dim A = 4, d = 4
    every = slice(None)
    for field, shape, corrupt in (
            ("left_action", "(4, 4, 4)",      # one matrix unit short
             _explicit_actions(left_cut=slice(1, None))),
            ("left_action", "(4, 3, 3)",      # not square
             _explicit_actions(left_cut=(every, every, slice(1, None)))),
            ("right_action", "(5, 4, 4)",     # one row and column short
             _explicit_actions(right_cut=(every, slice(1, None),
                                          slice(1, None))))):
        err = verify(corrupt)
        assert err.startswith(
            f"bimodcat: $.bimodules[0].{field}: expected shape {shape}"), err


def _first_bimodule(mult, explicit=False, **limits):
    """Corrupter: bimodule 0 with multiplicities ``mult``, limits updated.

    It is given by its multiplicities alone, or with ``explicit`` by the
    action stacks of that canonical model.
    """
    def corrupt(doc):
        doc["limits"].update(limits)
        if explicit:
            x = canonical_bimodule(MultiMatrixAlgebra((2,)),
                                   MultiMatrixAlgebra((2, 1)), np.array(mult))
            doc["bimodules"][0] = {
                "left": 0, "right": 1, "left_action": _encode(x.left_units),
                "right_action": _encode(x.right_units)}
        else:
            doc["bimodules"][0]["multiplicities"] = mult
            del doc["bimodules"][0]["basis_unitary"]
    return corrupt


def _fields(node, path=()):
    """Paths of the members and list entries of a document, complex arrays whole."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        if key not in ("basis_unitary", "left_action", "right_action", "matrix"):
            yield from _fields(value, path + (key,))


def test_junk_in_any_field_exits_with_a_code(capsys, tmp_path):
    # each field of a seeded document replaced in turn by each junk value,
    # in its canonical form and with every bimodule given by its stacks
    spec = generate(5, length=2)
    path = tmp_path / "junk.json"
    for form in (to_document(spec), given_by_stacks(spec)):
        fields = list(_fields(form))
        assert len(fields) > 30
        for field in fields:
            for junk in ("x", 1.5, True, None, [], -1):
                bad = copy.deepcopy(form)
                parent = bad
                for key in field[:-1]:
                    parent = parent[key]
                parent[field[-1]] = junk
                path.write_text(json.dumps(bad))
                code = main(["verify", "--instance", str(path),
                             "--suite", "m-unit"])
                assert code in (0, 1, 2), (field, junk)
    capsys.readouterr()


def test_stack_form_drops_only_the_keys_an_entry_has(capsys, tmp_path):
    # a canonical model saved without a basis unitary has no
    # "basis_unitary" key, and a bimodule already given by its stacks no
    # "multiplicities": each rewrites to its stacks, and the stack form
    # rewrites to itself and verifies, exit 0 with a strict-JSON report
    a, b = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((1, 2))
    x = canonical_bimodule(a, b, np.array([[1, 1]]))
    y = canonical_bimodule(b, a, np.array([[1], [2]]))
    spec = InstanceSpec(seed=0, limits=Limits(), algebras=(a, b, a),
                        bimodules=(x, y), morphisms=())
    assert "basis_unitary" not in to_document(spec)["bimodules"][0]
    doc = given_by_stacks(spec)
    assert given_by_stacks(load_lenient(json.dumps(doc))[0]) == doc
    path = tmp_path / "stacks.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--instance", str(path), "--json")
    assert code == 0
    report = json.loads(out, parse_constant=lambda c: pytest.fail(c))
    assert report["summary"]["passed"] == report["summary"]["total"] > 0


def test_invalid_env_tol_is_usage_error(capsys, monkeypatch):
    for tol in ("tight", "2"):
        monkeypatch.setenv("BIMODULE_TOL", tol)
        code, out, err = _run(capsys, "verify", "--seed", "0", "--suite", "m-unit")
        assert code == 2, tol
        assert out == ""
        assert "BIMODULE_TOL" in err


def test_negative_tol_is_usage_error(capsys):
    # a relative tolerance of 1 or more cannot fail: it is rejected as well
    for tol in ("-1", "1", "1e300"):
        code, out, err = _run(capsys, "verify", "--seed", "0", "--tol", tol)
        assert code == 2, tol
        assert out == ""
        assert "--tol" in err and "> 0" in err


def test_nan_tol_is_usage_error(capsys):
    code, out, err = _run(capsys, "verify", "--seed", "0", "--tol", "nan")
    assert code == 2
    assert "--tol" in err and "finite" in err


@pytest.mark.parametrize("command", ("verify", "gen", "tensor"))
def test_negative_seed_is_usage_error(capsys, command):
    code, out, err = _run(capsys, command, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_verify_max_dim_zero_is_usage_error(capsys):
    code, out, err = _run(capsys, "verify", "--max-dim", "0")
    assert code == 2
    assert "max_dim" in err


def test_max_dim_below_the_largest_sector_is_usage_error(capsys):
    # a sector of two size-2 blocks has 4 dimensions, over a cap of 1 to 3
    for argv in (("verify", "--max-dim", "1"), ("tensor", "--max-dim", "1"),
                 ("tensor", "--max-dim", "3"), ("gen", "--max-dim", "3"),
                 ("gen", "--max-block", "3", "--max-dim", "8")):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "max_dim" in err
