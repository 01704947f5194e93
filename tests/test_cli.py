import copy
import json
import os

import pytest

from bimodcat.cli import main
from bimodcat.instances import generate, save, to_document
from bimodcat.linalg import psd_rank
from bimodcat.tensor import tensor_left, tensor_right


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


def test_verify_suite_subset_and_unknown(capsys):
    code, out, _ = _run(capsys, "verify", "--seed", "1", "--json",
                        "--suite", "m-unit,triangle-left")
    assert code == 0
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert names == {"m-unit", "triangle-left"}
    code, _, err = _run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown check families" in err


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


def test_verify_corrupted_instance_fails(capsys, tmp_path):
    doc = to_document(generate(2))
    doc["bimodules"][1]["basis_unitary"][0][0] = [50.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--instance", str(path), "--json")
    assert code >= 1
    rep = json.loads(out)
    assert any(c["name"] == "instance-valid" and not c["passed"]
               for c in rep["checks"])


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
            "ltimes": psd_rank(tensor_left(x, y).gram, scale=1.0),
            "rtimes": psd_rank(tensor_right(x, y).gram, scale=1.0)}


def test_tensor_mismatched_chain(capsys, tmp_path):
    doc = to_document(generate(0, length=2))
    # break composability: point the second bimodule at the wrong left algebra
    doc["algebras"].append({"blocks": [3]})
    doc["bimodules"][1]["left"] = len(doc["algebras"]) - 1
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "tensor", "--instance", str(path))
    assert code == 2


def test_missing_instance_file(capsys):
    code, _, err = _run(capsys, "verify", "--instance", "/nonexistent.json")
    assert code == 2


def test_structurally_bad_instance(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = _run(capsys, "verify", "--instance", str(path))
    assert code == 2
    assert "bimodcat:" in err


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
             ("$.limits.max_dim", lambda doc: doc["limits"].update(max_dim=40.9)),
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
    for field, corrupt in cases:
        doc = to_document(generate(1))
        corrupt(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", "--instance", str(path))
        assert code == 2, field
        assert out == ""
        assert err.startswith(f"bimodcat: {field}:"), err


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
    # each field of a seeded document replaced in turn by each junk value
    doc = to_document(generate(5, length=2))
    fields = list(_fields(doc))
    assert len(fields) > 30
    path = tmp_path / "junk.json"
    for field in fields:
        for junk in ("x", 1.5, True, None, [], -1):
            bad = copy.deepcopy(doc)
            parent = bad
            for key in field[:-1]:
                parent = parent[key]
            parent[field[-1]] = junk
            path.write_text(json.dumps(bad))
            code = main(["verify", "--instance", str(path), "--suite", "m-unit"])
            assert code in (0, 1, 2), (field, junk)
    capsys.readouterr()


def test_invalid_env_tol_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BIMODULE_TOL", "tight")
    code, out, err = _run(capsys, "verify", "--seed", "0", "--suite", "m-unit")
    assert code == 2
    assert out == ""
    assert "BIMODULE_TOL" in err


def test_negative_tol_is_usage_error(capsys):
    code, out, err = _run(capsys, "verify", "--seed", "0", "--tol", "-1")
    assert code == 2
    assert out == ""
    assert "--tol" in err and "> 0" in err


def test_nan_tol_is_usage_error(capsys):
    code, out, err = _run(capsys, "verify", "--seed", "0", "--tol", "nan")
    assert code == 2
    assert "--tol" in err and "finite" in err


def test_verify_max_dim_zero_is_usage_error(capsys):
    code, out, err = _run(capsys, "verify", "--max-dim", "0")
    assert code == 2
    assert "max_dim" in err
