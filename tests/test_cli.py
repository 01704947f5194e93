import json
import os

import pytest

from bimodcat.cli import main
from bimodcat.instances import generate, save, to_document


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
             ("$.algebras", lambda doc: doc.update(algebras=3)))
    for field, corrupt in cases:
        doc = to_document(generate(1))
        corrupt(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", "--instance", str(path))
        assert code == 2, field
        assert out == ""
        assert err.startswith(f"bimodcat: {field}:"), err


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
