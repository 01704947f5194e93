"""The gate's machine-independent fields against a committed golden file.

``tests/data/gate_fields.json`` holds, for fixed documents, what a
``verify --json`` report says that does not move with the BLAS build:
each check's name, passed, dims, degenerate, error and tol, the summary
counts and the exit code, and the defects of the families whose two
paths are index arrays, which read exactly 0.0.  The naturality defects
and ``maxDefect`` are left out: they move by rounding across BLAS builds
(README "Determinism").  It also holds the dims and multiplicities of
``tensor --seed 0..19 --json``.

Regenerate the file, on a tree whose reports are known good, with::

    PYTHONPATH=src python tests/test_gate_fields.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

from bimodcat.cli import main
from bimodcat.coherence import NATURALITY_FAMILIES

DATA = pathlib.Path(__file__).parent / "data" / "gate_fields.json"

#: (label, gen arguments): default-limit seeds go to verify --seed directly
DOCUMENTS = ([(f"seed {s}", None, s) for s in range(20)]
             + [(f"min-mult 1 seed {s}", ["--min-mult", "1"], s) for s in (3, 18)]
             + [("min-mult 1 max-mult 2 seed 3",
                 ["--min-mult", "1", "--max-mult", "2"], 3)])


def _run(*argv):
    """(exit code, stdout) of the command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _verify_fields(code: int, report: dict) -> dict:
    checks = []
    for c in report["checks"]:
        entry = {key: c[key] for key in ("name", "passed", "dims", "degenerate",
                                         "error", "tol")}
        if c["name"] not in NATURALITY_FAMILIES:
            entry["defect"] = c["defect"]
        checks.append(entry)
    summary = {key: report["summary"][key] for key in ("total", "passed", "errors")}
    return {"exit": code, "checks": checks, "summary": summary}


def gate_fields(tmp: pathlib.Path) -> dict:
    """The fields for every document, keyed by its label."""
    verify = {}
    for label, limits, seed in DOCUMENTS:
        if limits is None:
            code, out = _run("verify", "--seed", str(seed), "--json")
        else:
            path = tmp / f"{seed}.json"
            _run("gen", *limits, "--seed", str(seed), "--out", str(path))
            code, out = _run("verify", "--instance", str(path), "--json")
        verify[label] = _verify_fields(code, json.loads(out))
    tensor = {}
    for seed in range(20):
        code, out = _run("tensor", "--seed", str(seed), "--json")
        info = json.loads(out)
        tensor[f"seed {seed}"] = {"exit": code, "dims": info["dims"],
                                  "multiplicities": info["multiplicities"]}
    return {"verify": verify, "tensor": tensor}


def test_the_gate_fields_match_the_golden_file(tmp_path):
    want = json.loads(DATA.read_text())
    got = gate_fields(tmp_path)
    for part in ("verify", "tensor"):
        assert list(got[part]) == list(want[part])
        for label in want[part]:
            assert got[part][label] == want[part][label], (part, label)


def test_the_golden_structural_defects_are_exactly_zero():
    # the index-identity families compare two index arrays: every defect
    # kept in the file is 0.0, and every document passes
    want = json.loads(DATA.read_text())
    defects = [c["defect"] for doc in want["verify"].values()
               for c in doc["checks"] if "defect" in c]
    assert len(defects) == 10 * len(DOCUMENTS) and set(defects) == {0.0}
    assert {doc["exit"] for part in want.values() for doc in part.values()} == {0}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fields = gate_fields(pathlib.Path(tmp))
    # one document per line
    parts = [f" {json.dumps(part)}: {{\n" + ",\n".join(
        f"  {json.dumps(label)}: {json.dumps(doc)}" for label, doc in docs.items())
        + "\n }" for part, docs in fields.items()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + ",\n".join(parts) + "\n}\n")
