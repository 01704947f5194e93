"""Check that reports are strict JSON.  Run as a script,

    python3 tests/strict_json.py [--all-passed] REPORT...

parses each REPORT with the constants NaN, Infinity and -Infinity
rejected, and with ``--all-passed`` also requires that its summary counts
every check as passed.  It raises on the first REPORT that fails.
"""

import json
import sys


def reject(constant):
    raise ValueError(f"report is not strict JSON: {constant}")


if __name__ == "__main__":
    args = sys.argv[1:]
    all_passed = args[:1] == ["--all-passed"]
    for path in args[all_passed:]:
        with open(path) as f:
            report = json.loads(f.read(), parse_constant=reject)
        if all_passed:
            assert report["summary"]["passed"] == report["summary"]["total"], (
                path, report["summary"])
