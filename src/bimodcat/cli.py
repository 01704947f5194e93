"""Command-line front end: generate instances, run check suites, inspect tensors.

Subcommands::

    verify   load or generate an instance, run the coherence suite
    gen      emit a serialized random instance for a seed
    tensor   report dimensions / Gram ranks / multiplicities of both products

Exit codes: 0 all checks pass, 1 some check failed, 2 construction or usage
error.  ``BIMODULE_TOL`` in the environment overrides the default tolerance;
an explicit ``--tol`` flag wins over the environment.  A tolerance must be
a finite number > 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import coherence, instances
from .bimodule import multiplicity_matrix
from .linalg import DEFAULT_TOL, op_norm
from .tensor import m_iso, tensor_left, tensor_right


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimodcat",
        description="Finite-dimensional bimodule tensor calculus toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for generated instances (default 0)")
        p.add_argument("--max-dim", type=int, default=40, dest="max_dim",
                       help="dimension cap for generated bimodules (default 40)")
        p.add_argument("--instance", help="instance JSON file to load")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable JSON output")

    p = sub.add_parser("verify", help="run the coherence check suite")
    common(p)
    p.add_argument("--tol", type=float, default=None,
                   help="base tolerance (default from BIMODULE_TOL or 1e-9)")
    p.add_argument("--suite", default=None,
                   help="comma-separated subset of check families "
                        f"({', '.join(coherence.CHECK_FAMILIES)})")

    p = sub.add_parser("gen", help="emit a random instance as JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=40, dest="max_dim")
    p.add_argument("--max-blocks", type=int, default=2, dest="max_blocks")
    p.add_argument("--max-block", type=int, default=2, dest="max_block")
    p.add_argument("--max-mult", type=int, default=1, dest="max_mult")
    p.add_argument("--min-mult", type=int, default=0, dest="min_mult")
    p.add_argument("--length", type=int, default=4,
                   help="number of bimodules in the chain")
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("tensor", help="inspect both tensor products of a pair")
    common(p)
    p.add_argument("--tol", type=float, default=None)
    return parser


class UsageError(ValueError):
    """A command-line argument or setting is malformed (exit code 2)."""


def _resolve_tol(flag: Optional[float]) -> float:
    if flag is not None:
        source, tol = "--tol", flag
    else:
        env = os.environ.get("BIMODULE_TOL")
        if env is None or not env.strip():
            return DEFAULT_TOL
        source = "BIMODULE_TOL"
        try:
            tol = float(env)
        except ValueError:
            raise UsageError(f"invalid BIMODULE_TOL {env!r}: not a number")
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"invalid {source} {tol!r}: must be finite and > 0")
    return tol


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_or_generate(args, length: int = 4
                      ) -> Tuple[instances.InstanceSpec,
                                 List[Tuple[str, float]]]:
    if args.instance:
        with open(args.instance, "rb") as fh:
            return instances.load_lenient(fh.read())
    try:
        limits = instances.Limits(max_dim=args.max_dim)
    except ValueError as exc:
        raise UsageError(f"invalid --max-dim: {exc}")
    return instances.generate(args.seed, limits=limits, length=length), []


def cmd_verify(args) -> int:
    tol = _resolve_tol(args.tol)
    suite = None
    if args.suite:
        suite = [s.strip() for s in args.suite.split(",") if s.strip()]
        unknown = [s for s in suite if s not in coherence.CHECK_FAMILIES]
        if unknown:
            print(f"bimodcat: unknown check families: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    spec, violations = _load_or_generate(args)
    report = coherence.run_suite(spec, tol=tol, suite=suite)
    for msg, defect in violations:
        report["checks"].insert(0, {
            "name": "instance-valid", "defect": float(defect), "tol": tol,
            "passed": False, "dims": [], "degenerate": False, "error": msg})
    if violations:
        report["summary"]["total"] += len(violations)
        report["summary"]["maxDefect"] = float("inf")
    report["checks"].sort(key=lambda c: c["name"])

    if args.as_json:
        _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for c in report["checks"]:
            status = ("degenerate-pass" if c["degenerate"]
                      else "pass" if c["passed"] else "FAIL")
            line = (f"{c['name']:22s} {status:15s} "
                    f"defect={c['defect']:.3e} tol={c['tol']:.1e}")
            if c["error"]:
                line += f"  [{c['error']}]"
            lines.append(line)
        s = report["summary"]
        lines.append(f"{s['passed']}/{s['total']} checks passed, "
                     f"max defect {s['maxDefect']:.3e}")
        _emit("\n".join(lines) + "\n", args.out)
    code = coherence.exit_code(report)
    return max(code, 1) if violations else code


def cmd_gen(args) -> int:
    try:
        limits = instances.Limits(
            max_blocks=args.max_blocks, max_block=args.max_block,
            max_mult=args.max_mult, max_dim=args.max_dim,
            min_mult=args.min_mult)
    except ValueError as exc:
        print(f"bimodcat: invalid limits: {exc}", file=sys.stderr)
        return 2
    if args.length < 0:
        print("bimodcat: invalid length", file=sys.stderr)
        return 2
    spec = instances.generate(args.seed, limits=limits, length=args.length)
    data = instances.save(spec).decode()
    _emit(data, args.out)
    return 0


def cmd_tensor(args) -> int:
    tol = _resolve_tol(args.tol)
    spec, violations = _load_or_generate(args, length=2)
    if violations:
        for msg, _ in violations:
            print(f"bimodcat: {msg}", file=sys.stderr)
        return 2
    if len(spec.bimodules) < 2:
        print("bimodcat: need at least two bimodules in the chain",
              file=sys.stderr)
        return 2
    x, y = spec.bimodules[0], spec.bimodules[1]
    try:
        tp_l = tensor_left(x, y)
        tp_r = tensor_right(x, y)
    except ValueError as exc:
        print(f"bimodcat: {exc}", file=sys.stderr)
        return 2
    m = m_iso(x, y, tp_left=tp_l, tp_right=tp_r)
    m_defect = float(op_norm(m.conj().T @ m - np.eye(m.shape[1])))
    info = {
        "dims": {"X": x.dim, "Y": y.dim,
                 "ltimes": tp_l.dim, "rtimes": tp_r.dim},
        # the quotient keeps exactly the eigenvalues psd_rank(gram, scale=1.0)
        # counts, so the Gram rank is the product dimension
        "gramRank": {"ltimes": tp_l.dim, "rtimes": tp_r.dim},
        "multiplicities": {
            "X": multiplicity_matrix(x).tolist(),
            "Y": multiplicity_matrix(y).tolist(),
            "ltimes": multiplicity_matrix(tp_l.result).tolist(),
            "rtimes": multiplicity_matrix(tp_r.result).tolist()},
        "mUnitaryDefect": m_defect,
    }
    if args.as_json:
        _emit(json.dumps(info, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"dim X = {info['dims']['X']}, dim Y = {info['dims']['Y']}",
            f"dim X ltimes Y = {info['dims']['ltimes']} "
            f"(Gram rank {info['gramRank']['ltimes']})",
            f"dim X rtimes Y = {info['dims']['rtimes']} "
            f"(Gram rank {info['gramRank']['rtimes']})",
            f"multiplicities X        = {info['multiplicities']['X']}",
            f"multiplicities Y        = {info['multiplicities']['Y']}",
            f"multiplicities ltimes   = {info['multiplicities']['ltimes']}",
            f"multiplicities rtimes   = {info['multiplicities']['rtimes']}",
            f"m unitarity defect      = {m_defect:.3e}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if m_defect <= max(tol, 1e-9) * 10 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "tensor":
            return cmd_tensor(args)
    except (instances.InstanceFormatError, UsageError) as exc:
        print(f"bimodcat: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bimodcat: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
