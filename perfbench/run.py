"""bimodcat benchmark: end-to-end timings, output checks and a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for how each chooses its instances):

* ``sweep``    in-process ``bimodcat verify --seed g --json`` over 50
               default-limit seeds, stratified by predicted cost;
* ``dense``    ``bimodcat verify --instance FILE --json`` on four mid-size
               ``--min-mult 1`` instances written and loaded during setup;
* ``mutation`` criterion 7's mutated single-family ``run_suite`` calls.

A run imports bimodcat from ``src/`` of the checkout, sets the workload up
five times, warms up, then makes whole passes over the workload's fixed
request list: at least three and at least 20 timed requests, and more
while another pass still fits in ``--seconds``.  A request's time is its median over the passes, which
discounts short slow spells of a shared machine; a calibration kernel
timed between requests corrects the times for the machine's slower
drift (see :class:`Calibration`).  Requests run one after another in
this one process (a closed loop with one client).  BLAS is pinned to one
thread, so both sides of any comparison use the same setting.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass and prints the per-layer metrics; spans go
to ``perfbench/out/``.  The last line of standard output is the result as
JSON; the lines above it say what each number covers, and ``ops_failed``
is the result's ``failed`` count.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS threads; one thread varies less between runs on a shared machine
BLAS_THREADS = "1"
#: setups per run; setup_s is their median
SETUP_REPEATS = 5
WORKLOADS = ("sweep", "dense", "mutation")
#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
#: passes per run at least, and timed requests per run at least (dense
#: has four per pass); a request's time is its median over passes
MIN_PASSES = 3
MIN_TIMED = 20
#: calibration: kernel rounds per sample, samples per pass at least and
#: before each setup, and the median sample time on the machine the
#: benchmark was written on (2-core Xeon KVM guest, one BLAS thread)
CAL_ROUNDS = 20
CAL_PER_PASS = 20
CAL_PER_SETUP = 4
CAL_REF_S = 0.0095


class Calibration:
    """A fixed numpy and Python kernel, timed between requests.

    On a shared machine the speed of identical work drifts by 10-20 %
    over minutes.  The kernel's median time in a run, against CAL_REF_S,
    measures that drift; end-to-end times are scaled by it, so they read
    as seconds at the reference speed.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self._np, self._a = np, a + a.conj().T
        self._b = rng.standard_normal((8, 16, 16)) + 0j
        self.samples = []

    def sample(self):
        np, t0 = self._np, time.perf_counter()
        for _ in range(CAL_ROUNDS):
            np.linalg.eigh(self._a)
            np.einsum("uij,ujk->uik", self._b, self._b)
            x = 0
            for i in range(2000):
                x += i * i
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Reference speed over this run's speed: multiply times by it."""
        return CAL_REF_S / statistics.median(self.samples)


def import_program():
    """Import bimodcat afresh from the checkout; return (package, modules)."""
    from workloads import MODULES
    for name in [m for m in sys.modules
                 if m == "bimodcat" or m.startswith("bimodcat.")]:
        del sys.modules[name]
    package = importlib.import_module("bimodcat")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "bimodcat":
        raise RuntimeError(f"bimodcat imported from {package.__file__}, "
                           f"not from {ROOT / 'src'}")
    return package, {m: importlib.import_module(f"bimodcat.{m}")
                     for m in MODULES}


def build(workload: str, mods, seed: int):
    import workloads
    if workload == "sweep":
        return workloads.sweep(mods, seed)
    if workload == "dense":
        return workloads.dense(mods, seed, str(OUT))
    return workloads.mutation(mods, seed)


def _failure(exc: Exception):
    from workloads import Outcome
    return Outcome(False, problem="".join(
        traceback.format_exception_only(type(exc), exc)).strip())


def _checked(req, result, first: bool):
    """Check a request's result; on the first pass also its extra check."""
    if isinstance(result, Exception):
        return _failure(result)
    try:
        outcome = req.check(result)
        if first and req.once is not None and outcome.ok:
            outcome.problem = req.once()
            outcome.ok = not outcome.problem
    except Exception as exc:  # noqa: BLE001 - malformed output is a failure
        return _failure(exc)
    return outcome


def run_pass(wl, tracer=None, first=False, calibration=None):
    """One pass over the requests: (latencies s, outcomes, wall ns).

    With a ``calibration``, it takes CAL_PER_PASS samples or more, spread
    over the gaps between requests.
    """
    latencies, outcomes = [], []
    per_gap = -(-CAL_PER_PASS // len(wl.requests))
    start = time.perf_counter_ns()
    for i, req in enumerate(wl.requests):
        if tracer is not None:
            tracer.begin_request(i)
        for _ in range(per_gap if calibration is not None else 0):
            calibration.sample()
        t0 = time.perf_counter_ns()
        try:
            result = req.call()
        except Exception as exc:  # noqa: BLE001 - a crash fails the request
            result = exc
        latencies.append((time.perf_counter_ns() - t0) / 1e9)
        outcomes.append(_checked(req, result, first))
    return latencies, outcomes, time.perf_counter_ns() - start


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND
    requests beyond it; the maximum when there are too few requests."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return (ordered[-TAIL_BEYOND - 1],
            100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered))


def blas_info(np):
    """BLAS name, version and thread count as the loaded library reports."""
    import ctypes
    info = {"env": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = sorted(str(p) for p in
                  (Path(np.__file__).parent.parent / "numpy.libs").glob("*")
                  if "blas" in p.name.lower())
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = Path(lib).name
                return info
    return info


def environment(np, args, wl) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(np), "machine": platform.machine(),
            "program_seeds": wl.seeds, **wl.notes}


def emit(args, env, metrics, notes, attempted, failed, problems,
         tracer=None):
    """Print the human-readable lines, save the result, print the JSON."""
    width = max(len(n) for n in metrics)
    print(f"bimodcat benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<12} {note}")
    print(f"  {'ops_failed':<{width}}  {failed:>14d} {'count':<12} "
          f"of {attempted} requests attempted")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    for label, problem in problems[:20]:
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "environment": env, "notes": notes,
                   "problems": problems}, fh, indent=1)
    if tracer is not None:
        tracer.dump(str(OUT / f"spans-{stem}.json"))
    print("environment " + json.dumps(env, separators=(",", ":")))
    print(json.dumps(result))


def end_to_end(args, np):
    setups, setup_calibration = [], Calibration(np)
    for _ in range(SETUP_REPEATS):
        for _ in range(CAL_PER_SETUP):
            setup_calibration.sample()
        t0 = time.perf_counter()
        _, mods = import_program()
        wl = build(args.workload, mods, args.seed)
        setups.append(time.perf_counter() - t0)
    import workloads
    workloads.cli_call(mods["cli"], ["verify", "--seed", "0", "--json"])

    calibration = Calibration(np)
    passes = []   # (latencies, outcomes) per pass
    start = time.perf_counter_ns()
    while True:
        lat, out, wall = run_pass(wl, first=not passes,
                                  calibration=calibration)
        passes.append((lat, out))
        if (len(passes) >= MIN_PASSES
                and len(passes) * len(wl.requests) >= MIN_TIMED
                and time.perf_counter_ns() - start + wall > args.seconds * 1e9):
            break
    n = len(wl.requests)
    latencies = [statistics.median(p[0][i] for p in passes) for i in range(n)]
    outcomes = [o for _, out in passes for o in out]
    labels = [r.label for r in wl.requests] * len(passes)
    value, pct = tail(latencies)
    checks = sum(o.checks for o in passes[0][1])
    raw = {"setup_s": statistics.median(setups),
           "verify_p50_s": statistics.median(latencies),
           "verify_tail_s": value,
           "checks_per_s": checks / sum(latencies)}
    scale = calibration.scale()
    metrics = {"setup_s": (raw["setup_s"] * setup_calibration.scale(), "s"),
               "verify_p50_s": (raw["verify_p50_s"] * scale, "s"),
               "verify_tail_s": (raw["verify_tail_s"] * scale, "s"),
               "checks_per_s": (raw["checks_per_s"] / scale, "1/s")}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} imports + instance builds",
        "verify_p50_s": f"median of {n} requests, each the median of "
                        f"{len(passes)} passes",
        "verify_tail_s": (f"p{pct:.1f} of the same {n} requests"
                          if pct < 100 else
                          f"max of the same {n} requests: too few for "
                          f"{TAIL_BEYOND} beyond a percentile"),
        "checks_per_s": f"{checks} checks over the same {n} requests",
    }
    for name, v in raw.items():
        notes[name] += f"; {v:.4g} unscaled"
    notes["scale"] = (
        f"setup x {setup_calibration.scale():.4f}, requests x {scale:.4f}: "
        f"calibration medians "
        f"{statistics.median(setup_calibration.samples) * 1e3:.3f} and "
        f"{statistics.median(calibration.samples) * 1e3:.3f} ms over "
        f"{len(setup_calibration.samples)} and {len(calibration.samples)} "
        f"samples, reference {CAL_REF_S * 1e3:.3f} ms")
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    problems = [(lab, o.problem) for lab, o in zip(labels, outcomes)
                if not o.ok]
    emit(args, environment(np, args, wl), metrics, notes, len(outcomes),
         len(problems), problems)


def traced(args, np):
    from tracing import Tracer
    import workloads
    package, mods = import_program()
    wl = build(args.workload, mods, args.seed)
    workloads.cli_call(mods["cli"], ["verify", "--seed", "0", "--json"])
    cal_plain, cal_traced = Calibration(np), Calibration(np)
    _, plain, plain_ns = run_pass(wl, calibration=cal_plain)

    tracer = Tracer()
    tracer.install(mods, package)
    wl = build(args.workload, mods, args.seed)   # traced setup: request -1
    _, outcomes, pass_ns = run_pass(wl, tracer,
                                   calibration=cal_traced)
    # wall time of the requests alone, at the calibration's reference speed
    untraced_ns = (plain_ns - sum(cal_plain.samples) * 1e9) * cal_plain.scale()
    pass_ns -= sum(cal_traced.samples) * 1e9
    metrics = tracer.layer_metrics(pass_ns, pass_ns * cal_traced.scale(),
                                   untraced_ns, outcomes)
    labels = [r.label for r in wl.requests]
    problems = [(lab, o.problem)
                for lab, o in zip(labels * 2, plain + outcomes) if not o.ok]
    problems += [(labels[i], msg) for i, msg in tracer.products.mismatches]
    notes = {"trace_overhead": "traced / untraced pass, both scaled by the "
                               "calibration timed during them",
             "untraced_glue_s": "traced pass wall (calibration excluded) not "
                                "covered by any span",
             "tensor.gram_mib_max": "computed from shapes: alg_dim^2 x 16 B"}
    mismatched = {i for i, _ in tracer.products.mismatches}
    failed = (sum(not o.ok for o in plain)
              + sum(not o.ok or i in mismatched
                    for i, o in enumerate(outcomes)))
    emit(args, environment(np, args, wl), metrics, notes, 2 * len(labels),
         failed, problems, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: picks the instances")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; whole passes, at least three")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "bimodcat" / "__init__.py").is_file():
        print(f"perfbench: no bimodcat sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import numpy as np
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)
    (end_to_end if args.trace == 0 else traced)(args, np)
    return 0


if __name__ == "__main__":
    sys.exit(main())
