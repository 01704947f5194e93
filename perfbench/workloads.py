"""The benchmark's workloads: how instances are chosen, run and checked.

Each workload turns the benchmark seed into a fixed list of requests.  A
request drives bimodcat through a public entry point (``cli.main`` or
``coherence.run_suite``) and returns an :class:`Outcome` after checking
the program's output.  The checks feed ``ops_failed``:

* the report must parse as strict JSON (``Infinity``/``NaN`` are errors);
* the exit code must be 0 and every check must pass without error;
* on ``dense``, every product's dimension must equal criterion 5's
  prediction, the sum over (k, l) of (mu_X mu_Y)_kl n_k m_l;
* on ``mutation``, the mutated check must fail, without an error.

Instance costs vary by two orders of magnitude between seeds, so a plain
block of seeds would make one run's timings differ from the next run's by
more than any useful bound.  ``sweep`` therefore stratifies its seeds by
a cost prediction made from the multiplicity matrices alone (see
:func:`predicted_cost`); ``dense`` and ``mutation`` keep fixed shapes and
draw only their bases, morphisms and mutations from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: bimodcat modules, in import order; each is one layer of the trace
MODULES = ("linalg", "algebra", "bimodule", "bounded", "tensor",
           "involution", "instances", "coherence", "cli")

#: the base tolerance every request uses (the program's default)
TOL = 1e-9


@dataclass
class Outcome:
    """Checked result of one request."""

    ok: bool
    checks: int = 0
    #: max defect/tol over checks that must pass (headroom left)
    defect_over_tol: float = 0.0
    #: min defect/tol over mutated checks (how clearly they failed)
    detect_margin: float = math.inf
    problem: str = ""


@dataclass
class Request:
    """One timed call into the program and the check of its output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    #: untimed extra check, run once per run after the first timed call
    once: Optional[Callable[[], str]] = None


@dataclass
class Workload:
    """What one setup produces: the requests and what identifies them."""

    requests: List[Request]
    seeds: List[int]
    notes: Dict[str, object] = field(default_factory=dict)


# -- strict report checks -----------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse ``text`` as RFC 8259 JSON: Infinity and NaN are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def check_report(text: str, code: int, expect_pass: bool = True) -> Outcome:
    """Check one verify report.

    With ``expect_pass`` every check must pass; otherwise (mutation) some
    check must fail.  An errored check is wrong either way.
    """
    try:
        report = strict_json(text)
    except ValueError as exc:
        return Outcome(False, problem=f"report is not strict JSON: {exc}")
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list) or not checks:
        return Outcome(False, problem="report has no checks")
    ratios = [c["defect"] / c["tol"] for c in checks if c.get("tol")]
    errored = [c["name"] for c in checks if c.get("error")]
    failed = [c["name"] for c in checks if not c.get("passed")]
    if expect_pass:
        outcome = Outcome(True, len(checks), max(ratios, default=0.0))
        if code != 0:
            outcome.problem = f"exit code {code}"
        elif failed:
            outcome.problem = f"checks failed: {', '.join(failed)}"
    else:
        outcome = Outcome(True, len(checks),
                          detect_margin=min(ratios, default=math.inf))
        if not failed:
            outcome.problem = "mutation not detected"
    if errored:
        outcome.problem = f"checks errored: {', '.join(errored)}"
    outcome.ok = not outcome.problem
    return outcome


def cli_call(cli, argv: Sequence[str]) -> Tuple[int, str]:
    """Run ``bimodcat <argv>`` in process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_check(result) -> Outcome:
    code, text = result
    return check_report(text, code)


# -- cost prediction ----------------------------------------------------------

def segment_dims(blocks: Sequence[Sequence[int]],
                 mults: Sequence[np.ndarray]):
    """d(i, j): criterion 5's dimension of the product of bimodules i..j-1.

    ``blocks[i]`` are the block sizes of the i-th algebra of the chain and
    ``mults[i]`` the multiplicity matrix of the i-th bimodule.  Both tensor
    products have this dimension.
    """
    def d(i: int, j: int) -> int:
        mu = mults[i]
        for k in range(i + 1, j):
            mu = mu @ mults[k]
        return int(np.asarray(blocks[i]) @ mu @ np.asarray(blocks[j]))
    return d


_PENTAGON = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 3), (0, 1, 3), (1, 3, 4),
             (1, 2, 4), (0, 3, 4), (0, 3, 4), (0, 1, 4), (0, 1, 4), (0, 2, 4))
_TRIPLE = ((0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3))


def family_factor_dims(family: str, blocks, mults) -> List[Tuple[int, int]]:
    """(first, second) factor dimensions of the products a check family builds.

    Transcribed from the diagrams in ``bimodcat.coherence``; it only ranks
    instances by cost, so repeated rebuilds are counted roughly.
    """
    d = segment_dims(blocks, mults)
    l2 = [sum(n * n for n in b) for b in blocks]
    triple = [(d(i, k), d(k, j)) for i, k, j in _TRIPLE]
    name = family.rsplit("-", 1)[0] if family.endswith(("-left", "-right")) \
        else family
    if name == "triangle":
        return [(d(0, 1), l2[1]), (l2[1], d(1, 2))] + [(d(0, 1), d(1, 2))] * 3
    if name == "pentagon":
        return [(d(i, k), d(k, j)) for i, k, j in _PENTAGON]
    if name == "m-unit":
        return [(l2[0], d(0, 1))] * 2 + [(d(0, 1), l2[1])] * 2
    if name == "m-assoc":
        return triple * 2 + [(d(0, 2), d(2, 3)), (d(0, 1), d(1, 3))]
    if name == "hexagon":
        return triple * 3
    if name == "duality":
        return [(d(0, 1), d(1, 2))] * 6
    if name == "naturality":
        return ([(l2[0], d(0, 1)), (d(0, 1), l2[1])] * 2 + triple * 2
                + [(d(0, 1), d(1, 2))] * 8)
    raise ValueError(f"unknown check family {family!r}")


SUITE_FAMILIES = ("triangle-left", "triangle-right", "pentagon-left",
                  "pentagon-right", "m-unit", "m-assoc", "hexagon-left",
                  "hexagon-right", "duality-left", "duality-right",
                  "naturality")


def spec_structure(spec):
    """(algebra block sizes, multiplicity matrices) of a generated chain."""
    return ([a.blocks for a in spec.algebras],
            [np.asarray(x.canonical[0]) for x in spec.bimodules])


def predicted_cost(blocks, mults, families: Sequence[str]) -> int:
    """Sum of squared algebraic dimensions of the products the checks build.

    On seeds 0-199 at default limits its log correlates 0.90 with the log
    of the measured verify time; it is a property of the input alone.
    """
    return sum((a * b) ** 2 for f in families
               for a, b in family_factor_dims(f, blocks, mults))


# -- sweep --------------------------------------------------------------------

#: requests per sweep pass
SWEEP_REQUESTS = 50
#: stratum edges: the 4 % quantiles of predicted_cost over default-limit
#: seeds 0-2999 that lie below SWEEP_CAP, their 99th percentile
SWEEP_EDGES = (596, 880, 1382, 1928, 2307, 2978, 3670, 4819, 5552, 6401,
               7556, 8672, 10256, 11601, 14095, 16352, 19948, 23551, 27200,
               34605, 45331, 61283, 85526, 135858)
SWEEP_CAP = 400_000
#: first generator seed of the block for benchmark seed s
SWEEP_STRIDE = 100_000


def sweep(mods, seed: int) -> Workload:
    """In-process ``bimodcat verify --seed g --json`` over default-limit seeds.

    Seeds g are scanned upward from ``seed * SWEEP_STRIDE``; the first two
    of each of 25 cost strata are kept, and seeds above the 99th cost
    percentile are skipped.  Each run so sees the same cost mix, which a
    contiguous block does not (blocks of 100 differ by 20 % in total time).
    """
    instances, cli = mods["instances"], mods["cli"]
    per = SWEEP_REQUESTS // (len(SWEEP_EDGES) + 1)
    filled = [0] * (len(SWEEP_EDGES) + 1)
    chosen, g = [], seed * SWEEP_STRIDE
    while len(chosen) < SWEEP_REQUESTS:
        cost = predicted_cost(*spec_structure(instances.generate(g)),
                              SUITE_FAMILIES)
        stratum = int(np.searchsorted(SWEEP_EDGES, cost, side="right"))
        if cost <= SWEEP_CAP and filled[stratum] < per:
            filled[stratum] += 1
            chosen.append(g)
        g += 1
    requests = [Request(f"verify --seed {s}",
                        lambda s=s: cli_call(cli, ["verify", "--seed", str(s),
                                                   "--json"]),
                        _cli_check)
                for s in chosen]
    return Workload(requests, chosen,
                    {"scanned": g - seed * SWEEP_STRIDE})


# -- dense --------------------------------------------------------------------

#: (generator limits, generator seed) whose block sizes and multiplicities
#: give the dense shapes.  Suite times of the generated instances, one
#: BLAS thread: 4.1, 3.3, 1.8 and 1.7 s.  Min-mult 1 seed 7 (13 s) would leave room for one
#: pass only; shapes costing minutes per suite (min-mult 1 seed 4; max-mult
#: 2 seeds 0, 4, 6, 9 and 11) are left out.
DENSE_SHAPES = (({"min_mult": 1, "max_mult": 2}, 3), ({"min_mult": 1}, 18),
                ({"min_mult": 1}, 5), ({"min_mult": 1}, 8))


def _rebased(mods, shape, rng: np.random.Generator, seed: int):
    """``shape``'s algebras and multiplicities with bases and morphisms from rng.

    Cost follows from the shapes alone, so every benchmark seed gets the
    same work on different matrices.
    """
    bimodule, instances, linalg = mods["bimodule"], mods["instances"], \
        mods["linalg"]
    chain = []
    for x in shape.bimodules:
        mult = np.asarray(x.canonical[0])
        chain.append(bimodule.canonical_bimodule(
            x.left_algebra, x.right_algebra, mult,
            basis_unitary=linalg.random_unitary(rng, x.dim)))
    morphisms = tuple(instances.random_morphism(x, x, rng)
                      for x in chain[:len(shape.morphisms)])
    return instances.InstanceSpec(seed=seed, limits=shape.limits,
                                  algebras=shape.algebras,
                                  bimodules=tuple(chain), morphisms=morphisms)


def _product_dims_problem(tensor, spec, mults) -> str:
    """Compare both products of each adjacent pair with criterion 5."""
    blocks = [a.blocks for a in spec.algebras]
    d = segment_dims(blocks, mults)
    bad = []
    for i in range(len(spec.bimodules) - 1):
        x, y = spec.bimodules[i], spec.bimodules[i + 1]
        for product in (tensor.tensor_left, tensor.tensor_right):
            got = product(x, y).dim
            if got != d(i, i + 2):
                bad.append(f"{product.__name__}(X{i}, X{i + 1}) has dimension "
                           f"{got}, predicted {d(i, i + 2)}")
    return "; ".join(bad)


def dense(mods, seed: int, workdir: str) -> Workload:
    """``bimodcat verify --instance FILE --json`` on a few mid-size instances.

    Setup writes each instance with ``instances.save`` and reads it back
    with ``instances.load``; the request loads it again through the CLI.
    """
    instances, cli, tensor = mods["instances"], mods["cli"], mods["tensor"]
    rng = np.random.default_rng(seed)
    requests, seeds = [], []
    for k, (limits, gen_seed) in enumerate(DENSE_SHAPES):
        shape = instances.generate(gen_seed,
                                   limits=instances.Limits(**limits))
        spec = _rebased(mods, shape, rng, seed * len(DENSE_SHAPES) + k)
        path = os.path.join(workdir, f"dense-{seed}-{k}.json")
        with open(path, "wb") as fh:
            fh.write(instances.save(spec))
        with open(path, "rb") as fh:
            spec = instances.load(fh.read())
        mults = [np.asarray(x.canonical[0]) for x in shape.bimodules]
        requests.append(Request(
            f"verify --instance dense-{seed}-{k}.json",
            lambda p=path: cli_call(cli, ["verify", "--instance", p, "--json"]),
            _cli_check,
            once=lambda s=spec, m=mults: _product_dims_problem(tensor, s, m)))
        seeds.append(gen_seed)
    return Workload(requests, seeds, {"shapes": [
        {"limits": lim, "generator_seed": g} for lim, g in DENSE_SHAPES]})


# -- mutation -----------------------------------------------------------------

#: criterion 7's (family, mutated edge) pairs; trial t mutates role t % 13
MUTATION_ROLES = (
    ("triangle-left", "assoc"), ("triangle-right", "left-unit"),
    ("triangle-left", "right-unit"), ("pentagon-left", "assoc"),
    ("pentagon-right", "assoc"), ("m-unit", "m"), ("m-unit", "left-unit"),
    ("m-assoc", "m"), ("m-assoc", "assoc"), ("hexagon-left", "c"),
    ("hexagon-right", "assoc"), ("duality-left", "c"),
    ("duality-right", "c"))
#: candidate trials per role, and how many of their cost-middle are kept
MUTATION_WINDOW = 16
MUTATION_PER_ROLE = 8
MUTATION_EPS = 1e-3


def mutation(mods, seed: int) -> Workload:
    """Criterion 7's loop: one mutated single-family ``run_suite`` per request.

    Criterion 7 mutates role t % 13 in trial t, an instance generated with
    ``--min-mult 1`` limits.  Per role, the trials t = role + 13 j for
    j < MUTATION_WINDOW are ranked by predicted cost and the middle
    MUTATION_PER_ROLE are kept.  That drops trials like 4, 9 and 69, whose
    one check takes from 28 s to minutes.  The kept shapes are the same
    for every seed, as on ``dense``: the seed redraws their bases,
    morphisms and mutations.
    """
    instances, coherence = mods["instances"], mods["coherence"]
    limits = instances.Limits(min_mult=1)
    rng = np.random.default_rng(seed)
    requests, trials = [], []
    skip = (MUTATION_WINDOW - MUTATION_PER_ROLE) // 2
    for r, (family, role) in enumerate(MUTATION_ROLES):
        candidates = []
        for j in range(MUTATION_WINDOW):
            trial = r + len(MUTATION_ROLES) * j
            shape = instances.generate(trial, limits=limits)
            cost = predicted_cost(*spec_structure(shape), [family])
            candidates.append((cost, trial, shape))
        candidates.sort(key=lambda c: c[:2])
        for _, trial, shape in candidates[skip:skip + MUTATION_PER_ROLE]:
            spec = _rebased(mods, shape, rng, trial)

            def call(spec=spec, family=family, role=role, trial=trial):
                mutate = np.random.default_rng([seed, trial])
                report = coherence.run_suite(
                    spec, tol=TOL, suite=[family],
                    mutation=(role, mutate, MUTATION_EPS))
                return json.dumps(report, sort_keys=True)
            requests.append(Request(
                f"run_suite trial {trial} {family} mutate {role}", call,
                lambda text: check_report(text, 0, expect_pass=False)))
            trials.append(trial)
    return Workload(requests, trials)
