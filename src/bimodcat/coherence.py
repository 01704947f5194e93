"""Executable coherence diagrams: defect norms for every structural identity.

Each check builds the two composite paths around a diagram as explicit
matrices and reports the operator norm of their difference, together with a
scale-aware tolerance: the base times the product of max(1, ||e||) over the
edges e of the longer path (:func:`bimodcat.linalg.scale_tol`).
The structural edges are unitaries, of norm 1, and enter as 1 without an
SVD, so only the naturality squares' random endomorphisms f and g scale a
tolerance.  Zero-dimensional inputs yield "degenerate-pass" results.

An edge that whiskers a map by a factor it leaves unchanged, f (x) 1 or
1 (x) g, passes None for that identity leg to
:func:`bimodcat.tensor.tensor_morphisms`, which reads it off the members
as an index mask.

Every check accepts a ``mutation`` hook ``(role, rng, eps)`` that replaces
the named structural edge e by R e for a random unitary R within eps of the
identity — the sensitivity harness for the diagrams.  The twisted edge is
the edge as drawn: where the role's map is whiskered, as a_WXY (x) 1 in
the pentagon, the whiskered map is twisted, so no leg handed to
``tensor_morphisms`` is twisted.

Each check runs in a product store (see :mod:`bimodcat.store`): its own
when called alone, the suite's inside :func:`run_suite`.  So a check
builds each product it needs once either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import standard_form
from .bimodule import Bimodule, double_dual_iso, dual_bimodule, transpose
from .instances import InstanceSpec, random_morphism
from .involution import conjugation
from .linalg import DEFAULT_TOL, op_norm, scale_tol, small_rotation
from .store import product_store
from .tensor import (KIND_LEFT, KIND_RIGHT, associator, left_unitor, m_iso,
                     right_unitor, tensor, tensor_left, tensor_morphisms,
                     tensor_right)

#: (edge role, rng, epsilon) — twist the named edge by a random eps-rotation
Mutation = Tuple[str, np.random.Generator, float]

NATURALITY_FAMILIES = ("naturality-unitors", "naturality-assoc",
                       "naturality-m", "naturality-c")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one diagram check."""

    name: str
    defect: float
    tol: float
    passed: bool
    dims: Tuple[int, ...] = ()
    degenerate: bool = False
    error: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "defect": self.defect, "tol": self.tol,
                "passed": self.passed, "dims": list(self.dims),
                "degenerate": self.degenerate, "error": self.error}


def _twist(mat: np.ndarray, role: str, mutation: Optional[Mutation]) -> np.ndarray:
    if mutation is not None and mutation[0] == role:
        _, rng, eps = mutation
        return small_rotation(rng, mat.shape[0], eps) @ mat
    return mat


def _result(name: str, defect: float, tol: float,
            dims: Sequence[int]) -> CheckResult:
    return CheckResult(name=name, defect=float(defect), tol=float(tol),
                       passed=bool(defect <= tol), dims=tuple(int(d) for d in dims))


def _degenerate(name: str, tol: float, dims: Sequence[int]) -> CheckResult:
    return CheckResult(name=name, defect=0.0, tol=float(tol), passed=True,
                       dims=tuple(int(d) for d in dims), degenerate=True)


def _path_tol(base: float, *random_edges: np.ndarray) -> float:
    """The tolerance of a path whose edges not given are unitaries."""
    return scale_tol(*[op_norm(e) for e in random_edges], base=base)


@product_store()
def check_triangle(kind: str, x: Bimodule, y: Bimodule,
                   base_tol: float = DEFAULT_TOL,
                   mutation: Optional[Mutation] = None) -> CheckResult:
    """(1 (x) l) o a = r (x) 1 on X (x) L2(B) (x) Y."""
    name = f"triangle-{kind}"
    dims = (x.dim, y.dim)
    if x.dim == 0 or y.dim == 0:
        return _degenerate(name, base_tol, dims)
    l2 = standard_form(x.right_algebra).bimodule
    t_xy = tensor(kind, x, y)
    t_xl_y = tensor(kind, tensor(kind, x, l2).result, y)
    t_x_ly = tensor(kind, x, tensor(kind, l2, y).result)
    a = _twist(associator(kind, x, l2, y), "assoc", mutation)
    e_r = tensor_morphisms(t_xl_y, t_xy, right_unitor(kind, x), None)
    e_l = tensor_morphisms(t_x_ly, t_xy, None, left_unitor(kind, y))
    e_r = _twist(e_r, "right-unit", mutation)
    e_l = _twist(e_l, "left-unit", mutation)
    defect = op_norm(e_l @ a - e_r)
    return _result(name, defect, _path_tol(base_tol), dims)


@product_store()
def check_pentagon(kind: str, w: Bimodule, x: Bimodule, y: Bimodule,
                   z: Bimodule, base_tol: float = DEFAULT_TOL,
                   mutation: Optional[Mutation] = None) -> CheckResult:
    """The two five-edge reassociation paths on W (x) X (x) Y (x) Z agree."""
    name = f"pentagon-{kind}"
    dims = (w.dim, x.dim, y.dim, z.dim)
    if 0 in dims:
        return _degenerate(name, base_tol, dims)
    wx, xy, yz = (tensor(kind, *p).result for p in ((w, x), (x, y), (y, z)))
    e1 = tensor_morphisms(tensor(kind, tensor(kind, wx, y).result, z),
                          tensor(kind, tensor(kind, w, xy).result, z),
                          associator(kind, w, x, y), None)
    e1 = _twist(e1, "assoc", mutation)
    e3 = tensor_morphisms(tensor(kind, w, tensor(kind, xy, z).result),
                          tensor(kind, w, tensor(kind, x, yz).result),
                          None, associator(kind, x, y, z))
    long_path = e3 @ associator(kind, w, xy, z) @ e1
    short_path = associator(kind, w, x, yz) @ associator(kind, wx, y, z)
    defect = op_norm(long_path - short_path)
    return _result(name, defect, _path_tol(base_tol), dims)


@product_store()
def check_m_unit(x: Bimodule, base_tol: float = DEFAULT_TOL,
                 mutation: Optional[Mutation] = None) -> CheckResult:
    """Both unit triangles for m: l o m = l and r o m = r across the kinds."""
    name = "m-unit"
    if x.dim == 0:
        return _degenerate(name, base_tol, (x.dim,))
    l2a = standard_form(x.left_algebra).bimodule
    l2b = standard_form(x.right_algebra).bimodule
    defects = []
    for pair, unitor, role in (((l2a, x), left_unitor, "left-unit"),
                               ((x, l2b), right_unitor, "right-unit")):
        m = _twist(m_iso(*pair), "m", mutation)
        unit = _twist(unitor(KIND_RIGHT, x), role, mutation)
        defects.append(op_norm(unit @ m - unitor(KIND_LEFT, x)))
    return _result(name, max(defects), _path_tol(base_tol), (x.dim,))


@product_store()
def check_m_assoc(x: Bimodule, y: Bimodule, z: Bimodule,
                  base_tol: float = DEFAULT_TOL,
                  mutation: Optional[Mutation] = None) -> CheckResult:
    """m is associative: the square through the two associators closes."""
    name = "m-assoc"
    dims = (x.dim, y.dim, z.dim)
    if 0 in dims:
        return _degenerate(name, base_tol, dims)
    xy_l, xy_r = tensor_left(x, y).result, tensor_right(x, y).result
    yz_l, yz_r = tensor_left(y, z).result, tensor_right(y, z).result
    a_l = _twist(associator(KIND_LEFT, x, y, z), "assoc", mutation)
    e1 = tensor_morphisms(tensor_left(xy_l, z), tensor_left(xy_r, z),
                          m_iso(x, y), None)
    e1 = _twist(e1, "m", mutation)
    path1 = associator(KIND_RIGHT, x, y, z) @ m_iso(xy_r, z) @ e1
    e2 = tensor_morphisms(tensor_left(x, yz_l), tensor_left(x, yz_r),
                          None, m_iso(y, z))
    path2 = m_iso(x, yz_r) @ e2 @ a_l
    defect = op_norm(path1 - path2)
    return _result(name, defect, _path_tol(base_tol), dims)


@product_store()
def check_involution_hexagon(kind: str, x: Bimodule, y: Bimodule, z: Bimodule,
                             base_tol: float = DEFAULT_TOL,
                             mutation: Optional[Mutation] = None) -> CheckResult:
    """Anti-multiplicativity of the dual: c respects reassociation."""
    name = f"hexagon-{kind}"
    dims = (x.dim, y.dim, z.dim)
    if 0 in dims:
        return _degenerate(name, base_tol, dims)
    xs, ys, zs = dual_bimodule(x), dual_bimodule(y), dual_bimodule(z)
    a_dual = _twist(associator(kind, zs, ys, xs), "assoc", mutation)
    c_xy, c_yz = conjugation(kind, x, y), conjugation(kind, y, z)
    e_a = tensor_morphisms(tensor(kind, zs, tensor(kind, ys, xs).result),
                           tensor(kind, zs, c_xy.target), None, c_xy.matrix)
    e_a = _twist(e_a, "c", mutation)
    c2 = conjugation(kind, tensor(kind, x, y).result, z)
    lhs = c2.matrix @ e_a @ a_dual
    e_b = tensor_morphisms(tensor(kind, tensor(kind, zs, ys).result, xs),
                           tensor(kind, c_yz.target, xs), c_yz.matrix, None)
    c3 = conjugation(kind, x, tensor(kind, y, z).result)
    rhs = associator(kind, x, y, z).T @ c3.matrix @ e_b
    defect = op_norm(lhs - rhs)
    return _result(name, defect, _path_tol(base_tol), dims)


@product_store()
def check_duality_square(kind: str, x: Bimodule, y: Bimodule,
                         base_tol: float = DEFAULT_TOL,
                         mutation: Optional[Mutation] = None) -> CheckResult:
    """c_{Y*,X*} o (d_X (x) d_Y) = (transpose c_{X,Y}) o d_{X(x)Y}.

    The double-dual identifications d are the canonical ones fixed by the
    conjugate-coordinate model (identity matrices); the companion identity
    transpose(d_X) = d_{X*}^{-1} is folded into the same defect.
    """
    name = f"duality-{kind}"
    dims = (x.dim, y.dim)
    if 0 in dims:
        return _degenerate(name, base_tol, dims)
    xs, ys = dual_bimodule(x), dual_bimodule(y)
    t_xy = tensor(kind, x, y)
    c_xy = conjugation(kind, x, y)
    c_xy_mat = _twist(c_xy.matrix, "c", mutation)
    xss, yss = dual_bimodule(xs), dual_bimodule(ys)
    t_dd = tensor(kind, xss, yss)
    d_x, d_y = double_dual_iso(x), double_dual_iso(y)
    dd_edge = tensor_morphisms(t_xy, t_dd, d_x.matrix, d_y.matrix)
    c_dd = conjugation(kind, ys, xs)
    d_xy = double_dual_iso(t_xy.result)
    lhs = c_dd.matrix @ dd_edge
    rhs = c_xy_mat.T @ d_xy.matrix
    d1 = op_norm(lhs - rhs)
    d2 = op_norm(transpose(d_x).matrix -
                 np.linalg.inv(double_dual_iso(xs).matrix))
    defect = max(d1, d2)
    return _result(name, defect, _path_tol(base_tol), dims)


@product_store()
def check_naturality_suite(x: Bimodule, y: Bimodule, z: Bimodule,
                           rng: np.random.Generator,
                           base_tol: float = DEFAULT_TOL,
                           mutation: Optional[Mutation] = None
                           ) -> List[CheckResult]:
    """Naturality squares for l, r, a, m, c against random endomorphisms."""
    out: List[CheckResult] = []
    dims = (x.dim, y.dim, z.dim)
    if 0 in dims:
        return [_degenerate(n, base_tol, dims) for n in NATURALITY_FAMILIES]
    f = random_morphism(x, x, rng).matrix
    g = random_morphism(y, y, rng).matrix
    l2a = standard_form(x.left_algebra).bimodule
    l2b = standard_form(x.right_algebra).bimodule

    worst = 0.0
    for kind in (KIND_LEFT, KIND_RIGHT):
        for tp, unitor, f1, f2 in (
                (tensor(kind, l2a, x), left_unitor, None, f),
                (tensor(kind, x, l2b), right_unitor, f, None)):
            u = unitor(kind, x)
            e = tensor_morphisms(tp, tp, f1, f2)
            worst = max(worst, op_norm(u @ e - f @ u))
    out.append(_result("naturality-unitors", worst,
                       _path_tol(base_tol, f), dims))

    t_xy = {kind: tensor(kind, x, y) for kind in (KIND_LEFT, KIND_RIGHT)}
    fg = {}     # f (x) g on X (x) Y, per kind: shared by the next three squares
    worst = 0.0
    for kind in (KIND_LEFT, KIND_RIGHT):
        t_yz = tensor(kind, y, z)
        t_xy_z = tensor(kind, t_xy[kind].result, z)
        t_x_yz = tensor(kind, x, t_yz.result)
        a = associator(kind, x, y, z)
        fg[kind] = tensor_morphisms(t_xy[kind], t_xy[kind], f, g)
        lhs = a @ tensor_morphisms(t_xy_z, t_xy_z, fg[kind], None)
        gz = tensor_morphisms(t_yz, t_yz, g, None)
        rhs = tensor_morphisms(t_x_yz, t_x_yz, f, gz) @ a
        worst = max(worst, op_norm(lhs - rhs))
    out.append(_result("naturality-assoc", worst,
                       _path_tol(base_tol, f, g), dims))

    m = _twist(m_iso(x, y), "m", mutation)
    lhs = m @ fg[KIND_LEFT]
    rhs = fg[KIND_RIGHT] @ m
    out.append(_result("naturality-m", op_norm(lhs - rhs),
                       _path_tol(base_tol, f, g), dims))

    worst = 0.0
    xs, ys = dual_bimodule(x), dual_bimodule(y)
    for kind in (KIND_LEFT, KIND_RIGHT):
        t_yx = tensor(kind, ys, xs)
        c = conjugation(kind, x, y)
        tgf = tensor_morphisms(t_yx, t_yx, g.T, f.T)
        worst = max(worst, op_norm(c.matrix @ tgf - fg[kind].T @ c.matrix))
    out.append(_result("naturality-c", worst,
                       _path_tol(base_tol, f, g), dims))
    return out


# -- suite driver -------------------------------------------------------------

CHECK_FAMILIES = (
    "triangle-left", "triangle-right",
    "pentagon-left", "pentagon-right",
    "m-unit", "m-assoc",
    "hexagon-left", "hexagon-right",
    "duality-left", "duality-right",
) + NATURALITY_FAMILIES

#: 2: the CLI writes a defect that is not finite as JSON null
REPORT_VERSION = 2


def run_suite(instance: InstanceSpec, tol: float = DEFAULT_TOL,
              suite: Optional[Sequence[str]] = None,
              mutation: Optional[Mutation] = None) -> dict:
    """Run the applicable checks on an instance and assemble a report.

    Construction failures are captured per-check (the suite continues);
    the report is deterministic for a fixed instance: checks are sorted by
    name and all values derive from seeded draws.

    The checks share one product store (see :mod:`bimodcat.store`) that is
    opened here, joined by each check, and closed when the call returns,
    also when a check raises.
    Each product, dual and ``m`` is built once per call instead of once
    per check: a full 4-chain suite asks the store for a product 206 times
    and builds 50, and builds no bounded space.
    """
    bs = instance.bimodules
    results: List[CheckResult] = []

    def want(name: str) -> bool:
        return suite is None or name in suite

    def run(name: str, arity: int, check: Callable[..., object], *lead):
        """Append check(*lead, *bs[:arity]), or an error result if it raises."""
        if len(bs) < arity:
            return
        try:
            out = check(*lead, *bs[:arity], base_tol=tol, mutation=mutation)
        except Exception as exc:  # noqa: BLE001 — suite must keep going
            out = CheckResult(name=name, defect=float("inf"), tol=0.0,
                              passed=False, error=f"{type(exc).__name__}: {exc}")
        results.extend(out if isinstance(out, list) else [out])

    def naturality(x, y, z, **kw) -> List[CheckResult]:
        rng = np.random.default_rng(instance.seed + 1)
        return [r for r in check_naturality_suite(x, y, z, rng, **kw)
                if want(r.name)]

    with product_store():
        for kind in (KIND_LEFT, KIND_RIGHT):
            if want(f"triangle-{kind}"):
                run(f"triangle-{kind}", 2, check_triangle, kind)
            if want(f"pentagon-{kind}"):
                run(f"pentagon-{kind}", 4, check_pentagon, kind)
        if want("m-unit"):
            run("m-unit", 1, check_m_unit)
        if want("m-assoc"):
            run("m-assoc", 3, check_m_assoc)
        for kind in (KIND_LEFT, KIND_RIGHT):
            if want(f"hexagon-{kind}"):
                run(f"hexagon-{kind}", 3, check_involution_hexagon, kind)
            if want(f"duality-{kind}"):
                run(f"duality-{kind}", 2, check_duality_square, kind)
        if any(want(n) for n in NATURALITY_FAMILIES):
            run("naturality", 3, naturality)
    results.sort(key=lambda r: r.name)
    defects = [r.defect for r in results]
    errors = sum(1 for r in results if r.error)
    report = {
        "version": REPORT_VERSION,
        "seed": int(instance.seed),
        "tolerance": float(tol),
        "checks": [r.as_dict() for r in results],
        "summary": {
            "total": len(results),
            "passed": sum(1 for r in results if r.passed),
            "errors": errors,
            "maxDefect": float(max(defects)) if defects else 0.0,
        },
    }
    return report


def exit_code(report: dict) -> int:
    """0 = all pass, 1 = some check failed, 2 = construction error."""
    if report["summary"]["errors"]:
        return 2
    if report["summary"]["passed"] < report["summary"]["total"]:
        return 1
    return 0
