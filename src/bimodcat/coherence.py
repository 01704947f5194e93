"""Executable coherence diagrams: defect norms for every structural identity.

Each check builds the two composite paths around a diagram as explicit
matrices and reports the operator norm of their difference, together with a
scale-aware tolerance (base times the product of edge norms along the longer
path, floored).  Zero-dimensional inputs yield "degenerate-pass" results.

Every check accepts a ``mutation`` hook ``(role, rng, eps)`` that replaces
the named structural edge e by R e for a random unitary R within eps of the
identity — the sensitivity harness for the diagrams.
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


def _path_tol(base: float, *edges: np.ndarray) -> float:
    return scale_tol(*[op_norm(e) for e in edges], base=base)


def check_triangle(kind: str, x: Bimodule, y: Bimodule,
                   base_tol: float = DEFAULT_TOL,
                   mutation: Optional[Mutation] = None) -> CheckResult:
    """(1 (x) l) o a = r (x) 1 on X (x) L2(B) (x) Y."""
    name = f"triangle-{kind}"
    dims = (x.dim, y.dim)
    if x.dim == 0 or y.dim == 0:
        return _degenerate(name, base_tol, dims)
    l2 = standard_form(x.right_algebra).bimodule
    t_xl = tensor(kind, x, l2)
    t_ly = tensor(kind, l2, y)
    t_xl_y = tensor(kind, t_xl.result, y)
    t_x_ly = tensor(kind, x, t_ly.result)
    t_xy = tensor(kind, x, y)
    a = associator(t_xl, t_xl_y, t_ly, t_x_ly)
    e_r = tensor_morphisms(t_xl_y, t_xy, right_unitor(t_xl), np.eye(y.dim))
    e_l = tensor_morphisms(t_x_ly, t_xy, np.eye(x.dim), left_unitor(t_ly))
    a = _twist(a, "assoc", mutation)
    e_r = _twist(e_r, "right-unit", mutation)
    e_l = _twist(e_l, "left-unit", mutation)
    defect = op_norm(e_l @ a - e_r)
    return _result(name, defect, _path_tol(base_tol, e_l, a), dims)


def check_pentagon(kind: str, w: Bimodule, x: Bimodule, y: Bimodule,
                   z: Bimodule, base_tol: float = DEFAULT_TOL,
                   mutation: Optional[Mutation] = None) -> CheckResult:
    """The two five-edge reassociation paths on W (x) X (x) Y (x) Z agree."""
    name = f"pentagon-{kind}"
    dims = (w.dim, x.dim, y.dim, z.dim)
    if 0 in dims:
        return _degenerate(name, base_tol, dims)
    t_wx = tensor(kind, w, x)
    t_xy = tensor(kind, x, y)
    t_yz = tensor(kind, y, z)
    t_wx_y = tensor(kind, t_wx.result, y)
    t_w_xy = tensor(kind, w, t_xy.result)
    t_xy_z = tensor(kind, t_xy.result, z)
    t_x_yz = tensor(kind, x, t_yz.result)
    t_wxy_z = tensor(kind, t_wx_y.result, z)      # ((WX)Y)Z
    t_wxy2_z = tensor(kind, t_w_xy.result, z)     # (W(XY))Z
    t_w_xyz = tensor(kind, w, t_xy_z.result)      # W((XY)Z)
    t_w_x_yz = tensor(kind, w, t_x_yz.result)     # W(X(YZ))
    t_wx_yz = tensor(kind, t_wx.result, t_yz.result)  # (WX)(YZ)
    a_wxy = associator(t_wx, t_wx_y, t_xy, t_w_xy)
    a_wxy = _twist(a_wxy, "assoc", mutation)
    e1 = tensor_morphisms(t_wxy_z, t_wxy2_z, a_wxy, np.eye(z.dim),
                          check=mutation is None)
    a2 = associator(t_w_xy, t_wxy2_z, t_xy_z, t_w_xyz)
    a_xyz = associator(t_xy, t_xy_z, t_yz, t_x_yz)
    e3 = tensor_morphisms(t_w_xyz, t_w_x_yz, np.eye(w.dim), a_xyz)
    long_path = e3 @ a2 @ e1
    a4 = associator(t_wx_y, t_wxy_z, t_yz, t_wx_yz)
    a5 = associator(t_wx, t_wx_yz, t_x_yz, t_w_x_yz)
    short_path = a5 @ a4
    defect = op_norm(long_path - short_path)
    return _result(name, defect, _path_tol(base_tol, e1, a2, e3), dims)


def check_m_unit(x: Bimodule, base_tol: float = DEFAULT_TOL,
                 mutation: Optional[Mutation] = None) -> CheckResult:
    """Both unit triangles for m: l o m = l and r o m = r across the kinds."""
    name = "m-unit"
    if x.dim == 0:
        return _degenerate(name, base_tol, (x.dim,))
    l2a = standard_form(x.left_algebra).bimodule
    l2b = standard_form(x.right_algebra).bimodule
    defects, edges = [], []
    for pair, unitor, role in (((l2a, x), left_unitor, "left-unit"),
                               ((x, l2b), right_unitor, "right-unit")):
        tl, tr = tensor_left(*pair), tensor_right(*pair)
        m = _twist(m_iso(*pair, tp_left=tl, tp_right=tr), "m", mutation)
        unit = _twist(unitor(tr), role, mutation)
        defects.append(op_norm(unit @ m - unitor(tl)))
        edges += [unit, m]
    return _result(name, max(defects), _path_tol(base_tol, *edges), (x.dim,))


def check_m_assoc(x: Bimodule, y: Bimodule, z: Bimodule,
                  base_tol: float = DEFAULT_TOL,
                  mutation: Optional[Mutation] = None) -> CheckResult:
    """m is associative: the square through the two associators closes."""
    name = "m-assoc"
    dims = (x.dim, y.dim, z.dim)
    if 0 in dims:
        return _degenerate(name, base_tol, dims)
    t_xy_l = tensor_left(x, y)
    t_xy_r = tensor_right(x, y)
    t_yz_l = tensor_left(y, z)
    t_yz_r = tensor_right(y, z)
    m_xy = _twist(m_iso(x, y, tp_left=t_xy_l, tp_right=t_xy_r), "m", mutation)
    m_yz = m_iso(y, z, tp_left=t_yz_l, tp_right=t_yz_r)
    t_l_xyl_z = tensor_left(t_xy_l.result, z)
    t_l_xyr_z = tensor_left(t_xy_r.result, z)
    t_r_xyr_z = tensor_right(t_xy_r.result, z)
    t_l_x_yzl = tensor_left(x, t_yz_l.result)
    t_l_x_yzr = tensor_left(x, t_yz_r.result)
    t_r_x_yzr = tensor_right(x, t_yz_r.result)
    a_l = associator(t_xy_l, t_l_xyl_z, t_yz_l, t_l_x_yzl)
    a_l = _twist(a_l, "assoc", mutation)
    a_r = associator(t_xy_r, t_r_xyr_z, t_yz_r, t_r_x_yzr)
    e1 = tensor_morphisms(t_l_xyl_z, t_l_xyr_z, m_xy, np.eye(z.dim),
                          check=mutation is None)
    m_big1 = m_iso(t_xy_r.result, z, tp_left=t_l_xyr_z, tp_right=t_r_xyr_z)
    path1 = a_r @ m_big1 @ e1
    e2 = tensor_morphisms(t_l_x_yzl, t_l_x_yzr, np.eye(x.dim), m_yz)
    m_big2 = m_iso(x, t_yz_r.result, tp_left=t_l_x_yzr, tp_right=t_r_x_yzr)
    path2 = m_big2 @ e2 @ a_l
    defect = op_norm(path1 - path2)
    return _result(name, defect, _path_tol(base_tol, a_r, m_big1, e1), dims)


def check_involution_hexagon(kind: str, x: Bimodule, y: Bimodule, z: Bimodule,
                             base_tol: float = DEFAULT_TOL,
                             mutation: Optional[Mutation] = None) -> CheckResult:
    """Anti-multiplicativity of the dual: c respects reassociation."""
    name = f"hexagon-{kind}"
    dims = (x.dim, y.dim, z.dim)
    if 0 in dims:
        return _degenerate(name, base_tol, dims)
    xs, ys, zs = dual_bimodule(x), dual_bimodule(y), dual_bimodule(z)
    t_xy = tensor(kind, x, y)
    t_yz = tensor(kind, y, z)
    t_xy_z = tensor(kind, t_xy.result, z)
    t_x_yz = tensor(kind, x, t_yz.result)
    a = associator(t_xy, t_xy_z, t_yz, t_x_yz)
    t_zy = tensor(kind, zs, ys)
    t_yx = tensor(kind, ys, xs)
    t_zy_x = tensor(kind, t_zy.result, xs)
    t_z_yx = tensor(kind, zs, t_yx.result)
    a_dual = associator(t_zy, t_zy_x, t_yx, t_z_yx)
    a_dual = _twist(a_dual, "assoc", mutation)
    c_xy = conjugation(kind, x, y, tp=t_xy, tp_dual=t_yx)
    c_yz = conjugation(kind, y, z, tp=t_yz, tp_dual=t_zy)
    c_xy_mat = _twist(c_xy.matrix, "c", mutation)
    dual_xy = c_xy.target
    t_z_dxy = tensor(kind, zs, dual_xy)
    e_a = tensor_morphisms(t_z_yx, t_z_dxy, np.eye(zs.dim), c_xy_mat,
                           check=mutation is None)
    c2 = conjugation(kind, t_xy.result, z, tp=t_xy_z, tp_dual=t_z_dxy)
    lhs = c2.matrix @ e_a @ a_dual
    dual_yz = c_yz.target
    t_dyz_x = tensor(kind, dual_yz, xs)
    e_b = tensor_morphisms(t_zy_x, t_dyz_x, c_yz.matrix, np.eye(xs.dim))
    c3 = conjugation(kind, x, t_yz.result, tp=t_x_yz, tp_dual=t_dyz_x)
    rhs = a.T @ c3.matrix @ e_b
    defect = op_norm(lhs - rhs)
    return _result(name, defect, _path_tol(base_tol, c2.matrix, e_a, a_dual),
                   dims)


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
    t_yx = tensor(kind, ys, xs)
    c_xy = conjugation(kind, x, y, tp=t_xy, tp_dual=t_yx)
    c_xy_mat = _twist(c_xy.matrix, "c", mutation)
    xss, yss = dual_bimodule(xs), dual_bimodule(ys)
    t_dd = tensor(kind, xss, yss)
    d_x, d_y = double_dual_iso(x), double_dual_iso(y)
    dd_edge = tensor_morphisms(t_xy, t_dd, d_x.matrix, d_y.matrix)
    c_dd = conjugation(kind, ys, xs, tp=t_yx, tp_dual=t_dd)
    d_xy = double_dual_iso(t_xy.result)
    lhs = c_dd.matrix @ dd_edge
    rhs = c_xy_mat.T @ d_xy.matrix
    d1 = op_norm(lhs - rhs)
    d2 = op_norm(transpose(d_x).matrix -
                 np.linalg.inv(double_dual_iso(xs).matrix))
    defect = max(d1, d2)
    return _result(name, defect, _path_tol(base_tol, c_dd.matrix, dd_edge),
                   dims)


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
                (tensor(kind, l2a, x), left_unitor, np.eye(l2a.dim), f),
                (tensor(kind, x, l2b), right_unitor, f, np.eye(l2b.dim))):
            u = unitor(tp)
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
        a = associator(t_xy[kind], t_xy_z, t_yz, t_x_yz)
        fg[kind] = tensor_morphisms(t_xy[kind], t_xy[kind], f, g)
        lhs = a @ tensor_morphisms(t_xy_z, t_xy_z, fg[kind], np.eye(z.dim))
        gz = tensor_morphisms(t_yz, t_yz, g, np.eye(z.dim))
        rhs = tensor_morphisms(t_x_yz, t_x_yz, f, gz) @ a
        worst = max(worst, op_norm(lhs - rhs))
    out.append(_result("naturality-assoc", worst,
                       _path_tol(base_tol, f, g), dims))

    m = _twist(m_iso(x, y, tp_left=t_xy[KIND_LEFT], tp_right=t_xy[KIND_RIGHT]),
               "m", mutation)
    lhs = m @ fg[KIND_LEFT]
    rhs = fg[KIND_RIGHT] @ m
    out.append(_result("naturality-m", op_norm(lhs - rhs),
                       _path_tol(base_tol, m, f, g), dims))

    worst = 0.0
    xs, ys = dual_bimodule(x), dual_bimodule(y)
    for kind in (KIND_LEFT, KIND_RIGHT):
        t_yx = tensor(kind, ys, xs)
        c = conjugation(kind, x, y, tp=t_xy[kind], tp_dual=t_yx)
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

REPORT_VERSION = 1


def run_suite(instance: InstanceSpec, tol: float = DEFAULT_TOL,
              suite: Optional[Sequence[str]] = None,
              mutation: Optional[Mutation] = None) -> dict:
    """Run the applicable checks on an instance and assemble a report.

    Construction failures are captured per-check (the suite continues);
    the report is deterministic for a fixed instance: checks are sorted by
    name and all values derive from seeded draws.

    The checks share one product store (see :mod:`bimodcat.store`) that is
    opened here and closed when the call returns, also when a check raises.
    Its members are the chain bimodules, the standard forms of their
    algebras and the duals of members; each product of two members, and
    each dual of a member, is built once per call instead of once per check
    (a full 4-chain suite builds 66 products instead of 102).  Products
    with a product's result as a factor are built per check and not kept:
    keeping every product raised the ``dense`` benchmark's peak RSS from
    68 to 88 MB (+29 %), while keeping the members' products reads 69 MB.
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

    standard = [standard_form(a).bimodule
                for x in bs for a in (x.left_algebra, x.right_algebra)]
    with product_store([*bs, *standard]):
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
