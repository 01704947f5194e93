"""Executable coherence diagrams: defect norms for every structural identity.

Each check builds the two composite paths around a diagram: as index
arrays while every edge permutes frame columns, as matrices from the
first dense edge on.  It reports the operator norm of their difference,
0.0 for two equal index arrays, against one tolerance rule: the base
times max(1, ||e||) for each edge e that is not a unitary
(:func:`bimodcat.linalg.scale_tol`).  Every structural edge is a
unitary, so a structural check's tolerance is the base itself; only the
naturality squares scale theirs, by their random endomorphisms f and g.
An input of dimension 0 takes the same path, on empty matrices: a
diagram that draws it reads 0, and the result is marked degenerate.

An edge that whiskers a map by a factor it leaves unchanged, f (x) 1 or
1 (x) g, passes None for that identity leg, which is read off the members.

Every structural edge permutes frame columns, so it is an index array
(``perm[j]`` is the target member of source member j; :mod:`bimodcat.tensor`):
a, c, m, the unitors (into the target's frame columns), the double-dual
edge d_X (x) d_Y, the identity of frame columns since X**'s frame is
X's, and their whiskerings, :func:`bimodcat.tensor.tensor_morphisms` of
index legs.  A path composes them by indexing, and a dense edge by a
gather of its columns or a scatter of its rows, bit for bit its product
with the 0/1 matrix.  So every diagram but naturality compares two
index arrays and reads 0.0 without a norm when they are equal; unequal
arrays are made dense, so a wrong permutation reports its true defect.
The naturality squares' f and g, and f (x) g of them, are dense, and only
the unitors' square takes a raw unitor, W_X[:, perm].

Every check accepts a ``mutation`` hook ``(role, rng, eps)`` that replaces
the named structural edge e by R e for a random unitary R within eps of the
identity — the sensitivity harness for the diagrams.  A twisted index
array is the dense R[:, perm], so its path goes dense.  The twisted edge
is the edge as drawn: where the role's map is whiskered, as a_WXY (x) 1 in
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
from .bimodule import Bimodule, dual_bimodule
from .instances import InstanceSpec, random_morphism
from .involution import conjugation_perm
from .linalg import (DEFAULT_TOL, op_norm, permutation_matrix, scale_tol,
                     small_rotation)
from .store import product_store
from .tensor import (KIND_LEFT, KIND_RIGHT, associator_perm, left_unitor,
                     left_unitor_perm, m_perm, right_unitor,
                     right_unitor_perm, tensor, tensor_left, tensor_morphisms,
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


def _twist(edge: np.ndarray, role: str, mutation: Optional[Mutation]) -> np.ndarray:
    """R e for the mutated role; an index array e gives the dense R[:, e]."""
    if mutation is not None and mutation[0] == role:
        _, rng, eps = mutation
        rot = small_rotation(rng, edge.shape[0], eps)
        return rot[:, edge] if edge.ndim == 1 else rot @ edge
    return edge


def _path(*edges: np.ndarray) -> np.ndarray:
    """edges[0] o edges[1] o ..., folded from the left as ``@`` is.

    An index array p is the 0/1 matrix P with P[p[j], j] = 1: two compose
    by indexing, M P gathers M's columns by p and P M scatters M's rows to
    p, bit for bit the products.  The result is an index array while every
    edge is one.
    """
    out = edges[0]
    for e in edges[1:]:
        if out.ndim == 2 and e.ndim == 2:
            out = out @ e
        elif out.ndim == 2:
            out = out[:, e]
        elif e.ndim == 1:
            out = out[e]
        else:
            rows = np.empty_like(e)
            rows[out] = e
            out = rows
    return out


def _transpose(edge: np.ndarray) -> np.ndarray:
    """The transpose; of an index array, its inverse."""
    if edge.ndim == 2:
        return edge.T
    inverse = np.empty_like(edge)
    inverse[edge] = np.arange(edge.size)
    return inverse


def _defect(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """op_norm(lhs - rhs); 0.0 without a norm for two equal index arrays."""
    if lhs.ndim == rhs.ndim == 1 and np.array_equal(lhs, rhs):
        return 0.0
    lhs, rhs = (permutation_matrix(e) if e.ndim == 1 else e for e in (lhs, rhs))
    return op_norm(lhs - rhs)


def _result(name: str, defect: float, tol: float,
            dims: Sequence[int]) -> CheckResult:
    """The outcome on inputs of dimensions ``dims``; degenerate if one is 0."""
    return CheckResult(name=name, defect=float(defect), tol=float(tol),
                       passed=bool(defect <= tol), degenerate=0 in dims,
                       dims=tuple(int(d) for d in dims))


@product_store()
def check_triangle(kind: str, x: Bimodule, y: Bimodule,
                   base_tol: float = DEFAULT_TOL,
                   mutation: Optional[Mutation] = None) -> CheckResult:
    """(1 (x) l) o a = r (x) 1 on X (x) L2(B) (x) Y."""
    name = f"triangle-{kind}"
    l2 = standard_form(x.right_algebra).bimodule
    t_xy = tensor(kind, x, y)
    t_xl_y = tensor(kind, tensor(kind, x, l2).result, y)
    t_x_ly = tensor(kind, x, tensor(kind, l2, y).result)
    a = _twist(associator_perm(kind, x, l2, y), "assoc", mutation)
    e_r = tensor_morphisms(t_xl_y, t_xy, right_unitor_perm(kind, x), None)
    e_l = tensor_morphisms(t_x_ly, t_xy, None, left_unitor_perm(kind, y))
    e_r = _twist(e_r, "right-unit", mutation)
    e_l = _twist(e_l, "left-unit", mutation)
    defect = _defect(_path(e_l, a), e_r)
    return _result(name, defect, base_tol, (x.dim, y.dim))


@product_store()
def check_pentagon(kind: str, w: Bimodule, x: Bimodule, y: Bimodule,
                   z: Bimodule, base_tol: float = DEFAULT_TOL,
                   mutation: Optional[Mutation] = None) -> CheckResult:
    """The two five-edge reassociation paths on W (x) X (x) Y (x) Z agree."""
    name = f"pentagon-{kind}"
    wx, xy, yz = (tensor(kind, *p).result for p in ((w, x), (x, y), (y, z)))
    e1 = tensor_morphisms(tensor(kind, tensor(kind, wx, y).result, z),
                          tensor(kind, tensor(kind, w, xy).result, z),
                          associator_perm(kind, w, x, y), None)
    e1 = _twist(e1, "assoc", mutation)
    e3 = tensor_morphisms(tensor(kind, w, tensor(kind, xy, z).result),
                          tensor(kind, w, tensor(kind, x, yz).result),
                          None, associator_perm(kind, x, y, z))
    long_path = _path(e3, associator_perm(kind, w, xy, z), e1)
    short_path = _path(associator_perm(kind, w, x, yz),
                       associator_perm(kind, wx, y, z))
    defect = _defect(long_path, short_path)
    return _result(name, defect, base_tol, (w.dim, x.dim, y.dim, z.dim))


@product_store()
def check_m_unit(x: Bimodule, base_tol: float = DEFAULT_TOL,
                 mutation: Optional[Mutation] = None) -> CheckResult:
    """Both unit triangles for m: l o m = l and r o m = r across the kinds."""
    name = "m-unit"
    l2a = standard_form(x.left_algebra).bimodule
    l2b = standard_form(x.right_algebra).bimodule
    defects = []
    for pair, unitor, role in (((l2a, x), left_unitor_perm, "left-unit"),
                               ((x, l2b), right_unitor_perm, "right-unit")):
        m = _twist(m_perm(*pair), "m", mutation)
        unit = _twist(unitor(KIND_RIGHT, x), role, mutation)
        defects.append(_defect(_path(unit, m), unitor(KIND_LEFT, x)))
    return _result(name, max(defects), base_tol, (x.dim,))


@product_store()
def check_m_assoc(x: Bimodule, y: Bimodule, z: Bimodule,
                  base_tol: float = DEFAULT_TOL,
                  mutation: Optional[Mutation] = None) -> CheckResult:
    """m is associative: the square through the two associators closes."""
    name = "m-assoc"
    xy_l, xy_r = tensor_left(x, y).result, tensor_right(x, y).result
    yz_l, yz_r = tensor_left(y, z).result, tensor_right(y, z).result
    a_l = _twist(associator_perm(KIND_LEFT, x, y, z), "assoc", mutation)
    e1 = tensor_morphisms(tensor_left(xy_l, z), tensor_left(xy_r, z),
                          m_perm(x, y), None)
    e1 = _twist(e1, "m", mutation)
    path1 = _path(associator_perm(KIND_RIGHT, x, y, z), m_perm(xy_r, z), e1)
    e2 = tensor_morphisms(tensor_left(x, yz_l), tensor_left(x, yz_r),
                          None, m_perm(y, z))
    path2 = _path(m_perm(x, yz_r), e2, a_l)
    defect = _defect(path1, path2)
    return _result(name, defect, base_tol, (x.dim, y.dim, z.dim))


@product_store()
def check_involution_hexagon(kind: str, x: Bimodule, y: Bimodule, z: Bimodule,
                             base_tol: float = DEFAULT_TOL,
                             mutation: Optional[Mutation] = None) -> CheckResult:
    """Anti-multiplicativity of the dual: c respects reassociation."""
    name = f"hexagon-{kind}"
    xs, ys, zs = dual_bimodule(x), dual_bimodule(y), dual_bimodule(z)
    xy, yz = tensor(kind, x, y).result, tensor(kind, y, z).result
    a_dual = _twist(associator_perm(kind, zs, ys, xs), "assoc", mutation)
    # c_XY : Y* (x) X* -> (X (x) Y)*, whiskered by Z* on the left
    e_a = tensor_morphisms(tensor(kind, zs, tensor(kind, ys, xs).result),
                           tensor(kind, zs, dual_bimodule(xy)), None,
                           conjugation_perm(kind, x, y))
    e_a = _twist(e_a, "c", mutation)
    lhs = _path(conjugation_perm(kind, xy, z), e_a, a_dual)
    e_b = tensor_morphisms(tensor(kind, tensor(kind, zs, ys).result, xs),
                           tensor(kind, dual_bimodule(yz), xs),
                           conjugation_perm(kind, y, z), None)
    rhs = _path(_transpose(associator_perm(kind, x, y, z)),
                conjugation_perm(kind, x, yz), e_b)
    defect = _defect(lhs, rhs)
    return _result(name, defect, base_tol, (x.dim, y.dim, z.dim))


@product_store()
def check_duality_square(kind: str, x: Bimodule, y: Bimodule,
                         base_tol: float = DEFAULT_TOL,
                         mutation: Optional[Mutation] = None) -> CheckResult:
    """c_{Y*,X*} o (d_X (x) d_Y) = transpose c_{X,Y} on X (x) Y.

    The right-hand path's edge d_{X(x)Y} is the canonical double-dual
    identification of the conjugate-coordinate model, an identity matrix,
    so the right path is the transpose of c_{X,Y} itself.  d_X is the
    identity of frame columns too, since X**'s frame is X's: so
    d_X (x) d_Y is read in frame coordinates, as an index array, and
    neither (X (x) Y)* nor (Y* (x) X*)* is built.
    """
    name = f"duality-{kind}"
    xs, ys = dual_bimodule(x), dual_bimodule(y)
    c_xy = _twist(conjugation_perm(kind, x, y), "c", mutation)
    dd_edge = tensor_morphisms(
        tensor(kind, x, y), tensor(kind, dual_bimodule(xs), dual_bimodule(ys)),
        np.arange(x.dim), np.arange(y.dim))
    lhs = _path(conjugation_perm(kind, ys, xs), dd_edge)
    return _result(name, _defect(lhs, _transpose(c_xy)), base_tol,
                   (x.dim, y.dim))


@product_store()
def check_naturality_suite(x: Bimodule, y: Bimodule, z: Bimodule,
                           rng: np.random.Generator,
                           base_tol: float = DEFAULT_TOL,
                           mutation: Optional[Mutation] = None,
                           squares: Sequence[str] = NATURALITY_FAMILIES
                           ) -> List[CheckResult]:
    """Naturality squares for l, r, a, m, c against random endomorphisms.

    Only the ``squares`` named are computed, from f, g and tolerances drawn
    as for all four.
    """
    out: List[CheckResult] = []
    dims = (x.dim, y.dim, z.dim)
    f = random_morphism(x, x, rng).matrix
    g = random_morphism(y, y, rng).matrix
    # a read-only dense leg is tested B-linear once per store
    # (bimodcat.tensor._frame_leg): so f, g and f (x) g are sealed, and
    # f^T and g^T made once
    f.setflags(write=False)
    g.setflags(write=False)
    ft, gt = f.T, g.T
    tol_f = scale_tol(op_norm(f), base=base_tol)    # the unitor squares draw f
    tol_fg = scale_tol(op_norm(g), base=tol_f)      # the others f and g

    if "naturality-unitors" in squares:
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
        out.append(_result("naturality-unitors", worst, tol_f, dims))

    t_xy, fg = {}, {}   # per kind, X (x) Y and f (x) g on it, for the rest
    if set(squares) - {"naturality-unitors"}:
        for kind in (KIND_LEFT, KIND_RIGHT):
            t_xy[kind] = tensor(kind, x, y)
            fg[kind] = tensor_morphisms(t_xy[kind], t_xy[kind], f, g)
            fg[kind].setflags(write=False)

    if "naturality-assoc" in squares:
        worst = 0.0
        for kind in (KIND_LEFT, KIND_RIGHT):
            t_yz = tensor(kind, y, z)
            t_xy_z = tensor(kind, t_xy[kind].result, z)
            t_x_yz = tensor(kind, x, t_yz.result)
            a = associator_perm(kind, x, y, z)
            lhs = _path(a, tensor_morphisms(t_xy_z, t_xy_z, fg[kind], None))
            gz = tensor_morphisms(t_yz, t_yz, g, None)
            rhs = _path(tensor_morphisms(t_x_yz, t_x_yz, f, gz), a)
            worst = max(worst, op_norm(lhs - rhs))
        out.append(_result("naturality-assoc", worst, tol_fg, dims))

    if "naturality-m" in squares:
        m = _twist(m_perm(x, y), "m", mutation)
        lhs = _path(m, fg[KIND_LEFT])
        rhs = _path(fg[KIND_RIGHT], m)
        out.append(_result("naturality-m", op_norm(lhs - rhs), tol_fg, dims))

    if "naturality-c" in squares:
        worst = 0.0
        xs, ys = dual_bimodule(x), dual_bimodule(y)
        for kind in (KIND_LEFT, KIND_RIGHT):
            t_yx = tensor(kind, ys, xs)
            c = conjugation_perm(kind, x, y)
            tgf = tensor_morphisms(t_yx, t_yx, gt, ft)
            worst = max(worst, op_norm(_path(c, tgf) - _path(fg[kind].T, c)))
        out.append(_result("naturality-c", worst, tol_fg, dims))
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

    ``suite`` names the families to report, all when None, one if a str;
    a check runs only if it reports one and the chain is long enough for it.
    ValueError names unknown families, or an empty suite (:func:`_wanted`).

    Construction failures are captured per-check (the suite continues);
    the report is deterministic for a fixed instance: checks are sorted by
    name and all values derive from seeded draws.

    The checks share one product store (see :mod:`bimodcat.store`) that is
    opened here, joined by each check, and closed when the call returns,
    also when a check raises.
    Each product, dual, ``m``, associator and unitor is built once per
    call instead of once per check: a full 4-chain suite asks the store
    for a product 176 times and builds 50, and builds no bounded space.
    Each sealed dense leg of f (x) g is tested B-linear once per call.
    """
    bs = instance.bimodules
    wanted = _wanted(suite)
    results: List[CheckResult] = []

    def run(name: str, arity: int, check: Callable[..., object], *lead):
        """Append check(*lead, *bs[:arity])'s wanted results, or an error
        result under ``name`` if it raises."""
        families = NATURALITY_FAMILIES if name == "naturality" else (name,)
        if len(bs) < arity or wanted.isdisjoint(families):
            return
        try:
            out = check(*lead, *bs[:arity], base_tol=tol, mutation=mutation)
        except Exception as exc:  # noqa: BLE001 — suite must keep going
            results.append(CheckResult(
                name=name, defect=float("inf"), tol=0.0, passed=False,
                error=f"{type(exc).__name__}: {exc}"))
            return
        results.extend(out if isinstance(out, list) else [out])

    def naturality(x, y, z, **kw) -> List[CheckResult]:
        rng = np.random.default_rng(instance.seed + 1)
        return check_naturality_suite(x, y, z, rng, **kw, squares=wanted)

    with product_store():
        for kind in (KIND_LEFT, KIND_RIGHT):
            run(f"triangle-{kind}", 2, check_triangle, kind)
            run(f"pentagon-{kind}", 4, check_pentagon, kind)
        run("m-unit", 1, check_m_unit)
        run("m-assoc", 3, check_m_assoc)
        for kind in (KIND_LEFT, KIND_RIGHT):
            run(f"hexagon-{kind}", 3, check_involution_hexagon, kind)
            run(f"duality-{kind}", 2, check_duality_square, kind)
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


def _wanted(suite: Optional[Sequence[str]]) -> set:
    """Families ``suite`` names: all for None, one for a str; ValueError if unknown or none."""
    wanted = set(CHECK_FAMILIES if suite is None
                 else [suite] if isinstance(suite, str) else suite)
    unknown = ", ".join(sorted(wanted.difference(CHECK_FAMILIES)))
    if unknown or not wanted:
        raise ValueError(f"unknown check families: {unknown}" if unknown
                         else "names no check family")
    return wanted


def exit_code(report: dict) -> int:
    """0 = all pass, 1 = some check failed, 2 = construction error or no check ran."""
    if report["summary"]["errors"] or not report["summary"]["total"]:
        return 2
    if report["summary"]["passed"] < report["summary"]["total"]:
        return 1
    return 0
