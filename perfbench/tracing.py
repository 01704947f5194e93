"""Spans around bimodcat's public functions, recorded from outside the program.

:func:`install` replaces each traced function by a wrapper in every
bimodcat module that binds it: ``from .linalg import psd_eig`` copies the
binding into ``tensor``, ``bounded`` and ``algebra``, so patching
``linalg`` alone would miss most calls.  Modules are looked up with
``importlib.import_module``, because ``bimodcat.tensor`` as an attribute
of the package is the re-exported ``tensor`` *function*.

A span is (layer, start ns, end ns, parent span, request).  Spans stay in
memory and are written out when the run ends.  A layer's self time is the
duration of its spans minus the duration of their direct children; calls
nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from workloads import SUITE_FAMILIES

#: checks named by their first (kind) argument
_KINDED_CHECKS = {"check_triangle": "triangle", "check_pentagon": "pentagon",
                  "check_involution_hexagon": "hexagon",
                  "check_duality_square": "duality"}
_PLAIN_CHECKS = {"check_m_unit": "m-unit", "check_m_assoc": "m-assoc",
                 "check_naturality_suite": "naturality"}

#: (module, function) -> layer name; tensor_left/right share a layer, and
#: ``instances.load`` is ``load_lenient``, which ``load`` and the CLI call
LAYERS = {
    ("instances", "generate"): "instances.generate",
    ("instances", "load_lenient"): "instances.load",
    ("algebra", "standard_form"): "algebra.standard_form",
    ("bimodule", "dual_bimodule"): "bimodule.dual_bimodule",
    ("bounded", "right_bounded_space"): "bounded.space",
    ("bounded", "left_bounded_space"): "bounded.space",
    ("bounded", "right_projective_realization"): "bounded.realization",
    ("bounded", "left_projective_realization"): "bounded.realization",
    ("tensor", "tensor_left"): "tensor.product",
    ("tensor", "tensor_right"): "tensor.product",
    ("tensor", "associator"): "tensor.associator",
    ("tensor", "tensor_morphisms"): "tensor.tensor_morphisms",
    ("tensor", "m_iso"): "tensor.m_iso",
    ("involution", "conjugation"): "involution.conjugation",
    ("linalg", "psd_eig"): "linalg.psd_eig",
    ("linalg", "op_norm"): "linalg.op_norm",
    ("linalg", "map_from_spanning"): "linalg.map_from_spanning",
    ("coherence", "run_suite"): "coherence.run_suite",
    ("cli", "main"): "cli.main",
}
#: layers reported as <layer>.calls and <layer>.self_s
TIMED_LAYERS = tuple(dict.fromkeys(LAYERS.values()))


class Products:
    """Counts over tensor products, keyed by how their factors were built.

    A factor's key is its provenance: a chain bimodule is itself, ``L2(B)``
    is its block sizes, a dual or a product result is the key of what it
    was built from.  Two calls with equal keys in one request rebuild the
    same product.  Multiplicity matrices follow the same provenance, which
    gives criterion 5's dimension for every product.
    """

    def __init__(self):
        self.calls = 0
        self.distinct = 0
        self.alg_dim_sum = 0
        self.dim_sum = 0
        self.alg_dim_max = 0
        self.mismatches: List[tuple] = []     # (request, message)
        self.begin_request(-1)

    def begin_request(self, index: int):
        self._request = index
        self._seen = set()
        self._origin: Dict[int, tuple] = {}   # id -> (key, multiplicities)
        self._alive: List[object] = []        # keeps ids unique in a request

    def _note(self, obj, key, mult):
        self._origin[id(obj)] = (key, mult)
        self._alive.append(obj)

    def _lookup(self, obj):
        if id(obj) not in self._origin:
            canonical = getattr(obj, "canonical", None)
            mult = None if canonical is None else np.asarray(canonical[0])
            self._note(obj, ("leaf", id(obj)), mult)
        return self._origin[id(obj)]

    def standard_form(self, args, kwargs, out):
        blocks = out.algebra.blocks
        self._note(out.bimodule, ("L2", blocks),
                   np.eye(len(blocks), dtype=int))

    def dual(self, args, kwargs, out):
        key, mult = self._lookup(args[0] if args else kwargs["x"])
        self._note(out, ("dual", key), None if mult is None else mult.T)

    def product(self, args, kwargs, tp):
        (kx, mx), (ky, my) = (self._lookup(tp.left_factor),
                              self._lookup(tp.right_factor))
        key = (tp.kind, kx, ky)
        self.calls += 1
        if key not in self._seen:
            self._seen.add(key)
            self.distinct += 1
        self.alg_dim_sum += tp.alg_dim
        self.dim_sum += tp.dim
        self.alg_dim_max = max(self.alg_dim_max, tp.alg_dim)
        mult = None
        if mx is not None and my is not None:
            mult = mx @ my
            n = np.asarray(tp.left_factor.left_algebra.blocks)
            m = np.asarray(tp.right_factor.right_algebra.blocks)
            predicted = int(n @ mult @ m)
            if predicted != tp.dim:
                self.mismatches.append((self._request,
                    f"{tp.kind} product of dimension {tp.dim}, "
                    f"predicted {predicted}"))
        self._note(tp.result, ("product", key), mult)


class Tracer:
    """In-memory span recorder and the per-layer numbers derived from it."""

    def __init__(self):
        self.layers: List[str] = []
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request = -1
        self.products = Products()
        self.spanning_cols_max = 0

    def begin_request(self, index: int):
        self.request = index
        self.products.begin_request(index)

    def _layer_index(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def wrap(self, fn: Callable, layer, after: Optional[Callable] = None):
        """Wrapper recording a span; ``layer`` may map (args, kwargs) to a name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = None if callable(layer) else self._layer_index(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ix = fixed if fixed is not None else \
                self._layer_index(layer(args, kwargs))
            span = [ix, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def _spanning(self, args, kwargs, out):
        src = args[0] if args else kwargs["src_cols"]
        self.spanning_cols_max = max(self.spanning_cols_max, src.shape[1])

    def install(self, mods: Dict[str, object], package) -> None:
        """Wrap every traced function in every module that binds it."""
        after = {"algebra.standard_form": self.products.standard_form,
                 "bimodule.dual_bimodule": self.products.dual,
                 "tensor.product": self.products.product,
                 "linalg.map_from_spanning": self._spanning}
        originals = {}
        for (mod, name), layer in LAYERS.items():
            fn = getattr(mods[mod], name)
            originals[id(fn)] = self.wrap(fn, layer, after.get(layer))
        coherence = mods["coherence"]
        for name, family in _KINDED_CHECKS.items():
            fn = getattr(coherence, name)
            originals[id(fn)] = self.wrap(
                fn, lambda a, k, f=family:
                f"coherence.{f}-{a[0] if a else k['kind']}")
        for name, family in _PLAIN_CHECKS.items():
            fn = getattr(coherence, name)
            originals[id(fn)] = self.wrap(fn, f"coherence.{family}")
        for module in [package, *mods.values()]:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in originals:
                    setattr(module, attr, originals[id(value)])

    def layer_metrics(self, pass_ns: float, scaled_ns: float,
                      untraced_ns: float, outcomes) -> Dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit) for one traced pass.

        ``pass_ns`` is the traced requests' wall time and ``scaled_ns`` the
        same at the calibration's reference speed; ``untraced_ns`` is the
        same requests' scaled wall time without tracing, and ``outcomes``
        the checked results of the traced pass.
        """
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        layer, start, end, parent, request = arr.T
        dur = end - start
        child = np.zeros(len(arr), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        nl = len(self.layers)
        calls = np.bincount(layer, minlength=nl)
        selfs = np.bincount(layer, weights=self_ns, minlength=nl) / 1e9
        incl = np.bincount(layer, weights=dur, minlength=nl) / 1e9
        ix = {name: i for i, name in enumerate(self.layers)}

        out: Dict[str, tuple] = {}
        for name in TIMED_LAYERS:
            i = ix.get(name)
            out[f"{name}.calls"] = (int(calls[i]) if i is not None else 0,
                                    "count")
            out[f"{name}.self_s"] = (float(selfs[i]) if i is not None
                                     else 0.0, "s")
        p = self.products
        out["tensor.product.distinct"] = (p.distinct, "count")
        out["tensor.product.repeat_share"] = (
            (p.calls - p.distinct) / p.calls if p.calls else 0.0, "ratio")
        out["tensor.alg_dim_sum"] = (p.alg_dim_sum, "count")
        out["tensor.dim_sum"] = (p.dim_sum, "count")
        out["tensor.quotient_waste"] = (
            p.alg_dim_sum / p.dim_sum if p.dim_sum else 0.0, "ratio")
        out["tensor.gram_mib_max"] = (p.alg_dim_max ** 2 * 16 / 2 ** 20,
                                      "MiB_computed")
        out["linalg.map_from_spanning.cols_max"] = (self.spanning_cols_max,
                                                    "count")
        for family in SUITE_FAMILIES:
            i = ix.get(f"coherence.{family}")
            out[f"coherence.{family}.calls"] = (
                int(calls[i]) if i is not None else 0, "count")
            out[f"coherence.{family}.s"] = (
                float(incl[i]) if i is not None else 0.0, "s")
        out["coherence.defect_over_tol_max"] = (
            max(o.defect_over_tol for o in outcomes), "ratio")
        margin = min(o.detect_margin for o in outcomes)
        out["coherence.detect_margin_min"] = (
            margin if margin != float("inf") else 0.0, "ratio")
        in_pass = request >= 0
        roots = in_pass & (parent < 0)
        out["untraced_glue_s"] = ((pass_ns - int(dur[roots].sum())) / 1e9, "s")
        out["trace_overhead"] = (scaled_ns / untraced_ns, "ratio")
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a layer table and one row per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start_ns", "end_ns", "parent",
                                  "request"],
                       "layers": self.layers, "spans": self.spans}, fh,
                      separators=(",", ":"))
