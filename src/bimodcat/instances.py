"""Seeded random instances (algebras, bimodule chains, morphisms) and JSON I/O.

All randomness comes from ``numpy.random.default_rng(seed)`` (PCG64) with a
fixed draw order: algebras first (left to right along the chain), then each
bimodule (multiplicity matrix, then its basis unitary), then the endomorphism
samples.  Identical seeds therefore reproduce identical instances bit for bit.

The file format is JSON with complex numbers as ``[re, im]`` pairs::

    {"version": 1, "seed": ..., "limits": {...},
     "algebras": [{"blocks": [...]}, ...],
     "bimodules": [{"left": i, "right": j,
                    "multiplicities": [[...]], "basis_unitary": [[[re,im]...]]}
                   | {"left": i, "right": j,
                      "left_action": [...], "right_action": [...]}],
     "morphisms": [{"source": k, "target": k, "matrix": [[[re,im]...]]}]}

An empty array, one with a zero-length axis, is written as nested lists
without the axes after that one: a 0x0 matrix as ``[]``, the stack of a
0-dimensional bimodule as one ``[]`` per unit.  The loader gives it back
the shape its field must have.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .algebra import MultiMatrixAlgebra
from .bimodule import (Bimodule, Morphism, canonical_bimodule, canonical_dim,
                       random_morphism_matrix)
from .linalg import random_unitary

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Malformed instance document; the message names the offending field."""


@dataclass(frozen=True)
class Limits:
    """Bounds for the random draws.

    ``max_dim`` must be at least ``max_block**2``, the dimension of the
    largest single sector (one block of each algebra, multiplicity one):
    ``random_bimodule`` drops sectors until the cap holds, and keeps one.
    """

    max_blocks: int = 2
    max_block: int = 2
    max_mult: int = 1
    max_dim: int = 40
    min_mult: int = 0

    def __post_init__(self):
        for name in ("max_blocks", "max_block", "max_mult", "max_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"limit {name} must be >= 1")
        if not 0 <= self.min_mult <= self.max_mult:
            raise ValueError("min_mult must lie in [0, max_mult]")
        if self.max_dim < self.max_block ** 2:
            raise ValueError(
                f"limit max_dim {self.max_dim} is below max_block**2 = "
                f"{self.max_block ** 2}, the largest single sector")


@dataclass(frozen=True)
class InstanceSpec:
    """A chain of composable bimodules with some endomorphisms.

    ``bimodules[i]`` is an ``algebras[i]``-``algebras[i+1]`` bimodule, so any
    consecutive run of the chain is composable under the relative tensor
    products.
    """

    seed: int
    limits: Limits
    algebras: Tuple[MultiMatrixAlgebra, ...]
    bimodules: Tuple[Bimodule, ...]
    morphisms: Tuple[Morphism, ...] = field(default=())

    def __post_init__(self):
        if len(self.algebras) != len(self.bimodules) + 1 and self.bimodules:
            raise ValueError("chain needs one more algebra than bimodules")
        for i, x in enumerate(self.bimodules):
            if (x.left_algebra.blocks != self.algebras[i].blocks
                    or x.right_algebra.blocks != self.algebras[i + 1].blocks):
                raise ValueError(f"bimodule {i} does not fit the algebra chain")


def random_algebra(rng: np.random.Generator, limits: Limits) -> MultiMatrixAlgebra:
    """Uniform draw: number of blocks, then each block size."""
    k = int(rng.integers(1, limits.max_blocks + 1))
    sizes = rng.integers(1, limits.max_block + 1, size=k)
    return MultiMatrixAlgebra(tuple(int(n) for n in sizes))


def random_bimodule(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                    rng: np.random.Generator, limits: Limits) -> Bimodule:
    """Canonical model for a random multiplicity matrix, in a random basis.

    Draw order: multiplicity entries (row-major), then the basis unitary.
    A fresh all-zero draw is bumped to a single multiplicity-one sector, and
    multiplicities are scaled down when the total dimension would exceed
    ``limits.max_dim``.
    """
    mult = rng.integers(limits.min_mult, limits.max_mult + 1,
                        size=(len(a.blocks), len(b.blocks)))
    if not mult.any():
        mult[0, 0] = 1
    while canonical_dim(a, b, mult) > limits.max_dim and mult.max() > 1:
        mult = mult - (mult > 1)
    while canonical_dim(a, b, mult) > limits.max_dim and mult.sum() > 1:
        nz = np.argwhere(mult > 0)
        mult[tuple(nz[-1])] = 0
    u = random_unitary(rng, canonical_dim(a, b, mult))
    return canonical_bimodule(a, b, mult, basis_unitary=u)


def random_morphism(x: Bimodule, y: Bimodule,
                    rng: np.random.Generator) -> Morphism:
    """Random element of the intertwiner space (zero map when it is trivial)."""
    return Morphism(x, y, random_morphism_matrix(x, y, rng))


def generate(seed: int, limits: Optional[Limits] = None,
             length: int = 4) -> InstanceSpec:
    """Deterministic random instance: a chain of ``length`` bimodules.

    Draw order: the ``length``+1 algebras, then the bimodules along the
    chain, then one endomorphism of each of the first three bimodules.
    """
    limits = limits if limits is not None else Limits()
    rng = np.random.default_rng(seed)
    algebras = tuple(random_algebra(rng, limits) for _ in range(length + 1))
    bimodules = tuple(random_bimodule(algebras[i], algebras[i + 1], rng, limits)
                      for i in range(length))
    morphisms = tuple(random_morphism(bimodules[i], bimodules[i], rng)
                      for i in range(min(3, length)))
    return InstanceSpec(seed=seed, limits=limits, algebras=algebras,
                        bimodules=bimodules, morphisms=morphisms)


# -- JSON encoding ------------------------------------------------------------


def _encode(arr: np.ndarray):
    """Nested lists with complex entries as [re, im]."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _decode(data, path: str, empty: Tuple[int, ...]) -> np.ndarray:
    """The complex array of ``data``; ``empty`` is the field's shape if it is empty.

    Empty data whose axes agree with ``empty`` is that array: it was
    written without the axes after its zero-length one.
    """
    # a float cast would take "1.0" and true, also among numbers; a JSON
    # boolean is a Python bool, a subclass of int, so types are compared exactly
    try:
        leaves = np.asarray(data, dtype=object)
        numbers = set(map(type, leaves.ravel())) <= {int, float}
        arr = leaves.astype(float) if numbers else None
    except (TypeError, ValueError, OverflowError):
        arr = None   # not numbers: fails the shape test below
    if arr is not None and arr.size == 0 and arr.shape == empty[:arr.ndim]:
        return np.zeros(empty, dtype=complex)
    if (arr is None or arr.ndim < 1 or arr.shape[-1] != 2
            or not np.isfinite(arr).all()):
        raise InstanceFormatError(f"{path}: expected [re, im] pairs of numbers")
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]   # keeps signed zeros for exact round trips
    return out


def _chain_index(spec: InstanceSpec, x: Bimodule) -> int:
    for i, b in enumerate(spec.bimodules):
        if b is x:
            return i
    raise ValueError("morphism endpoint is not a chain bimodule")


def to_document(spec: InstanceSpec) -> dict:
    bimods = []
    for i, x in enumerate(spec.bimodules):
        entry = {"left": i, "right": i + 1}
        if x.canonical is not None:
            mult, u = x.canonical
            entry["multiplicities"] = np.asarray(mult).astype(int).tolist()
            if u is not None:   # the loader reads a model without one as is
                entry["basis_unitary"] = _encode(u)
        else:
            entry["left_action"] = _encode(x.left_units)
            entry["right_action"] = _encode(x.right_units)
        bimods.append(entry)
    return {
        "version": FORMAT_VERSION,
        "seed": int(spec.seed),
        "limits": asdict(spec.limits),
        "algebras": [{"blocks": list(a.blocks)} for a in spec.algebras],
        "bimodules": bimods,
        "morphisms": [{"source": _chain_index(spec, m.source),
                       "target": _chain_index(spec, m.target),
                       "matrix": _encode(m.matrix)}
                      for m in spec.morphisms],
    }


def save(spec: InstanceSpec) -> bytes:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return (json.dumps(to_document(spec), sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def _need(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: expected an object")
    if key not in doc:
        raise InstanceFormatError(f"missing field {path}.{key}")
    return doc[key]


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` subclasses ``int`` in Python, but is not one here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _need_int(doc: dict, key: str, path: str) -> int:
    value = _need(doc, key, path)
    if not _is_int(value):
        raise InstanceFormatError(
            f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _need_list(doc: dict, key: str, path: str) -> list:
    value = _need(doc, key, path)
    if not isinstance(value, list):
        raise InstanceFormatError(f"{path}.{key}: expected a list")
    return value


def _multiplicities(value, a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                    limits: Limits, path: str) -> np.ndarray:
    """A matrix of nonnegative integers, as nested lists, within ``limits``.

    The largest entry and the dimension sum_kl n_k mu_kl m_l are checked on
    Python ints, before numpy's int64 could overflow: against the limits,
    and the dimension, which bounds every entry, against the largest
    array size.
    """
    rows, cols = len(a.blocks), len(b.blocks)
    if not (isinstance(value, list) and len(value) == rows and all(
            isinstance(row, list) and len(row) == cols
            and all(_is_int(m) and m >= 0 for m in row) for row in value)):
        raise InstanceFormatError(
            f"{path}: expected a {rows}x{cols} matrix of nonnegative integers")
    dim = sum(n * mu * m for n, row in zip(a.blocks, value)
              for mu, m in zip(row, b.blocks))
    _within(max(map(max, value)), limits, "max_mult", "multiplicity", path)
    _within(dim, limits, "max_dim", "dimension", path)
    if dim > np.iinfo(np.intp).max:
        raise InstanceFormatError(
            f"{path}: dimension {dim} is over the largest array size")
    return np.array(value, dtype=int)


def _within(value: int, limits: Limits, name: str, what: str, path: str):
    """Reject ``value`` over the document's own ``limits.<name>``."""
    bound = getattr(limits, name)
    if value > bound:
        raise InstanceFormatError(
            f"{path}: {what} {value} is over limits.{name} = {bound}")


def load(data) -> InstanceSpec:
    """Parse and validate an instance document (bytes, str or dict)."""
    spec, violations = load_lenient(data)
    if violations:
        raise InstanceFormatError(violations[0][0])
    return spec


def load_lenient(data) -> Tuple[InstanceSpec, List[Tuple[str, float]]]:
    """Like :func:`load`, but numeric axiom violations do not abort parsing.

    Structural problems (bad JSON, missing fields, bad references, and
    algebras, multiplicities or dimensions over the document's own
    ``limits``, checked before any bimodule is built) still raise;
    violations of the bimodule axioms or the intertwiner relation are
    returned as (message, defect) pairs, and the offending bimodule plus the
    rest of its chain (or the offending morphism) is dropped from the spec.
    """
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data)
        except (json.JSONDecodeError, RecursionError) as exc:   # too deeply nested
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    else:
        doc = data
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object")
    version = _need(doc, "version", "$")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise InstanceFormatError(
            f"unsupported version {version!r} (expected {FORMAT_VERSION})")
    seed = _need_int(doc, "seed", "$")
    if seed < 0:
        raise InstanceFormatError(
            f"$.seed: expected a nonnegative integer, got {seed}")
    lim = _need(doc, "limits", "$")
    bounds = {key: _need_int(lim, key, "$.limits")
              for key in ("max_blocks", "max_block", "max_mult", "max_dim")}
    min_mult = _need_int(lim, "min_mult", "$.limits") if "min_mult" in lim else 0
    try:
        limits = Limits(**bounds, min_mult=min_mult)
    except ValueError as exc:
        raise InstanceFormatError(f"$.limits: {exc}") from exc

    algebras = []
    for i, a in enumerate(_need_list(doc, "algebras", "$")):
        blocks = _need_list(a, "blocks", f"$.algebras[{i}]")
        try:
            if not all(_is_int(n) for n in blocks):
                raise ValueError(f"expected integers, got {blocks!r}")
            algebras.append(MultiMatrixAlgebra(tuple(blocks)))
        except ValueError as exc:
            raise InstanceFormatError(f"$.algebras[{i}].blocks: {exc}") from exc
        path = f"$.algebras[{i}].blocks"
        _within(len(blocks), limits, "max_blocks", "block count", path)
        _within(max(blocks), limits, "max_block", "block size", path)

    violations: List[Tuple[str, float]] = []
    bimodules = []
    for i, b in enumerate(_need_list(doc, "bimodules", "$")):
        path = f"$.bimodules[{i}]"
        left = _need_int(b, "left", path)
        right = _need_int(b, "right", path)
        if not (0 <= left < len(algebras)) or not (0 <= right < len(algebras)):
            raise InstanceFormatError(f"{path}: algebra reference out of range")
        for key, ref, at in (("left", left, i), ("right", right, i + 1)):
            if at >= len(algebras) or algebras[ref].blocks != algebras[at].blocks:
                raise InstanceFormatError(
                    f"{path}.{key}: algebra {ref} does not fit the algebra "
                    f"chain, which needs algebra {at} there")
        la, ra = algebras[left], algebras[right]
        try:
            if "multiplicities" in b:
                mult = _multiplicities(b["multiplicities"], la, ra, limits,
                                       f"{path}.multiplicities")
                dim = canonical_dim(la, ra, mult)
                u = (_decode(b["basis_unitary"], f"{path}.basis_unitary", (dim, dim))
                     if "basis_unitary" in b else None)
                if u is not None and u.shape != (dim, dim):
                    raise InstanceFormatError(
                        f"{path}.basis_unitary: expected a {dim}x{dim} matrix")
                x = canonical_bimodule(la, ra, mult, basis_unitary=u)
            else:
                # an empty stack of alg.dim units is that of dimension 0
                lu, ru = (_decode(_need(b, key, path), f"{path}.{key}",
                                  (alg.dim, 0, 0))
                          for key, alg in (("left_action", la), ("right_action", ra)))
                d = lu.shape[-1] if lu.ndim else 0
                for key, arr, alg in (("left_action", lu, la),
                                      ("right_action", ru, ra)):
                    if arr.shape != (alg.dim, d, d):
                        raise InstanceFormatError(
                            f"{path}.{key}: expected shape ({alg.dim}, {d}, {d}), "
                            f"got {arr.shape}")
                _within(d, limits, "max_dim", "dimension", f"{path}.left_action")
                x = Bimodule(la, ra, lu, ru)
                x.validate()
                x.frame     # stacks whose frame is not found are a violation too
        except InstanceFormatError:
            raise
        except Exception as exc:
            violations.append((f"{path}: {exc}", float("inf")))
            break   # the chain is broken from here on
        bimodules.append(x)
    n_kept = len(bimodules)

    n_listed = len(doc["bimodules"])
    morphisms = []
    listed = _need_list(doc, "morphisms", "$") if "morphisms" in doc else []
    for i, m in enumerate(listed):
        path = f"$.morphisms[{i}]"
        src = _need_int(m, "source", path)
        tgt = _need_int(m, "target", path)
        if not (0 <= src < n_listed) or not (0 <= tgt < n_listed):
            raise InstanceFormatError(f"{path}: bimodule reference out of range")
        if src >= n_kept or tgt >= n_kept:
            continue   # endpoint fell with the truncated chain
        mat = _decode(_need(m, "matrix", path), f"{path}.matrix",
                      (bimodules[tgt].dim, bimodules[src].dim))
        try:
            mor = Morphism(bimodules[src], bimodules[tgt], mat)
        except ValueError as exc:   # other acting algebras or the wrong shape
            raise InstanceFormatError(f"{path}: {exc}") from exc
        if not mor.is_morphism():
            defect = mor.intertwiner_defect()
            violations.append((f"{path}: matrix is not an intertwiner "
                               f"(defect {defect:.3e})", defect))
            continue
        morphisms.append(mor)

    spec = InstanceSpec(seed=seed, limits=limits,
                        algebras=tuple(algebras[:n_kept + 1]),
                        bimodules=tuple(bimodules), morphisms=tuple(morphisms))
    return spec, violations
