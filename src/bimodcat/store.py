"""A product store: each value built once while the store is open.

:func:`product_store` opens a store for the duration of a ``with`` block,
or of a call when it decorates a function.  Opened while another store is
open, it joins that store: a check called on its own keeps a store of its
own, and inside a suite it shares the suite's.  While a store is open,
:func:`stored` builds ``build(*args)`` once and returns the same object on
every later call, so a product of a product's result is built once too.
Functions take bimodules and fetch their products, duals and bounded
spaces through :func:`stored`; none takes them as arguments.  Arguments
are keyed by identity (``Bimodule`` compares by identity).  The arrays a
build made are made read-only, since every caller shares them; the
arguments' own arrays stay as given, also where the value holds them.
Outside a store every call builds.

The open store lives in a context variable, so it is visible to the calls
made inside the ``with`` block and to no other thread.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Optional

import numpy as np

#: kept values of the open store
_open: ContextVar[Optional[dict]] = ContextVar("product_store", default=None)


@contextmanager
def product_store():
    """Keep every stored value until the block exits; join an open store."""
    if _open.get() is not None:
        yield
        return
    token = _open.set({})
    try:
        yield
    finally:
        _open.reset(token)


def stored(build: Callable, *args):
    """``build(*args)``, built once per open store."""
    values = _open.get()
    if values is None:
        return build(*args)
    key = (build, *args)
    if key not in values:
        values[key] = build(*args)
        own = {id(getattr(a, f.name)) for a in args
               if dataclasses.is_dataclass(a) for f in dataclasses.fields(a)}
        _read_only(values[key], args, own)
    return values[key]


def _read_only(value, args, own: set):
    """Make a value's arrays read-only, except ``own``; the ``args`` are skipped."""
    items = value if isinstance(value, tuple) else (
        getattr(value, field.name) for field in dataclasses.fields(value))
    for item in items:
        for part in item if isinstance(item, tuple) else (item,):
            if isinstance(part, np.ndarray):
                if id(part) not in own:
                    part.setflags(write=False)
            elif dataclasses.is_dataclass(part) and part not in args:
                _read_only(part, args, own)
