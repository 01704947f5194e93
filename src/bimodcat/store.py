"""A product store: each value built once while the store is open.

:func:`product_store` opens a store for the duration of a ``with`` block,
or of a call when it decorates a function.  Opened while another store is
open, it joins that store: a check called on its own keeps a store of its
own, and inside a suite it shares the suite's.  While a store is open,
:func:`stored` builds ``build(*args)`` once and returns the same object on
every later call, so a product of a product's result is built once too.
Functions take bimodules and fetch their products, duals, ``m`` maps,
associators and unitors through :func:`stored`, which keeps each of them
per key; of the maps between products, only
``tensor_morphisms`` takes products, the two it maps between.  Arguments
are keyed by identity (``Bimodule`` compares by identity).

Every caller shares what a build made, so it is read-only.  A build that
returns an array or a tuple of arrays has them made read-only here when
it returns.  A build that returns an object seals the arrays it makes
itself, inside a store or not: a product's members and its result's frame
labels (:func:`bimodcat.tensor._tensor_product`), a dual's conjugated
frame (:meth:`bimodcat.bimodule.Frame.conj`), a bounded space's form and
vectors.  Nothing else is looked into: a bimodule keeps its own frame
once it has it, and no action stacks but those it was given
(:class:`bimodcat.bimodule.Bimodule`), so no store holds them, and a
bimodule given as an argument keeps its arrays as given.
Outside a store every call builds.

An array cannot be a key, so :func:`stored_for` keeps a value per
read-only array, by identity, and keeps the array with it: the
frame-coordinate form of a dense leg of f (x) g that has passed its
B-linearity test, per (leg, source factor, target factor, side)
(:func:`bimodcat.tensor._frame_leg`).  A writable array is never kept.

The open store lives in a context variable, so it is visible to the calls
made inside the ``with`` block and to no other thread.
"""

from __future__ import annotations

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
        value = values[key] = build(*args)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
    return values[key]


def stored_for(m: np.ndarray, build: Callable, *args):
    """``build(m, *args)``, built once per open store for a read-only array ``m``.

    ``m`` is keyed by its identity and kept beside the value, so no other
    array takes its id while the store is open; the value, an array, is
    made read-only.  A writable ``m`` may change between two calls, so it
    builds on every call, as does every call outside a store.
    """
    values = _open.get()
    if values is None or m.flags.writeable:
        return build(m, *args)
    key = (build, id(m), *args)
    if key not in values:
        value = build(m, *args)
        value.setflags(write=False)
        values[key] = m, value
    return values[key][1]
