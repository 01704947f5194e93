"""A product store: each product of a fixed set of bimodules, built once.

:func:`product_store` opens a store over a set of *member* bimodules for the
duration of a ``with`` block.  While it is open, :func:`stored` builds a
value from member arguments once and returns the same object on every later
call; a call with any non-member argument builds afresh and keeps nothing.
Arguments are keyed by identity (``Bimodule`` compares by identity), and the
arrays of a kept value are made read-only, since every caller shares it.
Outside a store every call builds.

The open store lives in a context variable, so it is visible to the calls
made inside the ``with`` block and to no other thread.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

#: (members, kept values) of the innermost open store
_open: ContextVar[Optional[Tuple[set, dict]]] = ContextVar("product_store",
                                                           default=None)


@contextmanager
def product_store(members: Iterable[object]):
    """Keep the values built from ``members`` until the block exits."""
    token = _open.set((set(members), {}))
    try:
        yield
    finally:
        _open.reset(token)


def stored(build: Callable, *args, member: bool = False):
    """``build(*args)``, built once per open store when every arg is a member.

    With ``member=True`` the kept value joins the members (the dual of a
    member, say), so values built from it are kept too.
    """
    store = _open.get()
    if store is None or not all(a in store[0] for a in args):
        return build(*args)
    members, values = store
    key = (build, *args)
    if key not in values:
        value = build(*args)
        _read_only(value, members)
        values[key] = value
        if member:
            members.add(value)
    return values[key]


def _read_only(value, members: set):
    """Make the arrays of a dataclass value read-only, members' arrays aside."""
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if isinstance(item, np.ndarray):
            item.setflags(write=False)
        elif dataclasses.is_dataclass(item) and item not in members:
            _read_only(item, members)
