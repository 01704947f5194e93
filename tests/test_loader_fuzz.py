"""Fuzz the instance loader: junk in one to three fields of a valid document.

``verify --instance`` must end with exit 0, 1 or 2 and no traceback, and
its ``--json`` report, when it writes one, must be strict JSON.  Integers
are drawn from a small range, so no junk document asks for a large
allocation.
"""

import functools
import json
import operator

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bimodcat.cli import main
from bimodcat.instances import _encode, generate, to_document


def _given_by_stacks(spec):
    """``spec``'s document with every bimodule given by its action stacks."""
    doc = to_document(spec)
    for entry, x in zip(doc["bimodules"], spec.bimodules):
        del entry["multiplicities"], entry["basis_unitary"]
        entry["left_action"] = _encode(x.left_units)
        entry["right_action"] = _encode(x.right_units)
    return doc


#: canonical documents of three chain lengths, and one given by its stacks
DOCUMENTS = [*(to_document(generate(seed, length=length))
               for seed, length in ((0, 2), (3, 3), (5, 4))),
             _given_by_stacks(generate(5, length=2))]

#: wrong types, NaN and infinities, nesting, and negative or small integers
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


def _paths(value, path=()):
    """Every field of a document; of a list, only its first and last entries."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
        items = items[:1] + items[1:][-1:]
    else:
        return []
    out = []
    for key, child in items:
        out.append(path + (key,))
        out.extend(_paths(child, path + (key,)))
    return out


def _put(doc, path, junk):
    """Put ``junk`` at ``path`` of ``doc``, unless earlier junk replaced the path."""
    *parents, last = path
    try:
        functools.reduce(operator.getitem, parents, doc)[last] = junk
    except (KeyError, IndexError, TypeError):
        pass


def _reject(constant):
    raise ValueError(f"report is not strict JSON: {constant}")


@st.composite
def corrupted(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    paths = draw(st.lists(st.sampled_from(_paths(doc)), min_size=1, max_size=3,
                          unique=True))
    for path in paths:
        _put(doc, path, draw(JUNK))
    return doc


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=corrupted())
def test_verify_survives_junk_fields(doc, tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps(doc))   # NaN and infinities as JSON extensions
    code = main(["verify", "--instance", str(path), "--json"])
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    if code != 2:
        json.loads(out, parse_constant=_reject)
