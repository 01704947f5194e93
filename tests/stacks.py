"""Instance documents with every bimodule given by its action stacks.

A bimodule given by its stacks is the one input whose frame comes from
pivoted Gram-Schmidt.  Run as a script,

    python3 tests/stacks.py SOURCE TARGET

reads the instance document SOURCE and writes it to TARGET, which may be
SOURCE, with every bimodule given by its stacks.
"""

import json
import sys

from bimodcat.instances import InstanceSpec, _encode, load, to_document


def given_by_stacks(spec: InstanceSpec) -> dict:
    """``spec``'s document with every bimodule given by its action stacks.

    A canonical model saved without a basis unitary and a bimodule that
    is already given by its stacks have no such key to drop.
    """
    doc = to_document(spec)
    for entry, x in zip(doc["bimodules"], spec.bimodules):
        entry.pop("multiplicities", None)
        entry.pop("basis_unitary", None)
        entry["left_action"] = _encode(x.left_units)
        entry["right_action"] = _encode(x.right_units)
    return doc


if __name__ == "__main__":
    source, target = sys.argv[1:]
    with open(source) as f:
        spec = load(f.read())
    with open(target, "w") as f:
        json.dump(given_by_stacks(spec), f)
