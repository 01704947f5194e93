"""Random canonical bimodules for the tests.

``random_bim(rng, a_blocks, b_blocks, mult)`` is the canonical model with
multiplicity matrix ``mult`` between the algebras of those block sizes, in
a random basis: one ``random_unitary`` draw of its dimension from ``rng``.
"""

import numpy as np

from bimodcat.algebra import MultiMatrixAlgebra
from bimodcat.bimodule import canonical_bimodule, canonical_dim
from bimodcat.linalg import random_unitary


def random_bim(rng, a_blocks, b_blocks, mult):
    """The canonical model of ``mult`` in a random basis unitary drawn from ``rng``."""
    a, b = MultiMatrixAlgebra(a_blocks), MultiMatrixAlgebra(b_blocks)
    mult = np.asarray(mult)
    return canonical_bimodule(
        a, b, mult, basis_unitary=random_unitary(rng, canonical_dim(a, b, mult)))
