"""Finite-dimensional W*-algebra bimodules: tensor calculus with verified coherence.

Multi-matrix algebras, their standard forms, bimodules with one-sided
bounded-vector spaces, both relative tensor products with all structural
isomorphisms (unitors, associators, the multiplicativity map m), duals with
conjugation isomorphisms, and an executable coherence-check suite.
"""

from .algebra import (AlgebraElement, MultiMatrixAlgebra, NormalFunctional,
                      NotPositiveError, StandardFormData, amplified_element,
                      amplify_algebra, gns_vector, standard_form,
                      support_projection)
from .bimodule import (Bimodule, Morphism, NotABimoduleError,
                       canonical_bimodule, double_dual_iso, dual_bimodule,
                       dual_vector, hom_basis, matrix_extension,
                       multiplicity_matrix, transpose)
from .bounded import (BoundedBasis, BoundedVector, ExtractionError,
                      ProjectiveRealization, left_bounded_basis,
                      left_bounded_space, left_inner,
                      left_projective_realization, right_bounded_basis,
                      right_bounded_space, right_inner,
                      right_projective_realization, star_bounded)
from .coherence import (CheckResult, check_duality_square,
                        check_involution_hexagon, check_m_assoc, check_m_unit,
                        check_naturality_suite, check_pentagon, check_triangle,
                        exit_code, run_suite)
from .instances import (InstanceFormatError, InstanceSpec, Limits, generate,
                        load, random_algebra, random_bimodule, random_morphism,
                        save)
from .involution import conjugation, conjugation_mixed, conjugation_perm
from .linalg import DEFAULT_TOL, RANK_EPS, op_norm, scale_tol
from .store import product_store
from .tensor import (KIND_LEFT, KIND_RIGHT, TensorProduct,
                     WellDefinednessError, associator, associator_perm,
                     left_unitor, left_unitor_perm, m_iso, m_perm, m_standard,
                     right_unitor, right_unitor_perm, tensor, tensor_left,
                     tensor_matrix_extension_iso, tensor_morphisms,
                     tensor_right)

__version__ = "0.1.0"
