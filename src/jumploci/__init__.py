"""Exact computation of homology jump loci, support varieties, and
resonance varieties, with the graded chain complex of an abelian cover
connecting them."""

from .cga import (BShape, GradedAlgebra, aomoto_complex,
                  generic_vanishing_experiment, pairing_cga, resonance_ideal,
                  resonance_points, sample_cga, validate_cga)
from .complexes import (FinVerdict, FreeChainComplex, ModulePresentation,
                        PresentedChainComplex, fitting_ideal, homology_dim_at,
                        homology_presentation, is_finite_dimensional,
                        jump_locus_ideal, jump_locus_points, support_points,
                        validate_complex, validate_presented)
from .equivariant import (FinAbGroup, GrRingDescriptor, NuData, build_E1,
                          finiteness_test, gr_ring, identity_nu,
                          pulled_back_aomoto_complex, verify_cv_res)
from .errors import (AlgebraError, DocumentError, InternalError, ParseError,
                     PreconditionError, ResourceLimitError,
                     UnsupportedRingError)
from .fields import (ExtensionField, PrimeField, Rationals, extension_of,
                     field_make, finite_field)
from .fox import (GroupPresentation, alexander_complex, alexander_invariant,
                  characteristic_variety_points, fox_derivative, parse_word,
                  quadratic_cup)
from .groebner import buchberger, syzygy_matrix
from .linalg import mat_rank
from .matrices import Matrix, minors_ideal
from .rings import Ideal, Poly, Ring, parse_poly, poly_to_str
from .smith import SmithForm, smith_divisors, smith_normal_form
from .varieties import zero_locus_points

__version__ = "0.1.0"
