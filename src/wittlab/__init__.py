"""wittlab: exact classification of quadratic forms over dyadic valued fields.

The library computes, over k((t)) for k in {GF(2^m), GF(2^m)(x)} and
over Q_2: the wildness index of a nonsingular form (the minimal depth
of a compatible v-norm), the residue symbol of its class in the matching
Witt-like group of the residue field, and, over perfect residue fields,
a unique canonical decomposition supporting an exact equality decision.
All arithmetic is exact or certified-precision-tracked.
"""

from .arason import (CanonicalDecomposition, GeneratorExpression, NotInSubgroup,
                     ResidueSymbol, boundary_symbol, canonical_decomposition,
                     decomposition_form, enumerate_wq_Q2, generator_certificate,
                     witt_equal)
from .errors import INDISTINGUISHABLE, WittlabError
from .fields import field_shorthand, make_field
from .graded import (ShiftedQuadSpace, UniformizingChoice, coset_decomposition,
                     default_choice, descend_case1, descend_case2, is_metabolic,
                     orbit_partition, split_principal_metabolic, validate)
from .literals import parse_element, parse_form
from .norms import (DepthCertificate, NotReducible, VNorm, builder_binary,
                    builder_unary, check_compatibility, depth_reduce, descend,
                    extend_certificate, induced_space, initial_norm,
                    norm_shift, norm_sum, split_respecting_norm,
                    wildness_index)
from .quadform import QuadraticForm, WittExpr, rewrite, symplectic_blocks
from .residue_witt import (SeparatedSpace, SymplecticQuadSpace, TensorElem,
                           WClass, WedgeElem, WqClass, arf_invariant, functor_U,
                           k_symplectic_blocks, kquad_isotropic_vector,
                           sq_normalize, sq_witt_class, ssq_normalize,
                           ssq_witt_class, w_class)

__version__ = "0.1.0"
