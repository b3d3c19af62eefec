"""Exact intersection-theory engine for inflectional loci of scrolls.

Computes the cohomology class and degree of the locus where the order-k
jet evaluation of a projective-bundle scroll drops rank, re-derives the
closed forms for the standard base families, probes jet ranks of explicit
charts with exact arithmetic, and re-runs the integer-point scans behind
the uninflectedness results.
"""

from .chern import (FormalBundle, GradedClass, GradedRing, GradedVariable,
                    bundle_from_classes, direct_sum, dual, series_inverse,
                    sym_power, tensor, tensor_line, trivial_bundle)
from .errors import (IncompleteDataError, InternalConsistencyError,
                     InvalidInputError, ResourceLimitError, RingMismatchError,
                     ScrollflexError)
from .exactpoly import Poly, parse_poly, poly_gcd
from .jets import (BUNDLED_PROBES, JetProbeSpec, generic_jet_rank,
                   inflection_equations, jet_matrix, probe_rank,
                   product_rank_identity, symbolic_jet_rank)
from .scans import (FAMILIES, ScanProblem, ScanReport, build_problem,
                    exceptional_condition, run_family, scan)
from .scroll import (BASE_PRESETS, NumericalBaseData, ScrollSetup,
                     chern_wu_reduce, degree_class, degree_of_inflection,
                     expected_codim, inflection_class, max_rank, pushforward,
                     rank_breakdown, scroll_ring, symbolic_degree,
                     total_chern_E_k)

__version__ = "0.1.0"
