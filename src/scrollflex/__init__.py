"""Exact intersection-theory engine for inflectional loci of scrolls.

Computes the cohomology class and degree of the locus where the order-k
jet evaluation of a projective-bundle scroll drops rank, re-derives the
closed forms for the standard base families, probes jet ranks of explicit
charts with exact arithmetic, and re-runs the integer-point scans behind
the uninflectedness results.

The names below are re-exported lazily (PEP 562): a submodule is imported
the first time one of its names is looked up on the package.
"""

from importlib import import_module

_EXPORTS = {
    "chern": ("FormalBundle", "GradedClass", "GradedRing", "GradedVariable",
              "bundle_from_classes", "direct_sum", "dual", "sym_power",
              "tensor", "tensor_line", "trivial_bundle"),
    "errors": ("IncompleteDataError", "InternalConsistencyError",
               "InvalidInputError", "ResourceLimitError", "RingMismatchError",
               "ScrollflexError"),
    "exactpoly": ("Poly", "parse_poly", "poly_gcd"),
    "jets": ("BUNDLED_PROBES", "JetProbeSpec", "generic_jet_rank",
             "inflection_equations", "jet_matrix", "probe_rank",
             "product_rank_identity", "symbolic_jet_rank"),
    "scans": ("FAMILIES", "ScanProblem", "ScanReport", "build_problem",
              "exceptional_condition", "run_family", "scan"),
    "scroll": ("BASE_PRESETS", "NumericalBaseData", "ScrollSetup",
               "chern_wu_reduce", "degree_class", "degree_of_inflection",
               "expected_codim", "inflection_class", "max_rank", "pushforward",
               "rank_breakdown", "scroll_ring", "symbolic_degree",
               "total_chern_E_k"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))
