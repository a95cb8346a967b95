"""veclog: vector-logic analysis toolkit.

Binary/ternary vector kernels, a non-arithmetic interaction-quality metric,
associative-table search and fault diagnosis, spare-line coverage for memory
repair, a deterministic sequencer-grid simulator, and design-quality
estimates.

Each public name below is imported from its submodule on first use (PEP 562),
so ``import veclog.cli`` loads only the layer the subcommand runs.
"""
_EXPORTS = {
    "assoc": (
        "AssociativeTable",
        "DiagnosisMode",
        "best_match",
        "diagnose",
        "feasible_mask",
        "parse_table",
        "parse_ternary_rows",
    ),
    "cover": (
        "BudgetExceeded",
        "CoverageInstance",
        "Infeasible",
        "NotCovering",
        "RepairInstance",
        "Spare",
        "TooLarge",
        "build_repair_table",
        "coverage_of",
        "exact_cover_oracle",
        "greedy_cover",
        "parse_repair_instance",
        "repair_plan",
        "selected_rows",
    ),
    "dq": ("DesignQualityInput", "DesignQualityOutput", "DomainError",
           "design_quality"),
    "lamp": (
        "AssemblyError",
        "GridState",
        "Program",
        "SequencerState",
        "StepLimitExceeded",
        "assemble",
        "coverage_search_source",
        "diagnosis_source",
        "feasible_search_source",
        "quality_source",
        "restrict_source",
        "run_grid",
        "run_sequencer",
        "with_response_column",
    ),
    "metric": (
        "ArithQuality",
        "Choice",
        "CompactedQuality",
        "QualityVector",
        "beta_cycle_check",
        "better_of",
        "compact_quality",
        "quality_arith",
        "quality_vector",
    ),
    "vlcore": (
        "BitVector",
        "EmptyInput",
        "EmptyIntersection",
        "LengthMismatch",
        "ParseError",
        "TernaryVector",
        "slc",
        "ternary_intersect",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = [*_EXPORTS, *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_SOURCE[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
