"""veclog: vector-logic analysis toolkit.

Binary/ternary vector kernels, a non-arithmetic interaction-quality metric,
associative-table search and fault diagnosis, spare-line coverage for memory
repair, a deterministic sequencer-grid simulator, and design-quality
estimates.
"""
from veclog.assoc import (
    AssociativeTable,
    DiagnosisMode,
    DiagnosisResult,
    best_match,
    diagnose,
    feasible_mask,
    parse_table,
    parse_ternary_rows,
    restrict,
)
from veclog.cover import (
    BudgetExceeded,
    CoverageInstance,
    DimensionMismatch,
    Infeasible,
    NotCovering,
    RepairInstance,
    RepairPlan,
    Spare,
    TooLarge,
    build_repair_table,
    coverage_of,
    exact_cover_oracle,
    greedy_cover,
    parse_repair_instance,
    repair_plan,
    run_test,
    selected_rows,
)
from veclog.dq import DesignQualityInput, DesignQualityOutput, DomainError, design_quality
from veclog.lamp import (
    AssemblyError,
    GridState,
    Program,
    SequencerState,
    StepLimitExceeded,
    assemble,
    coverage_search_source,
    diagnosis_source,
    feasible_search_source,
    quality_source,
    restrict_source,
    run_grid,
    run_sequencer,
    with_response_column,
)
from veclog.metric import (
    ArithQuality,
    Choice,
    CompactedQuality,
    CountQuality,
    QualityVector,
    beta_cycle_check,
    better_of,
    compact_quality,
    quality_arith,
    quality_counts,
    quality_vector,
)
from veclog.vlcore import (
    BitVector,
    EmptyInput,
    EmptyIntersection,
    InteractionType,
    LengthMismatch,
    ParseError,
    TernaryVector,
    classify_interaction,
    devectorize,
    slc,
    ternary_intersect,
    vectorize,
)

__version__ = "0.1.0"
