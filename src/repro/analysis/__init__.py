"""Analysis: CVE dataset, pattern classifier, allocation profiler, tables."""

from .allocprofile import (
    PROFILE_INTERVAL,
    AllocationProfile,
    IntervalPids,
    orders_of_magnitude_gaps,
    profile_workload,
)
from .comparison import (
    PAPER_CHEX86,
    PRIOR_WORK,
    TechniqueRow,
    full_table,
    measured_chex86_row,
    qualitative_claims,
)
from .cve import (
    CATEGORIES,
    CVE_ROOT_CAUSES,
    MEMORY_SAFETY_CATEGORIES,
    YearBreakdown,
    all_years,
    average_memory_safety_share,
    breakdown,
)
from .patterns import (
    TABLE2_EXAMPLES,
    Pattern,
    PatternProfile,
    classify,
    profile_patterns,
)
from .diagnostics import explain_violation
from .report import render_bars, render_grouped_bars, render_table
from .simpoint import (
    BasicBlockVectors,
    SimPointSelection,
    SimulationPoint,
    profile_bbvs,
    select,
    select_for,
)

__all__ = [
    "AllocationProfile",
    "BasicBlockVectors",
    "CATEGORIES",
    "CVE_ROOT_CAUSES",
    "IntervalPids",
    "MEMORY_SAFETY_CATEGORIES",
    "PAPER_CHEX86",
    "PRIOR_WORK",
    "PROFILE_INTERVAL",
    "Pattern",
    "PatternProfile",
    "TABLE2_EXAMPLES",
    "TechniqueRow",
    "YearBreakdown",
    "all_years",
    "average_memory_safety_share",
    "breakdown",
    "classify",
    "explain_violation",
    "full_table",
    "measured_chex86_row",
    "orders_of_magnitude_gaps",
    "profile_patterns",
    "profile_workload",
    "qualitative_claims",
    "render_bars",
    "render_grouped_bars",
    "render_table",
    "SimPointSelection",
    "SimulationPoint",
    "profile_bbvs",
    "select",
    "select_for",
]
