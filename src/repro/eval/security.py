"""Security evaluation (paper Section VII-A).

Runs the three exploit suites — RIPE's 850 attack forms, the ASan test
analogue, and the 18 How2Heap scenarios — under prediction-driven CHEx86
and reports detection, the violation-kind histogram (the paper's
per-anchor-point counts), and, as a control, how many attacks actually
land on the insecure baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.report import render_table
from ..core.variants import Variant
from ..exploits import asan_suite, how2heap, ripe
from ..exploits.harness import SuiteResult, run_suite


@dataclass
class SecurityResult:
    chex86: Dict[str, SuiteResult]
    insecure: Dict[str, SuiteResult]

    def all_flagged(self) -> bool:
        """The headline: CHEx86 thwarts every exploit in every suite."""
        return all(result.detected == result.total
                   for result in self.chex86.values())

    def no_hijack_under_chex86(self) -> bool:
        return all(result.hijacked == 0 for result in self.chex86.values())

    def format_text(self) -> str:
        rows = []
        for suite, result in self.chex86.items():
            control = self.insecure[suite]
            rows.append([
                suite, result.total,
                f"{result.detected}/{result.total}",
                result.hijacked,
                control.hijacked,
            ])
        table = render_table(
            ["suite", "exploits", "detected (CHEx86)",
             "hijacks under CHEx86", "hijacks on insecure baseline"],
            rows, title="Security evaluation (Section VII-A)")
        kind_lines = []
        for suite, result in self.chex86.items():
            histogram = ", ".join(
                f"{kind.value}: {count}"
                for kind, count in sorted(result.kinds_histogram().items(),
                                          key=lambda kv: -kv[1])
            )
            kind_lines.append(f"  {suite}: {histogram}")
        return (f"{table}\n\nViolation kinds flagged:\n"
                + "\n".join(kind_lines))


def run(ripe_limit: Optional[int] = None,
        variant: Variant = Variant.UCODE_PREDICTION) -> SecurityResult:
    """Run all three suites.  ``ripe_limit`` subsamples RIPE (every k-th
    case) for quick runs; None runs all 850."""
    ripe_cases = ripe.generate_suite()
    if ripe_limit is not None and ripe_limit < len(ripe_cases):
        step = max(1, len(ripe_cases) // ripe_limit)
        ripe_cases = ripe_cases[::step][:ripe_limit]
    suites = {
        "RIPE": ripe_cases,
        "ASan suite": asan_suite.generate_suite(),
        "How2Heap": how2heap.generate_suite(),
    }
    chex86: Dict[str, SuiteResult] = {}
    insecure: Dict[str, SuiteResult] = {}
    for name, cases in suites.items():
        chex86[name], insecure[name] = run_suite(
            name, cases, (variant, Variant.INSECURE))
    return SecurityResult(chex86=chex86, insecure=insecure)
