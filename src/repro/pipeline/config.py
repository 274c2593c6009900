"""Simulated hardware configuration (paper Table III plus CHEx86 knobs).

The baseline processor is modelled after Intel Skylake exactly as Table III
specifies; the CHEx86 structure sizes (capability cache, alias cache +
victim, predictor) use the defaults of Sections IV-B and V-C.  Everything is
a dataclass field so the Figure 7/8 sweeps are one-liner ``replace()`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class CoreConfig:
    """One core's microarchitectural parameters."""

    # ---- Table III: baseline processor --------------------------------------
    frequency_ghz: float = 3.4
    fetch_width: int = 4            # fused uops (macro-ops) per cycle
    issue_width: int = 6            # unfused uops per cycle
    commit_width: int = 6
    rob_entries: int = 224
    iq_entries: int = 64
    lq_entries: int = 72
    sq_entries: int = 56
    int_regs: int = 180
    fp_regs: int = 168
    ras_entries: int = 64
    btb_entries: int = 4096
    int_alu_units: int = 6
    int_mult_units: int = 1
    fp_alu_units: int = 3
    simd_units: int = 3
    l1i_bytes: int = 32 * 1024
    l1i_ways: int = 8
    l1d_bytes: int = 32 * 1024
    l1d_ways: int = 8

    # ---- beyond-Table-III memory system (Skylake-typical) --------------------
    l2_bytes: int = 1024 * 1024
    l2_ways: int = 16
    line_bytes: int = 64
    l1_latency: int = 4
    l2_latency: int = 14
    mem_latency: int = 120
    dtlb_entries: int = 64
    dtlb_ways: int = 4

    # ---- front end ------------------------------------------------------------
    decode_depth: int = 5           # fetch-to-dispatch stages
    branch_mispredict_penalty: int = 15

    # ---- CHEx86 structures (Sections IV-B, V-C) ---------------------------------
    capcache_entries: int = 64      # fully associative
    captable_latency: int = 30      # shadow capability table access (miss path)
    capcheck_latency: int = 3       # capCheck hit path / CMU occupancy
    cmu_units: int = 2              # capability management units (Figure 2)
    aliascache_entries: int = 256
    aliascache_ways: int = 2
    alias_victim_entries: int = 32
    alias_walk_level_latency: int = 6   # per level of the 5-level walker
    predictor_entries: int = 512
    alias_flush_penalty: int = 15   # P0AN pipeline flush + refill
    lsu_check_latency: int = 1      # hardware-only fused check (per access)
    max_alloc_bytes: int = 1 << 30  # capGen resource-exhaustion limit (1 GB)

    def with_(self, **kwargs) -> "CoreConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    def table3_rows(self) -> Dict[str, str]:
        """The Table III content, regenerated from the live configuration."""
        return {
            "Frequency": f"{self.frequency_ghz} GHz",
            "Fetch width": f"{self.fetch_width} fused uops",
            "Issue width": f"{self.issue_width} unfused uops",
            "INT/FP Regfile": f"{self.int_regs}/{self.fp_regs} regs",
            "RAS size": f"{self.ras_entries} entries",
            "LQ/SQ size": f"{self.lq_entries}/{self.sq_entries} entries",
            "Branch Predictor": "LTAGE",
            "I cache": f"{self.l1i_bytes // 1024} KB, {self.l1i_ways} way",
            "D cache": f"{self.l1d_bytes // 1024} KB, {self.l1d_ways} way",
            "ROB size": f"{self.rob_entries} entries",
            "IQ": f"{self.iq_entries} entries",
            "BTB size": f"{self.btb_entries} entries",
            "Functional Units": (
                f"Int ALU ({self.int_alu_units}) / Mult ({self.int_mult_units}), "
                f"FPALU ({self.fp_alu_units}) / SIMD ({self.simd_units})"
            ),
        }


#: The default simulated system configuration.
DEFAULT_CONFIG = CoreConfig()
