"""The pointer tracker (paper Section V).

Lives in the processor front-end and tags every architectural register
(and microcode temporary) with the PID of the capability it carries.

The paper's tracker runs on speculatively fetched instructions, so each
tag keeps a finalized PID plus a vector of transient PIDs from in-flight
instructions, and a squash discards the transients younger than the
mispredicting instruction (Section V-D).  This simulator executes in
program order and never runs a wrong path: a mispredict is charged as
penalty cycles (``pipeline/timing.py``), and at a squash no younger
instruction has executed.  Wrong-path tag state is therefore not
modelled: each register holds one PID, and a tag write is visible at
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..microop.uops import NUM_UREGS, Uop
from ..telemetry.state import Counters
from .capability import WILD_PID
from .rules import MEMORY_POLICY, Propagation, RuleDatabase


@dataclass
class TrackerStats(Counters):
    """Rule-application counters."""

    transfers: int = 0         # register-to-register PID propagations
    wild_assignments: int = 0  # MOVI rule firings (PID <- -1)
    zeroed: int = 0            # default-rule results
    commits: int = 0           # instructions retired while tracking
    squashes: int = 0          # mispredict recoveries
    #: Tags a squash discarded: always 0, since no wrong path executes.
    squashed_tags: int = 0


class SpeculativePointerTracker:
    """Front-end PID tracking over the extended (arch + temp) register file."""

    def __init__(self, rules: Optional[RuleDatabase] = None) -> None:
        self.rules = rules if rules is not None else RuleDatabase.table1()
        self._tags: List[int] = [0] * NUM_UREGS
        self.stats = TrackerStats()

    def state(self) -> Dict[str, object]:
        """Every register's tag (the rule database is configuration, not
        state)."""
        return {"tags": list(self._tags), "stats": self.stats.state()}

    def load(self, state: Dict[str, object]) -> None:
        self._tags[:] = state["tags"]
        self.stats.load(state["stats"])

    # -- tag access -----------------------------------------------------------

    def current_pid(self, reg: int) -> int:
        return self._tags[reg]

    def set_pid(self, reg: int, pid: int) -> None:
        """Record a capability transfer into ``reg``."""
        self._tags[reg] = pid

    def base_pid(self, uop: Uop) -> int:
        """PID of the addressing base register of a memory uop (0 if none).

        Disp-only operands model PC-relative accesses into the binary image
        (constant-pool loads); those are untracked — the *wild* path is
        reserved for register-held constant addresses produced by the MOVI
        rule (Section VII-B distinguishes exactly these two idioms).
        """
        if uop.mem is None or uop.mem.base is None:
            return 0
        return self._tags[int(uop.mem.base)]

    # -- rule application --------------------------------------------------------

    def apply(self, uop: Uop):
        """Apply the rule database to one decoded micro-op.

        Returns one of:

        * ``None`` — no destination PID action (flag-only ops, branches);
        * :data:`MEMORY_POLICY` — the machine must resolve via the alias
          subsystem (LD destination / ST source);
        * an ``int`` PID — already written to the destination tag.

        This is the one implementation of Table I's propagation policies
        (compiled superblock replay inlines the same dispatch per site).
        It reads only the operand tags the selected policy consumes: this
        runs once per tracked micro-op.
        """
        rules = self.rules
        rule = rules.lookup(uop)
        policy = rule.propagation if rule else rules.default_propagation
        if policy is Propagation.ZERO:
            pid = 0
        elif policy is Propagation.COPY_SRC or policy is Propagation.FIRST_SRC:
            srcs = uop.srcs
            pid = self._tags[srcs[0]] if srcs else 0
        elif policy is Propagation.NONZERO_SRC:
            # "If the PID of one source operand is zero, then assign the
            # PID of the other."  A real PID beats the wild sentinel, and
            # of two real PIDs the first (the minuend of a pointer
            # difference) wins.
            tags = self._tags
            srcs = uop.srcs
            first = tags[srcs[0]] if srcs else 0
            second = tags[srcs[1]] if len(srcs) > 1 else 0
            if first == 0:
                pid = second
            elif second == 0 or first != WILD_PID:
                pid = first
            else:
                pid = second
        elif policy is Propagation.BASE_REG:
            mem = uop.mem
            pid = 0
            if mem is not None and mem.base is not None:
                pid = self._tags[int(mem.base)]
        elif policy is Propagation.WILD:
            pid = WILD_PID
        else:  # FROM_MEMORY / TO_MEMORY
            return MEMORY_POLICY
        if uop.dst is None:
            return None
        self._tags[uop.dst] = pid
        if pid == WILD_PID:
            self.stats.wild_assignments += 1
        elif pid:
            self.stats.transfers += 1
        else:
            self.stats.zeroed += 1
        return pid

    def snapshot(self) -> Dict[int, int]:
        """The PID of every register with a non-zero tag."""
        return {reg: pid for reg, pid in enumerate(self._tags) if pid}
