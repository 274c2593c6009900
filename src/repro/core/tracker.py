"""The speculative pointer tracker (paper Section V).

Lives in the processor front-end and tags every architectural register with
the PID of the capability it (speculatively) carries.  Because tracking
happens on speculatively fetched instructions, each register tag keeps two
fields (Section V-D):

* the **finalized PID** propagated by the last committed instruction, and
* a **vector of transient PIDs** from in-flight older instructions, each
  paired with its sequence number.

Capability transfers always use the transient PID with the highest sequence
number (the fetch stage runs ahead of the pipe); on a squash, transients
younger than the offending instruction are discarded; on commit, the
oldest transient graduates into the finalized field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    commits: int = 0
    squashes: int = 0
    squashed_tags: int = 0


class _RegTag:
    """PID tag of one architectural register: finalized + transient vector."""

    __slots__ = ("committed", "transient")

    def __init__(self) -> None:
        self.committed = 0
        self.transient: List[Tuple[int, int]] = []  # (seq, pid), seq ascending

    def current(self) -> int:
        return self.transient[-1][1] if self.transient else self.committed

    def write(self, seq: int, pid: int) -> None:
        self.transient.append((seq, pid))

    def commit_upto(self, seq: int) -> None:
        """Fold transients with sequence number <= seq into the finalized PID."""
        kept = 0
        for entry_seq, pid in self.transient:
            if entry_seq <= seq:
                self.committed = pid
                kept += 1
            else:
                break
        if kept:
            del self.transient[:kept]

    def squash_after(self, seq: int) -> int:
        """Drop transients younger than ``seq``; returns how many dropped."""
        keep = len(self.transient)
        while keep and self.transient[keep - 1][0] > seq:
            keep -= 1
        dropped = len(self.transient) - keep
        if dropped:
            del self.transient[keep:]
        return dropped


class SpeculativePointerTracker:
    """Front-end PID tracking over the extended (arch + temp) register file."""

    def __init__(self, rules: Optional[RuleDatabase] = None) -> None:
        self.rules = rules if rules is not None else RuleDatabase.table1()
        self._tags = [_RegTag() for _ in range(NUM_UREGS)]
        # Registers with outstanding transients: commit/squash only touch
        # these (hot path — commit runs once per macro instruction).
        self._dirty: set = set()
        self.stats = TrackerStats()

    def state(self) -> Dict[str, object]:
        """Every register's tag and the dirty set (the rule database is
        configuration, not state)."""
        return {
            "tags": [(tag.committed, list(tag.transient))
                     for tag in self._tags],
            "dirty": set(self._dirty),
            "stats": self.stats.state(),
        }

    def load(self, state: Dict[str, object]) -> None:
        for tag, (committed, transient) in zip(self._tags, state["tags"]):
            tag.committed = committed
            tag.transient[:] = [tuple(entry) for entry in transient]
        self._dirty.clear()
        self._dirty.update(state["dirty"])
        self.stats.load(state["stats"])

    # -- tag access -----------------------------------------------------------

    def current_pid(self, reg: int) -> int:
        """The speculative PID of ``reg`` (highest-sequence transient)."""
        return self._tags[reg].current()

    def committed_pid(self, reg: int) -> int:
        return self._tags[reg].committed

    def set_pid(self, reg: int, pid: int, seq: int) -> None:
        """Record a (speculative) capability transfer into ``reg``."""
        self._tags[reg].transient.append((seq, pid))
        self._dirty.add(reg)

    def base_pid(self, uop: Uop) -> int:
        """PID of the addressing base register of a memory uop (0 if none).

        Disp-only operands model PC-relative accesses into the binary image
        (constant-pool loads); those are untracked — the *wild* path is
        reserved for register-held constant addresses produced by the MOVI
        rule (Section VII-B distinguishes exactly these two idioms).
        """
        if uop.mem is None or uop.mem.base is None:
            return 0
        return self.current_pid(int(uop.mem.base))

    # -- rule application --------------------------------------------------------

    def apply(self, uop: Uop, seq: int):
        """Apply the rule database to one decoded micro-op.

        Returns one of:

        * ``None`` — no destination PID action (flag-only ops, branches);
        * :data:`MEMORY_POLICY` — the machine must resolve via the alias
          subsystem (LD destination / ST source);
        * an ``int`` PID — already written to the destination tag.

        The policy dispatch mirrors :meth:`RuleDatabase.propagate` but
        reads only the operand tags the selected policy actually consumes
        (this runs once per tracked micro-op — the hot path).
        """
        rules = self.rules
        rule = rules.lookup(uop)
        policy = rule.propagation if rule else rules.default_propagation
        if policy is Propagation.ZERO:
            pid = 0
        elif policy is Propagation.COPY_SRC or policy is Propagation.FIRST_SRC:
            srcs = uop.srcs
            pid = self._tags[srcs[0]].current() if srcs else 0
        elif policy is Propagation.NONZERO_SRC:
            tags = self._tags
            srcs = uop.srcs
            first = tags[srcs[0]].current() if srcs else 0
            second = tags[srcs[1]].current() if len(srcs) > 1 else 0
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
                pid = self._tags[int(mem.base)].current()
        elif policy is Propagation.WILD:
            pid = WILD_PID
        else:  # FROM_MEMORY / TO_MEMORY
            return MEMORY_POLICY
        if uop.dst is None:
            return None
        self.set_pid(uop.dst, pid, seq)
        if pid == WILD_PID:
            self.stats.wild_assignments += 1
        elif pid:
            self.stats.transfers += 1
        else:
            self.stats.zeroed += 1
        return pid

    # -- speculation management ------------------------------------------------------

    def commit(self, seq: int) -> None:
        """All instructions with sequence number <= ``seq`` have committed."""
        self.stats.commits += 1
        dirty = self._dirty
        if not dirty:
            return
        tags = self._tags
        # Common case at end-of-instruction commit: every transient is old
        # enough, every tag drains wholesale, and the dirty set empties —
        # tracked via ``partial`` staying None so no per-commit list is
        # allocated.
        partial = None
        for reg in dirty:
            tag = tags[reg]
            transient = tag.transient
            if transient[-1][0] <= seq:
                tag.committed = transient[-1][1]
                transient.clear()
            else:
                tag.commit_upto(seq)
                if transient:
                    if partial is None:
                        partial = [reg]
                    else:
                        partial.append(reg)
        dirty.clear()
        if partial is not None:
            dirty.update(partial)

    def squash(self, seq: int) -> None:
        """Misprediction recovery: discard transient state younger than
        the offending instruction (Section V-D)."""
        self.stats.squashes += 1
        clean = []
        for reg in self._dirty:
            tag = self._tags[reg]
            self.stats.squashed_tags += tag.squash_after(seq)
            if not tag.transient:
                clean.append(reg)
        self._dirty.difference_update(clean)

    def snapshot(self) -> Dict[int, int]:
        """Current speculative PID of every register with a non-zero tag."""
        return {
            reg: tag.current()
            for reg, tag in enumerate(self._tags)
            if tag.current()
        }
