"""Deliberate bug injection for oracle-sensitivity testing.

An oracle that never fires is worse than no oracle: it reads as a green
checkmark over a blind spot.  Mirroring the evaluation engine's
``REPRO_FAULT_SPEC`` grammar, a :class:`BugInjection` plants one known
bug into one machine *role* of an oracle run, and the sensitivity tests
assert the matching oracle actually fails:

* ``skip-capcheck`` — the targeted machine's capability-table ``check``
  returns None for every call (or only the Nth with ``@N``), i.e. the
  microcode stops enforcing: the differential / transparency oracles
  must see the violation set diverge.
* ``drop-violation`` — the targeted machine records no violations: the
  detection leg of the transparency oracle must notice the expected
  class is missing.
* ``corrupt-snapshot`` — one bit of a retire counter (``native_uops``)
  is flipped on the restored machine: the snapshot round-trip oracle
  must see state diverge.  The rest of the run only adds to that
  counter, so no program can overwrite the corruption (a flipped
  register could be, by any later write to it).
* ``skew-metric`` — one tracker counter is bumped after the chunked
  run: the metric-conservation oracle must flag the non-conserved
  counter.

Spec grammar (``REPRO_FUZZ_BUG`` environment variable or ``--bug``):
``kind[:role][@index]`` — ``role`` is an ``fnmatch`` pattern over the
oracle-assigned machine roles (``diff:superblock``,
``transparency:ucode-always-on``, ``snapshot:restored``,
``conservation:chunked``, ...); ``index`` selects only the Nth firing
of a wrapped call (1-based; 0 or absent = every call).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional

ENV_VAR = "REPRO_FUZZ_BUG"

#: kind -> the role it targets when the spec names none.
DEFAULT_ROLES = {
    "skip-capcheck": "diff:superblock",
    "drop-violation": "transparency:ucode-always-on",
    "corrupt-snapshot": "snapshot:restored",
    "skew-metric": "conservation:chunked",
}

KINDS = tuple(DEFAULT_ROLES)


class BugSpecError(ValueError):
    """An unparseable or unknown ``REPRO_FUZZ_BUG`` specification."""


@dataclass
class BugInjection:
    """One armed bug.  ``arm`` wraps behavior before a machine runs;
    ``mutate`` applies post-hoc corruption at the oracle's named point."""

    kind: str
    role: str
    index: int = 0
    fired: int = 0
    _calls: int = field(default=0, repr=False)

    @classmethod
    def parse(cls, spec: str) -> "BugInjection":
        spec = spec.strip()
        index = 0
        if "@" in spec:
            spec, _, count = spec.rpartition("@")
            try:
                index = int(count)
            except ValueError:
                raise BugSpecError(
                    f"bad @index in bug spec: {count!r}") from None
            if index < 0:
                raise BugSpecError(f"@index must be >= 0, got {index}")
        kind, _, role = spec.partition(":")
        if kind not in KINDS:
            raise BugSpecError(
                f"unknown bug kind {kind!r} (known: {', '.join(KINDS)})")
        return cls(kind=kind, role=role or DEFAULT_ROLES[kind], index=index)

    @classmethod
    def from_env(cls) -> Optional["BugInjection"]:
        spec = os.environ.get(ENV_VAR, "").strip()
        return cls.parse(spec) if spec else None

    def spec(self) -> str:
        text = f"{self.kind}:{self.role}"
        if self.index:
            text += f"@{self.index}"
        return text

    def matches(self, role: str) -> bool:
        return fnmatchcase(role, self.role)

    def _should_fire(self) -> bool:
        self._calls += 1
        if self.index and self._calls != self.index:
            return False
        self.fired += 1
        return True

    # -- hooks --------------------------------------------------------------------

    def arm(self, machine, role: str) -> None:
        """Install the pre-run behavioral wrap on ``machine`` when its
        ``role`` matches; a no-op for the post-hoc kinds."""
        if not self.matches(role):
            return
        if self.kind == "skip-capcheck":
            original = machine.captable.check

            def unchecked(pid, address, size=8, write=False):
                if self._should_fire():
                    return None
                return original(pid, address, size, write=write)

            machine.captable.check = unchecked
        elif self.kind == "drop-violation":
            def swallow(violation):
                self._should_fire()

            machine.violations.record = swallow

    def mutate(self, machine, role: str) -> None:
        """Apply the post-hoc corruption kinds at the oracle's named
        mutation point (after restore / after the chunked run)."""
        if not self.matches(role):
            return
        if self.kind == "corrupt-snapshot":
            if self._should_fire():
                machine.native_uops ^= 0x40
        elif self.kind == "skew-metric":
            if self._should_fire():
                machine.tracker.stats.transfers += 1
