"""Pointer-reload (spilled-alias) prediction — paper Section V-B/V-C.

The key observation (Table II) is that the *sequence of PIDs* a given load
instruction reloads is highly predictable — constant, striding, batched, or
repeating — because it correlates with the instruction address, not the
load's effective address.  CHEx86 therefore re-purposes a stride predictor:
a 512-entry table indexed by instruction address whose entries carry the
last PID seen, the PID stride, and a 2-bit saturating confidence counter,
plus a blacklist of loads known to fetch data values rather than spilled
pointers (avoiding destructive aliasing in the predictor table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import INSTR_SLOT
from ..telemetry.state import Counters


class MispredictKind:
    """The three pointer-reload misprediction classes (Figure 5)."""

    #: Predicted PID(N), actual untracked: demote the injected check to a
    #: zero idiom at the instruction queue — no flush.
    PNA0 = "PNA0"
    #: Predicted untracked, actual PID(N): flush and re-inject — the only
    #: class that pays the pipeline-flush penalty.
    P0AN = "P0AN"
    #: Predicted PID(M), actual PID(N): forward the right PID — no flush.
    PMAN = "PMAN"


@dataclass
class PredictorStats(Counters):
    lookups: int = 0
    predictions: int = 0      # lookups that predicted a non-zero PID
    correct: int = 0          # outcome matched (incl. correct "untracked")
    pna0: int = 0
    p0an: int = 0
    pman: int = 0
    blacklist_filtered: int = 0

    @property
    def mispredictions(self) -> int:
        return self.pna0 + self.p0an + self.pman

    @property
    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return self.correct / self.lookups

    @property
    def misprediction_rate(self) -> float:
        return 1.0 - self.accuracy

    def register_metrics(self, registry, prefix: str = "predictor") -> None:
        """Expose the prediction counters as ``<prefix>.*`` gauges.

        ``accuracy`` defaults to 1.0 on zero lookups, matching the
        :attr:`accuracy` property exactly (a predictor that was never
        consulted was never wrong).
        """
        super().register_metrics(registry, prefix)
        registry.gauge(f"{prefix}.mispredictions",
                       lambda stats=self: stats.mispredictions)
        registry.ratio(f"{prefix}.accuracy",
                       f"{prefix}.correct", f"{prefix}.lookups", default=1.0)
        registry.ratio(f"{prefix}.misprediction_rate",
                       f"{prefix}.mispredictions", f"{prefix}.lookups")


class _Entry:
    __slots__ = ("tag", "last_pid", "stride", "conf", "useful")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.last_pid = 0
        self.stride = 0
        self.conf = 0    # 2-bit saturating prediction confidence
        #: Replacement-contest counter.  Colliding loads (same table slot,
        #: different tag) decrement *this* — never ``conf`` — so an index
        #: collision cannot silently degrade the resident instruction's
        #: predictions; it can only, eventually, evict the whole entry.
        self.useful = 1


class PointerReloadPredictor:
    """Stride-based PID predictor with a non-pointer-load blacklist."""

    #: 2-bit saturating counter ceiling.
    CONF_MAX = 3
    #: Confidence required before a prediction is made.
    CONF_THRESHOLD = 2

    def __init__(self, entries: int = 512, blacklist_entries: int = 512) -> None:
        if entries <= 0 or blacklist_entries <= 0:
            raise ValueError("predictor sizes must be positive")
        self.entries = entries
        self._table: List[Optional[_Entry]] = [None] * entries
        self._blacklist: List[Tuple[int, int]] = [(0, 0)] * blacklist_entries
        self._bl_size = blacklist_entries
        self.stats = PredictorStats()

    def state(self) -> Dict[str, object]:
        return {
            "table": [None if entry is None
                      else (entry.tag, entry.last_pid, entry.stride,
                            entry.conf, entry.useful)
                      for entry in self._table],
            "blacklist": list(self._blacklist),
            "stats": self.stats.state(),
        }

    def load(self, state: Dict[str, object]) -> None:
        table = self._table
        for index, item in enumerate(state["table"]):
            if item is None:
                table[index] = None
            else:
                entry = table[index] = _Entry(item[0])
                (entry.last_pid, entry.stride, entry.conf,
                 entry.useful) = item[1:]
        self._blacklist[:] = [tuple(entry) for entry in state["blacklist"]]
        self.stats.load(state["stats"])

    # -- front-end interface -------------------------------------------------

    def predict_ex(self, pc: int) -> Tuple[int, bool]:
        """Predict the PID reloaded by the load at ``pc``.

        Returns ``(prediction, blacklisted)``; a prediction of 0 means
        "not a pointer reload".  A blacklisted ``pc`` is confidently known
        to load data, not pointers: it predicts 0, and the machine also
        skips the alias-cache validation lookup for it (the blacklist's
        "avoid destructive aliasing" role, Section V-C); a stale entry is
        caught by the table walk on the P0AN path and retrained.

        A tag hit always predicts *some* PID: the is-this-a-pointer-reload
        decision only needs the tag match, and a wrong PID value costs a
        cheap PMAN forward, whereas predicting "not a reload" for a real
        reload costs a P0AN pipeline flush (Figure 5d).  The stride is only
        applied once the confidence counter trusts it.
        """
        stats = self.stats
        stats.lookups += 1
        tag, conf = self._blacklist[(pc // INSTR_SLOT) % self._bl_size]
        if tag == pc and conf >= self.CONF_THRESHOLD:
            stats.blacklist_filtered += 1
            return 0, True
        entry = self._table[(pc // INSTR_SLOT) % self.entries]
        if entry is None or entry.tag != pc:
            return 0, False
        if entry.conf >= self.CONF_THRESHOLD:
            prediction = entry.last_pid + entry.stride
        else:
            prediction = entry.last_pid
        stats.predictions += 1
        return (prediction if prediction > 0 else entry.last_pid), False

    def update(self, pc: int, predicted: int, actual: int) -> Optional[str]:
        """Train on the execute-stage outcome; returns the mispredict class.

        ``actual`` is the PID found in the shadow alias table at the load's
        effective address (0 when the location held no spilled pointer).
        """
        if predicted == actual:
            self.stats.correct += 1
            outcome = None
        elif predicted and not actual:
            outcome = MispredictKind.PNA0
            self.stats.pna0 += 1
        elif not predicted:
            outcome = MispredictKind.P0AN
            self.stats.p0an += 1
        else:
            outcome = MispredictKind.PMAN
            self.stats.pman += 1
        self._train(pc, actual)
        return outcome

    # -- internals -------------------------------------------------------------

    def _train(self, pc: int, actual: int) -> None:
        bl_index = self._bl_index(pc)
        bl_tag, bl_conf = self._blacklist[bl_index]
        if actual == 0:
            # Strengthen the blacklist for this load; decay any stride entry.
            if bl_tag == pc:
                self._blacklist[bl_index] = (pc, min(bl_conf + 1, self.CONF_MAX))
            elif bl_conf == 0:
                self._blacklist[bl_index] = (pc, 1)
            else:
                self._blacklist[bl_index] = (bl_tag, bl_conf - 1)
            return
        # A real pointer reload: clear blacklist pressure, train the stride.
        if bl_tag == pc and bl_conf:
            self._blacklist[bl_index] = (pc, bl_conf - 1)
        index = self._index(pc)
        entry = self._table[index]
        if entry is None or entry.tag != pc:
            # Index collision: contest the slot via the replacement
            # counter only.  The resident entry's tag/last_pid/stride/conf
            # stay untouched, so its own predictions are unaffected until
            # it is actually evicted (the paper's blacklist rationale —
            # no destructive aliasing in the predictor table).
            if entry is not None and entry.useful > 0:
                entry.useful -= 1
                return
            entry = _Entry(pc)
            self._table[index] = entry
            entry.last_pid = actual
            entry.conf = 1
            return
        entry.useful = min(entry.useful + 1, self.CONF_MAX)
        stride = actual - entry.last_pid
        if stride == entry.stride:
            entry.conf = min(entry.conf + 1, self.CONF_MAX)
        else:
            if entry.conf:
                entry.conf -= 1
            if entry.conf == 0:
                entry.stride = stride
                entry.conf = 1
        entry.last_pid = actual

    def _index(self, pc: int) -> int:
        return (pc // INSTR_SLOT) % self.entries

    def _bl_index(self, pc: int) -> int:
        return (pc // INSTR_SLOT) % self._bl_size
