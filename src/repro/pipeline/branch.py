"""Branch prediction: an LTAGE-style predictor, BTB, and return address stack.

Table III specifies an LTAGE predictor with a 4096-entry BTB and a 64-entry
RAS.  The implementation here is a compact TAGE: a bimodal base table plus
tagged components with geometric history lengths and the standard
provider/alternate selection and allocation-on-mispredict policy — enough
fidelity that squash behaviour (Figure 8 bottom) tracks branch-pattern
difficulty the way a real front end's would.

Every resolved branch costs O(1) predictor work.  Each tagged component is
three flat typed arrays (tag, counter, useful), whose slots the cyclic
collector never walks, and the folded histories that index and tag it are
circular shift registers, as TAGE defines them (Seznec & Michaud, JILP
2006): when an outcome shifts into the global history, each fold rotates
left by one within its width, the bit leaving the component's window is
XORed out at position ``length % width``, and the new outcome is XORed in
at bit 0.  :func:`_fold` recomputes a fold from scratch; only
:meth:`LTagePredictor.load` uses it, through :meth:`LTagePredictor._refold`.

A trained branch writes nothing: its prediction is right, its counter is
saturated towards the outcome and its useful counter is at its maximum,
so only the history and the folds move.  :meth:`LTagePredictor.update`
memoises such transitions, keyed by ``(pc, history, taken)``, after
Schnarr & Larus (ASPLOS 1998).  The folds derive from the history and no
slot changed, so replaying the recorded history and folds is the
computed update; every write, and :meth:`LTagePredictor.load`, clears
the memo, which keeps it exact.  The folds are tuples, rebound on every
update, so that a memo entry can share them.  Over the Figure 6 grid
0.75 of the updates hit, and 0.88 over the four steady programs at
scale 2.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..memory.cache import SetAssocCache
from ..telemetry.state import Counters

#: Geometric history lengths of the tagged components.
_HISTORIES = (4, 8, 16, 32)
_TAG_BITS = 9
_TABLE_BITS = 10  # 1024 entries per tagged component
_HISTORY_MASKS = tuple((1 << h) - 1 for h in _HISTORIES)
_TABLE_MASK = (1 << _TABLE_BITS) - 1
_TAG_MASK = (1 << _TAG_BITS) - 1
#: The global history register is 64 bits wide.
_GLOBAL_MASK = (1 << 64) - 1
#: XORed into a fold shifted left by one whose top bit left its width:
#: clears that bit and carries it round to bit 0.
_TABLE_WRAP = (1 << _TABLE_BITS) | 1
_TAG_WRAP = (1 << _TAG_BITS) | 1
#: Per component: its index, the history bit that leaves its window on a
#: shift, and that bit's position in the index and tag folds, as masks.
_FOLD_SHIFTS = tuple(
    (level, 1 << (h - 1), 1 << (h % _TABLE_BITS), 1 << (h % _TAG_BITS))
    for level, h in enumerate(_HISTORIES))
#: Entries of a predictor's steady-state memo before it is cleared; 0
#: turns the memo off.
_MEMO_LIMIT = 1024


@dataclass
class BranchStats(Counters):
    cond_predictions: int = 0
    cond_mispredictions: int = 0
    indirect_predictions: int = 0
    indirect_mispredictions: int = 0


class LTagePredictor:
    """TAGE-style conditional branch predictor."""

    def __init__(self) -> None:
        # 2-bit signed counters, >=0 taken.
        self._bimodal = array("b", bytes(4096))
        # Tagged components, one array per level: 9-bit tag (-1 = empty),
        # 3-bit signed counter (>=0 taken), and 2-bit useful counter.
        size = 1 << _TABLE_BITS
        self._tags = [array("h", [-1]) * size for _ in _HISTORIES]
        self._ctrs = [array("b", bytes(size)) for _ in _HISTORIES]
        self._useful = [array("b", bytes(size)) for _ in _HISTORIES]
        self._history = 0
        # Folded histories, one (index, tag) fold per component, shifted
        # in step with ``_history`` by :meth:`update`.  Tuples, rebound on
        # every update, so that a memo entry can share them.
        self._folded_idx = (0,) * len(_HISTORIES)
        self._folded_tag = (0,) * len(_HISTORIES)
        # ``(pc, history, taken)`` -> ``(history, folded_idx, folded_tag)``
        # after an update that wrote no slot; cleared by every write.
        self._memo: Dict[tuple, tuple] = {}
        self.memo_hits = 0
        self.stats = BranchStats()

    def state(self) -> Dict[str, object]:
        """The tables, the global history and the stats; the folded
        histories derive from the history, so :meth:`load` refolds."""
        return {
            "bimodal": self._bimodal.tolist(),
            "tags": [table.tolist() for table in self._tags],
            "ctrs": [table.tolist() for table in self._ctrs],
            "useful": [table.tolist() for table in self._useful],
            "history": self._history,
            "stats": self.stats.state(),
        }

    def load(self, state: Dict[str, object]) -> None:
        self._bimodal = array("b", state["bimodal"])
        self._tags = [array("h", table) for table in state["tags"]]
        self._ctrs = [array("b", table) for table in state["ctrs"]]
        self._useful = [array("b", table) for table in state["useful"]]
        self._history = state["history"]
        self._refold()
        self._memo.clear()
        self.stats.load(state["stats"])

    def _refold(self) -> None:
        """Recompute the folded histories from ``_history``."""
        history = self._history
        self._folded_idx = tuple(_fold(history & mask, _TABLE_BITS)
                                 for mask in _HISTORY_MASKS)
        self._folded_tag = tuple(_fold(history & mask, _TAG_BITS)
                                 for mask in _HISTORY_MASKS)

    # -- prediction -------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, then train on the outcome
        ``taken``; returns whether the prediction was correct."""
        old = self._history
        key = (pc, old, taken)
        hit = self._memo.get(key)
        if hit is not None:
            # A transition that wrote no slot, recorded since the last
            # write: only the history and its folds move.
            self.stats.cond_predictions += 1
            self.memo_hits += 1
            self._history, self._folded_idx, self._folded_tag = hit
            return True
        # One provider search serves both the prediction and the training.
        level, index = self._find_provider(pc)
        if level >= 0:
            ctrs = self._ctrs[level]
        else:
            ctrs = self._bimodal
            index = (pc >> 2) & 4095
        ctr = ctrs[index]
        correct = (ctr >= 0) == taken
        stats = self.stats
        stats.cond_predictions += 1
        # Saturating counters: tagged in [-4, 3], bimodal in [-2, 1].
        limit = 3 if level >= 0 else 1
        if taken:
            trained = ctr + 1 if ctr < limit else limit
        else:
            trained = ctr - 1 if ctr > -limit - 1 else -limit - 1
        wrote = trained != ctr
        if wrote:
            ctrs[index] = trained
        if correct:
            if level >= 0:
                useful = self._useful[level]
                if useful[index] < 3:
                    useful[index] += 1
                    wrote = True
        else:
            # A mispredict always moves the counter, so ``wrote`` is set.
            stats.cond_mispredictions += 1
            self._allocate(pc, taken, level)
        bit = 1 if taken else 0
        history = self._history = ((old << 1) | bit) & _GLOBAL_MASK
        folded_idx = list(self._folded_idx)
        folded_tag = list(self._folded_tag)
        for component, leaving, idx_out, tag_out in _FOLD_SHIFTS:
            # Rotate left by one within the width, XOR in the new outcome
            # at bit 0, and XOR out the bit leaving the window.
            idx = (folded_idx[component] << 1) ^ bit
            if idx > _TABLE_MASK:
                idx ^= _TABLE_WRAP
            tag = (folded_tag[component] << 1) ^ bit
            if tag > _TAG_MASK:
                tag ^= _TAG_WRAP
            if old & leaving:
                idx ^= idx_out
                tag ^= tag_out
            folded_idx[component] = idx
            folded_tag[component] = tag
        folded_idx = self._folded_idx = tuple(folded_idx)
        folded_tag = self._folded_tag = tuple(folded_tag)
        memo = self._memo
        if wrote:
            memo.clear()
        elif _MEMO_LIMIT:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = (history, folded_idx, folded_tag)
        return correct

    # -- internals -----------------------------------------------------------------

    def _find_provider(self, pc: int) -> Tuple[int, int]:
        """``(level, index)`` of the longest-history tagged component
        hitting on ``pc``; ``(-1, 0)`` when none does."""
        folded_idx = self._folded_idx
        folded_tag = self._folded_tag
        pc2 = pc >> 2
        tag_base = pc2 ^ (pc >> 12)
        tags = self._tags
        for level in range(len(_HISTORIES) - 1, -1, -1):
            index = (pc2 ^ folded_idx[level]) & _TABLE_MASK
            if tags[level][index] == (tag_base ^ folded_tag[level]) & _TAG_MASK:
                return level, index
        return -1, 0

    def _allocate(self, pc: int, taken: bool, provider_level: int) -> None:
        """On mispredict, claim an entry in a longer-history component."""
        pc2 = pc >> 2
        for level in range(provider_level + 1, len(_HISTORIES)):
            index = (pc2 ^ self._folded_idx[level]) & _TABLE_MASK
            useful = self._useful[level]
            if useful[index] == 0:
                self._tags[level][index] = (
                    pc2 ^ self._folded_tag[level] ^ (pc >> 12)) & _TAG_MASK
                self._ctrs[level][index] = 0 if taken else -1
                return
            useful[index] -= 1


def _fold(value: int, bits: int) -> int:
    folded = 0
    while value:
        folded ^= value & ((1 << bits) - 1)
        value >>= bits
    return folded


class ReturnAddressStack:
    """The 64-entry RAS; overflow wraps (oldest entry lost)."""

    def __init__(self, entries: int = 64) -> None:
        self.entries = entries
        self._stack: List[int] = []
        self.overflows = 0

    def push(self, address: int) -> None:
        if len(self._stack) >= self.entries:
            del self._stack[0]
            self.overflows += 1
        self._stack.append(address)

    def pop(self) -> int:
        """Predicted return target; 0 when empty (forced mispredict)."""
        if not self._stack:
            return 0
        return self._stack.pop()

    def state(self) -> Dict[str, object]:
        return {"stack": list(self._stack), "overflows": self.overflows}

    def load(self, state: Dict[str, object]) -> None:
        self._stack[:] = state["stack"]
        self.overflows = state["overflows"]


class FrontEndPredictors:
    """Bundle: conditional predictor + BTB + RAS, as the fetch stage sees it."""

    def __init__(self, btb_entries: int = 4096, ras_entries: int = 64) -> None:
        self.cond = LTagePredictor()
        self.btb = SetAssocCache(btb_entries, 4, line_shift=0, name="btb")
        self.ras = ReturnAddressStack(ras_entries)
        self.stats = self.cond.stats

    def state(self) -> Dict[str, object]:
        return {"cond": self.cond.state(), "btb": self.btb.state(),
                "ras": self.ras.state()}

    def load(self, state: Dict[str, object]) -> None:
        self.cond.load(state["cond"])
        self.btb.load(state["btb"])
        self.ras.load(state["ras"])

    def on_call(self, return_address: int) -> None:
        self.ras.push(return_address)

    def resolve_indirect(self, pc: int, actual_target: int,
                         is_return: bool) -> bool:
        """Predict an indirect jump target; returns correct?"""
        self.stats.indirect_predictions += 1
        if is_return:
            predicted = self.ras.pop()
        else:
            cached = self.btb.lookup(pc)
            predicted = cached if cached is not None else 0
        self.btb.access(pc, actual_target)
        self.btb.update(pc, actual_target)
        if predicted != actual_target:
            self.stats.indirect_mispredictions += 1
            return False
        return True
