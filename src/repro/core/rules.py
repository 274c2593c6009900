"""The pointer-tracking rule database (paper Table I).

Each rule maps a micro-op pattern — opcode, optional ALU sub-operation, and
addressing mode — to a *capability propagation* policy that decides which
source operand's PID flows to the destination.  The database is configurable
by construction: the paper's hardware checker co-processor
(:mod:`repro.core.checker`) validates rules at run time and requests
additions when an unmatched pointer manipulation pattern appears, which is
how Table I was constructed; :meth:`RuleDatabase.add` supports exactly that
workflow (including field updates via microcode, per the paper).

The table's policies::

    MOV   reg-reg   PID(dst) <- PID(src)
    AND   reg-reg   if one source PID is zero, take the other
    AND   reg-imm   PID(dst) <- PID(src)
    LEA             PID(dst) <- PID(base register)
    ADD   reg-reg   if one source PID is zero, take the other
    ADD   reg-imm   PID(dst) <- PID(src)
    SUB             PID(dst) <- PID(first source)  (the minuend)
    LD              PID(dst) <- PID(Mem[EA])       (alias subsystem)
    ST              PID(Mem[EA]) <- PID(src)       (alias subsystem)
    MOVI            PID(dst) <- PID(-1)            (wild-pointer sentinel)
    otherwise       PID(result) <- 0
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..microop.uops import AddrMode, AluOp, Uop, UopKind


class Propagation(enum.Enum):
    """Capability propagation policies a rule can select."""

    COPY_SRC = "copy-src"            # dst <- PID(src0)
    NONZERO_SRC = "nonzero-src"      # dst <- the non-zero source PID
    FIRST_SRC = "first-src"          # dst <- PID(first source) always
    BASE_REG = "base-reg"            # dst <- PID(addressing base register)
    WILD = "wild"                    # dst <- PID(-1)
    ZERO = "zero"                    # dst <- 0
    FROM_MEMORY = "from-memory"      # dst <- PID(Mem[EA]) via alias subsystem
    TO_MEMORY = "to-memory"          # PID(Mem[EA]) <- PID(src)


#: Sentinel returned by :meth:`SpeculativePointerTracker.apply` for memory
#: policies, which the machine resolves through the alias subsystem.
MEMORY_POLICY = object()


@dataclass(frozen=True)
class Rule:
    """One peephole rule: a micro-op pattern and its propagation policy."""

    name: str
    kind: UopKind
    propagation: Propagation
    alu: Optional[AluOp] = None           # None = any ALU sub-op
    addr_mode: Optional[AddrMode] = None  # None = any addressing mode
    example: str = ""                     # source-level illustration (Table I)

    def matches(self, uop: Uop) -> bool:
        if uop.kind is not self.kind:
            return False
        if self.alu is not None and uop.alu is not self.alu:
            return False
        if self.addr_mode is not None and uop.addr_mode is not self.addr_mode:
            return False
        return True

    @property
    def key(self) -> Tuple:
        return (self.kind, self.alu, self.addr_mode)


class RuleDatabase:
    """An ordered, configurable collection of pointer-tracking rules.

    Lookup returns the first matching rule; a ``default_propagation`` of
    ``ZERO`` implements Table I's "all other operations" row.
    """

    def __init__(self, rules: Sequence[Rule] = ()) -> None:
        self._rules: List[Rule] = list(rules)
        self._index: Dict[Tuple, Rule] = {r.key: r for r in self._rules}
        self.default_propagation = Propagation.ZERO
        #: Set by the checker workflow: rules added after initial seeding.
        self.field_updates: List[str] = []
        # Memoized lookup results per concrete uop shape (hot path).
        self._memo: Dict[Tuple, Optional[Rule]] = {}
        #: Bumped on every add/remove; stamps the per-uop lookup memo and
        #: compiled superblocks, so a rule update invalidates both.
        self.version = 0

    # -- construction / configurability -----------------------------------------

    @classmethod
    def table1(cls) -> "RuleDatabase":
        """The full automatically-constructed database of paper Table I."""
        db = cls(_SEED_RULES)
        for rule in _LEARNED_RULES:
            db.add(rule, field_update=False)
        return db

    @classmethod
    def seed(cls) -> "RuleDatabase":
        """The small expert-written seed the auto-construction starts from.

        Section V-A: "The rule database is first initialized to a small set
        of rules by an expert, and is then validated and incrementally
        updated in an offline profiling step."
        """
        return cls(_SEED_RULES)

    def add(self, rule: Rule, field_update: bool = True) -> None:
        """Install a rule (the checker's manual-intervention path)."""
        if rule.key in self._index:
            raise ValueError(f"rule for {rule.key} already present: "
                             f"{self._index[rule.key].name}")
        self._rules.append(rule)
        self._index[rule.key] = rule
        self._memo.clear()
        self.version += 1
        if field_update:
            self.field_updates.append(rule.name)

    def remove(self, name: str) -> None:
        """Drop a rule by name (used by ablations)."""
        for i, rule in enumerate(self._rules):
            if rule.name == name:
                del self._rules[i]
                del self._index[rule.key]
                self._memo.clear()
                self.version += 1
                return
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    # -- matching ---------------------------------------------------------------------

    def lookup(self, uop: Uop) -> Optional[Rule]:
        """The first rule matching ``uop``, or None (default policy).

        The result is memoized directly on the (static, per-site) uop,
        stamped with :attr:`version` so learned/dropped rules invalidate
        it; the shape-keyed ``_memo`` backs uops seen for the first time.
        """
        memo = uop._rule
        if memo is not None and memo[0] is self and memo[1] == self.version:
            return memo[2]
        key = (uop.kind, uop.alu, uop.addr_mode)
        try:
            found = self._memo[key]
        except KeyError:
            found = self._index.get(key)
            if found is None:
                for rule in self._rules:
                    if rule.matches(uop):
                        found = rule
                        break
            self._memo[key] = found
        uop._rule = (self, self.version, found)
        return found

    # -- reporting (Table I regeneration) ----------------------------------------------

    def to_rows(self) -> List[Dict[str, str]]:
        """Rows in the shape of paper Table I."""
        rows = []
        for rule in self._rules:
            rows.append({
                "uop": rule.kind.value if rule.alu is None
                       else rule.alu.value.upper(),
                "addr_mode": rule.addr_mode.value if rule.addr_mode else "any",
                "propagation": rule.propagation.value,
                "example": rule.example,
                "learned": rule.name in self.field_updates
                           or rule.name in _LEARNED_NAMES,
            })
        rows.append({
            "uop": "all other operations", "addr_mode": "-",
            "propagation": self.default_propagation.value, "example": "",
            "learned": False,
        })
        return rows


# The expert seed: pointer copies and pointer arithmetic via ADD.
_SEED_RULES: Tuple[Rule, ...] = (
    Rule("mov-rr", UopKind.MOV, Propagation.COPY_SRC,
         addr_mode=AddrMode.REG_REG, example="ptr1 = ptr2;"),
    Rule("add-rr", UopKind.ALU, Propagation.NONZERO_SRC, alu=AluOp.ADD,
         addr_mode=AddrMode.REG_REG, example="ptr2 = ptr1 + offset;"),
    Rule("add-ri", UopKind.ALU, Propagation.FIRST_SRC, alu=AluOp.ADD,
         addr_mode=AddrMode.REG_IMM, example="ptr2 = ptr1 + 4;"),
)

# Rules the offline checker profiling step added (Section V-A's process,
# run over SPEC/PARSEC/RIPE/ASan-suite/How2Heap in the paper).
_LEARNED_RULES: Tuple[Rule, ...] = (
    Rule("and-rr", UopKind.ALU, Propagation.NONZERO_SRC, alu=AluOp.AND,
         addr_mode=AddrMode.REG_REG,
         example="mask = 0xffff0000; ptr2 = ptr1 & mask;"),
    Rule("and-ri", UopKind.ALU, Propagation.FIRST_SRC, alu=AluOp.AND,
         addr_mode=AddrMode.REG_IMM, example="ptr2 = ptr1 & 0xffff0000;"),
    Rule("lea", UopKind.LEA, Propagation.BASE_REG,
         example="ptr = &a[50];"),
    Rule("add-rm", UopKind.ALU, Propagation.NONZERO_SRC, alu=AluOp.ADD,
         addr_mode=AddrMode.REG_MEM, example="ptr2 = ptr1 + *count;"),
    Rule("sub-rr", UopKind.ALU, Propagation.FIRST_SRC, alu=AluOp.SUB,
         addr_mode=AddrMode.REG_REG, example="ptr2 = ptr1 - offset;"),
    Rule("sub-ri", UopKind.ALU, Propagation.FIRST_SRC, alu=AluOp.SUB,
         addr_mode=AddrMode.REG_IMM, example="ptr2 = ptr1 - 4;"),
    Rule("ld", UopKind.LD, Propagation.FROM_MEMORY,
         example="int *ptr2 = ptr1[100];"),
    Rule("st", UopKind.ST, Propagation.TO_MEMORY,
         example="*ptr1 = ptr2;"),
    Rule("movi", UopKind.LIMM, Propagation.WILD,
         example="int *p = (int *)0x7fff1000;"),
)

_LEARNED_NAMES = {rule.name for rule in _LEARNED_RULES}
