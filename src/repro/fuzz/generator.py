"""Grammar-based mini-x86 program generator for the fuzzing subsystem.

This is the promoted, extended form of the seeded generator that used to
live inside ``tests/test_differential.py``.  Programs are built as three
segments —

* a **prologue** that seeds every data register and allocates one heap
  object per pointer register,
* a **body** of independent *statements* drawn from weighted grammar
  phases (arithmetic, heap loads/stores, pointer walks, ``lea``/
  register-memory folds, counted loops, stack spills, indirect branches,
  free/re-malloc churn, ``realloc`` growth), and
* an **epilogue** that releases the first allocation and, for violation
  profiles, appends a payload that must trip exactly one Table I /
  capability-table check.

Every body statement is *self-contained*: it defines any label it jumps
to and leaves every pointer register owning an allocation at least as
large as the prologue's.  That invariant is what makes the shrinker
sound — deleting any subset of statements yields a program with the
same well-behavedness and the same expected violation set.

The grammar deliberately exercises every Table I rule class: ``mov-rr``,
``add-rr``/``add-ri``, ``sub-rr``/``sub-ri``, ``and-rr``/``and-ri``,
``lea``, ``add-rm`` (register-memory fold), ``ld``, ``st`` and ``movi``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..heap import heap_library_asm

#: Registers the generator uses for data (avoids rsp/rbp and ASan's r13-15).
DATA_REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "r8", "r9", "r10")
#: Registers that own a live heap allocation for the whole run.
PTR_REGS = ("r11", "r12")

#: Default per-oracle instruction budget (matches the tier-1 sweep).
DEFAULT_BUDGET = 20_000

#: Profile name for programs that must flag nothing anywhere.
WELL_BEHAVED = "well-behaved"

#: One profile per ``ViolationKind`` value; each appends an epilogue
#: payload whose expected violation class is the profile name itself.
VIOLATION_PROFILES = (
    "out-of-bounds",
    "use-after-free",
    "double-free",
    "invalid-free",
    "wild-dereference",
    "heap-spray",
    "permission",
)

PROFILES = (WELL_BEHAVED,) + VIOLATION_PROFILES

#: Host-escape name the permission profile calls; oracles install a hook
#: under this name that drops WRITE from the capability named by rdi.
PROTECT_HOOK = "fuzz_protect"

#: An offset no realloc/churn sequence can grow an allocation past, so
#: the out-of-bounds payload stays out of bounds for every body subset.
_FAR_OOB_OFFSET = 1 << 16

#: A constant address outside every tracked region (globals live near
#: 0x600000, the heap at 0x10000000): dereferencing it is always wild.
_WILD_ADDRESS = 0x7FFF_2000

#: One byte past the capGen resource-exhaustion limit (1 GiB default).
_SPRAY_BYTES = 0x8000_0000


@dataclass(frozen=True)
class FuzzProgram:
    """One generated program, kept in shrinkable statement form."""

    seed: int
    profile: str
    prologue: Tuple[str, ...]
    body: Tuple[Tuple[str, ...], ...]
    epilogue: Tuple[str, ...]
    #: ``ViolationKind`` values the detection variant must observe.
    expected_kinds: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        if self.profile == WELL_BEHAVED:
            return f"fuzz{self.seed}"
        return f"fuzz{self.seed}-{self.profile}"

    @property
    def uses_protect_hook(self) -> bool:
        return any(PROTECT_HOOK in line for line in self.epilogue)

    @property
    def statement_count(self) -> int:
        return len(self.body)

    @property
    def source(self) -> str:
        lines: List[str] = list(self.prologue)
        for statement in self.body:
            lines.extend(statement)
        lines.extend(self.epilogue)
        return "\n".join(lines) + "\n" + heap_library_asm()

    def source_digest(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()

    def with_body(self,
                  body: Sequence[Sequence[str]]) -> "FuzzProgram":
        """The same program with a subset of body statements (shrinking)."""
        return replace(self, body=tuple(tuple(s) for s in body))


def profile_for_seed(seed: int) -> str:
    """Deterministic profile rotation: three well-behaved seeds, then one
    violating seed cycling through every violation class, so any
    contiguous seed range covers the whole Table I + violation space."""
    if seed % 4 == 3:
        return VIOLATION_PROFILES[(seed // 4) % len(VIOLATION_PROFILES)]
    return WELL_BEHAVED


def _payload(profile: str, ptr: str) -> Tuple[Tuple[str, ...],
                                              Tuple[str, ...]]:
    """Epilogue payload lines and expected violation kinds for a
    violation profile.  ``ptr`` still owns a live allocation here."""
    if profile == "out-of-bounds":
        return ((f"    mov [{ptr} + {_FAR_OOB_OFFSET}], rax",),
                ("out-of-bounds",))
    if profile == "use-after-free":
        return ((f"    mov rdi, {ptr}",
                 "    call free",
                 f"    mov rax, [{ptr}]"),
                ("use-after-free",))
    if profile == "double-free":
        return ((f"    mov rdi, {ptr}",
                 "    call free",
                 f"    mov rdi, {ptr}",
                 "    call free"),
                ("double-free",))
    if profile == "invalid-free":
        return ((f"    lea rdi, [{ptr} + 8]",
                 "    call free"),
                ("invalid-free",))
    if profile == "wild-dereference":
        return ((f"    movabs rsi, {_WILD_ADDRESS:#x}",
                 "    mov rax, [rsi]"),
                ("wild-dereference",))
    if profile == "heap-spray":
        return ((f"    mov rdi, {_SPRAY_BYTES:#x}",
                 "    call malloc"),
                ("heap-spray",))
    if profile == "permission":
        return ((f"    mov rdi, {ptr}",
                 f"    hostop {PROTECT_HOOK}",
                 f"    mov [{ptr}], rax"),
                ("permission",))
    raise ValueError(f"unknown violation profile {profile!r}")


class _Grammar:
    """Weighted statement phases.  Each phase returns one statement — a
    tuple of assembly lines that is safe to include or delete
    independently of every other statement."""

    def __init__(self, rng: random.Random, seed: int,
                 sizes: Dict[str, int]) -> None:
        self.rng = rng
        self.seed = seed
        #: Immutable floor sizes: offsets are always chosen against the
        #: prologue allocation, which no churn/realloc ever shrinks below.
        self.sizes = sizes

    def _data(self) -> str:
        return self.rng.choice(DATA_REGS)

    def _ptr(self) -> str:
        return self.rng.choice(PTR_REGS)

    def _offset(self, ptr: str) -> int:
        return self.rng.randrange(self.sizes[ptr] // 8) * 8

    # -- phases ---------------------------------------------------------------

    def alu_rr(self, i: int) -> Tuple[str, ...]:
        op = self.rng.choice(["add", "sub", "and", "or", "xor", "imul"])
        return (f"    {op} {self._data()}, {self._data()}",)

    def alu_ri(self, i: int) -> Tuple[str, ...]:
        op = self.rng.choice(["add", "sub", "and"])
        if op == "and":
            imm = self.rng.choice([-1, -8, 0xFFFF, 0xFF])
        else:
            imm = self.rng.randrange(1 << 12)
        return (f"    {op} {self._data()}, {imm}",)

    def movi(self, i: int) -> Tuple[str, ...]:
        return (f"    mov {self._data()}, {self.rng.randrange(1 << 20)}",)

    def mov_rr(self, i: int) -> Tuple[str, ...]:
        return (f"    mov {self._data()}, {self._data()}",)

    def load(self, i: int) -> Tuple[str, ...]:
        ptr = self._ptr()
        return (f"    mov {self._data()}, [{ptr} + {self._offset(ptr)}]",)

    def store(self, i: int) -> Tuple[str, ...]:
        ptr = self._ptr()
        return (f"    mov [{ptr} + {self._offset(ptr)}], {self._data()}",)

    def lea_walk(self, i: int) -> Tuple[str, ...]:
        ptr = self._ptr()
        return (f"    lea rsi, [{ptr} + {self._offset(ptr)}]",
                "    mov rdx, [rsi]")

    def add_rm(self, i: int) -> Tuple[str, ...]:
        ptr = self._ptr()
        reg = self.rng.choice([r for r in DATA_REGS if r != "rsi"])
        return (f"    add {reg}, [{ptr} + {self._offset(ptr)}]",)

    def ptr_arith(self, i: int) -> Tuple[str, ...]:
        ptr = self._ptr()
        offset = self._offset(ptr)
        return (f"    mov rsi, {ptr}",
                f"    add rsi, {offset}",
                f"    mov {self.rng.choice(('rdx', 'r8', 'r9'))}, [rsi]")

    def ptr_copy(self, i: int) -> Tuple[str, ...]:
        return (f"    mov rsi, {self._ptr()}",
                "    mov rdx, [rsi]")

    def loop(self, i: int) -> Tuple[str, ...]:
        counter = self._data()
        body = self.rng.choice([r for r in DATA_REGS if r != counter])
        count = self.rng.randint(2, 6)
        label = f"fz{self.seed}_loop{i}"
        return (f"    mov {counter}, 0",
                f"{label}:",
                f"    add {body}, 3",
                f"    add {counter}, 1",
                f"    cmp {counter}, {count}",
                f"    jl {label}")

    def spill(self, i: int) -> Tuple[str, ...]:
        return (f"    push {self._data()}",
                f"    pop {self._data()}")

    def indirect(self, i: int) -> Tuple[str, ...]:
        # The landing pad clears the register: a code address left in
        # architectural state would legitimately differ under the static
        # binary translator (inserted capchk shifts the code layout).
        reg = self._data()
        label = f"fz{self.seed}_ind{i}"
        return (f"    mov {reg}, {label}",
                f"    jmp {reg}",
                f"{label}:",
                f"    mov {reg}, 0")

    def churn(self, i: int) -> Tuple[str, ...]:
        """Free and immediately re-allocate one pointer register.  The
        replacement is never smaller than the prologue object, so every
        other statement's offsets stay in bounds."""
        ptr = self._ptr()
        size = self.sizes[ptr] + self.rng.choice([0, 8, 32])
        return (f"    mov rdi, {ptr}",
                "    call free",
                f"    mov rdi, {size}",
                "    call malloc",
                f"    mov {ptr}, rax")

    def realloc(self, i: int) -> Tuple[str, ...]:
        ptr = self._ptr()
        size = self.sizes[ptr] + self.rng.choice([8, 16, 64])
        return (f"    mov rdi, {ptr}",
                f"    mov rsi, {size}",
                "    call realloc",
                f"    mov {ptr}, rax")


#: (phase method name, weight).  Weights bias toward the memory-safety
#: interesting phases while keeping every Table I rule class reachable.
_PHASES = (
    ("alu_rr", 3),
    ("alu_ri", 2),
    ("movi", 2),
    ("mov_rr", 2),
    ("load", 3),
    ("store", 3),
    ("lea_walk", 2),
    ("add_rm", 1),
    ("ptr_arith", 2),
    ("ptr_copy", 1),
    ("loop", 2),
    ("spill", 2),
    ("indirect", 1),
    ("churn", 1),
    ("realloc", 1),
)


def generate(seed: int, profile: Optional[str] = None) -> FuzzProgram:
    """Deterministically generate one program.

    ``profile`` defaults to :func:`profile_for_seed`'s rotation.  The
    same ``(seed, profile)`` pair always yields the same program, on any
    platform (the RNG is seeded with a string, which Python hashes with
    SHA-512 irrespective of ``PYTHONHASHSEED``).
    """
    if profile is None:
        profile = profile_for_seed(seed)
    if profile not in PROFILES:
        raise ValueError(f"unknown fuzz profile {profile!r}")
    rng = random.Random(f"repro.fuzz/{seed}/{profile}")

    prologue: List[str] = ["main:"]
    for reg in DATA_REGS:
        prologue.append(f"    mov {reg}, {rng.randrange(1 << 16)}")
    sizes: Dict[str, int] = {}
    for reg in PTR_REGS:
        size = rng.choice([32, 64, 128])
        sizes[reg] = size
        prologue.append(f"    mov rdi, {size}")
        prologue.append("    call malloc")
        prologue.append(f"    mov {reg}, rax")

    grammar = _Grammar(rng, seed, sizes)
    names = [name for name, weight in _PHASES for _ in range(weight)]
    body: List[Tuple[str, ...]] = []
    for i in range(rng.randint(6, 32)):
        body.append(getattr(grammar, rng.choice(names))(i))

    epilogue: List[str] = [f"    mov rdi, {PTR_REGS[0]}",
                           "    call free",
                           f"    mov {PTR_REGS[0]}, 0"]
    expected: Tuple[str, ...] = ()
    if profile != WELL_BEHAVED:
        payload, expected = _payload(profile, PTR_REGS[1])
        epilogue.extend(payload)
    epilogue.append("    halt")

    return FuzzProgram(seed=seed, profile=profile,
                       prologue=tuple(prologue), body=tuple(body),
                       epilogue=tuple(epilogue), expected_kinds=expected)
