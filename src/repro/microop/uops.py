"""RISC-style micro-ops: the level at which CHEx86 tracks and instruments.

Modern x86 front-ends translate each macro instruction into one or more
micro-ops.  CHEx86 piggybacks on this translation: the speculative pointer
tracker applies its Table I rules to the micro-op stream, and the microcode
customization unit injects capability micro-ops (``capGen.Begin/End``,
``capCheck``, ``capFree.Begin/End``) into it.

Micro-op operands use an extended register space: the sixteen architectural
registers plus two microarchitectural temporaries (``T0``/``T1``) used by
load-op-store expansions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..isa.operands import Mem
from ..isa.registers import NUM_REGS, Reg

#: Microarchitectural temporary registers (not architecturally visible).
T0 = NUM_REGS
T1 = NUM_REGS + 1

#: Total register identifiers a micro-op may name (arch regs + temps).
NUM_UREGS = NUM_REGS + 2

#: Subroutine linkage of a jump (``Uop.link``): a call's jump pushes the
#: return-address stack, a ret's indirect jump pops it.
LINK_CALL = 1
LINK_RETURN = 2


def ureg_name(ureg: int) -> str:
    """Human-readable name for an extended register index."""
    if ureg < NUM_REGS:
        return "%" + Reg(ureg).name.lower()
    return f"%t{ureg - NUM_REGS}"


class UopKind(enum.Enum):
    """Micro-op opcodes."""

    #: Members are singletons compared by identity, so they hash by
    #: identity too: a C-level hash in place of ``Enum.__hash__``, a
    #: Python call, on the decode, dispatch and rule-lookup paths.
    __hash__ = object.__hash__

    LIMM = "limm"          # dst <- imm                      (Table I: MOVI)
    MOV = "mov"            # dst <- src                      (Table I: MOV)
    ALU = "alu"            # dst <- src0 op src1             (Table I: ADD/SUB/AND/...)
    LEA = "lea"            # dst <- effective address        (Table I: LEA)
    LD = "ld"              # dst <- Mem[EA]                  (Table I: LD)
    ST = "st"              # Mem[EA] <- src (or imm)         (Table I: ST)
    BR = "br"              # conditional branch
    JMP = "jmp"            # unconditional direct jump
    JMP_IND = "jmp_ind"    # indirect jump (ret target)
    HOSTOP = "hostop"      # host escape (heap library internals)
    NOP = "nop"
    HALT = "halt"
    # --- CHEx86 capability micro-ops (injected by the MCU) -----------------
    CAPGEN_BEGIN = "capgen.begin"
    CAPGEN_END = "capgen.end"
    CAPCHECK = "capcheck"
    CAPFREE_BEGIN = "capfree.begin"
    CAPFREE_END = "capfree.end"


class AluOp(enum.Enum):
    """ALU sub-operations; the pointer-tracking rules key on these."""

    __hash__ = object.__hash__  # by identity, as UopKind

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MUL = "mul"
    SHL = "shl"
    SHR = "shr"
    CMP = "cmp"    # flags only
    TEST = "test"  # flags only
    NEG = "neg"
    NOT = "not"


class AddrMode(enum.Enum):
    """Addressing mode of the parent macro instruction (Table I key)."""

    __hash__ = object.__hash__  # by identity, as UopKind

    REG_REG = "reg-reg"
    REG_IMM = "reg-imm"
    REG_MEM = "reg-mem"
    NONE = "none"


#: Micro-op kinds that access data memory.
MEMORY_KINDS = {UopKind.LD, UopKind.ST}

#: Capability micro-ops — only ever created by the microcode engine; user
#: code has no encoding for them (they live outside addressable memory).
CAPABILITY_KINDS = {
    UopKind.CAPGEN_BEGIN,
    UopKind.CAPGEN_END,
    UopKind.CAPCHECK,
    UopKind.CAPFREE_BEGIN,
    UopKind.CAPFREE_END,
}


@dataclass(slots=True)
class Uop:
    """One micro-op.

    Mutable on purpose: an injected ``capCheck`` template is stamped with
    its PID per dynamic instance, and the rule database memoizes its
    lookup on the uop.
    """

    kind: UopKind
    alu: Optional[AluOp] = None
    dst: Optional[int] = None               # extended register index
    srcs: Tuple[int, ...] = ()              # extended register indices
    imm: Optional[int] = None
    mem: Optional[Mem] = None               # for LD/ST/LEA address generation
    target: Optional[int] = None            # for JMP/BR: taken target address
    cond: Optional[str] = None              # for BR: predicate mnemonic
    host_name: Optional[str] = None         # for HOSTOP
    addr_mode: AddrMode = AddrMode.NONE
    writes_flags: bool = False
    reads_flags: bool = False
    #: True when the MCU injected this uop (not part of native translation).
    injected: bool = False
    #: PID the MCU attached (capability uops) — filled at injection time.
    pid: int = 0
    #: For CAPCHECK: whether the guarded access is a write.
    check_write: bool = False
    #: ``LINK_CALL`` on a call's jump, direct (``JMP``) or through a
    #: register (``JMP_IND``); ``LINK_RETURN`` on a ret's ``JMP_IND``;
    #: 0 on every other jump.
    link: int = 0
    #: Memoized :meth:`reg_reads` result.  Operand fields are immutable
    #: once decoded (only ``kind``/``pid`` are rewritten in place), so the
    #: read set of a static uop never changes.
    _reads: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False)
    #: Per-uop rule-lookup memo used by ``repro.core.rules``: a
    #: ``(database, version, rule)`` triple, invalidated when the database
    #: learns or drops a rule (or the uop meets a different database).
    _rule: Optional[Tuple[object, int, object]] = field(
        default=None, repr=False, compare=False)

    def reg_reads(self) -> Tuple[int, ...]:
        """All extended registers this uop reads (incl. address registers)."""
        reads = self._reads
        if reads is None:
            regs = list(self.srcs)
            mem = self.mem
            if mem is not None:
                if mem.base is not None:
                    regs.append(int(mem.base))
                if mem.index is not None:
                    regs.append(int(mem.index))
            reads = tuple(regs)
            self._reads = reads
        return reads

    @property
    def is_mem(self) -> bool:
        return self.kind in MEMORY_KINDS

    @property
    def is_capability(self) -> bool:
        return self.kind in CAPABILITY_KINDS

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.kind.value]
        if self.alu is not None:
            parts[0] = f"{self.kind.value}.{self.alu.value}"
        if self.dst is not None:
            parts.append(ureg_name(self.dst))
        parts.extend(ureg_name(s) for s in self.srcs)
        if self.imm is not None:
            parts.append(f"${self.imm:#x}")
        if self.mem is not None:
            parts.append(str(self.mem))
        if self.pid:
            parts.append(f"pid={self.pid}")
        return " ".join(parts)
