"""Macro (CISC) instruction set of the mini-x86 machine.

This is the subset of x86-64 that the CHEx86 evaluation workloads and
exploit suites need: data movement, address generation, the ALU operations
appearing in the paper's Table I rule database, compares and conditional
branches, calls/returns, and stack pushes/pops.

Each macro instruction later expands into one or more RISC-style micro-ops
at the decoder (``repro.microop.decoder``); instructions with a memory
operand in a register-memory addressing mode expand into load/op/store
micro-op sequences exactly as the paper describes for the binary-translation
and microcode instrumentation points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .operands import Imm, LabelRef, Mem, Operand
from .registers import Reg


class Op(enum.Enum):
    """Macro instruction mnemonics."""

    #: Hash by identity (members are singletons compared by identity): a
    #: C-level hash in place of ``Enum.__hash__`` for the assembler's and
    #: decoder's mnemonic-set tests.
    __hash__ = object.__hash__

    MOV = "mov"
    MOVABS = "movabs"  # mov reg, imm64 (constant-address idiom, Table I MOVI)
    LEA = "lea"
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMUL = "imul"
    SHL = "shl"
    SHR = "shr"
    INC = "inc"
    DEC = "dec"
    NEG = "neg"
    NOT = "not"
    CMP = "cmp"
    TEST = "test"
    JMP = "jmp"
    JE = "je"
    JNE = "jne"
    JL = "jl"
    JLE = "jle"
    JG = "jg"
    JGE = "jge"
    JB = "jb"
    JAE = "jae"
    CALL = "call"
    RET = "ret"
    PUSH = "push"
    POP = "pop"
    NOP = "nop"
    HALT = "halt"
    #: Host escape: runs a named host routine (used to implement the guts of
    #: the heap-management library routines on the simulated heap).
    HOSTOP = "hostop"
    #: Secure ISA extension: explicit capability check of a memory operand
    #: (the binary-translation variant's "special instruction", §IV-C).
    #: Optional second Imm operand: 1 = the guarded access is a write.
    CAPCHK = "capchk"


#: Conditional branch mnemonics and the flag predicates they test.
COND_BRANCHES = {
    Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.JB, Op.JAE,
}

#: Mnemonics that write the flags register.
FLAG_WRITERS = {
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL, Op.SHL, Op.SHR,
    Op.INC, Op.DEC, Op.NEG, Op.CMP, Op.TEST,
}

#: Two-operand ALU mnemonics (dst <- dst op src).
BINARY_ALU = {Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL, Op.SHL, Op.SHR}

#: One-operand ALU mnemonics.
UNARY_ALU = {Op.INC, Op.DEC, Op.NEG, Op.NOT}

#: All control-transfer mnemonics.
CONTROL_FLOW = COND_BRANCHES | {Op.JMP, Op.CALL, Op.RET}

#: Instruction slot size in bytes: every macro instruction occupies a fixed
#: 4-byte slot so instruction addresses are dense and predictable.  (Real x86
#: is variable length; the fixed slot simplifies BTB/predictor indexing
#: without changing any of the behaviours under study.)
INSTR_SLOT = 4


@dataclass(frozen=True, slots=True)
class Instr:
    """A single macro instruction.

    ``operands`` follow Intel order: destination first.  ``label`` is the
    optional symbolic name attached to this instruction's address.
    """

    op: Op
    operands: Tuple[Operand, ...] = ()
    label: Optional[str] = None
    #: Free-form annotation (used by tests/workloads to mark intent).
    comment: str = ""

    def __post_init__(self) -> None:
        # Validity depends only on the mnemonic and the operand types, so
        # each shape is checked once; a bad shape raises every time.
        shape = (self.op, *map(type, self.operands))
        if shape not in _VALID_SHAPES:
            _validate(self)
            _VALID_SHAPES.add(shape)

    @property
    def mem_operand(self) -> Optional[Mem]:
        """The memory operand, if this instruction has one."""
        for operand in self.operands:
            if isinstance(operand, Mem):
                return operand
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        text = self.op.value
        if self.operands:
            text += " " + ", ".join(str(o) for o in self.operands)
        if self.label:
            text = f"{self.label}: {text}"
        return text


#: ``(op, *operand types)`` shapes that passed :func:`_validate`.
_VALID_SHAPES: set = set()


def _validate(instr: Instr) -> None:
    """Reject operand shapes the machine does not implement."""
    op, operands = instr.op, instr.operands
    arity = len(operands)
    if op in (Op.NOP, Op.HALT, Op.RET):
        if arity != 0:
            raise ValueError(f"{op.value} takes no operands")
    elif op in (Op.JMP, Op.CALL) or op in COND_BRANCHES:
        if arity != 1 or not isinstance(operands[0], (LabelRef, Imm, Reg)):
            raise ValueError(f"{op.value} takes one label/imm/reg target")
    elif op in (Op.PUSH, Op.POP):
        if arity != 1 or not isinstance(operands[0], Reg):
            raise ValueError(f"{op.value} takes one register operand")
    elif op in UNARY_ALU:
        if arity != 1 or not isinstance(operands[0], (Reg, Mem)):
            raise ValueError(f"{op.value} takes one reg/mem operand")
    elif op is Op.LEA:
        if arity != 2 or not isinstance(operands[0], Reg) or not isinstance(operands[1], Mem):
            raise ValueError("lea takes reg, mem")
    elif op is Op.MOVABS:
        if arity != 2 or not isinstance(operands[0], Reg) or not isinstance(operands[1], (Imm, LabelRef)):
            raise ValueError("movabs takes reg, imm")
    elif op is Op.HOSTOP:
        if arity != 1 or not isinstance(operands[0], LabelRef):
            raise ValueError("hostop takes one symbolic host-routine name")
    elif op is Op.CAPCHK:
        if arity not in (1, 2) or not isinstance(operands[0], Mem):
            raise ValueError("capchk takes a memory operand [, write flag]")
        if arity == 2 and not isinstance(operands[1], Imm):
            raise ValueError("capchk write flag must be an immediate")
    elif op in BINARY_ALU or op in (Op.MOV, Op.CMP, Op.TEST):
        if arity != 2:
            raise ValueError(f"{op.value} takes two operands")
        dst, src = operands
        if isinstance(dst, Mem) and isinstance(src, Mem):
            raise ValueError(f"{op.value}: mem-to-mem form does not exist on x86")
        if isinstance(dst, (Imm, LabelRef)) and op is not Op.CMP and op is not Op.TEST:
            raise ValueError(f"{op.value}: destination cannot be an immediate")
    else:  # pragma: no cover - all mnemonics handled above
        raise ValueError(f"unhandled mnemonic {op}")


# ---------------------------------------------------------------------------
# Convenience constructors (keep workload/exploit builders readable).
# ---------------------------------------------------------------------------

def mov(dst: Operand, src: Operand, **kw) -> Instr:
    return Instr(Op.MOV, (dst, src), **kw)


def movabs(dst: Reg, value: int, **kw) -> Instr:
    return Instr(Op.MOVABS, (dst, Imm(value)), **kw)


def lea(dst: Reg, mem: Mem, **kw) -> Instr:
    return Instr(Op.LEA, (dst, mem), **kw)


def add(dst: Operand, src: Operand, **kw) -> Instr:
    return Instr(Op.ADD, (dst, src), **kw)


def sub(dst: Operand, src: Operand, **kw) -> Instr:
    return Instr(Op.SUB, (dst, src), **kw)


def and_(dst: Operand, src: Operand, **kw) -> Instr:
    return Instr(Op.AND, (dst, src), **kw)


def cmp(a: Operand, b: Operand, **kw) -> Instr:
    return Instr(Op.CMP, (a, b), **kw)


def jmp(target: str, **kw) -> Instr:
    return Instr(Op.JMP, (LabelRef(target),), **kw)


def call(target: str, **kw) -> Instr:
    return Instr(Op.CALL, (LabelRef(target),), **kw)


def ret(**kw) -> Instr:
    return Instr(Op.RET, (), **kw)


def push(reg: Reg, **kw) -> Instr:
    return Instr(Op.PUSH, (reg,), **kw)


def pop(reg: Reg, **kw) -> Instr:
    return Instr(Op.POP, (reg,), **kw)


def halt(**kw) -> Instr:
    return Instr(Op.HALT, (), **kw)


def nop(**kw) -> Instr:
    return Instr(Op.NOP, (), **kw)
