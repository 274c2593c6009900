"""CISC-to-RISC translation: macro instructions into micro-op sequences.

Mirrors the x86 front-end structure the paper draws in Figure 2: simple
instructions go through 1:1 decoders, moderately complex ones (load-op,
load-op-store, push/pop, call/ret) through the 1:4 complex decoder, and
anything longer is served from the microcode ROM (MSROM).  The decoder
returns which path produced each translation so the front-end throughput
model matches that structure (an MSROM translation occupies a whole fetch
group).

The translations themselves are the standard textbook ones, e.g.::

    add  rax, [rbx+8]   ->  ld t0, [rbx+8] ; add rax, rax, t0
    add  [rbx+8], rax   ->  ld t0, [rbx+8] ; add t0, t0, rax ; st t0, [rbx+8]
    call f              ->  sub rsp, 8 ; st [rsp] <- retaddr ; jmp f
    ret                 ->  ld t0, [rsp] ; add rsp, 8 ; jmp_ind t0
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

from ..isa.instructions import (
    BINARY_ALU,
    COND_BRANCHES,
    INSTR_SLOT,
    UNARY_ALU,
    Instr,
    Op,
)
from ..isa.operands import Imm, LabelRef, Mem
from ..isa.registers import Reg
from .uops import AddrMode, AluOp, T0, Uop, UopKind


class DecodePath(enum.Enum):
    """Which decoder produced a translation (Figure 2 front-end)."""

    SIMPLE = "1:1"
    COMPLEX = "1:4"
    MSROM = "msrom"


_ALU_MAP = {
    Op.ADD: AluOp.ADD,
    Op.SUB: AluOp.SUB,
    Op.AND: AluOp.AND,
    Op.OR: AluOp.OR,
    Op.XOR: AluOp.XOR,
    Op.IMUL: AluOp.MUL,
    Op.SHL: AluOp.SHL,
    Op.SHR: AluOp.SHR,
}

_UNARY_MAP = {
    Op.INC: AluOp.ADD,
    Op.DEC: AluOp.SUB,
    Op.NEG: AluOp.NEG,
    Op.NOT: AluOp.NOT,
}

_RSP = int(Reg.RSP)


class Decoder:
    """Translates macro instructions to micro-ops, with a translation cache.

    The cache is keyed by (program id, instruction index): decode of a given
    static instruction is deterministic, so hot loops pay decode once — this
    also keeps the Python simulator fast.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, int], Tuple[List[Uop], DecodePath]] = {}

    def decode(self, instr: Instr, address: int, macro_index: int,
               program_key: int = 0) -> Tuple[List[Uop], DecodePath]:
        """Decode one macro instruction.

        Returns the cached translation directly: native micro-ops are
        immutable once decoded (only MCU-*injected* micro-ops, which never
        come from here, carry per-instance state like PIDs), so callers
        must not mutate them.
        """
        key = (program_key, macro_index)
        cached = self._cache.get(key)
        if cached is None:
            uops = _translate(instr, address)
            cached = (uops, _path_for(len(uops)))
            self._cache[key] = cached
        return cached


def _path_for(n_uops: int) -> DecodePath:
    if n_uops <= 1:
        return DecodePath.SIMPLE
    if n_uops <= 4:
        return DecodePath.COMPLEX
    return DecodePath.MSROM


def _translate(instr: Instr, address: int) -> List[Uop]:
    op = instr.op
    ops = instr.operands

    if op is Op.NOP:
        return [Uop(UopKind.NOP)]
    if op is Op.HALT:
        return [Uop(UopKind.HALT)]
    if op is Op.HOSTOP:
        assert isinstance(ops[0], LabelRef)
        return [Uop(UopKind.HOSTOP, host_name=ops[0].name)]
    if op is Op.CAPCHK:
        mem = ops[0]
        assert isinstance(mem, Mem)
        write = len(ops) > 1 and isinstance(ops[1], Imm) and bool(ops[1].value)
        # A native (non-injected) capability check: the machine resolves
        # its PID from the pointer tracker at execute.
        return [Uop(UopKind.CAPCHECK, mem=mem, check_write=write,
                    addr_mode=AddrMode.REG_MEM)]

    if op in (Op.MOV, Op.MOVABS):
        return _translate_mov(ops)
    if op is Op.LEA:
        dst, mem = ops
        assert isinstance(dst, Reg) and isinstance(mem, Mem)
        return [Uop(UopKind.LEA, dst=int(dst), mem=mem, addr_mode=AddrMode.REG_REG)]
    if op in BINARY_ALU:
        return _translate_binary_alu(op, ops)
    if op in UNARY_ALU:
        return _translate_unary_alu(op, ops)
    if op in (Op.CMP, Op.TEST):
        return _translate_compare(op, ops)
    if op is Op.PUSH:
        (reg,) = ops
        assert isinstance(reg, Reg)
        return [
            Uop(UopKind.ALU, alu=AluOp.SUB, dst=_RSP, srcs=(_RSP,), imm=8,
                addr_mode=AddrMode.REG_IMM),
            Uop(UopKind.ST, srcs=(int(reg),), mem=Mem(base=Reg.RSP),
                addr_mode=AddrMode.REG_MEM),
        ]
    if op is Op.POP:
        (reg,) = ops
        assert isinstance(reg, Reg)
        return [
            Uop(UopKind.LD, dst=int(reg), mem=Mem(base=Reg.RSP),
                addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ALU, alu=AluOp.ADD, dst=_RSP, srcs=(_RSP,), imm=8,
                addr_mode=AddrMode.REG_IMM),
        ]
    if op is Op.JMP:
        return [_jump_uop(UopKind.JMP, ops[0])]
    if op in COND_BRANCHES:
        uop = _jump_uop(UopKind.BR, ops[0])
        uop.cond = op.value
        uop.reads_flags = True
        return [uop]
    if op is Op.CALL:
        target = ops[0]
        retaddr = address + INSTR_SLOT
        jump = _jump_uop(UopKind.JMP, target)
        # A call through a register is an indirect jump that leaves the
        # return-address stack alone.
        jump.subroutine = jump.kind is UopKind.JMP
        return [
            Uop(UopKind.ALU, alu=AluOp.SUB, dst=_RSP, srcs=(_RSP,), imm=8,
                addr_mode=AddrMode.REG_IMM),
            Uop(UopKind.ST, mem=Mem(base=Reg.RSP), imm=retaddr,
                addr_mode=AddrMode.REG_MEM),
            jump,
        ]
    if op is Op.RET:
        return [
            Uop(UopKind.LD, dst=T0, mem=Mem(base=Reg.RSP),
                addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ALU, alu=AluOp.ADD, dst=_RSP, srcs=(_RSP,), imm=8,
                addr_mode=AddrMode.REG_IMM),
            Uop(UopKind.JMP_IND, srcs=(T0,), subroutine=True),
        ]
    raise NotImplementedError(f"no translation for {instr}")  # pragma: no cover


def _translate_mov(ops: Tuple) -> List[Uop]:
    dst, src = ops
    if isinstance(dst, Reg) and isinstance(src, Reg):
        return [Uop(UopKind.MOV, dst=int(dst), srcs=(int(src),),
                    addr_mode=AddrMode.REG_REG)]
    if isinstance(dst, Reg) and isinstance(src, Imm):
        return [Uop(UopKind.LIMM, dst=int(dst), imm=src.value,
                    addr_mode=AddrMode.REG_IMM)]
    if isinstance(dst, Reg) and isinstance(src, Mem):
        return [Uop(UopKind.LD, dst=int(dst), mem=src, addr_mode=AddrMode.REG_MEM)]
    if isinstance(dst, Mem) and isinstance(src, Reg):
        return [Uop(UopKind.ST, srcs=(int(src),), mem=dst,
                    addr_mode=AddrMode.REG_MEM)]
    if isinstance(dst, Mem) and isinstance(src, Imm):
        # mov [mem], imm: store-immediate; single store uop carrying the data.
        return [Uop(UopKind.ST, mem=dst, imm=src.value, addr_mode=AddrMode.REG_MEM)]
    raise NotImplementedError(f"mov form {dst!r}, {src!r}")  # pragma: no cover


def _translate_binary_alu(op: Op, ops: Tuple) -> List[Uop]:
    alu = _ALU_MAP[op]
    dst, src = ops
    if isinstance(dst, Reg) and isinstance(src, Reg):
        return [Uop(UopKind.ALU, alu=alu, dst=int(dst), srcs=(int(dst), int(src)),
                    writes_flags=True, addr_mode=AddrMode.REG_REG)]
    if isinstance(dst, Reg) and isinstance(src, Imm):
        return [Uop(UopKind.ALU, alu=alu, dst=int(dst), srcs=(int(dst),),
                    imm=src.value, writes_flags=True, addr_mode=AddrMode.REG_IMM)]
    if isinstance(dst, Reg) and isinstance(src, Mem):
        return [
            Uop(UopKind.LD, dst=T0, mem=src, addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ALU, alu=alu, dst=int(dst), srcs=(int(dst), T0),
                writes_flags=True, addr_mode=AddrMode.REG_MEM),
        ]
    if isinstance(dst, Mem) and isinstance(src, Reg):
        return [
            Uop(UopKind.LD, dst=T0, mem=dst, addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ALU, alu=alu, dst=T0, srcs=(T0, int(src)),
                writes_flags=True, addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ST, srcs=(T0,), mem=dst, addr_mode=AddrMode.REG_MEM),
        ]
    if isinstance(dst, Mem) and isinstance(src, Imm):
        return [
            Uop(UopKind.LD, dst=T0, mem=dst, addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ALU, alu=alu, dst=T0, srcs=(T0,), imm=src.value,
                writes_flags=True, addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ST, srcs=(T0,), mem=dst, addr_mode=AddrMode.REG_MEM),
        ]
    raise NotImplementedError(f"{op.value} form {dst!r}, {src!r}")  # pragma: no cover


def _translate_unary_alu(op: Op, ops: Tuple) -> List[Uop]:
    alu = _UNARY_MAP[op]
    imm = 1 if alu in (AluOp.ADD, AluOp.SUB) else None
    (target,) = ops
    writes_flags = op is not Op.NOT
    if isinstance(target, Reg):
        return [Uop(UopKind.ALU, alu=alu, dst=int(target), srcs=(int(target),),
                    imm=imm, writes_flags=writes_flags, addr_mode=AddrMode.REG_IMM)]
    assert isinstance(target, Mem)
    return [
        Uop(UopKind.LD, dst=T0, mem=target, addr_mode=AddrMode.REG_MEM),
        Uop(UopKind.ALU, alu=alu, dst=T0, srcs=(T0,), imm=imm,
            writes_flags=writes_flags, addr_mode=AddrMode.REG_MEM),
        Uop(UopKind.ST, srcs=(T0,), mem=target, addr_mode=AddrMode.REG_MEM),
    ]


def _translate_compare(op: Op, ops: Tuple) -> List[Uop]:
    alu = AluOp.CMP if op is Op.CMP else AluOp.TEST
    a, b = ops
    if isinstance(a, Reg) and isinstance(b, Reg):
        return [Uop(UopKind.ALU, alu=alu, srcs=(int(a), int(b)),
                    writes_flags=True, addr_mode=AddrMode.REG_REG)]
    if isinstance(a, Reg) and isinstance(b, Imm):
        return [Uop(UopKind.ALU, alu=alu, srcs=(int(a),), imm=b.value,
                    writes_flags=True, addr_mode=AddrMode.REG_IMM)]
    if isinstance(a, Reg) and isinstance(b, Mem):
        return [
            Uop(UopKind.LD, dst=T0, mem=b, addr_mode=AddrMode.REG_MEM),
            Uop(UopKind.ALU, alu=alu, srcs=(int(a), T0), writes_flags=True,
                addr_mode=AddrMode.REG_MEM),
        ]
    if isinstance(a, Mem):
        uops = [Uop(UopKind.LD, dst=T0, mem=a, addr_mode=AddrMode.REG_MEM)]
        if isinstance(b, Reg):
            uops.append(Uop(UopKind.ALU, alu=alu, srcs=(T0, int(b)),
                            writes_flags=True, addr_mode=AddrMode.REG_MEM))
        else:
            assert isinstance(b, Imm)
            uops.append(Uop(UopKind.ALU, alu=alu, srcs=(T0,), imm=b.value,
                            writes_flags=True, addr_mode=AddrMode.REG_MEM))
        return uops
    raise NotImplementedError(f"{op.value} form {a!r}, {b!r}")  # pragma: no cover


def _jump_uop(kind: UopKind, target) -> Uop:
    if isinstance(target, Imm):
        return Uop(kind, target=target.value)
    if isinstance(target, Reg):
        return Uop(UopKind.JMP_IND, srcs=(int(target),))
    raise NotImplementedError(f"unresolved jump target {target!r}")  # pragma: no cover
