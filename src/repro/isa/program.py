"""Program representation: text section, data section, and symbol table.

A :class:`Program` is what the CHEx86 machine loads and runs.  It mirrors
the pieces of an ELF binary that matter to the paper:

* a text section of macro instructions at fixed 4-byte slots,
* a global data section whose objects appear in the symbol table (the paper
  initializes shadow capabilities for each global data object found there),
* label addresses, including the entry/exit addresses of the registered heap
  management routines that the OS configures into MSRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .instructions import INSTR_SLOT, Instr, Op
from .operands import Imm, LabelRef, Mem

#: Default section layout of the simulated address space.
TEXT_BASE = 0x0040_0000
DATA_BASE = 0x0060_0000
HEAP_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_FF00_0000


@dataclass(frozen=True)
class GlobalObject:
    """A global data object as it would appear in the symbol table.

    CHEx86 generates one shadow capability per global object at program
    load (Section IV-C, *Initial Configuration*).
    """

    name: str
    address: int
    size: int
    #: Initial 64-bit words to place at ``address`` (zero-filled if short).
    init_words: Sequence[int] = ()
    #: Whether the object is listed in the symbol table.  The paper notes
    #: that objects absent from the symbol table are simply not tracked.
    in_symbol_table: bool = True
    #: When set, this object is a constant-pool slot holding the address of
    #: the named global.  Real x86 binaries reach globals through PC-relative
    #: loads from such pools; the loader seeds the shadow alias table so the
    #: pointer tracker picks up the global's PID on the load (Section VII-B,
    #: "intentional constant dereferencing", the benign case).
    pool_for: Optional[str] = None

    @property
    def end(self) -> int:
        return self.address + self.size


class Program:
    """An assembled program: instructions plus data plus symbols.

    Never changed once built: the instructions and globals are tuples,
    and nothing writes to ``labels`` after linking.  So one program can
    back any number of machines, and the assembler's program memo hands
    the same object to every caller.  (``labels`` stays a plain dict
    because snapshots pickle the program.)
    """

    def __init__(
        self,
        instrs: Sequence[Instr],
        globals_: Sequence[GlobalObject] = (),
        text_base: int = TEXT_BASE,
        entry_label: str = "main",
        name: str = "program",
    ) -> None:
        self.name = name
        self.text_base = text_base
        self.instrs: Tuple[Instr, ...] = tuple(instrs)
        self.globals: Tuple[GlobalObject, ...] = tuple(globals_)
        labels: Dict[str, int] = {}
        for index, instr in enumerate(self.instrs):
            if instr.label is not None:
                if instr.label in labels:
                    raise ValueError(f"duplicate label {instr.label!r}")
                labels[instr.label] = text_base + index * INSTR_SLOT
        for obj in self.globals:
            if obj.name in labels:
                raise ValueError(f"symbol {obj.name!r} defined as both label and global")
            labels[obj.name] = obj.address
        if entry_label not in labels:
            raise ValueError(f"program has no entry label {entry_label!r}")
        self.labels = labels
        self.entry = labels[entry_label]
        self._resolved = self._resolve()

    # -- address arithmetic -------------------------------------------------

    def address_of(self, index: int) -> int:
        """Instruction address of the macro instruction at ``index``."""
        return self.text_base + index * INSTR_SLOT

    def index_of(self, address: int) -> int:
        """Inverse of :meth:`address_of`; raises for out-of-text addresses."""
        offset = address - self.text_base
        index, rem = divmod(offset, INSTR_SLOT)
        if rem or not 0 <= index < len(self.instrs):
            raise ValueError(f"address {address:#x} is not an instruction slot")
        return index

    @property
    def text_end(self) -> int:
        return self.text_base + len(self.instrs) * INSTR_SLOT

    def fetch(self, address: int) -> Instr:
        """Return the (label-resolved) instruction at ``address``."""
        return self._resolved[self.index_of(address)]

    # -- symbol resolution ---------------------------------------------------

    def _resolve(self) -> Tuple[Instr, ...]:
        """Replace symbolic operands (labels, symbolic displacements) with
        concrete addresses."""
        return tuple(
            Instr(instr.op, tuple(self._resolve_operand(op)
                                  for op in instr.operands),
                  label=instr.label, comment=instr.comment)
            if _symbolic(instr) else instr
            for instr in self.instrs)

    def _resolve_operand(self, operand):
        if isinstance(operand, LabelRef):
            return Imm(self._lookup(operand.name))
        if isinstance(operand, Mem) and operand.disp_symbol is not None:
            return Mem(
                base=operand.base, index=operand.index, scale=operand.scale,
                disp=operand.disp + self._lookup(operand.disp_symbol),
            )
        return operand

    def _lookup(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise ValueError(f"undefined symbol {name!r}") from None

    def symbol_table(self) -> List[GlobalObject]:
        """Global objects visible to the loader (symbol-table entries only)."""
        return [g for g in self.globals if g.in_symbol_table]

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Program {self.name!r}: {len(self.instrs)} instrs, "
            f"{len(self.globals)} globals, entry={self.entry:#x}>"
        )


def _symbolic(instr: Instr) -> bool:
    """Whether linking must resolve a symbol in ``instr``'s operands.
    Host routine names are not addresses, so a ``hostop`` never is."""
    if instr.op is Op.HOSTOP:
        return False
    for op in instr.operands:
        if isinstance(op, LabelRef) or (isinstance(op, Mem)
                                        and op.disp_symbol is not None):
            return True
    return False


def find_mem_refs(program: Program) -> List[int]:
    """Indices of instructions that reference memory (for instrumentation)."""
    return [
        i for i, instr in enumerate(program.instrs)
        if instr.mem_operand is not None or instr.op in (Op.PUSH, Op.POP)
    ]
