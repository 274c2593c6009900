"""Operand kinds for the mini-x86 macro instruction set.

x86 instructions address their operands in one of three ways relevant to
CHEx86: a register, an immediate, or a memory effective address of the form
``base + index*scale + disp``.  The decoder (``repro.microop.decoder``)
dispatches on these operand kinds to select the micro-op expansion, and the
pointer-tracking rule database (Table I of the paper) keys its rules on the
addressing mode implied by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .registers import Reg


@dataclass(frozen=True)
class Imm:
    """An immediate (constant) operand."""

    value: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"${self.value:#x}" if abs(self.value) > 9 else f"${self.value}"


@dataclass(frozen=True, slots=True)
class Mem:
    """A memory operand: effective address ``base + index*scale + disp``.

    ``base`` may be ``None`` for absolute addressing (``disp`` only), the
    form the paper calls *intentional constant dereferencing*.
    """

    base: Optional[Reg] = None
    index: Optional[Reg] = None
    scale: int = 1
    disp: int = 0
    #: Symbolic displacement (a label/global name), added to ``disp`` when
    #: the program is assembled — models RIP-relative data addressing.
    disp_symbol: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}; must be 1/2/4/8")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.base is not None:
            parts.append(str(self.base))
        if self.index is not None:
            parts.append(f"{self.index}*{self.scale}")
        inner = " + ".join(parts)
        if self.disp or not inner:
            sign = "+" if self.disp >= 0 else "-"
            inner = f"{inner} {sign} {abs(self.disp):#x}" if inner else f"{self.disp:#x}"
        return f"[{inner}]"


@dataclass(frozen=True)
class LabelRef:
    """A symbolic reference resolved to an address at assembly time."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Any operand a macro instruction can carry.
Operand = Union[Reg, Imm, Mem, LabelRef]
