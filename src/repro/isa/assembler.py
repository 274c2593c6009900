"""Two-pass text assembler for the mini-x86 instruction set.

The assembler exists so that examples, exploit suites, and tests can express
programs in a familiar Intel-syntax dialect rather than building
:class:`~repro.isa.instructions.Instr` tuples by hand::

    main:
        mov rdi, 64
        call malloc
        mov rbx, rax
        mov [rbx + 8], 42
        halt

Directives:

``.global name, size [, word0, word1, ...]``
    Declares a global data object (symbol-table entry) of ``size`` bytes in
    the data section, optionally initialized with 64-bit words.

``.hidden name, size``
    Declares a global object *not* listed in the symbol table — the paper's
    untracked-global case.
"""

from __future__ import annotations

import copy
import re
from typing import Dict, List, Optional, Tuple

from .instructions import Instr, Op
from .operands import Imm, LabelRef, Mem, Operand
from .program import DATA_BASE, GlobalObject, Program
from .registers import Reg, parse_reg

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")
_MEM_RE = re.compile(r"^\[(.*)\]$")
_NAME_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

_MNEMONICS = {op.value: op for op in Op}

#: What a source line parses to, the first item of a line-memo entry:
#: nothing, a label, a directive (its text; the data cursor is per
#: program, so it is parsed again in each), or a label-free instruction.
_BLANK, _LABEL, _DIRECTIVE, _INSTR = range(4)

#: Most source lines the line memo keeps.  The end-to-end fuzz corpus's
#: 250 programs hold about 4,600 distinct lines, and the security
#: evaluation's programs about 300.
LINE_MEMO_LIMIT = 16_384

#: Most texts the program memo keeps.  The security evaluation's 883
#: cases hold 608 distinct texts; it runs each case under two defenses
#: back to back, and cases with equal texts are neighbours, so even a
#: small memo parses each text once.
PROGRAM_MEMO_LIMIT = 64

#: The process-wide line memo: raw source line -> ``(kind, value)``.
#: Entries are immutable (``Instr`` and its operands are frozen), so every
#: program shares them.  Lines that fail to parse are never stored.
_LINES: Dict[str, Tuple[int, object]] = {}

#: The process-wide program memo: ``(text, entry_label, data_base)`` ->
#: :class:`Program`, which is never changed once built.
_PROGRAMS: Dict[Tuple[str, str, int], Program] = {}


class AssemblyError(ValueError):
    """Raised for malformed assembly text, with the offending line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def assemble(
    text: str,
    name: str = "program",
    entry_label: str = "main",
    data_base: int = DATA_BASE,
) -> Program:
    """Assemble ``text`` into a :class:`Program`.

    A text assembled before (and still in the program memo) is not parsed
    again: the same program comes back, as a copy under ``name`` when it
    was assembled under another name.
    """
    key = (text, entry_label, data_base)
    program = _PROGRAMS.get(key)
    if program is None:
        program = _assemble(text, name, entry_label, data_base)
        _remember(_PROGRAMS, key, program, PROGRAM_MEMO_LIMIT)
    elif program.name != name:
        program = copy.copy(program)
        program.name = name
    return program


def _remember(memo: dict, key, value, limit: int) -> None:
    """Store ``value``, first dropping the oldest entry of a full memo."""
    if len(memo) >= limit:
        del memo[next(iter(memo))]
    memo[key] = value


def _assemble(text: str, name: str, entry_label: str,
              data_base: int) -> Program:
    instrs: List[Instr] = []
    globals_: List[GlobalObject] = []
    pending_label: Optional[str] = None
    data_cursor = data_base
    lines = _LINES

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parsed = lines.get(raw)
        if parsed is None:
            parsed = _parse_line(raw, lineno)
            _remember(lines, raw, parsed, LINE_MEMO_LIMIT)
        kind, value = parsed
        if kind == _INSTR:
            if pending_label is not None:
                value = Instr(value.op, value.operands, label=pending_label)
                pending_label = None
            instrs.append(value)
        elif kind == _LABEL:
            if pending_label is not None:
                raise AssemblyError(lineno, "two consecutive labels; add a nop")
            pending_label = value
        elif kind == _DIRECTIVE:
            data_cursor = _parse_directive(value, lineno, globals_, data_cursor)

    if pending_label is not None:
        raise AssemblyError(0, f"trailing label {pending_label!r} with no instruction")

    return Program(instrs, globals_, entry_label=entry_label, name=name)


def _parse_line(raw: str, lineno: int) -> Tuple[int, object]:
    """The line-memo entry for one source line (raises for a bad line)."""
    line = raw.split(";")[0].split("#")[0].strip()
    if not line:
        return _BLANK, None
    label_match = _LABEL_RE.match(line)
    if label_match:
        return _LABEL, label_match.group(1)
    if line.startswith("."):
        return _DIRECTIVE, line
    return _INSTR, _parse_instr(line, lineno)


def _parse_directive(
    line: str, lineno: int, globals_: List[GlobalObject], cursor: int
) -> int:
    """Parse a ``.global``/``.hidden`` directive; returns the new data cursor."""
    head, _, rest = line.partition(" ")
    fields = [f.strip() for f in rest.split(",") if f.strip()]
    if head not in (".global", ".hidden"):
        raise AssemblyError(lineno, f"unknown directive {head!r}")
    if len(fields) < 2:
        raise AssemblyError(lineno, f"{head} needs: name, size[, init words...]")
    obj_name = fields[0]
    if not _NAME_RE.match(obj_name):
        raise AssemblyError(lineno, f"bad symbol name {obj_name!r}")
    try:
        size = _parse_int(fields[1])
        init = tuple(_parse_int(f) for f in fields[2:])
    except ValueError as exc:
        raise AssemblyError(lineno, str(exc)) from None
    if size <= 0:
        raise AssemblyError(lineno, "global size must be positive")
    globals_.append(
        GlobalObject(
            name=obj_name,
            address=cursor,
            size=size,
            init_words=init,
            in_symbol_table=(head == ".global"),
        )
    )
    # Keep objects 16-byte aligned and non-adjacent enough to be distinct.
    cursor += ((size + 15) // 16) * 16
    if head == ".global":
        # Constant-pool slot holding the object's address: programs reach
        # the global with `mov reg, [name.addr]` (the PC-relative-load idiom
        # real compilers emit), which lets the pointer tracker pick up the
        # global's PID through the alias machinery instead of flagging a
        # wild constant dereference.
        globals_.append(
            GlobalObject(
                name=obj_name + ".addr",
                address=cursor,
                size=16,
                init_words=(globals_[-1].address,),
                in_symbol_table=False,
                pool_for=obj_name,
            )
        )
        cursor += 16
    return cursor


def _parse_instr(line: str, lineno: int) -> Instr:
    mnemonic, _, rest = line.partition(" ")
    op = _MNEMONICS.get(mnemonic.lower())
    if op is None:
        raise AssemblyError(lineno, f"unknown mnemonic {mnemonic!r}")
    operands = tuple(
        _parse_operand(tok.strip(), lineno, op)
        for tok in _split_operands(rest)
    )
    try:
        return Instr(op, operands)
    except ValueError as exc:
        raise AssemblyError(lineno, str(exc)) from None


def _split_operands(rest: str) -> List[str]:
    """Split an operand list on commas that are not inside brackets."""
    out: List[str] = []
    depth = 0
    current = ""
    for char in rest:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            out.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        out.append(current)
    return [tok for tok in (t.strip() for t in out) if tok]


def _parse_operand(token: str, lineno: int, op: Op) -> Operand:
    mem_match = _MEM_RE.match(token)
    if mem_match:
        return _parse_mem(mem_match.group(1), lineno)
    try:
        return parse_reg(token)
    except ValueError:
        pass
    try:
        return Imm(_parse_int(token))
    except ValueError:
        pass
    if _NAME_RE.match(token):
        return LabelRef(token)
    raise AssemblyError(lineno, f"cannot parse operand {token!r}")


def _parse_mem(inner: str, lineno: int) -> Mem:
    """Parse the inside of ``[...]``: ``base + index*scale + disp`` pieces."""
    base: Optional[Reg] = None
    index: Optional[Reg] = None
    scale = 1
    disp = 0
    disp_symbol: Optional[str] = None
    for sign, term in _terms(inner):
        term = term.strip()
        if not term:
            raise AssemblyError(lineno, f"empty term in memory operand [{inner}]")
        if "*" in term:
            reg_part, _, scale_part = term.partition("*")
            try:
                idx_reg = parse_reg(reg_part)
                scale_val = _parse_int(scale_part)
            except ValueError as exc:
                raise AssemblyError(lineno, f"bad scaled-index term {term!r}: {exc}")
            if index is not None:
                raise AssemblyError(lineno, "two index terms in memory operand")
            if sign < 0:
                raise AssemblyError(lineno, "negative scaled index is not encodable")
            index, scale = idx_reg, scale_val
            continue
        try:
            reg = parse_reg(term)
        except ValueError:
            reg = None
        if reg is not None:
            if sign < 0:
                raise AssemblyError(lineno, "negative base register is not encodable")
            if base is None:
                base = reg
            elif index is None:
                index = reg
            else:
                raise AssemblyError(lineno, "too many registers in memory operand")
            continue
        try:
            disp += sign * _parse_int(term)
            continue
        except ValueError:
            pass
        if _NAME_RE.match(term) and sign > 0:
            if disp_symbol is not None:
                raise AssemblyError(lineno, "two symbols in one memory operand")
            disp_symbol = term
            continue
        raise AssemblyError(lineno, f"cannot parse memory term {term!r}")
    try:
        return Mem(base=base, index=index, scale=scale, disp=disp,
                   disp_symbol=disp_symbol)
    except ValueError as exc:
        raise AssemblyError(lineno, str(exc)) from None


def _terms(inner: str) -> List[Tuple[int, str]]:
    """Split ``a + b - c`` into signed terms."""
    out: List[Tuple[int, str]] = []
    sign = 1
    current = ""
    for char in inner:
        if char == "+":
            if current.strip():
                out.append((sign, current))
            sign, current = 1, ""
        elif char == "-":
            if current.strip():
                out.append((sign, current))
            sign, current = -1, ""
        else:
            current += char
    if current.strip():
        out.append((sign, current))
    return out


def _parse_int(token: str) -> int:
    token = token.strip()
    if token.startswith("$"):
        token = token[1:]
    return int(token, 0)
