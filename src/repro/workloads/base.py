"""Workload construction toolkit.

The paper evaluates CHEx86 on the C/C++ subsets of SPEC CPU2017 and
PARSEC 2.1.  We cannot run those binaries, but CHEx86's costs are driven by
a small set of *behavioural drivers* the paper itself identifies:

* allocation volume, live-set size, and allocations-in-use per interval
  (Figure 3),
* temporal pointer-reload patterns — constant / stride / batch / repeat /
  random (Table II),
* the mix of pointer dereferences vs. plain compute, and
* alloc/free churn.

:class:`AsmBuilder` plus the ``phase_*`` helpers generate assembly programs
that reproduce those drivers; each benchmark module composes them with
per-benchmark parameters (``repro.workloads.spec`` / ``.parsec``).

Register conventions: ``r12`` holds the pointer-pool base, ``r10`` carries
the LCG state for randomized phases, ``r9``/``r11`` are phase-local, and
``r13``-``r15`` are never touched (reserved for ASan instrumentation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..heap.library import heap_library_asm

#: LCG multiplier/increment (Knuth's MMIX) used by randomized phases.
LCG_MUL = 6364136223846793005
LCG_ADD = 1442695040888963407


@dataclass(frozen=True)
class Workload:
    """One runnable benchmark program."""

    name: str
    suite: str                       # "SPEC" or "PARSEC"
    source: str                      # full assembly text
    description: str
    threads: int = 1
    #: Entry label per thread (thread 0 runs "main").
    entry_labels: Tuple[str, ...] = ("main",)


class AsmBuilder:
    """Accumulates assembly text with unique-label management."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._globals: List[str] = []
        self._lines: List[str] = []
        self._label_counter = 0

    # -- low-level emission ----------------------------------------------------

    def global_(self, name: str, size: int, *init: int) -> str:
        init_text = "".join(f", {v}" for v in init)
        self._globals.append(f".global {name}, {size}{init_text}")
        return name

    def raw(self, text: str) -> None:
        self._lines.append(text)

    def op(self, text: str) -> None:
        self._lines.append("    " + text)

    def label(self, name: str) -> None:
        self._lines.append(f"{name}:")

    def fresh(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def source(self, extra_tail: str = "") -> str:
        return "\n".join(self._globals + self._lines) \
            + "\n" + extra_tail + heap_library_asm()

    # -- structured helpers -----------------------------------------------------

    def lcg_next(self, dst: str = "r11", mask: Optional[int] = None) -> None:
        """Advance the r10 LCG; leave a (masked) value in ``dst``."""
        self.op(f"imul r10, {LCG_MUL}")
        self.op(f"add r10, {LCG_ADD}")
        self.op(f"mov {dst}, r10")
        self.op(f"shr {dst}, 33")
        if mask is not None:
            self.op(f"and {dst}, {mask}")


# ---------------------------------------------------------------------------
# Reusable behavioural phases.
# ---------------------------------------------------------------------------

def phase_alloc_pool(b: AsmBuilder, pool: str, count: int, size: int,
                     size_step: int = 0) -> None:
    """Allocate ``count`` buffers of ``size`` (+i*step) into ``pool``.

    Spills every pointer to the pool array — the canonical spilled-alias
    population step.
    """
    b.op(f"mov r12, [{pool}.addr]")
    loop = b.fresh("alloc")
    b.op("mov r9, 0")
    b.label(loop)
    if size_step:
        b.op("mov rdi, r9")
        b.op(f"imul rdi, {size_step}")
        b.op(f"add rdi, {size}")
    else:
        b.op(f"mov rdi, {size}")
    b.op("call malloc")
    b.op("mov [r12 + r9*8], rax")
    b.op("add r9, 1")
    b.op(f"cmp r9, {count}")
    b.op(f"jne {loop}")


def phase_free_pool(b: AsmBuilder, pool: str, count: int,
                    start: int = 0, step: int = 1) -> None:
    """Free pool entries ``start, start+step, ...`` below ``count``."""
    b.op(f"mov r12, [{pool}.addr]")
    loop = b.fresh("free")
    b.op(f"mov r9, {start}")
    b.label(loop)
    b.op("mov rdi, [r12 + r9*8]")
    b.op("call free")
    b.op("mov [r12 + r9*8], 0")
    b.op(f"add r9, {step}")
    b.op(f"cmp r9, {count}")
    b.op(f"jl {loop}")


def phase_stride_chase(b: AsmBuilder, pool: str, count: int, iters: int,
                       touches: int = 4) -> None:
    """Table II "Batch + Stride": reload buffer i, touch it, move to i+1."""
    b.op(f"mov r12, [{pool}.addr]")
    outer = b.fresh("stride_outer")
    inner = b.fresh("stride_inner")
    touch = b.fresh("stride_touch")
    b.op("mov r8, 0")
    b.label(outer)
    b.op("mov r9, 0")
    b.label(inner)
    b.op("mov rdx, 0")
    b.label(touch)
    # The spilled pointer is re-read for every dereference (register
    # pressure), so this PC's PID sequence is 1 1 1 2 2 2 ... — the
    # canonical Table II "Batch + Stride" site.
    b.op("mov rbx, [r12 + r9*8]")
    b.op("mov rax, [rbx + rdx*8]")
    b.op("mov [rsp - 8], rax")          # stack-local temporary (untracked)
    b.op("add rax, 1")
    b.op("mov r11, [rsp - 8]")
    b.op("add rax, r11")
    b.op("mov [rbx + rdx*8], rax")
    b.op("add rdx, 1")
    b.op(f"cmp rdx, {touches}")
    b.op(f"jne {touch}")
    b.op("add r9, 1")
    b.op(f"cmp r9, {count}")
    b.op(f"jne {inner}")
    b.op("add r8, 1")
    b.op(f"cmp r8, {iters}")
    b.op(f"jne {outer}")


def phase_repeat_chase(b: AsmBuilder, pool: str, indices: Sequence[int],
                       iters: int) -> None:
    """Table II "Repeat": the same short buffer sequence, over and over."""
    b.op(f"mov r12, [{pool}.addr]")
    outer = b.fresh("repeat")
    b.op("mov r8, 0")
    b.label(outer)
    for index in indices:
        b.op(f"mov rbx, [r12 + {index * 8}]")
        b.op("mov rax, [rbx]")
        b.op("add rax, 1")
        b.op("mov [rbx], rax")
    b.op("add r8, 1")
    b.op(f"cmp r8, {iters}")
    b.op(f"jne {outer}")


def phase_random_chase(b: AsmBuilder, pool: str, count_pow2: int,
                       iters: int) -> None:
    """Table II "Random": LCG-selected buffer each iteration.

    ``count_pow2`` must be a power of two (the index is masked).
    """
    assert count_pow2 & (count_pow2 - 1) == 0, "pool size must be 2^k"
    b.op(f"mov r12, [{pool}.addr]")
    loop = b.fresh("random")
    b.op("mov r8, 0")
    b.label(loop)
    b.lcg_next("r11", mask=count_pow2 - 1)
    b.op("mov rbx, [r12 + r11*8]")
    b.op("mov rax, [rbx + 8]")
    b.op("mov [rsp - 8], rax")          # stack-local temporary (untracked)
    b.op("add rax, 3")
    b.op("mov rdx, [rsp - 8]")
    b.op("add rax, rdx")
    b.op("mov [rbx + 8], rax")
    b.op("add r8, 1")
    b.op(f"cmp r8, {iters}")
    b.op(f"jne {loop}")


def phase_linked_list(b: AsmBuilder, head_slot: str, nodes: int,
                      node_size: int = 32) -> None:
    """Build a linked list on the heap; head pointer spilled to a global.

    Node layout: [next, payload...].  Node sizes vary around ``node_size``
    (as real heap populations do), which keeps the nodes from stride-
    mapping into a fraction of the alias-cache sets.
    """
    b.op(f"mov r12, [{head_slot}.addr]")
    b.op("mov [r12], 0")
    loop = b.fresh("list_build")
    b.op("mov r9, 0")
    b.label(loop)
    b.op("mov rdi, r9")
    b.op("and rdi, 3")
    b.op("imul rdi, 16")
    b.op(f"add rdi, {node_size}")
    b.op("call malloc")
    b.op("mov rbx, [r12]")
    b.op("mov [rax], rbx")              # node.next = old head
    b.op("mov [rax + 8], r9")           # payload
    b.op("mov [r12], rax")              # head = node
    b.op("add r9, 1")
    b.op(f"cmp r9, {nodes}")
    b.op(f"jne {loop}")


def phase_list_walk(b: AsmBuilder, head_slot: str, iters: int) -> None:
    """Pointer-chase the list end to end, ``iters`` times (mcf-style)."""
    outer = b.fresh("walk_outer")
    inner = b.fresh("walk_inner")
    done = b.fresh("walk_done")
    b.op(f"mov r12, [{head_slot}.addr]")
    b.op("mov r8, 0")
    b.label(outer)
    b.op("mov rbx, [r12]")
    b.label(inner)
    b.op("cmp rbx, 0")
    b.op(f"je {done}")
    b.op("mov rax, [rbx + 8]")
    b.op("mov [rsp - 8], rax")          # stack-local temporary (untracked)
    b.op("add rax, 1")
    b.op("mov rdx, [rsp - 8]")
    b.op("xor rdx, rax")
    b.op("mov [rbx + 8], rax")
    b.op("mov rbx, [rbx]")              # follow next
    b.op(f"jmp {inner}")
    b.label(done)
    b.op("add r8, 1")
    b.op(f"cmp r8, {iters}")
    b.op(f"jne {outer}")


def phase_array_sweep(b: AsmBuilder, buffer_slot: str, words: int,
                      iters: int) -> None:
    """Stream over one large buffer (lbm/blackscholes-style)."""
    outer = b.fresh("sweep_outer")
    inner = b.fresh("sweep_inner")
    b.op(f"mov r11, [{buffer_slot}.addr]")
    b.op("mov rbx, [r11]")
    b.op("mov r8, 0")
    b.label(outer)
    b.op("mov r9, 0")
    b.label(inner)
    b.op("mov rax, [rbx + r9*8]")
    b.op("imul rax, 3")
    b.op("mov [rsp - 8], rax")          # stack-local temporary (untracked)
    b.op("add rax, 7")
    b.op("mov rdx, [rsp - 8]")
    b.op("xor rax, rdx")
    b.op("mov [rbx + r9*8], rax")
    b.op("add r9, 1")
    b.op(f"cmp r9, {words}")
    b.op(f"jne {inner}")
    b.op("add r8, 1")
    b.op(f"cmp r8, {iters}")
    b.op(f"jne {outer}")


def phase_churn(b: AsmBuilder, size: int, iters: int) -> None:
    """malloc/use/free cycles (xalancbmk-style churn)."""
    loop = b.fresh("churn")
    b.op("mov r8, 0")
    b.label(loop)
    b.op(f"mov rdi, {size}")
    b.op("call malloc")
    b.op("mov [rax], r8")
    b.op("mov rbx, [rax]")
    b.op("mov rdi, rax")
    b.op("call free")
    b.op("add r8, 1")
    b.op(f"cmp r8, {iters}")
    b.op(f"jne {loop}")


def phase_compute(b: AsmBuilder, iters: int) -> None:
    """ALU work plus register spills to the stack.

    Dilutes heap-pointer activity the way real compute phases do; the
    stack traffic is *untracked* (PID 0), so it separates the always-on
    policy (which still checks it) from prediction-driven surgical
    injection (which does not) — the always-on vs. prediction gap of
    Figure 6.
    """
    loop = b.fresh("compute")
    b.op("mov r8, 0")
    b.op("mov rax, 1")
    b.op("mov rdx, 3")
    b.label(loop)
    b.op("push rdx")                  # callee-saved spill (untracked)
    b.op("imul rax, rdx")
    b.op("add rax, 17")
    b.op("mov [rsp - 16], rax")       # local temporary on the stack
    b.op("shr rax, 1")
    b.op("mov rdx, [rsp - 16]")
    b.op("xor rax, r8")
    b.op("pop rdx")
    b.op("add r8, 1")
    b.op(f"cmp r8, {iters}")
    b.op(f"jne {loop}")


def standard_prologue(b: AsmBuilder, seed: int = 0x1234) -> None:
    b.label("main")
    b.op("nop")
    b.op(f"mov r10, {seed}")


def standard_epilogue(b: AsmBuilder) -> None:
    b.op("halt")
