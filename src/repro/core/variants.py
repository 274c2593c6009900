"""The CHEx86 design-space variants evaluated in the paper (Figure 6).

Five configurations share one machine:

* **INSECURE** — the unprotected baseline x86 core.
* **HW_ONLY** — no instrumentation; the load/store unit performs the
  capability check fused into every load/store, directly affecting the
  latency of all memory operations.
* **BINARY_TRANSLATION** — a dynamic binary translator instruments every
  macro instruction with a register-memory addressing mode; the check
  occupies *macro-stream* fetch/decode slots (lower front-end throughput).
* **UCODE_ALWAYS_ON** — the microcode engine injects a ``capCheck`` for
  every load/store micro-op regardless of whether it touches the heap.
* **UCODE_PREDICTION** — the paper's default: prediction-driven, surgical
  injection only for dereferences through tracked (non-zero PID) pointers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Variant(enum.Enum):
    INSECURE = "insecure"
    HW_ONLY = "hardware-only"
    BINARY_TRANSLATION = "binary-translation"
    UCODE_ALWAYS_ON = "ucode-always-on"
    UCODE_PREDICTION = "ucode-prediction"
    #: Runs programs statically rewritten by ``repro.translator`` with
    #: explicit ``capchk`` ISA-extension instructions: no injection at all —
    #: the checks live in the macro stream (design point (b), realized).
    BT_ISA_EXTENSION = "bt-isa-extension"


class CheckPolicy(enum.Enum):
    """Where/when capability checks happen."""

    NONE = "none"          # no checks at all
    LSU = "lsu"            # fused into every load/store (no extra uops)
    ALL_MEM = "all-mem"    # a capCheck uop for every memory micro-op
    TRACKED = "tracked"    # a capCheck uop only for tracked-pointer bases
    EXPLICIT = "explicit"  # no injection; capchk instructions in the binary


@dataclass(frozen=True)
class VariantTraits:
    """Static behaviour of one design point."""

    variant: Variant
    #: Speculative pointer tracker + alias machinery active.
    tracks_pointers: bool
    #: Heap entry/exit interception and capGen/capFree generation active.
    intercepts_heap: bool
    check_policy: CheckPolicy
    #: Checks ride in the macro stream (binary translation), consuming
    #: front-end fetch/decode bandwidth rather than being injected post-decode.
    checks_in_macro_stream: bool = False


_TRAITS = {
    Variant.INSECURE: VariantTraits(
        Variant.INSECURE, tracks_pointers=False, intercepts_heap=False,
        check_policy=CheckPolicy.NONE,
    ),
    Variant.HW_ONLY: VariantTraits(
        Variant.HW_ONLY, tracks_pointers=True, intercepts_heap=True,
        check_policy=CheckPolicy.LSU,
    ),
    Variant.BINARY_TRANSLATION: VariantTraits(
        Variant.BINARY_TRANSLATION, tracks_pointers=True, intercepts_heap=True,
        check_policy=CheckPolicy.ALL_MEM, checks_in_macro_stream=True,
    ),
    Variant.UCODE_ALWAYS_ON: VariantTraits(
        Variant.UCODE_ALWAYS_ON, tracks_pointers=True, intercepts_heap=True,
        check_policy=CheckPolicy.ALL_MEM,
    ),
    Variant.UCODE_PREDICTION: VariantTraits(
        Variant.UCODE_PREDICTION, tracks_pointers=True, intercepts_heap=True,
        check_policy=CheckPolicy.TRACKED,
    ),
    Variant.BT_ISA_EXTENSION: VariantTraits(
        Variant.BT_ISA_EXTENSION, tracks_pointers=True, intercepts_heap=True,
        check_policy=CheckPolicy.EXPLICIT,
    ),
}


def traits_of(variant: Variant) -> VariantTraits:
    """The :class:`VariantTraits` for ``variant``."""
    return _TRAITS[variant]


#: Variants in the order Figure 6 plots them.
FIGURE6_ORDER = (
    Variant.INSECURE,
    Variant.HW_ONLY,
    Variant.BINARY_TRANSLATION,
    Variant.UCODE_ALWAYS_ON,
    Variant.UCODE_PREDICTION,
)
