"""Micro-op layer: uop definitions and the CISC-to-RISC decoder."""

from .decoder import DecodePath, Decoder
from .uops import (
    CAPABILITY_KINDS,
    MEMORY_KINDS,
    NUM_UREGS,
    T0,
    T1,
    AddrMode,
    AluOp,
    Uop,
    UopKind,
    ureg_name,
)

__all__ = [
    "AddrMode",
    "AluOp",
    "CAPABILITY_KINDS",
    "DecodePath",
    "Decoder",
    "MEMORY_KINDS",
    "NUM_UREGS",
    "T0",
    "T1",
    "Uop",
    "UopKind",
    "ureg_name",
]
