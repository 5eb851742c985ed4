"""The out-of-order core model and its supporting structures."""

from repro.cpu.branch_predictor import TournamentPredictor
from repro.cpu.core import CoreResult, OutOfOrderCore
from repro.cpu.instructions import (
    EXECUTION_LATENCY,
    MicroOp,
    OpKind,
    WrongPathAccess,
    summarize_trace,
)
from repro.cpu.interface import MemoryAccessResult, MemorySystem

__all__ = [
    "CoreResult",
    "EXECUTION_LATENCY",
    "MemoryAccessResult",
    "MemorySystem",
    "MicroOp",
    "OpKind",
    "OutOfOrderCore",
    "TournamentPredictor",
    "WrongPathAccess",
    "summarize_trace",
]
