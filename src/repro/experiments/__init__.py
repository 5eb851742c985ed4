"""Experiment drivers that regenerate every table and figure of the paper."""

from repro.experiments.figures import (
    ALL_FIGURES,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
)
from repro.experiments.security import SecurityMatrix, run_security_evaluation
from repro.experiments.table1 import format_table1, table1_as_dict, table1_rows

__all__ = [
    "ALL_FIGURES",
    "SecurityMatrix",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "format_table1",
    "run_security_evaluation",
    "table1_as_dict",
    "table1_rows",
]
