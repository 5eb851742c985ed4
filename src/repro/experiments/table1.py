"""Table 1: the experimental configuration.

This module renders the default :class:`~repro.common.params.SystemConfig`
in the same shape as Table 1 of the paper, so the configuration used by the
benchmark harness is auditable against the paper's.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.params import SystemConfig


def table1_rows(config: SystemConfig = None) -> List[List[str]]:
    """The Table 1 parameters as (section, parameter, value) rows."""
    config = config or SystemConfig()
    core = config.core
    bp = core.branch_predictor
    rows = [
        ["Main cores", "Core",
         f"{core.width}-wide, out-of-order, {core.frequency_ghz:.1f}GHz"],
        ["Main cores", "Pipeline",
         f"{core.rob_entries}-entry ROB, {core.iq_entries}-entry IQ, "
         f"{core.lq_entries}-entry LQ, {core.sq_entries}-entry SQ, "
         f"{core.int_registers} Int / {core.fp_registers} FP registers, "
         f"{core.int_alus} Int ALUs, {core.fp_alus} FP ALUs, "
         f"{core.mult_div_alus} Mult/Div ALU"],
        ["Main cores", "Tournament branch pred.",
         f"{bp.local_entries}-entry local, {bp.global_entries}-entry global, "
         f"{bp.chooser_entries}-entry chooser, {bp.btb_entries}-entry BTB, "
         f"{bp.ras_entries}-entry RAS"],
        ["Private core memory", "L1 ICache",
         f"{config.l1i.size_bytes // 1024}KiB, {config.l1i.associativity}-way, "
         f"{config.l1i.hit_latency}-cycle hit lat, {config.l1i.mshrs} MSHRs"],
        ["Private core memory", "L1 DCache",
         f"{config.l1d.size_bytes // 1024}KiB, {config.l1d.associativity}-way, "
         f"{config.l1d.hit_latency}-cycle hit lat, {config.l1d.mshrs} MSHRs"],
        ["Private core memory", "TLBs",
         f"{config.tlb.entries}-entry, fully associative, split I/D"],
        ["Private core memory", "Data filter cache",
         f"{config.data_filter.size_bytes // 1024}KiB, "
         f"{config.data_filter.associativity}-way, "
         f"{config.data_filter.hit_latency}-cycle hit lat, "
         f"{config.data_filter.mshrs} MSHRs"],
        ["Private core memory", "Inst filter cache",
         f"{config.inst_filter.size_bytes // 1024}KiB, "
         f"{config.inst_filter.associativity}-way, "
         f"{config.inst_filter.hit_latency}-cycle hit lat, "
         f"{config.inst_filter.mshrs} MSHRs"],
        ["Shared system state", "L2 Cache",
         f"{config.l2.size_bytes // (1024 * 1024)}MiB, "
         f"{config.l2.associativity}-way, {config.l2.hit_latency}-cycle hit "
         f"lat, {config.l2.mshrs} MSHRs, {config.l2.prefetcher} prefetcher"],
        ["Shared system state", "Memory",
         f"{config.memory.access_latency}-cycle access latency"],
        ["Shared system state", "Core count", f"{config.num_cores} cores"],
    ]
    return rows


def format_table1(config: SystemConfig = None) -> str:
    rows = table1_rows(config)
    return "\n".join(f"{section:<22s} {name:<26s} {value}"
                     for section, name, value in rows)


def table1_as_dict(config: SystemConfig = None) -> Dict[str, str]:
    return {name: value for _, name, value in table1_rows(config)}
