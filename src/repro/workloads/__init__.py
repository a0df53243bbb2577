"""Synthetic workload models standing in for SPEC CPU2000."""

from repro.workloads.mixes import TABLE_III_SETS, Mix, random_mixes, state_space_size
from repro.workloads.spec_like import ALL_NAMES, FP_NAMES, INTEGER_NAMES, get, suite
from repro.workloads.synthetic import (
    PhasedWorkload,
    ReusePool,
    WorkloadSpec,
    generate_lines,
    generate_trace,
)

__all__ = [
    "ALL_NAMES",
    "FP_NAMES",
    "INTEGER_NAMES",
    "Mix",
    "PhasedWorkload",
    "ReusePool",
    "TABLE_III_SETS",
    "WorkloadSpec",
    "generate_lines",
    "generate_trace",
    "get",
    "random_mixes",
    "state_space_size",
    "suite",
]
