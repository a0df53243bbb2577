"""Full-system discrete-event simulation."""

from repro.sim.controller import EpochController
from repro.sim.runner import (
    RunSettings,
    SchemeComparison,
    build_system,
    compare_schemes,
    run_mix,
    run_sweep,
)
from repro.sim.stats import CoreResult, EpochRecord, SystemResult
from repro.sim.system import (
    ALL_SIM_SCHEMES,
    DETAILED_SCHEMES,
    SIM_BACKENDS,
    CMPSystem,
    engine_in_use,
)

__all__ = [
    "ALL_SIM_SCHEMES",
    "CMPSystem",
    "CoreResult",
    "DETAILED_SCHEMES",
    "EpochController",
    "EpochRecord",
    "RunSettings",
    "SIM_BACKENDS",
    "SchemeComparison",
    "SystemResult",
    "build_system",
    "compare_schemes",
    "engine_in_use",
    "run_mix",
    "run_sweep",
]
