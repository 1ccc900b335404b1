"""Experiment protocols and method dispatch.

The paper's tables and figures run as declarative grids
(:mod:`repro.experiments.grid`), which also owns multi-seed replication
(``run_replicated``, ``compare_replicated``, ``ReplicatedResult``,
``significantly_better``).
"""

from repro.experiments.protocol import Scenario, build_scenario, scale
from repro.experiments.runner import (
    ALL_METHODS,
    make_edde_config,
    run_method,
)

__all__ = [
    "Scenario",
    "build_scenario",
    "scale",
    "ALL_METHODS",
    "run_method",
    "make_edde_config",
]
