"""Stability regions and scheduling for multi-queue multi-server systems.

The package computes the exact polytope of stabilizable arrival rates for
time-slotted systems with stationary channels, simulates max-weight
scheduling against it, traces fluid-model stability surfaces for
continuous channel laws, and solves utility-fair rate allocation over the
region with Frank-Wolfe.
"""

__version__ = "0.1.0"

from .alpha_sets import build_vhat, build_w, canonicalize, in_v, wn_count
from .capacity_region import (
    StabilityRegion,
    brute_force_support,
    build_region,
    membership_margin,
    onoff_support,
    support_function,
    support_vertex,
)
from .channel_models import (
    ContinuousChannelModel,
    DiscreteChannelModel,
    LinkDistribution,
    ValidationError,
    column_laws,
    descriptor_hash,
    enumerate_states,
    from_descriptor,
    link_means,
    load_model,
    per_server_column_distribution,
    sample_state,
    sample_states,
    to_descriptor,
    validate,
)
from .fairness_opt import FairnessSolution, UtilitySpec, fw_gap, solve_fairness
from .fluid_region import BoundaryCurve, boundary_trace, exp_2q_boundary, mc_support_function
from .mqms_sim import (
    ArrivalModel,
    QueueArrivals,
    RunResult,
    SimStats,
    arrivals_from_descriptor,
    as_lcq_allocate,
    delay_bound,
    mw_allocate,
    run,
    step,
)

__all__ = [
    "__version__",
    "ArrivalModel",
    "BoundaryCurve",
    "ContinuousChannelModel",
    "DiscreteChannelModel",
    "FairnessSolution",
    "LinkDistribution",
    "QueueArrivals",
    "RunResult",
    "SimStats",
    "StabilityRegion",
    "UtilitySpec",
    "ValidationError",
    "arrivals_from_descriptor",
    "as_lcq_allocate",
    "boundary_trace",
    "brute_force_support",
    "build_region",
    "build_vhat",
    "build_w",
    "canonicalize",
    "column_laws",
    "delay_bound",
    "descriptor_hash",
    "enumerate_states",
    "exp_2q_boundary",
    "from_descriptor",
    "fw_gap",
    "in_v",
    "link_means",
    "load_model",
    "mc_support_function",
    "membership_margin",
    "mw_allocate",
    "onoff_support",
    "per_server_column_distribution",
    "run",
    "sample_state",
    "sample_states",
    "solve_fairness",
    "step",
    "support_function",
    "support_vertex",
    "to_descriptor",
    "validate",
    "wn_count",
]
