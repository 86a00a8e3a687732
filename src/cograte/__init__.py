"""Rate regions, outer bounds and tightness checks for the two-user Gaussian
MIMO cognitive link (a licensed transmitter plus a cognitive transmitter that
knows the licensed message and precodes against the interference it causes).
"""

from .achievable import (
    DpcAllocation,
    MuSumResult,
    dpc_rate_caps,
    dpc_rates,
    is_feasible,
    mu_sum_achievable,
    scale_allocation,
    trace_boundary,
)
from .channel import (
    CognitiveChannel,
    CompositeMatrices,
    composite_matrices,
    load_channel,
    mc_mutual_info,
    scaled_channel,
)
from .linalg import (
    decode_param,
    is_psd,
    log_det_id_plus,
    log_det_id_plus_dir,
    param_len,
    project_psd,
    symmetrize,
)
from .oracles import (
    KyFanResult,
    LagrangeMultipliers,
    grid_oracle,
    inf_alpha_g1,
    kyfan_gap,
    lagrangian_L,
    lagrangian_g,
    lagrangian_g1,
)
from .outer import (
    BcMuSumResult,
    BoundMuSumResult,
    InfAlphaResult,
    bc_mu_sum,
    condition_check,
    inf_alpha_partial_outer,
    mu_sum_partial_outer,
    partial_outer_max_rp,
    partial_outer_rates,
    trace_outer_boundary,
)
from .regions import BoundaryPoint, RatePair, RegionBoundary
from .solvers import NEG_INF, SolverSettings, golden_section, waterfill

__version__ = "0.1.0"

__all__ = [
    "BcMuSumResult",
    "BoundMuSumResult",
    "BoundaryPoint",
    "CognitiveChannel",
    "CompositeMatrices",
    "DpcAllocation",
    "InfAlphaResult",
    "KyFanResult",
    "LagrangeMultipliers",
    "MuSumResult",
    "NEG_INF",
    "RatePair",
    "RegionBoundary",
    "SolverSettings",
    "bc_mu_sum",
    "composite_matrices",
    "condition_check",
    "decode_param",
    "dpc_rate_caps",
    "dpc_rates",
    "golden_section",
    "grid_oracle",
    "inf_alpha_g1",
    "inf_alpha_partial_outer",
    "is_feasible",
    "is_psd",
    "kyfan_gap",
    "lagrangian_L",
    "lagrangian_g",
    "lagrangian_g1",
    "load_channel",
    "log_det_id_plus",
    "log_det_id_plus_dir",
    "mc_mutual_info",
    "mu_sum_achievable",
    "mu_sum_partial_outer",
    "param_len",
    "partial_outer_max_rp",
    "partial_outer_rates",
    "project_psd",
    "scale_allocation",
    "scaled_channel",
    "symmetrize",
    "trace_boundary",
    "trace_outer_boundary",
    "waterfill",
]
