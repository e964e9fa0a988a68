"""Exact MAP inference for aggregate count models on path graphs.

The package solves for the most probable contingency tables given noisy
aggregate observations by reducing the problem to a minimum-cost flow with
convex arc costs inside a difference-of-convex outer loop, and ships an
approximate continuous baseline plus brute-force oracles for verification.
"""

from .core import (
    CgmInstance,
    ContingencyTables,
    FractionalTables,
    Gaussian,
    MISSING,
    Poisson,
    objective,
    objective_fractional,
    validate_tables,
)
from .dca import AlphaStrategy, DcaConfig, DcaReport, run_dca
from .baseline import ApproxReport, approx_objective, solve_approximate
from .flow import InfeasibleError, build_flow_network, build_surrogate_network, solve_capacity_scaling, solve_ssp
from .instances import (
    GridSpec,
    PotentialKind,
    gen_interpolation,
    gen_synthetic,
    load_instance,
    load_tables,
    save_instance,
    save_tables,
    sparsity,
)

__all__ = [
    "CgmInstance",
    "ContingencyTables",
    "FractionalTables",
    "Gaussian",
    "Poisson",
    "MISSING",
    "objective",
    "objective_fractional",
    "validate_tables",
    "AlphaStrategy",
    "DcaConfig",
    "DcaReport",
    "run_dca",
    "ApproxReport",
    "approx_objective",
    "solve_approximate",
    "InfeasibleError",
    "build_flow_network",
    "build_surrogate_network",
    "solve_ssp",
    "solve_capacity_scaling",
    "PotentialKind",
    "GridSpec",
    "gen_synthetic",
    "gen_interpolation",
    "sparsity",
    "load_instance",
    "save_instance",
    "load_tables",
    "save_tables",
]
