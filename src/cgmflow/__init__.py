"""Exact MAP inference for aggregate count models on path graphs.

The package solves for the most probable contingency tables given noisy
aggregate observations by reducing the problem to a minimum-cost flow with
convex arc costs inside a difference-of-convex outer loop, and ships an
approximate continuous baseline plus brute-force oracles for verification.

``import cgmflow`` loads numpy alone.  The exact solvers' modules (``dca``,
``flow`` and, through them, ``scipy.sparse.csgraph``) load the first time
one of their names is looked up here, and so do ``oracle`` and ``cli``;
instance loading, generation and the relaxation baseline never load scipy.
"""

import importlib

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
from .baseline import ApproxReport, approx_objective, solve_approximate
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

# names exported from the modules that load scipy, imported on first access
_LAZY = {
    **dict.fromkeys(
        ("AlphaStrategy", "DcaConfig", "DcaReport", "build_surrogate_network", "run_dca"), "dca"
    ),
    **dict.fromkeys(
        ("InfeasibleError", "build_flow_network", "solve_capacity_scaling", "solve_ssp"), "flow"
    ),
}
_SUBMODULES = ("cli", "dca", "flow", "oracle")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
