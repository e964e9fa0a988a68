"""Difference-of-convex outer loop.

The objective splits into a convex part (transition and observation terms)
plus a concave part (the interior -log z! terms).  Each iteration replaces
the concave part with an affine upper bound tangent at the current tables,
solves the resulting convex-cost flow problem exactly, and repeats.  The
true objective never increases along the iterates and the loop reaches a
fixed point after finitely many steps.

Consecutive surrogates differ only in the interior node-edge slopes, so each
inner solve after the first starts from the previous optimal flow and its
duals and repairs them, instead of shipping the whole population again.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .core import CgmInstance, ContingencyTables, log_factorial, objective
from .flow import (
    SolveStats,
    build_surrogate_network,
    extract_tables,
    solve_capacity_scaling,
    solve_ssp,
)

__all__ = [
    "AlphaStrategy",
    "DcaConfig",
    "DcaReport",
    "alpha_value",
    "surrogate_g",
    "surrogate_objective",
    "run_dca",
]


class AlphaStrategy(Enum):
    """Choice of supergradient for -log z! at the linearization point n.

    Valid slopes lie in [-log(n+1), -log n].  L picks -log n, M the midpoint
    -(log n + log(n+1))/2, and R picks -log(n+1).
    """

    L = "L"
    M = "M"
    R = "R"


def alpha_value(strategy: AlphaStrategy, n: int) -> float:
    """Supergradient slope at n under the given strategy.

    At n = 0 the admissible interval is [0, +inf); all strategies return 0,
    the unique finite endpoint, which preserves the upper-bound property.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    strategy = AlphaStrategy(strategy)
    if n == 0:
        return 0.0
    if strategy is AlphaStrategy.L:
        return -math.log(n)
    if strategy is AlphaStrategy.M:
        return -0.5 * (math.log(n) + math.log(n + 1))
    return -math.log(n + 1)


def surrogate_g(n_lin: int, alpha: float, z: int) -> float:
    """Affine upper bound of -log z!: value -log(n_lin!) + alpha * (z - n_lin).

    Requires alpha to be an admissible supergradient at n_lin; then the
    bound is tight at n_lin and dominates -log z! everywhere.
    """
    if n_lin < 0 or z < 0:
        raise ValueError("counts must be nonnegative")
    lo = -math.log(n_lin + 1)
    hi = math.inf if n_lin == 0 else -math.log(n_lin)
    if not (lo - 1e-12 <= alpha <= hi + 1e-12):
        raise ValueError(
            f"alpha {alpha} is not a supergradient at {n_lin}; need [{lo}, {hi}]"
        )
    return -log_factorial(n_lin) + alpha * (z - n_lin)


def surrogate_objective(
    instance: CgmInstance,
    linearization: ContingencyTables,
    strategy: AlphaStrategy,
    tables: ContingencyTables,
) -> float:
    """Objective with interior -log z! terms replaced by their affine bounds.

    Upper-bounds the true objective everywhere, with equality at the
    linearization tables.
    """
    total = objective(instance, tables)
    for t in instance.interior_steps():
        for i in range(instance.n_states):
            z = int(tables.node[t, i])
            n_lin = int(linearization.node[t, i])
            alpha = alpha_value(strategy, n_lin)
            total += log_factorial(z) + surrogate_g(n_lin, alpha, z)
    return total


@dataclass(frozen=True)
class DcaConfig:
    strategy: AlphaStrategy = AlphaStrategy.L
    inner_solver: str = "ssp"  # "ssp" or "cs"
    max_iters: int = 1000
    objective_tol: float = 1e-9

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", AlphaStrategy(self.strategy))
        if self.inner_solver not in ("ssp", "cs"):
            raise ValueError("inner_solver must be 'ssp' or 'cs'")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.objective_tol < 0:
            raise ValueError("objective_tol must be nonnegative")


@dataclass
class DcaReport:
    """Trajectory and bookkeeping of one outer-loop run.

    objectives holds the true objective of every feasible iterate, one per
    inner solve, and is non-increasing; surrogates holds each inner optimal
    cost, the surrogate bound at that iterate, and changed_cells the number
    of node cells where the iterate differs from its linearization point.
    converged is False only when the iteration cap stopped the loop first.
    """

    objectives: list = field(default_factory=list)
    surrogates: list = field(default_factory=list)
    changed_cells: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    strategy: str = "L"
    inner_solver: str = "ssp"
    inner_stats: list = field(default_factory=list)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """JSON report: trajectory is objectives, inner the solver's name and
        inner_stats one SolveStats dict per iteration."""
        return {
            "trajectory": list(self.objectives),
            "surrogates": list(self.surrogates),
            "changed_cells": list(self.changed_cells),
            "iterations": self.iterations,
            "converged": self.converged,
            "strategy": self.strategy,
            "inner": self.inner_solver,
            "inner_stats": [s.to_dict() for s in self.inner_stats],
            "wall_time": self.wall_time,
        }


def run_dca(
    instance: CgmInstance, config: Optional[DcaConfig] = None
) -> tuple[ContingencyTables, DcaReport]:
    """Minimize the true objective by iterated convex surrogate solves.

    Starts from the all-zero linearization point (not itself feasible),
    solves one convex-cost flow problem per iteration, and stops when two
    successive iterates coincide, when the objective decrease falls below
    objective_tol, or at max_iters (flagged via report.converged = False).
    Returns the best iterate visited.  With at most two steps the surrogate
    equals the true objective, so the first solve is already exact.

    The first inner solve starts cold; each later one is warm-started from
    the previous iteration's optimal flow and its duals (see solve_ssp), so
    its shipments count only the units that move.
    """
    config = config or DcaConfig()
    solver = solve_ssp if config.inner_solver == "ssp" else solve_capacity_scaling
    report = DcaReport(strategy=config.strategy.value, inner_solver=config.inner_solver)
    t0 = time.perf_counter()

    linearization = ContingencyTables.zeros(instance.n_steps, instance.n_states)
    prev_tables: Optional[ContingencyTables] = None
    prev_obj = math.inf
    best_tables: Optional[ContingencyTables] = None
    best_obj = math.inf
    flow = None

    for _ in range(config.max_iters):
        network = build_surrogate_network(instance, linearization, config.strategy)
        flow, surrogate, stats = solver(network, flow)
        tables = extract_tables(network, flow)
        value = objective(instance, tables)
        report.objectives.append(value)
        report.surrogates.append(surrogate)
        report.changed_cells.append(int((tables.node != linearization.node).sum()))
        report.inner_stats.append(stats)
        report.iterations += 1
        if value < best_obj:
            best_obj = value
            best_tables = tables
        if instance.n_steps <= 2:
            # no interior terms: the surrogate is the true objective
            report.converged = True
            break
        if prev_tables is not None and tables.same_values(prev_tables):
            report.converged = True
            break
        if abs(prev_obj - value) <= config.objective_tol:
            report.converged = True
            break
        prev_tables = tables
        prev_obj = value
        linearization = tables

    report.wall_time = time.perf_counter() - t0
    assert best_tables is not None
    return best_tables, report
