"""Difference-of-convex outer loop.

The objective splits into a convex part (transition and observation terms)
plus a concave part (the interior -log z! terms).  Each iteration replaces
the concave part with an affine upper bound tangent at the current tables,
solves the resulting convex-cost flow problem exactly, and repeats.  The
true objective never increases along the iterates and the loop reaches a
fixed point after finitely many steps.

Consecutive surrogates differ only in the interior node-edge slopes, so each
inner solve after the first starts from the previous optimal flow and its
duals and repairs them, instead of shipping the whole population again; it
evaluates costs only on the edges whose costs changed.  The first, cold
solve ships the whole population, at a first block size chosen from the
mean count per state (_first_block), and the first warm solve, which moves
the most, starts at a block chosen the same way (_first_warm_block).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    CgmInstance,
    ContingencyTables,
    log_factorial,
    log_factorial_array,
    objective,
)
from .flow import FlowNetwork, build_flow_network, extract_tables, solve_ssp

__all__ = [
    "AlphaStrategy",
    "DcaConfig",
    "DcaReport",
    "alpha_value",
    "surrogate_g",
    "surrogate_objective",
    "build_surrogate_network",
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
    return float(_alpha_values(AlphaStrategy(strategy), np.asarray(n)))


# math.log(k) at k = 0, 1, 2, ... (0 at k = 0), grown on demand
_LOGS = np.zeros(1)


def _logs(n: int) -> np.ndarray:
    """math.log(k) for k = 0..n at least, with 0 at k = 0."""
    global _LOGS
    logs = _LOGS
    if n >= len(logs):
        more = [math.log(k) for k in range(len(logs), max(n + 1, 2 * len(logs)))]
        logs = _LOGS = np.append(logs, more)
    return logs


def _alpha_values(strategy: AlphaStrategy, n: np.ndarray) -> np.ndarray:
    """Supergradient slope under the given strategy at every k in the count array n."""
    if (n < 0).any():
        raise ValueError("n must be nonnegative")
    logs = _logs(int(n.max(initial=0)) + 1)
    if strategy is AlphaStrategy.L:
        alpha = -logs[n]
    elif strategy is AlphaStrategy.M:
        alpha = -0.5 * (logs[n] + logs[n + 1])
    else:
        alpha = -logs[n + 1]
    return np.where(n == 0, 0.0, alpha)


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


def _affine_bounds(
    instance: CgmInstance, linearization: ContingencyTables, strategy: AlphaStrategy
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, offset) per interior cell: -log z! <= alpha * z + offset.

    alpha is the strategy's supergradient at the cell's linearization count
    n and offset = -log n! - alpha * n, so the bound is tight at n.  Both
    arrays have shape (n_steps - 2, n_states).
    """
    if linearization.node.shape != (instance.n_steps, instance.n_states):
        raise ValueError("linearization shape does not match instance")
    n_lin = linearization.node[1 : instance.n_steps - 1]
    alpha = _alpha_values(AlphaStrategy(strategy), n_lin)
    return alpha, -log_factorial_array(n_lin) - alpha * n_lin


def build_surrogate_network(
    instance: CgmInstance,
    linearization: ContingencyTables,
    strategy,
) -> FlowNetwork:
    """Network of one difference-of-convex iteration.

    Interior node edges carry the affine surrogate of -log z! anchored at the
    linearization table (which need not be feasible; the all-zero table is
    the customary starting point), -log n! + alpha * (z - n), plus the
    observation cost.  All edge costs are discrete convex.
    """
    return build_flow_network(instance, _affine_bounds(instance, linearization, strategy))


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
    alpha, offset = _affine_bounds(instance, linearization, strategy)
    z = tables.node[1 : instance.n_steps - 1]
    swap = log_factorial_array(z) + alpha * z + offset
    return objective(instance, tables) + float(swap.sum())


@dataclass(frozen=True)
class DcaConfig:
    """The supergradient strategy and the outer iteration cap.

    The inner solve needs no setting: run_dca picks its first block size
    from the instance (_first_block).
    """

    strategy: AlphaStrategy = AlphaStrategy.L
    max_iters: int = 1000  # outer iterations before run_dca gives up

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", AlphaStrategy(self.strategy))
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(slots=True)
class DcaReport:
    """Trajectory and bookkeeping of one outer-loop run.

    objectives holds the true objective of every feasible iterate, one per
    inner solve; it falls strictly, but for a converged run's last entry.
    surrogates holds each inner optimal cost, the surrogate bound at that
    iterate, and changed_cells the number of node cells where the iterate
    differs from its linearization point.
    converged is False only when the iteration cap stopped the loop first.
    """

    objectives: list = field(default_factory=list)
    surrogates: list = field(default_factory=list)
    changed_cells: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    strategy: str = "L"
    inner_stats: list = field(default_factory=list)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """JSON report: trajectory is objectives and inner_stats one SolveStats
        dict per iteration."""
        return {
            "trajectory": list(self.objectives),
            "surrogates": list(self.surrogates),
            "changed_cells": list(self.changed_cells),
            "iterations": self.iterations,
            "converged": self.converged,
            "strategy": self.strategy,
            "inner_stats": [s.to_dict() for s in self.inner_stats],
            "wall_time": self.wall_time,
        }


def _first_block(instance: CgmInstance) -> int:
    """First block size of run_dca's cold solve, from M / R, the mean count per state.

    1, plain SSP, when M < 8R, where larger blocks measured slower; else
    the largest power of two at most M / (2R).  Fitted on cold solves of
    first surrogates with R = 10 to 100 and M / R = 3.3 to 500 (the table
    is in CHANGES.md).
    """
    M, R = instance.population, instance.n_states
    if M < 8 * R:
        return 1
    return 1 << ((M // (2 * R)).bit_length() - 1)


def _first_warm_block(instance: CgmInstance) -> int:
    """First block size of run_dca's first warm solve: _first_block // 16, at least 1.

    The first warm solve moves the counts from the optimum of the all-zero
    linearization, whose interior slopes are 0, to that of slopes -ln n:
    up to 20-26 units per edge on the seed-901 dca-pop panel, against at
    most 6 in any later warm solve, which stays at block 1.
    """
    return max(1, _first_block(instance) // 16)


def run_dca(
    instance: CgmInstance, config: Optional[DcaConfig] = None
) -> tuple[ContingencyTables, DcaReport]:
    """Minimize the true objective by iterated convex surrogate solves.

    Starts from the all-zero linearization point (not itself feasible) and
    solves one convex-cost flow problem per iteration.  Each surrogate is
    minimized exactly and is tight at its linearization point, so
    f(x_{k+1}) <= S_k(x_{k+1}) <= S_k(x_k) = f(x_k).  Every f is finite (a
    flow gives each Poisson cell with y > 0 its mandatory unit), so the
    first iterate is kept; the loop stops (report.converged) at the first
    iterate that does not lower f, a DC fixed point, and returns the one
    before it, the lowest.  With at most two steps the surrogate is f, so
    one solve is exact.  At max_iters the last iterate is returned.

    Every iteration calls build_surrogate_network(instance, linearization,
    strategy) and solve_ssp(network, flow, block).  The first solve starts
    cold at the block _first_block picks and ships the population in blocks
    halving from there down to 1 (block 1 is plain SSP); each later one is
    warm-started from the previous iteration's optimal flow and its duals,
    and re-costs only the interior edges whose surrogate changed.  The
    second solve starts at the block _first_warm_block picks (1 when
    M < 32R), every later one at block 1, the unit phase only: its
    shipments count only the units that move.
    inner_stats[k].phases[0] records each solve's first block.
    """
    config = config or DcaConfig()
    blocks = (_first_block(instance), _first_warm_block(instance))
    report = DcaReport(strategy=config.strategy.value)
    t0 = time.perf_counter()

    linearization = ContingencyTables.zeros(instance.n_steps, instance.n_states)
    previous = math.inf
    flow = None

    for k in range(config.max_iters):
        network = build_surrogate_network(instance, linearization, config.strategy)
        block = blocks[k] if k < len(blocks) else 1
        flow, surrogate, stats = solve_ssp(network, flow, block)
        tables = extract_tables(network, flow)
        value = objective(instance, tables)
        report.objectives.append(value)
        report.surrogates.append(surrogate)
        report.changed_cells.append(int((tables.node != linearization.node).sum()))
        report.inner_stats.append(stats)
        report.iterations += 1
        if value >= previous:
            report.converged = True
            break
        previous = value
        linearization = tables
        if instance.n_steps <= 2:
            # no interior terms: the surrogate is the true objective
            report.converged = True
            break

    report.wall_time = time.perf_counter() - t0
    return linearization, report
