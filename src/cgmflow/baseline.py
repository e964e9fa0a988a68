"""Approximate solver: Stirling's approximation plus continuous relaxation.

Replacing every log z! by z log z - z makes the objective convex over the
relaxed (real-valued) marginal polytope.  The polytope's vertices are
all-population single-path loadings of the layered network, so conditional
gradient steps need only a shortest-path sweep per iteration.  The output is
fractional; its quality gap versus the exact solver comes from Stirling's
error at small counts, which is also why its tables come out dense.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import xlogy

from .core import (
    GAUSSIAN,
    POISSON,
    CgmInstance,
    FractionalTables,
    observation_cost,
)

__all__ = ["ApproxReport", "approx_objective", "solve_approximate"]

INF = math.inf
EPS = 1e-6  # entry floor inside gradient logs; keeps the search direction finite


def _stirling(z: np.ndarray) -> np.ndarray:
    return xlogy(z, z) - z


def _add_observation_gradient(
    instance: CgmInstance, node: np.ndarray, g_node: np.ndarray
) -> None:
    """Add the gradient of the observation terms at real-valued node counts."""
    kind, y, var = instance.observation_arrays
    gauss = kind == GAUSSIAN
    g_node[gauss] += (node[gauss] - y[gauss]) / var[gauss]
    pois = kind == POISSON
    g_node[pois] += 1.0 - y[pois] / np.maximum(node[pois], EPS)


def approx_objective(instance: CgmInstance, tables: FractionalTables) -> float:
    """Objective with every log z! replaced by z log z - z (0 at z = 0).

    Observation terms are evaluated at real-valued counts; a Poisson term
    with a positive observation diverges to +inf as its count reaches 0.
    """
    node = np.asarray(tables.node, dtype=float)
    edge = np.asarray(tables.edge, dtype=float)
    if (node < 0).any() or (edge.size and (edge < 0).any()):
        raise ValueError("table entries must be nonnegative")
    return _approx_value(instance, instance.log_potentials, node, edge)


def _approx_value(
    instance: CgmInstance, log_phi: np.ndarray, node: np.ndarray, edge: np.ndarray
) -> float:
    total = float(_stirling(edge).sum())
    if edge.size:
        total -= float((edge * log_phi).sum())
    interior = node[1 : instance.n_steps - 1]
    if interior.size:
        total -= float(_stirling(interior).sum())
    return total + float(observation_cost(*instance.observation_arrays, node).sum())


@dataclass
class ApproxReport:
    """Conditional-gradient run record; objectives are Stirling values."""

    objectives: list = field(default_factory=list)
    gap: float = INF
    gap_rel: float = INF
    iterations: int = 0
    converged: bool = False
    tol: float = 0.0
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "objectives": list(self.objectives),
            "gap": self.gap,
            "gap_rel": self.gap_rel,
            "iterations": self.iterations,
            "converged": self.converged,
            "tol": self.tol,
            "wall_time": self.wall_time,
        }


def _cheapest_path(g_node: np.ndarray, g_edge: np.ndarray) -> np.ndarray:
    """States of the minimum-total-gradient source-to-sink path, one per step."""
    N, R = g_node.shape
    dist = g_node[0].copy()
    back = np.zeros((N, R), dtype=np.int64)
    for t in range(N - 1):
        through = dist[:, None] + g_edge[t]
        back[t + 1] = np.argmin(through, axis=0)
        dist = through[back[t + 1], np.arange(R)] + g_node[t + 1]
    states = np.zeros(N, dtype=np.int64)
    states[-1] = int(np.argmin(dist))
    for t in range(N - 2, -1, -1):
        states[t] = back[t + 1][states[t + 1]]
    return states


def solve_approximate(
    instance: CgmInstance, tol: float = 1e-6, max_iters: int = 1000
) -> tuple[FractionalTables, ApproxReport]:
    """Minimize the Stirling-relaxed objective by conditional gradient.

    Starts at the uniform feasible point, moves toward the vertex returned
    by a shortest-path linear minimization each step, with a bounded scalar
    line search, and stops once the relative duality gap drops below tol;
    hitting max_iters first leaves report.converged False.  Iterates stay
    feasible by construction (convex combinations of feasible points), so
    marginal residuals remain at floating-point scale.
    """
    t0 = time.perf_counter()
    N, R, M = instance.n_steps, instance.n_states, instance.population
    node = np.full((N, R), M / R)
    edge = np.full((max(N - 1, 0), R, R), M / (R * R))
    report = ApproxReport(tol=tol)
    log_phi = instance.log_potentials

    current = _approx_value(instance, log_phi, node, edge)
    for _ in range(max_iters):
        report.iterations += 1
        g_edge = np.log(np.maximum(edge, EPS)) - log_phi if edge.size else edge
        g_node = np.zeros_like(node)
        if N > 2:
            g_node[1 : N - 1] = -np.log(np.maximum(node[1 : N - 1], EPS))
        _add_observation_gradient(instance, node, g_node)

        states = _cheapest_path(g_node, g_edge)
        v_node = np.zeros_like(node)
        v_edge = np.zeros_like(edge)
        v_node[np.arange(N), states] = M
        for t in range(N - 1):
            v_edge[t, states[t], states[t + 1]] = M

        d_node = v_node - node
        d_edge = v_edge - edge
        gap = -float((g_node * d_node).sum())
        if edge.size:
            gap -= float((g_edge * d_edge).sum())
        report.gap = gap
        report.gap_rel = gap / max(1.0, abs(current))
        report.objectives.append(current)
        if report.gap_rel <= tol:
            report.converged = True
            break

        def along(gamma: float) -> float:
            return _approx_value(
                instance, log_phi, node + gamma * d_node, edge + gamma * d_edge
            )

        hi = 1.0
        if not math.isfinite(along(1.0)):
            hi = 1.0 - 1e-9
        res = minimize_scalar(
            along, bounds=(0.0, hi), method="bounded", options={"xatol": 1e-11}
        )
        gamma = float(res.x)
        stepped = along(gamma)
        if stepped > current:
            # line search failed to improve; direction is exhausted at
            # floating-point scale, stop without claiming convergence
            break
        node = node + gamma * d_node
        edge = edge + gamma * d_edge
        current = stepped

    report.wall_time = time.perf_counter() - t0
    return FractionalTables(node=node, edge=edge), report
