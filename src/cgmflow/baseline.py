"""Approximate solver: Stirling's approximation plus continuous relaxation.

Replacing every log z! by z log z - z makes the objective convex over the
relaxed (real-valued) marginal polytope.  The polytope's vertices are
all-population single-path loadings of the layered network, so conditional
gradient steps need only a shortest-path sweep per iteration.  The output is
fractional; its quality gap versus the exact solver comes from Stirling's
error at small counts, which is also why its tables come out dense.

The relaxed objective is convex along every step direction d, and its
directional derivative has a closed form, so each line search is a Newton
search, safeguarded by bisection, for the root of that derivative rather
than a search on objective values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, minimize_scalar
from scipy.special import xlogy

from .core import (
    GAUSSIAN,
    POISSON,
    CgmInstance,
    FractionalTables,
    _objective_value,
)

__all__ = ["ApproxReport", "approx_objective", "solve_approximate"]

INF = math.inf
EPS = 1e-6  # entry floor inside gradient logs; keeps the search direction finite
MAX_SLOPE_EVALS = 100  # bisection alone reaches 1e-11 from [0, 1] in 37


def _stirling(z: np.ndarray) -> np.ndarray:
    return xlogy(z, z) - z


def _observation_derivatives(
    instance: CgmInstance, node: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of the observation terms at real-valued node counts.

    Poisson counts are floored at EPS, which keeps both finite at a zero count.
    """
    kind, y, var = instance.observation_arrays
    gauss = kind == GAUSSIAN
    first = np.where(gauss, (node - y) / var, 0.0)
    second = np.where(gauss, 1.0 / var, 0.0)
    pois = kind == POISSON
    if pois.any():
        z = np.maximum(node, EPS)
        first = np.where(pois, 1.0 - y / z, first)
        second = np.where(pois, y / (z * z), second)
    return first, second


def approx_objective(instance: CgmInstance, tables: FractionalTables) -> float:
    """Objective with every log z! replaced by z log z - z (0 at z = 0).

    Observation terms are evaluated at real-valued counts; a Poisson term
    with a positive observation diverges to +inf as its count reaches 0.
    """
    node = np.asarray(tables.node, dtype=float)
    edge = np.asarray(tables.edge, dtype=float)
    if (node < 0).any() or (edge.size and (edge < 0).any()):
        raise ValueError("table entries must be nonnegative")
    return _objective_value(instance, node, edge, _stirling)


def _slope_along(
    instance: CgmInstance,
    node: np.ndarray,
    edge: np.ndarray,
    d_node: np.ndarray,
    d_edge: np.ndarray,
):
    """gamma -> (phi'(gamma), phi''(gamma)) for phi(gamma) = f(x + gamma d).

    With z = x + gamma d, the derivative of the relaxed objective f along d is

        sum_e d_e (ln z_e - ln phi_e) - sum_interior d_n ln z_n + sum_n d_n h'(z_n)

    and phi'' is sum_e d_e^2 / z_e - sum_interior d_n^2 / z_n + sum_n d_n^2 h''(z_n).
    Entries with d = 0 are dropped, so they contribute exactly 0 even where
    z = 0.  Every kept z is positive for 0 < gamma < 1, since it is
    (1 - gamma) x + gamma v with x != v both nonnegative.
    """
    interior = slice(1, instance.n_steps - 1)
    x = np.concatenate([edge.ravel(), node[interior].ravel()])
    d = np.concatenate([d_edge.ravel(), d_node[interior].ravel()])
    signed = d.copy()
    signed[edge.size :] *= -1.0
    keep = d != 0
    x, d, signed = x[keep], d[keep], signed[keep]
    shift = float((d_edge * instance.log_potentials).sum())

    def slope(gamma: float) -> tuple[float, float]:
        z = x + gamma * d
        h1, h2 = _observation_derivatives(instance, node + gamma * d_node)
        first = float(signed @ np.log(z)) - shift + float((d_node * h1).sum())
        second = float(signed @ (d / z)) + float((d_node * d_node * h2).sum())
        return first, second

    return slope


def _slope_search(fun, *, args, bracket, bounds, slope, x0, xatol):
    """minimize_scalar method: root of a convex fun's derivative inside bounds.

    slope(gamma) gives fun's first and second derivatives; the derivative is
    negative at the lower bound.  Newton steps from x0 shrink the bracket
    [lo, hi] by the sign of each derivative; a step that leaves the bracket
    is replaced by its midpoint.  The upper bound itself is never evaluated,
    and the search stops once a step moves less than xatol.
    """
    lo, hi = bounds
    gamma = x0
    for evals in range(1, MAX_SLOPE_EVALS + 1):
        first, second = slope(gamma)
        if first == 0.0:
            break
        if first > 0.0:
            hi = gamma
        else:
            lo = gamma
        step = gamma - first / second if second > 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        moved = abs(step - gamma)
        gamma = step
        if moved < xatol:
            break
    return OptimizeResult(
        x=gamma, fun=fun(gamma, *args), nit=evals, nfev=1, success=True
    )


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
    linesearch_evals: int = 0

    def to_dict(self) -> dict:
        """JSON report: trajectory is objectives, duality_gap[_rel] the gaps."""
        return {
            "trajectory": list(self.objectives),
            "duality_gap": self.gap,
            "duality_gap_rel": self.gap_rel,
            "iterations": self.iterations,
            "converged": self.converged,
            "tol": self.tol,
            "wall_time": self.wall_time,
            "linesearch_evals": self.linesearch_evals,
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
    by a shortest-path linear minimization each step, and stops once the
    relative duality gap drops below tol; hitting max_iters first leaves
    report.converged False.  Iterates stay feasible by construction (convex
    combinations of feasible points), so marginal residuals remain at
    floating-point scale.

    The step size gamma solves phi'(gamma) = 0 for phi(gamma) = f(x + gamma d)
    on the bracket [0, hi]: hi is 1, or 1 - 1e-9 when f is not finite at the
    vertex (a positive Poisson observation off its path, so with count 0).
    phi'(0) is minus the duality gap, so negative.  Newton steps start from the previous step size, capped at
    hi / 2, and fall back to bisection when they leave the bracket; hi itself
    is never evaluated, and the search stops once a step moves less than 1e-11.
    report.linesearch_evals counts the derivative evaluations.
    """
    t0 = time.perf_counter()
    N, R, M = instance.n_steps, instance.n_states, instance.population
    node = np.full((N, R), M / R)
    edge = np.full((max(N - 1, 0), R, R), M / (R * R))
    report = ApproxReport(tol=tol)
    kind, y, _ = instance.observation_arrays
    starved = (kind == POISSON) & (y > 0)

    current = _objective_value(instance, node, edge, _stirling)
    gamma = 0.5
    for _ in range(max_iters):
        report.iterations += 1
        g_edge = np.log(np.maximum(edge, EPS)) - instance.log_potentials if edge.size else edge
        g_node = _observation_derivatives(instance, node)[0]
        if N > 2:
            g_node[1 : N - 1] -= np.log(np.maximum(node[1 : N - 1], EPS))

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
            return _objective_value(
                instance, node + gamma * d_node, edge + gamma * d_edge, _stirling
            )

        # f is +inf at the vertex exactly where it zeroes a positive Poisson count
        hi = 1.0 - 1e-9 if starved[v_node == 0].any() else 1.0
        res = minimize_scalar(
            along,
            bounds=(0.0, hi),
            method=_slope_search,
            options={
                "slope": _slope_along(instance, node, edge, d_node, d_edge),
                "x0": min(gamma, 0.5 * hi),
                "xatol": 1e-11,
            },
        )
        report.linesearch_evals += res.nit
        gamma = float(res.x)
        stepped = float(res.fun)
        if stepped > current:
            # line search failed to improve; direction is exhausted at
            # floating-point scale, stop without claiming convergence
            break
        node = node + gamma * d_node
        edge = edge + gamma * d_edge
        current = stepped

    report.wall_time = time.perf_counter() - t0
    return FractionalTables(node=node, edge=edge), report
