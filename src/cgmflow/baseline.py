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
than a search on objective values.  A step goes from x toward a vertex v,
the whole population on one path, so off that path z = (1 - gamma) x and
those cells enter the derivative through a few sums taken once per step.
Each derivative evaluation then touches only the path's cells and the
Poisson-observed nodes: O(N) for Gaussian and unobserved nodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
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
LN_EPS = float(np.log(EPS))
XATOL = 1e-11  # line-search step size at which gamma counts as found
MAX_SLOPE_EVALS = 100  # bisection alone reaches XATOL from [0, 1] in 37


def _stirling(z: np.ndarray) -> np.ndarray:
    return xlogy(z, z) - z


def _observation_derivatives(kind, y, var, node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of the observation terms at real-valued node counts.

    kind, y and var are observation arrays (CgmInstance.observation_arrays or
    a selection of them) matching node.  Poisson counts are floored at EPS,
    which keeps both finite at a zero count.
    """
    gauss = kind == GAUSSIAN
    first = np.where(gauss, (node - y) / var, 0.0)
    second = np.where(gauss, 1.0 / var, 0.0)
    pois = kind == POISSON
    if pois.any():
        z = np.maximum(node, EPS)
        first = np.where(pois, 1.0 - y / z, first)
        second = np.where(pois, y / (z * z), second)
    return first, second


def _log(x: np.ndarray) -> np.ndarray:
    """ln x elementwise, with 0 where x is 0, so that x ln x is 0 there."""
    return np.log(x, out=np.zeros_like(x), where=x > 0)


def _path_cells(states: np.ndarray) -> tuple[tuple, tuple]:
    """Index tuples of the node cells and the edge cells a path of states visits."""
    steps = np.arange(len(states))
    return (steps, states), (steps[:-1], states[:-1], states[1:])


def _move(node: np.ndarray, edge: np.ndarray, path: tuple, gamma: float, mass: float):
    """Replace x by (1 - gamma) x + gamma v in place, v being mass on the path's cells."""
    at_node, at_edge = path
    node *= 1.0 - gamma
    node[at_node] += gamma * mass
    edge *= 1.0 - gamma
    edge[at_edge] += gamma * mass
    return node, edge


def _gradient(instance: CgmInstance, node: np.ndarray, edge: np.ndarray):
    """Gradient (g_node, g_edge) of the relaxed objective at x, and what the line search reuses.

    Logs inside the gradient are floored at EPS.  The third value holds
    ln x on the interior nodes and on the edges (0 where x = 0) and the
    observation derivatives h'(x) and h''(x), for _slope_along.
    """
    N = instance.n_steps
    ln_edge = _log(edge)
    g_edge = np.where(edge > EPS, ln_edge, LN_EPS) - instance.log_potentials
    h1, h2 = _observation_derivatives(*instance.observation_arrays, node)
    inner = node[1 : N - 1]
    ln_inner = _log(inner)
    g_node = h1.copy()
    g_node[1 : N - 1] -= np.where(inner > EPS, ln_inner, LN_EPS)
    return g_node, g_edge, (ln_inner, ln_edge, h1, h2)


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
    states: np.ndarray,
    terms: tuple,
):
    """gamma -> (phi'(gamma), phi''(gamma)) for phi(gamma) = f(x + gamma d).

    The step goes from x = (node, edge) toward the vertex v that puts the
    whole population M on the path of states, so d = v - x.  With
    z = x + gamma d, the derivative of the relaxed objective f along d is

        sum_e d_e (ln z_e - ln phi_e) - sum_interior d_n ln z_n + sum_n d_n h'(z_n)

    and phi'' is sum_e d_e^2 / z_e - sum_interior d_n^2 / z_n + sum_n d_n^2 h''(z_n).
    Off the path d = -x and ln z = ln(1 - gamma) + ln x, so those cells enter
    through sums taken once here: X = sum x and L = sum x ln x over the edge
    cells (E) and the interior node cells (I) give the terms
    -ln(1 - gamma)(X_E - X_I) - (L_E - L_I) and (X_E - X_I) / (1 - gamma).
    A Gaussian h' is linear, so the other nodes add a + gamma b with
    a = sum d h'(x) and b = sum d^2 h''(x).  Each call then evaluates only
    the 2N - 3 path cells and the Poisson nodes.  terms is _gradient's third
    value at x.
    Cells with d = 0 contribute exactly 0 even where z = 0; every other z is
    positive for 0 < gamma < 1.
    """
    N, M = instance.n_steps, float(instance.population)
    ln_inner, ln_edge, h1, h2 = terms
    at_node, at_edge = _path_cells(states)
    off_node = node.copy()
    off_node[at_node] = 0.0
    off_edge = edge.copy()
    off_edge[at_edge] = 0.0
    off_inner = off_node[1 : N - 1]
    off = float(off_edge.sum()) - float(off_inner.sum())
    ent = float(np.vdot(off_edge, ln_edge)) - float(np.vdot(off_inner, ln_inner))
    shift = -float(np.vdot(off_edge, instance.log_potentials))

    # path cells with d != 0, as (sign * d, x, d); edges count +, interior nodes -
    cells = []
    for x, log_phi in zip(edge[at_edge].tolist(), instance.log_potentials[at_edge].tolist()):
        if x != M:
            shift += (M - x) * log_phi
            cells.append((M - x, x, M - x))
    for x in node[at_node][1 : N - 1].tolist():
        if x != M:
            cells.append((x - M, x, M - x))

    observed = instance.observation_arrays
    d = -off_node
    d[at_node] = M - node[at_node]
    pois = observed[0] == POISSON
    poisson = bool(pois.any())
    if poisson:
        observed = [values[pois] for values in observed]
        x_pois, d_pois = node[pois], d[pois]
        dd_pois = d_pois * d_pois
        d = np.where(pois, 0.0, d)
    a = float(np.vdot(d, h1))
    b = float(np.vdot(d * d, h2))

    def slope(gamma: float) -> tuple[float, float]:
        first = a + gamma * b - math.log1p(-gamma) * off - ent - shift
        second = b + off / (1.0 - gamma)
        for sd, x, dx in cells:
            z = x + gamma * dx
            first += sd * math.log(z)
            second += sd * dx / z
        if poisson:
            p1, p2 = _observation_derivatives(*observed, x_pois + gamma * d_pois)
            first += float(d_pois @ p1)
            second += float(dd_pois @ p2)
        return first, second

    return slope


def minimize_scalar(along, slope, hi: float, x0: float) -> tuple[float, float, int]:
    """Minimize a convex along over [0, hi] by the root of its derivative.

    Returns (gamma, along(gamma), derivative evaluations).  slope(gamma)
    gives along's first and second derivatives; the first is negative at 0.
    Newton steps from x0 shrink the bracket [lo, hi] by the sign of each
    derivative; a step that leaves the bracket is replaced by its midpoint.
    hi itself is never evaluated, and the search stops once a step moves
    less than XATOL.

    The name stays fixed: perfbench wraps it as its baseline.linesearch span.
    """
    lo = 0.0
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
        if moved < XATOL:
            break
    return gamma, along(gamma), evals


@dataclass(slots=True)
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


def _cheapest_path(g_node: np.ndarray, g_edge: np.ndarray) -> tuple[np.ndarray, float]:
    """States of the minimum-total-gradient source-to-sink path, one per step, and that total."""
    columns = np.arange(g_node.shape[1])
    dist = g_node[0]
    back = []
    for t in range(len(g_node) - 1):
        through = dist[:, None] + g_edge[t]
        best = through.argmin(axis=0)
        back.append(best)
        dist = through[best, columns] + g_node[t + 1]
    state = int(dist.argmin())
    cost = float(dist[state])
    states = [state]
    for best in reversed(back):
        state = int(best[state])
        states.append(state)
    return np.array(states[::-1]), cost


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
    is never evaluated, and the search stops once a step moves less than XATOL.
    report.linesearch_evals counts the derivative evaluations.
    """
    t0 = time.perf_counter()
    N, R, M = instance.n_steps, instance.n_states, instance.population
    node = np.full((N, R), M / R)
    edge = np.full((max(N - 1, 0), R, R), M / (R * R))
    report = ApproxReport(tol=tol)
    kind, y, _ = instance.observation_arrays
    starved_t, starved_r = np.nonzero((kind == POISSON) & (y > 0))

    current = _objective_value(instance, node, edge, _stirling)
    gamma = 0.5
    for _ in range(max_iters):
        report.iterations += 1
        g_node, g_edge, terms = _gradient(instance, node, edge)
        states, cost = _cheapest_path(g_node, g_edge)
        path = _path_cells(states)
        # -gradient . (v - x), with v = M on the path's cells
        gap = float(np.vdot(g_node, node)) + float(np.vdot(g_edge, edge)) - M * cost
        report.gap = gap
        report.gap_rel = gap / max(1.0, abs(current))
        report.objectives.append(current)
        if report.gap_rel <= tol:
            report.converged = True
            break

        def along(gamma: float) -> float:
            z_node, z_edge = _move(node.copy(), edge.copy(), path, gamma, M)
            return _objective_value(instance, z_node, z_edge, _stirling)

        # f is +inf at the vertex exactly where it zeroes a positive Poisson count
        off_path = starved_t.size and (states[starved_t] != starved_r).any()
        hi = 1.0 - 1e-9 if off_path else 1.0
        gamma, stepped, evals = minimize_scalar(
            along,
            _slope_along(instance, node, edge, states, terms),
            hi,
            min(gamma, 0.5 * hi),
        )
        report.linesearch_evals += evals
        if stepped > current:
            # line search failed to improve; direction is exhausted at
            # floating-point scale, stop without claiming convergence
            break
        _move(node, edge, path, gamma, M)
        current = stepped

    report.wall_time = time.perf_counter() - t0
    return FractionalTables(node=node, edge=edge), report
