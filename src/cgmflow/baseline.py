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
those cells enter the step's value and derivative through a few sums taken
once per step.  Each evaluation then touches only the path's cells and the
Poisson-observed nodes: O(N) for Gaussian and unobserved nodes.  An
iteration's work over all cells is the gradient, those sums and the move.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GAUSSIAN,
    POISSON,
    CgmInstance,
    FractionalTables,
    _objective_value,
    _relaxed_objective,
    _xlogy,
    observation_cost,
)

__all__ = ["ApproxReport", "approx_objective", "solve_approximate"]

INF = math.inf
EPS = 1e-6  # entry floor inside gradient logs; keeps the search direction finite
LN_EPS = float(np.log(EPS))
XATOL = 1e-11  # line-search step size at which gamma counts as found
MAX_SLOPE_EVALS = 100  # bisection alone reaches XATOL from [0, 1] in 37
MAX_ITERS = 1000  # conditional-gradient steps before solve_approximate stops


def _stirling(z: np.ndarray) -> np.ndarray:
    return _xlogy(z, z) - z


class _Observations:
    """An instance's observation arrays and the constants derived from them, set once per solve.

    Poisson terms are core.observation_cost's; Gaussian terms are the
    quadratic (x - y)^2 / (2 var).  The Poisson-observed nodes (pois) are
    kept apart, because their terms are not quadratic in the counts.
    """

    __slots__ = ("y", "var", "gauss", "gauss_second", "pois", "poisson", "pois_y")

    def __init__(self, instance: CgmInstance):
        kind, self.y, self.var = instance.observation_arrays
        self.gauss = kind == GAUSSIAN
        # a Gaussian term's second derivative is the constant 1 / var
        self.gauss_second = np.where(self.gauss, 1.0 / self.var, 0.0)
        self.gauss_second.flags.writeable = False
        self.pois = kind == POISSON
        self.poisson = bool(self.pois.any())
        self.pois_y = self.y[self.pois]

    def derivatives(self, node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives of the observation terms at real-valued node counts."""
        first = np.where(self.gauss, (node - self.y) / self.var, 0.0)
        second = self.gauss_second
        if self.poisson:
            second = second.copy()
            first[self.pois], second[self.pois] = self.poisson_derivatives(node[self.pois])
        return first, second

    def poisson_derivatives(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives at the Poisson nodes' counts z, floored at EPS to stay finite at 0."""
        z = np.maximum(z, EPS)
        return 1.0 - self.pois_y / z, self.pois_y / (z * z)

    def gaussian_cost(self, node: np.ndarray) -> float:
        """Sum of the Gaussian terms (x - y)^2 / (2 var) at node counts x."""
        d = node - self.y
        return 0.5 * float(np.vdot(d * d, self.gauss_second))

    def poisson_cost(self, z: np.ndarray) -> float:
        """Sum of the Poisson terms at the Poisson nodes' counts z: +inf where z = 0 < y."""
        return float(observation_cost(POISSON, self.pois_y, 1.0, z).sum())


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


def _gradient(instance: CgmInstance, observed: _Observations, node: np.ndarray, edge: np.ndarray):
    """Gradient (g_node, g_edge) of the relaxed objective at x, and what the line search reuses.

    Logs inside the gradient are floored at EPS.  The third value holds
    ln x on the interior nodes and on the edges (0 where x = 0) and the
    observation derivatives h'(x) and h''(x), for _along_path.
    """
    N = instance.n_steps
    ln_edge = _log(edge)
    g_edge = np.where(edge > EPS, ln_edge, LN_EPS) - instance.log_potentials
    h1, h2 = observed.derivatives(node)
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
    return _relaxed_objective(instance, tables, _stirling)


def _along_path(
    instance: CgmInstance,
    observed: _Observations,
    node: np.ndarray,
    edge: np.ndarray,
    path: tuple,
    terms: tuple,
):
    """phi and gamma -> (phi'(gamma), phi''(gamma)) for phi(gamma) = f(x + gamma d).

    The step goes from x = (node, edge) toward the vertex v that puts the
    whole population M on the path's cells (_path_cells), so d = v - x.
    Off the path d = -x and z = (1 - gamma) x, so those cells enter through
    sums taken once here: X = sum x and L = sum x ln x over the edge cells (E)
    and the interior node cells (I), and P = sum x ln phi over E.  Their
    share of phi is (1 - gamma)(L_E - L_I - (X_E - X_I) + ln(1 - gamma)(X_E - X_I) - P),
    which is 0 at gamma = 1.  The derivative of the relaxed objective f along d is

        sum_e d_e (ln z_e - ln phi_e) - sum_interior d_n ln z_n + sum_n d_n h'(z_n)

    and phi'' is sum_e d_e^2 / z_e - sum_interior d_n^2 / z_n + sum_n d_n^2 h''(z_n),
    where the off-path cells give -ln(1 - gamma)(X_E - X_I) - (L_E - L_I) + P
    and (X_E - X_I) / (1 - gamma).  A Gaussian h is quadratic, so the other
    nodes add H + gamma a + gamma^2 b / 2 to phi and a + gamma b to phi', with
    H = sum h(x), a = sum d h'(x) and b = sum d^2 h''(x).  Each call then
    evaluates only the 2N - 3 path cells and the Poisson nodes.  terms is
    _gradient's third value at x.
    Cells with d = 0 add nothing to phi' and phi'' even where z = 0; every
    other z is positive for 0 < gamma < 1.
    """
    N, M = instance.n_steps, float(instance.population)
    ln_inner, ln_edge, h1, h2 = terms
    at_node, at_edge = path
    off_node = node.copy()
    off_node[at_node] = 0.0
    off_edge = edge.copy()
    off_edge[at_edge] = 0.0
    off_inner = off_node[1 : N - 1]
    off = float(off_edge.sum()) - float(off_inner.sum())
    ent = float(np.vdot(off_edge, ln_edge)) - float(np.vdot(off_inner, ln_inner))
    off_phi = float(np.vdot(off_edge, instance.log_potentials))
    shift = -off_phi

    # path cells as (sign, x, d, ln phi); edges count +, interior nodes -
    cells = []
    for x, log_phi in zip(edge[at_edge].tolist(), instance.log_potentials[at_edge].tolist()):
        if x != M:
            shift += (M - x) * log_phi
        cells.append((1.0, x, M - x, log_phi))
    cells += [(-1.0, x, M - x, 0.0) for x in node[at_node][1 : N - 1].tolist()]
    # those with d != 0, as (sign * d, x, d)
    moving = [(sign * dx, x, dx) for sign, x, dx, _ in cells if dx != 0.0]

    d = -off_node
    d[at_node] = M - node[at_node]
    gauss_cost = observed.gaussian_cost(node)
    poisson = observed.poisson
    if poisson:
        x_pois, d_pois = node[observed.pois], d[observed.pois]
        dd_pois = d_pois * d_pois
        # z = (1 - gamma) x + gamma v as _move forms it, exact off the path near gamma = 1
        v_pois = x_pois + d_pois
        d = np.where(observed.pois, 0.0, d)
    a = float(np.vdot(d, h1))
    b = float(np.vdot(d * d, h2))

    def value(gamma: float) -> float:
        total = gauss_cost + gamma * a + 0.5 * gamma * gamma * b
        if gamma < 1.0:
            total += (1.0 - gamma) * (ent - off + math.log1p(-gamma) * off - off_phi)
        for sign, x, dx, log_phi in cells:
            z = x + gamma * dx
            if z > 0.0:
                total += sign * (z * math.log(z) - z) - z * log_phi
        if poisson:
            total += observed.poisson_cost((1.0 - gamma) * x_pois + gamma * v_pois)
        return total

    def slope(gamma: float) -> tuple[float, float]:
        first = a + gamma * b - math.log1p(-gamma) * off - ent - shift
        second = b + off / (1.0 - gamma)
        for sd, x, dx in moving:
            z = x + gamma * dx
            first += sd * math.log(z)
            second += sd * dx / z
        if poisson:
            p1, p2 = observed.poisson_derivatives(x_pois + gamma * d_pois)
            first += float(d_pois @ p1)
            second += float(dd_pois @ p2)
        return first, second

    return value, slope


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
    """Conditional-gradient run record; objectives are Stirling values.

    objectives[-1], gap and gap_rel describe the returned tables.
    """

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


def _vertex(instance: CgmInstance, observed: _Observations, node: np.ndarray, edge: np.ndarray):
    """The linear minimization at x: the vertex's path of states, the duality gap and _gradient's terms."""
    g_node, g_edge, terms = _gradient(instance, observed, node, edge)
    states, cost = _cheapest_path(g_node, g_edge)
    # -gradient . (v - x), with v = M on the path's cells
    gap = float(np.vdot(g_node, node)) + float(np.vdot(g_edge, edge)) - instance.population * cost
    return states, gap, terms


def solve_approximate(
    instance: CgmInstance, tol: float = 1e-6, max_iters: int = MAX_ITERS
) -> tuple[FractionalTables, ApproxReport]:
    """Minimize the Stirling-relaxed objective by conditional gradient.

    Starts at the uniform feasible point, moves toward the vertex returned
    by a shortest-path linear minimization each step, and stops once the
    relative duality gap drops below tol; hitting max_iters first leaves
    report.converged False unless the returned tables' gap is within tol.
    Iterates stay feasible by construction (convex combinations of feasible
    points), so marginal residuals remain at floating-point scale.

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
    observed = _Observations(instance)
    starved_t, starved_r = np.nonzero(observed.pois & (observed.y > 0))

    current = _objective_value(instance, node, edge, _stirling)

    def certify(gap: float) -> bool:
        """Record the current iterate's objective and gap; True once the gap is within tol."""
        report.objectives.append(current)
        report.gap = gap
        report.gap_rel = gap / max(1.0, abs(current))
        report.converged = report.gap_rel <= tol
        return report.converged

    gamma = 0.5
    for _ in range(max_iters):
        report.iterations += 1
        states, gap, terms = _vertex(instance, observed, node, edge)
        if certify(gap):
            break
        path = _path_cells(states)
        value, slope = _along_path(instance, observed, node, edge, path, terms)
        # f is +inf at the vertex exactly where it zeroes a positive Poisson count
        off_path = starved_t.size and (states[starved_t] != starved_r).any()
        hi = 1.0 - 1e-9 if off_path else 1.0
        gamma, stepped, evals = minimize_scalar(value, slope, hi, min(gamma, 0.5 * hi))
        report.linesearch_evals += evals
        if stepped > value(0.0):
            # line search failed to improve; direction is exhausted at
            # floating-point scale, stop without claiming convergence
            break
        _move(node, edge, path, gamma, M)
        current = stepped
    else:
        # the cap stopped the loop: the report describes the tables returned
        certify(_vertex(instance, observed, node, edge)[1])

    report.wall_time = time.perf_counter() - t0
    return FractionalTables(node=node, edge=edge), report
