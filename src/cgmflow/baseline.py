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
those cells enter the step's derivatives through a few whole-table sums.
The same sums give the objective itself.  They are carried across steps:
taken over the tables once, at the start, and for each step formed in
O(N) from the path's cells, since the move scales every other cell by
1 - gamma.  The line search's setup and each evaluation then touch only
the path's cells and the Poisson-observed nodes, and the objective is
read off the sums; the solver never sums it over the tables.  An
iteration's work over all cells is the gradient, the shortest-path sweep,
the duality gap and the in-place move.
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
    _relaxed_objective,
    _xlogy,
    observation_cost,
)

__all__ = ["ApproxReport", "approx_objective", "solve_approximate"]

INF = math.inf
EPS = 1e-6  # entry floor inside gradient logs; keeps the search direction finite
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

    __slots__ = ("y", "var", "gauss", "gauss_second", "gauss_y_square", "pois", "poisson", "pois_y")

    def __init__(self, instance: CgmInstance):
        kind, self.y, self.var = instance.observation_arrays
        self.gauss = kind == GAUSSIAN
        # a Gaussian term's second derivative is the constant 1 / var
        self.gauss_second = np.where(self.gauss, 1.0 / self.var, 0.0)
        self.gauss_second.flags.writeable = False
        self.gauss_y_square = float(np.vdot(self.y * self.y, self.gauss_second))
        self.pois = kind == POISSON
        self.poisson = bool(self.pois.any())
        self.pois_y = self.y[self.pois]

    def derivative(self, node: np.ndarray) -> np.ndarray:
        """First derivative of the observation terms at real-valued node counts."""
        first = np.where(self.gauss, (node - self.y) / self.var, 0.0)
        if self.poisson:
            first[self.pois] = 1.0 - self.pois_y / np.maximum(node[self.pois], EPS)
        return first

    def poisson_derivatives(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives at the Poisson nodes' counts z, floored at EPS to stay finite at 0."""
        z = np.maximum(z, EPS)
        return 1.0 - self.pois_y / z, self.pois_y / (z * z)

    def poisson_cost(self, z: np.ndarray) -> float:
        """Sum of the Poisson terms at the Poisson nodes' counts z: +inf where z = 0 < y."""
        return float(observation_cost(POISSON, self.pois_y, 1.0, z).sum())


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


def _share(x_edge: list, log_phi: list, x_node: list, y: list, w: list) -> tuple:
    """The path cells' terms of each of _Sums' sums, in its slot order.

    x_edge and log_phi are the path's edge cells, x_node its node cells
    (interior: all but the first and last), y and w = 1 / var (0 off the
    Gaussian nodes) the observations at them.
    """
    edge_mass = edge_ent = edge_phi = inner_mass = inner_ent = square = cross = 0.0
    for x, log in zip(x_edge, log_phi):
        edge_mass += x
        if x > 0.0:
            edge_ent += x * math.log(x)
        edge_phi += x * log
    for x in x_node[1:-1]:
        inner_mass += x
        if x > 0.0:
            inner_ent += x * math.log(x)
    for x, obs, weight in zip(x_node, y, w):
        square += x * x * weight
        cross += x * obs * weight
    return edge_mass, edge_ent, edge_phi, inner_mass, inner_ent, square, cross


class _Sums:
    """Whole-table sums at one iterate x, from which _along_path and objective() read.

    Over the edge cells: mass sum x, entropy sum x ln x and sum x ln phi;
    over the interior node cells: mass and entropy; over the Gaussian nodes:
    sum x^2 / var and sum x y / var; and the Poisson nodes' counts (pois).
    of() sums them over the tables, once, at the start.  A step scales
    every cell off its path by c = 1 - gamma, so moved() scales each sum's
    off-path part by c (c^2 for x^2 / var; x ln x also gains c ln c times
    the off-path mass) and adds the path cells' new terms: O(N) a step.
    """

    __slots__ = (
        "edge_mass", "edge_ent", "edge_phi", "inner_mass", "inner_ent", "square", "cross",
        "pois", "_path", "_on_path",
    )

    def __init__(self, edge_mass, edge_ent, edge_phi, inner_mass, inner_ent, square, cross, pois):
        self.edge_mass, self.edge_ent, self.edge_phi = edge_mass, edge_ent, edge_phi
        self.inner_mass, self.inner_ent = inner_mass, inner_ent
        self.square, self.cross, self.pois = square, cross, pois
        self._path = None

    @classmethod
    def of(cls, instance: CgmInstance, observed: _Observations, node, edge) -> _Sums:
        """The sums over the tables x = (node, edge)."""
        inner = node[1 : instance.n_steps - 1]
        return cls(
            float(edge.sum()),
            float(_xlogy(edge, edge).sum()),
            float(np.vdot(edge, instance.log_potentials)),
            float(inner.sum()),
            float(_xlogy(inner, inner).sum()),
            float(np.vdot(node * node, observed.gauss_second)),
            float(np.vdot(node * observed.y, observed.gauss_second)),
            node[observed.pois],
        )

    def objective(self, observed: _Observations) -> float:
        """The relaxed objective f at x: +inf where a Poisson count is 0 under a positive observation.

        (sum_E x ln x - sum_E x) - sum_E x ln phi - (sum_I x ln x - sum_I x)
        plus the Gaussian terms (S - 2C + sum y^2 / var) / 2 and the Poisson terms.
        """
        total = (self.edge_ent - self.edge_mass) - self.edge_phi - (self.inner_ent - self.inner_mass)
        total += 0.5 * (self.square - 2.0 * self.cross + observed.gauss_y_square)
        if observed.poisson:
            total += observed.poisson_cost(self.pois)
        return total

    def on_path(self, instance, observed, node, edge, path: tuple) -> tuple:
        """The path's cells at x, as lists (x_edge, ln phi, x_node, y, 1 / var), and their _share.

        The result for the last path is kept, so a step's line-search setup
        and moved() read the path's cells once; x never changes under a
        _Sums, so it does not go stale.
        """
        if path is not self._path:
            at_node, at_edge = path
            cells = (
                edge[at_edge].tolist(),
                instance.log_potentials[at_edge].tolist(),
                node[at_node].tolist(),
                observed.y[at_node].tolist(),
                observed.gauss_second[at_node].tolist(),
            )
            self._path, self._on_path = path, (cells, _share(*cells))
        return self._on_path

    def moved(self, instance, observed, node, edge, path: tuple, gamma: float) -> _Sums:
        """The sums at (1 - gamma) x + gamma v, the tables _move makes; x itself stays."""
        (x_edge, log_phi, x_node, y, w), before = self.on_path(instance, observed, node, edge, path)
        c, step = 1.0 - gamma, gamma * instance.population
        # the path cells' new values, formed as _move forms them
        moved_edge, moved_node = [x * c + step for x in x_edge], [x * c + step for x in x_node]
        after = _share(moved_edge, log_phi, moved_node, y, w)
        c_ln_c = c * math.log(c) if c > 0.0 else 0.0
        edge_off = self.edge_mass - before[0]
        inner_off = self.inner_mass - before[3]
        pois = self.pois
        if observed.poisson:
            pois = pois * c
            pois[_poisson_on_path(observed, path)] += step
        return _Sums(
            c * edge_off + after[0],
            c * (self.edge_ent - before[1]) + c_ln_c * edge_off + after[1],
            c * (self.edge_phi - before[2]) + after[2],
            c * inner_off + after[3],
            c * (self.inner_ent - before[4]) + c_ln_c * inner_off + after[4],
            c * c * (self.square - before[5]) + after[5],
            c * (self.cross - before[6]) + after[6],
            pois,
        )


def _poisson_on_path(observed: _Observations, path: tuple) -> np.ndarray:
    """Which Poisson nodes the path visits, as a mask over observed.pois_y."""
    visited = np.zeros(observed.pois.shape, dtype=bool)
    visited[path[0]] = True
    return visited[observed.pois]


def _gradient(instance: CgmInstance, observed: _Observations, node: np.ndarray, edge: np.ndarray):
    """Gradient (g_node, g_edge) of the relaxed objective at x, with its logs floored at EPS."""
    N = instance.n_steps
    g_edge = np.log(np.maximum(edge, EPS)) - instance.log_potentials
    g_node = observed.derivative(node)
    g_node[1 : N - 1] -= np.log(np.maximum(node[1 : N - 1], EPS))
    return g_node, g_edge


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
    sums: _Sums,
):
    """gamma -> (phi'(gamma), phi''(gamma)) for phi(gamma) = f(x + gamma d).

    The step goes from x = (node, edge) toward the vertex v that puts the
    whole population M on the path's cells (_path_cells), so d = v - x.
    Off the path d = -x and z = (1 - gamma) x, so those cells enter through
    sums: X = sum x and L = sum x ln x over the edge cells (E) and the
    interior node cells (I), and P = sum x ln phi over E, each the carried
    whole-table sum (sums, the _Sums at x) minus the path cells' terms.
    The derivative of the relaxed objective f along d is

        sum_e d_e (ln z_e - ln phi_e) - sum_interior d_n ln z_n + sum_n d_n h'(z_n)

    and phi'' is sum_e d_e^2 / z_e - sum_interior d_n^2 / z_n + sum_n d_n^2 h''(z_n),
    where the off-path cells give -ln(1 - gamma)(X_E - X_I) - (L_E - L_I) + P
    and (X_E - X_I) / (1 - gamma).  A Gaussian h is quadratic, so the
    Gaussian nodes add a + gamma b to phi', with a = sum d h'(x) and
    b = sum d^2 h''(x), which follow from the carried S = sum x^2 / var and
    C = sum x y / var and the path's nodes.  Setup and each call then read
    only the 2N - 3 path cells and the Poisson nodes.
    Cells with d = 0 add nothing to phi' and phi'' even where z = 0; every
    other z is positive for 0 < gamma < 1.
    """
    N, M = instance.n_steps, float(instance.population)
    (x_edge, log_phi, x_node, y, w), share = sums.on_path(instance, observed, node, edge, path)
    edge_mass, edge_ent, edge_phi, inner_mass, inner_ent, _, _ = share
    off = (sums.edge_mass - edge_mass) - (sums.inner_mass - inner_mass)
    ent = (sums.edge_ent - edge_ent) - (sums.inner_ent - inner_ent)
    shift = edge_phi - sums.edge_phi

    # path cells with d != 0, as (sign * d, x, d); edges count +, interior nodes -
    moving = []
    for x, log in zip(x_edge, log_phi):
        if x != M:
            shift += (M - x) * log
            moving.append((M - x, x, M - x))
    moving += [(x - M, x, M - x) for x in x_node[1 : N - 1] if x != M]

    # Gaussian nodes, with w = 1 / var and d = M - x on the path, -x off it:
    # a = C - S + M sum_path (x - y) w and b = S + M sum_path (M - 2x) w
    a = sums.cross - sums.square
    b = sums.square
    for x, obs, weight in zip(x_node, y, w):
        a += M * (x - obs) * weight
        b += M * (M - 2.0 * x) * weight
    poisson = observed.poisson
    if poisson:
        x_pois = sums.pois
        d_pois = np.where(_poisson_on_path(observed, path), M, 0.0) - x_pois
        dd_pois = d_pois * d_pois

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

    return slope


def minimize_scalar(slope, hi: float, x0: float) -> tuple[float, int]:
    """Minimize a convex function over [0, hi] by the root of its derivative.

    Returns (gamma, derivative evaluations).  slope(gamma) gives the
    function's first and second derivatives; the first is negative at 0.
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
    return gamma, evals


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
    """The linear minimization at x: the vertex's path of states and the duality gap."""
    g_node, g_edge = _gradient(instance, observed, node, edge)
    states, cost = _cheapest_path(g_node, g_edge)
    # -gradient . (v - x), with v = M on the path's cells
    gap = float(np.vdot(g_node, node)) + float(np.vdot(g_edge, edge)) - instance.population * cost
    return states, gap


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

    Raises ValueError for a negative max_iters and for a tol that is
    negative or NaN.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    t0 = time.perf_counter()
    N, R, M = instance.n_steps, instance.n_states, instance.population
    node = np.full((N, R), M / R)
    edge = np.full((max(N - 1, 0), R, R), M / (R * R))
    report = ApproxReport(tol=tol)
    observed = _Observations(instance)
    starved_t, starved_r = np.nonzero(observed.pois & (observed.y > 0))

    sums = _Sums.of(instance, observed, node, edge)
    current = sums.objective(observed)

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
        states, gap = _vertex(instance, observed, node, edge)
        if certify(gap):
            break
        path = _path_cells(states)
        slope = _along_path(instance, observed, node, edge, path, sums)
        # f is +inf at the vertex exactly where it zeroes a positive Poisson count
        off_path = starved_t.size and (states[starved_t] != starved_r).any()
        hi = 1.0 - 1e-9 if off_path else 1.0
        gamma, evals = minimize_scalar(slope, hi, min(gamma, 0.5 * hi))
        report.linesearch_evals += evals
        after = sums.moved(instance, observed, node, edge, path, gamma)
        stepped = after.objective(observed)
        if stepped > current:
            # line search failed to improve; direction is exhausted at
            # floating-point scale, stop without claiming convergence
            break
        _move(node, edge, path, gamma, M)
        sums, current = after, stepped
    else:
        # the cap stopped the loop: the report describes the tables returned
        certify(_vertex(instance, observed, node, edge)[1])

    report.wall_time = time.perf_counter() - t0
    return FractionalTables(node=node, edge=edge), report
