"""Approximate solver: Stirling's approximation plus continuous relaxation.

Replacing every log z! by z log z - z makes the objective convex over the
relaxed (real-valued) marginal polytope.  Its minimizer is fractional, and
dense where counts are small, which is where Stirling's error is largest.

On a chain the relaxation is solved through its dual.  With x = M mu for
marginals mu, the Stirling terms of the edges less those of the interior
nodes are M ln M - M less M times the chain's entropy H(mu), which on a
chain is exactly its Bethe form.  So the relaxed objective is

    f = M ln M - M - M (H(mu) + sum_e mu_e ln phi_e) + sum_n h_n(x_n).

Writing each observation term through its convex conjugate,
h_n(x) = max_lam (lam x - h*_n(lam)), and minimizing over mu first leaves
a smooth concave dual in one multiplier per node,

    D(lam) = -M ln Z(lam) + M ln M - M - sum_n h*_n(lam_n),

where Z(lam) is the chain's partition function with node factors
exp(-lam_n).  One log-space forward-backward pass gives ln Z(lam) and the
marginals mu(lam); the gradient is M mu_n - h*_n'(lam_n).  Per node kind:

    Gaussian        h* = y lam + var lam^2 / 2
    Poisson, y > 0  h* = -y + y ln y - ln y! - y ln(1 - lam), for lam < 1
    Poisson, y = 0  lam = 1, fixed: h* is 0 up to 1, where D is still rising
    missing         lam = 0, fixed: h* is finite there alone

Every x(lam) = M mu(lam) is strictly positive and feasible, so by weak
duality f(x(lam)) - D(lam) >= 0 bounds its distance to the optimum: that
is the solver's duality gap.  The solver ascends D by L-BFGS with
backtracking.  An instance with one step has no edges and no entropy term;
it is solved by bisection on the simplex multiplier (_single_step).
"""

from __future__ import annotations

import math
import time
from collections import deque
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
    log_factorial_array,
    observation_cost,
)

__all__ = ["ApproxReport", "approx_objective", "solve_approximate"]

INF = math.inf
MAX_ITERS = 1000  # quasi-Newton steps before solve_approximate stops
MEMORY = 10  # curvature pairs the L-BFGS direction keeps
ARMIJO = 1e-4  # share of the predicted rise in D a step must reach
MAX_TRIALS = 60  # line-search evaluations, step 1 halved down to 2^-59


def _stirling(z: np.ndarray) -> np.ndarray:
    return _xlogy(z, z) - z


def approx_objective(instance: CgmInstance, tables: FractionalTables) -> float:
    """Objective with every log z! replaced by z log z - z (0 at z = 0).

    Observation terms are evaluated at real-valued counts; a Poisson term
    with a positive observation diverges to +inf as its count reaches 0.
    """
    return _relaxed_objective(instance, tables, _stirling)


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    top = x.max(axis=axis)
    return top + np.log(np.exp(x - np.expand_dims(top, axis)).sum(axis=axis))


def _chain(log_phi: np.ndarray, lam: np.ndarray, M: float):
    """(ln Z, node, edge): the chain with node factors exp(-lam) and its tables M * marginals.

    The node tables are the edge tables' row sums, and the last step's
    their column sums, so the marginal equalities hold to rounding.
    """
    fwd = np.empty_like(lam)
    bwd = np.empty_like(lam)
    fwd[0] = -lam[0]
    for t in range(len(log_phi)):
        fwd[t + 1] = _log_sum_exp(fwd[t][:, None] + log_phi[t], axis=0) - lam[t + 1]
    bwd[-1] = 0.0
    for t in reversed(range(len(log_phi))):
        bwd[t] = _log_sum_exp(log_phi[t] + (bwd[t + 1] - lam[t + 1]), axis=1)
    log_z = float(_log_sum_exp(fwd[-1], axis=0))
    edge = np.exp(fwd[:-1, :, None] + log_phi + (bwd[1:] - lam[1:] - log_z)[:, None, :])
    edge *= M
    node = np.empty_like(lam)
    node[:-1] = edge.sum(axis=2)
    node[-1] = edge[-1].sum(axis=0)
    return log_z, node, edge


class _Observations:
    """The free multipliers of an instance's dual and the conjugates h* of their terms.

    free lists the Gaussian nodes' flat indices, then the positive Poisson
    nodes'; fixed holds every node's multiplier off them (1 at a Poisson
    y = 0, 0 at a missing node).
    """

    __slots__ = ("free", "fixed", "n_gauss", "y", "var", "constant")

    def __init__(self, instance: CgmInstance):
        shape = (instance.n_steps, instance.n_states)
        kind, y, var = (a.ravel() for a in instance.observation_arrays)
        poisson = kind == POISSON
        gauss = np.flatnonzero(kind == GAUSSIAN)
        pois = np.flatnonzero(poisson & (y > 0))
        self.free = np.concatenate([gauss, pois])
        self.fixed = np.where(poisson & (y == 0), 1.0, 0.0).reshape(shape)
        self.n_gauss = gauss.size
        self.y, self.var = y[self.free], var[gauss]
        pois_y = y[pois]
        self.constant = float(
            (_xlogy(pois_y, pois_y) - pois_y - log_factorial_array(pois_y.astype(np.int64))).sum()
        )

    def conjugate(self, lam: np.ndarray):
        """(sum of h*, h*', h*'') at the free multipliers lam, or None where a Poisson lam >= 1."""
        g = self.n_gauss
        rest = 1.0 - lam[g:]
        if not (rest > 0.0).all():
            return None
        y_g, y_p, lam_g = self.y[:g], self.y[g:], lam[:g]
        value = float(y_g @ lam_g) + 0.5 * float(self.var @ (lam_g * lam_g))
        value += self.constant - float(y_p @ np.log(rest))
        first = np.concatenate([y_g + self.var * lam_g, y_p / rest])
        second = np.concatenate([self.var, y_p / (rest * rest)])
        return value, first, second


@dataclass(slots=True)
class _Point:
    """One evaluation of the dual at the free multipliers lam, with the tables x(lam).

    curvature is a diagonal estimate of -D's Hessian: h*'' plus the
    diagonal of M times the node indicators' covariance.
    """

    lam: np.ndarray
    dual: float
    grad: np.ndarray
    curvature: np.ndarray
    node: np.ndarray
    edge: np.ndarray


def _evaluate(instance: CgmInstance, observed: _Observations, lam: np.ndarray):
    """The _Point at the free multipliers lam, or None outside D's domain."""
    conjugate = observed.conjugate(lam)
    if conjugate is None:
        return None
    value, first, second = conjugate
    M = float(instance.population)
    full = observed.fixed.copy()
    full.flat[observed.free] = lam
    log_z, node, edge = _chain(instance.log_potentials, full, M)
    x = node.flat[observed.free]
    dual = M * (math.log(M) - 1.0 - log_z) - value
    return _Point(lam, dual, x - first, second + x * (1.0 - x / M), node, edge)


def _direction(point: _Point, pairs) -> np.ndarray:
    """The L-BFGS ascent direction: the two-loop recursion over pairs from 1 / curvature."""
    q = point.grad.copy()
    scales = []
    for s, y, rho in reversed(pairs):
        scales.append(rho * float(s @ q))
        q -= scales[-1] * y
    q /= point.curvature
    for (s, y, rho), a in zip(pairs, reversed(scales)):
        q += (a - rho * float(y @ q)) * s
    return q


def minimize_scalar(trial, dual: float, rise: float):
    """Backtracking line search on phi(t) = -D at step t: (the point reached, evaluations).

    trial(t) gives the _Point a step of length t reaches, None outside
    D's domain; dual is D at t = 0 and rise its slope there, positive.
    Steps t = 1, 1/2, 1/4, ... are tried until D rises by at least
    ARMIJO t rise, and strictly; after MAX_TRIALS the point is None.

    The name stays fixed: perfbench wraps it as its baseline.linesearch span.
    """
    t = 1.0
    for evals in range(1, MAX_TRIALS + 1):
        point = trial(t)
        if point is not None and point.dual > dual and point.dual >= dual + ARMIJO * t * rise:
            return point, evals
        t *= 0.5
    return None, MAX_TRIALS


def _single_step(instance: CgmInstance):
    """(node, D): the relaxed optimum of an instance with one step, and a dual bound on it.

    With no edges f = sum_n h_n(x_n) on {x >= 0, sum x = M}.  At the
    simplex multiplier nu each node takes the x that minimizes
    h_n(x) - nu x: max(0, y + var nu) at a Gaussian node and y / (1 - nu)
    at a Poisson node with y > 0, both rising in nu.  The flat kinds take
    no mass below their break value and any mass at it: a missing node
    (h = 0) at nu = 0 and a Poisson y = 0 node (h = x) at nu = 1.  So nu
    stops at the lowest break value present if the rising nodes take less
    than M there, and the flat nodes of that kind share the leftover
    equally; otherwise bisection finds the nu where the rising nodes take
    M, and their counts are scaled to sum to M exactly.
    D(nu) = nu M + sum_n min_x (h_n(x) - nu x).
    """
    kind, y, var = (a[0] for a in instance.observation_arrays)
    M = float(instance.population)
    gauss = kind == GAUSSIAN
    pois = (kind == POISSON) & (y > 0)
    missing, empty = kind == 0, (kind == POISSON) & (y == 0)
    flat = missing if missing.any() else empty
    cap = 0.0 if missing.any() else 1.0 if empty.any() else INF

    def taken(nu: float) -> np.ndarray:
        x = np.zeros(y.shape)
        x[gauss] = np.maximum(0.0, y[gauss] + var[gauss] * nu)
        x[pois] = y[pois] / (1.0 - nu)
        return x

    # taken(cap) is finite unless a positive Poisson node meets cap = 1
    finite_at_cap = cap == 0.0 or (cap == 1.0 and not pois.any())
    if finite_at_cap and taken(cap).sum() <= M:
        nu = cap
        rising = taken(nu)
        node = rising.copy()
        node[flat] += (M - rising.sum()) / np.count_nonzero(flat)
    else:
        hi = min(cap, 1.0) if pois.any() else cap
        if hi == INF:
            hi = 1.0
            while taken(hi).sum() < M:
                hi *= 2.0
        lo = -1.0
        while taken(lo).sum() > M:
            lo *= 2.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if taken(mid).sum() > M:
                hi = mid
            else:
                lo = mid
        nu = lo
        rising = taken(nu)
        node = rising * (M / rising.sum())
    # the flat kinds add 0 to D at nu <= cap
    return node, nu * M + float((observation_cost(kind, y, var, rising) - nu * rising).sum())


@dataclass(slots=True)
class ApproxReport:
    """Dual-ascent run record; objectives are Stirling values, one per iterate.

    objectives[-1], gap and gap_rel describe the returned tables: gap is
    their objective less the dual value that bounds the optimum from below.
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


def solve_approximate(
    instance: CgmInstance, tol: float = 1e-6, max_iters: int = MAX_ITERS
) -> tuple[FractionalTables, ApproxReport]:
    """Minimize the Stirling-relaxed objective through its chain dual.

    L-BFGS (MEMORY pairs, scaled by the diagonal curvature estimate) ascends
    D from lam = 0.  Each iteration certifies the tables x(lam): it records
    f(x(lam)) and the gap f(x(lam)) - D(lam), and stops once gap_rel is
    within tol.  Otherwise the backtracking line search (minimize_scalar)
    takes a step that raises D, keeping every Poisson lam below 1;
    report.linesearch_evals counts its dual evaluations.  A line search
    that cannot raise D stops the solve, and so does max_iters; either
    leaves report.converged False unless the returned tables' gap is
    within tol.  An instance with one step is solved by _single_step, with
    no iterations.

    Raises ValueError for a negative max_iters and for a tol that is
    negative or NaN.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    t0 = time.perf_counter()
    report = ApproxReport(tol=tol)

    def certify(node: np.ndarray, edge: np.ndarray, dual: float) -> bool:
        """Record the tables' objective and gap; True once the gap is within tol."""
        current = _objective_value(instance, node, edge, _stirling)
        report.objectives.append(current)
        report.gap = current - dual
        report.gap_rel = report.gap / max(1.0, abs(current)) if current < INF else INF
        report.converged = report.gap_rel <= tol
        return report.converged

    if instance.n_steps == 1:
        node, dual = _single_step(instance)
        node, edge = node[None, :], np.zeros((0, instance.n_states, instance.n_states))
        certify(node, edge, dual)
        report.wall_time = time.perf_counter() - t0
        return FractionalTables(node=node, edge=edge), report

    observed = _Observations(instance)
    point = _evaluate(instance, observed, np.zeros(observed.free.size))
    pairs = deque(maxlen=MEMORY)
    for _ in range(max_iters):
        report.iterations += 1
        if certify(point.node, point.edge, point.dual):
            break
        step = _direction(point, pairs)
        rise = float(point.grad @ step)
        if not rise > 0.0:
            break
        moved, evals = minimize_scalar(
            lambda t, lam=point.lam, step=step: _evaluate(instance, observed, lam + t * step),
            point.dual,
            rise,
        )
        report.linesearch_evals += evals
        if moved is None:
            break
        s, y = moved.lam - point.lam, point.grad - moved.grad
        if float(s @ y) > 0.0:
            pairs.append((s, y, 1.0 / float(s @ y)))
        point = moved
    else:
        # the cap stopped the loop: the report describes the tables returned
        certify(point.node, point.edge, point.dual)

    report.wall_time = time.perf_counter() - t0
    return FractionalTables(node=point.node, edge=point.edge), report
