"""Quality reference and output checks, computed apart from cgmflow.

The collective model behind an instance: M individuals walk a chain over
n_steps steps with transition weights phi, so the count tables have prior

    p(n) = M! / Z^M * prod_edges phi^n / n! * prod_interior n!

and each observed count y ~ Normal(n, var).  ``neg_log_joint`` evaluates
-log p(n, y) with ``scipy.special.gammaln`` for ln z! and a forward
log-sum-exp over log phi for log Z.  It reads only the instance's arrays
and never calls the program's objective, so comparing the two checks the
program's objective and the constants it drops.

The check functions return a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

REL_TOL = 1e-9  # reference vs program, and the DCA monotonicity slack
CERT_TOL = 1e-9  # smallest allowed reduced cost in an optimality certificate
FRACTIONAL_TOL = 1e-6  # polytope residual allowed for relaxed tables


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    top = x.max(axis=axis)
    return top + np.log(np.exp(x - np.expand_dims(top, axis)).sum(axis=axis))


def log_partition(log_phi: np.ndarray, n_states: int) -> float:
    """log Z = log of the sum over all state paths of the product of phi."""
    alpha = np.zeros(n_states)
    for step in log_phi:
        alpha = _log_sum_exp(alpha[:, None] + step, axis=0)
    return float(_log_sum_exp(alpha, axis=0))


def _ln_factorial(z: np.ndarray, fractional: bool) -> np.ndarray:
    """gammaln(z + 1), linearly interpolated between integers if fractional."""
    z = np.asarray(z, dtype=float)
    if not fractional:
        return gammaln(z + 1.0)
    lo = np.floor(z)
    w = z - lo
    return (1.0 - w) * gammaln(lo + 1.0) + w * gammaln(lo + 2.0)


def _gaussian_variances(instance) -> np.ndarray:
    """Per-node noise variance, NaN where the node is unobserved."""
    var = np.full((instance.n_steps, instance.n_states), np.nan)
    for t, row in enumerate(instance.noise):
        for i, model in enumerate(row):
            if model is None:
                continue
            if not hasattr(model, "var"):
                raise ValueError(f"reference handles Gaussian noise only, got {model!r}")
            var[t, i] = model.var
    return var


def neg_log_prior(instance, node, edge, fractional: bool = False) -> float:
    """-log p(n): the count-table prior of the collective model."""
    M = instance.population
    log_phi = np.log(np.asarray(instance.potentials, dtype=float))
    edge = np.asarray(edge, dtype=float)
    node = np.asarray(node, dtype=float)
    value = M * log_partition(log_phi, instance.n_states) - float(gammaln(M + 1.0))
    value += float((_ln_factorial(edge, fractional) - edge * log_phi).sum())
    value -= float(_ln_factorial(node[1 : instance.n_steps - 1], fractional).sum())
    return value


def neg_log_likelihood(instance, node) -> float:
    """-log p(y | n) of the observed nodes, normalisation included."""
    var = _gaussian_variances(instance)
    seen = ~np.isnan(var)
    y = np.asarray(instance.observations, dtype=float)[seen]
    d = y - np.asarray(node, dtype=float)[seen]
    v = var[seen]
    return float((d * d / (2.0 * v) + 0.5 * np.log(2.0 * math.pi * v)).sum())


def neg_log_joint(instance, node, edge, fractional: bool = False) -> float:
    """-log p(n, y); ``fractional`` interpolates ln z! as the relaxation does."""
    return neg_log_prior(instance, node, edge, fractional) + neg_log_likelihood(
        instance, node
    )


def dropped_constants(instance) -> float:
    """What the program's objective omits: M log Z - log M! + sum 1/2 log(2 pi var)."""
    var = _gaussian_variances(instance)
    log_phi = np.log(np.asarray(instance.potentials, dtype=float))
    M = instance.population
    return (
        M * log_partition(log_phi, instance.n_states)
        - float(gammaln(M + 1.0))
        + float(0.5 * np.log(2.0 * math.pi * var[~np.isnan(var)]).sum())
    )


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def table_problems(instance, node, edge, integral: bool, tol: float = 0.0) -> list:
    """Polytope checks: shape, integrality, sign, population and marginals."""
    node = np.asarray(node, dtype=float)
    edge = np.asarray(edge, dtype=float)
    N, R, M = instance.n_steps, instance.n_states, instance.population
    if node.shape != (N, R) or edge.shape != (max(N - 1, 0), R, R):
        return [f"table shapes {node.shape} and {edge.shape} do not fit the instance"]
    problems = []
    if integral and not (
        np.array_equal(node, np.rint(node)) and np.array_equal(edge, np.rint(edge))
    ):
        problems.append("tables are not integral")
    if node.min() < -tol or (edge.size and edge.min() < -tol):
        problems.append("tables have a negative entry")
    if np.abs(node.sum(axis=1) - M).max() > tol:
        problems.append("a step does not hold the whole population")
    if edge.size:
        if np.abs(edge.sum(axis=2) - node[:-1]).max() > tol:
            problems.append("transition rows do not sum to the node counts")
        if np.abs(edge.sum(axis=1) - node[1:]).max() > tol:
            problems.append("transition columns do not sum to the next node counts")
    return problems


def check_dca(instance, tables, report, program_objective: float) -> tuple[list, float]:
    """Checks one exact solve; returns (problems, -log p(n, y) of its tables)."""
    problems = table_problems(instance, tables.node, tables.edge, integral=True)
    traj = list(report.objectives)
    if not traj:
        problems.append("empty DCA trajectory")
    for before, after in zip(traj, traj[1:]):
        if after > before + REL_TOL * max(1.0, abs(before)):
            problems.append(f"DCA trajectory rises from {before!r} to {after!r}")
            break
    worst = min((s.min_reduced_cost for s in report.inner_stats), default=0.0)
    if worst < -CERT_TOL:
        problems.append(f"optimality certificate fails: min reduced cost {worst!r}")
    if problems:
        return problems, math.nan
    nlj = neg_log_joint(instance, tables.node, tables.edge)
    const = dropped_constants(instance)
    if not close(nlj, program_objective + const):
        problems.append(
            f"-log p(n, y) {nlj!r} differs from objective + constants "
            f"{program_objective + const!r}"
        )
    if not close(nlj - const, min(traj)):
        problems.append(f"returned tables are not the best iterate {min(traj)!r}")
    return problems, nlj


def check_relax(instance, tables, program_objective: float) -> tuple[list, float]:
    """Checks one relaxed solve against the interpolated-factorial reference."""
    problems = table_problems(
        instance, tables.node, tables.edge, integral=False, tol=FRACTIONAL_TOL
    )
    if not math.isfinite(program_objective):
        problems.append(f"relaxed objective is {program_objective!r}")
    if problems:
        return problems, math.nan
    nlj = neg_log_joint(instance, tables.node, tables.edge, fractional=True)
    const = dropped_constants(instance)
    if not close(nlj, program_objective + const):
        problems.append(
            f"interpolated -log p(n, y) {nlj!r} differs from objective_fractional "
            f"+ constants {program_objective + const!r}"
        )
    return problems, nlj
