"""Domain types and objective evaluation for MAP inference on path-graph count models.

The decision variable is a pair of count tables (per-step state counts and
per-transition counts) constrained to the integer marginal polytope: every
node table sums to the total population and edge tables reproduce the node
tables as row/column marginals.  The negative log posterior decomposes into
three families of separable terms:

    transition terms   f(z) = log z! - z * log(phi)     (discrete convex)
    interior terms     g(z) = -log z!                   (discrete concave)
    observation terms  h(z) = -log p(y | z)             (discrete convex)

The observation term has one implementation, ``observation_cost``, which
evaluates it elementwise from per-node (or per-arc) arrays of kind, y and
variance; every objective, the relaxation baseline's included, the flow
network's arc costs and the oracle call it.  The baseline's dual ascent
and its one-step solve never do: they work through the terms' conjugates.
The three families are summed in one place, ``_objective_value``, which
takes the ln z! to use: ``objective`` passes the exact table,
``objective_fractional`` its linear interpolation and the relaxation
baseline Stirling's approximation.

Constant shifts (log M!, the partition function, Gaussian normalization) are
dropped throughout; they do not move the argmin and every solver in this
package reports objectives under the same convention.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Gaussian",
    "Poisson",
    "MISSING",
    "NoiseModel",
    "GAUSSIAN",
    "POISSON",
    "CgmInstance",
    "ContingencyTables",
    "FractionalTables",
    "Violation",
    "log_factorial",
    "log_factorial_array",
    "f_cost",
    "g_cost",
    "h_cost",
    "observation_cost",
    "objective",
    "objective_fractional",
    "validate_tables",
    "is_feasible",
]

# ---------------------------------------------------------------------------
# noise models


@dataclass(frozen=True)
class Gaussian:
    """Additive Gaussian observation noise with variance ``var``."""

    var: float

    def __post_init__(self) -> None:
        if not self.var > 0:
            raise ValueError(f"Gaussian variance must be positive, got {self.var}")


@dataclass(frozen=True)
class Poisson:
    """Poisson observation noise: y ~ Poisson(z) given true count z."""


#: Sentinel for "no observation at this node"; the observation term is 0.
MISSING = None

NoiseModel = Union[Gaussian, Poisson, None]

#: Observation kinds in the per-node and per-arc arrays; 0 means no observation.
GAUSSIAN, POISSON = 1, 2


def _noise_params(model: NoiseModel) -> tuple[int, float]:
    """(kind, variance) of one noise model; the variance is 1 unless Gaussian."""
    if model is MISSING:
        return 0, 1.0
    if isinstance(model, Gaussian):
        return GAUSSIAN, model.var
    if isinstance(model, Poisson):
        return POISSON, 1.0
    raise TypeError(f"unknown noise model {model!r}")


# ---------------------------------------------------------------------------
# log-factorial table, grown lazily and shared read-only afterwards


class _LogFactorialTable:
    """Cumulative table of ln(z!), extended geometrically on demand."""

    def __init__(self) -> None:
        self._values = np.zeros(2)  # ln 0! = ln 1! = 0
        self._lock = threading.Lock()

    def ensure(self, z: int) -> np.ndarray:
        values = self._values
        if z < len(values):
            return values
        with self._lock:
            values = self._values
            if z < len(values):
                return values
            new_len = max(z + 1, 2 * len(values))
            out = np.empty(new_len)
            out[: len(values)] = values
            start = len(values)
            out[start:] = values[start - 1] + np.cumsum(
                np.log(np.arange(start, new_len, dtype=float))
            )
            self._values = out
            return out

    def value(self, z: int) -> float:
        if z < 0:
            raise ValueError(f"log_factorial requires z >= 0, got {z}")
        return float(self.ensure(z)[z])

    def values(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        if z.size and z.min() < 0:
            raise ValueError("log_factorial requires nonnegative entries")
        table = self.ensure(int(z.max()) if z.size else 0)
        return table[z]


_LOG_FACTORIAL = _LogFactorialTable()


def log_factorial(z: int) -> float:
    """ln(z!) for integer z >= 0, exact to well below 1e-9 at desk scale."""
    return _LOG_FACTORIAL.value(z)


def log_factorial_array(z: np.ndarray) -> np.ndarray:
    """Vectorized ln(z!) over an integer array."""
    return _LOG_FACTORIAL.values(z)


# ---------------------------------------------------------------------------
# instance


def _frozen(values, dtype=float, error: str | None = None) -> np.ndarray:
    """A read-only copy of values cast to dtype: every array type's intake rule.

    Given error, raises ValueError(error) unless every value is finite and
    survives the cast unchanged.  Boolean and integer values are always finite.
    """
    values = np.asarray(values)
    if error is not None and values.dtype.kind not in "biu" and not np.isfinite(values).all():
        raise ValueError(error)
    if error is None or values.dtype == dtype:
        out = values.astype(dtype)
    else:
        with np.errstate(invalid="ignore"):  # a value out of dtype's range fails the comparison
            out = values.astype(dtype)
        if not np.array_equal(out, values):
            raise ValueError(error)
    out.flags.writeable = False
    return out


def _integer(name: str, value, least: int = 1) -> int:
    """value as an int if it is an integer (numpy's too) >= least; else ValueError."""
    # numpy integers are Integral; bool is an int, and refused
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kinds = {0: "a nonnegative integer", 1: "a positive integer"}
        kind = kinds.get(least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CgmInstance:
    """A path-graph inference problem.

    potentials has shape (n_steps - 1, n_states, n_states) and must be
    strictly positive and finite.  observations has shape (n_steps, n_states)
    with NaN marking a missing observation and finite values elsewhere; noise
    carries one model tag per (t, i) and must be MISSING exactly where the
    observation is.  n_steps, n_states and population are positive integers.
    """

    n_steps: int
    n_states: int
    population: int
    potentials: np.ndarray
    observations: np.ndarray
    noise: tuple[tuple[NoiseModel, ...], ...]

    def __post_init__(self) -> None:
        for name in ("n_steps", "n_states", "population"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        pot = _frozen(self.potentials)
        obs = _frozen(self.observations)
        object.__setattr__(self, "potentials", pot)
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "noise", tuple(tuple(row) for row in self.noise))
        N, R = self.n_steps, self.n_states
        if pot.shape != (max(N - 1, 0), R, R):
            raise ValueError(f"potentials must have shape {(N - 1, R, R)}, got {pot.shape}")
        if obs.shape != (N, R):
            raise ValueError(f"observations must have shape {(N, R)}, got {obs.shape}")
        if len(self.noise) != N or any(len(row) != R for row in self.noise):
            raise ValueError("noise must have one entry per (t, i)")
        if pot.size and not (pot > 0).all():
            raise ValueError("all potentials must be strictly positive")
        if not np.isfinite(pot).all():
            raise ValueError("all potentials must be finite")
        kind = np.zeros((N, R), dtype=np.int8)
        var = np.ones((N, R))
        for t in range(N):
            for i in range(R):
                y = obs[t, i]
                model = self.noise[t][i]
                kind[t, i], var[t, i] = _noise_params(model)
                if model is MISSING:
                    if not math.isnan(y):
                        raise ValueError(f"observation ({t},{i}) set but noise is MISSING")
                    continue
                if math.isnan(y):
                    raise ValueError(f"noise ({t},{i}) set but observation is MISSING")
                if math.isinf(y):
                    raise ValueError(f"observation ({t},{i}) must be finite")
                if y < 0:
                    raise ValueError(f"observation ({t},{i}) must be nonnegative")
                if isinstance(model, Poisson) and y != int(y):
                    raise ValueError(f"Poisson observation ({t},{i}) must be an integer")
        y = np.where(kind > 0, obs, 0.0)
        arrays = (_frozen(kind, np.int8), _frozen(y), _frozen(var))
        object.__setattr__(self, "_observation_arrays", arrays)
        object.__setattr__(self, "_log_potentials", _frozen(np.log(pot)))

    @property
    def log_potentials(self) -> np.ndarray:
        """ln(potentials), computed once at construction and read-only."""
        return self._log_potentials

    @property
    def observation_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kind, y, var), each of shape (n_steps, n_states): observation_cost's arguments.

        kind is 0 where the observation is missing; y is 0 there and var is 1
        wherever the noise is not Gaussian.
        """
        return self._observation_arrays


# ---------------------------------------------------------------------------
# tables


def _check_table_shapes(n_steps: int, n_states: int, node: np.ndarray, edge: np.ndarray) -> None:
    if node.shape != (n_steps, n_states):
        raise ValueError(f"node table must have shape {(n_steps, n_states)}, got {node.shape}")
    expected = (max(n_steps - 1, 0), n_states, n_states)
    if edge.shape != expected:
        raise ValueError(f"edge table must have shape {expected}, got {edge.shape}")


@dataclass(frozen=True)
class ContingencyTables:
    """Integer node counts n[t][i] and transition counts n[t][i][j]."""

    node: np.ndarray
    edge: np.ndarray

    def __post_init__(self) -> None:
        for name in ("node", "edge"):
            error = f"{name} table entries must be integers"
            object.__setattr__(self, name, _frozen(getattr(self, name), np.int64, error))

    @property
    def n_steps(self) -> int:
        return self.node.shape[0]

    @property
    def n_states(self) -> int:
        return self.node.shape[1]

    def same_values(self, other: "ContingencyTables") -> bool:
        return np.array_equal(self.node, other.node) and np.array_equal(self.edge, other.edge)

    @staticmethod
    def zeros(n_steps: int, n_states: int) -> "ContingencyTables":
        return ContingencyTables(
            node=np.zeros((n_steps, n_states), dtype=np.int64),
            edge=np.zeros((max(n_steps - 1, 0), n_states, n_states), dtype=np.int64),
        )


@dataclass(frozen=True)
class FractionalTables:
    """Real-valued tables produced by continuous relaxations."""

    node: np.ndarray
    edge: np.ndarray

    def __post_init__(self) -> None:
        for name in ("node", "edge"):
            error = f"{name} table entries must be finite"
            object.__setattr__(self, name, _frozen(getattr(self, name), float, error))

    @property
    def n_steps(self) -> int:
        return self.node.shape[0]

    @property
    def n_states(self) -> int:
        return self.node.shape[1]


Tables = Union[ContingencyTables, FractionalTables]


# ---------------------------------------------------------------------------
# cost terms


def f_cost(instance: CgmInstance, t: int, i: int, j: int, z: int) -> float:
    """Transition cost log z! - z * log(phi[t][i][j])."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    phi = instance.potentials[t, i, j]  # raises IndexError when out of range
    return log_factorial(z) - z * math.log(phi)


def g_cost(z: int) -> float:
    """Interior node cost -log z! (discrete concave)."""
    return -log_factorial(z)


def _xlogy(x, y) -> np.ndarray:
    """x ln y elementwise, without warnings.

    0 where x is 0 (unless y is NaN) and -inf where y is 0 < x, as scipy's xlogy.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(y)
    return np.where((x == 0) & ~np.isnan(y), 0.0, out)


def observation_cost(kind, y, var, z) -> np.ndarray:
    """Observation cost h(z) = -log p(y | z) up to a constant shift, elementwise.

    kind, y and var broadcast against z, which may be real-valued.  Where kind
    is 0 (no observation) h is 0; GAUSSIAN gives (y - z)^2 / (2 var); POISSON
    gives z - y ln z + ln y!, which is +inf at z = 0 when y > 0 and needs a
    nonnegative integer y.
    """
    z = np.asarray(z, dtype=float)
    kind = np.asarray(kind)
    d = y - z
    cost = np.where(kind == GAUSSIAN, d * d / (2.0 * var), 0.0)
    poisson = kind == POISSON
    if np.count_nonzero(poisson):
        log_y_fact = log_factorial_array(np.where(poisson, y, 0).astype(np.int64))
        cost = np.where(poisson, z - _xlogy(y, z) + log_y_fact, cost)
    return cost


def h_noise_cost(model: NoiseModel, y: float, z: int) -> float:
    """Observation cost -log p(y | z) up to a constant shift, possibly +inf."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    kind, var = _noise_params(model)
    return float(observation_cost(kind, y, var, z))


def h_cost(instance: CgmInstance, t: int, i: int, z: int) -> float:
    """Observation cost at node (t, i)."""
    if not (0 <= t < instance.n_steps and 0 <= i < instance.n_states):
        raise IndexError((t, i))
    model = instance.noise[t][i]
    y = instance.observations[t, i]
    return h_noise_cost(model, y, z)


def _objective_value(
    instance: CgmInstance, node: np.ndarray, edge: np.ndarray, log_fact
) -> float:
    """Transition, interior and observation terms summed, with ln z! given by log_fact.

    log_fact maps an array of counts to ln z! or a stand-in for it: the exact
    table, its linear interpolation or Stirling's approximation.
    """
    total = float(log_fact(edge).sum())
    if edge.size:
        total -= float((edge * instance.log_potentials).sum())
    interior = node[1 : instance.n_steps - 1]
    if interior.size:
        total -= float(log_fact(interior).sum())
    return total + float(observation_cost(*instance.observation_arrays, node).sum())


def objective(instance: CgmInstance, tables: ContingencyTables) -> float:
    """Negative log posterior (up to dropped constants) of an integer table.

    Returns +inf when a Poisson term forbids the configuration.  Feasibility
    with respect to the marginal polytope is not checked here; use
    validate_tables for that.
    """
    _check_table_shapes(instance.n_steps, instance.n_states, tables.node, tables.edge)
    return _objective_value(instance, tables.node, tables.edge, log_factorial_array)


def _interp_log_factorial(z: np.ndarray) -> np.ndarray:
    """Linear interpolation of ln(z!) between consecutive integers."""
    lo = np.floor(z).astype(np.int64)
    w = z - lo
    table = _LOG_FACTORIAL.ensure(int(lo.max()) + 1 if lo.size else 1)
    return (1.0 - w) * table[lo] + w * table[lo + 1]


def _relaxed_objective(instance: CgmInstance, tables: Tables, log_fact) -> float:
    """_objective_value of real-valued tables, once their shapes, finiteness and signs check out."""
    node = _frozen(tables.node, float, "node table entries must be finite")
    edge = _frozen(tables.edge, float, "edge table entries must be finite")
    _check_table_shapes(instance.n_steps, instance.n_states, node, edge)
    if (node < 0).any() or (edge.size and (edge < 0).any()):
        raise ValueError("table entries must be nonnegative")
    return _objective_value(instance, node, edge, log_fact)


def objective_fractional(instance: CgmInstance, tables: Tables) -> float:
    """Objective with each ln(z!) replaced by its linear interpolation.

    Coincides exactly with ``objective`` on integer-valued tables.
    """
    return _relaxed_objective(instance, tables, _interp_log_factorial)


# ---------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class Violation:
    """One violated polytope constraint; ``where`` holds the offending indices."""

    kind: str  # population | row-marginal | col-marginal | negative
    where: tuple[int, ...]
    residual: float

    def __str__(self) -> str:
        return f"{self.kind}@{self.where}: residual {self.residual:g}"


def validate_tables(
    instance: CgmInstance,
    tables: Tables,
    tol: float | None = None,
) -> list[Violation]:
    """Check the marginal polytope constraints; empty list means feasible.

    Integer tables are checked exactly, fractional tables to an additive
    tolerance of 1e-6 (override with ``tol``).
    """
    node = np.asarray(tables.node, dtype=float)
    edge = np.asarray(tables.edge, dtype=float)
    _check_table_shapes(instance.n_steps, instance.n_states, node, edge)
    if tol is None:
        tol = 0.0 if isinstance(tables, ContingencyTables) else 1e-6

    out: list[Violation] = []
    for t, i in zip(*np.where(node < -tol)):
        out.append(Violation("negative", (int(t), int(i)), float(node[t, i])))
    if edge.size:
        for t, i, j in zip(*np.where(edge < -tol)):
            out.append(Violation("negative", (int(t), int(i), int(j)), float(edge[t, i, j])))

    pop_residual = node.sum(axis=1) - instance.population
    for t in np.where(np.abs(pop_residual) > tol)[0]:
        out.append(Violation("population", (int(t),), float(pop_residual[t])))

    if edge.size:
        row_residual = edge.sum(axis=2) - node[:-1]
        for t, i in zip(*np.where(np.abs(row_residual) > tol)):
            out.append(Violation("row-marginal", (int(t), int(i)), float(row_residual[t, i])))
        col_residual = edge.sum(axis=1) - node[1:]
        for t, j in zip(*np.where(np.abs(col_residual) > tol)):
            out.append(Violation("col-marginal", (int(t), int(j)), float(col_residual[t, j])))
    return out


def is_feasible(instance: CgmInstance, tables: Tables, tol: float | None = None) -> bool:
    return not validate_tables(instance, tables, tol=tol)
