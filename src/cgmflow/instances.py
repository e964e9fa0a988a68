"""Instance generation, the sparsity statistic, and JSON serialization.

All randomness flows through numpy's default_rng (PCG64) seeded explicitly,
with a fixed draw order per generator, so a (generator, seed) pair produces
byte-identical instances across platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    CgmInstance,
    ContingencyTables,
    FractionalTables,
    Gaussian,
    MISSING,
    NoiseModel,
    Poisson,
)

__all__ = [
    "PotentialKind",
    "GridSpec",
    "FormatError",
    "FORMAT_VERSION",
    "infer_grid",
    "gen_synthetic",
    "gen_interpolation",
    "sparsity",
    "save_instance",
    "load_instance",
    "save_tables",
    "load_tables",
]

FORMAT_VERSION = 1


class FormatError(ValueError):
    """A serialized document is malformed or carries the wrong version."""


class PotentialKind(Enum):
    """Families of transition potentials.

    UNIFORM draws integer potentials from {1..10}.  DISTANCE_1D treats state
    indices as points on a line and sets phi = 1 / (1 + |i - j|), so nearby
    states attract more transitions.  The grid kinds treat states as cells of
    a 2-D grid: GRID_GAUSSIAN sets phi = exp(-squared center distance) and
    GRID_INVERSE_DISTANCE sets phi = 1 / (1 + center distance).
    """

    UNIFORM = "uniform"
    DISTANCE_1D = "distance"
    GRID_GAUSSIAN = "grid-gauss"
    GRID_INVERSE_DISTANCE = "grid-invdist"


@dataclass(frozen=True)
class GridSpec:
    """A width x height grid of unit cells, indexed row-major."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def centers(self) -> np.ndarray:
        k = np.arange(self.n_cells)
        return np.stack([k % self.width, k // self.width], axis=1).astype(float)


def infer_grid(n_states: int) -> GridSpec:
    """Most-square grid factorization of a state count."""
    for h in range(math.isqrt(n_states), 0, -1):
        if n_states % h == 0:
            return GridSpec(width=n_states // h, height=h)
    raise ValueError("n_states must be positive")


def _potential_matrix(kind: PotentialKind, n_states: int, grid: Optional[GridSpec],
                      rng: Optional[np.random.Generator], n_steps: int) -> np.ndarray:
    R = n_states
    if kind is PotentialKind.UNIFORM:
        return rng.integers(1, 11, size=(n_steps - 1, R, R)).astype(float)
    if kind is PotentialKind.DISTANCE_1D:
        idx = np.arange(R)
        phi = 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :]))
        return np.broadcast_to(phi, (n_steps - 1, R, R)).copy()
    grid = grid or infer_grid(R)
    if grid.n_cells != R:
        raise ValueError(f"grid {grid.width}x{grid.height} does not have {R} cells")
    centers = grid.centers()
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    if kind is PotentialKind.GRID_GAUSSIAN:
        phi = np.exp(-(dist**2))
    else:
        phi = 1.0 / (1.0 + dist)
    return np.broadcast_to(phi, (n_steps - 1, R, R)).copy()


def _sample_trajectories(potentials: np.ndarray, population: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Node counts of M walkers drawn from the chain the potentials define.

    Backward messages turn the unnormalized chain into stepwise categorical
    distributions; each message is rescaled by its maximum to avoid
    underflow on long horizons.
    """
    n_steps = potentials.shape[0] + 1
    R = potentials.shape[1]
    beta = np.ones((n_steps, R))
    for t in range(n_steps - 2, -1, -1):
        beta[t] = potentials[t] @ beta[t + 1]
        beta[t] /= beta[t].max()
    counts = np.zeros((n_steps, R), dtype=np.int64)
    p0 = beta[0] / beta[0].sum()
    states = rng.choice(R, size=population, p=p0)
    counts[0] = np.bincount(states, minlength=R)
    for t in range(n_steps - 1):
        probs = potentials[t][states] * beta[t + 1]
        probs /= probs.sum(axis=1, keepdims=True)
        draws = rng.random(population)
        states = (probs.cumsum(axis=1) < draws[:, None]).sum(axis=1)
        counts[t + 1] = np.bincount(states, minlength=R)
    return counts


def gen_synthetic(
    n_steps: int,
    n_states: int,
    population: int,
    kind: PotentialKind = PotentialKind.UNIFORM,
    noise_var: float = 50.0,
    seed: int = 0,
    grid: Optional[GridSpec] = None,
) -> CgmInstance:
    """Random instance with Gaussian observation noise everywhere.

    For the UNIFORM and DISTANCE_1D kinds, observations are drawn uniformly
    from {1, ..., 2 * floor(M / R)} (fixed to 1 when that floor is 0).  For
    the grid kinds, observations are the node counts of M trajectories
    sampled from the chain itself, so they are consistent with the
    potentials.  Deterministic given the seed: potentials are drawn first,
    observations second, from one PCG64 stream.
    """
    if n_steps < 1 or n_states < 1 or population < 1:
        raise ValueError("dimensions and population must be positive")
    kind = PotentialKind(kind)
    rng = np.random.default_rng(seed)
    potentials = _potential_matrix(kind, n_states, grid, rng, n_steps)
    if kind in (PotentialKind.UNIFORM, PotentialKind.DISTANCE_1D):
        top = 2 * (population // n_states)
        if top < 1:
            obs = np.ones((n_steps, n_states))
        else:
            obs = rng.integers(1, top + 1, size=(n_steps, n_states)).astype(float)
    else:
        obs = _sample_trajectories(potentials, population, rng).astype(float)
    noise = tuple(
        tuple(Gaussian(noise_var) for _ in range(n_states)) for _ in range(n_steps)
    )
    return CgmInstance(
        n_steps=n_steps,
        n_states=n_states,
        population=population,
        potentials=potentials,
        observations=obs,
        noise=noise,
    )


def gen_interpolation(
    grid: GridSpec,
    eta_first: Sequence[int],
    eta_last: Sequence[int],
    n_steps: int = 6,
    noise_precision: float = 5.0,
) -> CgmInstance:
    """Instance whose only observations are histograms at the two endpoints.

    The transition potential exp(-squared center distance) favors short
    moves, the interior layers are unobserved, and solving for the MAP
    tables interpolates the endpoint histograms across the grid.  Endpoint
    noise is Gaussian with variance 1 / (2 * noise_precision).
    """
    eta_first = np.asarray(eta_first, dtype=float)
    eta_last = np.asarray(eta_last, dtype=float)
    R = grid.n_cells
    if eta_first.shape != (R,) or eta_last.shape != (R,):
        raise ValueError(f"histograms must have {R} entries")
    if (eta_first < 0).any() or (eta_last < 0).any():
        raise ValueError("histograms must be nonnegative")
    if eta_first.sum() != eta_last.sum():
        raise ValueError(
            f"histogram sums differ: {eta_first.sum()} vs {eta_last.sum()}"
        )
    if n_steps < 2:
        raise ValueError("interpolation needs at least two steps")
    if noise_precision <= 0:
        raise ValueError("noise_precision must be positive")
    population = int(eta_first.sum())

    potentials = _potential_matrix(PotentialKind.GRID_GAUSSIAN, R, grid, None, n_steps)
    obs = np.full((n_steps, R), np.nan)
    obs[0] = eta_first
    obs[-1] = eta_last
    var = 1.0 / (2.0 * noise_precision)
    noise_rows: list[tuple[NoiseModel, ...]] = []
    for t in range(n_steps):
        if t == 0 or t == n_steps - 1:
            noise_rows.append(tuple(Gaussian(var) for _ in range(R)))
        else:
            noise_rows.append(tuple(MISSING for _ in range(R)))
    return CgmInstance(
        n_steps=n_steps,
        n_states=R,
        population=population,
        potentials=potentials,
        observations=obs,
        noise=tuple(noise_rows),
    )


def sparsity(tables: Union[ContingencyTables, FractionalTables],
             threshold: float = 1e-2) -> float:
    """Fraction of transition-table entries at or below the threshold."""
    edge = np.asarray(tables.edge, dtype=float)
    if edge.size == 0:
        return 1.0
    return 1.0 - float((edge > threshold).sum()) / edge.size


# ---------------------------------------------------------------------------
# serialization


def _noise_to_json(model: NoiseModel):
    if model is MISSING:
        return None
    if isinstance(model, Gaussian):
        return {"type": "gaussian", "var": model.var}
    if isinstance(model, Poisson):
        return {"type": "poisson"}
    raise FormatError(f"unknown noise model {model!r}")


def _noise_from_json(doc) -> NoiseModel:
    if doc is None:
        return MISSING
    if not isinstance(doc, dict) or "type" not in doc:
        raise FormatError(f"bad noise entry: {doc!r}")
    if doc["type"] == "gaussian":
        if "var" not in doc:
            raise FormatError("gaussian noise entry lacks 'var'")
        return Gaussian(_real(doc["var"], "var"))
    if doc["type"] == "poisson":
        return Poisson()
    raise FormatError(f"unknown noise type {doc['type']!r}")


def save_instance(instance: CgmInstance, path: Union[str, Path]) -> None:
    obs = [
        [None if math.isnan(v) else v for v in row]
        for row in instance.observations.tolist()
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "n_steps": instance.n_steps,
        "n_states": instance.n_states,
        "population": instance.population,
        "potentials": instance.potentials.tolist(),
        "observations": obs,
        "noise": [
            [_noise_to_json(m) for m in row] for row in instance.noise
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_json(path: Union[str, Path]) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format_version {version!r} unsupported (expected {FORMAT_VERSION})"
        )
    return doc


def _integer(value, key: str) -> int:
    """A count field: a JSON integer, or a float with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _real(value, key: str) -> float:
    """A real field: a JSON number, never a string or a boolean."""
    if type(value) not in (int, float):  # exact types: bool subclasses int
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _reals(value, key: str) -> np.ndarray:
    """Nested lists of real fields, checked as by _real, as a float array."""
    cells = np.array(value, dtype=object)
    for kind in set(map(type, cells.flat)) - {int, float}:
        raise ValueError(f"{key} must be numbers, found a {kind.__name__}")
    return cells.astype(float)


def load_instance(path: Union[str, Path]) -> CgmInstance:
    doc = _load_json(path)
    for key in ("n_steps", "n_states", "population", "potentials", "observations", "noise"):
        if key not in doc:
            raise FormatError(f"{path}: missing field {key!r}")
    try:
        R = _integer(doc["n_states"], "n_states")
        rows = [[np.nan if v is None else v for v in row] for row in doc["observations"]]
        obs = _reals(rows, "observations")
        noise = tuple(tuple(_noise_from_json(m) for m in row) for row in doc["noise"])
        potentials = _reals(doc["potentials"], "potentials")
        if potentials.size == 0:
            # a single-layer instance serializes its empty potentials as []
            potentials = potentials.reshape((0, R, R))
        return CgmInstance(
            n_steps=_integer(doc["n_steps"], "n_steps"),
            n_states=R,
            population=_integer(doc["population"], "population"),
            potentials=potentials,
            observations=obs,
            noise=noise,
        )
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_tables(tables: Union[ContingencyTables, FractionalTables],
                path: Union[str, Path]) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "integral": isinstance(tables, ContingencyTables),
        "node": tables.node.tolist(),
        "edge": tables.edge.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_tables(path: Union[str, Path]) -> Union[ContingencyTables, FractionalTables]:
    doc = _load_json(path)
    for key in ("node", "edge", "integral"):
        if key not in doc:
            raise FormatError(f"{path}: missing field {key!r}")
    try:
        if doc["integral"]:
            return ContingencyTables(
                node=np.array(doc["node"], dtype=np.int64),
                edge=np.array(doc["edge"], dtype=np.int64),
            )
        return FractionalTables(
            node=np.array(doc["node"], dtype=float),
            edge=np.array(doc["edge"], dtype=float),
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
