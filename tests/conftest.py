"""Shared instance factories for the test suite."""

from __future__ import annotations

import numpy as np

from cgmflow.core import CgmInstance, Gaussian, MISSING, Poisson


def make_tiny_instance(
    seed: int,
    max_steps: int = 3,
    max_states: int = 3,
    max_population: int = 5,
) -> CgmInstance:
    """Random desk-size instance with mixed potentials and mixed noise.

    Always feasible: a Poisson cell with a positive observation forces a
    node count of at least one, so at most M such cells are allowed per
    layer.
    """
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, max_steps + 1))
    R = int(rng.integers(1, max_states + 1))
    M = int(rng.integers(1, max_population + 1))
    if rng.random() < 0.5:
        phi = rng.integers(1, 11, size=(max(N - 1, 0), R, R)).astype(float)
    else:
        phi = rng.uniform(0.2, 3.0, size=(max(N - 1, 0), R, R))
    observations = np.zeros((N, R))
    noise = []
    for t in range(N):
        row = []
        forced = 0
        for i in range(R):
            pick = int(rng.integers(0, 3))
            if pick == 0:
                y = int(rng.integers(0, 3))
                if y > 0 and forced >= M:
                    y = 0
                forced += y > 0
                row.append(Poisson())
                observations[t, i] = y
            elif pick == 1:
                row.append(Gaussian(float(rng.uniform(0.5, 60.0))))
                observations[t, i] = float(rng.uniform(0.0, M))
            else:
                row.append(MISSING)
                observations[t, i] = np.nan
        noise.append(tuple(row))
    return CgmInstance(
        n_steps=N,
        n_states=R,
        population=M,
        potentials=phi,
        observations=observations,
        noise=tuple(noise),
    )


def make_mixed_instance(M: int = 6) -> CgmInstance:
    """N=3, R=4 with Gaussian, Poisson y=0, Poisson y>0 and missing at every step."""
    noise = (Gaussian(2.0), Poisson(), Poisson(), MISSING)
    observations = np.array([[3.5, 0.0, 2.0, np.nan]] * 3)
    observations[1, 0] = 1.25
    return CgmInstance(
        n_steps=3,
        n_states=4,
        population=M,
        potentials=np.linspace(0.3, 4.0, 2 * 16).reshape(2, 4, 4),
        observations=observations,
        noise=(noise,) * 3,
    )


def free_instance(N: int, R: int, M: int, phi=None) -> CgmInstance:
    """No observations anywhere; potentials phi, all ones unless given."""
    return CgmInstance(
        n_steps=N,
        n_states=R,
        population=M,
        potentials=np.ones((max(N - 1, 0), R, R)) if phi is None else phi,
        observations=np.full((N, R), np.nan),
        noise=tuple(tuple(MISSING for _ in range(R)) for _ in range(N)),
    )
