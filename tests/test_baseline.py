"""Continuous relaxation and its conditional-gradient solver."""

import math

import numpy as np
import pytest

from cgmflow.baseline import approx_objective, solve_approximate
from cgmflow.core import (
    CgmInstance,
    FractionalTables,
    MISSING,
    Poisson,
    objective_fractional,
    validate_tables,
)
from cgmflow.oracle import enumerate_feasible
from conftest import make_tiny_instance


def free_instance(N, R, M):
    return CgmInstance(
        n_steps=N,
        n_states=R,
        population=M,
        potentials=np.ones((max(N - 1, 0), R, R)),
        observations=np.full((N, R), np.nan),
        noise=tuple(tuple(MISSING for _ in range(R)) for _ in range(N)),
    )


def as_fractional(tables):
    return FractionalTables(node=tables.node.astype(float), edge=tables.edge.astype(float))


def blend(a, b, lam):
    return FractionalTables(
        node=(1 - lam) * a.node + lam * b.node,
        edge=(1 - lam) * a.edge + lam * b.edge,
    )


class TestApproxObjective:
    def test_single_state_value(self):
        inst = free_instance(2, 1, 2)
        tab = FractionalTables(node=[[2.0], [2.0]], edge=[[[2.0]]])
        assert approx_objective(inst, tab) == pytest.approx(
            2 * math.log(2) - 2, abs=1e-12
        )

    def test_zero_tables_cost_zero(self):
        # the relaxation sets z log z - z to 0 at z = 0
        inst = free_instance(3, 2, 4)
        tab = FractionalTables(node=np.zeros((3, 2)), edge=np.zeros((2, 2, 2)))
        assert approx_objective(inst, tab) == 0.0

    def test_poisson_divergence_at_zero(self):
        inst = CgmInstance(
            n_steps=1,
            n_states=1,
            population=3,
            potentials=np.ones((0, 1, 1)),
            observations=np.array([[2.0]]),
            noise=((Poisson(),),),
        )
        zero = FractionalTables(node=[[0.0]], edge=np.zeros((0, 1, 1)))
        assert math.isinf(approx_objective(inst, zero))
        vals = [
            approx_objective(
                inst, FractionalTables(node=[[z]], edge=np.zeros((0, 1, 1)))
            )
            for z in (1e-1, 1e-4, 1e-9)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_rejects_negative_entries(self):
        inst = free_instance(2, 1, 2)
        with pytest.raises(ValueError):
            approx_objective(inst, FractionalTables(node=[[-1.0], [2.0]], edge=[[[2.0]]]))

    def test_gap_to_exact_objective(self):
        # Stirling drops the sqrt(2 pi z) factor: at the all-two tables the
        # error per transition term is log 2! - (2 log 2 - 2)
        inst = free_instance(2, 1, 2)
        tab = FractionalTables(node=[[2.0], [2.0]], edge=[[[2.0]]])
        exact = objective_fractional(inst, tab)
        approx = approx_objective(inst, tab)
        assert exact - approx == pytest.approx(
            math.log(2) - (2 * math.log(2) - 2), abs=1e-12
        )

    def test_midpoint_convexity_on_polytope(self):
        for seed in (2, 5, 9):
            inst = make_tiny_instance(seed)
            verts = [as_fractional(t) for t in enumerate_feasible(inst)]
            rng = np.random.default_rng(seed)
            for _ in range(40):
                a = verts[rng.integers(len(verts))]
                b = verts[rng.integers(len(verts))]
                fa = approx_objective(inst, a)
                fb = approx_objective(inst, b)
                if math.isinf(fa) or math.isinf(fb):
                    continue
                mid = approx_objective(inst, blend(a, b, 0.5))
                assert mid <= 0.5 * (fa + fb) + 1e-9


class TestSolveApproximate:
    def test_single_vertex_converges_exactly(self):
        inst = free_instance(2, 1, 2)
        tables, report = solve_approximate(inst)
        assert report.converged
        assert report.gap_rel <= report.tol
        assert report.objectives[-1] == pytest.approx(2 * math.log(2) - 2, abs=1e-9)
        assert tables.node.tolist() == [[2.0], [2.0]]

    def test_descent_and_feasible_output(self):
        for seed in (0, 3, 11):
            inst = make_tiny_instance(seed, max_population=5)
            tables, report = solve_approximate(inst, max_iters=300)
            objs = report.objectives
            assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
            assert validate_tables(inst, tables, tol=1e-6) == []
            assert (tables.node >= -1e-12).all()
            assert approx_objective(inst, tables) == pytest.approx(
                objs[-1], abs=1e-9
            )

    def test_converged_implies_gap_below_tol(self):
        inst = make_tiny_instance(4, max_population=4)
        tables, report = solve_approximate(inst, tol=1e-4, max_iters=2000)
        if report.converged:
            assert report.gap_rel <= 1e-4
        else:
            assert report.iterations == 2000 or report.gap_rel > 1e-4

    def test_iteration_cap_leaves_converged_false(self):
        inst = make_tiny_instance(10, max_steps=4, max_states=3, max_population=5)
        _, report = solve_approximate(inst, tol=1e-14, max_iters=2)
        assert report.iterations <= 2
        if report.gap_rel > 1e-14:
            assert not report.converged

    def test_report_serializes(self):
        inst = free_instance(2, 2, 4)
        _, report = solve_approximate(inst, max_iters=50)
        doc = report.to_dict()
        assert set(doc) >= {"objectives", "gap", "gap_rel", "iterations", "converged"}

    def test_tracks_true_optimum_when_population_large(self):
        # relaxation error is o(M); the fractional minimizer's true objective
        # should land near the exact one on an easy symmetric instance
        inst = free_instance(3, 2, 40)
        tables, report = solve_approximate(inst, max_iters=500)
        val = objective_fractional(inst, tables)
        assert math.isfinite(val)
        uniform = FractionalTables(
            node=np.full((3, 2), 20.0), edge=np.full((2, 2, 2), 10.0)
        )
        assert val <= objective_fractional(inst, uniform) + 1e-6
