"""Continuous relaxation and its conditional-gradient solver."""

import math

import numpy as np
import pytest

from scipy.optimize import minimize_scalar

from cgmflow import baseline
from cgmflow.baseline import _slope_along, approx_objective, solve_approximate
from cgmflow.core import (
    CgmInstance,
    FractionalTables,
    Gaussian,
    MISSING,
    Poisson,
    objective_fractional,
    validate_tables,
)
from cgmflow.instances import gen_synthetic
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


def relax_instance(seed=0):
    # the size of the benchmark's relaxation workload
    return gen_synthetic(n_steps=5, n_states=20, population=100, seed=seed)


def poisson_instance(seed=0):
    """Poisson noise on every node, each observation positive."""
    inst = gen_synthetic(n_steps=4, n_states=6, population=30, seed=seed)
    return CgmInstance(
        n_steps=4,
        n_states=6,
        population=30,
        potentials=inst.potentials,
        observations=inst.observations,
        noise=tuple(tuple(Poisson() for _ in range(6)) for _ in range(4)),
    )


def mixed_instance(seed=0):
    """Gaussian nodes plus one positive and two zero Poisson observations."""
    inst = gen_synthetic(n_steps=4, n_states=6, population=30, seed=seed)
    obs = inst.observations.copy()
    noise = [[Gaussian(50.0)] * 6 for _ in range(4)]
    noise[1][0] = Poisson()
    for t, i in ((0, 5), (2, 3)):
        noise[t][i] = Poisson()
        obs[t, i] = 0.0
    return CgmInstance(
        n_steps=4,
        n_states=6,
        population=30,
        potentials=inst.potentials,
        observations=obs,
        noise=tuple(map(tuple, noise)),
    )


def vertex(inst, states):
    """Tables of the whole population following one path of states."""
    N, R, M = inst.n_steps, inst.n_states, inst.population
    node = np.zeros((N, R))
    edge = np.zeros((N - 1, R, R))
    node[np.arange(N), states] = M
    for t in range(N - 1):
        edge[t, states[t], states[t + 1]] = M
    return node, edge


def line_searches(monkeypatch, inst, max_iters, check):
    """Solve, calling check(along, hi, slope, result) after each line search.

    result is the search's (gamma, along(gamma), evaluations).  The solver's
    along reads the current iterate, so check runs before the step.
    """
    search = baseline.minimize_scalar
    results = []

    def spy(along, slope, hi, x0):
        res = search(along, slope, hi, x0)
        check(along, hi, slope, res)
        results.append(res)
        return res

    monkeypatch.setattr(baseline, "minimize_scalar", spy)
    solve_approximate(inst, max_iters=max_iters)
    return results


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
        assert set(doc) == {
            "trajectory", "duality_gap", "duality_gap_rel", "iterations", "converged",
            "tol", "wall_time", "linesearch_evals",
        }
        assert doc["trajectory"] == report.objectives
        assert (doc["duality_gap"], doc["duality_gap_rel"]) == (report.gap, report.gap_rel)

    def test_linesearch_evals_counts_slope_evaluations(self):
        _, report = solve_approximate(free_instance(2, 1, 2))
        assert report.converged and report.iterations == 1
        assert report.linesearch_evals == 0
        _, report = solve_approximate(gen_synthetic(3, 3, 10, seed=0), max_iters=50)
        assert report.iterations == 50
        assert report.linesearch_evals >= 49

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


class TestLineSearch:
    @pytest.mark.parametrize("make", [relax_instance, poisson_instance])
    def test_slope_matches_finite_difference(self, monkeypatch, make):
        def check(along, hi, slope, res):
            for gamma in (0.1 * hi, 0.5 * hi, 0.9 * hi):
                h = 1e-5 * gamma
                fd = (along(gamma + h) - along(gamma - h)) / (2 * h)
                assert slope(gamma)[0] == pytest.approx(fd, rel=1e-6)

        assert len(line_searches(monkeypatch, make(), 30, check)) == 30

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance])
    def test_no_worse_than_bounded_brent(self, monkeypatch, make):
        def check(along, hi, slope, res):
            brent = minimize_scalar(
                along, bounds=(0.0, hi), method="bounded", options={"xatol": 1e-11}
            )
            best = along(brent.x)
            assert along(res[0]) <= best + 1e-12 * max(1.0, abs(best))

        assert len(line_searches(monkeypatch, make(), 100, check)) == 100

    def test_poisson_vertex_keeps_search_inside(self, monkeypatch):
        def check(along, hi, slope, res):
            gamma, value, _ = res
            # the vertex has zero counts under positive Poisson observations
            assert math.isinf(along(1.0))
            assert hi == 1.0 - 1e-9
            assert 0.0 < gamma < hi
            assert math.isfinite(value) and value < along(0.0)

        assert len(line_searches(monkeypatch, poisson_instance(), 1, check)) == 1

    def test_bracket_ends_where_the_vertex_is_finite(self, monkeypatch):
        # the bracket comes from the vertex's path, without evaluating f there
        ends = []

        def check(along, hi, slope, res):
            assert hi == (1.0 if math.isfinite(along(1.0)) else 1.0 - 1e-9)
            ends.append(hi)

        assert len(line_searches(monkeypatch, mixed_instance(), 100, check)) == 100
        assert {1.0, 1.0 - 1e-9} == set(ends)

    def test_face_start_has_finite_slope(self):
        # x is a vertex: most entries are 0, and where x and the target agree
        # (on a step both paths share, and on every cell neither visits) d = 0
        inst = relax_instance()
        node, edge = vertex(inst, [0, 1, 2, 3, 4])
        v_node, v_edge = vertex(inst, [0, 1, 5, 3, 6])
        d_node, d_edge = v_node - node, v_edge - edge
        slope = _slope_along(inst, node, edge, d_node, d_edge)

        def along(gamma):
            tables = FractionalTables(node=node + gamma * d_node, edge=edge + gamma * d_edge)
            return approx_objective(inst, tables)

        for gamma in (1e-6, 0.5, 1.0 - 1e-6):
            first, second = slope(gamma)
            assert math.isfinite(first) and second > 0
            h = 1e-3 * min(gamma, 1.0 - gamma)
            fd = (along(gamma + h) - along(gamma - h)) / (2 * h)
            assert first == pytest.approx(fd, rel=1e-6)
        still = _slope_along(inst, node, edge, np.zeros_like(node), np.zeros_like(edge))
        assert still(0.5) == (0.0, 0.0)
