"""Continuous relaxation and its conditional-gradient solver."""

import itertools
import math
from functools import partial

import numpy as np
import pytest

from scipy.optimize import minimize_scalar
from scipy.special import xlogy

from cgmflow import baseline, core
from cgmflow.baseline import (
    _Observations,
    _Sums,
    _along_path,
    _cheapest_path,
    _move,
    _path_cells,
    _stirling,
    approx_objective,
    solve_approximate,
)
from cgmflow.core import (
    GAUSSIAN,
    POISSON,
    CgmInstance,
    FractionalTables,
    Gaussian,
    Poisson,
    objective_fractional,
    observation_cost,
    validate_tables,
)
from cgmflow.instances import gen_synthetic
from cgmflow.oracle import enumerate_feasible
from conftest import free_instance, make_tiny_instance


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


def sums_value(inst, observed, sums, node, edge, path):
    """gamma -> the objective read off sums (a _Sums at x = (node, edge)) moved by gamma along path."""
    return lambda gamma: sums.moved(inst, observed, node, edge, path, gamma).objective(observed)


def path_step(inst, node, edge, states):
    """The solver's (value, slope) from x = (node, edge) toward the vertex on states.

    value is sums_value of fresh sums at x; slope is _along_path's.
    """
    observed = _Observations(inst)
    sums = _Sums.of(inst, observed, node, edge)
    path = _path_cells(np.asarray(states))
    slope = _along_path(inst, observed, node, edge, path, sums)
    return sums_value(inst, observed, sums, node, edge, path), slope


def full_along(inst, node, edge, path):
    """Reference phi: gamma -> the relaxed objective of a moved copy of x = (node, edge)."""
    node, edge = node.copy(), edge.copy()

    def along(gamma):
        z_node, z_edge = _move(node.copy(), edge.copy(), path, gamma, inst.population)
        return approx_objective(inst, FractionalTables(node=z_node, edge=z_edge))

    return along


def objective_scale(inst, node, edge):
    """Sum of |terms| of the relaxed objective at x = (node, edge)."""
    terms = (
        _stirling(edge),
        edge * inst.log_potentials,
        _stirling(node[1 : inst.n_steps - 1]),
        observation_cost(*inst.observation_arrays, node),
    )
    return sum(float(np.abs(t).sum()) for t in terms)


def generic_slope(inst, node, edge, states):
    """Reference slope along d = v - x, evaluated cell by cell.

    gamma -> (phi', phi'', sum of |terms| of phi', sum of |terms| of phi'').
    Every cell with d != 0 takes its own ln z, and every node its own h'(z)
    and h''(z): 1 / var on a Gaussian node and y / z^2 on a Poisson node.
    """
    N = inst.n_steps
    observed = _Observations(inst)
    kind, y, var = inst.observation_arrays
    pois = kind == POISSON
    v_node, v_edge = vertex(inst, states)
    d_node, d_edge = v_node - node, v_edge - edge
    x = np.concatenate([edge.ravel(), node[1 : N - 1].ravel()])
    d = np.concatenate([d_edge.ravel(), d_node[1 : N - 1].ravel()])
    signed = d.copy()
    signed[edge.size :] *= -1.0
    keep = d != 0
    x, d, signed = x[keep], d[keep], signed[keep]
    shift = -(d_edge * inst.log_potentials).ravel()

    def slope(gamma):
        z = x + gamma * d
        z_node = node + gamma * d_node
        h1 = observed.derivative(z_node)
        h2 = np.where(kind == GAUSSIAN, 1.0 / var, 0.0)
        h2[pois] = y[pois] / (z_node[pois] * z_node[pois])
        first = np.concatenate([signed * np.log(z), shift, (d_node * h1).ravel()])
        second = np.concatenate([signed * d / z, (d_node * d_node * h2).ravel()])
        return first.sum(), second.sum(), np.abs(first).sum(), np.abs(second).sum()

    return slope


def sum_terms(inst, node, edge):
    """The terms of each of _Sums' sums at x = (node, edge), cell by cell, by slot name."""
    inner = node[1 : inst.n_steps - 1]
    kind, y, var = inst.observation_arrays
    w = np.where(kind == GAUSSIAN, 1.0 / var, 0.0)
    return {
        "edge_mass": edge,
        "edge_ent": xlogy(edge, edge),
        "edge_phi": edge * inst.log_potentials,
        "inner_mass": inner,
        "inner_ent": xlogy(inner, inner),
        "square": node * node * w,
        "cross": node * y * w,
    }


def line_searches(monkeypatch, inst, max_iters, check):
    """Solve, calling check(along, hi, slope, result) after each line search.

    along is full_along at the iterate, the reference, independent of the
    solver's path form; slope and result, the search's (gamma, evaluations),
    are the solver's.
    """
    setup, search = baseline._along_path, baseline.minimize_scalar
    alongs, results = [], []

    def record(instance, observed, node, edge, path, sums):
        alongs.append(full_along(instance, node, edge, path))
        return setup(instance, observed, node, edge, path, sums)

    def spy(slope, hi, x0):
        res = search(slope, hi, x0)
        check(alongs[-1], hi, slope, res)
        results.append(res)
        return res

    monkeypatch.setattr(baseline, "_along_path", record)
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

    def test_rejects_misshapen_tables_as_objective_fractional_does(self):
        # a (1, R) node table would broadcast against the (N, R) observations
        inst = free_instance(2, 2, 2)
        tab = FractionalTables(node=[[1.0, 1.0]], edge=[[[1.0, 0.0], [0.0, 1.0]]])
        for evaluate in (objective_fractional, approx_objective):
            with pytest.raises(ValueError, match=r"node table must have shape \(2, 2\)"):
                evaluate(inst, tab)

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

    def test_report_describes_the_tables_at_the_cap(self):
        inst = relax_instance()
        tables, report = solve_approximate(inst, max_iters=30)
        assert report.iterations == 30 and not report.converged
        assert len(report.objectives) == 31
        assert report.objectives[-1] == pytest.approx(approx_objective(inst, tables), rel=1e-9)
        assert report.gap_rel == report.gap / abs(report.objectives[-1])
        # the cap's final gap can still certify the tables returned
        _, report = solve_approximate(free_instance(2, 1, 2), max_iters=0)
        assert report.converged and report.iterations == 0
        assert report.objectives == [pytest.approx(2 * math.log(2) - 2, abs=1e-12)]

    def test_objective_is_not_evaluated_per_iteration(self, monkeypatch):
        # every objective the solver reports is read off its carried sums
        calls = []
        for module, name in ((core, "_objective_value"), (baseline, "_relaxed_objective")):
            full = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, full=full: calls.append(args) or full(*args))
        for make in (relax_instance, mixed_instance):
            _, report = solve_approximate(make(), max_iters=50)
            assert report.iterations == 50 and len(report.objectives) == 51
        assert calls == []

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance, mixed_instance])
    def test_iterates_do_not_depend_on_the_value(self, monkeypatch, make):
        # the objective feeds the report and the no-improvement stop alone:
        # with a constant in its place, which never stops, the solver visits
        # the same tables bit for bit (tol = 0, so the gap alone certifies)
        inst = make()
        path_form = baseline._along_path

        def iterates() -> list:
            seen = []

            def record(instance, observed, node, edge, path, sums):
                seen.append(node.tobytes() + edge.tobytes())
                return path_form(instance, observed, node, edge, path, sums)

            with monkeypatch.context() as patch:
                patch.setattr(baseline, "_along_path", record)
                solve_approximate(inst, tol=0.0, max_iters=300)
            return seen

        tables = iterates()
        monkeypatch.setattr(baseline._Sums, "objective", lambda self, observed: 0.0)
        again = iterates()
        assert len(tables) > 100 and len(again) >= len(tables)
        assert again[: len(tables)] == tables

    @pytest.mark.parametrize(
        "name, value", [("max_iters", -1), ("tol", math.nan), ("tol", -1e-6), ("tol", -math.inf)]
    )
    def test_rejects_a_negative_cap_and_a_negative_or_nan_tol(self, name, value):
        with pytest.raises(ValueError, match=name):
            solve_approximate(free_instance(2, 2, 4), **{name: value})

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
            gamma, _ = res
            # the vertex has zero counts under positive Poisson observations
            assert math.isinf(along(1.0))
            assert hi == 1.0 - 1e-9
            assert 0.0 < gamma < hi
            assert math.isfinite(along(gamma)) and along(gamma) < along(0.0)

        assert len(line_searches(monkeypatch, poisson_instance(), 1, check)) == 1

    def test_bracket_ends_where_the_vertex_is_finite(self, monkeypatch):
        # the bracket comes from the vertex's path, without evaluating f there
        ends = []

        def check(along, hi, slope, res):
            assert hi == (1.0 if math.isfinite(along(1.0)) else 1.0 - 1e-9)
            ends.append(hi)

        assert len(line_searches(monkeypatch, mixed_instance(), 100, check)) == 100
        assert {1.0, 1.0 - 1e-9} == set(ends)

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance, mixed_instance])
    def test_path_form_matches_generic_direction(self, monkeypatch, make):
        inst = make()
        iterates = []
        path_form = baseline._along_path

        def record(instance, observed, node, edge, path, terms):
            iterates.append((node.copy(), edge.copy(), path[0][1].copy()))
            return path_form(instance, observed, node, edge, path, terms)

        def check(along, hi, slope, res):
            reference = generic_slope(inst, *iterates[-1])
            for gamma in (0.1 * hi, 0.5 * hi, 0.9 * hi):
                first, second, first_abs, second_abs = reference(gamma)
                got_first, got_second = slope(gamma)
                assert abs(got_first - first) <= 1e-8 * max(1.0, first_abs)
                assert abs(got_second - second) <= 1e-8 * max(1.0, second_abs)

        monkeypatch.setattr(baseline, "_along_path", record)
        assert len(line_searches(monkeypatch, inst, 100, check)) == 100
        assert len(iterates) == 100

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance, mixed_instance])
    def test_path_form_value_matches_objective(self, monkeypatch, make):
        # the objective read off the carried sums, at the iterate and moved
        # along the step, against approx_objective of the moved tables
        inst = make()
        steps, starved = [], []
        path_form = baseline._along_path

        def record(instance, observed, node, edge, path, sums):
            x_node, x_edge = node.copy(), edge.copy()
            value = sums_value(instance, observed, sums, x_node, x_edge, path)
            steps.append((x_node, x_edge, path, value))
            return path_form(instance, observed, node, edge, path, sums)

        def check(along, hi, slope, res):
            node, edge, path, value = steps[-1]
            # gamma = 1 is the vertex itself, past hi where it starves a Poisson count
            for gamma in (0.0, 0.1 * hi, 0.5 * hi, res[0], 0.9 * hi, hi, 1.0):
                z_node, z_edge = _move(node.copy(), edge.copy(), path, gamma, inst.population)
                full = approx_objective(inst, FractionalTables(node=z_node, edge=z_edge))
                if math.isinf(full):
                    starved.append(gamma)
                    assert value(gamma) == full
                else:
                    assert abs(value(gamma) - full) <= 1e-12 * objective_scale(inst, z_node, z_edge)

        monkeypatch.setattr(baseline, "_along_path", record)
        assert len(line_searches(monkeypatch, inst, 100, check)) == 100
        assert set(starved) <= {1.0}
        assert bool(starved) == (make is not relax_instance)

    @pytest.mark.parametrize(
        "make",
        [relax_instance, poisson_instance, mixed_instance]
        # N = 3, 2, 2 and 1
        + [
            pytest.param(partial(make_tiny_instance, seed), id=f"tiny{seed}")
            for seed in (4, 9, 16, 27)
        ],
    )
    def test_carried_sums_match_the_tables(self, monkeypatch, make):
        inst = make()
        path_form = baseline._along_path
        calls = []

        def record(instance, observed, node, edge, path, sums):
            for name, terms in sum_terms(instance, node, edge).items():
                carried = getattr(sums, name)
                assert abs(carried - terms.sum()) <= 1e-12 * np.abs(terms).sum(), name
            # the Poisson counts are carried as _move forms them, bit for bit
            assert sums.pois.tobytes() == node[observed.pois].tobytes()
            calls.append(path)
            return path_form(instance, observed, node, edge, path, sums)

        monkeypatch.setattr(baseline, "_along_path", record)
        _, report = solve_approximate(inst, max_iters=300)
        assert report.iterations == 300
        assert len(calls) == 300

    def test_face_start_has_finite_slope(self):
        # x is a vertex: most entries are 0, and where x and the target agree
        # (on a step both paths share, and on every cell neither visits) d = 0
        inst = relax_instance()
        node, edge = vertex(inst, [0, 1, 2, 3, 4])
        v_node, v_edge = vertex(inst, [0, 1, 5, 3, 6])
        d_node, d_edge = v_node - node, v_edge - edge
        value, slope = path_step(inst, node, edge, [0, 1, 5, 3, 6])

        def along(gamma):
            tables = FractionalTables(node=node + gamma * d_node, edge=edge + gamma * d_edge)
            return approx_objective(inst, tables)

        for gamma in (0.0, 0.5, 1.0):
            assert value(gamma) == pytest.approx(along(gamma), rel=1e-12)
        for gamma in (1e-6, 0.5, 1.0 - 1e-6):
            first, second = slope(gamma)
            assert math.isfinite(first) and second > 0
            h = 1e-3 * min(gamma, 1.0 - gamma)
            fd = (along(gamma + h) - along(gamma - h)) / (2 * h)
            assert first == pytest.approx(fd, rel=1e-6)
        _, still = path_step(inst, node, edge, [0, 1, 2, 3, 4])
        assert still(0.5) == (0.0, 0.0)


class TestCheapestPath:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_every_path_enumerated(self, seed):
        rng = np.random.default_rng(seed)
        for N in (1, 2, 3, 4):
            for R in (1, 2, 3, 4):
                g_node = rng.normal(size=(N, R))
                g_edge = rng.normal(size=(N - 1, R, R))
                costs = {}
                for states in itertools.product(range(R), repeat=N):
                    total = g_node[0, states[0]]
                    for t in range(N - 1):
                        total += g_edge[t, states[t], states[t + 1]] + g_node[t + 1, states[t + 1]]
                    costs[states] = total
                best = min(costs, key=costs.get)
                states, cost = _cheapest_path(g_node, g_edge)
                assert tuple(states.tolist()) == best
                assert cost == pytest.approx(costs[best], abs=1e-12)

    def test_breaks_exact_ties_by_lowest_end_then_lowest_predecessor(self):
        # only [0, 1, 2], [2, 0, 1] and [1, 2, 1] cost 0: the lowest end state
        # (1) leaves the last two, and the lowest predecessor of that end (0)
        # picks [2, 0, 1], though [0, 1, 2] comes first in lexical order
        paths = ([0, 1, 2], [2, 0, 1], [1, 2, 1])
        g_node = np.full((3, 3), 5.0)
        g_edge = np.full((2, 3, 3), 5.0)
        for path in paths:
            g_node[np.arange(3), path] = 0.0
            g_edge[np.arange(2), path[:-1], path[1:]] = 0.0
        states, cost = _cheapest_path(g_node, g_edge)
        assert states.tolist() == [2, 0, 1] and cost == 0.0
