"""Continuous relaxation and its dual solver."""

import itertools
import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.optimize import minimize_scalar

from cgmflow import baseline
from cgmflow.baseline import approx_objective, solve_approximate
from cgmflow.core import (
    GAUSSIAN,
    MISSING,
    POISSON,
    CgmInstance,
    FractionalTables,
    Gaussian,
    Poisson,
    objective_fractional,
    observation_cost,
    validate_tables,
)
from cgmflow.instances import PotentialKind, gen_synthetic
from cgmflow.oracle import enumerate_feasible
from conftest import free_instance, make_mixed_instance, make_tiny_instance


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


def crowded_poisson_instance():
    """Poisson y = 1 on two states holding M = 100: each multiplier rests near 0.98."""
    return CgmInstance(
        n_steps=3,
        n_states=2,
        population=100,
        potentials=np.ones((2, 2, 2)),
        observations=np.ones((3, 2)),
        noise=((Poisson(), Poisson()),) * 3,
    )


def one_step_instance(noise, observations, M):
    R = len(noise)
    return CgmInstance(
        n_steps=1,
        n_states=R,
        population=M,
        potentials=np.ones((0, R, R)),
        observations=np.array([observations], dtype=float),
        noise=(tuple(noise),),
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


def cheapest_path(g_node, g_edge):
    """States of the minimum-total-cost path, one per step, and that total (Viterbi).

    Exact ties go to the lowest end state, then to the lowest predecessor.
    """
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


def node_slope(inst, node):
    """h'_n at real-valued node counts: (x - y) / var, 1 - y / x, 1 at Poisson y = 0 and 0 if missing."""
    kind, y, var = inst.observation_arrays
    pois = kind == POISSON
    poisson_slope = 1.0 - y / np.where(pois & (node > 0), node, 1.0)
    poisson_slope[pois & (node == 0) & (y > 0)] = -math.inf
    return np.where(kind == GAUSSIAN, (node - y) / var, np.where(pois, poisson_slope, 0.0))


def gradient(inst, node, edge):
    """Gradient (g_node, g_edge) of the relaxed objective at strictly positive tables."""
    N = inst.n_steps
    g_edge = np.log(edge) - inst.log_potentials
    g_node = node_slope(inst, node)
    g_node[1 : N - 1] -= np.log(node[1 : N - 1])
    return g_node, g_edge


def frank_wolfe_gap(inst, tables):
    """<grad f(x), x - v> at the path vertex v that minimizes it: an upper bound on f(x) - min f."""
    g_node, g_edge = gradient(inst, tables.node, tables.edge)
    states, cost = cheapest_path(g_node, g_edge)
    at_x = float(np.vdot(g_node, tables.node)) + float(np.vdot(g_edge, tables.edge))
    return at_x - inst.population * cost, states


def objective_scale(inst, node, edge):
    """Sum of |terms| of the relaxed objective at x = (node, edge)."""
    terms = (
        baseline._stirling(edge),
        edge * inst.log_potentials,
        baseline._stirling(node[1 : inst.n_steps - 1]),
        observation_cost(*inst.observation_arrays, node),
    )
    return sum(float(np.abs(t).sum()) for t in terms)


def marginal_residual(inst, tables):
    """Largest violation of sum_i x = M and of the row and column equalities, relative to M."""
    node, edge, M = tables.node, tables.edge, inst.population
    worst = np.abs(node.sum(axis=1) - M).max()
    if edge.size:
        worst = max(worst, np.abs(edge.sum(axis=2) - node[:-1]).max())
        worst = max(worst, np.abs(edge.sum(axis=1) - node[1:]).max())
    return worst / M


def conjugate(inst, lam):
    """h*_n(lam_n) at every node, by the closed forms (fixed nodes at their fixed lam give 0)."""
    kind, y, var = inst.observation_arrays
    positive = (kind == POISSON) & (y > 0)
    gauss = y * lam + var * lam * lam / 2.0
    ln_y_fact = np.array([math.lgamma(v + 1.0) for v in y.ravel()]).reshape(y.shape)
    rest = np.where(positive, 1.0 - lam, 1.0)
    pois = -y + np.where(positive, y * np.log(np.where(positive, y, 1.0)), 0.0) - ln_y_fact
    pois -= y * np.log(rest)
    return np.where(kind == GAUSSIAN, gauss, np.where(positive, pois, 0.0))


def transfer_reference(log_phi, lam, M):
    """ln Z and the tables M * marginals by scaled transfer-matrix products in linear space."""
    N = lam.shape[0]
    phi = np.exp(log_phi)
    shift = lam.min(axis=1)
    w = np.exp(-(lam - shift[:, None]))
    alpha = [w[0] / w[0].sum()]
    log_z = math.log(w[0].sum()) - shift[0]
    for t in range(N - 1):
        a = (alpha[t] @ phi[t]) * w[t + 1]
        log_z += math.log(a.sum()) - shift[t + 1]
        alpha.append(a / a.sum())
    beta = [np.ones_like(w[0])] * N
    for t in reversed(range(N - 1)):
        b = phi[t] @ (w[t + 1] * beta[t + 1])
        beta[t] = b / b.sum()
    node = np.array([a * b / (a * b).sum() for a, b in zip(alpha, beta)]) * M
    edge = []
    for t in range(N - 1):
        pair = alpha[t][:, None] * phi[t] * (w[t + 1] * beta[t + 1])[None, :]
        edge.append(pair / pair.sum() * M)
    return log_z, node, np.array(edge)


class Points(list):
    """(full multipliers, ln Z, _Point) per dual evaluation inside D's domain."""

    calls = 0  # every evaluation, those outside the domain too


def record_points(monkeypatch):
    """Spy on the solver's dual evaluations, returning the Points they fill."""
    seen, chains = Points(), []
    chain, evaluate = baseline._chain, baseline._evaluate

    def spy_chain(log_phi, lam, M):
        result = chain(log_phi, lam, M)
        chains.append((lam.copy(), result[0]))
        return result

    def spy_evaluate(instance, observed, lam):
        before = len(chains)
        seen.calls += 1
        point = evaluate(instance, observed, lam)
        if point is not None:
            assert len(chains) == before + 1
            seen.append((*chains[-1], point))
        return point

    monkeypatch.setattr(baseline, "_chain", spy_chain)
    monkeypatch.setattr(baseline, "_evaluate", spy_evaluate)
    return seen


def line_searches(monkeypatch, inst, check, **options):
    """Solve, calling check(trial, dual, rise, result) after each line search; returns the report."""
    search = baseline.minimize_scalar
    count = []

    def spy(trial, dual, rise):
        result = search(trial, dual, rise)
        check(trial, dual, rise, result)
        count.append(result)
        return result

    monkeypatch.setattr(baseline, "minimize_scalar", spy)
    _, report = solve_approximate(inst, **options)
    assert len(count) >= 1
    return report


def as_fractional(tables):
    return FractionalTables(node=tables.node.astype(float), edge=tables.edge.astype(float))


def blend(a, b, lam):
    return FractionalTables(
        node=(1 - lam) * a.node + lam * b.node,
        edge=(1 - lam) * a.edge + lam * b.edge,
    )


GATE_5_SIZED = [
    pytest.param(partial(gen_synthetic, 5, R, M, kind=kind, seed=1000 * cell), id=f"{kind.value}-R{R}-M{M}")
    for cell, (kind, R, M) in enumerate(
        (kind, R, M)
        for kind in (PotentialKind.UNIFORM, PotentialKind.DISTANCE_1D)
        for R in (10, 20)
        for M in (10, 100)
    )
]
SOLVED = (
    [relax_instance, crowded_poisson_instance]
    + [pytest.param(partial(poisson_instance, s), id=f"poisson{s}") for s in range(5)]
    + [pytest.param(partial(mixed_instance, s), id=f"mixed{s}") for s in range(5)]
    + [pytest.param(partial(make_mixed_instance, M), id=f"conftest-mixed{M}") for M in (6, 12, 40)]
    + GATE_5_SIZED
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
        # the objectives of the dual's iterates need not fall; the answer's
        # Frank-Wolfe gap, an upper bound on its distance to the optimum
        # found apart from the dual, does fall within the default tol
        for seed in (0, 3, 11):
            inst = make_tiny_instance(seed, max_population=5)
            tables, report = solve_approximate(inst, tol=1e-12, max_iters=300)
            assert report.converged
            assert validate_tables(inst, tables, tol=1e-9) == []
            assert (tables.node > 0).all() or inst.n_steps == 1
            objs = report.objectives
            assert approx_objective(inst, tables) == pytest.approx(objs[-1], rel=1e-9)
            if inst.n_steps > 1:
                gap, _ = frank_wolfe_gap(inst, tables)
                assert gap <= 1e-6 * max(1.0, abs(objs[-1]))

    @pytest.mark.parametrize("make", SOLVED)
    def test_converges_with_independent_certificates(self, make):
        inst = make()
        tables, report = solve_approximate(inst)
        assert report.converged and report.gap_rel <= report.tol
        assert report.iterations <= 30
        assert report.objectives[-1] == pytest.approx(approx_objective(inst, tables), rel=1e-9)
        assert marginal_residual(inst, tables) <= 1e-9
        assert (tables.node > 0).all() and (tables.edge > 0).all()
        # solved tightly, the answer's Frank-Wolfe gap is within the default tol
        tables, report = solve_approximate(inst, tol=1e-12)
        assert report.converged
        gap, _ = frank_wolfe_gap(inst, tables)
        assert -1e-9 <= gap / max(1.0, abs(report.objectives[-1])) <= 1e-6

    @pytest.mark.parametrize("make", SOLVED)
    def test_gap_is_never_negative(self, monkeypatch, make):
        # summed as Fenchel-Young terms the gap cannot fall below 0 by
        # rounding, so tol = 0 claims convergence only at a gap of exactly 0
        gaps = []
        young = baseline._young

        def spy(*args):
            gaps.append(young(*args))
            return gaps[-1]

        monkeypatch.setattr(baseline, "_young", spy)
        inst = make()
        for tol in (1e-6, 0.0):
            _, report = solve_approximate(inst, tol=tol)
            assert report.gap == gaps[-1]
        assert min(gaps) >= 0.0
        assert report.converged == (report.gap == 0.0)

    def test_tol_zero_claims_no_convergence_at_rounding_scale(self):
        # the two sides of f(x) - D(lam) are each about 1,821 here, and their
        # difference fell to -1.1e-12 at iteration 6; D cannot rise by less
        # than its rounding, so the last line search gives up before its
        # predicted rise gets there (65 evaluations when it ran to MAX_TRIALS)
        _, report = solve_approximate(relax_instance(), tol=0.0)
        assert report.gap >= 0.0
        assert report.converged == (report.gap == 0.0)
        assert not report.converged and report.linesearch_evals <= 10

    def test_frank_wolfe_gap_over_every_path(self):
        # the Viterbi pass against every path vertex enumerated, at the answer
        inst = make_mixed_instance(12)
        tables, _ = solve_approximate(inst, tol=1e-12)
        gap, states = frank_wolfe_gap(inst, tables)
        f = approx_objective(inst, tables)
        g_node, g_edge = gradient(inst, tables.node, tables.edge)
        at_x = float(np.vdot(g_node, tables.node)) + float(np.vdot(g_edge, tables.edge))
        worst = max(
            at_x - float(np.vdot(g_node, v_node)) - float(np.vdot(g_edge, v_edge))
            for v_node, v_edge in (
                vertex(inst, path) for path in itertools.product(range(inst.n_states), repeat=3)
            )
        )
        assert gap == pytest.approx(worst, abs=1e-9 * abs(f))
        assert 0.0 <= gap <= 1e-6 * abs(f)

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
        tables, report = solve_approximate(inst, tol=0.0, max_iters=1)
        assert report.iterations == 1 and not report.converged
        assert len(report.objectives) == 2
        assert report.objectives[-1] == pytest.approx(approx_objective(inst, tables), rel=1e-9)
        assert report.gap_rel == report.gap / abs(report.objectives[-1])
        # the cap's final gap can still certify the tables returned
        _, report = solve_approximate(free_instance(2, 1, 2), max_iters=0)
        assert report.converged and report.iterations == 0
        assert report.objectives == [pytest.approx(2 * math.log(2) - 2, abs=1e-12)]

    def test_stops_when_the_dual_cannot_rise(self, monkeypatch):
        # with +inf for every objective no gap certifies, so the line search
        # ends the solve once D stops rising, without claiming convergence:
        # its predicted rise reaches rounding scale before MAX_TRIALS
        results = []
        search = baseline.minimize_scalar

        def spy(*args):
            results.append(search(*args))
            return results[-1]

        monkeypatch.setattr(baseline, "minimize_scalar", spy)
        monkeypatch.setattr(baseline, "_objective_value", lambda *args: math.inf)
        _, report = solve_approximate(relax_instance())
        assert not report.converged and report.iterations < 100
        point, evals = results[-1]
        assert point is None and evals < baseline.MAX_TRIALS
        assert all(point is not None for point, _ in results[:-1])

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance, mixed_instance])
    def test_iterates_do_not_depend_on_the_value(self, monkeypatch, make):
        # the objective feeds the report and the tol stop alone: with +inf in
        # its place, which never stops, the solver visits the same multipliers
        # bit for bit (tol = 0, so a gap at rounding scale alone certifies)
        inst = make()

        def iterates() -> list:
            with monkeypatch.context() as patch:
                seen = record_points(patch)
                _, report = solve_approximate(inst, tol=0.0, max_iters=300)
            return [lam.tobytes() for lam, _, _ in seen], report

        first, report = iterates()
        assert report.iterations > 3
        monkeypatch.setattr(baseline, "_objective_value", lambda *args: math.inf)
        again, stopped = iterates()
        assert len(again) >= len(first) and again[: len(first)] == first
        assert stopped.objectives == [math.inf] * len(stopped.objectives)
        assert not stopped.converged and stopped.gap_rel == math.inf

    @pytest.mark.parametrize(
        "name, value", [("max_iters", -1), ("tol", math.nan), ("tol", -1e-6), ("tol", -math.inf)]
    )
    def test_rejects_a_negative_cap_and_a_negative_or_nan_tol(self, name, value):
        with pytest.raises(ValueError, match=name):
            solve_approximate(free_instance(2, 2, 4), **{name: value})

    @pytest.mark.parametrize("cap", [2.5, 3.0, np.float64(3.0), True, False, "3", None])
    def test_rejects_a_cap_that_is_not_an_integer(self, cap):
        with pytest.raises(ValueError, match="max_iters must be a nonnegative integer"):
            solve_approximate(free_instance(2, 2, 4), max_iters=cap)

    def test_accepts_a_numpy_integer_cap(self):
        inst = relax_instance()
        _, report = solve_approximate(inst, tol=0.0, max_iters=np.int64(2))
        assert report.iterations == 2
        assert report.to_dict() | {"wall_time": 0} == (
            solve_approximate(inst, tol=0.0, max_iters=2)[1].to_dict() | {"wall_time": 0}
        )

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
        assert all(type(v) is float for v in doc["trajectory"])

    def test_linesearch_evals_counts_slope_evaluations(self, monkeypatch):
        _, report = solve_approximate(free_instance(2, 1, 2))
        assert report.converged and report.iterations == 1
        assert report.linesearch_evals == 0
        seen = record_points(monkeypatch)
        _, report = solve_approximate(crowded_poisson_instance())
        # every dual evaluation but the start's is the line search's, and
        # evaluations outside the domain count too
        assert report.linesearch_evals > len(seen) - 1 >= report.iterations - 1 > 0

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


class TestSingleStep:
    """N = 1: the separable problem on the simplex, by bisection on its multiplier."""

    CASES = [
        # (noise, observations, M)
        ((MISSING, MISSING, Gaussian(1.0)), (np.nan, np.nan, 1.0), 10),
        ((MISSING, Poisson(), Poisson()), (np.nan, 0.0, 3.0), 10),
        ((Poisson(), Poisson(), Gaussian(2.0)), (0.0, 0.0, 1.0), 12),
        ((Poisson(), Poisson(), Gaussian(2.0)), (0.0, 2.0, 1.0), 12),
        ((Gaussian(1.0), Gaussian(4.0), Gaussian(0.5)), (30.0, 2.0, 9.0), 6),
        ((Gaussian(1.0), Gaussian(4.0), Gaussian(0.5)), (0.0, 2.0, 1.0), 40),
        ((MISSING, Gaussian(3.0), Poisson()), (np.nan, 50.0, 4.0), 5),
        ((Poisson(), Poisson()), (40.0, 1.0), 3),
        ((MISSING,), (np.nan,), 4),
        ((Poisson(),), (0.0,), 4),
        ((Gaussian(2.0),), (9.0,), 4),
    ]

    @classmethod
    def instances(cls):
        yield from (one_step_instance(*case) for case in cls.CASES)
        yield from (inst for inst in map(make_tiny_instance, range(120)) if inst.n_steps == 1)

    def test_kkt_conditions_hold(self):
        count = 0
        for inst in self.instances():
            tables, report = solve_approximate(inst)
            x = tables.node[0]
            M = inst.population
            assert report.converged and report.iterations == 0
            assert report.gap >= 0.0
            assert (x >= 0).all() and x.sum() == pytest.approx(M, rel=1e-12)
            # h'(x) equals nu where x > 0 and is at least nu where x = 0
            slope = node_slope(inst, tables.node)[0]
            positive = x > 0
            nu = float(np.median(slope[positive]))
            assert np.allclose(slope[positive], nu, rtol=0.0, atol=1e-9 * (1.0 + abs(nu)))
            assert (slope[~positive] >= nu - 1e-9 * (1.0 + abs(nu))).all()
            count += 1
        assert count >= len(self.CASES) + 20

    def test_gap_is_the_objective_less_the_dual(self):
        # D(nu) = nu M + sum_n min over x >= 0 of h_n(x) - nu x, by closed
        # forms at the nu the KKT conditions read off the answer
        for inst in self.instances():
            tables, report = solve_approximate(inst)
            x, M = tables.node[0], inst.population
            kind, y, var = (a[0] for a in inst.observation_arrays)
            nu = float(np.median(node_slope(inst, tables.node)[0][x > 0]))
            best = np.where(kind == GAUSSIAN, np.maximum(0.0, y + var * nu), 0.0)
            positive = (kind == POISSON) & (y > 0)
            best[positive] = y[positive] / (1.0 - nu)
            dual = nu * M + float((observation_cost(kind, y, var, best) - nu * best).sum())
            f = approx_objective(inst, tables)
            assert report.gap == pytest.approx(f - dual, abs=1e-9 * max(1.0, abs(f)))

    def test_no_grid_point_is_lower(self):
        for inst in self.instances():
            R, M = inst.n_states, inst.population
            tables, _ = solve_approximate(inst)
            steps = np.linspace(0.0, M, 301)
            if R == 1:
                grid = np.array([[M]], dtype=float)
            elif R == 2:
                grid = np.stack([steps, M - steps], axis=1)
            else:
                a, b = np.meshgrid(steps, steps)
                keep = a + b <= M
                grid = np.stack([a[keep], b[keep], M - a[keep] - b[keep]], axis=1)
            grid = np.clip(grid, 0.0, None)
            values = observation_cost(*(v[0] for v in inst.observation_arrays), grid).sum(axis=1)
            best = float(values.min())
            found = approx_objective(inst, tables)
            assert found <= best + 1e-9 * max(1.0, abs(best))

    def test_flat_nodes_share_the_leftover_at_their_break_value(self):
        # nu = 0 with a missing node: the Gaussian takes y, the missing nodes the rest
        tables, _ = solve_approximate(one_step_instance(*self.CASES[0]))
        assert tables.node.tolist() == [[4.5, 4.5, 1.0]]
        # nu = 1 with Poisson y = 0 nodes and no missing one: the Gaussian takes y + var
        tables, _ = solve_approximate(one_step_instance(*self.CASES[2]))
        assert tables.node.tolist() == [[4.5, 4.5, 3.0]]
        # a missing node holds nu at 0, so the Poisson y = 0 node takes nothing
        tables, _ = solve_approximate(one_step_instance(*self.CASES[1]))
        assert tables.node.tolist() == [[7.0, 0.0, 3.0]]


class TestLineSearch:
    @pytest.mark.parametrize("dual, rise", [(0.0, 1.0), (-3e5, 1.0), (2e3, 1e-9), (1.0, 1e-20)])
    def test_no_trial_predicts_a_rise_below_rounding(self, dual, rise):
        # D never rises here: every step t evaluated predicts t * rise above
        # 4 eps max(1, |D|), and the search stops at the first one that does not
        tried = []

        def flat(t):
            tried.append(t)
            return SimpleNamespace(dual=dual)

        floor = 4 * np.finfo(float).eps * max(1.0, abs(dual))
        steps = [0.5**k for k in range(baseline.MAX_TRIALS)]
        assert baseline.minimize_scalar(flat, dual, rise) == (None, len(tried))
        assert tried == [t for t in steps if t * rise > floor]

    def test_trials_stay_capped(self):
        tried = []

        def outside(t):
            tried.append(t)
            return None

        assert baseline.minimize_scalar(outside, 0.0, 1e30) == (None, baseline.MAX_TRIALS)
        assert len(tried) == baseline.MAX_TRIALS

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance])
    def test_slope_matches_finite_difference(self, monkeypatch, make):
        # rise, the slope of D that the backtracking takes at the step's start
        def check(trial, dual, rise, result):
            assert trial(0.0).dual == dual
            h = 1e-4
            fd = (trial(h).dual - trial(-h).dual) / (2 * h)
            assert fd == pytest.approx(rise, rel=1e-5, abs=1e-9 * max(1.0, abs(dual)))

        line_searches(monkeypatch, make(), check, tol=1e-10)

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance])
    def test_no_worse_than_bounded_brent(self, make):
        # from the answer toward the Frank-Wolfe vertex and a few random
        # paths' vertices, no point Brent finds beats it by more than the gap
        inst = make()
        tables, report = solve_approximate(inst)
        f = report.objectives[-1]
        _, best_states = frank_wolfe_gap(inst, tables)
        rng = np.random.default_rng(0)
        paths = [best_states] + [rng.integers(inst.n_states, size=inst.n_steps) for _ in range(5)]
        for states in paths:
            v_node, v_edge = vertex(inst, states)

            def along(gamma):
                moved = FractionalTables(
                    node=tables.node + gamma * (v_node - tables.node),
                    edge=tables.edge + gamma * (v_edge - tables.edge),
                )
                return approx_objective(inst, moved)

            brent = minimize_scalar(along, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-11})
            assert along(brent.x) >= f - report.gap - 1e-12 * objective_scale(inst, tables.node, tables.edge)

    def test_poisson_search_stays_below_one(self, monkeypatch):
        # unit steps from lam = 0 overshoot 1 here, so the domain check is hit
        inst = crowded_poisson_instance()
        outside = []

        def check(trial, dual, rise, result):
            t = 1.0
            while trial(t) is None:
                outside.append(t)
                t *= 0.5
            point, _ = result
            assert (point.lam < 1.0).all() and math.isfinite(point.dual)

        seen = record_points(monkeypatch)
        report = line_searches(monkeypatch, inst, check)
        assert report.converged and outside
        assert all((lam < 1.0).all() for lam, _, _ in seen)

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance, mixed_instance])
    def test_path_form_matches_generic_direction(self, monkeypatch, make):
        # the log-space forward-backward pass against scaled transfer-matrix
        # products, and the dual's gradient against central differences of D
        inst = make()
        seen = record_points(monkeypatch)
        solve_approximate(inst)
        assert len(seen) >= 3
        M = inst.population
        for lam, log_z, point in seen:
            want_z, want_node, want_edge = transfer_reference(inst.log_potentials, lam, M)
            assert log_z == pytest.approx(want_z, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(point.node, want_node, rtol=0, atol=1e-10 * M)
            np.testing.assert_allclose(point.edge, want_edge, rtol=0, atol=1e-10 * M)
        observed = baseline._Observations(inst)
        for _, _, point in (seen[0], seen[-1]):
            fd = np.empty_like(point.lam)
            for k in range(point.lam.size):
                h = np.zeros_like(point.lam)
                h[k] = 1e-5
                up = baseline._evaluate(inst, observed, point.lam + h).dual
                down = baseline._evaluate(inst, observed, point.lam - h).dual
                fd[k] = (up - down) / 2e-5
            scale = max(1.0, float(np.abs(point.grad).max()))
            np.testing.assert_allclose(point.grad, fd, rtol=0, atol=1e-5 * scale)

    @pytest.mark.parametrize("make", [relax_instance, poisson_instance, mixed_instance])
    def test_gap_is_the_fenchel_young_sum(self, monkeypatch, make):
        # at every point, f(x(lam)) - D(lam) is the Fenchel-Young sum
        # h(x) + h*(lam) - lam x over the nodes: a true gap, never negative,
        # and the report's gap is that sum
        inst = make()
        seen = record_points(monkeypatch)
        _, report = solve_approximate(inst)
        M = inst.population
        kind, y, var = inst.observation_arrays
        for lam, log_z, point in seen:
            x = point.node
            f = approx_objective(inst, FractionalTables(node=x, edge=point.edge))
            dual = -M * log_z + M * math.log(M) - M - float(conjugate(inst, lam).sum())
            scale = objective_scale(inst, x, point.edge)
            assert point.dual == pytest.approx(dual, abs=1e-12 * scale)
            young = observation_cost(kind, y, var, x) + conjugate(inst, lam) - lam * x
            assert (young >= -1e-12 * scale).all()
            assert f - point.dual == pytest.approx(float(young.sum()), abs=1e-11 * scale)
        assert report.gap == pytest.approx(float(young.sum()), abs=1e-11 * scale)
        assert report.gap >= 0.0

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
        # each point's node tables are its edge tables' row and column sums,
        # and the line search's point is carried into the next iteration
        # without another evaluation: the report's objectives are its tables'
        inst = make()
        seen = record_points(monkeypatch)
        tables, report = solve_approximate(inst, tol=1e-10)
        for _, _, point in seen:
            assert (point.node > 0).all() and (point.edge > 0).all()
            rows = point.edge.sum(axis=2)
            assert np.array_equal(point.node[:-1], rows)
            assert np.array_equal(point.node[-1], point.edge[-1].sum(axis=0))
            np.testing.assert_allclose(point.edge.sum(axis=1), point.node[1:], rtol=1e-12, atol=0)
            np.testing.assert_allclose(point.node.sum(axis=1), inst.population, rtol=1e-12)
        assert seen.calls == (report.linesearch_evals + 1 if inst.n_steps > 1 else 0)
        assert len(report.objectives) == report.iterations + (inst.n_steps == 1)
        assert marginal_residual(inst, tables) <= 1e-9
        assert report.objectives[-1] == pytest.approx(approx_objective(inst, tables), rel=1e-12)
        if seen:
            assert np.array_equal(tables.node, seen[-1][2].node)


class TestCheapestPath:
    """The test's own Viterbi pass, which the Frank-Wolfe gap checks rely on."""

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
                states, cost = cheapest_path(g_node, g_edge)
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
        states, cost = cheapest_path(g_node, g_edge)
        assert states.tolist() == [2, 0, 1] and cost == 0.0
