"""Difference-of-convex outer loop: slopes, surrogate bounds, descent."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgmflow.dca
from cgmflow import flow
from cgmflow.flow import solve_ssp
from cgmflow.core import ContingencyTables, log_factorial, objective, validate_tables
from cgmflow.dca import (
    AlphaStrategy,
    DcaConfig,
    _first_block,
    _first_warm_block,
    alpha_value,
    build_surrogate_network,
    run_dca,
    surrogate_g,
    surrogate_objective,
)
from cgmflow.instances import PotentialKind, gen_synthetic
from cgmflow.oracle import brute_force_map, enumerate_feasible
from conftest import make_mixed_instance, make_tiny_instance

STRATEGIES = [AlphaStrategy.L, AlphaStrategy.M, AlphaStrategy.R]


class TestAlphaValue:
    def test_frozen_values(self):
        assert alpha_value(AlphaStrategy.L, 4) == pytest.approx(
            -1.3862943611198906, abs=1e-15
        )
        assert alpha_value(AlphaStrategy.M, 1) == pytest.approx(
            -0.34657359027997264, abs=1e-15
        )
        assert alpha_value(AlphaStrategy.R, 2) == pytest.approx(
            -math.log(3), abs=1e-15
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_zero_count(self, strategy):
        assert alpha_value(strategy, 0) == 0.0

    def test_accepts_string_and_rejects_negative(self):
        assert alpha_value("M", 2) == alpha_value(AlphaStrategy.M, 2)
        with pytest.raises(ValueError):
            alpha_value(AlphaStrategy.L, -1)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None], ids=repr)
    def test_rejects_a_count_that_is_not_an_integer(self, bad):
        # each slope is math.log of the count, which would take a float
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            alpha_value(AlphaStrategy.L, bad)

    @given(n=st.integers(min_value=1, max_value=10**6))
    def test_within_admissible_interval(self, n):
        lo, hi = -math.log(n + 1), -math.log(n)
        for strategy in STRATEGIES:
            a = alpha_value(strategy, n)
            assert lo <= a <= hi
        assert alpha_value(AlphaStrategy.L, n) == hi
        assert alpha_value(AlphaStrategy.R, n) == lo

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_vectorized_slopes_equal_scalar_ones(self, strategy):
        # 2-D, like the interior cells of a linearization table; np.log in
        # place of math.log would differ first at n = 9170
        got = cgmflow.dca._alpha_values(strategy, np.arange(20000).reshape(4, 5000)).ravel()
        scalar = {
            AlphaStrategy.L: lambda k: -math.log(k),
            AlphaStrategy.M: lambda k: -0.5 * (math.log(k) + math.log(k + 1)),
            AlphaStrategy.R: lambda k: -math.log(k + 1),
        }[strategy]
        want = np.array([0.0] + [scalar(k) for k in range(1, 20000)])
        assert (got == want).all()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signs of zero too
        with pytest.raises(ValueError, match="nonnegative"):
            cgmflow.dca._alpha_values(strategy, np.array([3, -1]))


class TestSurrogateG:
    def test_frozen_value(self):
        assert surrogate_g(3, -math.log(3), 5) == pytest.approx(
            -3.9889840465642745, abs=1e-14
        )

    def test_rejects_inadmissible_slope(self):
        with pytest.raises(ValueError):
            surrogate_g(3, -math.log(5), 4)
        with pytest.raises(ValueError):
            surrogate_g(3, 0.1, 4)
        with pytest.raises(ValueError):
            surrogate_g(-1, 0.0, 4)
        with pytest.raises(ValueError):
            surrogate_g(1, -0.5, -2)

    @settings(max_examples=300)
    @given(
        n=st.integers(min_value=0, max_value=500),
        z=st.integers(min_value=0, max_value=500),
    )
    def test_upper_bound_and_tangency(self, n, z):
        for strategy in STRATEGIES:
            a = alpha_value(strategy, n)
            bar = surrogate_g(n, a, z)
            assert bar >= -log_factorial(z) - 1e-9
            assert surrogate_g(n, a, n) == pytest.approx(
                -log_factorial(n), abs=1e-12
            )


class TestSurrogateObjective:
    def test_dominates_and_touches(self):
        inst = make_tiny_instance(21, max_steps=4)
        tables = list(enumerate_feasible(inst))
        anchor = tables[len(tables) // 2]
        for cand in tables[:30]:
            s = surrogate_objective(inst, anchor, AlphaStrategy.M, cand)
            o = objective(inst, cand)
            if math.isinf(o):
                continue
            assert s >= o - 1e-9
        tight = surrogate_objective(inst, anchor, AlphaStrategy.M, anchor)
        o_anchor = objective(inst, anchor)
        if not math.isinf(o_anchor):
            assert tight == pytest.approx(o_anchor, abs=1e-9)


class TestRunDca:
    def test_no_interior_single_solve(self):
        # with at most two layers the surrogate IS the objective
        inst = make_tiny_instance(31, max_steps=2)
        tables, report = run_dca(inst)
        assert report.iterations == 1
        assert report.converged
        got, best = brute_force_map(inst)
        assert report.objectives[-1] == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_descent_and_feasible_iterates(self, strategy):
        for seed in range(6):
            inst = make_tiny_instance(seed + 40, max_steps=4, max_population=6)
            tables, report = run_dca(inst, DcaConfig(strategy=strategy))
            objs = report.objectives
            assert objs
            assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
            assert report.converged
            assert validate_tables(inst, tables) == []
            assert objective(inst, tables) == pytest.approx(
                min(objs), abs=1e-12
            )

    def test_dominates_oracle_never_below(self):
        hits = 0
        for seed in range(15):
            inst = make_tiny_instance(seed + 60, max_steps=4, max_population=5)
            tables, report = run_dca(inst)
            _, best = brute_force_map(inst)
            val = objective(inst, tables)
            assert val >= best - 1e-9
            if val <= best + 1e-9:
                hits += 1
        assert hits >= 10  # local search lands on the optimum most of the time

    def test_iteration_cap_reported_honestly(self):
        inst = make_tiny_instance(77, max_steps=5, max_population=6)
        tables, report = run_dca(inst, DcaConfig(max_iters=1))
        assert report.iterations == 1
        if len(report.objectives) == 1:
            # a one-iteration run cannot certify a fixed point with interiors
            assert inst.n_steps <= 2 or not report.converged
        assert validate_tables(inst, tables) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DcaConfig(max_iters=0)

    @pytest.mark.parametrize("cap", [-3, 2.5, 3.0, np.float64(3.0), True, False, "3", None])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        with pytest.raises(ValueError, match="max_iters must be a positive integer"):
            DcaConfig(max_iters=cap)

    def test_stores_a_numpy_integer_cap_as_int(self):
        config = DcaConfig(max_iters=np.int32(2))
        assert type(config.max_iters) is int and config.max_iters == 2
        _, report = run_dca(make_tiny_instance(77, max_steps=5, max_population=6), config)
        assert report.iterations <= 2

    def test_report_serializes(self):
        inst = make_tiny_instance(3)
        _, report = run_dca(inst)
        doc = report.to_dict()
        assert doc["trajectory"] == report.objectives
        assert doc["strategy"] in ("L", "M", "R")
        assert doc["inner_stats"] == [s.to_dict() for s in report.inner_stats]
        assert len(doc["inner_stats"]) == report.iterations
        assert doc["surrogates"] == report.surrogates
        assert doc["changed_cells"] == report.changed_cells
        assert len(doc["surrogates"]) == len(doc["changed_cells"]) == report.iterations


class Calls:
    """Counting wrappers around the names run_dca looks up in cgmflow.dca."""

    NAMES = ("solve_ssp", "build_surrogate_network", "extract_tables", "objective")

    def __init__(self, monkeypatch):
        self.log = []
        for name in self.NAMES:
            monkeypatch.setattr(cgmflow.dca, name, self.wrap(name, getattr(cgmflow.dca, name)))

    def wrap(self, name, original):
        def traced(*args, **kwargs):
            result = original(*args, **kwargs)
            self.log.append((name, args, kwargs, result))
            return result

        return traced

    def of(self, name):
        """(positional args, result) of every call; calls with keywords fail here."""
        calls = [(args, kwargs, result) for n, args, kwargs, result in self.log if n == name]
        assert all(not kwargs for _, kwargs, _ in calls), "run_dca passed keyword arguments"
        return [(args, result) for args, _, result in calls]


def gate3_instances():
    kinds = [PotentialKind.UNIFORM, PotentialKind.DISTANCE_1D]
    combos = [(R, M) for R in (5, 10) for M in (10, 100)]
    for run in range(50):
        R, M = combos[run % len(combos)]
        yield gen_synthetic(
            n_steps=5, n_states=R, population=M, kind=kinds[run % 2], seed=run
        )


def scaled_warm_instances():
    """Instances with M >= 64R, whose first warm solve starts at a block above 1."""
    for run in range(12):
        R, M = (2, 3)[run % 2], (200, 400)[run // 6]
        yield gen_synthetic(n_steps=5, n_states=R, population=M, seed=run)


def gate4_instances():
    for seed in range(200, 250):
        yield make_tiny_instance(seed, max_steps=4, max_states=3, max_population=6)


class TestFirstBlock:
    @pytest.mark.parametrize(
        "R, M, block",
        [(30, 100, 1), (40, 200, 1), (25, 20, 1), (10, 79, 1), (10, 80, 4),
         (10, 100, 4), (10, 2000, 64), (20, 10_000, 128)],
    )
    def test_rule(self, R, M, block):
        inst = gen_synthetic(n_steps=3, n_states=R, population=M, seed=0)
        assert _first_block(inst) == block

    @pytest.mark.parametrize(
        "R, M, block",
        [(10, 2000, 4), (20, 10_000, 8), (5, 1000, 4), (10, 500, 1), (30, 100, 1),
         (10, 319, 1), (10, 639, 1), (10, 640, 2)],
    )
    def test_warm_rule(self, R, M, block):
        inst = gen_synthetic(n_steps=3, n_states=R, population=M, seed=0)
        assert _first_warm_block(inst) == block == max(1, _first_block(inst) // 16)

    def test_first_solve_is_the_traced_cold_solve(self, monkeypatch):
        # the first call through cgmflow.dca.solve_ssp is the cold solve of the
        # first surrogate, so its cost is that surrogate's optimum
        calls = Calls(monkeypatch)
        inst = gen_synthetic(n_steps=5, n_states=5, population=400, seed=0)
        run_dca(inst)
        (network, start, block), (_, cost, stats) = calls.of("solve_ssp")[0]
        assert start is None and block == _first_block(inst) == 32
        assert stats.phases[0] == block
        zeros = ContingencyTables.zeros(inst.n_steps, inst.n_states)
        first = cgmflow.dca.build_surrogate_network(inst, zeros, AlphaStrategy.L)
        for solver in (flow.solve_ssp, flow.solve_capacity_scaling):
            assert cost == pytest.approx(solver(first)[1], rel=1e-9, abs=1e-9)


class TestWarmStartedLoop:
    # the cold solve is plain SSP at M < 8R ("ssp") and scaled at M >= 8R
    # ("cs"); the first warm solve is scaled too at M >= 64R ("warm")
    @pytest.mark.parametrize("inner", ["ssp", "cs", "warm"])
    def test_one_call_per_iteration_and_chained_starts(self, monkeypatch, inner):
        calls = Calls(monkeypatch)
        population = {"ssp": 39, "cs": 40, "warm": 640}[inner]
        inst = gen_synthetic(n_steps=5, n_states=5, population=population, seed=6)
        block, warm_block = _first_block(inst), _first_warm_block(inst)
        assert (block == 1) == (inner == "ssp")
        assert (warm_block == 1) == (inner != "warm")
        _, report = run_dca(inst)
        n = report.iterations
        assert n >= 3
        solves = calls.of("solve_ssp")
        assert len(solves) == n
        assert [len(args) for args, _ in solves] == [3] * n
        assert [args[2] for args, _ in solves] == [block, warm_block] + [1] * (n - 2)
        assert solves[0][0][1] is None
        for (args, _), (_, previous) in zip(solves[1:], solves):
            assert args[1] is previous[0]
        phases = [s.phases for s in report.inner_stats]
        assert [p[0] for p in phases] == [block, warm_block] + [1] * (n - 2)
        assert all(p[-1] == 1 for p in phases)
        assert phases[2:] == [[1]] * (n - 2)
        networks = calls.of("build_surrogate_network")
        assert [len(args) for args, _ in networks] == [3] * n
        for (args, _), (_, network) in zip(solves, networks):
            assert args[0] is network
        for name in ("build_surrogate_network", "extract_tables", "objective"):
            assert len(calls.of(name)) == n
        assert report.surrogates == [result[1] for _, result in solves]

    def test_surrogate_bounds_and_changed_cells(self, monkeypatch):
        stopped_on_fixed_point = 0
        for seed in range(8):
            calls = Calls(monkeypatch)
            inst = make_tiny_instance(seed + 500, max_steps=5, max_population=8)
            strategy = STRATEGIES[seed % 3]
            _, report = run_dca(inst, DcaConfig(strategy=strategy))
            tables = [result for _, result in calls.of("extract_tables")]
            anchors = [args[1] for args, _ in calls.of("build_surrogate_network")]
            assert len(report.surrogates) == len(report.changed_cells) == report.iterations
            for k in range(report.iterations):
                assert report.surrogates[k] >= report.objectives[k] - 1e-9
                want = surrogate_objective(inst, anchors[k], strategy, tables[k])
                assert report.surrogates[k] == pytest.approx(want, abs=1e-9)
                changed = int((tables[k].node != anchors[k].node).sum())
                assert report.changed_cells[k] == changed
            if len(tables) >= 2 and tables[-1].same_values(tables[-2]):
                stopped_on_fixed_point += 1
                assert report.changed_cells[-1] == 0
            monkeypatch.undo()
        assert stopped_on_fixed_point >= 3

    # every inner optimum, warm or cold, at block 1 or scaled, against a cold solve
    @pytest.mark.parametrize("cold_solver", ["ssp", "cs"])
    def test_warm_inner_optima_equal_cold(self, monkeypatch, cold_solver):
        solve_cold = flow.solve_ssp if cold_solver == "ssp" else flow.solve_capacity_scaling
        inner_solver = cgmflow.dca.solve_ssp
        checked = []

        def checked_solver(network, start, block):
            result = inner_solver(network, start, block)
            _, cold, _ = solve_cold(network)
            assert result[1] == pytest.approx(cold, abs=1e-9)
            checked.append((start is not None, block > 1))
            return result

        monkeypatch.setattr(cgmflow.dca, "solve_ssp", checked_solver)
        instances = [*gate3_instances(), *gate4_instances(), *scaled_warm_instances()]
        for inst in instances:
            run_dca(inst)
        assert sum(warm for warm, _ in checked) >= 200  # after each first iteration
        assert sum(not warm and scaled for warm, scaled in checked) >= 10
        assert sum(warm and scaled for warm, scaled in checked) >= 10

    def test_later_iterations_ship_few_units(self):
        M = 1000
        inst = gen_synthetic(n_steps=5, n_states=5, population=M, seed=0)
        _, report = run_dca(inst)
        units = [s.units for s in report.inner_stats]
        assert report.iterations >= 3
        # the cold solve routes all M units, in blocks that later phases
        # partly re-route; each warm solve moves only what changes
        assert units[0] >= M
        assert max(units[1:]) <= M // 4

    def test_reruns_are_identical(self):
        inst = gen_synthetic(n_steps=5, n_states=8, population=150, seed=12)
        _, r1 = run_dca(inst)
        _, r2 = run_dca(inst)
        assert r1.objectives == r2.objectives
        assert [s.shipments for s in r1.inner_stats] == [s.shipments for s in r2.inner_stats]


class TestStopRule:
    """run_dca stops at the first iterate that does not lower the objective."""

    @pytest.mark.parametrize(
        "steps, iterations, returned",
        [((0.0, -1e-12, -1e-12), 3, 1), ((0.0, 1e-12), 2, 0)],
        ids=["tiny_descent_continues", "tiny_ascent_stops"],
    )
    def test_scripted_objectives(self, monkeypatch, steps, iterations, returned):
        inst = gen_synthetic(n_steps=5, n_states=5, population=40, seed=6)
        first = objective(inst, run_dca(inst, DcaConfig(max_iters=1))[0])
        script = [first + step for step in steps]
        extracted = []

        def extract(*args):
            extracted.append(flow.extract_tables(*args))
            return extracted[-1]

        monkeypatch.setattr(cgmflow.dca, "extract_tables", extract)
        monkeypatch.setattr(cgmflow.dca, "objective", lambda *args: script[len(extracted) - 1])
        tables, report = run_dca(inst)
        assert report.iterations == len(extracted) == iterations
        assert report.objectives == script
        assert report.converged
        assert tables is extracted[returned]

    MIXED_NODE = [[1, 0, 2, 3], [1, 0, 2, 3], [3, 0, 2, 1]]
    MIXED_EDGE = [
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 1, 1]],
        [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 1, 1]],
    ]
    PINNED = {
        ("mixed", "L"): (
            [[1, 0, 2, 3], [0, 0, 2, 4], [3, 0, 2, 1]],
            [[[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]],
             [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 0], [2, 0, 1, 1]]],
            [-6.554111800564089, -6.866673128294934, -6.866673128294934],
        ),
        ("mixed", "M"): (MIXED_NODE, MIXED_EDGE, [-6.554111800564089, -6.554111800564089]),
        ("mixed", "R"): (MIXED_NODE, MIXED_EDGE, [-6.554111800564089, -6.554111800564089]),
        **{
            ("two_steps", s): (
                [[3, 3, 1], [3, 2, 2]], [[[1, 1, 1], [1, 1, 1], [1, 0, 0]]], [-15.208765960220294]
            )
            for s in "LMR"
        },
    }

    @pytest.mark.parametrize("case, strategy", sorted(PINNED))
    def test_pinned_runs(self, case, strategy):
        if case == "mixed":
            inst = make_mixed_instance()
        else:
            inst = gen_synthetic(n_steps=2, n_states=3, population=7, seed=4)
        tables, report = run_dca(inst, DcaConfig(strategy=strategy))
        node, edge, trajectory = self.PINNED[case, strategy]
        assert tables.node.tolist() == node
        assert tables.edge.tolist() == edge
        assert report.objectives == trajectory
        assert report.iterations == len(trajectory)
        assert report.converged


def relabeled(inst, p):
    """The instance with state a renamed to p[a]: a pure change of labels."""
    return replace(
        inst,
        potentials=inst.potentials[:, p][:, :, p],
        observations=inst.observations[:, p],
        noise=tuple(tuple(row[k] for k in p) for row in inst.noise),
    )


class TestRelabeling:
    """State labels are arbitrary, so relabeling the states changes no optimum.

    A metamorphic test (Chen et al., ACM Comput. Surv. 51, 2018): the first
    surrogate's optimal cost and the objective DCA reaches are compared
    across random relabelings, with no reference answer needed.
    """

    CASES = [("tiny", seed) for seed in range(200, 260)] + [
        ("mixed", 12),
        ("synthetic", 10),
        ("synthetic", 100),
    ]

    @staticmethod
    def make(kind, arg):
        if kind == "tiny":
            return make_tiny_instance(arg, max_steps=4, max_states=3, max_population=6)
        if kind == "mixed":
            return make_mixed_instance(arg)
        return gen_synthetic(n_steps=5, n_states=10, population=arg, seed=0)

    @staticmethod
    def first_surrogate_cost(inst):
        zeros = ContingencyTables.zeros(inst.n_steps, inst.n_states)
        return solve_ssp(build_surrogate_network(inst, zeros, DcaConfig().strategy))[1]

    @pytest.mark.parametrize("kind, arg", CASES, ids=[f"{k}{a}" for k, a in CASES])
    def test_optima_do_not_depend_on_labels(self, kind, arg):
        inst = self.make(kind, arg)
        surrogate = self.first_surrogate_cost(inst)
        tables, _ = run_dca(inst)
        value = objective(inst, tables)
        rng = np.random.default_rng(arg)
        for _ in range(3):
            p = rng.permutation(inst.n_states)
            other = relabeled(inst, p)
            moved = ContingencyTables(node=tables.node[:, p], edge=tables.edge[:, p][:, :, p])
            assert objective(other, moved) == pytest.approx(value, rel=1e-9)
            assert self.first_surrogate_cost(other) == pytest.approx(surrogate, rel=1e-9)
            other_tables, _ = run_dca(other)
            assert objective(other, other_tables) == pytest.approx(value, rel=1e-9)
