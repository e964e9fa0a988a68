"""Layered network construction and the exact min convex-cost flow solvers."""

import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import bellman_ford

import cgmflow.flow
from cgmflow.core import (
    GAUSSIAN,
    POISSON,
    CgmInstance,
    ContingencyTables,
    Gaussian,
    MISSING,
    Poisson,
    f_cost,
    g_cost,
    h_cost,
    objective,
    validate_tables,
)
from cgmflow.dca import AlphaStrategy, alpha_value, build_surrogate_network, surrogate_g
from cgmflow.flow import (
    Flow,
    FlowNetwork,
    InfeasibleError,
    PathCosts,
    SolveStats,
    _ResidualState,
    build_flow_network,
    cost_table,
    extract_tables,
    flow_balance,
    flow_cost,
    network_to_dot,
    network_to_json,
    solve_capacity_scaling,
    solve_ssp,
)
from cgmflow.instances import GridSpec, gen_interpolation, gen_synthetic
from cgmflow.oracle import brute_force_flow, enumerate_feasible
from conftest import free_instance, make_mixed_instance, make_tiny_instance


def surrogate_zero(instance, strategy=AlphaStrategy.L):
    anchor = ContingencyTables.zeros(instance.n_steps, instance.n_states)
    return build_surrogate_network(instance, anchor, strategy)


def tables_to_flow(network, tables):
    """Assemble edge values from tables through the layout id arrays."""
    layout = network.layout
    values = np.zeros(network.n_edges, dtype=np.int64)
    values[layout.source_edges] = tables.node[0]
    values[layout.node_edges] = tables.node
    values[layout.trans_edges] = tables.edge
    values[layout.sink_edges] = tables.node[-1]
    return Flow(values=values)


class TestConstruction:
    @pytest.mark.parametrize(
        "N,R,nodes,edges",
        [(3, 2, 14, 18), (2, 1, 6, 5), (2, 3, 14, 21), (1, 2, 6, 6)],
    )
    def test_sizes(self, N, R, nodes, edges):
        net = build_flow_network(free_instance(N, R, 4))
        assert net.n_nodes == nodes
        assert net.n_edges == edges

    def test_supplies(self):
        net = build_flow_network(free_instance(3, 2, 7))
        assert net.supplies[0] == 7
        assert net.supplies[1] == -7
        assert net.supplies[2:].sum() == 0
        assert not net.supplies.flags.writeable

    def test_edge_wiring(self):
        net = build_flow_network(free_instance(3, 2, 5))
        layout = net.layout

        def ends(e):
            return (int(net.tails[e]), int(net.heads[e]))

        for i in range(2):
            assert ends(layout.source_edges[i]) == (0, layout.u_node(0, i))
            assert ends(layout.sink_edges[i]) == (layout.w_node(2, i), 1)
        for t in range(3):
            for i in range(2):
                assert ends(layout.node_edges[t, i]) == (
                    layout.u_node(t, i),
                    layout.w_node(t, i),
                )
        for t in range(2):
            for i in range(2):
                for j in range(2):
                    assert ends(layout.trans_edges[t, i, j]) == (
                        layout.w_node(t, i),
                        layout.u_node(t + 1, j),
                    )

    def test_node_names(self):
        layout = build_flow_network(free_instance(2, 2, 3)).layout
        assert layout.node_name(0) == "o"
        assert layout.node_name(1) == "d"
        assert layout.node_name(layout.u_node(0, 0)) == "u_1_1"
        assert layout.node_name(layout.w_node(1, 1)) == "w_2_2"

    def test_capacities_are_population(self):
        net = build_flow_network(free_instance(2, 2, 9))
        assert (net.capacity == 9).all()

    def test_surrogate_shape_mismatch(self):
        inst = free_instance(3, 2, 4)
        bad = ContingencyTables.zeros(2, 2)
        with pytest.raises(ValueError):
            build_surrogate_network(inst, bad, AlphaStrategy.L)

    @pytest.mark.parametrize(
        "slope,offset",
        [
            (0.5, np.zeros((2, 3))),  # a scalar would broadcast
            (np.zeros((1, 3)), np.zeros((2, 3))),  # so would a single row
            (np.zeros((2, 3)), np.zeros(3)),
            (np.zeros((2, 3)), np.zeros((3, 2))),
        ],
    )
    def test_interior_shape_mismatch(self, slope, offset):
        inst = free_instance(4, 3, 5)
        with pytest.raises(ValueError, match="interior"):
            build_flow_network(inst, (slope, offset))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_derived_network_rejects_nonfinite_costs(self, bad):
        inst = gen_synthetic(n_steps=4, n_states=3, population=10, seed=2)
        slope, offset = np.zeros((2, 3)), np.zeros((2, 3))
        slope[1, 2] = bad
        with pytest.raises(ValueError, match="slope must be finite"):
            build_flow_network(inst, (slope, offset))
        with pytest.raises(ValueError, match="offset must be finite"):
            build_flow_network(inst, (offset, slope))
        with pytest.raises(ValueError, match="interior"):
            build_flow_network(inst, (slope[:1], offset))


def reference_table(inst, net, linearization=None, strategy=AlphaStrategy.L):
    """Cell-by-cell cost of every edge from the core cost functions.

    Interior node edges get g + h on the as-built network, or the affine
    surrogate plus h when a linearization is given.
    """
    layout = net.layout
    N, R, M = inst.n_steps, inst.n_states, inst.population
    want = np.zeros((net.n_edges, M + 1))
    for z in range(M + 1):
        for t in range(N):
            for i in range(R):
                h = h_cost(inst, t, i, z)
                if 0 < t < N - 1:
                    if linearization is None:
                        inner = g_cost(z)
                    else:
                        n_lin = int(linearization.node[t, i])
                        inner = surrogate_g(n_lin, alpha_value(strategy, n_lin), z)
                    h += inner
                want[layout.node_edges[t, i], z] = h
        for t in range(N - 1):
            for i in range(R):
                for j in range(R):
                    want[layout.trans_edges[t, i, j], z] = f_cost(inst, t, i, j, z)
    return want


def assert_tables_equal(got, want):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=1e-12)


ARC_FIELDS = (
    "tails", "heads", "capacity", "lf", "slope", "offset", "obs_kind", "obs_y", "obs_var"
)


def array_network(n_nodes, supplies, arcs):
    """FlowNetwork from one row of ARC_FIELDS values per edge."""
    return FlowNetwork(
        n_nodes=n_nodes,
        supplies=np.array(supplies),
        **{name: np.array(col) for name, col in zip(ARC_FIELDS, zip(*arcs))},
    )


MIXED_LIN = ContingencyTables(
    node=np.array([[0, 1, 2, 3], [4, 0, 1, 5], [2, 2, 1, 1]]),
    edge=np.zeros((2, 4, 4), dtype=np.int64),
)


class TestCostTables:
    def test_as_built_network_matches_core_costs(self):
        inst = make_mixed_instance()
        net = build_flow_network(inst)
        assert_tables_equal(cost_table(net), reference_table(inst, net))

    @pytest.mark.parametrize("strategy", list(AlphaStrategy))
    def test_surrogate_network_matches_core_costs(self, strategy):
        inst = make_mixed_instance()
        net = build_surrogate_network(inst, MIXED_LIN, strategy)
        got = cost_table(net)
        assert_tables_equal(got, reference_table(inst, net, MIXED_LIN, strategy))
        # the state's lower bounds sit just above the table's only +inf costs
        state = _ResidualState(net, SolveStats())
        assert np.array_equal(state.lower, np.isinf(got[:, 0]).astype(np.int64))

    @pytest.mark.parametrize("surrogate", [False, True])
    def test_state_increments_match_cost_table(self, surrogate, monkeypatch):
        inst = make_mixed_instance()
        sur = build_surrogate_network(inst, MIXED_LIN, AlphaStrategy.M)
        net = sur if surrogate else build_flow_network(inst)
        table = cost_table(net)
        # the as-built interior costs are not convex; only increments are tested
        monkeypatch.setattr(_ResidualState, "_check_convex", lambda state, rows: None)
        state = _ResidualState(net, SolveStats(), solve_ssp(sur)[0])
        edge, fwd = state.arc_edge, state.arc_fwd
        rng = np.random.default_rng(3)
        for _ in range(25):
            state.z = rng.integers(state.lower, state.cap + 1)
            for delta in (1, 4):
                state.step = 0
                state._at_step(delta)
                z = state.z[edge]
                to = np.where(fwd, z + delta, z - delta)
                inside = (to >= state.lower[edge]) & (to <= state.cap[edge])
                moved = table[edge, np.where(inside, to, z)] - table[edge, z]
                want = np.where(inside, moved / delta, math.inf)
                # bit for bit, +inf where the step leaves the edge's range
                assert np.array_equal(state.inc, want)

    def test_flow_cost_equals_table_lookup(self):
        inst = make_mixed_instance()
        rng = np.random.default_rng(5)
        for net in (build_flow_network(inst), build_surrogate_network(inst, MIXED_LIN, "M")):
            table = cost_table(net)
            rows = np.arange(net.n_edges)
            hits_inf = 0
            for _ in range(40):
                values = rng.integers(0, net.capacity + 1)
                want = table[rows, values].sum()
                hits_inf += math.isinf(want)
                # bit for bit, +inf included (a Poisson y > 0 at z = 0)
                assert flow_cost(net, Flow(values=values)) == want
            assert 0 < hits_inf < 40
            with pytest.raises(ValueError, match="edge bounds"):
                flow_cost(net, Flow(values=net.capacity + (rows == 3)))

    def test_flow_cost_needs_no_table(self):
        inst = gen_synthetic(n_steps=5, n_states=10, population=2000, seed=2)
        net = surrogate_zero(inst)
        flow = Flow(values=np.random.default_rng(0).integers(0, net.capacity + 1))
        want = flow_cost(net, flow)
        assert cost_table(net).nbytes > 7 * 2**20
        tracemalloc.start()
        try:
            assert flow_cost(net, flow) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @staticmethod
    def traced_peak(solve):
        tracemalloc.start()
        try:
            solve()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_solve_needs_no_table(self):
        # the (E, M + 1) cost table alone would take 7.2 MiB here
        net = surrogate_zero(gen_synthetic(n_steps=5, n_states=10, population=2000, seed=2))
        solve_ssp(net)  # grows the shared ln z! table outside the trace
        assert self.traced_peak(lambda: solve_ssp(net)) < 2 * 2**20

    @pytest.mark.slow
    def test_large_population_solves_in_little_memory(self):
        # N=5, R=50, M=10^4: a cost table would take 790 MB
        net = surrogate_zero(gen_synthetic(n_steps=5, n_states=50, population=10**4, seed=3))
        assert self.traced_peak(lambda: solve_capacity_scaling(net)) < 16 * 2**20

    def test_scale_is_largest_increment(self):
        for seed in range(12):
            inst = make_tiny_instance(seed)
            lin = ContingencyTables(
                node=np.full((inst.n_steps, inst.n_states), seed % 3),
                edge=np.zeros((max(inst.n_steps - 1, 0),) + (inst.n_states,) * 2),
            )
            net = build_surrogate_network(inst, lin, AlphaStrategy.M)
            want = reference_table(inst, net, lin, AlphaStrategy.M)
            with np.errstate(invalid="ignore"):
                steps = np.diff(want, axis=1)
            steps = steps[np.isfinite(steps)]
            expected = max(1.0, float(np.abs(steps).max(initial=0.0)))
            state = _ResidualState(net, SolveStats())
            assert state.scale == pytest.approx(expected, rel=1e-12)

    def test_convex_interior_of_as_built_network_is_solved(self):
        # Gaussian var 0.5 adds a second difference of 2, more than -log z!
        # takes away, so the lf < 0 rows pass the numeric convexity check
        inst = CgmInstance(
            n_steps=3,
            n_states=2,
            population=4,
            potentials=np.array([[[1.0, 2.0], [0.5, 3.0]], [[2.0, 1.0], [1.0, 0.7]]]),
            observations=np.array([[1.0, np.nan], [2.0, 1.0], [np.nan, 3.0]]),
            noise=((Poisson(), MISSING), (Gaussian(0.5), Gaussian(0.5)), (MISSING, Poisson())),
        )
        net = build_flow_network(inst)
        assert (net.lf < 0).sum() == 2
        _, best = brute_force_flow(net)
        for solver in (solve_ssp, solve_capacity_scaling):
            flow, cost, _ = solver(net)
            assert cost == pytest.approx(best, abs=1e-9)
            assert objective(inst, extract_tables(net, flow)) == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize(
        "column,value,match",
        [
            ("lf", math.nan, "lf must be finite"),
            ("slope", math.inf, "slope must be finite"),
            ("offset", -math.inf, "offset must be finite"),
            ("obs_y", math.nan, "obs_y must be finite"),
            ("obs_var", math.inf, "obs_var must be finite"),
            ("capacity", -1, "capacities must be nonnegative"),
            ("capacity", 1.5, "capacity must hold int64"),
            # out of the dtype's range: the cast's RuntimeWarning must not surface
            ("capacity", 1e20, "capacity must hold int64"),
            ("obs_kind", 300.0, "obs_kind must hold int8"),
            ("obs_kind", 3, "obs_kind"),
            ("obs_var", 0.0, "Gaussian variances must be positive"),
            ("obs_var", -2.0, "Gaussian variances must be positive"),
            ("obs_y", -1.0, "Poisson observations"),
            ("obs_y", 0.5, "Poisson observations"),
            ("heads", 2, "endpoints"),
        ],
    )
    def test_network_rejects_bad_parameters(self, column, value, match):
        # edge 0 is Gaussian, edge 1 Poisson; the bad value goes where it matters
        arcs = [
            [0, 1, 2, 1.0, 0.5, 0.0, GAUSSIAN, 1.0, 2.0],
            [0, 1, 2, 0.0, 0.0, 0.0, POISSON, 1.0, 1.0],
        ]
        row = 1 if column == "obs_y" and match.startswith("Poisson") else 0
        arcs[row][ARC_FIELDS.index(column)] = value
        with pytest.raises(ValueError, match=match):
            array_network(2, [2, -2], arcs)

    @pytest.mark.parametrize(
        "column,values,match",
        [
            # arrays already in their dtype, which are not compared with a cast
            ("obs_kind", np.array([3], dtype=np.int8), "obs_kind must be 0, GAUSSIAN or POISSON"),
            ("obs_kind", np.array([-1], dtype=np.int8), "obs_kind must be 0, GAUSSIAN or POISSON"),
            ("capacity", np.array([-1], dtype=np.int64), "capacities must be nonnegative"),
            ("lf", np.array([math.nan]), "lf must be finite"),
            # a float obs_kind is cast to int8 and compared
            ("obs_kind", np.array([1.5]), "obs_kind must hold int8"),
        ],
    )
    def test_network_rejects_bad_arrays_of_any_dtype(self, column, values, match):
        net = array_network(2, [2, -2], [[0, 1, 2, 1.0, 0.5, 0.0, GAUSSIAN, 1.0, 2.0]])
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(net, **{column: values})

    def test_solvers_reject_overflowing_costs(self):
        # finite, valid parameters whose Gaussian term overflows at z = 1
        net = array_network(2, [1, -1], [[0, 1, 1, 0.0, 0.0, 0.0, GAUSSIAN, 0.0, 1e-310]])
        for solver in (solve_ssp, solve_capacity_scaling):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
                solver(net)

    def test_network_rejects_fractional_supplies(self):
        with pytest.raises(ValueError, match="supplies must be integers"):
            array_network(2, [1.5, -1.5], [[0, 1, 2, 1.0, 0.5, 0.0, GAUSSIAN, 1.0, 2.0]])

    def test_network_rejects_misshapen_arrays(self):
        with pytest.raises(ValueError, match="one entry per edge"):
            FlowNetwork(
                n_nodes=2,
                supplies=np.array([1, -1]),
                tails=np.array([0]),
                heads=np.array([1]),
                capacity=np.array([1, 1]),
                lf=np.zeros(1),
                slope=np.zeros(1),
                offset=np.zeros(1),
                obs_kind=np.zeros(1),
                obs_y=np.zeros(1),
                obs_var=np.ones(1),
            )


class TestFlowTableCorrespondence:
    def test_cost_equals_objective(self):
        for seed in range(12):
            inst = make_tiny_instance(seed)
            net = build_flow_network(inst)
            for k, tables in enumerate(enumerate_feasible(inst)):
                if k >= 25:
                    break
                flow = tables_to_flow(net, tables)
                assert np.array_equal(flow_balance(net, flow.values), net.supplies)
                got = flow_cost(net, flow)
                want = objective(inst, tables)
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9)

    def test_extract_roundtrip(self):
        inst = make_tiny_instance(5)
        net = build_flow_network(inst)
        tables = next(iter(enumerate_feasible(inst)))
        back = extract_tables(net, tables_to_flow(net, tables))
        assert back.same_values(tables)

    def test_extract_rejects_bad_flows(self):
        inst = free_instance(2, 2, 3)
        net = build_flow_network(inst)
        with pytest.raises(ValueError):
            extract_tables(net, Flow(values=np.zeros(net.n_edges - 1, dtype=np.int64)))
        with pytest.raises(ValueError):
            extract_tables(net, Flow(values=np.zeros(net.n_edges, dtype=np.int64)))
        vals = np.zeros(net.n_edges, dtype=np.int64)
        vals[0] = -1
        with pytest.raises(ValueError):
            extract_tables(net, Flow(values=vals))


def parallel_antiparallel_network():
    """Hand-made network the layered builders never produce.

    Two parallel 1 -> 2 edges with different convex costs, and an
    antiparallel 0 <-> 1 pair whose 1 -> 0 edge carries a mandatory unit
    (Poisson, y = 1).
    """
    log2 = math.log(2)
    return array_network(
        4,
        [2, 1, -2, -1],
        [
            # tail, head, cap, lf, slope, offset, obs kind, y, var
            [0, 1, 3, 1.0, -0.1, 0.0, 0, 0.0, 1.0],
            [1, 0, 3, 0.0, 0.0, 0.0, POISSON, 1.0, 1.0],
            [0, 2, 3, 0.0, 0.0, 0.0, GAUSSIAN, 1.0, 2.0],
            [1, 2, 2, 1.0, -1.2, 0.0, 0, 0.0, 1.0],
            [1, 2, 3, 0.0, 0.0, 0.0, GAUSSIAN, 2.0, 1.0],
            [1, 3, 1, 0.0, 0.0, 0.0, 0, 0.0, 1.0],
            [0, 3, 2, 1.0, 0.5, 0.0, 0, 0.0, 1.0],
            # affine surrogate of -log z! anchored at 2 with slope -log 2
            [2, 3, 2, 0.0, -log2, -log2 + 2 * log2, 0, 0.0, 1.0],
        ],
    )


class TestSolvers:
    def test_matches_brute_force(self):
        for seed in range(20):
            inst = make_tiny_instance(seed)
            net = surrogate_zero(inst)
            _, best = brute_force_flow(net)
            flow, cost, stats = solve_ssp(net)
            assert cost == pytest.approx(best, abs=1e-9)
            assert stats.method == "ssp"
            tables = extract_tables(net, flow)
            assert validate_tables(inst, tables) == []

    def test_capacity_scaling_agrees(self):
        for seed in range(20):
            inst = make_tiny_instance(seed + 100)
            net = surrogate_zero(inst, AlphaStrategy.M)
            _, c1, _ = solve_ssp(net)
            _, c2, stats = solve_capacity_scaling(net)
            assert c2 == pytest.approx(c1, abs=1e-9)
            assert stats.method == "cs"
            assert stats.phases

    def test_phases(self):
        # SSP is the single unit phase; CS halves from the largest power of
        # two at most the top excess (the source supply M here) down to 1
        for M, blocks in ((1, [1]), (20, [16, 8, 4, 2, 1]), (32, [32, 16, 8, 4, 2, 1])):
            net = surrogate_zero(gen_synthetic(n_steps=3, n_states=3, population=M, seed=M))
            _, c1, ssp = solve_ssp(net)
            _, c2, cs = solve_capacity_scaling(net)
            assert ssp.phases == [1]
            assert cs.phases == blocks
            assert c2 == pytest.approx(c1, abs=1e-9)
        assert solve_ssp(net, solve_ssp(net)[0])[2].to_dict()["phases"] == [1]

    @pytest.mark.parametrize("cap, blocks", [
        (1, [1]), (2, [2, 1]), (5, [4, 2, 1]), (16, [16, 8, 4, 2, 1]),
        (10**6, [32, 16, 8, 4, 2, 1]),
    ])
    def test_block_cap(self, cap, blocks):
        # the cold solve starts at the largest power of two at most
        # min(max_block, top excess); M = 40 here
        net = surrogate_zero(gen_synthetic(n_steps=4, n_states=3, population=40, seed=3))
        _, unit_cost, _ = solve_ssp(net)
        flow, cost, stats = solve_ssp(net, None, cap)
        assert stats.method == "ssp" and stats.phases == blocks
        assert cost == pytest.approx(unit_cost, abs=1e-9)
        # a warm start halves from the largest power of two at most
        # min(max_block, largest edge range), here M too
        warm = solve_ssp(net, flow, cap)
        assert warm[2].phases == blocks
        assert warm[1] == pytest.approx(unit_cost, abs=1e-9)
        assert warm[2].min_reduced_cost >= -1e-9 * max(1.0, abs(unit_cost))
        if cap == 1:
            assert_same_solve(warm, solve_ssp(net, plain(flow)))
        # capacity scaling from a start stays the unit phase
        assert solve_capacity_scaling(net, plain(flow))[2].phases == [1]

    def test_uncapped_block_is_capacity_scaling(self):
        net = surrogate_zero(gen_synthetic(n_steps=5, n_states=4, population=300, seed=8))
        got, want = solve_ssp(net, max_block=math.inf), solve_capacity_scaling(net)
        got[2].method = "cs"
        assert_same_solve(got, want)

    @pytest.mark.parametrize("cap", [0, 0.5, -4, math.nan])
    def test_block_cap_below_one_raises(self, cap):
        net = surrogate_zero(make_tiny_instance(3))
        with pytest.raises(ValueError, match="max_block"):
            solve_ssp(net, None, cap)

    def test_deterministic(self):
        inst = make_tiny_instance(7)
        net = surrogate_zero(inst)
        f1, c1, s1 = solve_ssp(net)
        f2, c2, s2 = solve_ssp(net)
        assert np.array_equal(f1.values, f2.values)
        assert c1 == c2
        d1, d2 = s1.to_dict(), s2.to_dict()
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2

    def test_ssp_path_costs_nondecreasing(self):
        inst = free_instance(3, 2, 6, phi=np.arange(1, 9, dtype=float).reshape(2, 2, 2))
        _, _, stats = solve_ssp(surrogate_zero(inst))
        costs = stats.path_costs
        assert costs.count == 6 and costs.nondecreasing
        assert costs.min <= costs.last == costs.max

    def test_optimality_certificate(self):
        inst = make_tiny_instance(9)
        for solver in (solve_ssp, solve_capacity_scaling):
            _, _, stats = solver(surrogate_zero(inst))
            assert stats.min_reduced_cost >= -1e-9

    def test_certificate_rejects_perturbed_potentials(self):
        inst = free_instance(3, 2, 6, phi=np.arange(1, 9, dtype=float).reshape(2, 2, 2))
        state = _ResidualState(surrogate_zero(inst), SolveStats())
        while state.ship(1):
            pass
        state.finalize()
        assert state.stats.min_reduced_cost >= -1e-9
        # raising the source's potential makes its open outgoing arcs negative
        state.pi[0] += 100.0
        with pytest.raises(RuntimeError, match="certificate"):
            state.finalize()
        assert state.stats.min_reduced_cost < -1e-9 * state.scale

    def test_report_summarizes_path_costs(self, monkeypatch):
        # the running summary equals the summary of every shipped path's cost
        shipped = []
        add = PathCosts.add

        def recorded(summary, costs):
            shipped.extend(costs)
            add(summary, costs)

        monkeypatch.setattr(PathCosts, "add", recorded)
        inst = free_instance(3, 2, 6, phi=np.arange(1, 9, dtype=float).reshape(2, 2, 2))
        for solver in (solve_ssp, solve_capacity_scaling):
            shipped.clear()
            _, _, stats = solver(surrogate_zero(inst))
            assert stats.to_dict()["path_costs"] == {
                "count": len(shipped),
                "min": min(shipped),
                "max": max(shipped),
                "nondecreasing": all(b >= a - 1e-9 for a, b in zip(shipped, shipped[1:])),
            }
            assert len(shipped) == stats.shipments

    @settings(max_examples=100, deadline=None)
    @given(
        # steps of a few 1e-10 probe the 1e-9 tolerance against the previous cost
        costs=st.lists(st.sampled_from([-2.0, -1.2e-9, -5e-10, 0.0, 5e-10, 1.0]), max_size=12),
        cuts=st.sets(st.integers(1, 11)),
    )
    # each cost within 1e-9 of the one before it, not of the max
    @example(costs=[0.0, -5e-10, -1.2e-9], cuts={2})
    def test_path_cost_summary_equals_list_summary(self, costs, cuts):
        summary = PathCosts()
        bounds = [0, *sorted(c for c in cuts if c < len(costs)), len(costs)]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                summary.add(costs[lo:hi])
        assert SolveStats(path_costs=summary).to_dict()["path_costs"] == {
            "count": len(costs),
            "min": min(costs, default=None),
            "max": max(costs, default=None),
            "nondecreasing": all(b >= a - 1e-9 for a, b in zip(costs, costs[1:])),
        }

    def test_parallel_and_antiparallel_edges(self):
        net = parallel_antiparallel_network()
        _, best = brute_force_flow(net)
        for solver in (solve_ssp, solve_capacity_scaling):
            flow, cost, _ = solver(net)
            assert cost == pytest.approx(best, abs=1e-9)
            assert flow_cost(net, flow) == pytest.approx(cost, abs=1e-9)
            assert np.array_equal(flow_balance(net, flow.values), net.supplies)

    def test_negative_cycle_raises(self):
        net = array_network(
            2,
            [1, -1],
            [
                [0, 1, 2, 1.0, -2.0, 0.0, 0, 0.0, 1.0],
                [1, 0, 2, 1.0, -2.0, 0.0, 0, 0.0, 1.0],
            ],
        )
        for solver in (solve_ssp, solve_capacity_scaling):
            with pytest.raises(ValueError, match="negative-cost cycle"):
                solver(net)

    def test_solvers_agree_beyond_tiny_sizes(self):
        inst = gen_synthetic(n_steps=5, n_states=10, population=200, seed=4)
        net = surrogate_zero(inst)
        _, c1, _ = solve_ssp(net)
        _, c2, stats = solve_capacity_scaling(net)
        assert c2 == pytest.approx(c1, abs=1e-9)
        assert stats.min_reduced_cost >= -1e-9

    def test_rejects_nonconvex_costs(self):
        net = build_flow_network(free_instance(3, 2, 4))
        with pytest.raises(ValueError, match="convex"):
            solve_ssp(net)
        with pytest.raises(ValueError, match="convex"):
            solve_capacity_scaling(net)

    @staticmethod
    def gaussian_chain(missing=()):
        """N = 4, R = 3, M = 12, Gaussian var 0.5 <= 1 / ln 2 on every node but the missing cells."""
        rng = np.random.default_rng(5)
        obs = rng.uniform(0.0, 6.0, (4, 3))
        noise = [[Gaussian(0.5)] * 3 for _ in range(4)]
        for t, i in missing:
            obs[t, i], noise[t][i] = np.nan, MISSING
        return CgmInstance(
            n_steps=4,
            n_states=3,
            population=12,
            potentials=rng.uniform(0.5, 2.0, (3, 3, 3)),
            observations=obs,
            noise=tuple(map(tuple, noise)),
        )

    def test_convexity_check_spans_blocks(self, monkeypatch):
        # the six interior node edges (lf < 0) are checked four per block:
        # two blocks, the second one short, with the default's answer
        net = build_flow_network(self.gaussian_chain())
        rows = np.flatnonzero(net.lf < 0)
        assert rows.size == 6
        flow_default, cost_default, _ = solve_ssp(net)
        checked, evaluate = [], cgmflow.flow._EdgeCosts.__call__

        def spy(costs, e, z):
            if z.shape[0] == 13:  # 0..M: only the convexity check asks for every flow
                checked.append(np.asarray(e).tolist())
            return evaluate(costs, e, z)

        monkeypatch.setattr(cgmflow.flow, "_CONVEX_BLOCK", 4 * 13)
        monkeypatch.setattr(cgmflow.flow._EdgeCosts, "__call__", spy)
        flow, cost, _ = solve_ssp(net)
        assert checked == [rows[:4].tolist(), rows[4:].tolist()]
        assert cost == cost_default and flow == flow_default

    @pytest.mark.parametrize("cell", [(2, 1), (2, 2)])
    def test_convexity_check_names_an_edge_in_a_later_block(self, monkeypatch, cell):
        # a missing interior cell keeps only -ln z!, which is not convex
        net = build_flow_network(self.gaussian_chain(missing=[cell]))
        edge = int(net.layout.node_edges[cell])
        assert edge in np.flatnonzero(net.lf < 0)[4:]
        for block in (cgmflow.flow._CONVEX_BLOCK, 4 * 13):
            monkeypatch.setattr(cgmflow.flow, "_CONVEX_BLOCK", block)
            with pytest.raises(ValueError, match=f"^edge {edge} cost is not discrete convex"):
                solve_ssp(net)

    def test_two_layer_true_network_is_convex(self):
        # no interior layers, so the as-built costs are already convex
        inst = make_tiny_instance(13, max_steps=2)
        assert inst.n_steps <= 2
        net = build_flow_network(inst)
        _, cost, _ = solve_ssp(net)
        _, best = brute_force_flow(net)
        assert cost == pytest.approx(best, abs=1e-9)

    def test_infeasible_poisson(self):
        inst = CgmInstance(
            n_steps=1,
            n_states=2,
            population=1,
            potentials=np.ones((0, 2, 2)),
            observations=np.array([[5.0, 5.0]]),
            noise=((Poisson(), Poisson()),),
        )
        with pytest.raises(InfeasibleError):
            solve_ssp(surrogate_zero(inst))
        with pytest.raises(InfeasibleError):
            solve_capacity_scaling(surrogate_zero(inst))

    def test_gaussian_pull_toward_observation(self):
        inst = CgmInstance(
            n_steps=2,
            n_states=2,
            population=10,
            potentials=np.ones((1, 2, 2)),
            observations=np.array([[8.0, 2.0], [np.nan, np.nan]]),
            noise=(
                (Gaussian(var=0.5), Gaussian(var=0.5)),
                (MISSING, MISSING),
            ),
        )
        flow, _, _ = solve_ssp(surrogate_zero(inst))
        tables = extract_tables(surrogate_zero(inst), flow)
        assert tables.node[0].tolist() == [8, 2]

    def test_searches_count_dijkstra_calls(self):
        # a cold solve of a layered network has one source, so every search
        # ships one path
        inst = gen_synthetic(n_steps=4, n_states=3, population=20, seed=2)
        _, _, stats = solve_ssp(surrogate_zero(inst))
        assert stats.searches == stats.shipments == 20
        assert stats.to_dict()["searches"] == stats.searches
        # two roots in separate trees: one search ships both paths
        _, _, stats = solve_ssp(two_tree_network())
        assert (stats.searches, stats.shipments) == (1, 2)

    def test_cost_scale_leaves_solves_unchanged(self):
        # scaling every cost parameter by a power of two scales every cost,
        # distance and potential exactly, so scale-relative tolerances must
        # give the same pushes and paths
        k = 2.0**20
        inst = gen_synthetic(n_steps=4, n_states=4, population=40, seed=5)
        net = surrogate_zero(inst)
        lin = extract_tables(net, solve_ssp(net)[0])
        nxt = build_surrogate_network(inst, lin, AlphaStrategy.L)

        def scaled(network):
            return dataclasses.replace(
                network, lf=network.lf * k, slope=network.slope * k,
                offset=network.offset * k, obs_var=network.obs_var / k,
            )

        for solver in SOLVERS:
            start, _, _ = solver(net)
            big_start, _, _ = solver(scaled(net))
            runs = [
                (solver(nxt), solver(scaled(nxt))),
                (solver(nxt, start), solver(scaled(nxt), big_start)),
            ]
            for (flow, cost, stats), (big_flow, big_cost, big_stats) in runs:
                assert np.array_equal(flow.values, big_flow.values)
                assert big_cost == cost * k
                assert (big_stats.shipments, big_stats.restoration_pushes) == (
                    stats.shipments, stats.restoration_pushes,
                )


def bellman_ford_potentials(state):
    """Cold potentials by scipy's Bellman-Ford from a root n joined to every node by a zero arc."""
    n = state.n_nodes
    open_ = np.isfinite(state.inc)
    src = np.append(state.arc_src[open_], np.full(n, n))
    graph = csr_array(
        (
            np.append(state.inc[open_], np.zeros(n)),
            np.append(state.arc_dst[open_], np.arange(n)).astype(np.int32),
            np.searchsorted(src, np.arange(n + 2)).astype(np.int32),
        ),
        shape=(n + 1, n + 1),
    )
    return -bellman_ford(graph, directed=True, indices=n)[:n]


def generic_network(seed):
    """A random cyclic network with parallel edges and negative linear costs but no negative cycle.

    Each cost is p[head] - p[tail] plus a positive slack, so every cycle
    costs its slacks.
    """
    rng = np.random.default_rng(seed)
    n, E = int(rng.integers(3, 12)), int(rng.integers(2, 40))
    tails = rng.integers(0, n, E)
    heads = (tails + rng.integers(1, n, E)) % n
    p = rng.normal(0.0, 3.0, n)
    slope = p[heads] - p[tails] + rng.uniform(0.01, 1.0, E)
    rows = [
        [t, h, c, 0.0, a, 0.0, 0, 0.0, 1.0]
        for t, h, c, a in zip(tails, heads, rng.integers(0, 4, E), slope)
    ]
    return array_network(n, np.zeros(n, dtype=np.int64), rows)


def cold_networks():
    """Layered networks, true and surrogate, and generic ones, each with an id."""
    for seed in range(3):
        inst = gen_synthetic(n_steps=4, n_states=6, population=40, seed=seed)
        yield f"synthetic{seed}-true", build_flow_network(inst)
        for strategy in AlphaStrategy:
            yield f"synthetic{seed}-{strategy.name}", surrogate_zero(inst, strategy)
    mixed = make_mixed_instance(12)
    yield "mixed-true", build_flow_network(mixed)
    yield "mixed-L", surrogate_zero(mixed)
    rng = np.random.default_rng(0)
    ends = [rng.multinomial(60, np.full(9, 1 / 9)) for _ in range(2)]
    interp = gen_interpolation(GridSpec(3, 3), *ends, n_steps=5)
    yield "interp-true", build_flow_network(interp)
    yield "interp-L", surrogate_zero(interp)
    for seed in range(40):
        yield f"generic{seed}", generic_network(seed)


class TestColdPotentials:
    def test_equal_bellman_ford_bit_for_bit(self, monkeypatch):
        # the as-built interior costs are not convex; only the potentials are tested
        monkeypatch.setattr(_ResidualState, "_check_convex", lambda state, rows: None)
        negative = 0
        for name, net in cold_networks():
            state = _ResidualState(net, SolveStats())
            assert state.pi.tobytes() == bellman_ford_potentials(state).tobytes(), name
            open_ = np.isfinite(state.inc)
            assert (state._reduced()[open_] >= 0.0).all(), name
            negative += bool((state.inc[open_] < 0.0).any())
        # all but a few of the 56 networks have negative arcs to correct
        assert negative >= 50

    def test_a_cold_layered_network_opens_forward_arcs_only(self):
        inst = gen_synthetic(n_steps=4, n_states=6, population=40, seed=0)
        state = _ResidualState(surrogate_zero(inst), SolveStats())
        room = (state.cap > state.lower)[state.arc_edge]
        assert np.array_equal(np.isfinite(state.inc), state.arc_fwd & room)


def two_tree_network():
    """Excesses at 0 and 1 and deficits at 2 and 3, each deficit nearest one root."""
    return array_network(
        4,
        [1, 1, -1, -1],
        [
            # tail, head, cap, lf, slope, offset, obs kind, y, var
            [0, 2, 2, 1.0, 1.0, 0.0, 0, 0.0, 1.0],
            [1, 3, 2, 0.0, 0.5, 0.0, GAUSSIAN, 1.0, 2.0],
            [0, 3, 2, 0.0, 4.0, 0.0, 0, 0.0, 1.0],
            [1, 2, 2, 1.0, 3.0, 0.0, 0, 0.0, 1.0],
        ],
    )


class TestForest:
    def test_one_search_ships_from_both_roots(self):
        net = two_tree_network()
        best_flow, best = brute_force_flow(net)
        for solver in SOLVERS:
            flow, cost, stats = solver(net)
            assert stats.searches == 1 and stats.shipments == 2
            assert np.array_equal(flow.values, best_flow.values)
            assert cost == pytest.approx(best, abs=1e-9)
            # two paths, costing 1.0 and then 0.25
            costs = stats.path_costs
            assert costs.count == 2 and not costs.nondecreasing
            assert costs.max == pytest.approx(1.0, abs=1e-12)
            assert costs.min == costs.last == pytest.approx(0.25, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), pick=st.integers(0, 2**32 - 1))
    def test_warm_solves_from_random_starts_reach_brute_force(self, seed, pick):
        rng = np.random.default_rng(pick)
        inst = make_tiny_instance(seed, max_steps=4, max_population=4)
        lin = ContingencyTables(
            node=rng.integers(0, inst.population + 1, size=(inst.n_steps, inst.n_states)),
            edge=np.zeros((max(inst.n_steps - 1, 0),) + (inst.n_states,) * 2),
        )
        net = build_surrogate_network(inst, lin, list(AlphaStrategy)[rng.integers(3)])
        _, best = brute_force_flow(net)
        # another network's optimum and, when one has a finite cost, an
        # arbitrary feasible table
        resloped = dataclasses.replace(net, slope=net.slope + rng.normal(0.0, 3.0, net.n_edges))
        tables = list(itertools.islice(enumerate_feasible(inst), 500))
        starts = [solve_ssp(resloped)[0]] + feasible_starts(net, tables, rng)[:1]
        for start in starts:
            duals = rng.normal(0.0, 10.0, net.n_nodes)
            for solver in SOLVERS:
                flow, cost, stats = solver(net, with_duals(start, duals))
                assert cost == pytest.approx(best, abs=1e-9)
                assert flow_cost(net, flow) == pytest.approx(cost, abs=1e-9)
                assert stats.min_reduced_cost >= -1e-9 * max(1.0, abs(best))

    def test_repair_stops_at_its_round_bound(self, monkeypatch):
        net, flow, _ = TestWarmStart().network_and_optimum()

        def send_back(state, delta):
            # undo the round's pushes instead of shipping them, so the same
            # edges stay negative round after round
            state.z[:] = flow.values
            state.excess[:] = 0
            state._refresh()
            return False

        monkeypatch.setattr(_ResidualState, "ship", send_back)
        for solver in SOLVERS:
            with pytest.raises(RuntimeError, match="round bound"):
                solver(net, with_duals(flow, np.zeros(net.n_nodes)))


class TestSerialization:
    def test_json_roundtrip_fields(self):
        net = surrogate_zero(free_instance(2, 2, 3))
        doc = network_to_json(net)
        json.dumps(doc)
        assert doc["n_nodes"] == net.n_nodes
        assert len(doc["edges"]) == net.n_edges
        assert doc["supplies"][0] == 3
        first = doc["edges"][0]
        assert {"tail", "head", "capacity", "cost"} <= set(first)

    def test_dot_mentions_named_nodes(self):
        net = surrogate_zero(free_instance(2, 2, 3))
        dot = network_to_dot(net)
        assert dot.startswith("digraph")
        assert "o" in dot and "d" in dot
        assert "u_1_1" in dot and "w_2_2" in dot


SOLVERS = (solve_ssp, solve_capacity_scaling)


def feasible_starts(net, tables, rng):
    """Finite-cost flows on net built from enumerated tables, a few spread out."""
    flows = [tables_to_flow(net, t) for t in tables]
    flows = [f for f in flows if math.isfinite(flow_cost(net, f))]
    picks = rng.choice(len(flows), size=min(3, len(flows)), replace=False)
    return [flows[k] for k in sorted(picks)]


def with_duals(flow, duals):
    return Flow(values=flow.values, duals=duals)


class TestWarmStart:
    def network_and_optimum(self):
        inst = gen_synthetic(n_steps=3, n_states=3, population=5, seed=1)
        net = surrogate_zero(inst)
        flow, cost, _ = solve_ssp(net)
        return net, flow, cost

    def test_returns_certifying_duals(self):
        net, flow, _ = self.network_and_optimum()
        assert flow.duals.shape == (net.n_nodes,)
        assert not flow.duals.flags.writeable
        assert Flow(values=flow.values).duals is None
        for solver in SOLVERS:
            again, _, stats = solver(net, flow)
            # an optimal start with its own duals needs no repair and no shipment
            assert np.array_equal(again.values, flow.values)
            assert stats.shipments == stats.restoration_pushes == 0

    @pytest.mark.parametrize(
        "defect,match",
        [
            ("short", "does not match"),
            ("negative", "edge bounds"),
            ("over capacity", "edge bounds"),
            ("unbalanced", "conservation"),
            ("no duals", "duals"),
            ("short duals", "duals"),
            ("nan dual", "duals"),
            ("inf dual", "duals"),
        ],
    )
    def test_rejects_invalid_start(self, defect, match):
        net, flow, _ = self.network_and_optimum()
        values, duals = flow.values.copy(), flow.duals.copy()
        spare = int(np.flatnonzero(values < net.capacity)[0])
        if defect == "short":
            values = values[:-1]
        elif defect == "negative":
            values[0] = -1
        elif defect == "over capacity":
            values[0] = net.capacity[0] + 1
        elif defect == "unbalanced":
            values[spare] += 1
        elif defect == "no duals":
            duals = None
        elif defect == "short duals":
            duals = duals[:-1]
        else:
            duals[2] = math.nan if defect == "nan dual" else math.inf
        for solver in SOLVERS:
            with pytest.raises(ValueError, match=match):
                solver(net, Flow(values=values, duals=duals))

    def test_rejects_start_below_mandatory_unit(self):
        # the Poisson y = 1 edge 1 -> 0 must carry a unit; a flow of zero there
        # is conservation-feasible yet outside the edge's bounds
        net = array_network(
            2,
            [0, 0],
            [[0, 1, 2, 0.0, 0.0, 0.0, 0, 0.0, 1.0], [1, 0, 2, 0.0, 0.0, 0.0, POISSON, 1.0, 1.0]],
        )
        start = Flow(values=np.zeros(2, dtype=np.int64), duals=np.zeros(2))
        for solver in SOLVERS:
            with pytest.raises(ValueError, match="edge bounds"):
                solver(net, start)
            assert solver(net)[0].values.tolist() == [1, 1]

    def test_feasible_starts_reach_brute_force(self):
        rng = np.random.default_rng(3)
        checked = 0
        for seed in range(12):
            inst = make_tiny_instance(seed + 300, max_steps=4, max_population=4)
            lin = ContingencyTables(
                node=rng.integers(0, inst.population + 1, size=(inst.n_steps, inst.n_states)),
                edge=np.zeros((max(inst.n_steps - 1, 0),) + (inst.n_states,) * 2),
            )
            net = build_surrogate_network(inst, lin, AlphaStrategy.M)
            _, best = brute_force_flow(net)
            other = solve_ssp(surrogate_zero(inst, AlphaStrategy.R))[0]
            tables = list(itertools.islice(enumerate_feasible(inst), 2000))
            starts = [other] + feasible_starts(net, tables, rng)
            for start in starts:
                for duals in (start.duals, np.zeros(net.n_nodes),
                              rng.normal(0.0, 5.0, net.n_nodes)):
                    if duals is None:
                        continue
                    for solver in SOLVERS:
                        flow, cost, stats = solver(net, with_duals(start, duals))
                        assert cost == pytest.approx(best, abs=1e-9)
                        assert flow_cost(net, flow) == pytest.approx(cost, abs=1e-9)
                        assert validate_tables(inst, extract_tables(net, flow)) == []
                        assert stats.min_reduced_cost >= -1e-9 * max(1.0, abs(best))
                        checked += 1
        assert checked > 100

    def test_hand_made_network_from_other_optima(self):
        net = parallel_antiparallel_network()
        _, best = brute_force_flow(net)
        rng = np.random.default_rng(8)
        for _ in range(10):
            resloped = dataclasses.replace(net, slope=rng.normal(0.0, 3.0, net.n_edges))
            start, _ = brute_force_flow(resloped)
            for duals in (np.zeros(4), rng.normal(0.0, 10.0, 4)):
                for solver in SOLVERS:
                    flow, cost, _ = solver(net, with_duals(start, duals))
                    assert cost == pytest.approx(best, abs=1e-9)
                    assert np.array_equal(flow_balance(net, flow.values), net.supplies)

    def test_warm_capacity_scaling_is_warm_ssp(self):
        # a feasible start holds no excess, so CS runs only the unit phase
        inst = gen_synthetic(n_steps=5, n_states=6, population=300, seed=9)
        first = surrogate_zero(inst)
        start = solve_ssp(first)[0]
        nxt = build_surrogate_network(inst, extract_tables(first, start), AlphaStrategy.L)
        for duals in (start.duals, np.random.default_rng(4).normal(0.0, 10.0, nxt.n_nodes)):
            ssp_flow, ssp_cost, ssp = solve_ssp(nxt, with_duals(start, duals))
            cs_flow, cs_cost, cs = solve_capacity_scaling(nxt, with_duals(start, duals))
            assert np.array_equal(cs_flow.values, ssp_flow.values)
            assert np.array_equal(cs_flow.duals, ssp_flow.duals)
            assert cs_cost == ssp_cost
            assert ssp.shipments > 0 and ssp.restoration_pushes > 0
            ssp_counters, cs_counters = ssp.to_dict(), cs.to_dict()
            for counters in (ssp_counters, cs_counters):
                del counters["method"], counters["wall_time"]
            assert cs_counters == ssp_counters
            assert cs.path_costs == ssp.path_costs

    def test_warm_ships_few_units(self):
        # consecutive surrogates differ in the interior node slopes only
        inst = gen_synthetic(n_steps=5, n_states=6, population=300, seed=9)
        first = surrogate_zero(inst)
        flow, _, _ = solve_ssp(first)
        lin = extract_tables(first, flow)
        nxt = build_surrogate_network(inst, lin, AlphaStrategy.L)
        _, cold, _ = solve_ssp(nxt)
        for solver in SOLVERS:
            _, warm, stats = solver(nxt, flow)
            assert warm == pytest.approx(cold, abs=1e-9)
            assert stats.restoration_pushes > 0
            assert stats.units < inst.population // 4


def dc_networks(inst, count, strategy=AlphaStrategy.L):
    """Surrogate networks of the first count DC iterations, each anchored at the last optimum."""
    nets = [surrogate_zero(inst, strategy)]
    for _ in range(count - 1):
        flow = solve_ssp(nets[-1])[0]
        lin = extract_tables(nets[-1], flow)
        nets.append(build_surrogate_network(inst, lin, strategy))
    return nets


def changed_rows(a, b):
    return int(((a.lf != b.lf) | (a.slope != b.slope) | (a.offset != b.offset)).sum())


def plain(flow):
    """The same flow and duals without the solve's basis."""
    return Flow(values=flow.values, duals=flow.duals)


def assert_same_solve(got, want):
    """Equal flows, duals, costs and counters; wall_time may differ."""
    (f1, c1, s1), (f2, c2, s2) = got, want
    assert np.array_equal(f1.values, f2.values)
    assert np.array_equal(f1.duals, f2.duals)
    assert c1 == c2
    d1, d2 = s1.to_dict(), s2.to_dict()
    for d in (d1, d2):
        del d["wall_time"]
    assert d1 == d2
    assert s1.path_costs == s2.path_costs


@pytest.fixture
def arc_builds(monkeypatch):
    """The networks whose solves built their residual arcs anew, in call order."""
    built = []
    build = _ResidualState._build_arcs

    def recorded(state):
        built.append(state.network)
        build(state)

    monkeypatch.setattr(_ResidualState, "_build_arcs", recorded)
    return built


def rerouted(net, column):
    """net with other tails or heads, whose optima are feasible flows of net.

    Transition edge k takes the tail or head of another transition edge and
    is closed (capacity 0), so its flow is 0 in both networks.
    """
    k, other = net.layout.trans_edges[0, 0, 0], net.layout.trans_edges[0, 1, 1]
    ends = getattr(net, column).copy()
    ends[k] = ends[other]
    capacity = net.capacity.copy()
    capacity[k] = 0
    return dataclasses.replace(net, **{column: ends}, capacity=capacity)


class TestBasisReuse:
    """A warm start reuses its Flow's residual arcs when the nodes and arcs match."""

    CASES = (
        (gen_synthetic(n_steps=5, n_states=6, population=300, seed=9), AlphaStrategy.L),
        (make_mixed_instance(M=12), AlphaStrategy.M),
    )

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_basis_state_equals_plain_state(self, case):
        # the basis hands on its bounds and step-1 increments; only the
        # edges whose costs changed are evaluated again
        inst, strategy = self.CASES[case]
        nets = dc_networks(inst, 4, strategy)
        flow = solve_ssp(nets[0])[0]
        for net in nets[1:]:
            want = _ResidualState(net, SolveStats(), plain(flow))
            got = _ResidualState(net, SolveStats(), flow)
            assert not flow._basis
            assert got.scale == want.scale and got.step == want.step == 1
            assert (got.bound == want.bound).all()
            assert (got.inc == want.inc).all()
            flow = solve_ssp(net, plain(flow))[0]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_basis_start_equals_plain_start(self, case, arc_builds):
        inst, strategy = self.CASES[case]
        nets = dc_networks(inst, 4, strategy)
        assert sum(changed_rows(a, b) for a, b in zip(nets, nets[1:])) > 0
        for solver in SOLVERS:
            flow, _, _ = solver(nets[0])
            for net in nets[1:]:
                arc_builds.clear()
                want = solver(net, plain(flow))
                got = solver(net, flow)
                # the plain start builds its arcs; the start with a basis takes them
                assert arc_builds == [net]
                assert_same_solve(got, want)
                flow = got[0]

    def test_second_use_builds_from_scratch(self, arc_builds):
        inst = gen_synthetic(n_steps=5, n_states=6, population=300, seed=9)
        first, nxt = dc_networks(inst, 2)
        other = surrogate_zero(inst, AlphaStrategy.R)
        for solver in SOLVERS:
            flow = solver(first)[0]
            start = plain(flow)
            arc_builds.clear()
            assert_same_solve(solver(nxt, flow), solver(nxt, start))
            assert arc_builds == [nxt]
            # the basis went to the first warm start: the second builds anew
            arc_builds.clear()
            again = solver(other, flow)
            assert arc_builds == [other]
            assert_same_solve(again, solver(other, start))
            arc_builds.clear()
            solver(nxt, flow)
            assert arc_builds == [nxt]

    @pytest.mark.parametrize("column", ["tails", "heads"])
    def test_other_arcs_build_from_scratch(self, column, arc_builds):
        inst = gen_synthetic(n_steps=5, n_states=6, population=300, seed=9)
        first, nxt = dc_networks(inst, 2)
        changed = rerouted(first, column)
        for solver in SOLVERS:
            flow = solver(changed)[0]
            arc_builds.clear()
            got = solver(nxt, flow)
            assert arc_builds == [nxt]
            assert_same_solve(got, solver(nxt, plain(flow)))

    CHANGES = {
        "capacity": lambda net: net.capacity + 1,
        "obs_y": lambda net: net.obs_y + 1,
        "obs_var": lambda net: net.obs_var + 1,
        # ln z! is convex, so every edge stays convex
        "lf": lambda net: net.lf + 1,
        # the Gaussian node terms go
        "obs_kind": lambda net: np.where(net.obs_kind == GAUSSIAN, 0, net.obs_kind),
    }

    @pytest.mark.parametrize("column", sorted(CHANGES))
    def test_other_costs_reuse_the_arcs(self, column, arc_builds):
        inst = gen_synthetic(n_steps=5, n_states=6, population=300, seed=9)
        first, nxt = dc_networks(inst, 2)
        # a feasible flow carries at most M on any edge, so the optimum of
        # the changed network is a feasible start on nxt
        changed = dataclasses.replace(first, **{column: self.CHANGES[column](first)})
        assert not np.array_equal(getattr(changed, column), getattr(first, column))
        # the edges whose costs changed are evaluated again
        flow = solve_ssp(changed)[0]
        got = _ResidualState(nxt, SolveStats(), flow)
        want = _ResidualState(nxt, SolveStats(), plain(flow))
        assert got.scale == want.scale and (got.inc == want.inc).all()
        for solver in SOLVERS:
            flow = solver(changed)[0]
            arc_builds.clear()
            got = solver(nxt, flow)
            assert arc_builds == []
            assert_same_solve(got, solver(nxt, plain(flow)))

    def test_one_thread_takes_the_basis(self, arc_builds):
        inst = gen_synthetic(n_steps=5, n_states=6, population=300, seed=9)
        first, nxt = dc_networks(inst, 2)
        flow = solve_ssp(first)[0]
        want = solve_ssp(nxt, plain(flow))
        results = []
        arc_builds.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(solve_ssp(nxt, flow)))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 6
        for got in results:
            assert_same_solve(got, want)
        # one of the six took the basis; the other five built their arcs
        assert len(arc_builds) == 5

    def test_equality_and_repr_ignore_basis(self):
        net = surrogate_zero(gen_synthetic(n_steps=3, n_states=3, population=5, seed=1))
        flow = solve_ssp(net)[0]
        assert len(flow._basis) == 1
        bare = Flow(values=flow.values)
        carrying = Flow(values=flow.values)
        carrying._basis.extend(flow._basis)
        assert carrying == bare
        assert repr(carrying) == repr(bare)
        again = solve_ssp(net)[0]
        assert len(again._basis) == 1 and again.duals is not None
        assert flow == again
        assert flow == Flow(values=flow.values, duals=flow.duals)
        assert flow != bare
        assert repr(flow) == repr(Flow(values=flow.values, duals=flow.duals))
        assert "_basis" not in repr(flow)


class TestEquality:
    VALUES = np.array([0, 2, 1])
    DUALS = np.array([0.0, -1.5, 2.0])

    def test_equal_flows_with_distinct_arrays(self):
        v, d = self.VALUES, self.DUALS
        assert Flow(values=v, duals=d) == Flow(values=v, duals=d)
        assert Flow(values=v, duals=d) == Flow(values=v.copy(), duals=d.copy())
        assert Flow(values=v) == Flow(values=v.copy())

    def test_different_values_or_duals_differ(self):
        v, d = self.VALUES, self.DUALS
        assert Flow(values=v, duals=d) != Flow(values=v, duals=d + 1.0)
        assert Flow(values=v, duals=d) != Flow(values=v[::-1], duals=d)
        assert Flow(values=v, duals=d) != Flow(values=v, duals=d[:2])
        assert Flow(values=v) != Flow(values=v[:2])

    def test_duals_against_no_duals(self):
        v, d = self.VALUES, self.DUALS
        assert Flow(values=v, duals=d) != Flow(values=v)
        assert Flow(values=v) != Flow(values=v, duals=d)


class TestFlowValues:
    @pytest.mark.parametrize("bad", [[1.5, 2.0], [np.nan, 0.0], [np.inf, 0.0]])
    def test_non_integral_values_rejected(self, bad):
        with pytest.raises(ValueError, match="flow values must be integers"):
            Flow(values=np.array(bad))

    def test_integral_floats_accepted(self):
        flow = Flow(values=np.array([2.0, 0.0]))
        assert flow.values.dtype == np.int64
        assert flow.values.tolist() == [2, 0]

    def test_values_are_copied(self):
        values = np.array([2, 0], dtype=np.int64)
        flow = Flow(values=values)
        assert values.flags.writeable and not flow.values.flags.writeable
        assert not np.shares_memory(values, flow.values)
