"""Layered network construction and the exact min convex-cost flow solvers."""

import json
import math

import numpy as np
import pytest

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
from cgmflow.dca import AlphaStrategy, alpha_value, surrogate_g
from cgmflow.flow import (
    Flow,
    FlowNetwork,
    InfeasibleError,
    SolveStats,
    _ResidualState,
    build_flow_network,
    build_surrogate_network,
    cost_table,
    extract_tables,
    flow_balance,
    flow_cost,
    network_to_dot,
    network_to_json,
    solve_capacity_scaling,
    solve_ssp,
)
from cgmflow.instances import gen_synthetic
from cgmflow.oracle import brute_force_flow, enumerate_feasible
from conftest import make_tiny_instance


def free_instance(N, R, M, phi=None):
    pot = np.ones((max(N - 1, 0), R, R)) if phi is None else phi
    return CgmInstance(
        n_steps=N,
        n_states=R,
        population=M,
        potentials=pot,
        observations=np.full((N, R), np.nan),
        noise=tuple(tuple(MISSING for _ in range(R)) for _ in range(N)),
    )


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


def mixed_instance(M=6):
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
                if t in inst.interior_steps():
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


class TestCostTables:
    def test_as_built_network_matches_core_costs(self):
        inst = mixed_instance()
        net = build_flow_network(inst)
        assert_tables_equal(cost_table(net), reference_table(inst, net))

    @pytest.mark.parametrize("strategy", list(AlphaStrategy))
    def test_surrogate_network_matches_core_costs(self, strategy):
        inst = mixed_instance()
        lin = ContingencyTables(
            node=np.array([[0, 1, 2, 3], [4, 0, 1, 5], [2, 2, 1, 1]]),
            edge=np.zeros((2, 4, 4), dtype=np.int64),
        )
        net = build_surrogate_network(inst, lin, strategy)
        got = cost_table(net)
        assert_tables_equal(got, reference_table(inst, net, lin, strategy))
        # the state solves on the same table, with +inf only below the lower bound
        state = _ResidualState(net, SolveStats())
        np.testing.assert_array_equal(state.table, got)
        assert np.array_equal(state.lower, np.isinf(got[:, 0]).astype(np.int64))

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

    def test_solvers_reject_overflowing_costs(self):
        # finite, valid parameters whose Gaussian term overflows at z = 1
        net = array_network(2, [1, -1], [[0, 1, 1, 0.0, 0.0, 0.0, GAUSSIAN, 0.0, 1e-310]])
        for solver in (solve_ssp, solve_capacity_scaling):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
                solver(net)

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
        assert costs and all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))

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

    def test_report_summarizes_path_costs(self):
        inst = free_instance(3, 2, 6, phi=np.arange(1, 9, dtype=float).reshape(2, 2, 2))
        _, _, stats = solve_ssp(surrogate_zero(inst))
        assert stats.to_dict()["path_costs"] == {
            "count": 6,
            "min": min(stats.path_costs),
            "max": max(stats.path_costs),
            "nondecreasing": True,
        }

    def test_parallel_and_antiparallel_edges(self):
        # hand-made network the layered builders never produce: two parallel
        # 1 -> 2 edges with different convex costs, an antiparallel 0 <-> 1
        # pair whose 1 -> 0 edge carries a mandatory unit (Poisson, y = 1)
        log2 = math.log(2)
        net = array_network(
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
