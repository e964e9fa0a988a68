"""Exhaustive ground-truth solvers: counts, enumeration, brute-force minima."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from cgmflow.core import (
    ContingencyTables,
    log_factorial_array,
    objective,
    observation_cost,
    validate_tables,
)
from cgmflow.dca import AlphaStrategy, build_surrogate_network
from cgmflow.flow import FlowNetwork
from cgmflow.oracle import (
    BudgetExceededError,
    brute_force_flow,
    brute_force_map,
    compositions,
    count_feasible,
    enumerate_feasible,
    margin_matrices,
)
from conftest import free_instance, make_tiny_instance


def stacked_objectives(instance, tables):
    """objective of every table at once, from core's public cost terms."""
    node = np.stack([t.node for t in tables])
    edge = np.stack([t.edge for t in tables])
    cells = (1, 2, 3)
    values = log_factorial_array(edge).sum(axis=cells)
    values -= (edge * instance.log_potentials).sum(axis=cells)
    values -= log_factorial_array(node[:, 1 : instance.n_steps - 1]).sum(axis=cells[:2])
    return values + observation_cost(*instance.observation_arrays, node).sum(axis=cells[:2])


def slow_count(N, R, M):
    """Table count by direct recursion, independent of the oracle module."""

    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    def count_matrices(rows, cols):
        if not rows:
            return 1 if all(c == 0 for c in cols) else 0
        total = 0
        for row in comps(rows[0], len(cols)):
            if all(r <= c for r, c in zip(row, cols)):
                rest = tuple(c - r for c, r in zip(cols, row))
                total += count_matrices(rows[1:], rest)
        return total

    total = 0
    for seq in product(list(comps(M, R)), repeat=N):
        ways = 1
        for t in range(N - 1):
            ways *= count_matrices(seq[t], seq[t + 1])
            if ways == 0:
                break
        total += ways
    return total


class TestCompositions:
    def test_count_and_order(self):
        out = list(compositions(3, 2))
        assert out == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert len(list(compositions(5, 3))) == math.comb(5 + 2, 2)

    def test_single_part(self):
        assert list(compositions(4, 1)) == [(4,)]


class TestMarginMatrices:
    def test_exhaustive_match(self):
        rows, cols = (2, 1), (1, 2)
        found = list(margin_matrices(rows, cols))
        direct = []
        for a in range(3):
            for b in range(3):
                m = ((a, 2 - a), (b, 1 - b))
                if all(v >= 0 for r in m for v in r):
                    if (m[0][0] + m[1][0], m[0][1] + m[1][1]) == cols:
                        direct.append(m)
        assert sorted(tuple(map(tuple, m)) for m in found) == sorted(direct)

    def test_infeasible_margins_empty(self):
        assert list(margin_matrices((2,), (1,))) == []


class TestCounts:
    @pytest.mark.parametrize(
        "N,R,M,expected",
        [(2, 1, 3, 1), (2, 2, 2, 10), (3, 2, 2, 34)],
    )
    def test_known_counts(self, N, R, M, expected):
        assert count_feasible(free_instance(N, R, M)) == expected

    def test_against_independent_counter(self):
        for N, R, M in [(1, 3, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2)]:
            inst = free_instance(N, R, M)
            assert count_feasible(inst) == slow_count(N, R, M)

    def test_enumeration_matches_count(self):
        for N, R, M in [(1, 2, 5), (2, 2, 3), (3, 2, 2)]:
            inst = free_instance(N, R, M)
            tables = list(enumerate_feasible(inst))
            assert len(tables) == count_feasible(inst)
            seen = {
                (t.node.tobytes(), t.edge.tobytes()) for t in tables
            }
            assert len(seen) == len(tables)
            for t in tables:
                assert validate_tables(inst, t) == []

    def test_budget_enforced(self):
        inst = free_instance(3, 2, 4)
        with pytest.raises(BudgetExceededError):
            list(enumerate_feasible(inst, budget=5))
        with pytest.raises(BudgetExceededError):
            brute_force_map(inst, budget=3)

    @pytest.mark.parametrize("budget", [True, 2.5, 3.0, "3", None])
    def test_budget_that_is_not_an_integer_rejected(self, budget):
        inst = free_instance(2, 2, 2)
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            brute_force_map(inst, budget=budget)

    def test_numpy_integer_budget_accepted(self):
        inst = free_instance(2, 2, 2)
        (got, got_value), (want, want_value) = (
            brute_force_map(inst, budget=cap) for cap in (np.int64(100), 100)
        )
        assert np.array_equal(got.edge, want.edge) and got_value == want_value

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        inst = free_instance(2, 2, 2)
        zeros = ContingencyTables.zeros(inst.n_steps, inst.n_states)
        net = build_surrogate_network(inst, zeros, AlphaStrategy.L)
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            list(enumerate_feasible(inst, budget=budget))
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            brute_force_map(inst, budget=budget)
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            brute_force_flow(net, budget=budget)


class TestBruteForceMap:
    def test_two_layer_known_value(self):
        inst = free_instance(2, 1, 2)
        tables, value = brute_force_map(inst)
        assert value == pytest.approx(math.log(2), abs=1e-14)
        assert tables.node.tolist() == [[2], [2]]

    def test_matches_exhaustive_minimum(self):
        for seed in range(8):
            inst = make_tiny_instance(seed)
            feasible = list(enumerate_feasible(inst))
            values = stacked_objectives(inst, feasible)
            best = int(values.argmin())
            for k in (best, 0, len(feasible) // 2, len(feasible) - 1):
                # approx takes equal infinities as equal without subtracting them
                assert values[k] == pytest.approx(objective(inst, feasible[k]), abs=1e-12)
            tables, value = brute_force_map(inst)
            assert value == pytest.approx(values[best], abs=1e-12)
            assert objective(inst, tables) == pytest.approx(value, abs=1e-12)
            assert validate_tables(inst, tables) == []

    def test_deterministic(self):
        inst = make_tiny_instance(3)
        t1, v1 = brute_force_map(inst)
        t2, v2 = brute_force_map(inst)
        assert v1 == v2
        assert t1.same_values(t2)


class TestBruteForceFlow:
    def test_layout_network_agrees_with_generic(self):
        for seed in range(20):
            inst = make_tiny_instance(seed, max_population=4)
            zeros = ContingencyTables.zeros(inst.n_steps, inst.n_states)
            net = build_surrogate_network(inst, zeros, AlphaStrategy.L)
            _, cost_l = brute_force_flow(net)
            _, cost_g = brute_force_flow(replace(net, layout=None))
            assert cost_l == pytest.approx(cost_g, abs=1e-12), seed

    def test_generic_min_matches_hand_computed(self):
        # two parallel 0 -> 1 edges with linear costs z and 3z
        net = FlowNetwork(
            n_nodes=2,
            supplies=np.array([2, -2]),
            tails=np.array([0, 0]),
            heads=np.array([1, 1]),
            capacity=np.array([2, 2]),
            lf=np.zeros(2),
            slope=np.array([1.0, 3.0]),
            offset=np.zeros(2),
            obs_kind=np.zeros(2),
            obs_y=np.zeros(2),
            obs_var=np.ones(2),
        )
        flow, cost = brute_force_flow(net)
        assert cost == pytest.approx(2.0)
        assert flow.values.tolist() == [2, 0]
