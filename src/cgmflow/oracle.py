"""Exhaustive ground-truth solvers for tiny instances.

Everything here trades speed for independence: no potentials, no residual
graphs, no surrogates.  The enumerators walk the full feasible set and the
brute-force MAP search is a plain stage-wise dynamic program over node
compositions, so solver bugs and oracle bugs have no shared machinery.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    CgmInstance,
    ContingencyTables,
    log_factorial_array,
    objective,
    observation_cost,
)
from .flow import Flow, FlowNetwork, InfeasibleError, cost_table

__all__ = [
    "BudgetExceededError",
    "compositions",
    "margin_matrices",
    "enumerate_feasible",
    "count_feasible",
    "brute_force_map",
    "brute_force_flow",
]

INF = math.inf


class BudgetExceededError(RuntimeError):
    """The enumeration would visit more configurations than allowed."""


class _Counter:
    """Counts enumerated configurations against a budget of at least 1."""

    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        if cap < 1:
            raise ValueError(f"budget must be positive, got {cap}")
        self.used = 0
        self.cap = cap

    def tick(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceededError(
                f"enumeration exceeded budget of {self.cap} configurations"
            )


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _bounded_compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    tail_room = sum(bounds[1:])
    for first in range(max(0, total - tail_room), min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


def margin_matrices(
    row_sums: Sequence[int], col_sums: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonnegative integer matrices with the given row and column sums.

    Rows are filled recursively in lexicographic order; remaining column
    sums prune dead branches.
    """
    if sum(row_sums) != sum(col_sums):
        return

    def fill(i: int, remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(row_sums) - 1:
            if sum(remaining) == row_sums[i]:
                yield (tuple(remaining),)
            return
        for row in _bounded_compositions(row_sums[i], remaining):
            rest = tuple(r - v for r, v in zip(remaining, row))
            for tail in fill(i + 1, rest):
                yield (row,) + tail

    yield from fill(0, tuple(col_sums))


@lru_cache(maxsize=None)
def _count_margin_matrices(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> int:
    if sum(row_sums) != sum(col_sums):
        return 0
    if len(row_sums) == 1:
        return 1

    @lru_cache(maxsize=None)
    def count(i: int, remaining: tuple[int, ...]) -> int:
        if i == len(row_sums) - 1:
            return 1 if sum(remaining) == row_sums[i] else 0
        total = 0
        for row in _bounded_compositions(row_sums[i], remaining):
            total += count(i + 1, tuple(r - v for r, v in zip(remaining, row)))
        return total

    return count(0, col_sums)


def count_feasible(instance: CgmInstance) -> int:
    """Exact size of the feasible table set, via a counting recurrence."""
    N, R, M = instance.n_steps, instance.n_states, instance.population
    comps = list(compositions(M, R))
    if N == 1:
        return len(comps)
    counts = {c: 1 for c in comps}
    for _ in range(N - 1):
        nxt = dict.fromkeys(comps, 0)
        for prev, ways in counts.items():
            if not ways:
                continue
            for cur in comps:
                pair = _count_margin_matrices(prev, cur)
                if pair:
                    nxt[cur] += ways * pair
        counts = nxt
    return sum(counts.values())


def enumerate_feasible(
    instance: CgmInstance, budget: int = 10_000_000
) -> Iterator[ContingencyTables]:
    """Yield every feasible table exactly once, in deterministic order.

    Walks all per-step node compositions of the population, then all
    integer matrices matching each adjacent pair of compositions as row and
    column sums.  Intended for tiny instances; the budget caps the number
    of yielded tables.
    """
    counter = _Counter(budget)
    N, R, M = instance.n_steps, instance.n_states, instance.population
    comps = list(compositions(M, R))
    if N == 1:
        for c in comps:
            counter.tick()
            yield ContingencyTables(
                node=np.array([c], dtype=np.int64),
                edge=np.zeros((0, R, R), dtype=np.int64),
            )
        return
    for seq in itertools.product(comps, repeat=N):
        per_step = [list(margin_matrices(seq[t], seq[t + 1])) for t in range(N - 1)]
        for mats in itertools.product(*per_step):
            counter.tick()
            yield ContingencyTables(
                node=np.array(seq, dtype=np.int64),
                edge=np.array(mats, dtype=np.int64),
            )


def _node_term_tables(instance: CgmInstance) -> list:
    """Per-(t, i) cost of a node count z = 0..M, on the true objective."""
    N, M = instance.n_steps, instance.population
    kind, y, var = instance.observation_arrays
    z = np.arange(M + 1)
    terms = observation_cost(kind[..., None], y[..., None], var[..., None], z)
    terms[1 : N - 1] -= log_factorial_array(z)
    return terms.tolist()


def brute_force_map(
    instance: CgmInstance, budget: int = 10_000_000
) -> tuple[ContingencyTables, float]:
    """Global MAP table by exhaustive stage-wise dynamic programming.

    Exact over the full feasible set; ties are broken by lexicographic order
    of the interleaved sequence (nodes at step 1, matrix 1, nodes at step 2,
    ...).  The budget caps the number of expanded (composition, matrix)
    transitions.
    """
    counter = _Counter(budget)
    N, R, M = instance.n_steps, instance.n_states, instance.population
    comps = list(compositions(M, R))
    node_terms = _node_term_tables(instance)
    log_phi = instance.log_potentials

    def node_cost(t: int, c: tuple[int, ...]) -> float:
        total = 0.0
        for i, z in enumerate(c):
            v = node_terms[t][i][z]
            if v == INF:
                return INF
            total += v
        return total

    lf = [math.lgamma(z + 1) for z in range(M + 1)]

    # best[c] = (cost, interleaved path); INF states are dropped outright
    best: dict[tuple[int, ...], tuple[float, tuple]] = {}
    for c in comps:
        cost = node_cost(0, c)
        if cost < INF:
            best[c] = (cost, (c,))
    if not best:
        raise InfeasibleError("every node composition has infinite cost at step 1")

    for t in range(N - 1):
        phi_t = log_phi[t]
        nxt: dict[tuple[int, ...], tuple[float, tuple]] = {}
        for c in sorted(best):
            base_cost, base_path = best[c]
            for mat in _row_sum_matrices(c, R):
                counter.tick()
                cols = tuple(map(sum, zip(*mat)))
                tail = node_cost(t + 1, cols)
                if tail == INF:
                    continue
                mcost = 0.0
                for i, row in enumerate(mat):
                    for j, z in enumerate(row):
                        mcost += lf[z] - z * phi_t[i, j]
                cand_cost = base_cost + mcost + tail
                cand_path = base_path + (mat, cols)
                seen = nxt.get(cols)
                if (
                    seen is None
                    or cand_cost < seen[0]
                    or (cand_cost == seen[0] and cand_path < seen[1])
                ):
                    nxt[cols] = (cand_cost, cand_path)
        best = nxt
        if not best:
            raise InfeasibleError(f"every table has infinite cost by step {t + 2}")

    winner = min(best.values(), key=lambda item: (item[0], item[1]))
    path = winner[1]
    node = np.array(path[0::2], dtype=np.int64)
    edge = np.array(path[1::2], dtype=np.int64).reshape(max(N - 1, 0), R, R)
    tables = ContingencyTables(node=node, edge=edge)
    return tables, objective(instance, tables)


def _row_sum_matrices(row_sums: tuple[int, ...], n_cols: int):
    """All matrices with the given row sums (columns free), lexicographic."""
    per_row = [list(compositions(v, n_cols)) for v in row_sums]
    return itertools.product(*per_row)


def brute_force_flow(
    network: FlowNetwork, budget: int = 10_000_000
) -> tuple[Flow, float]:
    """Minimum-cost feasible integer flow by enumeration.

    On networks with a table layout the feasible flows are walked through
    the flow/table correspondence; otherwise a generic depth-first edge
    assignment with conservation pruning is used.  Raises InfeasibleError
    when no finite-cost feasible flow exists.
    """
    counter = _Counter(budget)
    if network.layout is not None:
        return _layout_min_flow(network, counter)
    return _generic_min_flow(network, counter)


def _layout_min_flow(network: FlowNetwork, counter: _Counter) -> tuple[Flow, float]:
    lay = network.layout
    N, R, M = lay.n_steps, lay.n_states, lay.population
    tables = cost_table(network).tolist()
    src = [tables[int(lay.source_edges[i])] for i in range(R)]
    snk = [tables[int(lay.sink_edges[i])] for i in range(R)]
    nod = [[tables[int(lay.node_edges[t, i])] for i in range(R)] for t in range(N)]
    trn = [
        [[tables[int(lay.trans_edges[t, i, j])] for j in range(R)] for i in range(R)]
        for t in range(max(N - 1, 0))
    ]

    best_cost = INF
    best: Optional[np.ndarray] = None
    comps = list(compositions(M, R))

    def assemble(seq, mats) -> np.ndarray:
        values = np.zeros(network.n_edges, dtype=np.int64)
        for i in range(R):
            values[int(lay.source_edges[i])] = seq[0][i]
            values[int(lay.sink_edges[i])] = seq[-1][i]
        for t in range(N):
            for i in range(R):
                values[int(lay.node_edges[t, i])] = seq[t][i]
        for t, mat in enumerate(mats):
            for i in range(R):
                for j in range(R):
                    values[int(lay.trans_edges[t, i, j])] = mat[i][j]
        return values

    def boundary_cost(seq) -> float:
        total = 0.0
        for i in range(R):
            total += src[i][seq[0][i]] + snk[i][seq[-1][i]]
            if total == INF:
                return INF
        return total

    # search over node compositions per step, matrices with matching row sums
    def recurse(t: int, seq: list, mats: list, cost: float):
        nonlocal best_cost, best
        if t == N - 1:
            counter.tick()
            total = cost + boundary_cost(seq)
            if total < best_cost:
                best_cost = total
                best = assemble(seq, mats)
            return
        for mat in _row_sum_matrices(seq[-1], R):
            mcost = 0.0
            for i, row in enumerate(mat):
                for j, z in enumerate(row):
                    mcost += trn[t][i][j][z]
            if mcost == INF:
                continue
            cols = tuple(map(sum, zip(*mat)))
            ncost = 0.0
            for i, z in enumerate(cols):
                ncost += nod[t + 1][i][z]
            if ncost == INF:
                continue
            seq.append(cols)
            mats.append(mat)
            recurse(t + 1, seq, mats, cost + mcost + ncost)
            seq.pop()
            mats.pop()

    for c in comps:
        start = 0.0
        for i, z in enumerate(c):
            start += nod[0][i][z]
        if start == INF:
            continue
        recurse(0, [c], [], start)

    if best is None or best_cost == INF:
        raise InfeasibleError("no finite-cost feasible flow exists")
    return Flow(values=best), float(best_cost)


def _generic_min_flow(network: FlowNetwork, counter: _Counter) -> tuple[Flow, float]:
    n_edges = network.n_edges
    supplies = network.supplies.tolist()
    caps = network.capacity.tolist()
    tables = cost_table(network).tolist()
    tails = network.tails.tolist()
    heads = network.heads.tolist()

    rem_out = [0] * network.n_nodes
    rem_in = [0] * network.n_nodes
    for idx in range(n_edges):
        rem_out[tails[idx]] += caps[idx]
        rem_in[heads[idx]] += caps[idx]

    values = [0] * n_edges
    balance = [0] * network.n_nodes  # out minus in committed so far
    best_cost = INF
    best: Optional[list] = None

    def feasible_prefix() -> bool:
        for v in range(network.n_nodes):
            need = supplies[v] - balance[v]
            if need > rem_out[v] or need < -rem_in[v]:
                return False
        return True

    def recurse(idx: int, cost: float):
        nonlocal best_cost, best
        if idx == n_edges:
            counter.tick()
            if cost < best_cost and all(
                balance[v] == supplies[v] for v in range(network.n_nodes)
            ):
                best_cost = cost
                best = values.copy()
            return
        t, h = tails[idx], heads[idx]
        rem_out[t] -= caps[idx]
        rem_in[h] -= caps[idx]
        for z in range(caps[idx] + 1):
            c = tables[idx][z]
            if c == INF:
                continue
            values[idx] = z
            balance[t] += z
            balance[h] -= z
            if feasible_prefix():
                recurse(idx + 1, cost + c)
            balance[t] -= z
            balance[h] += z
        values[idx] = 0
        rem_out[t] += caps[idx]
        rem_in[h] += caps[idx]

    recurse(0, 0.0)
    if best is None:
        raise InfeasibleError("no finite-cost feasible flow exists")
    return Flow(values=np.array(best, dtype=np.int64)), float(best_cost)
