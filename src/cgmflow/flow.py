"""Convex-cost network flow: layered network construction and exact solvers.

A problem instance maps to a directed layered network: a source feeds R entry
nodes for the first step, every state at step t is split into an entry node
u_t_i and an exit node w_t_i joined by an edge carrying the node-count cost,
transition edges w_t_i -> u_(t+1)_j carry the pairwise-count cost, and the
last exit layer drains into a sink.  Integer flows of value M on this network
are in one-to-one correspondence with feasible contingency tables, and the
flow cost equals the table objective.

Both solvers handle convex edge costs natively on the residual network via
incremental costs c(z+1) - c(z); edges whose cost is +inf below some z_min
(a Poisson term with a positive observation) are treated as carrying a
mandatory z_min units, realized as a pseudoflow whose excesses and deficits
are shipped together with the source supply.

The solver state is a set of arrays: an (E, max_cap + 1) cost table filled
by one batched ``tables`` call per cost-handle class, and per-edge flow,
lower bound and capacity plus per-node excess and potential.  The 2E
residual arcs (forward and backward per edge) form one CSR graph whose
structure is fixed for a solve; before each search only its weights, the
reduced step increments clamped at 0, are refreshed.  SSP and capacity
scaling share one search, a multi-source ``scipy.sparse.csgraph.dijkstra``
from every node with enough excess, and initial potentials come from one
``bellman_ford`` from a virtual root joined to every node.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford, dijkstra

from .core import (
    MISSING,
    CgmInstance,
    ContingencyTables,
    Gaussian,
    NoiseModel,
    Poisson,
    h_noise_cost,
    log_factorial,
    log_factorial_array,
)

__all__ = [
    "InfeasibleError",
    "CostHandle",
    "ZeroCost",
    "TransitionCost",
    "ObservationCost",
    "InteriorCost",
    "SurrogateInteriorCost",
    "Edge",
    "CgmLayout",
    "FlowNetwork",
    "Flow",
    "SolveStats",
    "build_flow_network",
    "build_surrogate_network",
    "solve_ssp",
    "solve_capacity_scaling",
    "extract_tables",
    "flow_balance",
    "flow_cost",
    "network_to_dot",
    "network_to_json",
]

INF = math.inf


class InfeasibleError(Exception):
    """The network admits no finite-cost flow meeting all supplies."""


# ---------------------------------------------------------------------------
# edge cost handles


class CostHandle:
    """Cost c(z) of carrying z units on one edge, defined for z = 0..capacity.

    tables() must agree with value() pointwise; solvers fill their cost table
    with one tables() call per handle class, so subclasses should vectorize it.
    """

    def value(self, z: int) -> float:
        raise NotImplementedError

    def increment(self, z: int) -> float:
        return self.value(z + 1) - self.value(z)

    @classmethod
    def tables(cls, handles: Sequence["CostHandle"], cap: int) -> np.ndarray:
        """Values at z = 0..cap, one row per handle (all of this class)."""
        return np.array([[h.value(z) for z in range(cap + 1)] for h in handles], dtype=float)

    def table(self, cap: int) -> np.ndarray:
        return type(self).tables([self], cap)[0]


@dataclass(frozen=True)
class ZeroCost(CostHandle):
    def value(self, z: int) -> float:
        return 0.0

    @classmethod
    def tables(cls, handles, cap):
        return np.zeros((len(handles), cap + 1))


@dataclass(frozen=True)
class TransitionCost(CostHandle):
    """log z! - z * log(phi) for one transition edge; discrete convex."""

    log_phi: float

    def value(self, z: int) -> float:
        return log_factorial(z) - z * self.log_phi

    @classmethod
    def tables(cls, handles, cap):
        z = np.arange(cap + 1)
        log_phi = np.array([h.log_phi for h in handles], dtype=float)
        return log_factorial_array(z) - z * log_phi[:, None]


def _observation_tables(handles, cap: int) -> np.ndarray:
    """h(z) = -log p(y | z) up to constants for z = 0..cap, one row per handle."""
    models = [h.model for h in handles]
    for model in models:
        if model is not MISSING and not isinstance(model, (Gaussian, Poisson)):
            raise TypeError(f"unknown noise model {model!r}")
    z = np.arange(cap + 1, dtype=float)
    ys = np.array([h.y for h in handles], dtype=float)
    out = np.zeros((len(models), cap + 1))
    gauss = np.array([isinstance(m, Gaussian) for m in models], dtype=bool)
    var = np.array([m.var for m in models if isinstance(m, Gaussian)], dtype=float)
    out[gauss] = (ys[gauss, None] - z) ** 2 / (2.0 * var[:, None])
    poisson = np.array([isinstance(m, Poisson) for m in models], dtype=bool)
    y = np.trunc(ys[poisson])
    out[poisson, 0] = np.where(y == 0, 0.0, INF)
    out[poisson, 1:] = (
        -y[:, None] * np.log(z[1:]) + z[1:] + log_factorial_array(y.astype(np.int64))[:, None]
    )
    return out


@dataclass(frozen=True)
class ObservationCost(CostHandle):
    """Negative log likelihood of the observation as a function of the count."""

    model: NoiseModel
    y: float

    def value(self, z: int) -> float:
        return h_noise_cost(self.model, self.y, z)

    @classmethod
    def tables(cls, handles, cap):
        return _observation_tables(handles, cap)


@dataclass(frozen=True)
class InteriorCost(CostHandle):
    """-log z! plus the observation cost.

    Concave plus convex: NOT discrete convex in general, so the exact solvers
    reject networks carrying it.  It exists so that the cost of a flow on the
    as-built network equals the true objective of the corresponding tables.
    """

    model: NoiseModel
    y: float

    def value(self, z: int) -> float:
        return -log_factorial(z) + h_noise_cost(self.model, self.y, z)

    @classmethod
    def tables(cls, handles, cap):
        return -log_factorial_array(np.arange(cap + 1)) + _observation_tables(handles, cap)


@dataclass(frozen=True)
class SurrogateInteriorCost(CostHandle):
    """Affine upper bound of -log z! anchored at n_lin, plus the observation cost.

    alpha must be a supergradient of -log z! at n_lin; the result is discrete
    convex whenever the observation term is.
    """

    model: NoiseModel
    y: float
    n_lin: int
    alpha: float

    def value(self, z: int) -> float:
        affine = -log_factorial(self.n_lin) + self.alpha * (z - self.n_lin)
        return affine + h_noise_cost(self.model, self.y, z)

    @classmethod
    def tables(cls, handles, cap):
        z = np.arange(cap + 1, dtype=float)
        n_lin = np.array([h.n_lin for h in handles], dtype=np.int64)
        alpha = np.array([h.alpha for h in handles], dtype=float)
        affine = -log_factorial_array(n_lin)[:, None] + alpha[:, None] * (z - n_lin[:, None])
        return affine + _observation_tables(handles, cap)


# ---------------------------------------------------------------------------
# network


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    cost: CostHandle
    capacity: int


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CgmLayout:
    """Node and edge indexing of the layered construction.

    Node 0 is the source 'o', node 1 the sink 'd'; step t contributes an
    entry layer u_t_* and an exit layer w_t_*.  The edge-id arrays map table
    coordinates back to edges: node_edges[t, i] is the u->w edge whose flow
    is the node count, trans_edges[t, i, j] the transition edge.
    """

    n_steps: int
    n_states: int
    population: int
    source_edges: np.ndarray
    node_edges: np.ndarray
    trans_edges: np.ndarray
    sink_edges: np.ndarray

    def __post_init__(self) -> None:
        for name in ("source_edges", "node_edges", "trans_edges", "sink_edges"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    def u_node(self, t: int, i: int) -> int:
        return 2 + 2 * t * self.n_states + i

    def w_node(self, t: int, i: int) -> int:
        return 2 + (2 * t + 1) * self.n_states + i

    def node_name(self, v: int) -> str:
        if v == 0:
            return "o"
        if v == 1:
            return "d"
        t, rem = divmod(v - 2, 2 * self.n_states)
        layer, i = divmod(rem, self.n_states)
        return f"{'uw'[layer]}_{t + 1}_{i + 1}"


@dataclass(frozen=True)
class FlowNetwork:
    n_nodes: int
    edges: tuple[Edge, ...]
    supplies: np.ndarray
    layout: Optional[CgmLayout] = None

    def __post_init__(self) -> None:
        supplies = np.asarray(self.supplies, dtype=np.int64)
        if supplies.shape != (self.n_nodes,):
            raise ValueError("supplies must have one entry per node")
        if int(supplies.sum()) != 0:
            raise ValueError("supplies must sum to zero")
        object.__setattr__(self, "supplies", _readonly(supplies))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Flow:
    """Integer flow values per edge, indexed like FlowNetwork.edges."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", _readonly(values))


# ---------------------------------------------------------------------------
# construction


def _build(instance: CgmInstance, interior: Callable[[int, int], CostHandle]) -> FlowNetwork:
    N, R, M = instance.n_steps, instance.n_states, instance.population
    source_edges = np.empty(R, dtype=np.int64)
    node_edges = np.empty((N, R), dtype=np.int64)
    trans_edges = np.empty((max(N - 1, 0), R, R), dtype=np.int64)
    sink_edges = np.empty(R, dtype=np.int64)
    edges: list[Edge] = []

    def u_node(t: int, i: int) -> int:
        return 2 + 2 * t * R + i

    def w_node(t: int, i: int) -> int:
        return 2 + (2 * t + 1) * R + i

    for i in range(R):
        source_edges[i] = len(edges)
        edges.append(Edge(0, u_node(0, i), ZeroCost(), M))
    log_phi = instance.log_potentials if N > 1 else None
    for t in range(N):
        boundary = t == 0 or t == N - 1
        for i in range(R):
            node_edges[t, i] = len(edges)
            if boundary:
                handle: CostHandle = ObservationCost(
                    instance.noise[t][i], float(instance.observations[t, i])
                )
            else:
                handle = interior(t, i)
            edges.append(Edge(u_node(t, i), w_node(t, i), handle, M))
        if t < N - 1:
            for i in range(R):
                for j in range(R):
                    trans_edges[t, i, j] = len(edges)
                    edges.append(
                        Edge(
                            w_node(t, i),
                            u_node(t + 1, j),
                            TransitionCost(float(log_phi[t, i, j])),
                            M,
                        )
                    )
    for i in range(R):
        sink_edges[i] = len(edges)
        edges.append(Edge(w_node(N - 1, i), 1, ZeroCost(), M))

    layout = CgmLayout(
        n_steps=N,
        n_states=R,
        population=M,
        source_edges=source_edges,
        node_edges=node_edges,
        trans_edges=trans_edges,
        sink_edges=sink_edges,
    )
    supplies = np.zeros(2 + 2 * N * R, dtype=np.int64)
    supplies[0] = M
    supplies[1] = -M
    return FlowNetwork(
        n_nodes=2 + 2 * N * R, edges=tuple(edges), supplies=supplies, layout=layout
    )


def build_flow_network(instance: CgmInstance) -> FlowNetwork:
    """Network whose minimum-cost flows are exactly the MAP tables.

    Interior node edges carry the true (nonconvex) cost -log z! + h(z); the
    exact solvers refuse such networks, but flow_cost on them reproduces the
    true objective of any feasible flow.
    """

    def interior(t: int, i: int) -> CostHandle:
        return InteriorCost(instance.noise[t][i], float(instance.observations[t, i]))

    return _build(instance, interior)


def build_surrogate_network(
    instance: CgmInstance, linearization: ContingencyTables, strategy
) -> FlowNetwork:
    """Network of one difference-of-convex iteration.

    Interior node edges carry the affine surrogate of -log z! anchored at the
    linearization table (which need not be feasible; the all-zero table is
    the customary starting point) plus the observation cost.  All installed
    handles are discrete convex.
    """
    from .dca import alpha_value

    if linearization.node.shape != (instance.n_steps, instance.n_states):
        raise ValueError("linearization shape does not match instance")

    def interior(t: int, i: int) -> CostHandle:
        n_lin = int(linearization.node[t, i])
        return SurrogateInteriorCost(
            instance.noise[t][i],
            float(instance.observations[t, i]),
            n_lin,
            alpha_value(strategy, n_lin),
        )

    return _build(instance, interior)


# ---------------------------------------------------------------------------
# flow inspection


def _endpoints(network: FlowNetwork) -> tuple[np.ndarray, np.ndarray]:
    count = network.n_edges
    tails = np.fromiter((e.tail for e in network.edges), dtype=np.int64, count=count)
    heads = np.fromiter((e.head for e in network.edges), dtype=np.int64, count=count)
    return tails, heads


def _balance(tails: np.ndarray, heads: np.ndarray, values, n_nodes: int) -> np.ndarray:
    out = np.bincount(tails, weights=values, minlength=n_nodes)
    into = np.bincount(heads, weights=values, minlength=n_nodes)
    return (out - into).astype(np.int64)


def flow_balance(network: FlowNetwork, values: np.ndarray) -> np.ndarray:
    """Out minus in at every node; equals supplies for a feasible flow."""
    return _balance(*_endpoints(network), np.asarray(values), network.n_nodes)


def flow_cost(network: FlowNetwork, flow: Flow) -> float:
    """Sum of edge costs at the flow's values; +inf if any term is."""
    total = 0.0
    for e, z in zip(network.edges, flow.values):
        c = e.cost.value(int(z))
        if c == INF:
            return INF
        total += c
    return total


def extract_tables(network: FlowNetwork, flow: Flow) -> ContingencyTables:
    """Read contingency tables off a feasible flow on an as-built network."""
    layout = network.layout
    if layout is None:
        raise ValueError("network has no table layout")
    values = flow.values
    if values.shape != (network.n_edges,):
        raise ValueError("flow does not match network")
    if (values < 0).any() or any(
        int(z) > e.capacity for e, z in zip(network.edges, values)
    ):
        raise ValueError("flow violates edge bounds")
    if not np.array_equal(flow_balance(network, values), network.supplies):
        raise ValueError("flow violates conservation")
    node = values[layout.node_edges]
    edge = values[layout.trans_edges]
    return ContingencyTables(node=node, edge=edge)


# ---------------------------------------------------------------------------
# solvers


@dataclass
class SolveStats:
    """Counters of one solve.

    dijkstra_pops sums, over all searches, the nodes a search settles (those
    at finite distance from the sources); every search runs to completion.
    min_reduced_cost is the optimality certificate: the smallest unit-step
    reduced cost over the final residual network, which is never below
    -1e-9 * max(1, largest finite |increment|) once a solver returns.
    path_costs holds the true cost of every shipment; to_dict summarizes it.
    """

    method: str = ""
    shipments: int = 0
    units: int = 0
    path_costs: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    restoration_pushes: int = 0
    dijkstra_pops: int = 0
    min_reduced_cost: float = 0.0
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        costs = self.path_costs
        return {
            "method": self.method,
            "shipments": self.shipments,
            "units": self.units,
            "path_costs": {
                "count": len(costs),
                "min": min(costs, default=None),
                "max": max(costs, default=None),
                "nondecreasing": all(b >= a - 1e-9 for a, b in zip(costs, costs[1:])),
            },
            "phases": list(self.phases),
            "restoration_pushes": self.restoration_pushes,
            "dijkstra_pops": self.dijkstra_pops,
            "min_reduced_cost": self.min_reduced_cost,
            "wall_time": self.wall_time,
        }


class _ResidualState:
    """Mutable solver state over arrays: flow, excesses, potentials, cost table.

    table[e, z] is edge e's cost at flow z, +inf outside lower[e]..cap[e].
    Residual arcs are kept in CSR order (sorted by tail, then head); arc_edge
    and arc_fwd name the edge behind each arc and its direction, and inc holds
    each arc's per-unit cost of one step of the current size (+inf when the
    step leaves the edge's range).  Potentials keep every reduced increment
    nonnegative up to rounding, so every search is label-setting.
    """

    def __init__(self, network: FlowNetwork, stats: SolveStats):
        self.network = network
        self.stats = stats
        E, n = network.n_edges, network.n_nodes
        self.n_nodes = n
        self.tails, self.heads = _endpoints(network)
        self.cap = np.fromiter((e.capacity for e in network.edges), np.int64, E)
        width = int(self.cap.max(initial=0)) + 1
        table = np.empty((E, width))
        groups: dict = {}
        for idx, e in enumerate(network.edges):
            groups.setdefault(type(e.cost), []).append(idx)
        for cls, idxs in groups.items():
            table[idxs] = cls.tables([network.edges[i].cost for i in idxs], width - 1)
        table[np.arange(width) > self.cap[:, None]] = INF
        self.table = table

        finite = np.isfinite(table)
        self.lower = finite.argmax(axis=1)
        empty = ~finite.any(axis=1)
        gaps = finite.sum(axis=1) != self.cap - self.lower + 1
        bad = np.flatnonzero(empty | gaps)
        if bad.size:
            idx = int(bad[0])
            if empty[idx]:
                raise InfeasibleError(f"edge {idx} has no finite cost at any flow value")
            raise ValueError(f"edge {idx} cost has interior +inf values")
        with np.errstate(invalid="ignore"):
            diffs = np.diff(table, axis=1)
            bends = np.diff(diffs, axis=1)
        k = np.arange(width - 2)
        inside = (k >= self.lower[:, None]) & (k <= self.cap[:, None] - 2)
        bad = np.flatnonzero((inside & (bends < -1e-9)).any(axis=1))
        del bends
        if bad.size:
            raise ValueError(
                f"edge {int(bad[0])} cost is not discrete convex; exact solvers require "
                "convex edge costs"
            )
        # in place: diffs is as large as the cost table
        diffs[~np.isfinite(diffs)] = 0.0
        self.scale = max(1.0, float(np.abs(diffs, out=diffs).max(initial=0.0)))

        self.z = self.lower.copy()
        self.excess = network.supplies - _balance(self.tails, self.heads, self.z, n)

        arc_src = np.concatenate([self.tails, self.heads])
        arc_dst = np.concatenate([self.heads, self.tails])
        order = np.lexsort((arc_dst, arc_src))
        self.arc_src, self.arc_dst = arc_src[order], arc_dst[order]
        self.arc_edge, self.arc_fwd = order % E, order < E
        self.arc_pos = np.empty(2 * E, dtype=np.int64)
        self.arc_pos[order] = np.arange(2 * E)
        self.arc_keys = self.arc_src * n + self.arc_dst
        indptr = np.searchsorted(self.arc_src, np.arange(n + 1)).astype(np.int32)
        self.graph = csr_array(
            (np.zeros(2 * E), self.arc_dst.astype(np.int32), indptr), shape=(n, n)
        )
        self.inc = np.empty(2 * E)
        self._refresh(1)
        self.pi = self._initial_potentials()

    def _refresh(self, delta: int, pos=slice(None)) -> None:
        """Recompute the delta-step increments of the residual arcs at pos."""
        e = self.arc_edge[pos]
        ze = self.z[e]
        zn = np.where(self.arc_fwd[pos], ze + delta, ze - delta)
        ok = (zn >= self.lower[e]) & (zn <= self.cap[e])
        zn = np.where(ok, zn, ze)
        self.inc[pos] = np.where(ok, (self.table[e, zn] - self.table[e, ze]) / delta, INF)

    def _reduced(self) -> np.ndarray:
        return self.inc - self.pi[self.arc_src] + self.pi[self.arc_dst]

    def _initial_potentials(self) -> np.ndarray:
        """Bellman-Ford over the open arcs from a virtual root n joined to every node."""
        n = self.n_nodes
        open_ = np.isfinite(self.inc)
        src = np.append(self.arc_src[open_], np.full(n, n))
        graph = csr_array(
            (
                np.append(self.inc[open_], np.zeros(n)),
                np.append(self.arc_dst[open_], np.arange(n)).astype(np.int32),
                np.searchsorted(src, np.arange(n + 2)).astype(np.int32),
            ),
            shape=(n + 1, n + 1),
        )
        try:
            dist = bellman_ford(graph, directed=True, indices=n)
        except NegativeCycleError:
            raise ValueError("negative-cost cycle in network") from None
        return -dist[:n]

    def ship(self, delta: int) -> bool:
        """Move delta units from a nearest (excess, deficit) pair; False if none."""
        sources = np.flatnonzero(self.excess >= delta)
        sinks = self.excess <= -delta
        if not sources.size or not sinks.any():
            return False
        weights = self.graph.data
        # reduced increments are nonnegative up to rounding residue; clamping
        # keeps the search label-setting
        np.maximum(self._reduced(), 0.0, out=weights)
        dist, pred, _ = dijkstra(
            self.graph, directed=True, indices=sources, return_predecessors=True,
            min_only=True,
        )
        self.stats.dijkstra_pops += int(np.isfinite(dist).sum())
        reach = np.where(sinks, dist, INF)
        target = int(reach.argmin())
        d_target = reach[target]
        if d_target == INF:
            return False
        self.pi -= np.minimum(dist, d_target)

        path = [target]
        while pred[path[-1]] >= 0:
            path.append(int(pred[path[-1]]))
        path = np.array(path[::-1])
        keys = path[:-1] * self.n_nodes + path[1:]
        pos = np.searchsorted(self.arc_keys, keys, side="left")
        end = np.searchsorted(self.arc_keys, keys, side="right")
        for k in np.flatnonzero(end - pos > 1):
            # parallel residual arcs: the search used the cheapest one
            pos[k] += int(weights[pos[k] : end[k]].argmin())
        e = self.arc_edge[pos]
        ze = self.z[e]
        zn = np.where(self.arc_fwd[pos], ze + delta, ze - delta)
        true_cost = float((self.table[e, zn] - self.table[e, ze]).sum())
        self.z[e] = zn
        self.excess[path[0]] -= delta
        self.excess[target] += delta
        self._refresh(delta, np.concatenate([self.arc_pos[e], self.arc_pos[e + len(self.z)]]))
        self.stats.shipments += 1
        self.stats.units += delta
        self.stats.path_costs.append(true_cost)
        return True

    def restore(self, delta: int) -> None:
        """Re-establish nonnegative delta-step reduced costs by saturating pushes."""
        E = len(self.z)
        while True:
            self._refresh(delta)
            red = self._reduced()
            fwd = red[self.arc_pos[:E]] < -1e-12
            bwd = (red[self.arc_pos[E:]] < -1e-12) & ~fwd
            if not (fwd.any() or bwd.any()):
                return
            step = delta * (fwd.astype(np.int64) - bwd)
            self.z += step
            self.excess -= _balance(self.tails, self.heads, step, self.n_nodes)
            self.stats.restoration_pushes += int(fwd.sum() + bwd.sum())

    def finalize(self) -> tuple[Flow, float]:
        """Return the flow and its cost after checking the optimality certificate."""
        values = self.z.copy()
        cost = float(self.table[np.arange(len(values)), values].sum())
        self._refresh(1)
        red = self._reduced()
        worst = min(0.0, float(red[np.isfinite(red)].min(initial=0.0)))
        self.stats.min_reduced_cost = worst
        if worst < -1e-9 * self.scale:
            raise RuntimeError(
                f"optimality certificate failed: min reduced cost {worst!r} below "
                f"-1e-9 * {self.scale!r}"
            )
        return Flow(values=values), cost


def _infeasible_detail(state: _ResidualState) -> str:
    stuck = np.flatnonzero(state.excess > 0)
    return "no residual path can carry remaining supply from " + ", ".join(
        _node_label(state.network, int(v)) for v in stuck[:8]
    )


def solve_ssp(network: FlowNetwork) -> tuple[Flow, float, SolveStats]:
    """Exact min-cost flow by unit augmentations along shortest residual paths.

    Requires every edge cost to be discrete convex.  Deterministic: reruns
    are bit-identical.  Among equally short paths the one csgraph's Dijkstra
    settles (its heap order) is taken, and among equally near deficits the
    lowest node index.
    """
    t0 = time.perf_counter()
    stats = SolveStats(method="ssp")
    state = _ResidualState(network, stats)
    while state.ship(1):
        pass
    if (state.excess > 0).any():
        raise InfeasibleError(_infeasible_detail(state))
    flow, cost = state.finalize()
    stats.wall_time = time.perf_counter() - t0
    return flow, cost, stats


def solve_capacity_scaling(network: FlowNetwork) -> tuple[Flow, float, SolveStats]:
    """Exact min-cost flow shipping geometrically shrinking blocks.

    Each phase halves the block size delta, restores delta-step optimality
    with saturating pushes, then ships blocks between large excesses and
    deficits.  The final unit phase guarantees exactness, so the result
    matches solve_ssp's cost (flows may differ on ties).
    """
    t0 = time.perf_counter()
    stats = SolveStats(method="cs")
    state = _ResidualState(network, stats)
    top = int(state.excess.max(initial=0))
    delta = 1 << (top.bit_length() - 1) if top > 0 else 1
    while delta >= 1:
        stats.phases.append(delta)
        # halving delta invalidates delta-step optimality, so every phase
        # (the unit phase included) re-establishes it before shipping
        state.restore(delta)
        while state.ship(delta):
            pass
        if delta == 1 and (state.excess > 0).any():
            raise InfeasibleError(_infeasible_detail(state))
        delta //= 2
    flow, cost = state.finalize()
    stats.wall_time = time.perf_counter() - t0
    return flow, cost, stats


# ---------------------------------------------------------------------------
# debug dumps


def _node_label(network: FlowNetwork, v: int) -> str:
    if network.layout is not None:
        return network.layout.node_name(v)
    return f"v{v}"


def network_to_dot(network: FlowNetwork) -> str:
    lines = ["digraph flow {"]
    for v in range(network.n_nodes):
        b = int(network.supplies[v])
        extra = f' [xlabel="{b:+d}"]' if b else ""
        lines.append(f'  "{_node_label(network, v)}"{extra};')
    for e in network.edges:
        lines.append(
            f'  "{_node_label(network, e.tail)}" -> "{_node_label(network, e.head)}"'
            f' [label="cap {e.capacity}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def network_to_json(network: FlowNetwork) -> dict:
    return {
        "n_nodes": network.n_nodes,
        "nodes": [_node_label(network, v) for v in range(network.n_nodes)],
        "supplies": network.supplies.tolist(),
        "edges": [
            {
                "tail": _node_label(network, e.tail),
                "head": _node_label(network, e.head),
                "capacity": e.capacity,
                "cost": repr(e.cost),
            }
            for e in network.edges
        ],
    }
