"""Convex-cost network flow: layered network construction and exact solvers.

A problem instance maps to a directed layered network: a source feeds R entry
nodes for the first step, every state at step t is split into an entry node
u_t_i and an exit node w_t_i joined by an edge carrying the node-count cost,
transition edges w_t_i -> u_(t+1)_j carry the pairwise-count cost, and the
last exit layer drains into a sink.  Integer flows of value M on this network
are in one-to-one correspondence with feasible contingency tables, and the
flow cost equals the table objective.

A network is a set of arrays: tails, heads and capacities, plus the
parameters of one closed-form cost per edge,

    c_e(z) = lf_e * ln z! + slope_e * z + offset_e + h_e(z),

where h_e is core.observation_cost at the edge's (obs_kind, obs_y, obs_var):
Gaussian, Poisson or none.  Transition edges have lf = 1 and slope = -log phi,
boundary node edges carry only h, and source and sink edges cost nothing.
Interior node edges carry lf = -1, the true -ln z!, unless
``build_flow_network(instance, interior)`` is given an affine cost: then they
carry lf = 0 and its slope and offset.  The difference-of-convex loop passes
its surrogate that way (``dca.build_surrogate_network``), so this module
imports nothing from ``dca``.  Convexity holds by construction wherever
lf >= 0: ln z! is discrete convex, the Gaussian term is a convex quadratic
and the Poisson term z - y ln z is convex on z >= 1 and +inf at z = 0 when
y > 0.  Only edges with lf < 0 need a numeric check.

Both solvers handle convex edge costs natively on the residual network via
incremental costs c(z+1) - c(z); an edge with a Poisson observation y > 0
carries a mandatory unit (its cost is +inf at z = 0), realized as a
pseudoflow whose excesses and deficits are shipped together with the source
supply.

The solver state holds no cost table.  It keeps per-edge flow, lower bound
and capacity, per-node excess and potential, and per-arc step increments,
and evaluates an edge's cost only at the flows a step needs: its current
flow and one step either side.  So the flow layer needs O(E + M) memory,
M the largest capacity (a table of ln z! up to M).  The 2E residual arcs
(forward and backward per edge) form one CSR graph whose structure is fixed
for a solve; before each search only its weights, the reduced step
increments clamped at 0, are refreshed.
SSP and capacity scaling share one search, a multi-source
``scipy.sparse.csgraph.dijkstra`` from every node with enough excess; a cold
solve's potentials come from label-correcting sweeps (_initial_potentials).

Each search ships one path per tree of the shortest-path forest it grows:
from each root to the nearest deficit in its tree.  Potentials fall by
min(dist, D), D the largest distance of a chosen deficit, which keeps every
reduced cost nonnegative and sets every chosen path's to 0; the trees share
no node, so the paths are disjoint and ship together (``ship``).  A cold
unit-block SSP solve on a network with one supply node and no mandatory
unit has one root per search and is plain successive shortest paths;
scaled phases and warm starts, which hold many excesses at once, need far
fewer searches than paths.

Both solvers run one phase routine at a block size delta (``phase``):
every round scans every edge, pushes delta units along each one whose
delta step has a negative reduced cost, and ships, until a round pushes
nothing.  A solve halves delta from the largest power of two at most
min(cap, top) down to 1 (Ahuja, Magnanti and Orlin, Network Flows,
sections 10.2 and 14.5), top the top excess of a cold solve.  solve_ssp
takes the cap as max_block, 1 by default, which leaves plain SSP's single
unit phase; capacity scaling leaves the block uncapped.  Scaling wins when
cells hold many units and plain SSP when they hold few, so a caller that
knows its counts picks the cap (dca.run_dca does, from the population per
state).  A warm start, a feasible flow with node potentials
(``Flow.duals``, which every solver returns), holds no excess, so its unit
phase moves only the units its pushes displace; a difference-of-convex
iteration changes only the interior node-edge slopes, so the previous
optimum is nearly optimal for the next surrogate.  A warm solve_ssp
honours the cap too, with top the largest edge range: a start far from the
new optimum then moves in blocks.  A warm capacity-scaling solve is the
unit phase.

A warm start also reuses what its start's solve built.  Every Flow a solver
returns carries that solve's basis: its network, residual arcs (CSR order
and the search graph), each edge's cost-scale bound and the step-1
increments at the returned flow.  The first warm start from such a Flow on
a network with the same node count, tails and heads takes all of it over,
so no other solve can share the arrays it edits, and evaluates costs only
for the edges whose cost arrays differ in value from the basis network's.
Any other start builds the arcs and costs every edge.  The convexity check,
the start check and the certificate run as on a fresh build.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# at module level, so that no solve's wall_time includes the one-time scipy import
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from .core import (
    GAUSSIAN,
    POISSON,
    CgmInstance,
    ContingencyTables,
    _frozen,
    log_factorial_array,
    observation_cost,
)

__all__ = [
    "InfeasibleError",
    "CgmLayout",
    "FlowNetwork",
    "Flow",
    "SolveStats",
    "build_flow_network",
    "cost_table",
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
# network


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
            object.__setattr__(self, name, _frozen(getattr(self, name), np.int64))

    # t and i may be integers or integer arrays that broadcast
    def u_node(self, t, i):
        return 2 + 2 * t * self.n_states + i

    def w_node(self, t, i):
        return 2 + (2 * t + 1) * self.n_states + i

    def node_name(self, v: int) -> str:
        if v == 0:
            return "o"
        if v == 1:
            return "d"
        t, rem = divmod(v - 2, 2 * self.n_states)
        layer, i = divmod(rem, self.n_states)
        return f"{'uw'[layer]}_{t + 1}_{i + 1}"


_EDGE_ARRAYS = {
    "tails": np.int64,
    "heads": np.int64,
    "capacity": np.int64,
    "lf": float,
    "slope": float,
    "offset": float,
    "obs_kind": np.int8,
    "obs_y": float,
    "obs_var": float,
}


@dataclass(frozen=True)
class FlowNetwork:
    """Edges tails[e] -> heads[e] with capacity[e] and cost c_e(z) at z = 0..capacity[e].

    c_e(z) = lf[e] * ln z! + slope[e] * z + offset[e] + h_e(z), with h_e the
    observation cost of kind obs_kind[e] (0 none, GAUSSIAN or POISSON) at
    obs_y[e] and Gaussian variance obs_var[e].  Every parameter must be
    finite; capacities and Poisson observations are nonnegative integers and
    Gaussian variances positive.
    """

    n_nodes: int
    supplies: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    capacity: np.ndarray
    lf: np.ndarray
    slope: np.ndarray
    offset: np.ndarray
    obs_kind: np.ndarray
    obs_y: np.ndarray
    obs_var: np.ndarray
    layout: Optional[CgmLayout] = None

    def __post_init__(self) -> None:
        supplies = _frozen(self.supplies, np.int64, "supplies must be integers")
        if supplies.shape != (self.n_nodes,):
            raise ValueError("supplies must have one entry per node")
        if int(supplies.sum()) != 0:
            raise ValueError("supplies must sum to zero")
        object.__setattr__(self, "supplies", supplies)
        n_edges = np.shape(self.tails)
        for name, dtype in _EDGE_ARRAYS.items():
            if dtype is float:
                error = f"{name} must be finite"
            else:
                error = f"{name} must hold {np.dtype(dtype).name} values"
            values = _frozen(getattr(self, name), dtype, error)
            if values.shape != n_edges or values.ndim != 1:
                raise ValueError(f"{name} must have one entry per edge")
            object.__setattr__(self, name, values)
        ends = np.concatenate([self.tails, self.heads])
        if ((ends < 0) | (ends >= self.n_nodes)).any():
            raise ValueError("edge endpoints must be nodes")
        if (self.capacity < 0).any():
            raise ValueError("capacities must be nonnegative")
        kind = self.obs_kind
        # the kinds are 0, GAUSSIAN = 1 and POISSON = 2
        if ((kind < 0) | (kind > POISSON)).any():
            raise ValueError("obs_kind must be 0, GAUSSIAN or POISSON")
        if (self.obs_var[kind == GAUSSIAN] <= 0).any():
            raise ValueError("Gaussian variances must be positive")
        y = self.obs_y[kind == POISSON]
        if ((y < 0) | (y != np.trunc(y))).any():
            raise ValueError("Poisson observations must be nonnegative integers")

    @property
    def n_edges(self) -> int:
        return len(self.tails)


@dataclass(frozen=True)
class Flow:
    """Integer flow values per edge, indexed like the FlowNetwork's edge arrays.

    values and duals are kept as read-only copies of what the caller passed.

    duals, set by the exact solvers and None elsewhere, are node potentials
    under which no unit step of the flow has a negative reduced cost: the
    optimality certificate, and with the flow a warm start for a later solve.

    A solver-built Flow also carries its solve's basis (the network, its
    residual arcs, each edge's cost-scale bound and the step-1 increments
    at these values), which takes no part in equality or repr.  It is
    single-use: the first warm start from this Flow takes it, and the Flow
    keeps those arrays alive until then, or until it is dropped.
    """

    values: np.ndarray
    duals: Optional[np.ndarray] = None
    _basis: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _frozen(self.values, np.int64, "flow values must be integers")
        )
        if self.duals is not None:
            object.__setattr__(self, "duals", _frozen(self.duals))

    def __eq__(self, other: object) -> bool:
        """Equal values and equal duals, where None equals only None."""
        if not isinstance(other, Flow):
            return NotImplemented
        if (self.duals is None) != (other.duals is None):
            return False
        return np.array_equal(self.values, other.values) and (
            self.duals is None or np.array_equal(self.duals, other.duals)
        )


class _EdgeCosts:
    """c_e(z) of one network's edges, evaluated at given (edge, z) pairs.

    Called with edges e, an index array of shape (k,) or a slice, and
    integer flows z within 0..max capacity that broadcast against them:
    shape (k,), or (m, k) for m flows per edge.  Edges run along the last
    axis, so numpy's inner loops are long whether k is large or m is.
    Elementwise the arithmetic is fixed, so a cost is the same bit for bit
    whichever pairs it is evaluated with:
    ((slope * z + offset) + lf * ln z!) + h(z), with h added only on
    observed edges.
    """

    def __init__(self, network: FlowNetwork):
        kind = network.obs_kind
        self.slope, self.offset, self.lf = network.slope, network.offset, network.lf
        self.kind = kind
        self.observed = kind != 0
        # h is evaluated on every edge but added only on observed ones;
        # neutral parameters keep the values left unused finite
        self.obs_y = np.where(self.observed, network.obs_y, 0.0)
        self.obs_var = np.where(kind == GAUSSIAN, network.obs_var, 1.0)
        self.log_fact = log_factorial_array(np.arange(int(network.capacity.max(initial=0)) + 1))

    def __call__(self, e, z: np.ndarray) -> np.ndarray:
        costs = self.slope[e] * z
        costs += self.offset[e]
        costs += self.lf[e] * self.log_fact[z]
        h = observation_cost(self.kind[e], self.obs_y[e], self.obs_var[e], z)
        return np.add(costs, h, out=costs, where=self.observed[e])

    def total(self, values: np.ndarray) -> float:
        """Sum of every edge's cost at its value; +inf if any term is."""
        return float(self(slice(None), values).sum())


def cost_table(network: FlowNetwork) -> np.ndarray:
    """c_e(z) for every edge e and z = 0..max capacity, +inf beyond capacity[e]."""
    z = np.arange(int(network.capacity.max(initial=0)) + 1)
    table = _EdgeCosts(network)(slice(None), z[:, None]).T
    table[z > network.capacity[:, None]] = INF
    return table


# ---------------------------------------------------------------------------
# construction


def build_flow_network(
    instance: CgmInstance,
    interior: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> FlowNetwork:
    """Layered network of the instance.

    By default interior node edges carry the true (nonconvex) cost
    -log z! + h(z), so minimum-cost flows are exactly the MAP tables; the
    exact solvers refuse such networks unless that sum is discrete convex,
    but flow_cost on them reproduces the true objective of any feasible flow.
    interior = (slope, offset), two arrays of shape (n_steps - 2, n_states),
    replaces -log z! on those edges by the affine cost slope * z + offset,
    as in one difference-of-convex iteration (dca.build_surrogate_network).
    """
    N, R, M = instance.n_steps, instance.n_states, instance.population
    lf, slope, offset = -1.0, 0.0, 0.0
    if interior is not None:
        lf, (slope, offset) = 0.0, interior
        cells = (max(N - 2, 0), R)
        if np.shape(slope) != cells or np.shape(offset) != cells:
            raise ValueError(f"interior slope and offset must have shape {cells}")
    states = np.arange(R)
    # edge order: source edges, then per step its node edges followed by its
    # transition edges (row-major in i, j), then sink edges
    block = R + R * R
    node_edges = R + block * np.arange(N)[:, None] + states
    trans_edges = (node_edges[:-1, :1, None] + R) + R * states[:, None] + states
    n_edges = 2 * R + N * R + (N - 1) * R * R
    sink_edges = n_edges - R + states
    layout = CgmLayout(
        n_steps=N,
        n_states=R,
        population=M,
        source_edges=states,
        node_edges=node_edges,
        trans_edges=trans_edges,
        sink_edges=sink_edges,
    )
    steps = np.arange(N)[:, None]
    u, w = layout.u_node(steps, states), layout.w_node(steps, states)

    tails = np.empty(n_edges, dtype=np.int64)
    heads = np.empty(n_edges, dtype=np.int64)
    tails[states], heads[states] = 0, u[0]
    tails[node_edges], heads[node_edges] = u, w
    tails[trans_edges], heads[trans_edges] = w[:-1, :, None], u[1:, None, :]
    tails[sink_edges], heads[sink_edges] = w[-1], 1

    lf_e, slope_e, offset_e = np.zeros(n_edges), np.zeros(n_edges), np.zeros(n_edges)
    lf_e[trans_edges] = 1.0
    slope_e[trans_edges] = -instance.log_potentials
    inner = node_edges[1 : N - 1]
    lf_e[inner], slope_e[inner], offset_e[inner] = lf, slope, offset
    obs_kind = np.zeros(n_edges, dtype=np.int8)
    obs_y, obs_var = np.zeros(n_edges), np.ones(n_edges)
    kind, y, var = instance.observation_arrays
    obs_kind[node_edges], obs_y[node_edges], obs_var[node_edges] = kind, y, var

    supplies = np.zeros(2 + 2 * N * R, dtype=np.int64)
    supplies[0] = M
    supplies[1] = -M
    return FlowNetwork(
        n_nodes=2 + 2 * N * R,
        supplies=supplies,
        tails=tails,
        heads=heads,
        capacity=np.full(n_edges, M),
        lf=lf_e,
        slope=slope_e,
        offset=offset_e,
        obs_kind=obs_kind,
        obs_y=obs_y,
        obs_var=obs_var,
        layout=layout,
    )


# ---------------------------------------------------------------------------
# flow inspection


def _balance(tails: np.ndarray, heads: np.ndarray, values, n_nodes: int) -> np.ndarray:
    out = np.bincount(tails, weights=values, minlength=n_nodes)
    into = np.bincount(heads, weights=values, minlength=n_nodes)
    return (out - into).astype(np.int64)


def flow_balance(network: FlowNetwork, values: np.ndarray) -> np.ndarray:
    """Out minus in at every node; equals supplies for a feasible flow."""
    return _balance(network.tails, network.heads, np.asarray(values), network.n_nodes)


def _check_flow(network: FlowNetwork, values: np.ndarray, lower=0, feasible: bool = True) -> None:
    """Raise unless values lie within lower..capacity and, if feasible, meet every supply."""
    if values.shape != (network.n_edges,):
        raise ValueError("flow does not match network")
    if (values < lower).any() or (values > network.capacity).any():
        raise ValueError("flow violates edge bounds")
    if feasible and not np.array_equal(flow_balance(network, values), network.supplies):
        raise ValueError("flow violates conservation")


def flow_cost(network: FlowNetwork, flow: Flow) -> float:
    """Sum of edge costs at the flow's values; +inf if any term is.

    Evaluates each edge's cost at its value only, bit for bit as cost_table
    would, so it needs O(E + M) memory.
    """
    _check_flow(network, flow.values, feasible=False)
    return _EdgeCosts(network).total(flow.values)


def extract_tables(network: FlowNetwork, flow: Flow) -> ContingencyTables:
    """Read contingency tables off a feasible flow on an as-built network."""
    layout = network.layout
    if layout is None:
        raise ValueError("network has no table layout")
    values = flow.values
    _check_flow(network, values)
    return ContingencyTables(node=values[layout.node_edges], edge=values[layout.trans_edges])


# ---------------------------------------------------------------------------
# solvers


@dataclass(slots=True)
class PathCosts:
    """Running summary of the true costs of shipped paths, in shipping order.

    nondecreasing: whether each cost was at least the one before it - 1e-9.
    It keeps no list, so a report stays the same size however many paths
    ship.
    """

    count: int = 0
    min: float = INF
    max: float = -INF
    nondecreasing: bool = True
    last: float = -INF

    def add(self, costs: list) -> None:
        """Fold in the costs of one or more paths, in the order they shipped."""
        pairs = zip([self.last, *costs], costs)
        self.nondecreasing = self.nondecreasing and all(b >= a - 1e-9 for a, b in pairs)
        self.count += len(costs)
        self.min = min(self.min, *costs)
        self.max = max(self.max, *costs)
        self.last = costs[-1]


@dataclass(slots=True)
class SolveStats:
    """Counters of one solve.

    searches counts the Dijkstra calls.  dijkstra_pops sums, over all
    searches, the nodes a search settles (those at finite distance from the
    sources); every search runs to completion, so pops are per search.  A
    search ships one path per tree of its shortest-path forest, so
    shipments count paths, units the units they carry (a path at block size
    delta carries delta units), and path_costs summarizes the true cost of
    every path (a PathCosts): searches == shipments exactly when every
    search has one root.
    min_reduced_cost is the optimality certificate: the smallest unit-step
    reduced cost over the final residual network, which is never below
    -1e-9 * max(1, largest finite |increment|) once a solver returns.
    phases lists the block size of every phase in order, halving powers of
    two down to 1: [1] for plain SSP, a warm start at cap 1 and every warm
    capacity-scaling solve; for a scaled solve its first block first
    (solve_ssp's max_block, capped by the top excess when cold and by the
    largest edge range when warm, or capacity scaling's top excess).
    restoration_pushes counts the single-edge pushes of phase rounds, which
    restore nonnegative reduced costs after a halving or repair a warm start.
    """

    method: str = ""
    shipments: int = 0
    units: int = 0
    path_costs: PathCosts = field(default_factory=PathCosts)
    phases: list = field(default_factory=list)
    restoration_pushes: int = 0
    searches: int = 0
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
                "count": costs.count,
                "min": costs.min if costs.count else None,
                "max": costs.max if costs.count else None,
                "nondecreasing": costs.nondecreasing,
            },
            "phases": list(self.phases),
            "restoration_pushes": self.restoration_pushes,
            "searches": self.searches,
            "dijkstra_pops": self.dijkstra_pops,
            "min_reduced_cost": self.min_reduced_cost,
            "wall_time": self.wall_time,
        }


# the state attributes a basis hands on: the residual arcs, fixed per structure
_ARCS = ("arc_src", "arc_dst", "arc_edge", "arc_fwd", "edge_arcs", "arc_keys", "parallel", "graph")
# the network arrays a basis must share with the next network, besides n_nodes
_STRUCTURE = ("tails", "heads")
# the network arrays an edge's costs depend on: every other edge array
_COSTS = tuple(name for name in _EDGE_ARRAYS if name not in _STRUCTURE)
# cost evaluations per block of the convexity check
_CONVEX_BLOCK = 1 << 16
# the flows a refresh evaluates, in steps from z
_NEAR = np.array([[-1], [0], [1]])


def _changed_edges(old: FlowNetwork, new: FlowNetwork) -> np.ndarray:
    """Edges whose cost arrays (_COSTS) differ in value."""
    changed = np.zeros(new.n_edges, dtype=bool)
    for name in _COSTS:
        changed |= getattr(old, name) != getattr(new, name)
    return np.flatnonzero(changed)


class _ResidualState:
    """Mutable solver state over arrays: flow, excesses, potentials, increments.

    It holds no cost table: costs (an _EdgeCosts) evaluates an edge's cost
    at just the flows a step needs.  Residual arcs are kept in CSR order
    (sorted by tail, then head); arc_edge and arc_fwd name the edge behind
    each arc and its direction, and edge_arcs[:, e] holds the positions of
    edge e's backward and forward arcs.  inc holds each arc's per-unit cost
    of one step of size step (+inf when the step leaves the edge's range
    lower[e]..cap[e]).  Potentials keep every reduced increment nonnegative
    up to rounding, so every search is label-setting; during a phase only
    the edges still waiting for a push may be negative.

    bound[e] is the larger magnitude of edge e's first and last unit step
    (0 for an edge with no step), and scale = max(1, bound.max()).

    A warm start whose Flow carries a basis of the same structure (n_nodes
    and _STRUCTURE) takes over its arcs (_ARCS), its bounds and its step-1
    increments at the start flow, and re-costs only the edges whose cost
    arrays (_COSTS) differ in value from the basis network's.  Any other
    state costs every edge.  Either way the state starts with inc at step 1.
    """

    def __init__(self, network: FlowNetwork, stats: SolveStats, start: Optional[Flow] = None):
        self.network = network
        self.stats = stats
        E, n = network.n_edges, network.n_nodes
        self.n_nodes = n
        self.tails, self.heads, self.cap = network.tails, network.heads, network.capacity
        # the only +inf cost within 0..capacity: a Poisson y > 0 at z = 0
        self.lower = ((network.obs_kind == POISSON) & (network.obs_y > 0)).astype(np.int64)
        empty = np.flatnonzero(self.lower > self.cap)
        if empty.size:
            raise InfeasibleError(f"edge {int(empty[0])} has no finite cost at any flow value")
        self.costs = _EdgeCosts(network)
        basis = self._take_basis(start)
        if basis is None:
            self._build_arcs()
            self.bound, self.inc = np.zeros(E), np.empty(2 * E)
            changed = slice(None)
        else:
            old, arcs, self.bound, self.inc = basis
            for name, value in zip(_ARCS, arcs):
                setattr(self, name, value)
            changed = _changed_edges(old, network)
        self._check_convex(np.flatnonzero(network.lf < 0))
        self._bound(changed)
        self.scale = max(1.0, float(self.bound.max(initial=0.0)))

        if start is None:
            self.z = self.lower.copy()
            self.excess = network.supplies - _balance(self.tails, self.heads, self.z, n)
        else:
            # the start must be a feasible flow with duals, so it holds no excess
            _check_flow(network, start.values, self.lower)
            duals = start.duals
            if duals is None or duals.shape != (n,) or not np.isfinite(duals).all():
                raise ValueError("start flow needs finite duals, one per node")
            self.z = start.values.copy()
            self.excess = np.zeros(n, dtype=np.int64)
        # the step size inc holds
        self.step, self.near = 1, _NEAR
        self._refresh(changed)
        self.pi = self._initial_potentials() if start is None else start.duals.copy()

    def _build_arcs(self) -> None:
        """The 2E residual arcs in CSR order and the search graph over them (_ARCS)."""
        E, n = len(self.tails), self.n_nodes
        arc_src = np.concatenate([self.tails, self.heads])
        arc_dst = np.concatenate([self.heads, self.tails])
        order = np.lexsort((arc_dst, arc_src))
        self.arc_src, self.arc_dst = arc_src[order], arc_dst[order]
        self.arc_edge, self.arc_fwd = order % E, order < E
        arc_pos = np.empty(2 * E, dtype=np.int64)
        arc_pos[order] = np.arange(2 * E)
        self.edge_arcs = np.stack([arc_pos[E:], arc_pos[:E]])
        self.arc_keys = self.arc_src * n + self.arc_dst
        # parallel residual arcs: two arcs with the same tail and head
        self.parallel = bool((self.arc_keys[1:] == self.arc_keys[:-1]).any())
        indptr = np.searchsorted(self.arc_src, np.arange(n + 1)).astype(np.int32)
        self.graph = csr_array(
            (np.zeros(2 * E), self.arc_dst.astype(np.int32), indptr), shape=(n, n)
        )

    def _take_basis(self, start: Optional[Flow]) -> Optional[tuple]:
        """The start's basis, taken from it, if it was solved on this structure."""
        if start is None:
            return None
        try:
            basis = start._basis.pop()
        except IndexError:
            return None
        old, net = basis[0], self.network
        if old.n_nodes != net.n_nodes or not all(
            np.array_equal(getattr(old, name), getattr(net, name)) for name in _STRUCTURE
        ):
            return None
        return basis

    def _check_convex(self, rows: np.ndarray) -> None:
        """Raise unless the edges at rows (those with lf < 0) have discrete convex costs.

        Each edge's costs at 0..max capacity are evaluated in blocks of about
        _CONVEX_BLOCK values, so the check needs no table of all of them.
        """
        z = np.arange(int(self.cap.max(initial=0)) + 1)[:, None]
        k = z[:-2]
        size = max(1, _CONVEX_BLOCK // z.size)
        for first in range(0, rows.size, size):
            block = rows[first : first + size]
            with np.errstate(invalid="ignore"):
                bends = np.diff(self.costs(block, z), n=2, axis=0)
            inside = (k >= self.lower[block]) & (k <= self.cap[block] - 2)
            bad = block[(inside & (bends < -1e-9)).any(axis=0)]
            if bad.size:
                raise ValueError(
                    f"edge {int(bad[0])} cost is not discrete convex; exact solvers require "
                    "convex edge costs"
                )

    def _bound(self, edges) -> None:
        """Set bound at edges, an index array or a slice, after checking their steps are finite."""
        # a convex row's increments are nondecreasing, so its first and last
        # steps bound the magnitude of all of them
        rows = np.arange(len(self.cap))[edges]
        rows = rows[self.cap[rows] > self.lower[rows]]
        lo, hi = self.lower[rows], self.cap[rows]
        ends = self.costs(rows, np.stack([lo, lo + 1, hi - 1, hi]))
        bound = np.maximum(np.abs(ends[1] - ends[0]), np.abs(ends[3] - ends[2]))
        if not np.isfinite(bound).all():
            raise ValueError("edge costs overflow the floating-point range")
        self.bound[edges] = 0.0
        self.bound[rows] = bound

    def _at_step(self, delta: int) -> None:
        """Refresh every arc at step delta, unless inc already holds delta steps.

        Each change of z refreshes its edge's arcs at the current step, so a
        full refresh at that step would recompute identical values.
        """
        if self.step != delta:
            self.step = delta
            self.near = delta * _NEAR
            self._refresh()

    def _refresh(self, edges=slice(None)) -> np.ndarray:
        """Recompute both arcs' increments at the current step, for every edge by default.

        edges is an index array or a slice.  Returns the edges' costs at
        z - step, z and z + step, one row each; a step that leaves the edge's
        range is evaluated at z instead, and its increment is +inf.
        """
        z = self.z[edges]
        near = z + self.near
        ok = (near >= self.lower[edges]) & (near <= self.cap[edges])
        costs = self.costs(edges, np.where(ok, near, z))
        # the backward and forward increments, each difference divided by
        # its signed step, near[::2]: (c(z - d) - c(z)) / d == (c(z) - c(z - d)) / -d
        steps = (costs[1:] - costs[:-1]) / self.near[::2]
        self.inc[self.edge_arcs[:, edges]] = np.where(ok[::2], steps, INF)
        return costs

    def _reduced(self) -> np.ndarray:
        return self.inc - self.pi[self.arc_src] + self.pi[self.arc_dst]

    def _initial_potentials(self) -> np.ndarray:
        """Label-correcting sweeps over the open arcs, from distance 0 at every node.

        Cold, only forward arcs are open: on the layered network a DAG, settled
        in its depth + 1 passes.  A label still falling after n + 1 passes
        means a negative-cost cycle.
        """
        open_ = np.isfinite(self.inc)
        src, dst, inc = self.arc_src[open_], self.arc_dst[open_], self.inc[open_]
        dist = np.zeros(self.n_nodes)
        for _ in range(self.n_nodes + 1):
            reach = dist[src] + inc
            if (reach >= dist[dst]).all():
                return -dist
            np.minimum.at(dist, dst, reach)
        raise ValueError("negative-cost cycle in network")

    def phase(self, delta: int) -> None:
        """Ship at step delta until no delta step has a negative reduced cost.

        Brings every arc to step delta (_at_step), then runs rounds: every
        round scans every edge, _push_negative moves delta units along each
        one with a negative delta step, and ship(delta) routes excesses to
        deficits, many per search, until no search finds a pair.  The phase
        ends after a round that pushes nothing.  An edge stays waiting while
        its pushed direction is negative.

        Termination: ship clamps waiting arcs at 0, so by the argument in
        ship a nonnegative arc never turns negative, and a waiting arc's
        reduced cost never falls (its head ends no farther than its tail).
        A push or a ship along a waiting arc leaves the reverse arc positive
        and, by convexity, the next step no cheaper; a ship against it leaves
        that step at reduced cost 0, which ends the wait.  So while an edge
        waits its flow moves one way only, it is pushed at most
        (capacity - lower) / delta times and never again after, and each
        round pushes at least once: the rounds are at most the total edge
        range over delta.  Only floating-point rounding could exceed that
        bound; doing so raises RuntimeError.
        """
        self._at_step(delta)
        pushed = self._push_negative(delta)
        for _ in range(int((self.cap - self.lower).sum()) // delta + 1):
            # the first round ships even if it pushed nothing (a cold start
            # or a halving leaves excesses); a later push that finds nothing
            # leaves nothing to ship
            while self.ship(delta):
                pass
            if not pushed or not self._push_negative(delta):
                return
        raise RuntimeError("phase did not settle within its round bound")

    def _push_negative(self, delta: int) -> int:
        """Push delta units along every edge whose delta step is negative; return how many.

        Negative means below -1e-12 * scale, so the rule does not depend on
        the cost units.  The forward step goes first; by convexity the two
        directions of an edge are never both negative.
        """
        tol = -1e-12 * self.scale
        red = self._reduced()[self.edge_arcs]
        up = red[1] < tol
        steps = up.astype(np.int64) - ((red[0] < tol) & ~up)
        pushed = np.flatnonzero(steps)
        if not pushed.size:
            return 0
        step = delta * steps[pushed]
        self.z[pushed] += step
        self.excess -= _balance(self.tails[pushed], self.heads[pushed], step, self.n_nodes)
        self._refresh(pushed)
        self.stats.restoration_pushes += pushed.size
        return pushed.size

    def ship(self, delta: int) -> bool:
        """Move delta units along one shortest path per search tree; False if none.

        One multi-source Dijkstra from every node with excess >= delta grows a
        shortest-path forest (min_only puts each node in the tree of its
        nearest root).  In every tree that holds a deficit <= -delta, delta
        units go from the root to its nearest such deficit (lowest node index
        on ties).  With D the largest distance among those targets, every
        potential is lowered by min(dist, D).  Optimality: min(dist, D) grows
        by at most an arc's weight along it, so no nonnegative reduced cost
        turns negative; every node of a chosen path lies at distance <= D, so
        each arc on it ends at reduced cost exactly 0.  The trees share no
        node, so the paths share no edge and all of them ship at once: each
        shipped step's reverse has reduced cost 0 and, by convexity, the next
        step the same way is no cheaper.  With one root this is plain
        successive shortest paths.
        """
        sources = (self.excess >= delta).nonzero()[0]
        sinks = (self.excess <= -delta).nonzero()[0]
        if not sources.size or not sinks.size:
            return False
        weights = self.graph.data
        # reduced increments are nonnegative up to rounding residue (and, during
        # a warm-start repair, below 0 on edges still waiting); clamping keeps
        # the search label-setting
        np.maximum(self._reduced(), 0.0, out=weights)
        dist, pred, root = dijkstra(
            self.graph, directed=True, indices=sources, return_predecessors=True,
            min_only=True,
        )
        self.stats.searches += 1
        self.stats.dijkstra_pops += int(np.count_nonzero(np.isfinite(dist)))
        targets = sinks[np.isfinite(dist[sinks])]
        if not targets.size:
            return False
        if targets.size > 1:
            # nearest deficit of each tree; lexsort is stable and sinks
            # ascend, so equal distances keep the lowest node index first
            targets = targets[np.lexsort((dist[targets], root[targets]))]
            trees = root[targets]
            first = np.ones(trees.size, dtype=bool)
            np.not_equal(trees[1:], trees[:-1], out=first[1:])
            targets = targets[first]
        reach = dist[targets].max()
        self.pi -= np.minimum(dist, reach)

        # each path's arcs, target back to root, one contiguous run per path
        n, pred = self.n_nodes, pred.tolist()
        keys, starts = [], []
        for v in targets.tolist():
            starts.append(len(keys))
            u = pred[v]
            while u >= 0:
                keys.append(u * n + v)
                v, u = u, pred[u]
        keys = np.array(keys)
        pos = np.searchsorted(self.arc_keys, keys)
        if self.parallel:
            end = np.searchsorted(self.arc_keys, keys, side="right")
            for k in np.flatnonzero(end - pos > 1):
                # parallel residual arcs: the search used the cheapest one
                pos[k] += int(weights[pos[k] : end[k]].argmin())
        e, fwd = self.arc_edge[pos], self.arc_fwd[pos]
        self.z[e] += np.where(fwd, delta, -delta)
        self.excess[root[targets]] -= delta
        self.excess[targets] += delta
        costs = self._refresh(e)
        # each edge's cost before the step sits one step back: z - delta
        # after a forward step, z + delta after a backward one
        true_costs = np.add.reduceat(costs[1] - np.where(fwd, costs[0], costs[2]), starts)
        self.stats.shipments += targets.size
        self.stats.units += delta * targets.size
        self.stats.path_costs.add(true_costs.tolist())
        return True

    def finalize(self) -> tuple[Flow, float]:
        """Return the flow and its cost after checking the optimality certificate."""
        cost = self.costs.total(self.z)
        self._at_step(1)
        red = self._reduced()
        worst = min(0.0, float(red[np.isfinite(red)].min(initial=0.0)))
        self.stats.min_reduced_cost = worst
        if worst < -1e-9 * self.scale:
            raise RuntimeError(
                f"optimality certificate failed: min reduced cost {worst!r} below "
                f"-1e-9 * {self.scale!r}"
            )
        flow = Flow(values=self.z, duals=self.pi)
        arcs = tuple(getattr(self, a) for a in _ARCS)
        flow._basis.append((self.network, arcs, self.bound, self.inc))
        return flow, cost


def _infeasible_detail(state: _ResidualState) -> str:
    stuck = np.flatnonzero(state.excess > 0)
    return "no residual path can carry remaining supply from " + ", ".join(
        _node_label(state.network, int(v)) for v in stuck[:8]
    )


def _solve(
    network: FlowNetwork, start: Optional[Flow], method: str, max_block: float
) -> tuple[Flow, float, SolveStats]:
    """Phases at halving block sizes, from the largest power of two at most
    min(max_block, top) down to 1: top is the top excess of a cold solve and
    the largest edge range (capacity - lower) of a warm one."""
    if not max_block >= 1:
        raise ValueError("max_block must be at least 1")
    t0 = time.perf_counter()
    stats = SolveStats(method=method)
    state = _ResidualState(network, stats, start)
    top = state.excess if start is None else state.cap - state.lower
    top = max(1, int(min(max_block, top.max(initial=0))))
    delta = 1 << (top.bit_length() - 1)
    while delta >= 1:
        stats.phases.append(delta)
        state.phase(delta)
        delta //= 2
    if (state.excess > 0).any():
        raise InfeasibleError(_infeasible_detail(state))
    flow, cost = state.finalize()
    stats.wall_time = time.perf_counter() - t0
    return flow, cost, stats


def solve_ssp(
    network: FlowNetwork, start: Optional[Flow] = None, max_block: int = 1
) -> tuple[Flow, float, SolveStats]:
    """Exact min-cost flow by augmentations along shortest residual paths.

    Requires every edge cost to be discrete convex.  Deterministic: reruns
    are bit-identical.  Each search augments one path per tree of its
    shortest-path forest, one tree per node with excess.  Among equally
    short paths the one csgraph's Dijkstra settles (its heap order) is
    taken, and among equally near deficits the lowest node index.

    Without start the flow begins at the lower bounds with potentials from
    label-correcting sweeps.  start is a feasible flow on this network (values within
    the bounds, conservation equal to supplies) with finite duals, one per
    node, such as the Flow a solver returned for a network differing only in
    edge costs; otherwise ValueError.  From a start at the default cap the
    solve is one unit phase (_ResidualState.phase), so only the units that
    its negative edges push and the new optimum needs move.  A start that
    carries its solve's basis reuses its arcs and costs (Flow).
    The returned Flow carries the final potentials as duals.

    max_block caps the block size a solve starts at: with the default 1 it
    is plain successive shortest paths, one unit per path; a larger cap
    runs capacity scaling's phases from the largest power of two at most
    min(max_block, top) down to 1, top the top excess of a cold solve and
    the largest edge range (capacity - lower) of a warm one.  Cold, that
    ships populations of many units per state in far fewer searches; warm,
    it moves a start far from the new optimum in blocks.  The last phase
    is always the unit phase, so every cap reaches the same optimal cost
    (flows may differ on ties).
    """
    return _solve(network, start, "ssp", max_block)


def solve_capacity_scaling(
    network: FlowNetwork, start: Optional[Flow] = None
) -> tuple[Flow, float, SolveStats]:
    """Exact min-cost flow shipping geometrically shrinking blocks.

    Phases run at block sizes delta halving from the largest power of two
    at most the top excess down to 1: solve_ssp with no cap on the block.
    Each re-establishes delta-step optimality with pushes, then ships blocks
    between large excesses and deficits, one block per tree of each search's
    forest.  The final unit phase guarantees exactness, so the result
    matches solve_ssp's cost (flows may differ on ties).  start is checked
    as in solve_ssp; a feasible start holds no excess, so a warm solve is
    the unit phase only and equals solve_ssp's from the same start at its
    default cap of 1.
    """
    return _solve(network, start, "cs", INF if start is None else 1)


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
    for tail, head, cap in zip(network.tails, network.heads, network.capacity):
        lines.append(
            f'  "{_node_label(network, int(tail))}" -> "{_node_label(network, int(head))}"'
            f' [label="cap {int(cap)}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def network_to_json(network: FlowNetwork) -> dict:
    """Nodes, supplies and edges; each edge's cost is its parameter record."""
    net = network
    kinds = ("none", "gaussian", "poisson")
    return {
        "n_nodes": net.n_nodes,
        "nodes": [_node_label(net, v) for v in range(net.n_nodes)],
        "supplies": net.supplies.tolist(),
        "edges": [
            {
                "tail": _node_label(net, int(net.tails[e])),
                "head": _node_label(net, int(net.heads[e])),
                "capacity": int(net.capacity[e]),
                "cost": {
                    "lf": float(net.lf[e]),
                    "slope": float(net.slope[e]),
                    "offset": float(net.offset[e]),
                    "obs_kind": kinds[net.obs_kind[e]],
                    "obs_y": float(net.obs_y[e]),
                    "obs_var": float(net.obs_var[e]),
                },
            }
            for e in range(net.n_edges)
        ],
    }
