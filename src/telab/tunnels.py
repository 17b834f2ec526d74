"""Tunnel precomputation, tunnel-count policies, and failure scenarios.

Tunnels are loopless paths listed by one deviation search in nondecreasing
cost order, ties broken by lexicographic comparison of node-index sequences,
so LP column sets are reproducible run to run.  The tie-break is exact when
path sums are exact, as with integer weights; otherwise equal-cost paths may
come out in float-rounding order.  A prefix is completed, by an A* over the
distances to the destination (``Topology.distances_to``), only at the top of
the heap.  The search runs once per demand per topology, on the intact graph:
a smaller k slices the list kept in ``Topology.paths_memo``.
Per-scenario availability is the product of a tunnel set's tunnel x arc
incidence and the scenario x arc matrix of dead arcs: a tunnel survives when
none of its arcs failed (both directions of a link die together).
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .demands import TrafficMatrix
from .errors import ValidationError
from .topology import Topology


@dataclass(frozen=True)
class TunnelSet:
    """Tunnels numbered consecutively in demand order."""

    policy: str
    paths: tuple[tuple[int, ...], ...]  # node path per tunnel
    by_demand: tuple[tuple[int, ...], ...]  # global tunnel ids per demand
    unroutable: tuple[int, ...]  # demands with no path at all
    demand_of: np.ndarray = field(compare=False, repr=False)  # demand per tunnel
    incidence: sp.csr_matrix = field(compare=False, repr=False)  # tunnel x arc, 0/1

    @property
    def total(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class FixedTunnelPolicy:
    """Every demand gets up to k tunnels."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("fixed tunnel count must be >= 1")

    @property
    def label(self) -> str:
        return f"fixed:{self.k}"


@dataclass(frozen=True)
class AdaptiveTunnelPolicy:
    """More tunnels for larger demands, fewer for smaller ones.

    Positive-volume demands are sorted ascending by volume (ties by src, dst
    index) and split into ``len(group_counts)`` contiguous groups, remainder
    demands going to the earliest groups; group i gets ``group_counts[i]``
    tunnels.  Zero-volume demands get the smallest count.  Counts must be
    nondecreasing and at least 2 so that spare tunnels exist under failures.
    """

    group_counts: tuple[int, ...] = (3, 4, 5)

    def __post_init__(self):
        if not self.group_counts:
            raise ValidationError("adaptive policy needs at least one group")
        if min(self.group_counts) < 2:
            raise ValidationError("adaptive tunnel counts must be >= 2")
        if list(self.group_counts) != sorted(self.group_counts):
            raise ValidationError("adaptive tunnel counts must be nondecreasing")

    @property
    def label(self) -> str:
        return "adaptive:" + "-".join(str(c) for c in self.group_counts)


TunnelPolicy = FixedTunnelPolicy | AdaptiveTunnelPolicy


def parse_policy(text: str) -> TunnelPolicy:
    """Parse a CLI policy string: ``fixed:K`` or ``adaptive[:c1-c2-...]``."""
    text = text.strip().lower()
    if text.startswith("fixed:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"invalid fixed tunnel policy {text!r}") from None
        return FixedTunnelPolicy(k)
    if text == "adaptive":
        return AdaptiveTunnelPolicy()
    if text.startswith("adaptive:"):
        try:
            counts = tuple(int(c) for c in text.split(":", 1)[1].split("-"))
        except ValueError:
            raise ValidationError(f"invalid adaptive tunnel policy {text!r}") from None
        return AdaptiveTunnelPolicy(counts)
    raise ValidationError(f"unknown tunnel policy {text!r}")


def _complete(adjacency, to_t, prefix: tuple[int, ...], cost: float,
              t: int) -> tuple[float, tuple[int, ...]] | None:
    """The min (cost, node-sequence) path to t that starts with ``prefix``, of
    the given cost, and meets none of its nodes again; None if there is none.

    A* keyed by (cost so far + distance to t, node sequence): the distances
    are a consistent heuristic, so with exact sums labels pop in nondecreasing
    key order and the first settled label per node is its (cost, lex) minimum.
    The prefix's last node is not settled before it pops, so a prefix that
    ends at t completes to itself.
    """
    settled = set(prefix[:-1])
    heap = [(cost + to_t[prefix[-1]], prefix, cost)]
    while heap:
        _, path, cost = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        if u == t:
            return cost, path
        settled.add(u)
        for v, w in adjacency[u]:
            if v not in settled:
                g = cost + w
                heapq.heappush(heap, (g + to_t[v], path + (v,), g))
    return None


def k_shortest_paths(topo: Topology, s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """Up to k loopless s->t paths ordered by (cost, node sequence).

    Cost is the sum of arc weights.  Returns fewer than k paths when the
    graph admits fewer distinct simple paths, and an empty list for a
    disconnected pair.  A deviation search (Martins, Pascoal & Santos 1999):
    in one heap, a prefix keyed by its cost plus its last node's distance to
    t sorts before an exact path of equal cost.  A prefix at the top is
    completed once and goes back as an exact path; an exact path at the top
    is the next path, and from its deviation index on it pushes a prefix for
    every other next node off the path so far, so each path has one parent.
    The order does not depend on k: each (s, t) list is kept in
    ``topo.paths_memo`` and sliced for a smaller k.
    """
    if s == t:
        raise ValidationError("source and destination must differ")
    if k < 1:
        raise ValidationError("k must be >= 1")
    known, exhausted = topo.paths_memo.get((s, t), ([], False))
    if len(known) >= k or exhausted:
        return known[:k]
    adjacency, to_t, arc_of = topo.adjacency, topo.distances_to[t], topo.arc_by_endpoints
    paths: list[tuple[int, ...]] = []
    # (key, 0, prefix, its cost) or (cost, 1, path, its deviation index)
    heap: list[tuple[float, int, tuple[int, ...], float]] = [(to_t[s], 0, (s,), 0.0)]
    while heap and len(paths) < k:
        _, exact, nodes, aux = heapq.heappop(heap)
        if not exact:
            done = _complete(adjacency, to_t, nodes, aux, t)
            if done is not None:
                heapq.heappush(heap, (done[0], 1, done[1], len(nodes) - 1))
            continue
        paths.append(nodes)
        cost = 0.0
        for j in range(len(nodes) - 1):
            if j >= aux:
                for v, w in adjacency[nodes[j]]:
                    if v != nodes[j + 1] and v not in nodes[:j]:
                        g = cost + w
                        heapq.heappush(heap, (g + to_t[v], 0, nodes[:j + 1] + (v,), g))
            cost += topo.arcs[arc_of[(nodes[j], nodes[j + 1])]].weight
    topo.paths_memo[(s, t)] = (paths, len(paths) < k)
    return paths[:]


def tunnel_counts(policy: TunnelPolicy, tm: TrafficMatrix) -> list[int]:
    """Requested tunnel count per demand under the given policy."""
    if isinstance(policy, FixedTunnelPolicy):
        return [policy.k] * tm.n
    counts = [policy.group_counts[0]] * tm.n
    demands = tm.demands
    positive = sorted((f for f, d in enumerate(demands) if d.volume > 0),
                      key=lambda f: (demands[f].volume, demands[f].src, demands[f].dst))
    # array_split makes the first len(positive) % len(group_counts) groups one longer
    groups = np.array_split(np.arange(len(positive)), len(policy.group_counts))
    for count, group in zip(policy.group_counts, groups):
        for i in group:
            counts[positive[i]] = count
    return counts


def make_tunnel_set(topo: Topology, policy: str,
                    paths_by_demand: list[list[tuple[int, ...]]]) -> TunnelSet:
    """Number every demand's node paths as tunnels, consecutively in demand order,
    and build their tunnel x arc incidence; a path over a missing arc is invalid."""
    arc_of = topo.arc_by_endpoints
    paths = tuple(tuple(nodes) for ps in paths_by_demand for nodes in ps)
    indices: list[int] = []
    indptr = [0]
    for nodes in paths:
        try:
            indices += [arc_of[hop] for hop in zip(nodes, nodes[1:])]
        except KeyError:
            path = [topo.node_ids[n] for n in nodes]
            raise ValidationError(
                f"tunnel path {path!r} uses an arc missing from the topology") from None
        indptr.append(len(indices))
    counts = [len(ps) for ps in paths_by_demand]
    bounds = list(itertools.accumulate(counts, initial=0))
    by_demand = tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
    incidence = sp.csr_matrix((np.ones(len(indices)), np.array(indices, dtype=np.int64),
                               np.array(indptr, dtype=np.int64)), shape=(len(paths), topo.n_arcs))
    unroutable = tuple(f for f, c in enumerate(counts) if not c)
    demand_of = np.repeat(np.arange(len(counts)), counts)
    return TunnelSet(policy, paths, by_demand, unroutable, demand_of, incidence)


def build_tunnel_sets(topo: Topology, tm: TrafficMatrix, policy: TunnelPolicy) -> TunnelSet:
    """Precompute ordered tunnel lists for every demand under a policy.

    Demands with no path at all get an empty list and are reported in
    ``unroutable``; downstream models force their delivered flow to zero.
    """
    counts = tunnel_counts(policy, tm)
    return make_tunnel_set(
        topo, policy.label,
        [k_shortest_paths(topo, d.src, d.dst, k) for d, k in zip(tm.demands, counts)])


def enumerate_single_link_scenarios(topo: Topology) -> sp.csr_matrix:
    """The scenario x arc 0/1 matrix of dead arcs: row 0 is the normal state,
    row l + 1 fails link l (arcs 2l and 2l + 1)."""
    rows = [e // 2 + 1 for e in range(topo.n_arcs)]
    return sp.csr_matrix((np.ones(topo.n_arcs), (rows, range(topo.n_arcs))),
                        shape=(topo.n_links + 1, topo.n_arcs))


def surviving_tunnels(ts: TunnelSet, scen: sp.csr_matrix) -> np.ndarray:
    """Boolean scenario x tunnel matrix: tunnel t crosses no dead arc of scenario q."""
    alive = np.ones((scen.shape[0], ts.total), dtype=bool)
    alive[(scen @ ts.incidence.T).nonzero()] = False
    return alive
