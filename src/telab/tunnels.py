"""Tunnel precomputation, tunnel-count policies, and failure scenarios.

Tunnels are loopless paths enumerated with Yen's algorithm in nondecreasing
cost order, ties broken by lexicographic comparison of node-index sequences,
so LP column sets are reproducible run to run.  The tie-break is exact when
path sums are exact, as with integer weights; otherwise equal-cost paths may
come out in float-rounding order.  Spur searches are A* over the distances to
the destination, computed once per topology (``Topology.distances_to``).
Tunnels are computed once on the intact graph.  Per-scenario availability is
the product of a tunnel set's tunnel x arc incidence and a scenario set's dead
arcs: a tunnel survives when none of its arcs failed (both directions of a
link die together).
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
    by_demand: tuple[tuple[int, ...], ...]  # global tunnel ids per demand id
    unroutable: tuple[int, ...]  # demand ids with no path at all
    demand_of: np.ndarray = field(compare=False, repr=False)  # demand id per tunnel
    incidence: sp.csr_matrix = field(compare=False, repr=False)  # tunnel x arc, 0/1

    @property
    def total(self) -> int:
        return len(self.paths)


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Row 0 is the normal state, row q > 0 fails both arcs of link q - 1."""

    dead: sp.csr_matrix = field(repr=False)  # scenario x arc, 0/1

    @property
    def n(self) -> int:
        return self.dead.shape[0]


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
            return FixedTunnelPolicy(int(text.split(":", 1)[1]))
        except ValueError:
            raise ValidationError(f"invalid fixed tunnel policy {text!r}") from None
    if text == "adaptive":
        return AdaptiveTunnelPolicy()
    if text.startswith("adaptive:"):
        try:
            counts = tuple(int(c) for c in text.split(":", 1)[1].split("-"))
        except ValueError:
            raise ValidationError(f"invalid adaptive tunnel policy {text!r}") from None
        return AdaptiveTunnelPolicy(counts)
    raise ValidationError(f"unknown tunnel policy {text!r}")


def _spur_path(adjacency, to_t, root: tuple[int, ...], t: int,
               skip) -> tuple[float, tuple[int, ...]] | None:
    """Min (cost, node-sequence) path from root[-1] to t, or None if unreachable.

    The path avoids the other root nodes and leaves root[-1] by no neighbor in
    ``skip``.  A* keyed by (cost so far + distance to t, node sequence): the
    distances are a consistent heuristic, so with exact sums labels pop in
    nondecreasing key order and the first settled label per node is its
    (cost, lex) minimum.
    """
    s = root[-1]
    settled = set(root)
    heap = [(w + to_t[v], (s, v), w) for v, w in adjacency[s]
            if v not in settled and v not in skip]
    heapq.heapify(heap)
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
    disconnected pair.  Yen's algorithm with Lawler's rule (an accepted path
    spurs only from its deviation index onward) and goal-directed spur
    searches over the topology's distances to t.
    """
    if s == t:
        raise ValidationError("source and destination must differ")
    if k < 1:
        raise ValidationError("k must be >= 1")
    adjacency, to_t, arc_of = topo.adjacency, topo.distances_to[t], topo.arc_by_endpoints

    first = _spur_path(adjacency, to_t, (s,), t, ())
    if first is None:
        return []
    accepted = [first[1]]
    candidates: list[tuple[float, tuple[int, ...], int]] = []  # (cost, path, deviation index)
    queued = {first[1]}
    deviation = 0
    while len(accepted) < k:
        prev = accepted[-1]
        root_cost = 0.0
        for j in range(len(prev) - 1):
            if j >= deviation:
                root = prev[: j + 1]
                skip = {p[j + 1] for p in accepted if len(p) > j + 1 and p[: j + 1] == root}
                res = _spur_path(adjacency, to_t, root, t, skip)
                if res is not None:
                    full = root[:-1] + res[1]
                    if full not in queued:
                        queued.add(full)
                        heapq.heappush(candidates, (root_cost + res[0], full, j))
            root_cost += arc_of[(prev[j], prev[j + 1])].weight
        if not candidates:
            break
        _, path, deviation = heapq.heappop(candidates)
        accepted.append(path)
    return accepted


def _balanced_group_sizes(n: int, groups: int) -> list[int]:
    base, rem = divmod(n, groups)
    return [base + 1 if i < rem else base for i in range(groups)]


def tunnel_counts(policy: TunnelPolicy, tm: TrafficMatrix) -> list[int]:
    """Requested tunnel count per demand id under the given policy."""
    if isinstance(policy, FixedTunnelPolicy):
        return [policy.k] * tm.n
    counts = [policy.group_counts[0]] * tm.n
    positive = [d for d in tm.demands if d.volume > 0]
    positive.sort(key=lambda d: (d.volume, d.src, d.dst))
    pos = 0
    for gi, size in enumerate(_balanced_group_sizes(len(positive), len(policy.group_counts))):
        for d in positive[pos : pos + size]:
            counts[d.id] = policy.group_counts[gi]
        pos += size
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
            indices += [arc_of[hop].id for hop in zip(nodes, nodes[1:])]
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
        [k_shortest_paths(topo, d.src, d.dst, counts[d.id]) for d in tm.demands])


def enumerate_single_link_scenarios(topo: Topology) -> ScenarioSet:
    """Normal state plus one scenario per undirected link (both arcs dead)."""
    rows = [a.pair_id + 1 for a in topo.arcs]
    dead = sp.csr_matrix((np.ones(topo.n_arcs), (rows, range(topo.n_arcs))),
                         shape=(topo.n_links + 1, topo.n_arcs))
    return ScenarioSet(dead)


def surviving_tunnels(ts: TunnelSet, scen: ScenarioSet) -> np.ndarray:
    """Boolean scenario x tunnel matrix: tunnel t crosses no dead arc of scenario q."""
    return (scen.dead @ ts.incidence.T).toarray() == 0


def available_tunnels(ts: TunnelSet, scen: ScenarioSet, q: int) -> list[list[int]]:
    """Per-demand tunnel ids that survive scenario q (q=0 returns all)."""
    if not 0 <= q < scen.n:
        raise ValidationError(f"scenario id {q} out of range")
    alive = surviving_tunnels(ts, scen)[q]
    return [[tid for tid in ids if alive[tid]] for ids in ts.by_demand]


def dump_tunnels(ts: TunnelSet, tm: TrafficMatrix, topo: Topology) -> list[dict]:
    """Audit dump: one entry per demand with tunnel node-id paths."""
    return [
        {
            "demand": [topo.node_ids[d.src], topo.node_ids[d.dst]],
            "tunnels": [[topo.node_ids[n] for n in ts.paths[t]] for t in ts.by_demand[d.id]],
        }
        for d in tm.demands
    ]
