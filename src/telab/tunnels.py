"""Tunnel precomputation, tunnel-count policies, and failure scenarios.

Tunnels are loopless paths enumerated with Yen's algorithm in nondecreasing
cost order, ties broken by lexicographic comparison of node-index sequences,
so LP column sets are reproducible run to run.  Tunnels are computed once on
the intact graph.  Per-scenario availability is the product of a tunnel set's
tunnel x arc incidence and a scenario set's dead arcs: a tunnel survives when
none of its arcs failed (both directions of a link die together).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .demands import TrafficMatrix
from .errors import ValidationError
from .topology import Topology


@dataclass(frozen=True)
class Tunnel:
    id: int
    demand_id: int
    nodes: tuple[int, ...]
    arcs: tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class TunnelSet:
    policy: str
    tunnels: tuple[Tunnel, ...]
    by_demand: tuple[tuple[int, ...], ...]  # global tunnel ids per demand id
    unroutable: tuple[int, ...]  # demand ids with no path at all
    incidence: sp.csr_matrix = field(compare=False, repr=False)  # tunnel x arc, 0/1

    @property
    def total(self) -> int:
        return len(self.tunnels)


@dataclass(frozen=True)
class Scenario:
    id: int
    dead_pair: int | None  # undirected pair id, None for the normal state
    dead_arcs: frozenset[int]


@dataclass(frozen=True)
class ScenarioSet:
    scenarios: tuple[Scenario, ...]
    dead: sp.csr_matrix = field(compare=False, repr=False)  # scenario x arc, 0/1

    @property
    def n(self) -> int:
        return len(self.scenarios)


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


def _dijkstra(adjacency, s: int, t: int, banned_nodes, banned_arcs):
    """Min (cost, node-sequence) path from s to t, or None if unreachable.

    Heap entries carry the full node tuple so equal-cost paths pop in
    lexicographic order; with positive weights the first settled label per
    node is the (cost, lex) minimum.
    """
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (s,))]
    settled: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == t:
            return cost, path
        for v, w in adjacency[u]:
            if v in settled or v in banned_nodes or (u, v) in banned_arcs:
                continue
            heapq.heappush(heap, (cost + w, path + (v,)))
    return None


def k_shortest_paths(topo: Topology, s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """Up to k loopless s->t paths ordered by (cost, node sequence).

    Cost is the sum of arc weights.  Returns fewer than k paths when the
    graph admits fewer distinct simple paths, and an empty list for a
    disconnected pair.  The lexicographic tie-break is exact for strictly
    positive weights.
    """
    if s == t:
        raise ValidationError("source and destination must differ")
    if k < 1:
        raise ValidationError("k must be >= 1")
    adjacency = topo.adjacency
    weight = {(a.src, a.dst): a.weight for a in topo.arcs}

    first = _dijkstra(adjacency, s, t, frozenset(), frozenset())
    if first is None:
        return []
    accepted: list[tuple[float, tuple[int, ...]]] = [first]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    queued: set[tuple[int, ...]] = {first[1]}

    while len(accepted) < k:
        _, prev = accepted[-1]
        root_cost = 0.0
        for j in range(len(prev) - 1):
            spur = prev[j]
            root = prev[: j + 1]
            banned_arcs = {
                (p[j], p[j + 1])
                for _, p in accepted
                if len(p) > j + 1 and p[: j + 1] == root
            }
            banned_nodes = set(root[:-1])
            res = _dijkstra(adjacency, spur, t, banned_nodes, banned_arcs)
            if res is not None:
                spur_cost, spur_path = res
                full = root[:-1] + spur_path
                if full not in queued:
                    queued.add(full)
                    heapq.heappush(candidates, (root_cost + spur_cost, full))
            root_cost += weight[(prev[j], prev[j + 1])]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [p for _, p in accepted]


class KspCache:
    """Memoizes per-pair shortest path lists across policies and sweep points.

    Safe because the enumeration is deterministic: the first k paths of a
    longer run equal the result of a shorter run.
    """

    def __init__(self, topo: Topology):
        self._topo = topo
        self._paths: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._exhausted: set[tuple[int, int]] = set()

    def get(self, s: int, t: int, k: int) -> list[tuple[int, ...]]:
        have = self._paths.get((s, t))
        if have is not None and (len(have) >= k or (s, t) in self._exhausted):
            return have[:k]
        paths = k_shortest_paths(self._topo, s, t, k)
        self._paths[(s, t)] = paths
        if len(paths) < k:
            self._exhausted.add((s, t))
        return paths


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
    tunnels: list[Tunnel] = []
    by_demand: list[tuple[int, ...]] = []
    for f, paths in enumerate(paths_by_demand):
        ids = []
        for nodes in paths:
            try:
                arcs = tuple(arc_of[(nodes[i], nodes[i + 1])].id for i in range(len(nodes) - 1))
            except KeyError:
                path = [topo.node_ids[n] for n in nodes]
                raise ValidationError(
                    f"tunnel path {path!r} uses an arc missing from the topology") from None
            cost = sum(topo.arcs[a].weight for a in arcs)
            ids.append(len(tunnels))
            tunnels.append(Tunnel(ids[-1], f, tuple(nodes), arcs, cost))
        by_demand.append(tuple(ids))
    indices = np.array([a for t in tunnels for a in t.arcs], dtype=np.int64)
    incidence = sp.csr_matrix((np.ones(len(indices)), indices, np.cumsum(
        [0] + [len(t.arcs) for t in tunnels])), shape=(len(tunnels), topo.n_arcs))
    unroutable = tuple(f for f, ids in enumerate(by_demand) if not ids)
    return TunnelSet(policy, tuple(tunnels), tuple(by_demand), unroutable, incidence)


def build_tunnel_sets(
    topo: Topology,
    tm: TrafficMatrix,
    policy: TunnelPolicy,
    cache: KspCache | None = None,
) -> TunnelSet:
    """Precompute ordered tunnel lists for every demand under a policy.

    Demands with no path at all get an empty list and are reported in
    ``unroutable``; downstream models force their delivered flow to zero.
    """
    if cache is None:
        cache = KspCache(topo)
    counts = tunnel_counts(policy, tm)
    return make_tunnel_set(
        topo, policy.label, [cache.get(d.src, d.dst, counts[d.id]) for d in tm.demands])


def enumerate_single_link_scenarios(topo: Topology) -> ScenarioSet:
    """Normal state plus one scenario per undirected link (both arcs dead)."""
    scenarios = [Scenario(0, None, frozenset())]
    for pair in range(topo.n_links):
        dead = frozenset(a.id for a in topo.arcs if a.pair_id == pair)
        scenarios.append(Scenario(len(scenarios), pair, dead))
    rows = [sc.id for sc in scenarios for _ in sc.dead_arcs]
    cols = [a for sc in scenarios for a in sorted(sc.dead_arcs)]
    dead = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(scenarios), topo.n_arcs))
    return ScenarioSet(tuple(scenarios), dead)


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
            "tunnels": [[topo.node_ids[n] for n in ts.tunnels[t].nodes] for t in ts.by_demand[d.id]],
        }
        for d in tm.demands
    ]
