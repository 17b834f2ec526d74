"""WAN topology model: directed arcs derived from bidirectional link declarations.

Each declared link materializes two directed arcs, so per-direction loads and
utilizations can be reported while a physical failure removes both
directions at once.  Node ids are strings in input documents and are mapped
to dense integer indices for LP column indexing.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .errors import ValidationError, is_number, json_object, list_of, require


@dataclass(frozen=True)
class Arc:
    """One directed arc, named by its position in ``Topology.arcs``."""

    src: int
    dst: int
    capacity: float
    weight: float


@dataclass(frozen=True)
class Topology:
    """Nodes, arcs and links are numbered by position: link l, the l-th
    declared link, is arcs 2l (src to dst) and 2l + 1 (back), so arc e
    belongs to link e // 2."""

    node_ids: tuple[str, ...]
    arcs: tuple[Arc, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def n_links(self) -> int:
        """Number of undirected (physical) links."""
        return len(self.arcs) // 2

    @cached_property
    def _node_index(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}

    def index_of(self, node_id: str) -> int:
        try:
            return self._node_index[node_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id read from JSON
            raise ValidationError(f"unknown node id {node_id!r}") from None

    @cached_property
    def arc_by_endpoints(self) -> dict[tuple[int, int], int]:
        """The index of the arc from tail to head, keyed by (tail, head)."""
        return {(a.src, a.dst): e for e, a in enumerate(self.arcs)}

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-node outgoing (neighbor, weight) lists, sorted by neighbor index."""
        out: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for a in self.arcs:
            out[a.src].append((a.dst, a.weight))
        return tuple(tuple(sorted(nbrs)) for nbrs in out)

    @cached_property
    def distances_to(self) -> tuple[tuple[float, ...], ...]:
        """``distances_to[t][v]``: shortest-path cost from v to t (inf if none),
        by one Dijkstra from each destination: a link's two arcs weigh the same."""
        out = []
        for t in range(self.n_nodes):
            dist = [math.inf] * self.n_nodes
            dist[t] = 0.0
            heap = [(0.0, t)]
            while heap:
                d, v = heapq.heappop(heap)
                if d > dist[v]:
                    continue
                for u, w in self.adjacency[v]:
                    if d + w < dist[u]:
                        dist[u] = d + w
                        heapq.heappush(heap, (d + w, u))
            out.append(tuple(dist))
        return tuple(out)

    @cached_property
    def paths_memo(self) -> dict[tuple[int, int], tuple[list[tuple[int, ...]], bool]]:
        """Per (s, t): the loopless paths ``k_shortest_paths`` found last, in
        order, and whether they are all there are."""
        return {}

    def capacities(self):
        import numpy as np

        return np.array([a.capacity for a in self.arcs], dtype=float)


def parse_topology(text: str) -> Topology:
    """Parse and validate a topology JSON document.

    Expected schema::

        {"nodes": [{"id": str}], "links":
         [{"src": str, "dst": str, "capacity": number, "weight": number?}]}

    Each ``links`` entry is bidirectional and becomes two directed arcs.
    ``weight`` defaults to 1.0, making shortest path equal to fewest hops.
    Other top-level keys, such as ``"name"``, are ignored so instance files
    can carry provenance metadata.
    """
    doc = json_object(text, "topology document")
    nodes = list_of(doc, "nodes", lambda e: isinstance(e, dict) and isinstance(e.get("id"), str),
                    "objects with a string 'id'")
    links = list_of(doc, "links", lambda e: isinstance(e, dict), "objects")

    index: dict[str, int] = {}
    for entry in nodes:
        nid = entry["id"]
        require(nid not in index, f"duplicate node id {nid!r}")
        index[nid] = len(index)

    arcs: list[Arc] = []
    seen_pairs: set[frozenset[int]] = set()
    for li, entry in enumerate(links):
        for key in ("src", "dst"):
            end = entry.get(key)
            require(isinstance(end, str) and end in index, f"link {li}: unknown endpoint {end!r}")
        u, v = index[entry["src"]], index[entry["dst"]]
        require(u != v, f"link {li}: self-loop on {entry['src']!r}")
        pair = frozenset((u, v))
        require(pair not in seen_pairs,
                f"link {li}: duplicate link between {entry['src']!r} and {entry['dst']!r}")
        seen_pairs.add(pair)
        cap = entry.get("capacity")
        require(is_number(cap) and cap > 0,
                f"link {li}: capacity must be a positive number, got {cap!r}")
        weight = entry.get("weight", 1.0)
        require(is_number(weight) and weight >= 0,
                f"link {li}: weight must be a nonnegative number, got {weight!r}")
        arcs += [Arc(u, v, float(cap), float(weight)), Arc(v, u, float(cap), float(weight))]

    return Topology(tuple(index), tuple(arcs))


def load_topology(path: str | Path) -> Topology:
    return parse_topology(Path(path).read_text())


def scale_capacities(topo: Topology, factor: float) -> Topology:
    """Return a copy with every arc capacity multiplied by ``factor`` (> 0);
    a product too large for a float is a ``ValidationError``."""
    require(is_number(factor) and factor > 0,
            f"capacity scale factor must be positive, got {factor!r}")
    require(is_number(max((a.capacity for a in topo.arcs), default=0.0) * float(factor)),
            f"capacity scale factor {factor!r} makes a capacity too large for a float")
    return replace(topo, arcs=tuple(replace(a, capacity=a.capacity * float(factor))
                                    for a in topo.arcs))
