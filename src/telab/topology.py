"""WAN topology model: directed arcs derived from bidirectional link declarations.

Each declared link materializes two directed arcs that share an undirected
pair id, so per-direction loads and utilizations can be reported while a
physical failure removes both directions at once.  Node ids are strings in
input documents and are mapped to dense integer indices for LP column
indexing.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import ValidationError


@dataclass(frozen=True)
class Arc:
    """One directed arc. ``pair_id`` groups the two directions of a link."""

    id: int
    src: int
    dst: int
    capacity: float
    weight: float
    pair_id: int


@dataclass(frozen=True)
class Topology:
    name: str
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
    def arc_by_endpoints(self) -> dict[tuple[int, int], Arc]:
        return {(a.src, a.dst): a for a in self.arcs}

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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def parse_topology(text: str) -> Topology:
    """Parse and validate a topology JSON document.

    Expected schema::

        {"name": str, "nodes": [{"id": str}], "links":
         [{"src": str, "dst": str, "capacity": number, "weight": number?}]}

    Each ``links`` entry is bidirectional and becomes two directed arcs with a
    shared pair id.  ``weight`` defaults to 1.0, making shortest path equal to
    fewest hops.  Unknown top-level keys are ignored so instance files can
    carry provenance metadata.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed topology document: {e}") from e
    _require(isinstance(doc, dict), "topology document must be a JSON object")
    _require(isinstance(doc.get("nodes"), list), "missing or invalid 'nodes' list")
    _require(isinstance(doc.get("links"), list), "missing or invalid 'links' list")

    node_ids: list[str] = []
    seen: set[str] = set()
    for entry in doc["nodes"]:
        _require(isinstance(entry, dict) and isinstance(entry.get("id"), str),
                 f"invalid node entry {entry!r}")
        nid = entry["id"]
        _require(nid not in seen, f"duplicate node id {nid!r}")
        seen.add(nid)
        node_ids.append(nid)
    index = {nid: i for i, nid in enumerate(node_ids)}

    arcs: list[Arc] = []
    seen_pairs: set[frozenset[int]] = set()
    for li, entry in enumerate(doc["links"]):
        _require(isinstance(entry, dict), f"invalid link entry {entry!r}")
        for key in ("src", "dst"):
            _require(entry.get(key) in index, f"link {li}: unknown endpoint {entry.get(key)!r}")
        u, v = index[entry["src"]], index[entry["dst"]]
        _require(u != v, f"link {li}: self-loop on {entry['src']!r}")
        pair = frozenset((u, v))
        _require(pair not in seen_pairs,
                 f"link {li}: duplicate link between {entry['src']!r} and {entry['dst']!r}")
        seen_pairs.add(pair)
        cap = entry.get("capacity")
        _require(isinstance(cap, (int, float)) and math.isfinite(cap) and cap > 0,
                 f"link {li}: capacity must be a positive number, got {cap!r}")
        weight = entry.get("weight", 1.0)
        _require(isinstance(weight, (int, float)) and math.isfinite(weight) and weight >= 0,
                 f"link {li}: weight must be a nonnegative number, got {weight!r}")
        arcs.append(Arc(2 * li, u, v, float(cap), float(weight), li))
        arcs.append(Arc(2 * li + 1, v, u, float(cap), float(weight), li))

    return Topology(str(doc.get("name", "")), tuple(node_ids), tuple(arcs))


def serialize_topology(topo: Topology) -> str:
    """Serialize back to the document format; round-trips through parse."""
    links = [
        {
            "src": topo.node_ids[a.src],
            "dst": topo.node_ids[a.dst],
            "capacity": a.capacity,
            "weight": a.weight,
        }
        for a in topo.arcs[::2]
    ]
    doc = {
        "name": topo.name,
        "nodes": [{"id": nid} for nid in topo.node_ids],
        "links": links,
    }
    return json.dumps(doc, indent=2)


def load_topology(path: str | Path) -> Topology:
    return parse_topology(Path(path).read_text())


def scale_capacities(topo: Topology, factor: float) -> Topology:
    """Return a copy with every arc capacity multiplied by ``factor`` (> 0)."""
    if not (isinstance(factor, (int, float)) and math.isfinite(factor) and factor > 0):
        raise ValidationError(f"capacity scale factor must be positive, got {factor!r}")
    arcs = tuple(
        Arc(a.id, a.src, a.dst, a.capacity * float(factor), a.weight, a.pair_id)
        for a in topo.arcs
    )
    return Topology(topo.name, topo.node_ids, arcs)
