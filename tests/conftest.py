import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from telab import (
    FixedTunnelPolicy,
    build_tunnel_sets,
    load_topology,
    parse_tm,
    parse_topology,
)

DATA = Path(__file__).parent.parent / "src" / "telab" / "data"


@pytest.fixture(scope="session")
def b4_topo():
    return load_topology(DATA / "b4.json")


@pytest.fixture(scope="session")
def b4_tm(b4_topo):
    return parse_tm((DATA / "b4_tm.json").read_text(), b4_topo)


@pytest.fixture(scope="session")
def diamond_topo():
    return load_topology(DATA / "diamond.json")


@pytest.fixture(scope="session")
def diamond_tm(diamond_topo):
    return parse_tm((DATA / "diamond_tm.json").read_text(), diamond_topo)


def make_topology(names, links, name="t"):
    """links: iterable of (src, dst, capacity) or (src, dst, capacity, weight)."""
    entries = []
    for link in links:
        e = {"src": link[0], "dst": link[1], "capacity": float(link[2])}
        if len(link) > 3:
            e["weight"] = float(link[3])
        entries.append(e)
    doc = {"name": name, "nodes": [{"id": n} for n in names], "links": entries}
    return parse_topology(json.dumps(doc))


def syn_topology(n):
    """The synN benchmark topology: a ring, seeded random chords up to
    int(1.6*n) links, capacities drawn from integers(200, 800), all from
    ``default_rng(0)``; unit weights."""
    rng = np.random.default_rng(0)
    links = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    while len(links) < int(1.6 * n):
        u, v = rng.choice(n, size=2, replace=False)
        links.add(tuple(sorted((int(u), int(v)))))
    ordered = sorted(links)
    caps = rng.integers(200, 800, size=len(ordered))
    names = [f"n{i}" for i in range(n)]
    return make_topology(names, [(names[u], names[v], c) for (u, v), c in zip(ordered, caps)],
                         name=f"syn{n}")


def make_tm(topo, rows):
    doc = {"demands": [{"src": s, "dst": t, "volume": float(v)} for s, t, v in rows]}
    return parse_tm(json.dumps(doc), topo)


def random_te_instance(rng, max_nodes=6, max_demands=4, max_tunnels=3):
    """A small random connected topology, TM, and tunnel set for oracle checks."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"n{i}" for i in range(n)]
    links = set()
    for i in range(1, n):  # random spanning tree keeps it connected
        j = int(rng.integers(0, i))
        links.add((min(i, j), max(i, j)))
    extra = int(rng.integers(1, n + 1))
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i != j:
            links.add((min(int(i), int(j)), max(int(i), int(j))))
    link_rows = [
        (names[a], names[b], float(rng.integers(2, 12)), float(rng.integers(1, 4)))
        for a, b in sorted(links)
    ]
    topo = make_topology(names, link_rows)
    n_dem = int(rng.integers(1, max_demands + 1))
    pairs = set()
    while len(pairs) < n_dem:
        s, t = rng.integers(0, n, 2)
        if s != t:
            pairs.add((int(s), int(t)))
    tm = make_tm(topo, [(names[s], names[t], float(rng.integers(1, 15))) for s, t in sorted(pairs)])
    k = int(rng.integers(1, max_tunnels + 1))
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(k))
    return topo, tm, ts
