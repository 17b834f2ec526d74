"""Correctness references that do not trust the program's own LP path.

Each TE or FFC LP is rebuilt here from what the program printed or wrote (the
demands and the tunnel node paths) plus the topology file, and solved with
HiGHS through scipy.  Capacity calibration is checked against the exact
min-max-utilization LP on the same tunnels.  ``refs.json`` adds the values
recorded for the seeds the benchmark ships (see ``make_refs.py``).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

OBJECTIVE_RTOL = 1e-6
FACTOR_RTOL = 1e-3
REFS_PATH = Path(__file__).with_name("refs.json")


class Network:
    """Arcs of a topology document: two per link, in link order, as telab numbers them."""

    def __init__(self, topo_doc: dict):
        self.arc_of: dict[tuple[str, str], int] = {}
        caps = []
        for link in topo_doc["links"]:
            for u, v in ((link["src"], link["dst"]), (link["dst"], link["src"])):
                self.arc_of[(u, v)] = len(caps)
                caps.append(float(link["capacity"]))
        self.caps = np.array(caps)
        self.n_links = len(topo_doc["links"])

    def tunnels(self, paths_by_demand: list) -> tuple[np.ndarray, sp.csr_matrix]:
        """Demand of each tunnel, and the arc x tunnel 0/1 incidence."""
        demand_of, arc_rows, tunnel_cols = [], [], []
        for f, paths in enumerate(paths_by_demand):
            for path in paths:
                t = len(demand_of)
                demand_of.append(f)
                for u, v in zip(path, path[1:]):
                    arc_rows.append(self.arc_of[(u, v)])
                    tunnel_cols.append(t)
        incidence = sp.csr_matrix(
            (np.ones(len(arc_rows)), (arc_rows, tunnel_cols)),
            shape=(len(self.caps), len(demand_of)))
        return np.array(demand_of, dtype=int), incidence


def _linprog(*args, **kwargs):
    # Imported on first use: telab imports scipy.optimize lazily on its first
    # HiGHS solve, and a timed command must still pay that as a user does.
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def max_delivery(net: Network, volumes, paths_by_demand, ffc: bool) -> float:
    """Optimal total delivered flow of the TE (or FFC) LP on the given tunnels."""
    volumes = np.asarray(volumes, dtype=float)
    n_f = volumes.size
    demand_of, cap_rows = net.tunnels(paths_by_demand)
    n_t = demand_of.size
    # alive[t, s]: tunnel t survives scenario s (s = 0 normal, s = 1 + link down).
    alive = np.ones((n_t, 1 + (net.n_links if ffc else 0)), dtype=bool)
    if ffc:
        hops = cap_rows.tocoo()
        alive[hops.col, 1 + hops.row // 2] = False  # arcs 2l and 2l+1 are link l
    t_idx, s_idx = np.nonzero(alive)
    n_s = alive.shape[1]
    deliver = sp.hstack([
        sp.csr_matrix((-np.ones(t_idx.size), (s_idx * n_f + demand_of[t_idx], t_idx)),
                      shape=(n_s * n_f, n_t)),
        sp.vstack([sp.identity(n_f)] * n_s),
    ])
    a_ub = sp.vstack([sp.hstack([cap_rows, sp.csr_matrix((len(net.caps), n_f))]), deliver])
    b_ub = np.concatenate([net.caps, np.zeros(n_s * n_f)])
    routable = np.bincount(demand_of, minlength=n_f) > 0
    bounds = np.column_stack([
        np.zeros(n_t + n_f),
        np.concatenate([np.full(n_t, np.inf), np.where(routable, volumes, 0.0)]),
    ])
    c = np.concatenate([np.zeros(n_t), -np.ones(n_f)])
    res = _linprog(c, A_ub=a_ub.tocsr(), b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP not solved: {res.message}")
    return float(-res.fun)


def min_capacity_factor(net: Network, volumes, paths_by_demand) -> float:
    """Smallest uniform capacity factor at which all routable demand fits."""
    volumes = np.asarray(volumes, dtype=float)
    demand_of, cap_rows = net.tunnels(paths_by_demand)
    n_t = demand_of.size
    routable = np.flatnonzero(np.bincount(demand_of, minlength=volumes.size) > 0)
    position = np.full(volumes.size, -1)
    position[routable] = np.arange(routable.size)
    cover = sp.csr_matrix((-np.ones(n_t), (position[demand_of], np.arange(n_t))),
                          shape=(routable.size, n_t))
    a_ub = sp.vstack([
        sp.hstack([cap_rows, sp.csr_matrix(-net.caps[:, None])]),
        sp.hstack([cover, sp.csr_matrix((routable.size, 1))]),
    ]).tocsr()
    b_ub = np.concatenate([np.zeros(len(net.caps)), -volumes[routable]])
    c = np.zeros(n_t + 1)
    c[-1] = 1.0
    res = _linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP not solved: {res.message}")
    return float(res.fun)


def objective_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= OBJECTIVE_RTOL * max(1.0, abs(reference))


def factor_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= FACTOR_RTOL * max(abs(value), abs(reference))


def shipped(workload: str, seed: int) -> dict | None:
    """Reference values recorded for this workload and seed, if the benchmark ships them."""
    refs = json.loads(REFS_PATH.read_text()) if REFS_PATH.exists() else {}
    return refs.get(workload, {}).get(str(seed))


def point_key(model: str, policy: str, scale) -> str:
    return f"{model} {policy} {float(scale)!r}"
