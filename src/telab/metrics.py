"""Performance metrics for TE solutions, including link criticality.

The criticality score of an arc accumulates, over all demands with positive
admitted flow, the demand's share of delivered traffic whenever that arc is
the most utilized arc among the demand's flow-carrying tunnels.  Arcs within
``FLOW_EPS`` of the largest utilization tie, and a tie goes to the smallest
arc id, so round-off in the solution does not pick the arc.  Arcs with high
scores are the bottlenecks of the solution.  Network criticality divides each
positive score by the arc's utilization and sums: more satisfied demand or
lower link stress both raise it, so falling values signal congestion.

Ratios are computed on directed arcs.  The overprovisioning ratio is the
rate reservation beyond admitted flow over total demand, which is zero for a
base TE solution that satisfies everything.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demands import TrafficMatrix
from .errors import ValidationError
from .lpcore import FLOW_EPS
from .temodels import TeSolution
from .topology import Topology
from .tunnels import TunnelSet

# Scalar columns in serialization order (arrays are JSON-only).
METRIC_COLUMNS = [
    "solver_time",
    "mean_utility",
    "overprovisioning_ratio",
    "unmet_flow_ratio",
    "unmet_demands_ratio",
    "used_tunnel_ratio",
    "critical_link_fraction",
    "network_criticality",
]


@dataclass(frozen=True)
class MetricsReport:
    solver_time: float
    mean_utility: float
    overprovisioning_ratio: float
    unmet_flow_ratio: float
    unmet_demands_ratio: float
    used_tunnel_ratio: float
    link_utilizations: np.ndarray
    criticality_scores: np.ndarray
    critical_link_fraction: float
    network_criticality: float

    def to_json_dict(self) -> dict:
        doc = {col: float(getattr(self, col)) for col in METRIC_COLUMNS}
        doc["link_utilizations"] = [float(u) for u in self.link_utilizations]
        doc["criticality_scores"] = [float(s) for s in self.criticality_scores]
        return doc


def link_utilization(sol: TeSolution, topo: Topology) -> np.ndarray:
    """Normal-state load over capacity, per arc."""
    return sol.arc_loads / topo.capacities()


def criticality_scores(sol: TeSolution, ts: TunnelSet, utilization: np.ndarray) -> np.ndarray:
    """Per-arc bottleneck scores from the realized flow paths.

    Candidate arcs for a demand are the arcs of its flow-carrying tunnels
    only; unused precomputed tunnels contribute no load and are ignored.
    """
    scores = np.zeros(len(utilization))
    used = np.flatnonzero(sol.tunnel_rates > FLOW_EPS)
    carried = ts.incidence[used].tocoo()  # (used tunnel, arc) pairs
    demand, arc = ts.demand_of[used][carried.row], carried.col
    top = np.full(len(ts.by_demand), -np.inf)
    np.maximum.at(top, demand, utilization[arc])
    # The smallest arc id within FLOW_EPS of the most utilized arc.
    near = utilization[arc] >= top[demand] - FLOW_EPS
    best = np.full(len(ts.by_demand), len(utilization))
    np.minimum.at(best, demand[near], arc[near])
    scored = (sol.delivered > FLOW_EPS) & np.isfinite(top)
    np.add.at(scores, best[scored], sol.delivered[scored] / len(ts.by_demand))
    return scores


def network_criticality(scores: np.ndarray, utilization: np.ndarray) -> float:
    """Sum of score over utilization across scored arcs.

    A positive score implies positive utilization: the scored arc carries at
    least one flow-carrying tunnel.
    """
    mask = scores > 0
    if not mask.any():
        return 0.0
    if np.any(utilization[mask] <= 0):
        raise ValidationError("scored arc with zero utilization: inconsistent solution")
    return float((scores[mask] / utilization[mask]).sum())


def critical_link_fraction(scores: np.ndarray, topo: Topology) -> float:
    """Fraction of arcs carrying a positive criticality score."""
    if topo.n_arcs == 0:
        return 0.0
    return float((scores > 0).sum()) / topo.n_arcs


def compute_metrics(
    sol: TeSolution,
    tm: TrafficMatrix,
    ts: TunnelSet,
    topo: Topology,
) -> MetricsReport:
    total_demand = tm.total_volume
    total_delivered = float(sol.delivered.sum())
    total_rates = float(sol.tunnel_rates.sum())

    utilization = link_utilization(sol, topo)
    mean_utility = float(utilization.mean()) if topo.n_arcs else 0.0

    if total_demand > 0:
        overprovisioning = max(0.0, total_rates - total_delivered) / total_demand
        unmet_flow = max(0.0, total_demand - total_delivered) / total_demand
    else:
        overprovisioning = 0.0
        unmet_flow = 0.0

    if tm.n > 0:
        volumes = tm.volumes()
        short = sol.delivered < volumes - FLOW_EPS * np.maximum(1.0, volumes)
        unmet_demands = float(short.sum()) / tm.n
    else:
        unmet_demands = 0.0

    if ts.total > 0:
        used = int((sol.tunnel_rates > FLOW_EPS).sum())
        used_tunnel = used / ts.total
    else:
        used_tunnel = 0.0

    scores = criticality_scores(sol, ts, utilization)
    return MetricsReport(
        solver_time=sol.solve_time,
        mean_utility=mean_utility,
        overprovisioning_ratio=overprovisioning,
        unmet_flow_ratio=unmet_flow,
        unmet_demands_ratio=unmet_demands,
        used_tunnel_ratio=used_tunnel,
        link_utilizations=utilization,
        criticality_scores=scores,
        critical_link_fraction=critical_link_fraction(scores, topo),
        network_criticality=network_criticality(scores, utilization),
    )
