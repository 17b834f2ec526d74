"""Tunnel-based TE and congestion-free resilient (FFC) LP models.

The base model maximizes total delivered flow subject to per-arc capacity,
per-demand delivery, and demand caps.  The resilient variant keeps one shared
set of tunnel rates but requires the surviving tunnels of every single-link
failure scenario to still deliver each demand's admitted flow: protection is
proactive, rates are not recomputed after a failure, dead tunnels simply drop
their load.  A demand whose tunnels can all be severed by one failure gets
zero admitted flow.

Capacity rows can be emitted for every scenario (``all``, the literal
substitution) or only for the normal state (``normal_only``); failures only
remove load, so both modes share the same optimum, which tests assert.  The
builder marks the rows another row implies (see ``build_ffc_lp``), so both
modes also solve the same working rows, while the LP keeps every literal row.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import lpcore
from .demands import Demand, TrafficMatrix
from .errors import SolveError, ValidationError
from .lpcore import LpProblem, LpSolution
from .topology import Topology
from .tunnels import ScenarioSet, TunnelSet, make_tunnel_set, surviving_tunnels

CAPACITY_MODE_ALL = "all"
CAPACITY_MODE_NORMAL_ONLY = "normal_only"

DELIVERY_TOL = 1e-6
CAPACITY_TOL = 1e-6


@dataclass(frozen=True)
class ModelMeta:
    kind: str  # "te" | "ffc"
    policy: str
    capacity_mode: str | None
    n_scenarios: int
    n_vars: int
    n_constraints: int


@dataclass(frozen=True)
class TeModel:
    """An LP plus the variable layout and the inputs it was built from.

    Column layout: tunnel rate variables first (column = global tunnel id),
    then one delivered-flow variable per demand.
    """

    problem: LpProblem
    topo: Topology
    tm: TrafficMatrix
    ts: TunnelSet
    meta: ModelMeta


@dataclass(frozen=True)
class TeSolution:
    delivered: np.ndarray  # admitted flow per demand
    tunnel_rates: np.ndarray  # rate per global tunnel id
    arc_loads: np.ndarray  # normal-state load per arc
    solve_time: float
    solution_kind: str
    meta: ModelMeta


@dataclass(frozen=True)
class Violation:
    scenario: int
    kind: str  # "capacity" | "delivery"
    index: int  # arc id or demand id
    amount: float  # positive violation magnitude


@dataclass(frozen=True)
class CongestionReport:
    ok: bool
    violations: tuple[Violation, ...]
    scenarios_checked: int


def _base_problem(topo: Topology, tm: TrafficMatrix, ts: TunnelSet, name: str) -> LpProblem:
    prob = LpProblem(name=name)
    for tid, f in enumerate(ts.demand_of.tolist()):
        prob.add_var(f"a_{f}_{tid}", 0.0, math.inf)
    for d in tm.demands:
        ub = d.volume if ts.by_demand[d.id] else 0.0
        prob.add_var(f"b_{d.id}", 0.0, ub)
    prob.set_objective([(ts.total + d.id, 1.0) for d in tm.demands], maximize=True)
    return prob


def _row_templates(ts: TunnelSet) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Normal-state rows over all LP columns, tunnel ids ascending within a row.

    Capacity rows: one per arc, 1 on each tunnel crossing it.  Delivery rows:
    one per demand, 1 on each of its tunnels and -1 on its delivered flow.
    """
    n_demands = len(ts.by_demand)
    arcs = ts.incidence.T.tocsr()
    arcs.sort_indices()
    arcs.resize((arcs.shape[0], ts.total + n_demands))
    members = sp.csr_matrix(
        (np.ones(ts.total), np.arange(ts.total),
         np.searchsorted(ts.demand_of, np.arange(n_demands + 1))), shape=(n_demands, ts.total))
    own = sp.hstack([members, -sp.identity(n_demands)], format="csr")
    return arcs, own


def _without_columns(mat: sp.csr_matrix, dead: np.ndarray) -> sp.csr_matrix:
    """Copy of mat without its entries in dead columns; rows and their order kept."""
    keep = ~dead[mat.indices]
    indptr = np.concatenate([[0], np.cumsum(keep)])[mat.indptr]
    return sp.csr_matrix((mat.data[keep], mat.indices[keep], indptr), shape=mat.shape)


def _implied_delivery(own: sp.csr_matrix, alive: np.ndarray) -> np.ndarray:
    """Scenario x demand: the delivery row is implied by another of the same demand.

    Row (f, q) asks the tunnels of f surviving q to carry b_f, so a scenario
    that leaves f a subset of them implies it.  Marked: every row with a
    strictly smaller surviving set elsewhere, and every later repeat of a set.
    Over f's tunnels, q' leaves a subset of what q leaves exactly when q'
    kills a superset; two nonempty killed sets can only nest when they share a
    tunnel, so all candidate pairs are nonzeros of K @ K.T, where K is the
    sparse (scenario, demand) x tunnel matrix of killed tunnels.
    """
    n_scen, n_dem = alive.shape[0], own.shape[0]
    members = own[:, :alive.shape[1]].tocoo()  # demand x tunnel, one entry per tunnel
    q, k = np.nonzero(~alive[:, members.col])
    row = q * n_dem + members.row[k]  # delivery row index, in build order
    killed = sp.csr_matrix((np.ones(len(k)), (row, members.col[k])),
                           shape=(n_scen * n_dem, alive.shape[1]))
    size = np.bincount(row, minlength=n_scen * n_dem)
    shared = (killed @ killed.T).tocoo()  # same demand only: a tunnel has one demand
    i, j = shared.row, shared.col
    inside = shared.data == size[i]  # killed(i) is a subset of killed(j)
    implied = np.zeros(n_scen * n_dem, dtype=bool)
    implied[i[inside & ((size[j] > size[i]) | ((size[j] == size[i]) & (j < i)))]] = True
    # A row whose scenario kills none of the demand's tunnels repeats the
    # normal-state row, which is implied as soon as some scenario kills one.
    hit = np.zeros(n_dem, dtype=bool)
    hit[members.row[k]] = True
    untouched = (size == 0).reshape(n_scen, n_dem)
    untouched[0] &= hit
    return implied.reshape(n_scen, n_dem) | untouched


def build_te_lp(topo: Topology, tm: TrafficMatrix, ts: TunnelSet) -> TeModel:
    """Base model: one capacity row per arc, one delivery row per demand."""
    prob = _base_problem(topo, tm, ts, "te")
    arcs, own = _row_templates(ts)
    prob.add_rows(arcs, "<=", topo.capacities(), [f"cap_e{e}" for e in range(topo.n_arcs)])
    prob.add_rows(own, ">=", np.zeros(tm.n), [f"del_f{f}" for f in range(tm.n)])
    meta = ModelMeta("te", ts.policy, None, 1, prob.n_vars, prob.n_constraints)
    return TeModel(prob, topo, tm, ts, meta)


def build_calibration_lp(topo: Topology, tm: TrafficMatrix, ts: TunnelSet) -> LpProblem:
    """Min-max link utilization (minimum congestion) over the fixed tunnels.

    Minimize lam subject to arc load <= c_e * lam and TE's delivery rows, each
    delivered flow fixed to its volume (0 if unroutable): the least uniform
    capacity factor at which TE carries all routable demand.
    """
    prob = _base_problem(topo, tm, ts, "calibrate")
    prob.lower[ts.total:] = prob.upper[ts.total:]
    lam = prob.add_var("lam", 0.0, math.inf)
    arcs, own = _row_templates(ts)
    load = sp.hstack([arcs, -topo.capacities()[:, None]], format="csr")
    prob.add_rows(load, "<=", np.zeros(topo.n_arcs), [f"cap_e{e}" for e in range(topo.n_arcs)])
    prob.add_rows(own, ">=", np.zeros(tm.n), [f"del_f{f}" for f in range(tm.n)])
    prob.set_objective([(lam, 1.0)], maximize=False)
    return prob


def build_ffc_lp(
    topo: Topology,
    tm: TrafficMatrix,
    ts: TunnelSet,
    scen: ScenarioSet,
    capacity_mode: str = CAPACITY_MODE_ALL,
) -> TeModel:
    """Resilient model: delivery must hold on surviving tunnels of every scenario.

    Tunnel rates are shared across scenarios.  A demand with no surviving
    tunnel in some scenario gets its admitted flow forced to zero by the
    empty-sum delivery row.

    Rows implied by another row are marked, by construction: every capacity
    row of a failure scenario (the normal-state row of its arc has a superset
    of its tunnels and the same capacity), and every delivery row that another
    scenario's row of the same demand implies (``_implied_delivery``).  Both
    capacity modes therefore solve the same working rows.
    """
    if capacity_mode not in (CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY):
        raise ValidationError(f"unknown capacity mode {capacity_mode!r}")
    if scen.n == 0 or scen.dead[0].nnz:
        raise ValidationError("scenario set must start with the normal state")
    prob = _base_problem(topo, tm, ts, "ffc")
    arcs, own = _row_templates(ts)
    caps = topo.capacities()
    dead_arcs = scen.dead.toarray() != 0
    alive = surviving_tunnels(ts, scen)
    dead_cols = np.zeros((scen.n, prob.n_vars), dtype=bool)
    dead_cols[:, :ts.total] = ~alive
    implied = _implied_delivery(own, alive)

    n_cap = scen.n if capacity_mode == CAPACITY_MODE_ALL else 1
    for q in range(n_cap):
        live = np.flatnonzero(~dead_arcs[q])
        prob.add_rows(_without_columns(arcs[live], dead_cols[q]), "<=", caps[live],
                      [f"cap_q{q}_e{e}" for e in live], implied=np.full(len(live), q > 0))
    for q in range(scen.n):
        prob.add_rows(_without_columns(own, dead_cols[q]), ">=", np.zeros(tm.n),
                      [f"del_f{f}_q{q}" for f in range(tm.n)], implied=implied[q])

    meta = ModelMeta("ffc", ts.policy, capacity_mode, scen.n, prob.n_vars, prob.n_constraints)
    return TeModel(prob, topo, tm, ts, meta)


def extract_solution(lp_sol: LpSolution, model: TeModel) -> TeSolution:
    """Turn an optimal LP solution into structured flows with recomputed loads.

    Arc loads come from the rate variables and the tunnel arc incidence, not
    from any solver-internal row activity.
    """
    if lp_sol.status != lpcore.OPTIMAL:
        raise SolveError(f"cannot extract from status {lp_sol.status!r}: {lp_sol.message}")
    x = lp_sol.values
    n_t = model.ts.total
    rates = np.array(x[:n_t], dtype=float)
    delivered = np.array(x[n_t:], dtype=float)
    rates[np.abs(rates) < 1e-12] = 0.0
    delivered[np.abs(delivered) < 1e-12] = 0.0
    loads = model.ts.incidence.T @ rates
    return TeSolution(delivered, rates, loads, lp_sol.solve_time, lp_sol.solution_kind, model.meta)


def solve_model(model: TeModel, backend: str = "bundled") -> TeSolution:
    """Convenience: solve the LP and extract, raising on non-optimal status."""
    return extract_solution(lpcore.solve(model.problem, backend), model)


def verify_congestion_free(
    sol: TeSolution,
    ts: TunnelSet,
    scen: ScenarioSet,
    topo: Topology,
) -> CongestionReport:
    """Check no-oversubscription and delivery on every scenario's survivors.

    Violations are report content rather than exceptions: for each scenario
    the residual load (surviving tunnels only) must fit every alive arc, and
    the surviving rates of each demand must still cover its admitted flow.
    """
    # Evaluate the normal-state rows at the solution with each scenario's dead
    # tunnels zeroed: arc rows give loads, delivery rows minus the shortfalls.
    arcs, own = _row_templates(ts)
    rates = np.where(surviving_tunnels(ts, scen), sol.tunnel_rates, 0.0)
    x = np.hstack([rates, np.broadcast_to(sol.delivered, (scen.n, len(sol.delivered)))])
    excess = (arcs @ x.T).T - topo.capacities()  # scenario x arc
    excess[scen.dead.toarray() != 0] = 0.0  # dead arcs carry nothing to check
    short = -(own @ x.T).T  # scenario x demand
    checks = (("capacity", excess, CAPACITY_TOL), ("delivery", short, DELIVERY_TOL))
    violations = [Violation(q, kind, int(i), float(amount[q, i]))
                  for q in range(scen.n) for kind, amount, tol in checks
                  for i in np.flatnonzero(amount[q] > tol)]
    return CongestionReport(not violations, tuple(violations), scen.n)


# ---------------------------------------------------------------------------
# Solution dumps
# ---------------------------------------------------------------------------


def solution_to_dict(sol: TeSolution, model: TeModel, **extra) -> dict:
    """Self-contained JSON form: flows plus the demands and tunnel paths.

    Carrying the tunnel node paths makes the dump verifiable later against
    just a topology file.
    """
    topo, tm, ts = model.topo, model.tm, model.ts
    entries = []
    for f, ids in enumerate(ts.by_demand):
        for k, tid in enumerate(ids):
            v = float(sol.tunnel_rates[tid])
            if v > 0.0:
                entries.append({"demand": f, "tunnel": k, "value": v})
    doc = {
        "model": sol.meta.kind,
        "policy": sol.meta.policy,
        "capacity_mode": sol.meta.capacity_mode,
        "objective": float(sol.delivered.sum()),
        "solve_time": sol.solve_time,
        "solution_kind": sol.solution_kind,
        "demands": [
            {"src": topo.node_ids[d.src], "dst": topo.node_ids[d.dst], "volume": d.volume}
            for d in tm.demands
        ],
        "tunnels": [
            [[topo.node_ids[n] for n in ts.paths[tid]] for tid in ids]
            for ids in ts.by_demand
        ],
        "b": [float(v) for v in sol.delivered],
        "a": entries,
        "loads": [float(v) for v in sol.arc_loads],
    }
    doc.update(extra)
    return doc


def solution_from_dict(doc: dict, topo: Topology) -> tuple[TeSolution, TunnelSet, TrafficMatrix]:
    """Rebuild flows, tunnels, and demands from a dump for verification."""
    try:
        demand_entries = doc["demands"]
        tunnel_paths = doc["tunnels"]
        b = doc["b"]
        a_entries = doc["a"]
    except KeyError as e:
        raise ValidationError(f"solution dump missing key {e}") from None
    demands = tuple(
        Demand(i, topo.index_of(d["src"]), topo.index_of(d["dst"]), float(d["volume"]))
        for i, d in enumerate(demand_entries)
    )
    tm = TrafficMatrix(demands)
    ts = make_tunnel_set(
        topo, str(doc.get("policy", "")),
        [[tuple(topo.index_of(n) for n in path) for path in paths] for paths in tunnel_paths])
    rates = np.zeros(ts.total)
    for entry in a_entries:
        f, k = int(entry["demand"]), int(entry["tunnel"])
        rates[ts.by_demand[f][k]] = float(entry["value"])
    delivered = np.array([float(v) for v in b])
    if delivered.size != tm.n:
        raise ValidationError("solution dump: delivered-flow vector length mismatch")
    loads = ts.incidence.T @ rates
    meta = ModelMeta(str(doc.get("model", "")), str(doc.get("policy", "")),
                     doc.get("capacity_mode"), 0, 0, 0)
    sol = TeSolution(delivered, rates, loads, float(doc.get("solve_time", 0.0)),
                     str(doc.get("solution_kind", "")), meta)
    return sol, ts, tm


def load_solution(path: str | Path, topo: Topology):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed solution dump: {e}") from e
    return solution_from_dict(doc, topo)
