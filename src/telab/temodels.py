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
from .demands import TrafficMatrix, _demands_from_rows
from .errors import SolveError, ValidationError
from .lpcore import FEASIBILITY_TOL, LpProblem, LpSolution, NameRule
from .topology import Topology
from .tunnels import ScenarioSet, TunnelSet, make_tunnel_set, surviving_tunnels

CAPACITY_MODE_ALL = "all"
CAPACITY_MODE_NORMAL_ONLY = "normal_only"


@dataclass(frozen=True)
class ModelMeta:
    kind: str  # "te" | "ffc"
    policy: str
    capacity_mode: str | None
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
    names = ([f"a_{f}_{tid}" for tid, f in enumerate(ts.demand_of.tolist())]
             + [f"b_{d.id}" for d in tm.demands])
    volumes = [d.volume if ts.by_demand[d.id] else 0.0 for d in tm.demands]
    prob.add_vars(names, np.zeros(len(names)), np.r_[np.full(ts.total, math.inf), volumes])
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
    ends = np.searchsorted(ts.demand_of, np.arange(1, n_demands + 1))  # past each demand's tunnels
    members = sp.csr_matrix((np.ones(ts.total), np.arange(ts.total), np.r_[0, ends]),
                            shape=(n_demands, ts.total))
    own = sp.hstack([members, -sp.identity(n_demands, format="csr")], format="csr")
    return arcs, own


def _scenario_rows(template: sp.csr_matrix, alive: np.ndarray,
                   live_rows: np.ndarray) -> sp.csr_matrix:
    """The template's rows for every scenario q in turn, those where
    ``live_rows[q]`` holds, each without the tunnels dead in q, as one CSR.

    ``alive`` is scenario x tunnel.  The template's tunnel columns come first;
    a column past them (a delivered flow) never dies.  One scenario x entry
    mask selects the kept entries of every scenario at once.
    """
    lengths = np.diff(template.indptr)
    keep = np.repeat(live_rows, lengths, axis=1)
    tunnel = template.indices < alive.shape[1]
    keep[:, tunnel] &= alive[:len(live_rows), template.indices[tunnel]]
    # Kept entries per row.  Without a dtype, reduceat sums bools as a logical
    # or; it cannot start a segment at an empty row; int32 counts keep this
    # per-row array small, and cumsum widens them.
    filled = lengths > 0
    counts = np.zeros(live_rows.shape, np.int32)
    counts[:, filled] = np.add.reduceat(keep, template.indptr[:-1][filled], axis=1,
                                        dtype=np.int32)
    indptr = np.concatenate([[0], np.cumsum(counts[live_rows])])
    indices = np.broadcast_to(template.indices, keep.shape)[keep]
    data = np.broadcast_to(template.data, keep.shape)[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, template.shape[1]))


def _implied_delivery(demand_of: np.ndarray, alive: np.ndarray, n_dem: int) -> np.ndarray:
    """Scenario x demand: the delivery row is implied by another of the same demand.

    Row (f, q) asks the tunnels of f surviving q to carry b_f, so a scenario
    that leaves f a subset of them implies it.  Marked: every row with a
    strictly smaller surviving set elsewhere, and every later repeat of a set.
    Over f's tunnels, q' leaves a subset of what q leaves exactly when q'
    kills a superset; two nonempty killed sets can only nest when they share a
    tunnel, so all candidate pairs are nonzeros of K @ K.T, where K is the
    sparse (scenario, demand) x tunnel matrix of killed tunnels.
    ``demand_of`` gives each tunnel's demand, ``alive`` is scenario x tunnel.
    """
    n_scen, n_tun = alive.shape
    q, k = np.nonzero(~alive)
    row = q * n_dem + demand_of[k]  # delivery row index, in build order
    killed = sp.csr_matrix((np.ones(len(k)), (row, k)), shape=(n_scen * n_dem, n_tun))
    size = np.bincount(row, minlength=n_scen * n_dem)
    shared = (killed @ killed.T).tocoo()  # same demand only: a tunnel has one demand
    i, j = shared.row, shared.col
    inside = shared.data == size[i]  # killed(i) is a subset of killed(j)
    implied = np.zeros(n_scen * n_dem, dtype=bool)
    implied[i[inside & ((size[j] > size[i]) | ((size[j] == size[i]) & (j < i)))]] = True
    # A row whose scenario kills none of the demand's tunnels repeats the
    # normal-state row, which is implied as soon as some scenario kills one.
    hit = np.zeros(n_dem, dtype=bool)
    hit[demand_of[k]] = True
    untouched = (size == 0).reshape(n_scen, n_dem)
    untouched[0] &= hit
    return implied.reshape(n_scen, n_dem) | untouched


def build_te_lp(topo: Topology, tm: TrafficMatrix, ts: TunnelSet) -> TeModel:
    """Base model: one capacity row per arc, one delivery row per demand."""
    prob = _base_problem(topo, tm, ts, "te")
    arcs, own = _row_templates(ts)
    prob.add_rows(arcs, "<=", topo.capacities(), NameRule("cap_e{1}", (1, topo.n_arcs)))
    prob.add_rows(own, ">=", np.zeros(tm.n), NameRule("del_f{1}", (1, tm.n)))
    meta = ModelMeta("te", ts.policy, None, prob.n_vars, prob.n_constraints)
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
    prob.add_rows(load, "<=", np.zeros(topo.n_arcs), NameRule("cap_e{1}", (1, topo.n_arcs)))
    prob.add_rows(own, ">=", np.zeros(tm.n), NameRule("del_f{1}", (1, tm.n)))
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
    prob.simplex = "primal"  # starts at the feasible x = 0; TE stays faster on the dual
    arcs, own = _row_templates(ts)
    alive = surviving_tunnels(ts, scen)
    implied = _implied_delivery(ts.demand_of, alive, tm.n)

    # Rows in scenario order: the alive arcs' capacity rows, then every
    # demand's delivery row, each over the scenario's surviving tunnels.
    n_cap = scen.n if capacity_mode == CAPACITY_MODE_ALL else 1
    live_arcs = scen.dead[:n_cap].toarray() == 0
    cells = np.flatnonzero(live_arcs)  # q * n_arcs + e of each capacity row
    prob.add_rows(_scenario_rows(arcs, alive, live_arcs), "<=",
                  topo.capacities()[cells % topo.n_arcs],
                  NameRule("cap_q{0}_e{1}", live_arcs.shape, cells),
                  implied=cells >= topo.n_arcs)  # every row with q > 0
    prob.add_rows(_scenario_rows(own, alive, np.broadcast_to(True, (scen.n, tm.n))), ">=",
                  np.zeros(scen.n * tm.n), NameRule("del_f{1}_q{0}", (scen.n, tm.n)),
                  implied=implied.reshape(-1))

    meta = ModelMeta("ffc", ts.policy, capacity_mode, prob.n_vars, prob.n_constraints)
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
    return TeSolution(delivered, rates, loads, lp_sol.solve_time)


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
    Both checks allow the LP re-check's ``FEASIBILITY_TOL``, which the unit
    coefficients of these rows leave unscaled.
    """
    # Evaluate the normal-state rows at the solution with the scenario's dead
    # tunnels zeroed, one scenario at a time: arc rows give loads, delivery
    # rows minus the shortfalls.
    arcs, own = _row_templates(ts)
    alive = surviving_tunnels(ts, scen)
    dead_arcs = scen.dead.toarray() != 0
    caps = topo.capacities()
    violations = []
    for q in range(scen.n):
        x = np.concatenate([np.where(alive[q], sol.tunnel_rates, 0.0), sol.delivered])
        excess = arcs @ x - caps
        excess[dead_arcs[q]] = 0.0  # dead arcs carry nothing to check
        for kind, amount in (("capacity", excess), ("delivery", -(own @ x))):
            violations += [Violation(q, kind, int(i), float(amount[i]))
                           for i in np.flatnonzero(amount > FEASIBILITY_TOL)]
    return CongestionReport(not violations, tuple(violations), scen.n)


# ---------------------------------------------------------------------------
# Solution dumps
# ---------------------------------------------------------------------------


def solution_to_dict(sol: TeSolution, model: TeModel, **extra) -> dict:
    """Self-contained JSON form: flows plus the demands and tunnel paths.

    Carrying the tunnel node paths makes the dump verifiable later against
    just a topology file.
    """
    topo, tm, ts, meta = model.topo, model.tm, model.ts, model.meta
    entries = []
    for f, ids in enumerate(ts.by_demand):
        for k, tid in enumerate(ids):
            v = float(sol.tunnel_rates[tid])
            if v > 0.0:
                entries.append({"demand": f, "tunnel": k, "value": v})
    doc = {
        "model": meta.kind,
        "policy": meta.policy,
        "capacity_mode": meta.capacity_mode,
        "objective": float(sol.delivered.sum()),
        "solve_time": sol.solve_time,
        "solution_kind": "vertex",  # both backends return vertices
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


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_index(value, n: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < n


def _dump_list(doc: dict, key: str, ok, what: str) -> list:
    items = doc.get(key)
    if not isinstance(items, list) or not all(map(ok, items)):
        raise ValidationError(f"solution dump: {key!r} must be a list of {what}")
    return items


def solution_from_dict(doc: dict, topo: Topology) -> tuple[TeSolution, TunnelSet, TrafficMatrix]:
    """Rebuild flows, tunnels, and demands from a dump for verification.

    Every field is checked: a malformed dump raises ``ValidationError``, and
    an index out of range is never read as another demand's or tunnel's rate.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"solution dump must be a JSON object, got {type(doc).__name__}")
    entries = _dump_list(doc, "demands", lambda d: isinstance(d, dict), "objects")
    tunnel_paths = _dump_list(
        doc, "tunnels", lambda ps: isinstance(ps, list) and all(isinstance(p, list) for p in ps),
        "lists of node-id paths")
    b = _dump_list(doc, "b", _is_finite, "finite numbers")
    a_entries = _dump_list(doc, "a", lambda e: isinstance(e, dict), "objects")
    solve_time = doc.get("solve_time", 0.0)
    if not _is_finite(solve_time):
        raise ValidationError(f"solution dump: 'solve_time' must be a number, got {solve_time!r}")
    tm = _demands_from_rows([(d.get("src"), d.get("dst"), d.get("volume")) for d in entries],
                            topo)
    if not len(tunnel_paths) == len(b) == tm.n:
        raise ValidationError(f"solution dump: {tm.n} demands, {len(tunnel_paths)} tunnel "
                              f"lists and {len(b)} delivered flows")
    ts = make_tunnel_set(
        topo, str(doc.get("policy", "")),
        [[tuple(topo.index_of(n) for n in path) for path in paths] for paths in tunnel_paths])
    for tid, f in enumerate(ts.demand_of.tolist()):
        d, path = tm.demands[f], ts.paths[tid]
        if len(path) < 2 or (path[0], path[-1]) != (d.src, d.dst):
            raise ValidationError(f"solution dump: tunnel {tid} does not join demand {f}'s "
                                  "endpoints")
    rates = np.zeros(ts.total)
    for entry in a_entries:
        f, k, v = entry.get("demand"), entry.get("tunnel"), entry.get("value")
        if not (_is_index(f, tm.n) and _is_index(k, len(ts.by_demand[f])) and _is_finite(v)):
            raise ValidationError(f"solution dump: invalid tunnel rate {entry!r}")
        rates[ts.by_demand[f][k]] = float(v)
    delivered = np.array(b, dtype=float)
    loads = ts.incidence.T @ rates
    return TeSolution(delivered, rates, loads, float(solve_time)), ts, tm


def load_solution(path: str | Path, topo: Topology):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed solution dump: {e}") from e
    return solution_from_dict(doc, topo)
