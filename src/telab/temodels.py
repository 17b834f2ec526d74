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
modes also solve the same working rows, while the LP keeps every literal row
as a rule: a normal-state template and the tunnels each scenario leaves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import lpcore
from .demands import TrafficMatrix, _demands_from_rows, _demand_entries
from .errors import SolveError, ValidationError, is_index, is_number, json_object, list_of, require
from .lpcore import FEASIBILITY_TOL, LpProblem, LpSolution
from .topology import Topology
from .tunnels import TunnelSet, make_tunnel_set, surviving_tunnels

CAPACITY_MODE_ALL = "all"
CAPACITY_MODE_NORMAL_ONLY = "normal_only"

# The FFC builder refuses an LP whose arrays that grow with the scenarios
# (``_ffc_bytes``) would pass this, so an oversized instance fails cleanly.
FFC_BUILD_BUDGET_BYTES = 1 << 30


@dataclass(frozen=True)
class ModelMeta:
    kind: str  # "te" | "ffc"
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
    index: int  # arc or demand
    amount: float  # positive violation magnitude


@dataclass(frozen=True)
class CongestionReport:
    ok: bool
    violations: tuple[Violation, ...]
    scenarios_checked: int


def _base_problem(topo: Topology, tm: TrafficMatrix, ts: TunnelSet) -> LpProblem:
    prob = LpProblem()
    names = ([f"a_{f}_{tid}" for tid, f in enumerate(ts.demand_of.tolist())]
             + [f"b_{f}" for f in range(tm.n)])
    volumes = [d.volume if ids else 0.0 for d, ids in zip(tm.demands, ts.by_demand)]
    prob.add_vars(names, np.zeros(len(names)), np.r_[np.full(ts.total, math.inf), volumes])
    prob.set_objective([(ts.total + f, 1.0) for f in range(tm.n)], maximize=True)
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
    q, k = np.nonzero(~alive)  # scenario-major, tunnels ascending: so are their rows
    row = q * n_dem + demand_of[k]  # delivery row index, in build order
    first = np.flatnonzero(np.diff(row, prepend=-1))  # each nonempty killed set's first entry
    killed = sp.csr_matrix((np.ones(len(k), dtype=np.int32), k, np.append(first, len(k))),
                           shape=(len(first), n_tun))  # over the rows that lose a tunnel
    size = np.diff(killed.indptr)
    shared = killed @ killed.T  # same demand only: a tunnel has one demand
    i = np.repeat(np.arange(len(first), dtype=np.int32), np.diff(shared.indptr))
    j = shared.indices
    nest = np.flatnonzero(shared.data == size[i])  # killed(i) is a subset of killed(j)
    i, j = i[nest], j[nest]
    # A row whose scenario kills none of the demand's tunnels repeats the
    # normal-state row, which is implied as soon as some scenario kills one.
    implied = np.ones((n_scen, n_dem), dtype=bool)
    implied[0, :] = False
    implied[0, demand_of[k]] = True
    marks = implied.reshape(-1)
    marks[row[first]] = False
    marks[row[first[i[(size[j] > size[i]) | ((size[j] == size[i]) & (j < i))]]]] = True
    return implied


def _ffc_bytes(ts: TunnelSet, n_scen: int, n_dem: int) -> int:
    """About the peak bytes of the arrays that grow with the scenarios, from
    the tunnels alone.  Per scenario: a byte per tunnel for the survivor mask
    and four for the masks ``_implied_delivery`` and ``_scenario_rows`` make
    from it, and two per demand for the marks and the delivered-flow entries.
    Then 40 bytes per (scenario, killed tunnel), and 24 per pair of
    scenarios that kill one tunnel, the pairs ``_implied_delivery`` compares."""
    hops = np.diff(ts.incidence.indptr)  # links on each tunnel, each a scenario that kills it
    return (n_scen * (5 * ts.total + 2 * n_dem) + 40 * int(hops.sum())
            + 24 * int(np.square(hops).sum()))


def build_te_lp(topo: Topology, tm: TrafficMatrix, ts: TunnelSet) -> TeModel:
    """Base model: one capacity row per arc, one delivery row per demand."""
    prob = _base_problem(topo, tm, ts)
    arcs, own = _row_templates(ts)
    prob.add_rows(arcs, "<=", topo.capacities(), "cap_e{1}")
    prob.add_rows(own, ">=", np.zeros(tm.n), "del_f{1}")
    meta = ModelMeta("te", None, prob.n_vars, prob.n_constraints)
    return TeModel(prob, topo, tm, ts, meta)


def build_calibration_lp(topo: Topology, tm: TrafficMatrix, ts: TunnelSet) -> LpProblem:
    """Min-max link utilization (minimum congestion) over the fixed tunnels.

    Minimize lam subject to arc load <= c_e * lam and TE's delivery rows, each
    delivered flow fixed to its volume (0 if unroutable): the least uniform
    capacity factor at which TE carries all routable demand.
    """
    prob = _base_problem(topo, tm, ts)
    prob.lower[ts.total:] = prob.upper[ts.total:]
    lam = prob.add_var("lam", 0.0, math.inf)
    arcs, own = _row_templates(ts)
    load = sp.hstack([arcs, -topo.capacities()[:, None]], format="csr")
    prob.add_rows(load, "<=", np.zeros(topo.n_arcs), "cap_e{1}")
    prob.add_rows(own, ">=", np.zeros(tm.n), "del_f{1}")
    prob.set_objective([(lam, 1.0)], maximize=False)
    return prob


def build_ffc_lp(
    topo: Topology,
    tm: TrafficMatrix,
    ts: TunnelSet,
    scen: sp.csr_matrix,
    capacity_mode: str = CAPACITY_MODE_ALL,
) -> TeModel:
    """Resilient model: delivery must hold on surviving tunnels of every scenario.

    ``scen`` is the scenario x arc matrix of dead arcs that
    ``enumerate_single_link_scenarios`` returns, row 0 the normal state.
    Tunnel rates are shared across scenarios.  A demand with no surviving
    tunnel in some scenario gets its admitted flow forced to zero by the
    empty-sum delivery row.

    Rows implied by another row are marked, by construction: every capacity
    row of a failure scenario (the normal-state row of its arc has a superset
    of its tunnels and the same capacity), and every delivery row that another
    scenario's row of the same demand implies (``_implied_delivery``).  Both
    capacity modes therefore solve the same working rows.

    The LP holds each kind of row as its normal-state template, the
    scenario x tunnel survivor mask and the marks; a solve builds only the
    working rows.  An LP whose scenario-sized arrays (``_ffc_bytes``) would
    pass ``FFC_BUILD_BUDGET_BYTES`` raises ``SolveError`` before any is made.
    """
    require(capacity_mode in (CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY),
            f"unknown capacity mode {capacity_mode!r}")
    n_scen = scen.shape[0]
    require(n_scen > 0 and not scen[0].nnz, "scenario set must start with the normal state")
    need = _ffc_bytes(ts, n_scen, tm.n)
    if need > FFC_BUILD_BUDGET_BYTES:
        raise SolveError(f"FFC LP of {n_scen} scenarios and {ts.total} tunnels needs about "
                         f"{need:,} bytes, over the {FFC_BUILD_BUDGET_BYTES:,}-byte budget")
    prob = _base_problem(topo, tm, ts)
    prob.simplex = "primal"  # starts at the feasible x = 0; TE stays faster on the dual
    arcs, own = _row_templates(ts)
    alive = surviving_tunnels(ts, scen)
    implied = _implied_delivery(ts.demand_of, alive, tm.n)

    # Rows in scenario order: the alive arcs' capacity rows, then every
    # demand's delivery row, each over the scenario's surviving tunnels.  The
    # LP holds each as its template and masks; no row is built here.
    n_cap = n_scen if capacity_mode == CAPACITY_MODE_ALL else 1
    live_arcs = scen[:n_cap].toarray() == 0
    prob.add_rows(arcs, "<=", topo.capacities(), "cap_q{0}_e{1}",
                  implied=np.broadcast_to(np.arange(n_cap)[:, None] > 0, live_arcs.shape),
                  alive=alive[:n_cap], live=live_arcs)
    prob.add_rows(own, ">=", np.zeros(tm.n), "del_f{1}_q{0}",
                  implied=implied, alive=alive, live=np.broadcast_to(True, implied.shape))

    meta = ModelMeta("ffc", capacity_mode, prob.n_vars, prob.n_constraints)
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
    scen: sp.csr_matrix,
    topo: Topology,
) -> CongestionReport:
    """Check no-oversubscription and delivery on every scenario's survivors.

    Violations are report content rather than exceptions: for each scenario
    the residual load (surviving tunnels only) must fit every alive arc, and
    the surviving rates of each demand must still cover its admitted flow.
    Both checks allow the LP re-check's ``FEASIBILITY_TOL``, which the unit
    coefficients of these rows leave unscaled.  A dead arc needs no mask:
    every tunnel that crosses it is dead, so its load is exactly 0.0 and its
    excess, minus a nonnegative capacity, is never above the tolerance.
    """
    # One scenario at a time, the surviving rates give each arc's load and each
    # demand's shortfall.  They come from the incidence, not from the LP's row
    # templates, so a fault in those cannot escape both this and the re-check.
    alive = surviving_tunnels(ts, scen)
    caps = topo.capacities()
    arc_tunnels = ts.incidence.T
    violations = []
    for q in range(len(alive)):
        r = np.where(alive[q], sol.tunnel_rates, 0.0)
        excess = arc_tunnels @ r - caps
        shortfall = sol.delivered - np.bincount(ts.demand_of, r, minlength=len(ts.by_demand))
        for kind, amount in (("capacity", excess), ("delivery", shortfall)):
            violations += [Violation(q, kind, int(i), float(amount[i]))
                           for i in np.flatnonzero(amount > FEASIBILITY_TOL)]
    return CongestionReport(not violations, tuple(violations), len(alive))


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
        "policy": ts.policy,
        "capacity_mode": meta.capacity_mode,
        "objective": float(sol.delivered.sum()),
        "solve_time": sol.solve_time,
        "solution_kind": "vertex",  # both backends return vertices
        "demands": _demand_entries(tm, topo),
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
    """Rebuild flows, tunnels, and demands from a dump (a decoded JSON object,
    as ``load_solution`` reads it) for verification.

    Every field is checked: a malformed dump raises ``ValidationError``, and
    an index out of range is never read as another demand's or tunnel's rate.
    """
    entries = list_of(doc, "demands", lambda d: isinstance(d, dict), "objects")
    tunnel_paths = list_of(
        doc, "tunnels", lambda ps: isinstance(ps, list) and all(isinstance(p, list) for p in ps),
        "lists of node-id paths")
    b = list_of(doc, "b", lambda v: is_number(v) and v >= 0, "nonnegative finite numbers")
    a_entries = list_of(doc, "a", lambda e: isinstance(e, dict), "objects")
    solve_time = doc.get("solve_time", 0.0)
    require(is_number(solve_time),
            f"solution dump: 'solve_time' must be a number, got {solve_time!r}")
    policy = doc.get("policy", "")
    require(isinstance(policy, str), f"solution dump: 'policy' must be a string, got {policy!r}")
    tm = _demands_from_rows([(d.get("src"), d.get("dst"), d.get("volume")) for d in entries],
                            topo)
    require(len(tunnel_paths) == len(b) == tm.n, f"solution dump: {tm.n} demands, "
            f"{len(tunnel_paths)} tunnel lists and {len(b)} delivered flows")
    delivered = np.array(b, dtype=float)
    over = np.flatnonzero(delivered > tm.volumes() + FEASIBILITY_TOL)  # every LP bounds b by it
    if over.size:
        f = int(over[0])
        raise ValidationError(f"solution dump: demand {f} delivers {b[f]!r}, over its "
                              f"volume {tm.demands[f].volume!r}")
    ts = make_tunnel_set(
        topo, policy,
        [[tuple(topo.index_of(n) for n in path) for path in paths] for paths in tunnel_paths])
    for tid, f in enumerate(ts.demand_of.tolist()):
        d, path = tm.demands[f], ts.paths[tid]
        if len(path) < 2 or (path[0], path[-1]) != (d.src, d.dst):
            raise ValidationError(f"solution dump: tunnel {tid} does not join demand {f}'s "
                                  "endpoints")
    rates, seen = np.zeros(ts.total), set()
    for entry in a_entries:
        f, k, v = entry.get("demand"), entry.get("tunnel"), entry.get("value")
        if not (is_index(f, tm.n) and is_index(k, len(ts.by_demand[f])) and is_number(v)
                and v >= 0):
            raise ValidationError(f"solution dump: invalid tunnel rate {entry!r}")
        require((f, k) not in seen, f"solution dump: repeated rate of demand {f}'s tunnel {k}")
        seen.add((f, k))
        rates[ts.by_demand[f][k]] = float(v)
    loads = ts.incidence.T @ rates
    return TeSolution(delivered, rates, loads, float(solve_time)), ts, tm


def load_solution(path: str | Path, topo: Topology):
    return solution_from_dict(json_object(Path(path).read_text(), "solution dump"), topo)
