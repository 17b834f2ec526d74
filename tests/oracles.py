"""Independent brute-force oracles used to check optimized code paths.

These deliberately avoid the algorithms under test: the LP oracle enumerates
basic feasible points directly, the path oracle enumerates every simple path
by DFS.  Both are exponential and only meant for tiny instances.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from telab.lpcore import LpProblem


def vertex_enumeration_optimum(prob: LpProblem, feas_tol: float = 1e-7) -> float | None:
    """Exhaustively enumerate basic feasible points of a small LP.

    Every subset of n active constraints (rows plus variable bounds, with
    equality rows always active) defines a candidate vertex; the best feasible
    candidate is the optimum of a bounded LP.  Returns None when no feasible
    vertex exists.  Intended for n <= ~10 variables.
    """
    n = prob.n_vars
    ineq_rows: list[tuple[np.ndarray, float]] = []
    eq_rows: list[tuple[np.ndarray, float]] = []
    A, senses, rhss = prob.rows()
    for row, sense, rhs in zip(A.toarray(), senses, rhss):
        if sense == "<=":
            ineq_rows.append((row, rhs))
        elif sense == ">=":
            ineq_rows.append((-row, -rhs))
        else:
            eq_rows.append((row, rhs))
    for j, (lo, hi) in enumerate(zip(prob.lower, prob.upper)):
        if math.isfinite(lo):
            row = np.zeros(n)
            row[j] = -1.0
            ineq_rows.append((row, -lo))
        if math.isfinite(hi):
            row = np.zeros(n)
            row[j] = 1.0
            ineq_rows.append((row, hi))

    n_eq = len(eq_rows)
    assert n_eq <= n, "oracle assumes fewer equalities than variables"
    need = n - n_eq
    A_in = np.array([r for r, _ in ineq_rows]) if ineq_rows else np.zeros((0, n))
    b_in = np.array([v for _, v in ineq_rows])
    A_eq = np.array([r for r, _ in eq_rows]) if eq_rows else np.zeros((0, n))
    b_eq = np.array([v for _, v in eq_rows])

    c = prob.objective_vector()
    sign = 1.0 if prob.maximize else -1.0
    best: float | None = None

    combos = itertools.combinations(range(len(ineq_rows)), need)
    chunk_size = 20000
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        idx = np.array(chunk, dtype=int)  # (k, need)
        mats = np.concatenate(
            [np.broadcast_to(A_eq, (len(chunk), n_eq, n)), A_in[idx]], axis=1)
        rhs = np.concatenate(
            [np.broadcast_to(b_eq, (len(chunk), n_eq)), b_in[idx]], axis=1)
        dets = np.linalg.det(mats)
        ok = np.abs(dets) > 1e-9
        if not ok.any():
            continue
        xs = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]  # (k', n)
        # feasibility against every inequality row and equality row
        feas = np.ones(len(xs), dtype=bool)
        if len(ineq_rows):
            feas &= (xs @ A_in.T <= b_in + feas_tol).all(axis=1)
        if n_eq:
            feas &= (np.abs(xs @ A_eq.T - b_eq) <= feas_tol).all(axis=1)
        if not feas.any():
            continue
        objs = sign * (xs[feas] @ c)
        cand = float(objs.max())
        if best is None or cand > best:
            best = cand
    if best is None:
        return None
    return sign * best


def all_simple_paths(adjacency, s: int, t: int) -> list[tuple[float, tuple[int, ...]]]:
    """Every loopless s->t path with its cost, by plain DFS."""
    out: list[tuple[float, tuple[int, ...]]] = []
    path = [s]
    seen = {s}

    def dfs(u: int, cost: float) -> None:
        if u == t:
            out.append((cost, tuple(path)))
            return
        for v, w in adjacency[u]:
            if v not in seen:
                seen.add(v)
                path.append(v)
                dfs(v, cost + w)
                path.pop()
                seen.discard(v)

    dfs(s, 0.0)
    return out


def ksp_oracle(topo, s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """First k simple paths in (cost, lexicographic node sequence) order."""
    paths = all_simple_paths(topo.adjacency, s, t)
    paths.sort(key=lambda cp: (cp[0], cp[1]))
    return [p for _, p in paths[:k]]


# ---------------------------------------------------------------------------
# Scalar reference loops: the literal definitions, one tunnel and one row at a
# time, straight from ``Tunnel.arcs`` and ``Scenario.dead_arcs``.
# ---------------------------------------------------------------------------


def tunnel_survives(tunnel, scenario) -> bool:
    return not any(a in scenario.dead_arcs for a in tunnel.arcs)


def available_tunnels_oracle(ts, scen, q: int) -> list[list[int]]:
    sc = scen.scenarios[q]
    return [[t for t in ids if tunnel_survives(ts.tunnels[t], sc)] for ids in ts.by_demand]


def ffc_rows_oracle(topo, tm, ts, scen, capacity_mode: str) -> list[tuple]:
    """(name, ((col, coef), ...), sense, rhs) of every FFC row, in build order."""
    rows = []
    cap_scenarios = scen.scenarios if capacity_mode == "all" else scen.scenarios[:1]
    for sc in cap_scenarios:
        for arc in topo.arcs:
            if arc.id in sc.dead_arcs:
                continue
            coeffs = tuple((t.id, 1.0) for t in ts.tunnels
                           if arc.id in t.arcs and tunnel_survives(t, sc))
            rows.append((f"cap_q{sc.id}_e{arc.id}", coeffs, "<=", arc.capacity))
    for sc in scen.scenarios:
        alive = available_tunnels_oracle(ts, scen, sc.id)
        for d in tm.demands:
            coeffs = tuple((t, 1.0) for t in alive[d.id]) + ((ts.total + d.id, -1.0),)
            rows.append((f"del_f{d.id}_q{sc.id}", coeffs, ">=", 0.0))
    return rows


def lp_rows(prob) -> list[tuple]:
    """The rows of an LpProblem in the same (name, coeffs, sense, rhs) form."""
    A, senses, rhs = prob.rows()
    return [
        (prob.row_names[i],
         tuple(zip(A.indices[A.indptr[i]:A.indptr[i + 1]].tolist(),
                   A.data[A.indptr[i]:A.indptr[i + 1]].tolist())),
         str(senses[i]), float(rhs[i]))
        for i in range(prob.n_constraints)
    ]


def congestion_violations_oracle(sol, ts, scen, topo, cap_tol=1e-6, del_tol=1e-6):
    """(scenario, kind, index, amount) per violation, scenario by scenario."""
    caps = topo.capacities()
    out = []
    for sc in scen.scenarios:
        alive = [tunnel_survives(t, sc) for t in ts.tunnels]
        loads = np.zeros(topo.n_arcs)
        for t in ts.tunnels:
            for e in t.arcs:
                loads[e] += sol.tunnel_rates[t.id] if alive[t.id] else 0.0
        for e in range(topo.n_arcs):
            if e not in sc.dead_arcs and loads[e] - caps[e] > cap_tol:
                out.append((sc.id, "capacity", e, float(loads[e] - caps[e])))
        surviving = np.zeros(len(ts.by_demand))
        for t in ts.tunnels:
            if alive[t.id]:
                surviving[t.demand_id] += sol.tunnel_rates[t.id]
        for f in range(len(ts.by_demand)):
            if sol.delivered[f] - surviving[f] > del_tol:
                out.append((sc.id, "delivery", f, float(sol.delivered[f] - surviving[f])))
    return out


def feasibility_issues_oracle(var_names, lower, upper, rows, x, row_tol=1e-6, bound_tol=1e-9):
    """Bound then row violations of x, rows given as (coeffs, sense, rhs, name)."""
    issues = []
    for j, v in enumerate(x):
        if v < lower[j] - bound_tol:
            issues.append(f"var {var_names[j]}: {v!r} below lower bound {np.float64(lower[j])!r}")
    for j, v in enumerate(x):
        if v > upper[j] + bound_tol:
            issues.append(f"var {var_names[j]}: {v!r} above upper bound {np.float64(upper[j])!r}")
    for i, (coeffs, sense, rhs, name) in enumerate(rows):
        lhs = sum(c * x[j] for j, c in coeffs)
        scale = max(1.0, max((abs(c) for _, c in coeffs), default=1.0))
        resid = lhs - rhs
        if ((sense == "<=" and resid > row_tol * scale)
                or (sense == ">=" and resid < -row_tol * scale)
                or (sense == "=" and abs(resid) > row_tol * scale)):
            issues.append(f"row {name or i}: lhs {lhs!r} {sense} rhs {float(rhs)!r} violated")
    return issues


def criticality_scores_oracle(sol, ts, utilization, flow_eps=1e-9):
    """Per demand, the most utilized arc (smallest id on ties) of its used tunnels."""
    scores = np.zeros(len(utilization))
    for f, ids in enumerate(ts.by_demand):
        if sol.delivered[f] <= flow_eps:
            continue
        candidates = {a for t in ids if sol.tunnel_rates[t] > flow_eps for a in ts.tunnels[t].arcs}
        if candidates:
            best = min(candidates, key=lambda e: (-utilization[e], e))
            scores[best] += sol.delivered[f] / len(ts.by_demand)
    return scores
