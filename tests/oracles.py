"""Independent brute-force oracles used to check optimized code paths.

These deliberately avoid the algorithms under test: the LP oracle enumerates
basic feasible points directly, the path oracle enumerates every simple path
by DFS, and the calibration oracle bisects over full TE solves instead of
solving the min-max-utilization LP.  The first two are exponential and only
meant for tiny instances.
"""
from __future__ import annotations

import math

import numpy as np

from telab import ValidationError, build_te_lp, scale_capacities
from telab.lpcore import OPTIMAL, LpProblem, solve


def combinations(m: int, k: int, chunk: int):
    """Every k-subset of range(m), as int arrays of at most ``chunk`` rows.

    Ranks are unranked in the combinatorial number system (colex order), so
    no Python tuple is built per combination.
    """
    table = np.array([[math.comb(x, p) for x in range(m)] for p in range(k + 1)],
                     dtype=np.int64)
    total = math.comb(m, k)
    for start in range(0, total, chunk):
        rank = np.arange(start, min(start + chunk, total), dtype=np.int64)
        out = np.empty((len(rank), k), dtype=np.intp)
        for p in range(k, 0, -1):
            out[:, p - 1] = np.searchsorted(table[p], rank, side="right") - 1
            rank -= table[p][out[:, p - 1]]
        yield out


def vertex_enumeration_optimum(prob: LpProblem, feas_tol: float = 1e-7) -> float | None:
    """Exhaustively enumerate basic feasible points of a small LP.

    Every subset of n active constraints (rows plus variable bounds, with
    equality rows always active) defines a candidate vertex; the best feasible
    candidate is the optimum of a bounded LP.  An all-zero row is never part
    of a nonsingular subset, so only nonzero inequality rows are combined, but
    every row is checked for feasibility.  Returns None when no feasible
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
    nonzero = np.flatnonzero(np.abs(A_in).sum(axis=1) > 0)

    c = prob.objective_vector()
    sign = 1.0 if prob.maximize else -1.0
    best: float | None = None

    for idx in combinations(len(nonzero), need, 20000):
        rows = nonzero[idx]  # (k, need)
        mats = np.concatenate(
            [np.broadcast_to(A_eq, (len(rows), n_eq, n)), A_in[rows]], axis=1)
        rhs = np.concatenate(
            [np.broadcast_to(b_eq, (len(rows), n_eq)), b_in[rows]], axis=1)
        ok = np.abs(np.linalg.det(mats)) > 1e-9
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


def calibrate_bisection_oracle(topo, tm, ts, backend: str, rel_precision: float = 1e-3) -> float:
    """Minimal uniform capacity factor delivering all routable demand, by search.

    Binary search to the requested relative precision, doubling upward from
    1.0 until feasible, each step one full TE solve.  Returns the upper end of
    the final bracket.
    """
    routable_total = sum(
        d.volume for d in tm.demands if ts.by_demand[d.id]
    )
    if routable_total <= 0:
        return 1.0

    def satisfied(factor: float) -> bool:
        model = build_te_lp(scale_capacities(topo, factor), tm, ts)
        lp_sol = solve(model.problem, backend)
        if lp_sol.status != OPTIMAL:
            return False
        return routable_total - lp_sol.objective <= 1e-6 * routable_total

    hi = 1.0
    doublings = 0
    while not satisfied(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise ValidationError("calibration diverged: demand unreachable at any capacity")
    lo = hi / 2.0 if doublings else 0.0
    if lo == 0.0:
        # Already feasible at 1.0; bracket downward before bisecting.
        lo = hi / 2.0
        while satisfied(lo):
            hi = lo
            lo /= 2.0
            if lo < 1e-9:
                return hi
    while (hi - lo) > rel_precision * hi:
        mid = (lo + hi) / 2.0
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


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


def ffc_implied_oracle(topo, tm, ts, scen, capacity_mode: str) -> list[bool]:
    """The literal marking rule of every FFC row, in build order: a failure
    scenario's capacity row; a delivery row when another scenario leaves the
    demand a strictly smaller tunnel set, or the same set and comes first."""
    marks = []
    cap_scenarios = scen.scenarios if capacity_mode == "all" else scen.scenarios[:1]
    for sc in cap_scenarios:
        marks += [sc.id > 0 for arc in topo.arcs if arc.id not in sc.dead_arcs]
    alive = [[set(ids) for ids in available_tunnels_oracle(ts, scen, q)] for q in range(scen.n)]
    for q in range(scen.n):
        for d in tm.demands:
            mine = alive[q][d.id]
            marks.append(any(alive[p][d.id] < mine or (alive[p][d.id] == mine and p < q)
                             for p in range(scen.n)))
    return marks


def row_implies(u, u_rhs, v, v_rhs, lower, upper):
    """Reference test: the row u x <= u_rhs implies v x <= v_rhs over the box
    lower <= x <= upper, because u_rhs <= v_rhs and (u - v)_j x_j >= 0 for every
    variable: the difference is zero, positive on x_j >= 0 or negative on
    x_j <= 0.  Rows are dense; a 2-D u gives one answer per row of u."""
    diff = u - v
    return ((u_rhs <= v_rhs) & ~((diff > 0) & (lower < 0)).any(axis=-1)
            & ~((diff < 0) & (upper > 0)).any(axis=-1))


def le_rows(prob) -> tuple[np.ndarray, np.ndarray]:
    """Every row of an LP without equality rows, dense, with >= rows negated to <=."""
    A, senses, rhs = prob.rows()
    assert not (senses == "=").any()
    flip = np.where(senses == ">=", -1.0, 1.0)
    return A.toarray() * flip[:, None], rhs * flip


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
            issues.append(f"var {var_names[j]}: {float(v)!r} below lower bound {float(lower[j])!r}")
    for j, v in enumerate(x):
        if v > upper[j] + bound_tol:
            issues.append(f"var {var_names[j]}: {float(v)!r} above upper bound {float(upper[j])!r}")
    for i, (coeffs, sense, rhs, name) in enumerate(rows):
        lhs = sum(float(c * x[j]) for j, c in coeffs)  # an empty sum is the integer 0
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
