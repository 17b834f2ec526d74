"""Independent brute-force oracles used to check optimized code paths.

These deliberately avoid the algorithms under test: the LP oracle enumerates
basic feasible points directly, the path oracle enumerates every simple path
by DFS, the Yen oracle runs a full Dijkstra for every spur, and the
calibration oracle bisects over full TE solves instead of solving the
min-max-utilization LP.  The first two are exponential and only meant for
tiny instances.  ``rows``, ``row_names`` and ``implied`` are literal-row
views of an ``LpProblem``, built anew from its blocks on each call, and
``add_constraint`` appends one hand-written row.  ``write_lp_text`` renders
a whole LP as text, so tests can compare two problems and pin a model by the
digest of its text.
"""
from __future__ import annotations

import heapq
import math

import numpy as np
import scipy.sparse as sp

from telab import ValidationError, build_te_lp, scale_capacities
from telab.lpcore import OPTIMAL, LpProblem, _scenario_rows, solve
from telab.temodels import _implied_delivery
from telab.tunnels import surviving_tunnels


def add_constraint(
    prob: LpProblem,
    coeffs: list[tuple[int, float]],
    sense: str,
    rhs: float,
    name: str = "",
) -> int:
    """Append one row given as (column, coefficient) pairs."""
    cols, vals = zip(*coeffs) if coeffs else ((), ())
    row = sp.csr_matrix((np.array(vals, dtype=float), np.array(cols, dtype=np.int64),
                         [0, len(cols)]), shape=(1, prob.n_vars))
    return prob.add_rows(row, sense, [rhs], [name])


def rows(prob: LpProblem) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Every constraint row, built and stacked anew: (CSR matrix over all
    variables, senses, rhs)."""
    blocks = prob._blocks
    return (sp.vstack([sp.csr_matrix((0, prob.n_vars))]
                      + [_scenario_rows(b.template, b.alive, b.live) for b in blocks],
                      format="csr"),
            np.repeat(np.array([b.sense for b in blocks], dtype="<U2"),
                      [b.size for b in blocks]),
            np.concatenate([np.zeros(0)]
                           + [np.broadcast_to(b.rhs, b.live.shape)[b.live] for b in blocks]))


def row_names(prob: LpProblem) -> list[str]:
    """Every row's name, in row order, as a new list on each call."""
    return [blk.name(q, i, j) for blk in prob._blocks
            for j, (q, i) in enumerate(zip(*(a.tolist() for a in np.nonzero(blk.live))))]


def implied(prob: LpProblem) -> np.ndarray:
    """Per row: marked by its builder as implied by another row."""
    return np.concatenate([np.zeros(0, dtype=bool)]
                          + [b.implied[b.live] for b in prob._blocks])


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
    A, senses, rhss = rows(prob)
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

    c = prob.c
    sign = 1.0 if prob.maximize else -1.0
    best: float | None = None

    for idx in combinations(len(nonzero), need, 20000):
        chosen = nonzero[idx]  # (k, need)
        mats = np.concatenate(
            [np.broadcast_to(A_eq, (len(chosen), n_eq, n)), A_in[chosen]], axis=1)
        rhs = np.concatenate(
            [np.broadcast_to(b_eq, (len(chosen), n_eq)), b_in[chosen]], axis=1)
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
        d.volume for d, ids in zip(tm.demands, ts.by_demand) if ids
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


def _dijkstra(adjacency, s: int, t: int, banned_nodes, banned_arcs):
    """Min (cost, node-sequence) path from s to t, or None if unreachable.

    Heap entries carry the full node tuple so equal-cost paths pop in
    lexicographic order; the first settled label per node is the (cost, lex)
    minimum.
    """
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (s,))]
    settled: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == t:
            return cost, path
        for v, w in adjacency[u]:
            if v in settled or v in banned_nodes or (u, v) in banned_arcs:
                continue
            heapq.heappush(heap, (cost + w, path + (v,)))
    return None


def yen_oracle(topo, s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """Up to k loopless s->t paths by plain Yen: a full Dijkstra for the first
    path and for every spur node of every accepted path, candidates costed
    ``root_cost + spur_cost`` and ordered by (cost, node sequence)."""
    adjacency = topo.adjacency
    weight = {(a.src, a.dst): a.weight for a in topo.arcs}

    first = _dijkstra(adjacency, s, t, frozenset(), frozenset())
    if first is None:
        return []
    accepted: list[tuple[float, tuple[int, ...]]] = [first]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    queued: set[tuple[int, ...]] = {first[1]}

    while len(accepted) < k:
        _, prev = accepted[-1]
        root_cost = 0.0
        for j in range(len(prev) - 1):
            spur = prev[j]
            root = prev[: j + 1]
            banned_arcs = {
                (p[j], p[j + 1])
                for _, p in accepted
                if len(p) > j + 1 and p[: j + 1] == root
            }
            banned_nodes = set(root[:-1])
            res = _dijkstra(adjacency, spur, t, banned_nodes, banned_arcs)
            if res is not None:
                spur_cost, spur_path = res
                full = root[:-1] + spur_path
                if full not in queued:
                    queued.add(full)
                    heapq.heappush(candidates, (root_cost + spur_cost, full))
            root_cost += weight[(prev[j], prev[j + 1])]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [p for _, p in accepted]


# ---------------------------------------------------------------------------
# Scalar reference loops: the literal definitions, one tunnel and one row at a
# time, with a tunnel's arcs read from its node path and a scenario's dead
# arcs from their positions (scenario q > 0 fails link q - 1, arcs 2q - 2 and 2q - 1).
# ---------------------------------------------------------------------------


def path_arcs(topo, nodes) -> list[int]:
    return [topo.arc_by_endpoints[hop] for hop in zip(nodes, nodes[1:])]


def path_cost(topo, nodes) -> float:
    return sum(topo.arcs[topo.arc_by_endpoints[hop]].weight for hop in zip(nodes, nodes[1:]))


def dead_arcs(topo, q: int) -> set[int]:
    return {e for e in range(topo.n_arcs) if e // 2 == q - 1}


def tunnel_survives(topo, nodes, q: int) -> bool:
    dead = dead_arcs(topo, q)
    return not any(a in dead for a in path_arcs(topo, nodes))


def available_tunnels_oracle(topo, ts, q: int) -> list[list[int]]:
    return [[t for t in ids if tunnel_survives(topo, ts.paths[t], q)] for ids in ts.by_demand]


def ffc_rows_oracle(topo, tm, ts, scen, capacity_mode: str) -> list[tuple]:
    """(name, ((col, coef), ...), sense, rhs) of every FFC row, in build order."""
    rows = []
    for q in range(scen.shape[0] if capacity_mode == "all" else 1):
        for e, arc in enumerate(topo.arcs):
            if e in dead_arcs(topo, q):
                continue
            coeffs = tuple((t, 1.0) for t, nodes in enumerate(ts.paths)
                           if e in path_arcs(topo, nodes) and tunnel_survives(topo, nodes, q))
            rows.append((f"cap_q{q}_e{e}", coeffs, "<=", arc.capacity))
    for q in range(scen.shape[0]):
        alive = available_tunnels_oracle(topo, ts, q)
        for f in range(tm.n):
            coeffs = tuple((t, 1.0) for t in alive[f]) + ((ts.total + f, -1.0),)
            rows.append((f"del_f{f}_q{q}", coeffs, ">=", 0.0))
    return rows


def ffc_implied_oracle(topo, tm, ts, scen, capacity_mode: str) -> list[bool]:
    """The literal marking rule of every FFC row, in build order: a failure
    scenario's capacity row; a delivery row when another scenario leaves the
    demand a strictly smaller tunnel set, or the same set and comes first."""
    marks = []
    for q in range(scen.shape[0] if capacity_mode == "all" else 1):
        marks += [q > 0 for e in range(topo.n_arcs) if e not in dead_arcs(topo, q)]
    alive = [[set(ids) for ids in available_tunnels_oracle(topo, ts, q)]
             for q in range(scen.shape[0])]
    for q in range(scen.shape[0]):
        for f in range(tm.n):
            mine = alive[q][f]
            marks.append(any(alive[p][f] < mine or (alive[p][f] == mine and p < q)
                             for p in range(scen.shape[0])))
    return marks


def ffc_lp_oracle(topo, tm, ts, scen, capacity_mode: str) -> LpProblem:
    """The FFC LP built one column and one scenario at a time: each scenario's
    alive-arc capacity rows and delivery rows filtered to its surviving tunnels."""
    prob = LpProblem(simplex="primal")
    for tid, f in enumerate(ts.demand_of.tolist()):
        prob.add_var(f"a_{f}_{tid}", 0.0, math.inf)
    for f, d in enumerate(tm.demands):
        prob.add_var(f"b_{f}", 0.0, d.volume if ts.by_demand[f] else 0.0)
    prob.set_objective([(ts.total + f, 1.0) for f in range(tm.n)], maximize=True)
    arcs = ts.incidence.T.tocsr()
    arcs.sort_indices()
    arcs.resize((arcs.shape[0], prob.n_vars))
    members = sp.csr_matrix(
        (np.ones(ts.total), np.arange(ts.total),
         np.searchsorted(ts.demand_of, np.arange(tm.n + 1))), shape=(tm.n, ts.total))
    own = sp.hstack([members, -sp.identity(tm.n)], format="csr")
    dead_arcs = scen.toarray() != 0
    dead_cols = np.zeros((scen.shape[0], prob.n_vars), dtype=bool)
    dead_cols[:, :ts.total] = ~surviving_tunnels(ts, scen)
    implied = _implied_delivery(ts.demand_of, ~dead_cols[:, :ts.total], tm.n)

    def without_dead(mat, q):
        keep = ~dead_cols[q][mat.indices]
        indptr = np.concatenate([[0], np.cumsum(keep)])[mat.indptr]
        return sp.csr_matrix((mat.data[keep], mat.indices[keep], indptr), shape=mat.shape)

    for q in range(scen.shape[0] if capacity_mode == "all" else 1):
        live = np.flatnonzero(~dead_arcs[q])
        prob.add_rows(without_dead(arcs[live], q), "<=", topo.capacities()[live],
                      [f"cap_q{q}_e{e}" for e in live], implied=np.full(len(live), q > 0))
    for q in range(scen.shape[0]):
        prob.add_rows(without_dead(own, q), ">=", np.zeros(tm.n),
                      [f"del_f{f}_q{q}" for f in range(tm.n)], implied=implied[q])
    return prob


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
    A, senses, rhs = rows(prob)
    assert not (senses == "=").any()
    flip = np.where(senses == ">=", -1.0, 1.0)
    return A.toarray() * flip[:, None], rhs * flip


def lp_rows(prob) -> list[tuple]:
    """The rows of an LpProblem in the same (name, coeffs, sense, rhs) form."""
    (A, senses, rhs), names = rows(prob), row_names(prob)
    return [
        (names[i],
         tuple(zip(A.indices[A.indptr[i]:A.indptr[i + 1]].tolist(),
                   A.data[A.indptr[i]:A.indptr[i + 1]].tolist())),
         str(senses[i]), float(rhs[i]))
        for i in range(prob.n_constraints)
    ]


def congestion_violations_oracle(sol, ts, scen, topo, cap_tol=1e-6, del_tol=1e-6):
    """(scenario, kind, index, amount) per violation, scenario by scenario."""
    caps = topo.capacities()
    out = []
    for q in range(scen.shape[0]):
        alive = [tunnel_survives(topo, nodes, q) for nodes in ts.paths]
        loads = np.zeros(topo.n_arcs)
        for t, nodes in enumerate(ts.paths):
            for e in path_arcs(topo, nodes):
                loads[e] += sol.tunnel_rates[t] if alive[t] else 0.0
        dead = dead_arcs(topo, q)
        for e in range(topo.n_arcs):
            if e not in dead and loads[e] - caps[e] > cap_tol:
                out.append((q, "capacity", e, float(loads[e] - caps[e])))
        surviving = np.zeros(len(ts.by_demand))
        for f, ids in enumerate(ts.by_demand):
            for t in ids:
                if alive[t]:
                    surviving[f] += sol.tunnel_rates[t]
        for f in range(len(ts.by_demand)):
            if sol.delivered[f] - surviving[f] > del_tol:
                out.append((q, "delivery", f, float(sol.delivered[f] - surviving[f])))
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


def criticality_scores_oracle(sol, ts, topo, utilization, flow_eps=1e-9):
    """Per demand, the most utilized arc (smallest id on ties) of its used tunnels."""
    scores = np.zeros(len(utilization))
    for f, ids in enumerate(ts.by_demand):
        if sol.delivered[f] <= flow_eps:
            continue
        candidates = {a for t in ids if sol.tunnel_rates[t] > flow_eps
                      for a in path_arcs(topo, ts.paths[t])}
        if candidates:
            best = min(candidates, key=lambda e: (-utilization[e], e))
            scores[best] += sol.delivered[f] / len(ts.by_demand)
    return scores


def write_lp_text(prob: LpProblem, lp_name: str = "lp") -> str:
    """Render in the fixed LP text format for cross-checks with other tools,
    under a header line that gives ``lp_name``."""

    def num(v: float) -> str:
        return repr(float(v))

    def term(j: int, c: float, first: bool) -> str:
        name = prob.var_names[j]
        if first:
            return f"{num(c)} {name}"
        return f"{'+' if c >= 0 else '-'} {num(abs(c))} {name}"

    lines = [f"\\ {lp_name}", "Maximize" if prob.maximize else "Minimize"]
    obj_terms = " ".join(term(j, prob.c[j], i == 0) for i, j in enumerate(np.flatnonzero(prob.c)))
    lines.append(f" obj: {obj_terms or '0'}")
    lines.append("Subject To")
    A, senses, rhs = rows(prob)
    indptr, cols, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    for i, (name, sense, b) in enumerate(zip(row_names(prob), senses.tolist(), rhs.tolist())):
        body = " ".join(term(cols[k], vals[k], k == indptr[i])
                        for k in range(indptr[i], indptr[i + 1]))
        lines.append(f" {name or f'c{i}'}: {body or '0'} {sense} {num(b)}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(zip(prob.lower.tolist(), prob.upper.tolist())):
        name = prob.var_names[j]
        if lo == hi:
            lines.append(f" {name} = {num(lo)}")
        elif not math.isfinite(lo) and not math.isfinite(hi):
            lines.append(f" {name} free")
        elif not math.isfinite(hi):
            lines.append(f" {num(lo)} <= {name}")
        elif not math.isfinite(lo):
            lines.append(f" -inf <= {name} <= {num(hi)}")
        else:
            lines.append(f" {num(lo)} <= {name} <= {num(hi)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
