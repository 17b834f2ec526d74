"""Property tests: the incidence-driven code against its scalar definitions.

Each property draws a small random topology, traffic matrix and tunnel set
(or a small random LP) and compares the vectorised result with the literal
loop from ``oracles.py``, in content and in order, or checks an invariant of
the TE and FFC models, the calibration LP or the file formats on it.
"""
import json
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telab import (
    FixedTunnelPolicy,
    build_ffc_lp,
    build_te_lp,
    build_tunnel_sets,
    calibrate_capacities,
    enumerate_single_link_scenarios,
    k_shortest_paths,
    parse_tm,
    parse_topology,
    scale_capacities,
    solve_model,
    verify_congestion_free,
)
from telab import lpcore
from telab.demands import tm_to_json
from telab.lpcore import (BACKENDS, INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, _Simplex,
                          _standardize, check_feasibility, solve)
from telab.metrics import criticality_scores, link_utilization
from telab.temodels import TeSolution
from telab.tunnels import surviving_tunnels
from oracles import (
    add_constraint,
    available_tunnels_oracle,
    calibrate_bisection_oracle,
    congestion_violations_oracle,
    criticality_scores_oracle,
    feasibility_issues_oracle,
    ffc_implied_oracle,
    ffc_lp_oracle,
    ffc_rows_oracle,
    implied,
    le_rows,
    lp_rows,
    row_implies,
    row_names,
    rows,
    write_lp_text,
    yen_oracle,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def instances(draw, capacities=st.integers(1, 20)):
    """A connected topology (spanning tree plus chords), demands and k-tunnel sets."""
    n = draw(st.integers(2, 6))
    links = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            links.add((min(u, v), max(u, v)))
    topo = parse_topology(json.dumps({
        "name": "h",
        "nodes": [{"id": f"n{i}"} for i in range(n)],
        "links": [{"src": f"n{u}", "dst": f"n{v}", "capacity": float(draw(capacities)),
                   "weight": float(draw(st.integers(1, 3)))} for u, v in sorted(links)],
    }))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=5, unique=True))
    tm = parse_tm(json.dumps({"demands": [
        {"src": f"n{s}", "dst": f"n{t}", "volume": float(draw(st.integers(0, 15)))}
        for s, t in pairs]}), topo)
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(draw(st.integers(1, 4))))
    return topo, tm, ts, enumerate_single_link_scenarios(topo)


@PROPERTY
@given(instances())
def test_surviving_tunnels_match_scalar_filter(inst):
    topo, _, ts, scen = inst
    alive = surviving_tunnels(ts, scen)
    for q in range(scen.shape[0]):
        got = [[t for t in ids if alive[q, t]] for ids in ts.by_demand]
        assert got == available_tunnels_oracle(topo, ts, q)


@PROPERTY
@given(instances())
def test_tunnel_paths_match_yen(inst):
    topo, tm, ts, _ = inst
    for f, d in enumerate(tm.demands):
        want = yen_oracle(topo, d.src, d.dst, 4)
        assert k_shortest_paths(topo, d.src, d.dst, 4) == want
        ids = ts.by_demand[f]
        assert [ts.paths[t] for t in ids] == want[:len(ids)]


@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]))
def test_ffc_rows_match_literal_builder(inst, capacity_mode):
    topo, tm, ts, scen = inst
    model = build_ffc_lp(topo, tm, ts, scen, capacity_mode)
    assert lp_rows(model.problem) == ffc_rows_oracle(topo, tm, ts, scen, capacity_mode)


def _path_instance():
    """a-b-c-d with one a->c demand: no tunnel crosses c-d, the last template rows."""
    topo = parse_topology(json.dumps({"name": "path", "nodes": [{"id": n} for n in "abcd"],
                                      "links": [{"src": u, "dst": v, "capacity": 5.0}
                                                for u, v in ("ab", "bc", "cd")]}))
    tm = parse_tm(json.dumps({"demands": [{"src": "a", "dst": "c", "volume": 3.0}]}), topo)
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(2))
    return topo, tm, ts, enumerate_single_link_scenarios(topo)


def _assert_stacks(got: sp.csr_matrix, wants: list[sp.csr_matrix]) -> None:
    """``got`` holds the rows of ``wants`` in turn, with the same arrays and dtypes."""
    row = 0
    for want in wants:
        ptr = got.indptr[row:row + want.shape[0] + 1]
        lo, hi = ptr[0], ptr[-1]
        assert (ptr - lo).tolist() == want.indptr.tolist()
        assert got.indices[lo:hi].tolist() == want.indices.tolist()
        assert got.data[lo:hi].tolist() == want.data.tolist()
        assert [got.indptr.dtype, got.indices.dtype, got.data.dtype] == [
            want.indptr.dtype, want.indices.dtype, want.data.dtype]
        row += want.shape[0]
    assert row == got.shape[0] and got.indptr[-1] == got.nnz


@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]))
@example(_path_instance(), "all")
@example(_path_instance(), "normal_only")
def test_one_pass_ffc_build_equals_the_per_scenario_build(inst, capacity_mode):
    topo, tm, ts, scen = inst
    prob = build_ffc_lp(topo, tm, ts, scen, capacity_mode).problem
    want = ffc_lp_oracle(topo, tm, ts, scen, capacity_mode)
    assert write_lp_text(prob) == write_lp_text(want)
    assert implied(prob).tolist() == implied(want).tolist()
    assert prob.simplex == want.simplex
    # The oracle adds one plain block per scenario and kind, capacity then
    # delivery, whose template is its rows; prob holds two templates and
    # their masks, and rows(prob) builds every row from them.
    _assert_stacks(rows(prob)[0], [blk.template for blk in want._blocks])


@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]), st.integers(0, 2**32 - 1))
def test_recheck_from_the_templates_equals_the_recheck_of_the_literal_rows(inst, capacity_mode,
                                                                           seed):
    # Points that break rows of every kind: tunnel rates over the capacities,
    # deliveries over the surviving rates, and values out of bounds or not
    # finite, whose terms a dead tunnel's rows must not see.
    topo, tm, ts, scen = inst
    prob = build_ffc_lp(topo, tm, ts, scen, capacity_mode).problem
    want = ffc_lp_oracle(topo, tm, ts, scen, capacity_mode)
    rng = np.random.default_rng(seed)
    for values in ([0.0, 0.5, 1.0, 4.0, 25.0], [-1.0, 0.0, 3.0, 30.0, np.inf, -np.inf, np.nan]):
        x = rng.choice(values, prob.n_vars)
        issues = check_feasibility(want, x)
        assert check_feasibility(prob, x) == issues
        with mock.patch.object(lpcore, "_RECHECK_CHUNK", 1):  # one scenario at a time
            assert check_feasibility(prob, x) == issues


@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]))
def test_ffc_marks_follow_the_rule_and_an_unmarked_row_implies_each(inst, capacity_mode):
    topo, tm, ts, scen = inst
    prob = build_ffc_lp(topo, tm, ts, scen, capacity_mode).problem
    assert implied(prob).tolist() == ffc_implied_oracle(topo, tm, ts, scen, capacity_mode)
    A, b = le_rows(prob)
    lower, upper = np.array(prob.lower), np.array(prob.upper)
    kept = ~implied(prob)
    for v in np.flatnonzero(implied(prob)):
        assert row_implies(A[kept], b[kept], A[v], b[v], lower, upper).any(), row_names(prob)[v]


@PROPERTY
@given(instances())
def test_capacity_modes_give_the_same_working_rows(inst):
    topo, tm, ts, scen = inst
    working = []
    for capacity_mode in ("all", "normal_only"):
        prob = build_ffc_lp(topo, tm, ts, scen, capacity_mode).problem
        A, b, ineq = _standardize(prob)
        working.append(([name for name, m in zip(row_names(prob), implied(prob)) if not m],
                        A.toarray().tolist(), b.tolist(), ineq.tolist()))
    assert working[0] == working[1]


@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]))
def test_ffc_optimum_is_congestion_free_and_backends_agree(inst, capacity_mode):
    topo, tm, ts, scen = inst
    model = build_ffc_lp(topo, tm, ts, scen, capacity_mode)
    bundled, highs = (solve_model(model, backend) for backend in ("bundled", "scipy"))
    assert verify_congestion_free(bundled, ts, scen, topo).ok
    assert verify_congestion_free(highs, ts, scen, topo).ok
    want = highs.delivered.sum()
    assert abs(bundled.delivered.sum() - want) <= 1e-6 * max(1.0, abs(want))


@PROPERTY
@given(instances())
def test_highs_reaches_the_same_optimum_on_either_simplex(inst):
    topo, tm, ts, scen = inst
    for prob in (build_te_lp(topo, tm, ts).problem, build_ffc_lp(topo, tm, ts, scen).problem):
        objectives = []
        for simplex in ("dual", "primal"):
            prob.simplex = simplex
            sol = solve(prob, "scipy")
            assert sol.status == OPTIMAL
            objectives.append(sol.objective)
        assert abs(objectives[0] - objectives[1]) <= 1e-9 * max(1.0, abs(objectives[0]))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]))
def test_ffc_objective_is_at_most_te(backend, inst, capacity_mode):
    topo, tm, ts, scen = inst
    te = solve_model(build_te_lp(topo, tm, ts), backend).delivered.sum()
    ffc = solve_model(build_ffc_lp(topo, tm, ts, scen, capacity_mode), backend).delivered.sum()
    assert ffc <= te + 1e-6 * max(1.0, te)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@PROPERTY
@given(instances())
def test_calibration_lp_is_the_least_factor_that_delivers_everything(backend, inst):
    topo, tm, ts, _ = inst
    factor = calibrate_capacities(topo, tm, ts, backend=backend)
    routable = sum(d.volume for d, ids in zip(tm.demands, ts.by_demand) if ids)
    if routable <= 0:
        assert factor == 1.0
        return
    hi = calibrate_bisection_oracle(topo, tm, ts, backend)
    assert hi * (1 - 1e-3) <= factor <= hi * (1 + 1e-6)

    def unmet(f):
        te = build_te_lp(scale_capacities(topo, f), tm, ts)
        return routable - solve_model(te, backend).delivered.sum()

    assert unmet(factor) <= 1e-6 * routable
    assert unmet(factor * (1 - 1e-3)) > 1e-6 * routable


@PROPERTY
@given(instances())
def test_topology_and_tm_round_trip(inst):
    topo, tm, _, _ = inst
    assert parse_tm(tm_to_json(tm, topo), topo) == tm


@PROPERTY
@given(instances(), st.data())
def test_verify_violations_match_scalar_loop(inst, data):
    topo, tm, ts, scen = inst
    rates = np.array(data.draw(st.lists(st.floats(0.0, 25.0), min_size=ts.total,
                                        max_size=ts.total)), dtype=float)
    delivered = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=tm.n,
                                            max_size=tm.n)), dtype=float)
    sol = TeSolution(delivered, rates, ts.incidence.T @ rates, 0.0)
    report = verify_congestion_free(sol, ts, scen, topo)
    got = [(v.scenario, v.kind, v.index, v.amount) for v in report.violations]
    assert got == congestion_violations_oracle(sol, ts, scen, topo)
    assert report.ok == (not got)


@PROPERTY
@given(instances(capacities=st.sampled_from([4, 8])), st.data())
def test_criticality_scores_match_per_demand_loop(inst, data):
    topo, tm, ts, _ = inst
    # two capacities and few rate values make unused tunnels and utilization ties common
    rates = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5]),
                                        min_size=ts.total, max_size=ts.total)), dtype=float)
    delivered = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 4.0]), min_size=tm.n,
                                            max_size=tm.n)), dtype=float)
    sol = TeSolution(delivered, rates, ts.incidence.T @ rates, 0.0)
    util = link_utilization(sol, topo)
    assert np.array_equal(criticality_scores(sol, ts, util),
                          criticality_scores_oracle(sol, ts, topo, util))


_coef = st.sampled_from([-2.5, -1.0, 0.5, 1.0, 3.0])


@st.composite
def lps_with_points(draw):
    """A small LP (duplicate and empty rows allowed) and a point that may violate it."""
    n = draw(st.integers(1, 5))
    prob = LpProblem()
    for j in range(n):
        prob.add_var(f"x{j}", draw(st.sampled_from([0.0, -1.0, -np.inf])),
                     draw(st.sampled_from([1.0, 4.0, np.inf])))
    rows = []
    for i in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.tuples(st.integers(0, n - 1), _coef), max_size=4))
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        rhs = draw(st.sampled_from([0.0, -1.0, 1.0, 3.0]))
        name = draw(st.sampled_from(["", f"r{i}"]))
        add_constraint(prob, coeffs, sense, rhs, name)
        rows.append((coeffs, sense, rhs, name))
    x = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1e-7, 2e-6, 1.0, 3.0, 5.0]),
                               min_size=n, max_size=n)))
    return prob, rows, x


@st.composite
def mixed_lps(draw):
    """A seeded LP over free, half-bounded, boxed and fixed columns, with <=, >=
    and = rows whose right-hand sides are of order 1: most rows hold at a point
    inside the bounds, some by a margin that may be negative.  No column's
    objective favours an infinite bound: in maximizing form a column with no
    upper bound has c <= 0, one with no lower bound c >= 0, a free one c = 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    prob = LpProblem()
    point = np.zeros(n)
    for j in range(n):
        lo, hi = np.sort(rng.integers(-6, 7, 2) / 2.0)
        kind = rng.choice(["free", "lower", "upper", "boxed", "fixed"])
        lb = -np.inf if kind in ("free", "upper") else lo
        ub = {"free": np.inf, "lower": np.inf, "fixed": lo}.get(kind, hi)
        prob.add_var(f"x{j}", lb, ub)
        point[j] = np.clip(rng.integers(-6, 7) / 2.0, lb, ub)
    A = rng.choice([-2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 3.0], (m, n))
    for i, sense in enumerate(rng.choice(["<=", ">=", "="], m)):
        margin = rng.choice([0.0, 0.0, 0.25, 1.0, -0.5])
        rhs = A[i] @ point + (-margin if sense == ">=" else margin)
        prob.add_rows(A[i:i + 1], str(sense), [rhs], [f"r{i}"])
    c = rng.choice([-2.0, -1.0, 0.0, 1.0, 1.5], n)
    maximize = bool(rng.random() < 0.5)
    sign = 1.0 if maximize else -1.0  # c in maximizing form is sign * c
    no_lb, no_ub = np.isinf(prob.lower), np.isinf(prob.upper)
    c[no_lb] = sign * np.abs(c[no_lb])
    c[no_ub] = -sign * np.abs(c[no_ub])
    c[no_lb & no_ub] = 0.0
    prob.set_objective([(j, float(v)) for j, v in enumerate(c)], maximize=maximize)
    return prob


def lp_from(bounds, rows, objective, maximize=True):
    """An LP from (lb, ub) per column, (coefficients, sense, rhs) per row and c."""
    prob = LpProblem()
    prob.add_vars([f"x{j}" for j in range(len(bounds))], *zip(*bounds))
    for i, (coeffs, sense, rhs) in enumerate(rows):
        prob.add_rows([coeffs], sense, [rhs], [f"r{i}"])
    prob.set_objective(list(enumerate(objective)), maximize)
    return prob


@pytest.mark.parametrize("prob,status", [
    # Unbounded, and HiGHS's presolve calls it infeasible under either simplex strategy.
    (lp_from([(-np.inf, np.inf), (-1, np.inf), (0, np.inf), (-4, 3), (-3, 3)],
             [([-1, -2, 3, 1, 3], "<=", 5.5), ([-1, -2, 0, -2, 3], ">=", -6.8),
              ([3, 0, 3, 3, 1], "<=", -3.2)], [0, 1, -1, 1, 1]), UNBOUNDED),
    # Infeasible, and HiGHS without its presolve ends in a solve error.
    (lp_from([(-np.inf, 1), (-np.inf, -1), (0, np.inf), (-4, 2), (-1, 4), (-np.inf, 2)],
             [([1, 1, 3, -2, 3, -1], "<=", -8209385979.323227),
              ([-1, 3, 3, -2, 3, 3], ">=", 1584211778.2755697),
              ([0, 0, -1, -1, -2, 3], ">=", 2443202482.9406223),
              ([0, -1, 3, 3, 1, -1], "<=", -12727173559.312784)],
             [1, -1, -1, 0, 1, 2], maximize=False), INFEASIBLE),
], ids=["presolve-says-infeasible", "retry-fails"])
def test_highs_verdict_survives_its_presolve_retry(prob, status):
    assert solve(prob, "scipy").status == status


@settings(PROPERTY, max_examples=300)
@given(mixed_lps())
def test_bundled_agrees_with_highs_on_every_column_kind(prob):
    bundled, highs = solve(prob, "bundled"), solve(prob, "scipy")
    assert bundled.status == highs.status
    if bundled.status == OPTIMAL:
        assert abs(bundled.objective - highs.objective) <= 1e-9 * max(1.0, abs(highs.objective))
        assert check_feasibility(prob, bundled.values) == []


@settings(PROPERTY, max_examples=300)
@given(mixed_lps())
def test_bundled_keeps_one_consistent_nonbasic_state(prob):
    std = _standardize(prob)
    if std is None:
        return
    sx = _Simplex(*std, prob.lower, prob.upper, prob.c if prob.maximize else -prob.c)
    sx.optimize()
    lb, ub, direction = sx.lb, sx.ub, sx.direction
    assert set(np.unique(direction)) <= {-1.0, 0.0, 1.0}
    assert (direction[sx.basis] == 0).all() and (direction[lb == ub] == 0).all()
    assert (lb[direction != 0] < ub[direction != 0]).all()
    nonbasic = np.ones(len(direction), dtype=bool)
    nonbasic[sx.basis] = False
    assert nonbasic[sx.free].all()
    x = sx._nonbasic_point()
    assert (x[sx.free] == 0).all()
    bounded = nonbasic.copy()
    bounded[sx.free] = False
    assert np.isfinite(x[bounded]).all()
    assert ((x[bounded] == lb[bounded]) | (x[bounded] == ub[bounded])).all()
    # A movable column that is neither basic nor free moves inward from its bound.
    assert (x[direction > 0] == lb[direction > 0]).all()
    assert (x[direction < 0] == ub[direction < 0]).all()
    assert (direction[bounded & (lb < ub)] != 0).all()


def lp_with_point(n, rows, x):
    """``lps_with_points``'s case for n columns in [0, inf), rows as
    (coeffs, sense, rhs, name) and the point x."""
    prob = LpProblem()
    prob.add_vars([f"x{j}" for j in range(n)], np.zeros(n), np.full(n, np.inf))
    for coeffs, sense, rhs, name in rows:
        add_constraint(prob, coeffs, sense, rhs, name)
    return prob, rows, np.array(x, dtype=float)


@settings(PROPERTY, max_examples=300)
@given(lps_with_points())
# A repeated column is scaled by its largest single |coefficient|, not by the sum
# of its coefficients: 3 here, where the sums are 1 and 6.
@example(lp_with_point(1, [([(0, 3.0), (0, -1.0), (0, -1.0)], "<=", 0.0, "r0")], [2e-6]))
@example(lp_with_point(1, [([(0, 3.0), (0, 3.0)], "<=", 0.0, "r0")], [8e-7]))
# An empty row of an LP without columns.
@example(lp_with_point(0, [([], ">=", 5.0, "r0")], []))
def test_check_feasibility_matches_scalar_row_loop(case):
    prob, rows, x = case
    want = feasibility_issues_oracle(prob.var_names, prob.lower, prob.upper, rows, x)
    assert check_feasibility(prob, x) == want


@st.composite
def block_stores(draw):
    """A seeded LP built as 1-4 blocks of rows of one sense, some empty, each
    named by a list or a format, with columns added between the blocks
    and after them, the same rows added to a second LP as one block (its
    names the blocks' names in turn) after all its columns, and a point that
    may violate rows and bounds.  Rows may repeat a column or be empty.

    About half the blocks hold 1-3 scenarios: random survivor masks over the
    leading columns and random live and implied masks over the template rows.
    The second LP gets their rows as the literal loop spells them out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sense = str(rng.choice(["<=", ">=", "="]))
    blocks, single = LpProblem(), LpProblem()
    cols, vals, indptr, rhs, names, marks = [], [], [0], [], [], []

    def add_columns(k):
        blocks.add_vars([f"x{blocks.n_vars + j}" for j in range(k)],
                        rng.choice([0.0, -1.0, -np.inf], k), rng.choice([1.0, 4.0, np.inf], k))

    for b in range(int(rng.integers(1, 5))):
        add_columns(int(rng.integers(0 if b else 1, 3)))
        m = int(rng.integers(0, 4))
        rows = [(rng.integers(0, blocks.n_vars, k).tolist(),
                 rng.choice([-2.5, -1.0, 0.5, 1.0, 3.0], k).tolist())
                for k in rng.integers(0, 4, m)]
        matrix = sp.csr_matrix((sum((v for _, v in rows), []), sum((c for c, _ in rows), []),
                                np.cumsum([0] + [len(c) for c, _ in rows])),
                               shape=(m, blocks.n_vars))
        block_rhs = rng.choice([-1.0, 0.0, 1.0, 2.5], m)
        alive, live, scenarios = np.ones((1, 0), dtype=bool), np.ones((1, m), dtype=bool), {}
        if rng.random() < 0.5:
            n_scen, n_lead = int(rng.integers(1, 4)), int(rng.integers(0, blocks.n_vars + 1))
            alive, live = rng.random((n_scen, n_lead)) < 0.6, rng.random((n_scen, m)) < 0.7
            scenarios = dict(alive=alive, live=live)
        block_marks = rng.random(live.shape) < 0.3
        block_names = (f"b{b}_r{{1}}_q{{0}}" if rng.random() < 0.5
                       else [str(rng.choice(["", f"b{b}_{i}"])) for i in range(live.sum())])
        blocks.add_rows(matrix, sense, block_rhs, block_names,
                        implied=block_marks if scenarios else block_marks[0], **scenarios)
        for q, i in zip(*np.nonzero(live)):
            kept = [(c, v) for c, v in zip(*rows[i]) if c >= alive.shape[1] or alive[q, c]]
            cols += [c for c, _ in kept]
            vals += [v for _, v in kept]
            indptr.append(len(cols))
            rhs.append(block_rhs[i])
            marks.append(block_marks[q, i])
        names += ([block_names.format(q, i) for q, i in zip(*np.nonzero(live))]
                  if isinstance(block_names, str) else block_names)
    add_columns(int(rng.integers(0, 2)))
    single.add_vars(list(blocks.var_names), blocks.lower, blocks.upper)
    single.add_rows(sp.csr_matrix((vals, cols, indptr), shape=(len(rhs), single.n_vars)),
                    sense, rhs, names, implied=marks)
    x = rng.choice([-2.0, -0.5, 0.0, 2e-6, 1.0, 3.0, 5.0], blocks.n_vars)
    return blocks, single, x


@settings(PROPERTY, max_examples=200)
@given(block_stores())
def test_a_block_store_reads_as_its_rows_in_one_block(case):
    blocks, single, x = case
    names = row_names(blocks)  # the list, format and empty blocks' names in turn
    assert type(names) is list and names == row_names(single)
    names[:] = ["edited"]  # a new list on each read: editing one leaves the LP alone
    assert row_names(blocks) == row_names(single) != names
    assert implied(blocks).tolist() == implied(single).tolist()
    assert check_feasibility(blocks, x) == check_feasibility(single, x)
    assert write_lp_text(blocks) == write_lp_text(single)
    got, want = _standardize(blocks), _standardize(single)
    assert (got is None) == (want is None)
    if got is not None:
        (A, b, ineq), (B, c, eq) = got, want
        assert A.shape == B.shape
        for u, v in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data), (b, c),
                     (ineq, eq)):
            assert u.tolist() == v.tolist()
