"""Property tests: the incidence-driven code against its scalar definitions.

Each property draws a small random topology, traffic matrix and tunnel set
(or a small random LP) and compares the vectorised result with the literal
loop from ``oracles.py``, in content and in order, or checks an invariant of
the TE and FFC models, the calibration LP or the file formats on it.
"""
import json

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
from telab.demands import tm_to_json
from telab.lpcore import (BACKENDS, OPTIMAL, LpProblem, NameRule, _Simplex, _standardize,
                          check_feasibility, solve)
from telab.metrics import criticality_scores, link_utilization
from telab.temodels import TeSolution
from telab.tunnels import surviving_tunnels
from oracles import (
    available_tunnels_oracle,
    calibrate_bisection_oracle,
    congestion_violations_oracle,
    criticality_scores_oracle,
    feasibility_issues_oracle,
    ffc_implied_oracle,
    ffc_lp_oracle,
    ffc_rows_oracle,
    le_rows,
    lp_rows,
    row_implies,
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
    assert prob.implied.tolist() == want.implied.tolist()
    assert prob.simplex == want.simplex
    # The oracle adds one block per scenario and kind: capacity, then delivery.
    cap, own = (blk.matrix for blk in prob._blocks)
    n_cap = len(want._blocks) - scen.shape[0]
    _assert_stacks(cap, [blk.matrix for blk in want._blocks[:n_cap]])
    _assert_stacks(own, [blk.matrix for blk in want._blocks[n_cap:]])


@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]))
def test_ffc_marks_follow_the_rule_and_an_unmarked_row_implies_each(inst, capacity_mode):
    topo, tm, ts, scen = inst
    prob = build_ffc_lp(topo, tm, ts, scen, capacity_mode).problem
    assert prob.implied.tolist() == ffc_implied_oracle(topo, tm, ts, scen, capacity_mode)
    A, b = le_rows(prob)
    lower, upper = np.array(prob.lower), np.array(prob.upper)
    kept = ~prob.implied
    for v in np.flatnonzero(prob.implied):
        assert row_implies(A[kept], b[kept], A[v], b[v], lower, upper).any(), prob.row_names[v]


@PROPERTY
@given(instances())
def test_capacity_modes_give_the_same_working_rows(inst):
    topo, tm, ts, scen = inst
    working = []
    for capacity_mode in ("all", "normal_only"):
        prob = build_ffc_lp(topo, tm, ts, scen, capacity_mode).problem
        A, b, ineq = _standardize(prob)
        working.append(([name for name, m in zip(prob.row_names, prob.implied) if not m],
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
    prob = LpProblem(name="h")
    for j in range(n):
        prob.add_var(f"x{j}", draw(st.sampled_from([0.0, -1.0, -np.inf])),
                     draw(st.sampled_from([1.0, 4.0, np.inf])))
    rows = []
    for i in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.tuples(st.integers(0, n - 1), _coef), max_size=4))
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        rhs = draw(st.sampled_from([0.0, -1.0, 1.0, 3.0]))
        name = draw(st.sampled_from(["", f"r{i}"]))
        prob.add_constraint(coeffs, sense, rhs, name)
        rows.append((coeffs, sense, rhs, name))
    x = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1e-7, 2e-6, 1.0, 3.0, 5.0]),
                               min_size=n, max_size=n)))
    return prob, rows, x


@st.composite
def mixed_lps(draw):
    """A seeded LP over free, half-bounded, boxed and fixed columns, with <=, >=
    and = rows whose right-hand sides are of order 1: most rows hold at a point
    inside the bounds, some by a margin that may be negative."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    prob = LpProblem(name="mixed")
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
    prob.set_objective([(j, float(v)) for j, v in enumerate(c)], maximize=bool(rng.random() < 0.5))
    return prob


def lp_from(bounds, rows, objective, maximize=True):
    """An LP from (lb, ub) per column, (coefficients, sense, rhs) per row and c."""
    prob = LpProblem(name="example")
    prob.add_vars([f"x{j}" for j in range(len(bounds))], *zip(*bounds))
    for i, (coeffs, sense, rhs) in enumerate(rows):
        prob.add_rows([coeffs], sense, [rhs], [f"r{i}"])
    prob.set_objective(list(enumerate(objective)), maximize)
    return prob


@settings(PROPERTY, max_examples=300)
@given(mixed_lps())
# Unbounded, and HiGHS's presolve calls it infeasible under either simplex strategy.
@example(lp_from([(-np.inf, np.inf), (-1, np.inf), (0, np.inf), (-4, 3), (-3, 3)],
                 [([-1, -2, 3, 1, 3], "<=", 5.5), ([-1, -2, 0, -2, 3], ">=", -6.8),
                  ([3, 0, 3, 3, 1], "<=", -3.2)], [0, 1, -1, 1, 1]))
# Infeasible, and HiGHS without its presolve ends in a solve error.
@example(lp_from([(-np.inf, 1), (-np.inf, -1), (0, np.inf), (-4, 2), (-1, 4), (-np.inf, 2)],
                 [([1, 1, 3, -2, 3, -1], "<=", -8209385979.323227),
                  ([-1, 3, 3, -2, 3, 3], ">=", 1584211778.2755697),
                  ([0, 0, -1, -1, -2, 3], ">=", 2443202482.9406223),
                  ([0, -1, 3, 3, 1, -1], "<=", -12727173559.312784)],
                 [1, -1, -1, 0, 1, 2], maximize=False))
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


@settings(PROPERTY, max_examples=300)
@given(lps_with_points())
def test_check_feasibility_matches_scalar_row_loop(case):
    prob, rows, x = case
    want = feasibility_issues_oracle(prob.var_names, prob.lower, prob.upper, rows, x)
    assert check_feasibility(prob, x) == want


@st.composite
def block_stores(draw):
    """A seeded LP built as 1-4 blocks of rows of one sense, some empty, each
    named by a list or a ``NameRule``, with columns added between the blocks
    and after them, the same rows added to a second LP as one block (its
    names the blocks' names in turn) after all its columns, and a point that
    may violate rows and bounds.  Rows may repeat a column or be empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sense = str(rng.choice(["<=", ">=", "="]))
    blocks, single = LpProblem(name="blocks"), LpProblem(name="blocks")
    cols, vals, indptr, rhs, names, marks = [], [], [0], [], [], []

    def add_columns(k):
        blocks.add_vars([f"x{blocks.n_vars + j}" for j in range(k)],
                        rng.choice([0.0, -1.0, -np.inf], k), rng.choice([1.0, 4.0, np.inf], k))

    for b in range(int(rng.integers(1, 5))):
        add_columns(int(rng.integers(0 if b else 1, 3)))
        m = int(rng.integers(0, 4))
        start = len(cols)
        for _ in range(m):
            k = int(rng.integers(0, 4))
            cols += rng.integers(0, blocks.n_vars, k).tolist()
            vals += rng.choice([-2.5, -1.0, 0.5, 1.0, 3.0], k).tolist()
            indptr.append(len(cols))
        matrix = sp.csr_matrix((vals[start:], cols[start:],
                                np.array(indptr[-m - 1:]) - start), shape=(m, blocks.n_vars))
        block_rhs = rng.choice([-1.0, 0.0, 1.0, 2.5], m)
        block_marks = rng.random(m) < 0.3
        block_names = (NameRule(f"b{b}_r{{1}}", (1, m)) if rng.random() < 0.5
                       else [str(rng.choice(["", f"b{b}_{i}"])) for i in range(m)])
        blocks.add_rows(matrix, sense, block_rhs, block_names, implied=block_marks)
        rhs += block_rhs.tolist()
        names += list(block_names)
        marks += block_marks.tolist()
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
    names = blocks.row_names  # the list, NameRule and empty blocks' names in turn
    assert type(names) is list and names == single.row_names
    names[:] = ["edited"]  # a new list on each read: editing one leaves the LP alone
    assert blocks.row_names == single.row_names != names
    assert blocks.implied.tolist() == single.implied.tolist()
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
