"""Property tests: the incidence-driven code against its scalar definitions.

Each property draws a small random topology, traffic matrix and tunnel set
(or a small random LP) and compares the vectorised result with the literal
loop from ``oracles.py``, in content and in order, or checks an invariant of
the TE and FFC models, the calibration LP or the file formats on it.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    serialize_topology,
    solve_model,
    verify_congestion_free,
)
from telab.demands import tm_to_json
from telab.lpcore import BACKENDS, LpProblem, _standardize, check_feasibility
from telab.metrics import criticality_scores, link_utilization
from telab.temodels import ModelMeta, TeSolution
from telab.tunnels import available_tunnels
from oracles import (
    available_tunnels_oracle,
    calibrate_bisection_oracle,
    congestion_violations_oracle,
    criticality_scores_oracle,
    feasibility_issues_oracle,
    ffc_implied_oracle,
    ffc_rows_oracle,
    le_rows,
    lp_rows,
    row_implies,
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
def test_available_tunnels_match_scalar_filter(inst):
    topo, _, ts, scen = inst
    for q in range(scen.n):
        assert available_tunnels(ts, scen, q) == available_tunnels_oracle(topo, ts, q)


@PROPERTY
@given(instances())
def test_tunnel_paths_match_yen(inst):
    topo, tm, ts, _ = inst
    for d in tm.demands:
        want = yen_oracle(topo, d.src, d.dst, 4)
        assert k_shortest_paths(topo, d.src, d.dst, 4) == want
        ids = ts.by_demand[d.id]
        assert [ts.paths[t] for t in ids] == want[:len(ids)]


@PROPERTY
@given(instances(), st.sampled_from(["all", "normal_only"]))
def test_ffc_rows_match_literal_builder(inst, capacity_mode):
    topo, tm, ts, scen = inst
    model = build_ffc_lp(topo, tm, ts, scen, capacity_mode)
    assert lp_rows(model.problem) == ffc_rows_oracle(topo, tm, ts, scen, capacity_mode)


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
        A, b, slack_of_row = _standardize(prob)
        working.append(([name for name, m in zip(prob.row_names, prob.implied) if not m],
                        A.toarray().tolist(), b.tolist(), slack_of_row.tolist()))
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
    routable = sum(d.volume for d in tm.demands if ts.by_demand[d.id])
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
    assert parse_topology(serialize_topology(topo)) == topo
    assert parse_tm(tm_to_json(tm, topo), topo) == tm


@PROPERTY
@given(instances(), st.data())
def test_verify_violations_match_scalar_loop(inst, data):
    topo, tm, ts, scen = inst
    rates = np.array(data.draw(st.lists(st.floats(0.0, 25.0), min_size=ts.total,
                                        max_size=ts.total)), dtype=float)
    delivered = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=tm.n,
                                            max_size=tm.n)), dtype=float)
    sol = TeSolution(delivered, rates, ts.incidence.T @ rates, 0.0, "vertex",
                     ModelMeta("ffc", ts.policy, "all", scen.n, 0, 0))
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
    sol = TeSolution(delivered, rates, ts.incidence.T @ rates, 0.0, "vertex",
                     ModelMeta("te", ts.policy, None, 1, 0, 0))
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


@settings(PROPERTY, max_examples=300)
@given(lps_with_points())
def test_check_feasibility_matches_scalar_row_loop(case):
    prob, rows, x = case
    want = feasibility_issues_oracle(prob.var_names, prob.lower, prob.upper, rows, x)
    assert check_feasibility(prob, x) == want
