import numpy as np
import pytest

from telab import (
    FixedTunnelPolicy,
    build_te_lp,
    build_tunnel_sets,
    build_ffc_lp,
    compute_metrics,
    enumerate_single_link_scenarios,
    solve_model,
)
from telab.harness import RESULT_COLUMNS, ResultRow
from telab.metrics import (
    METRIC_COLUMNS,
    critical_link_fraction,
    criticality_scores,
    link_utilization,
    network_criticality,
)
from telab.temodels import TeSolution
from conftest import make_tm, make_topology, random_te_instance


def _manual_solution(topo, ts, delivered, rates):
    rates = np.asarray(rates, dtype=float)
    loads = np.asarray(ts.incidence.T @ rates).ravel()
    return TeSolution(np.asarray(delivered, dtype=float), rates, loads, 0.0)


def test_link_utilization_basics():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    tm = make_tm(topo, [("a", "b", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = solve_model(build_te_lp(topo, tm, ts))
    u = link_utilization(sol, topo)
    assert u[0] == pytest.approx(0.5)
    assert u[1] == 0.0


def test_criticality_single_demand_two_arc_tunnel():
    # one demand b=5 on a 2-arc tunnel with utilizations 0.5 and 0.25:
    # the more loaded arc takes the whole score 5/|F| = 5
    topo = make_topology(["a", "b", "c"], [("a", "b", 10), ("b", "c", 20)])
    tm = make_tm(topo, [("a", "c", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = _manual_solution(topo, ts, [5.0], [5.0])
    u = link_utilization(sol, topo)
    assert u[0] == pytest.approx(0.5) and u[2] == pytest.approx(0.25)
    s = criticality_scores(sol, ts, u)
    assert s[0] == pytest.approx(5.0, abs=1e-12)
    assert s.sum() == pytest.approx(5.0, abs=1e-12)
    assert network_criticality(s, u) == pytest.approx(10.0, abs=1e-9)
    assert critical_link_fraction(s, topo) == pytest.approx(1 / topo.n_arcs)


def test_criticality_two_demands_shared_bottleneck():
    # both demands' flows cross the same saturated arc: S = (4+6)/2 = 5 there
    topo = make_topology(
        ["a", "b", "c", "d"],
        [("a", "b", 100), ("c", "b", 100), ("b", "d", 10)],
    )
    tm = make_tm(topo, [("a", "d", 4.0), ("c", "d", 6.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = _manual_solution(topo, ts, [4.0, 6.0], [4.0, 6.0])
    u = link_utilization(sol, topo)
    s = criticality_scores(sol, ts, u)
    shared = topo.arc_by_endpoints[(topo.index_of("b"), topo.index_of("d"))]
    assert u[shared] == pytest.approx(1.0)
    assert s[shared] == pytest.approx(5.0, abs=1e-12)
    assert s.sum() == pytest.approx(5.0, abs=1e-12)


def test_criticality_zero_tm():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    tm = make_tm(topo, [("a", "b", 0.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = _manual_solution(topo, ts, [0.0], [0.0])
    u = link_utilization(sol, topo)
    s = criticality_scores(sol, ts, u)
    assert s.sum() == 0.0
    assert network_criticality(s, u) == 0.0
    assert critical_link_fraction(s, topo) == 0.0


def test_criticality_tie_breaks_to_smallest_arc_id():
    topo = make_topology(["a", "b", "c"], [("a", "b", 10), ("b", "c", 10)])
    tm = make_tm(topo, [("a", "c", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = _manual_solution(topo, ts, [5.0], [5.0])
    u = link_utilization(sol, topo)
    assert u[0] == u[2]  # both arcs equally utilized
    s = criticality_scores(sol, ts, u)
    assert s[0] == pytest.approx(5.0) and s[2] == 0.0


def test_criticality_near_tie_goes_to_smallest_arc_id():
    # arc a->b is one ulp wider than arc b->c, so its utilization is one
    # rounding step below 1.0; the two tie within FLOW_EPS
    topo = make_topology(["a", "b", "c"], [("a", "b", np.nextafter(10.0, 11.0)), ("b", "c", 10)])
    tm = make_tm(topo, [("a", "c", 10.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = _manual_solution(topo, ts, [10.0], [10.0])
    u = link_utilization(sol, topo)
    assert u[0] < u[2] == 1.0
    s = criticality_scores(sol, ts, u)
    assert s[0] == pytest.approx(10.0) and s[2] == 0.0


def test_score_mass_identity_on_random_solutions():
    rng = np.random.default_rng(21)
    for _ in range(8):
        topo, tm, ts = random_te_instance(rng)
        sol = solve_model(build_te_lp(topo, tm, ts))
        mr = compute_metrics(sol, tm, ts, topo)
        positive = sol.delivered[sol.delivered > 1e-9].sum()
        assert mr.criticality_scores.sum() == pytest.approx(positive / tm.n, rel=1e-9, abs=1e-12)
        util = mr.link_utilizations
        assert np.all(util[mr.criticality_scores > 0] > 0)


def test_scaling_rates_keeps_ratio_terms():
    # halving every rate and delivery halves S and U, leaving each S/U term fixed
    topo = make_topology(["a", "b", "c"], [("a", "b", 10), ("b", "c", 20)])
    tm = make_tm(topo, [("a", "c", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    full = _manual_solution(topo, ts, [5.0], [5.0])
    half = _manual_solution(topo, ts, [2.5], [2.5])
    r_full = network_criticality(
        criticality_scores(full, ts, link_utilization(full, topo)), link_utilization(full, topo))
    r_half = network_criticality(
        criticality_scores(half, ts, link_utilization(half, topo)), link_utilization(half, topo))
    assert r_full == pytest.approx(r_half, rel=1e-12)


def test_compute_metrics_te_satisfied():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    tm = make_tm(topo, [("a", "b", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = solve_model(build_te_lp(topo, tm, ts))
    mr = compute_metrics(sol, tm, ts, topo)
    assert mr.unmet_flow_ratio == 0.0
    assert mr.unmet_demands_ratio == 0.0
    assert mr.overprovisioning_ratio == 0.0
    assert mr.mean_utility == pytest.approx(0.25)
    assert mr.used_tunnel_ratio == pytest.approx(1.0)


def test_compute_metrics_ffc_diamond(diamond_topo, diamond_tm):
    ts = build_tunnel_sets(diamond_topo, diamond_tm, FixedTunnelPolicy(5))
    scen = enumerate_single_link_scenarios(diamond_topo)
    sol = solve_model(build_ffc_lp(diamond_topo, diamond_tm, ts, scen))
    mr = compute_metrics(sol, diamond_tm, ts, diamond_topo)
    assert mr.overprovisioning_ratio == pytest.approx(1.0, abs=1e-9)
    assert mr.unmet_flow_ratio == pytest.approx(0.0, abs=1e-9)
    assert mr.unmet_demands_ratio == 0.0
    assert mr.used_tunnel_ratio == 1.0


def test_compute_metrics_zero_tm():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    tm = make_tm(topo, [("a", "b", 0.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = solve_model(build_te_lp(topo, tm, ts))
    mr = compute_metrics(sol, tm, ts, topo)
    for col in METRIC_COLUMNS:
        if col != "solver_time":
            assert getattr(mr, col) == 0.0


def test_partial_delivery_ratios():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    tm = make_tm(topo, [("a", "b", 15.0), ("b", "a", 2.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    sol = solve_model(build_te_lp(topo, tm, ts))
    mr = compute_metrics(sol, tm, ts, topo)
    assert mr.unmet_flow_ratio == pytest.approx(5.0 / 17.0)
    assert mr.unmet_demands_ratio == pytest.approx(0.5)


def test_used_tunnel_ratio_vertex_vs_spread():
    # ample capacity: an even spread across both paths stays feasible and
    # uses every precomputed tunnel, an upper bound a vertex solution obeys
    topo = make_topology(
        ["a", "b", "c", "d"],
        [("a", "b", 20), ("b", "d", 20), ("a", "c", 20), ("c", "d", 20)],
    )
    tm = make_tm(topo, [("a", "d", 10.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(5))
    vertex = solve_model(build_te_lp(topo, tm, ts))
    spread = _manual_solution(topo, ts, [10.0], [5.0, 5.0])
    assert np.all(spread.arc_loads <= topo.capacities() + 1e-9)
    mr_vertex = compute_metrics(vertex, tm, ts, topo)
    mr_spread = compute_metrics(spread, tm, ts, topo)
    assert mr_spread.used_tunnel_ratio == 1.0
    assert mr_vertex.used_tunnel_ratio <= mr_spread.used_tunnel_ratio
    assert mr_vertex.used_tunnel_ratio == pytest.approx(0.5)


def test_more_tunnels_reduce_critical_links_on_imbalanced_tm(b4_topo):
    # sparse long-tail matrix where bottlenecks concentrate; with more
    # precomputed tunnels the critical set shrinks
    rng = np.random.default_rng(2)
    n_dem = int(rng.integers(12, 30))
    pairs = set()
    while len(pairs) < n_dem:
        s, t = rng.integers(0, 12, 2)
        if s != t:
            pairs.add((int(s), int(t)))
    vols = rng.lognormal(3.0, 1.5, len(pairs))
    names = b4_topo.node_ids
    tm = make_tm(b4_topo, [(names[a], names[b], float(v)) for (a, b), v in zip(sorted(pairs), vols)])
    frac = {}
    for k in (3, 5):
        ts = build_tunnel_sets(b4_topo, tm, FixedTunnelPolicy(k))
        sol = solve_model(build_te_lp(b4_topo, tm, ts))
        frac[k] = compute_metrics(sol, tm, ts, b4_topo).critical_link_fraction
    assert frac[5] < frac[3]


def test_ratio_couplings_on_random_solutions():
    rng = np.random.default_rng(33)
    for _ in range(8):
        topo, tm, ts = random_te_instance(rng)
        sol = solve_model(build_te_lp(topo, tm, ts))
        mr = compute_metrics(sol, tm, ts, topo)
        if sol.delivered.sum() > 1e-9:
            assert 0.0 < mr.used_tunnel_ratio <= 1.0
        if mr.unmet_flow_ratio == 0.0:
            assert mr.unmet_demands_ratio == 0.0
        assert 0.0 <= mr.unmet_flow_ratio <= 1.0
        assert 0.0 <= mr.unmet_demands_ratio <= 1.0
        assert mr.overprovisioning_ratio >= 0.0


def test_histogram_majority_underutilized_on_te(b4_topo, b4_tm):
    # at a moderate load level (TE mean utility near 25%, like the low-load
    # regime the shipped matrix was sized against) most arcs sit under 30%
    from telab import scale_tm

    tm = scale_tm(b4_tm, 0.5)
    ts = build_tunnel_sets(b4_topo, tm, FixedTunnelPolicy(5))
    sol = solve_model(build_te_lp(b4_topo, tm, ts))
    mr = compute_metrics(sol, tm, ts, b4_topo)
    assert mr.mean_utility < 0.3
    assert (mr.link_utilizations < 0.3).sum() > b4_topo.n_arcs / 2


def test_report_serialization_shapes(b4_topo, b4_tm):
    ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(3))
    sol = solve_model(build_te_lp(b4_topo, b4_tm, ts))
    mr = compute_metrics(sol, b4_tm, ts, b4_topo)
    doc = mr.to_json_dict()
    assert set(METRIC_COLUMNS) <= set(doc)
    assert len(doc["link_utilizations"]) == b4_topo.n_arcs
    row = ResultRow(model="te", policy="fixed:3", scale=1.0, seed=0, backend="bundled",
                    capacity_mode="", status="optimal", objective=0.0, variables=0,
                    constraints=0, build_time=0.0, metrics=mr, congestion_free="")
    record = row.as_record()
    assert list(record) == RESULT_COLUMNS
    assert [record[col] for col in METRIC_COLUMNS] == [doc[col] for col in METRIC_COLUMNS]
