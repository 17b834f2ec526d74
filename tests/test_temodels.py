import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from telab import (
    AdaptiveTunnelPolicy,
    FixedTunnelPolicy,
    build_ffc_lp,
    build_te_lp,
    build_tunnel_sets,
    enumerate_single_link_scenarios,
    extract_solution,
    scale_capacities,
    scale_tm,
    solve_model,
    verify_congestion_free,
)
from telab.errors import SolveError
from telab.lpcore import _standardize, solve, write_lp_text
from telab.temodels import (
    CAPACITY_MODE_ALL,
    CAPACITY_MODE_NORMAL_ONLY,
    TeSolution,
    solution_from_dict,
    solution_to_dict,
)
from conftest import make_tm, make_topology, random_te_instance
from oracles import ffc_implied_oracle, path_arcs, vertex_enumeration_optimum


def two_node(capacity=10.0, demand=5.0):
    topo = make_topology(["a", "b"], [("a", "b", capacity)])
    tm = make_tm(topo, [("a", "b", demand)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    return topo, tm, ts


def diamond_setup(diamond_topo, diamond_tm):
    ts = build_tunnel_sets(diamond_topo, diamond_tm, FixedTunnelPolicy(5))
    scen = enumerate_single_link_scenarios(diamond_topo)
    return ts, scen


def test_te_unconstrained_demand():
    topo, tm, ts = two_node(capacity=10, demand=5)
    sol = solve_model(build_te_lp(topo, tm, ts))
    assert sol.delivered[0] == pytest.approx(5.0, abs=1e-9)


def test_te_capacity_bound():
    topo, tm, ts = two_node(capacity=10, demand=15)
    sol = solve_model(build_te_lp(topo, tm, ts))
    assert sol.delivered[0] == pytest.approx(10.0, abs=1e-9)
    assert sol.tunnel_rates[0] == pytest.approx(10.0, abs=1e-9)


def test_te_optimum_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 8:
        topo, tm, ts = random_te_instance(rng, max_nodes=5, max_demands=3, max_tunnels=2)
        model = build_te_lp(topo, tm, ts)
        if model.problem.n_vars > 9:
            continue
        want = vertex_enumeration_optimum(model.problem)
        sol = solve(model.problem)
        assert want is not None and sol.status == "optimal"
        assert sol.objective == pytest.approx(want, rel=1e-6, abs=1e-8)
        checked += 1


def test_te_model_shape(b4_topo, b4_tm):
    ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(5))
    model = build_te_lp(b4_topo, b4_tm, ts)
    assert model.meta.n_vars == ts.total + b4_tm.n
    assert model.meta.n_constraints == b4_topo.n_arcs + b4_tm.n


def test_empty_tunnel_set_forces_zero_delivery_te():
    topo = make_topology(["a", "b", "c", "d"], [("a", "b", 5), ("c", "d", 5)])
    tm = make_tm(topo, [("a", "c", 7.0), ("a", "b", 2.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(2))
    sol = solve_model(build_te_lp(topo, tm, ts))
    assert sol.delivered[0] == 0.0
    assert sol.delivered[1] == pytest.approx(2.0)


def test_ffc_marks_keep_the_normal_row_of_an_unroutable_demand():
    # no scenario kills a tunnel of the demand with none, so only its first row stays
    topo = make_topology(["a", "b", "c", "d"], [("a", "b", 5), ("c", "d", 5)])
    tm = make_tm(topo, [("a", "c", 7.0), ("a", "b", 2.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(2))
    scen = enumerate_single_link_scenarios(topo)
    model = build_ffc_lp(topo, tm, ts, scen)
    assert model.problem.implied.tolist() == ffc_implied_oracle(topo, tm, ts, scen, "all")
    assert "del_f0_q0" in [name for name, m in zip(model.problem.row_names,
                                                   model.problem.implied) if not m]
    assert solve_model(model).delivered.tolist() == [0.0, 0.0]


def test_extract_requires_optimal():
    topo, tm, ts = two_node()
    model = build_te_lp(topo, tm, ts)
    model.problem.add_constraint([(0, 1.0)], ">=", 1e9)
    lp_sol = solve(model.problem)
    with pytest.raises(SolveError):
        extract_solution(lp_sol, model)


def test_extract_zero_tm():
    topo, tm, ts = two_node(demand=0.0)
    sol = solve_model(build_te_lp(topo, tm, ts))
    assert sol.delivered.sum() == 0.0
    assert sol.tunnel_rates.sum() == 0.0
    assert sol.arc_loads.sum() == 0.0


def test_loads_double_counting_identity():
    rng = np.random.default_rng(8)
    for _ in range(8):
        topo, tm, ts = random_te_instance(rng)
        sol = solve_model(build_te_lp(topo, tm, ts))
        hops = np.array([len(p) - 1 for p in ts.paths])
        assert sol.arc_loads.sum() == pytest.approx(float(sol.tunnel_rates @ hops), abs=1e-8)


def test_ffc_diamond_full_duplication(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    sol = solve_model(build_ffc_lp(diamond_topo, diamond_tm, ts, scen))
    assert sol.delivered[0] == pytest.approx(10.0, abs=1e-9)
    assert sorted(sol.tunnel_rates) == pytest.approx([10.0, 10.0], abs=1e-9)


def test_ffc_bridge_forces_zero_while_te_delivers():
    # a-b is a bridge: its failure disconnects the pair entirely
    topo = make_topology(["a", "b", "c"], [("a", "b", 10), ("b", "c", 10)])
    tm = make_tm(topo, [("a", "c", 4.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(3))
    scen = enumerate_single_link_scenarios(topo)
    te = solve_model(build_te_lp(topo, tm, ts))
    ffc = solve_model(build_ffc_lp(topo, tm, ts, scen))
    assert te.delivered[0] == pytest.approx(4.0)
    assert ffc.delivered[0] == 0.0


def test_ffc_capacity_modes_equal_objective(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    obj = {}
    for mode in (CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY):
        sol = solve_model(build_ffc_lp(diamond_topo, diamond_tm, ts, scen, mode))
        obj[mode] = sol.delivered.sum()
    assert obj[CAPACITY_MODE_ALL] == pytest.approx(obj[CAPACITY_MODE_NORMAL_ONLY], rel=1e-6)


def test_ffc_capacity_modes_equal_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(6):
        topo, tm, ts = random_te_instance(rng, max_nodes=5, max_demands=3, max_tunnels=3)
        scen = enumerate_single_link_scenarios(topo)
        a = solve_model(build_ffc_lp(topo, tm, ts, scen, CAPACITY_MODE_ALL))
        b = solve_model(build_ffc_lp(topo, tm, ts, scen, CAPACITY_MODE_NORMAL_ONLY))
        assert a.delivered.sum() == pytest.approx(b.delivered.sum(), rel=1e-6, abs=1e-8)


def test_ffc_never_beats_te():
    rng = np.random.default_rng(13)
    for _ in range(8):
        topo, tm, ts = random_te_instance(rng)
        scen = enumerate_single_link_scenarios(topo)
        te = solve_model(build_te_lp(topo, tm, ts))
        ffc = solve_model(build_ffc_lp(topo, tm, ts, scen))
        assert ffc.delivered.sum() <= te.delivered.sum() + 1e-6 * max(1.0, te.delivered.sum())


def test_te_monotone_in_tunnel_count():
    rng = np.random.default_rng(4)
    for _ in range(6):
        topo, tm, _ = random_te_instance(rng)
        obj = []
        for k in (1, 2, 4):
            ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(k))
            obj.append(solve_model(build_te_lp(topo, tm, ts)).delivered.sum())
        assert obj[0] <= obj[1] + 1e-8 and obj[1] <= obj[2] + 1e-8


def test_lp_homogeneity():
    rng = np.random.default_rng(6)
    for _ in range(5):
        topo, tm, ts = random_te_instance(rng)
        base = solve_model(build_te_lp(topo, tm, ts)).delivered.sum()
        for factor in (0.5, 3.0):
            scaled = solve_model(
                build_te_lp(scale_capacities(topo, factor), scale_tm(tm, factor), ts)
            ).delivered.sum()
            assert scaled == pytest.approx(factor * base, rel=1e-6, abs=1e-8)


def test_verify_passes_optimal_ffc(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    for backend in ("bundled", "scipy"):
        model = build_ffc_lp(diamond_topo, diamond_tm, ts, scen)
        sol = solve_model(model, backend)
        assert verify_congestion_free(sol, ts, scen, diamond_topo).ok


def test_verify_flags_unprotected_te_solution(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    te = solve_model(build_te_lp(diamond_topo, diamond_tm, ts))
    report = verify_congestion_free(te, ts, scen, diamond_topo)
    assert not report.ok
    # the single used path dies in the two scenarios failing its links
    used = next(t for t in range(ts.total) if te.tunnel_rates[t] > 0)
    expect_scenarios = {diamond_topo.arcs[a].pair_id + 1
                        for a in path_arcs(diamond_topo, ts.paths[used])}
    assert {(v.kind, v.index) for v in report.violations} == {("delivery", 0)}
    assert {v.scenario for v in report.violations} == expect_scenarios
    assert all(v.amount == pytest.approx(10.0, abs=1e-6) for v in report.violations)


def test_verify_reports_injected_capacity_fault(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    sol = solve_model(build_ffc_lp(diamond_topo, diamond_tm, ts, scen))
    rates = sol.tunnel_rates.copy()
    rates[0] += 5.0  # push one tunnel past the 10-unit arcs it crosses
    tampered = TeSolution(sol.delivered, rates, sol.arc_loads, sol.solve_time,
                          sol.solution_kind, sol.meta)
    report = verify_congestion_free(tampered, ts, scen, diamond_topo)
    cap_violations = [v for v in report.violations if v.kind == "capacity"]
    assert {v.index for v in cap_violations if v.scenario == 0} == set(path_arcs(diamond_topo, ts.paths[0]))
    assert all(v.amount == pytest.approx(5.0, abs=1e-6) for v in cap_violations)


def test_solution_dump_roundtrip(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    model = build_ffc_lp(diamond_topo, diamond_tm, ts, scen)
    sol = solve_model(model)
    doc = solution_to_dict(sol, model, scale=1.0)
    sol2, ts2, tm2 = solution_from_dict(doc, diamond_topo)
    assert np.allclose(sol2.delivered, sol.delivered)
    assert np.allclose(sol2.tunnel_rates, sol.tunnel_rates)
    assert np.allclose(sol2.arc_loads, sol.arc_loads)
    assert tm2 == diamond_tm
    assert verify_congestion_free(sol2, ts2, scen, diamond_topo).ok


# sha256 of write_lp_text for the shipped instances, recorded before the LP rows
# moved from per-coefficient tuples to one sparse store.  Byte-identical LP text
# pins the bundled simplex's pivots, results.csv and the HiGHS input.
LP_TEXT_SHA256 = [
    ("b4", "fixed:5", "te",
     "3541a3b6991c7dd172d3effc6c8ba5acd6ded5ccaa863cfc42233986e7f1a4c8"),
    ("b4", "fixed:5", "all",
     "8dbd6dd6139b89e588917c6ea4e1e226620f1f78f776796bad98f206994d67d7"),
    ("b4", "fixed:5", "normal_only",
     "fe3adc611a77aa739ec7de6e308652472d255167ccd53acd93792d395a3831c3"),
    ("b4", "adaptive", "te",
     "9e3f3c7f79613ef3fec5777929d100fb7286fc409963b7e7bfda97b66dd3a1aa"),
    ("b4", "adaptive", "all",
     "a7878fbea644de28ad048144d6940e2ba5ab7c4df66819864397ba8265c51d0c"),
    ("b4", "adaptive", "normal_only",
     "19b9308d8143975ad5d86eccd4be05b9d70cfcd7ba741712d04d0a3301549a5f"),
    ("diamond", "fixed:5", "te",
     "97b604ed5709845969f04097241c40593632693b1a892cc4ff3f62d931f9d025"),
    ("diamond", "fixed:5", "all",
     "261ecde9a72ceb570eaac6052d80518bddf368e379991a015fad7504660f782c"),
    ("diamond", "fixed:5", "normal_only",
     "e92b85fafdb66bf12a7885050da3cfdbd6bc96b61b0f59562fb06d17034ad761"),
]


@pytest.mark.parametrize("instance,policy,kind,digest", LP_TEXT_SHA256)
def test_lp_text_is_pinned(b4_topo, b4_tm, diamond_topo, diamond_tm,
                           instance, policy, kind, digest):
    topo, tm = (b4_topo, b4_tm) if instance == "b4" else (diamond_topo, diamond_tm)
    pol = FixedTunnelPolicy(5) if policy == "fixed:5" else AdaptiveTunnelPolicy()
    ts = build_tunnel_sets(topo, tm, pol)
    if kind == "te":
        model = build_te_lp(topo, tm, ts)
    else:
        model = build_ffc_lp(topo, tm, ts, enumerate_single_link_scenarios(topo), kind)
    text = write_lp_text(model.problem)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the working LP the bundled simplex starts from, _standardize's
# (A, b, slack_of_row), recorded while implied rows were still found by a
# pairwise search over the built rows.  The builder's marks must give the same
# working rows, in the same order, so the bundled pivots stay pinned too.
WORKING_LP_SHA256 = [
    ("fixed:5", "te", "74c2d7d18e90d2e17b414b37f93939813bfb9b337550825616d622aa76828f78"),
    ("fixed:5", "all", "2223cc44f007be54f5290364341e9a442e2501cef76d69d5bccba2bf1fc77349"),
    ("fixed:5", "normal_only",
     "2223cc44f007be54f5290364341e9a442e2501cef76d69d5bccba2bf1fc77349"),
    ("adaptive", "te", "e3511cb44ad363f99de1dc8c3413647a4c60e2e8ebee586dfcd183d800036bec"),
    ("adaptive", "all", "7dea099aaff071781cb398aa6f6cbf63b58467819e6189f8f90d16a8d51bd8c8"),
    ("adaptive", "normal_only",
     "7dea099aaff071781cb398aa6f6cbf63b58467819e6189f8f90d16a8d51bd8c8"),
]


@pytest.mark.parametrize("policy,kind,digest", WORKING_LP_SHA256)
def test_working_lp_is_pinned(b4_topo, b4_tm, policy, kind, digest):
    pol = FixedTunnelPolicy(5) if policy == "fixed:5" else AdaptiveTunnelPolicy()
    ts = build_tunnel_sets(b4_topo, b4_tm, pol)
    if kind == "te":
        model = build_te_lp(b4_topo, b4_tm, ts)
    else:
        model = build_ffc_lp(b4_topo, b4_tm, ts, enumerate_single_link_scenarios(b4_topo), kind)
    A, b, slack_of_row = _standardize(model.problem)
    A = sp.csc_matrix(A)
    h = hashlib.sha256()
    for arr, dtype in ((np.array(A.shape), np.int64), (A.indptr, np.int64),
                       (A.indices, np.int64), (A.data, np.float64), (b, np.float64),
                       (slack_of_row, np.int64)):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    assert h.hexdigest() == digest


def test_capacity_modes_solve_the_same_rows_when_capacities_are_uniform():
    # A ring plus chords where every link has one capacity: thousands of
    # capacity rows share a right-hand side, which once switched the search
    # for implied rows off in ``all`` mode only.
    rng = np.random.default_rng(0)
    n = 24
    links = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    while len(links) < int(1.6 * n):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            links.add((min(u, v), max(u, v)))
    names = [f"n{i}" for i in range(n)]
    topo = make_topology(names, [(names[u], names[v], 500.0) for u, v in sorted(links)])
    tm = make_tm(topo, [(s, t, 1.0) for s in names for t in names if s != t])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(4))
    scen = enumerate_single_link_scenarios(topo)
    working = {mode: _standardize(build_ffc_lp(topo, tm, ts, scen, mode).problem)[0].shape[0]
               for mode in (CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY)}
    assert working[CAPACITY_MODE_ALL] == working[CAPACITY_MODE_NORMAL_ONLY]
