import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from telab import (
    AdaptiveTunnelPolicy,
    FixedTunnelPolicy,
    LognormalFit,
    build_ffc_lp,
    build_te_lp,
    build_tunnel_sets,
    enumerate_single_link_scenarios,
    extract_solution,
    generate_lognormal_tm,
    scale_capacities,
    scale_tm,
    solve_model,
    verify_congestion_free,
)
from telab.errors import SolveError, ValidationError
from telab.lpcore import _standardize, check_feasibility, solve
from telab.temodels import (
    CAPACITY_MODE_ALL,
    CAPACITY_MODE_NORMAL_ONLY,
    TeSolution,
    build_calibration_lp,
    solution_from_dict,
    solution_to_dict,
)
from conftest import make_tm, make_topology, random_te_instance, syn_topology
from oracles import (add_constraint, ffc_implied_oracle, ffc_lp_oracle, implied, path_arcs,
                     row_names, vertex_enumeration_optimum, write_lp_text)


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
    assert implied(model.problem).tolist() == ffc_implied_oracle(topo, tm, ts, scen, "all")
    assert "del_f0_q0" in [name for name, m in zip(row_names(model.problem),
                                                   implied(model.problem)) if not m]
    assert solve_model(model).delivered.tolist() == [0.0, 0.0]


def test_ffc_builder_rejects_an_unknown_mode_and_a_set_without_the_normal_state(
        diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    with pytest.raises(ValidationError, match="unknown capacity mode 'some'"):
        build_ffc_lp(diamond_topo, diamond_tm, ts, scen, "some")
    for dead in (scen[1:], scen[:0]):
        with pytest.raises(ValidationError, match="must start with the normal state"):
            build_ffc_lp(diamond_topo, diamond_tm, ts, dead)


def test_extract_requires_optimal():
    topo, tm, ts = two_node()
    model = build_te_lp(topo, tm, ts)
    add_constraint(model.problem, [(0, 1.0)], ">=", 1e9)
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


def test_ffc_lps_ask_for_the_primal_simplex_and_the_rest_for_the_dual(b4_topo, b4_tm):
    ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(5))
    scen = enumerate_single_link_scenarios(b4_topo)
    for mode in (CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY):
        assert build_ffc_lp(b4_topo, b4_tm, ts, scen, mode).problem.simplex == "primal"
    assert build_te_lp(b4_topo, b4_tm, ts).problem.simplex == "dual"
    assert build_calibration_lp(b4_topo, b4_tm, ts).simplex == "dual"


def test_ffc_solve_on_scipy_emits_no_warning(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    model = build_ffc_lp(diamond_topo, diamond_tm, ts, scen)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_model(model, "scipy")
    assert verify_congestion_free(sol, ts, scen, diamond_topo).ok


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
    expect_scenarios = {a // 2 + 1
                        for a in path_arcs(diamond_topo, ts.paths[used])}
    assert {(v.kind, v.index) for v in report.violations} == {("delivery", 0)}
    assert {v.scenario for v in report.violations} == expect_scenarios
    assert all(v.amount == pytest.approx(10.0, abs=1e-6) for v in report.violations)


def test_verify_reports_injected_capacity_fault(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    sol = solve_model(build_ffc_lp(diamond_topo, diamond_tm, ts, scen))
    rates = sol.tunnel_rates.copy()
    rates[0] += 5.0  # push one tunnel past the 10-unit arcs it crosses
    tampered = TeSolution(sol.delivered, rates, sol.arc_loads, sol.solve_time)
    report = verify_congestion_free(tampered, ts, scen, diamond_topo)
    cap_violations = [v for v in report.violations if v.kind == "capacity"]
    assert {v.index for v in cap_violations if v.scenario == 0} == set(path_arcs(diamond_topo, ts.paths[0]))
    assert all(v.amount == pytest.approx(5.0, abs=1e-6) for v in cap_violations)


def test_solution_dump_lists_each_demands_tunnel_node_paths(diamond_topo, diamond_tm):
    ts = build_tunnel_sets(diamond_topo, diamond_tm, FixedTunnelPolicy(5))
    model = build_te_lp(diamond_topo, diamond_tm, ts)
    doc = solution_to_dict(solve_model(model), model)
    assert doc["demands"] == [{"src": "a", "dst": "d", "volume": 10.0}]
    assert doc["tunnels"] == [[["a", "b", "d"], ["a", "c", "d"]]]


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


# sha256 of json.dumps(solution_to_dict(...), indent=2) minus "solve_time", on
# the bundled backend at scale 1, recorded while the dump's model, policy,
# capacity mode and solution kind were still copied onto each TeSolution.  The
# B4 digest was re-recorded when the simplex's dense products became numpy
# sums, which round the same on every CPU.
DUMP_SHA256 = [
    ("diamond", "all", "c042194d4adb2f66f18ca0bb860a9f7a9ec2ea19048bd71cda78bf663a0d4fba"),
    ("b4", "te", "47711d42ecf882b5f97781de7ab6c1e815928bf9ad37ece884e305938638586e"),
]


@pytest.mark.parametrize("instance,kind,digest", DUMP_SHA256)
def test_solution_dump_is_pinned(b4_topo, b4_tm, diamond_topo, diamond_tm,
                                 instance, kind, digest):
    topo, tm = (b4_topo, b4_tm) if instance == "b4" else (diamond_topo, diamond_tm)
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(5))
    if kind == "te":
        model = build_te_lp(topo, tm, ts)
    else:
        model = build_ffc_lp(topo, tm, ts, enumerate_single_link_scenarios(topo), kind)
    doc = solution_to_dict(solve_model(model, "bundled"), model)
    del doc["solve_time"]
    assert hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest() == digest


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
    text = write_lp_text(model.problem, "te" if kind == "te" else "ffc")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the working LP the bundled simplex starts from, in equality form
# with one slack column per inequality row, (A | slacks, b, slack_of_row),
# recorded while implied rows were still found by a pairwise search over the
# built rows.  The builder's marks must give the same working rows, in the
# same order, so the bundled pivots stay pinned too.
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
    A, b, ineq = _standardize(model.problem)
    n_slack = int(ineq.sum())
    slack_of_row = np.full(len(b), -1)
    slack_of_row[ineq] = A.shape[1] + np.arange(n_slack)
    slacks = sp.csr_matrix((np.ones(n_slack), (np.flatnonzero(ineq), np.arange(n_slack))),
                           shape=(len(b), n_slack))
    A = sp.hstack([A, slacks], format="csc")
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


# ---------------------------------------------------------------------------
# Row names held as rules, and the memory one FFC solve takes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def syn24():
    """syn24 with the benchmark's lognormal matrix (mu 3, sigma 1.2, seed 7)."""
    topo = syn_topology(24)
    return topo, generate_lognormal_tm(topo, LognormalFit(3.0, 1.2, 0), 7)


def _instance(request, name):
    if name == "syn24":
        return request.getfixturevalue("syn24")
    return request.getfixturevalue(f"{name}_topo"), request.getfixturevalue(f"{name}_tm")


def _check_name_view(names, want):
    assert list(names) == want
    assert len(names) == len(want)
    assert [names[i] for i in range(0, len(want), 7)] == want[::7]
    assert (names[-1], names[-len(want)]) == (want[-1], want[0])
    with pytest.raises(IndexError):
        names[len(want)]
    with pytest.raises(IndexError):
        names[-len(want) - 1]


@pytest.mark.parametrize("capacity_mode", [CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY])
@pytest.mark.parametrize("instance", ["diamond", "b4", "syn24"])
def test_ffc_row_name_rules_give_the_eager_names(request, instance, capacity_mode):
    topo, tm = _instance(request, instance)
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(4))
    scen = enumerate_single_link_scenarios(topo)
    prob = build_ffc_lp(topo, tm, ts, scen, capacity_mode).problem
    want = row_names(ffc_lp_oracle(topo, tm, ts, scen, capacity_mode))
    assert len(want) == prob.n_constraints
    _check_name_view(row_names(prob), want)


def test_te_and_calibration_row_names(b4_topo, b4_tm):
    ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(4))
    want = ([f"cap_e{e}" for e in range(b4_topo.n_arcs)]
            + [f"del_f{f}" for f in range(b4_tm.n)])
    for prob in (build_te_lp(b4_topo, b4_tm, ts).problem,
                 build_calibration_lp(b4_topo, b4_tm, ts)):
        _check_name_view(row_names(prob), want)


def test_recheck_names_the_violated_rows_of_later_blocks(diamond_topo, diamond_tm):
    ts, scen = diamond_setup(diamond_topo, diamond_tm)
    prob = build_ffc_lp(diamond_topo, diamond_tm, ts, scen).problem
    start = prob.add_rows(sp.csr_matrix(([1.0, 1.0], [0, 1], [0, 1, 2]),
                                        shape=(2, prob.n_vars)), ">=", [1.0, 2.0], ["", "late"])
    x = np.zeros(prob.n_vars)
    x[ts.total] = 1.0  # demand 0 delivers 1 on no tunnel: every del_f0_q* row fails
    issues = check_feasibility(prob, x)
    assert issues == ([f"row del_f0_q{q}: lhs -1.0 >= rhs 0.0 violated" for q in range(scen.shape[0])]
                      + [f"row {start}: lhs 0.0 >= rhs 1.0 violated",
                         "row late: lhs 0.0 >= rhs 2.0 violated"])
    assert row_names(prob)[start + 1] == "late"


def _traced_peak_mb(fn) -> float:
    """Peak of the Python heap traced during one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Traced peaks of one call on syn24 (fixed:4; the build and verify on
# normal_only, the re-check on the larger all-mode LP, at x = 0).  Measured
# with numpy 2.4 at 1.66, 0.29 and 0.30 MiB; each bound adds about a third
# for other numpy versions.  Built as literal CSR rows and re-checked a whole
# block at a time, the rows peaked at 2.26 MiB in the build and 1.11 MiB in
# the re-check; named by a string per row, with stacked dense copies and |a|
# tested through a copy, at 4.09 and 3.90 MiB.
MEMORY_BOUNDS_MB = {"build": 2.21, "verify": 0.6, "recheck": 0.4}


@pytest.fixture(scope="module")
def syn24_calls(syn24):
    topo, tm = syn24
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(4))
    scen = enumerate_single_link_scenarios(topo)
    sol = TeSolution(np.zeros(tm.n), np.zeros(ts.total), np.zeros(topo.n_arcs), 0.0)
    prob = build_ffc_lp(topo, tm, ts, scen, CAPACITY_MODE_ALL).problem
    x = np.zeros(prob.n_vars)
    return {"build": lambda: build_ffc_lp(topo, tm, ts, scen, CAPACITY_MODE_NORMAL_ONLY),
            "verify": lambda: verify_congestion_free(sol, ts, scen, topo),
            "recheck": lambda: check_feasibility(prob, x)}


@pytest.mark.parametrize("name", sorted(MEMORY_BOUNDS_MB))
def test_ffc_solve_steps_stay_within_their_memory_bounds(syn24_calls, name):
    syn24_calls[name]()  # first-call caches out of the way
    assert _traced_peak_mb(syn24_calls[name]) <= MEMORY_BOUNDS_MB[name]
