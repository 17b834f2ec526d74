"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The exact benchmark demand trace and the commercial solvers behind the
published tables are not available, so the numeric headline values are not
reproduction targets; the criteria check properties (oracle agreement,
congestion-free soundness, dominance, identities, determinism) and the
qualitative trends on the shipped instances at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they execute.
"""
import csv
import io
import json
import math
import time

import numpy as np
import pytest

from telab import (
    AdaptiveTunnelPolicy,
    FixedTunnelPolicy,
    LognormalFit,
    build_ffc_lp,
    build_te_lp,
    build_tunnel_sets,
    calibrate_capacities,
    compute_metrics,
    enumerate_single_link_scenarios,
    fit_lognormal,
    generate_lognormal_tm,
    k_shortest_paths,
    run_experiment,
    scale_capacities,
    solve_model,
    verify_congestion_free,
)
from telab.harness import ExperimentConfig, TIMING_COLUMNS, rows_to_csv
from telab.lpcore import OPTIMAL, solve
from telab.metrics import criticality_scores, link_utilization, network_criticality
from telab.temodels import (
    CAPACITY_MODE_NORMAL_ONLY,
    solution_from_dict,
)
from conftest import DATA, make_tm, make_topology, random_te_instance
from oracles import ksp_oracle, vertex_enumeration_optimum

FIXED = "fixed:5"
ADAPTIVE = "adaptive:3-4-5"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures: calibrated shipped instance and its full sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def calibrated(b4_topo, b4_tm):
    ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(5))
    factor = calibrate_capacities(b4_topo, b4_tm, ts)
    return scale_capacities(b4_topo, factor), factor


@pytest.fixture(scope="session")
def b4_sweep(calibrated, tmp_path_factory):
    _, factor = calibrated
    out = tmp_path_factory.mktemp("b4_sweep")
    cfg = ExperimentConfig(
        topology=str(DATA / "b4.json"),
        tm=str(DATA / "b4_tm.json"),
        capacity_scale=factor,
        scales=[0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
        models=["te", "ffc"],
        policies=["fixed:5", "adaptive"],
        capacity_mode="all",
        out_dir=str(out),
    )
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, rows, elapsed, out


def by_coord(rows):
    return {(r.model, r.policy, r.scale): r for r in rows}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_lp_matches_vertex_enumeration():
    """Bundled-backend TE optima agree with exhaustive vertex enumeration."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 20:
        topo, tm, ts = random_te_instance(rng, max_nodes=6, max_demands=4, max_tunnels=3)
        model = build_te_lp(topo, tm, ts)
        prob = model.problem
        if prob.n_vars > 8:
            continue
        nonempty = int((np.diff(prob.rows()[0].indptr) > 0).sum())
        finite_bounds = sum(1 for lo in prob.lower if math.isfinite(lo)) + sum(
            1 for hi in prob.upper if math.isfinite(hi))
        if math.comb(nonempty + finite_bounds, prob.n_vars) > 400_000:
            continue
        want = vertex_enumeration_optimum(prob)
        sol = solve(prob, "bundled")
        assert want is not None and sol.status == OPTIMAL
        rel = abs(sol.objective - want) / max(1.0, abs(want))
        worst = max(worst, rel)
        assert rel <= 1e-6
        checked += 1
    elapsed = time.perf_counter() - t0
    report(1, checked >= 20 and elapsed < 10.0,
           f"{checked} instances vs vertex oracle, worst rel err {worst:.2e}, {elapsed:.1f}s (<10s)")


def test_criterion_02_congestion_free_soundness(b4_sweep, calibrated):
    """Every FFC sweep solve is congestion-free across all scenarios."""
    cfg, rows, elapsed, out = b4_sweep
    topo, _ = calibrated
    scen = enumerate_single_link_scenarios(topo)
    ffc_rows = [r for r in rows if r.model == "ffc"]
    assert len(ffc_rows) == 14
    ok = all(r.status == "optimal" and r.congestion_free == "pass" for r in ffc_rows)
    # independent re-verification from the dumped solutions
    recheck = 0
    for path in sorted((out / "solutions").glob("sol_ffc_*.json")):
        sol, ts, _tm = solution_from_dict(json.loads(path.read_text()), topo)
        rep = verify_congestion_free(sol, ts, scen, topo)
        ok = ok and rep.ok
        recheck += 1
    report(2, ok and recheck == 14 and elapsed < 120.0,
           f"14 FFC solves verified over {scen.shape[0]} scenarios (re-checked {recheck} dumps), "
           f"sweep took {elapsed:.1f}s (<120s)")


def test_criterion_03_ffc_dominance_and_overprovisioning(b4_sweep, diamond_topo, diamond_tm):
    """FFC never delivers more than TE and pays overprovisioning at scale 1."""
    _, rows, _, _ = b4_sweep
    table = by_coord(rows)
    dominance = all(
        table[("ffc", p, s)].objective
        <= table[("te", p, s)].objective * (1 + 1e-6) + 1e-9
        for p in (FIXED, ADAPTIVE)
        for s in (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    )
    b4_over = min(table[("ffc", p, 1.0)].metrics.overprovisioning_ratio for p in (FIXED, ADAPTIVE))

    ts = build_tunnel_sets(diamond_topo, diamond_tm, FixedTunnelPolicy(5))
    scen = enumerate_single_link_scenarios(diamond_topo)
    sol = solve_model(build_ffc_lp(diamond_topo, diamond_tm, ts, scen))
    diamond_over = compute_metrics(sol, diamond_tm, ts, diamond_topo).overprovisioning_ratio

    report(3, dominance and b4_over > 0 and diamond_over > 0,
           f"FFC<=TE at all 14 coordinates; overprovisioning at scale 1: "
           f"b4 {b4_over:.3f}, diamond {diamond_over:.3f} (both >0)")


def test_criterion_04_adaptive_tunnel_reduction(calibrated, b4_tm):
    """Adaptive preassignment cuts tunnel variables 20% and never slows solves."""
    topo, _ = calibrated
    ts_a = build_tunnel_sets(topo, b4_tm, AdaptiveTunnelPolicy())
    ts_5 = build_tunnel_sets(topo, b4_tm, FixedTunnelPolicy(5))
    n = b4_tm.n
    exact = ts_a.total == 4 * n and n % 3 == 0 and ts_5.total == 5 * n

    scen = enumerate_single_link_scenarios(topo)
    # 8 wins in 10 alternations: one noisy solve of 0.02-0.04 s weighs little,
    # and two equally fast policies would pass only about 5% of the time
    rounds = 10
    wins = 0
    times = []
    for _ in range(rounds):
        t_fixed = solve_model(
            build_ffc_lp(topo, b4_tm, ts_5, scen, CAPACITY_MODE_NORMAL_ONLY)).solve_time
        t_adaptive = solve_model(
            build_ffc_lp(topo, b4_tm, ts_a, scen, CAPACITY_MODE_NORMAL_ONLY)).solve_time
        times.append((t_adaptive, t_fixed))
        if t_adaptive <= t_fixed:
            wins += 1
    report(4, exact and wins >= 8,
           f"adaptive tunnel slots {ts_a.total} = 4*|F| vs fixed(5) {ts_5.total}; "
           f"adaptive solver faster in {wins}/{rounds} runs "
           f"(median {np.median([a for a, _ in times]):.2f}s vs {np.median([f for _, f in times]):.2f}s)")


def test_criterion_05_criticality_oracle(b4_sweep, calibrated):
    """Hand-solved score instances match exactly; score mass identity holds."""
    # instance A: single demand, two-arc tunnel, utilizations 0.5 and 0.25
    topo_a = make_topology(["a", "b", "c"], [("a", "b", 10), ("b", "c", 20)])
    tm_a = make_tm(topo_a, [("a", "c", 5.0)])
    ts_a = build_tunnel_sets(topo_a, tm_a, FixedTunnelPolicy(1))
    inc = ts_a.incidence
    from telab.temodels import TeSolution

    def manual(topo, ts, delivered, rates):
        rates = np.asarray(rates, dtype=float)
        loads = np.asarray(ts.incidence.T @ rates).ravel()
        return TeSolution(np.asarray(delivered, float), rates, loads, 0.0)

    sol_a = manual(topo_a, ts_a, [5.0], [5.0])
    u_a = link_utilization(sol_a, topo_a)
    s_a = criticality_scores(sol_a, ts_a, u_a)
    ok = abs(s_a[0] - 5.0) <= 1e-9 and abs(s_a.sum() - 5.0) <= 1e-9
    ok = ok and abs(network_criticality(s_a, u_a) - 10.0) <= 1e-9

    # instance B: two demands through one saturated arc, S there = (4+6)/2
    topo_b = make_topology(["a", "b", "c", "d"],
                           [("a", "b", 100), ("c", "b", 100), ("b", "d", 10)])
    tm_b = make_tm(topo_b, [("a", "d", 4.0), ("c", "d", 6.0)])
    ts_b = build_tunnel_sets(topo_b, tm_b, FixedTunnelPolicy(1))
    sol_b = manual(topo_b, ts_b, [4.0, 6.0], [4.0, 6.0])
    u_b = link_utilization(sol_b, topo_b)
    s_b = criticality_scores(sol_b, ts_b, u_b)
    shared = topo_b.arc_by_endpoints[(1, 3)]
    ok = ok and abs(s_b[shared] - 5.0) <= 1e-9

    # instance C: zero traffic gives zero scores and zero criticality
    sol_c = manual(topo_a, ts_a, [0.0], [0.0])
    s_c = criticality_scores(sol_c, ts_a, link_utilization(sol_c, topo_a))
    ok = ok and s_c.sum() == 0.0

    # score-mass identity on every sweep solution
    _, _, _, out = b4_sweep
    topo, _ = calibrated
    checked = 0
    worst = 0.0
    for path in sorted((out / "solutions").glob("sol_*.json")):
        sol, ts, tm = solution_from_dict(json.loads(path.read_text()), topo)
        u = link_utilization(sol, topo)
        s = criticality_scores(sol, ts, u)
        mass = sol.delivered[sol.delivered > 1e-9].sum() / tm.n
        err = abs(s.sum() - mass) / max(1.0, mass)
        worst = max(worst, err)
        ok = ok and err <= 1e-6
        checked += 1
    report(5, ok and checked == 28,
           f"3 hand instances exact at 1e-9; score mass identity on {checked} sweep "
           f"solutions, worst rel err {worst:.2e}")


def test_criterion_06_lognormal_pipeline():
    """Fit-then-generate recovers the parameters, deterministically."""
    names = [f"n{i}" for i in range(101)]
    topo = make_topology(names, [(names[i], names[i + 1], 1) for i in range(100)])
    fit = LognormalFit(2.0, 0.8, 0)
    tm1 = generate_lognormal_tm(topo, fit, seed=2024)
    tm2 = generate_lognormal_tm(topo, fit, seed=2024)
    est = fit_lognormal(tm1)
    ok = (
        tm1 == tm2
        and tm1.n >= 10_000
        and abs(est.mu - 2.0) <= 0.05
        and abs(est.sigma - 0.8) <= 0.05
    )
    report(6, ok, f"n={tm1.n} samples: mu {est.mu:.4f} (|err|<=0.05), "
                  f"sigma {est.sigma:.4f} (|err|<=0.05), reruns identical")


def test_criterion_07_ksp_matches_bruteforce():
    """Yen enumeration equals brute-force (cost, lexicographic) ordering."""
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    graphs = 0
    while graphs < 50:
        n = int(rng.integers(3, 9))
        names = [f"n{i}" for i in range(n)]
        links = set()
        for i in range(1, n):
            links.add((int(rng.integers(0, i)), i))
        for _ in range(int(rng.integers(1, 2 * n))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                links.add((min(int(i), int(j)), max(int(i), int(j))))
        topo = make_topology(
            names,
            [(names[a], names[b], 1.0, float(rng.choice([1.0, 2.0, 3.0]))) for a, b in sorted(links)],
        )
        s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
        assert k_shortest_paths(topo, s, t, 4) == ksp_oracle(topo, s, t, 4)
        graphs += 1
    elapsed = time.perf_counter() - t0
    report(7, graphs == 50 and elapsed < 30.0,
           f"{graphs} random graphs, k=4 enumeration identical, {elapsed:.1f}s (<30s)")


def test_criterion_08_trend_reproduction(b4_sweep):
    """Calibrated-instance trends match the published qualitative shapes."""
    _, rows, _, _ = b4_sweep
    table = by_coord(rows)
    scales = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    ok = True
    for policy in (FIXED, ADAPTIVE):
        unmet = [table[("te", policy, s)].metrics.unmet_flow_ratio for s in scales]
        ok = ok and all(u <= 1e-6 for u, s in zip(unmet, scales) if s <= 1.0)
        ok = ok and all(unmet[i] <= unmet[i + 1] + 1e-9 for i in range(len(unmet) - 1))
        utility = [table[("te", policy, s)].metrics.mean_utility for s in scales]
        ok = ok and all(utility[i] <= utility[i + 1] + 1e-9 for i in range(len(utility) - 1))
    used_ok = all(
        table[(m, ADAPTIVE, s)].metrics.used_tunnel_ratio
        >= table[(m, FIXED, s)].metrics.used_tunnel_ratio - 1e-12
        for m in ("te", "ffc")
        for s in scales
    )
    report(8, ok and used_ok,
           "unmet flow 0 through scale 1 and nondecreasing; TE mean utility "
           "nondecreasing; adaptive used-tunnel ratio >= fixed(5) at all 14 coordinates")


def test_criterion_09_desk_scale_performance(calibrated, b4_tm):
    """Shipped instance solves fast with the bundled backend."""
    topo, _ = calibrated
    ts = build_tunnel_sets(topo, b4_tm, FixedTunnelPolicy(5))
    te_sol = solve_model(build_te_lp(topo, b4_tm, ts))
    scen = enumerate_single_link_scenarios(topo)
    ffc_sol = solve_model(build_ffc_lp(topo, b4_tm, ts, scen, CAPACITY_MODE_NORMAL_ONLY))
    ok = te_sol.solve_time < 1.0 and ffc_sol.solve_time < 30.0
    report(9, ok, f"TE solve {te_sol.solve_time:.3f}s (<1s); "
                  f"FFC normal-only solve {ffc_sol.solve_time:.2f}s (<30s)")


def test_criterion_10_sweep_determinism(b4_sweep):
    """Identical config and seed reproduce the results byte for byte."""
    cfg, rows, _, _ = b4_sweep
    cfg2 = ExperimentConfig(**{**cfg.__dict__, "out_dir": None})
    rows2 = run_experiment(cfg2)

    def strip(text):
        parsed = list(csv.reader(io.StringIO(text)))
        keep = [i for i, col in enumerate(parsed[0]) if col not in TIMING_COLUMNS]
        return [[line[i] for i in keep] for line in parsed]

    a, b = rows_to_csv(rows), rows_to_csv(rows2)
    same = strip(a) == strip(b)
    report(10, same, "two full sweep runs identical modulo timing columns "
                     f"({len(rows)} rows compared)")
