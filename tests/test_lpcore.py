import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
    scale_capacities,
    scale_tm,
)
from telab import lpcore
from telab.errors import ValidationError
from telab.temodels import build_calibration_lp
from telab.lpcore import (
    BACKENDS,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    _Simplex,
    _standardize,
    check_feasibility,
    solve,
)
from oracles import vertex_enumeration_optimum, write_lp_text


def simple_box_lp():
    p = LpProblem("box")
    x = p.add_var("x", 0, 1)
    y = p.add_var("y", 0, 1)
    p.add_constraint([(x, 1.0), (y, 1.0)], "<=", 1.0, "cap")
    p.set_objective([(x, 1.0), (y, 1.0)])
    return p


def test_analytic_optimum():
    sol = solve(simple_box_lp())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.solve_time >= 0.0


def test_contradictory_constraints_infeasible():
    p = LpProblem()
    x = p.add_var("x")
    p.add_constraint([(x, 1.0)], ">=", 2.0)
    p.add_constraint([(x, 1.0)], "<=", 1.0)
    p.set_objective([(x, 1.0)])
    assert solve(p).status == INFEASIBLE


def _infeasible_lp(kind):
    p = LpProblem()
    x, y = p.add_var("x", 1.0, 4.0), p.add_var("y", -math.inf, math.inf)
    if kind == "rows":  # x + y <= 1 and x + y >= 3
        p.add_constraint([(x, 1.0), (y, 1.0)], "<=", 1.0)
        p.add_constraint([(x, 1.0), (y, 1.0)], ">=", 3.0)
    elif kind == "bounds":  # x <= 0.5 against x >= 1
        p.add_constraint([(x, 1.0)], "<=", 0.5)
    else:  # y = 2 x and y = x - 1 meet at x = -1, below x's lower bound
        p.add_constraint([(y, 1.0), (x, -2.0)], "=", 0.0)
        p.add_constraint([(y, 1.0), (x, -1.0)], "=", -1.0)
    p.set_objective([(x, 1.0)])
    return p


@pytest.mark.parametrize("kind", ["rows", "bounds", "equalities"])
def test_bundled_infeasible_verdicts_pass_their_certificate_check(kind, monkeypatch):
    real, checked = lpcore._proves_infeasible, []
    monkeypatch.setattr(lpcore, "_proves_infeasible",
                        lambda *args: checked.append(real(*args)) or checked[-1])
    assert solve(_infeasible_lp(kind), "bundled").status == INFEASIBLE
    assert checked == [True]
    assert solve(_infeasible_lp(kind), "scipy").status == INFEASIBLE


def test_bundled_infeasible_verdict_without_a_certificate_is_a_numerical_failure(monkeypatch):
    def claim_infeasible(self):
        self.proof = self.Binv[0]
        return INFEASIBLE

    monkeypatch.setattr(_Simplex, "optimize", claim_infeasible)
    sol = solve(simple_box_lp(), "bundled")
    assert (sol.status, sol.message) == (NUMERICAL_FAILURE, "infeasibility proof failed re-check")


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("sense, rhs", [("<=", -1.0), (">=", 1.0), ("=", 0.5)])
def test_constant_rows_are_decided_before_either_backend(backend, sense, rhs):
    p = LpProblem()
    x = p.add_var("x", 0, 1)
    p.add_constraint([], "<=", 0.0, "always")  # an empty row that holds is dropped
    p.set_objective([(x, 1.0)])
    assert solve(p, backend).objective == 1.0
    p.add_constraint([(x, 0.0)], sense, rhs, "never")  # a zero coefficient is no term
    sol = solve(p, backend)
    assert (sol.status, sol.message) == (INFEASIBLE, "constant infeasible row")


def test_unbounded_detected():
    p = LpProblem()
    x = p.add_var("x")
    p.set_objective([(x, 1.0)])
    assert solve(p).status == UNBOUNDED


def test_unbounded_lp_with_rows_matches_highs():
    # x starts at its artificial bound; y enters to restore x - y <= 1 and
    # leaves x's reduced cost positive at that bound.
    p = LpProblem()
    x = p.add_var("x")
    y = p.add_var("y")
    p.add_constraint([(x, 1.0), (y, -1.0)], "<=", 1.0)
    p.add_constraint([(x, 1.0), (y, 1.0)], ">=", 2.0)
    p.set_objective([(x, 1.0)])
    assert [solve(p, backend).status for backend in ("bundled", "scipy")] == [UNBOUNDED] * 2


def _max_x(*rows):
    p = LpProblem()
    x = p.add_var("x")
    for sense, rhs in rows:
        p.add_constraint([(x, 1.0)], sense, rhs)
    p.set_objective([(x, 1.0)])
    return p


@pytest.mark.parametrize("rows,status,objective", [
    ([("<=", 5e7)], OPTIMAL, 5e7),                 # binds past the artificial bound
    ([(">=", 2e7), ("<=", 3e7)], OPTIMAL, 3e7),    # violated row needs x past it
    ([(">=", 2e7)], UNBOUNDED, None),
    ([("<=", 5e12)], OPTIMAL, 5e12),               # just under the widening cap
], ids=["le-5e7", "ge-2e7-le-3e7", "ge-2e7", "le-5e12"])
def test_verdicts_resting_on_an_artificial_bound_match_highs(rows, status, objective):
    bundled, highs = solve(_max_x(*rows), "bundled"), solve(_max_x(*rows), "scipy")
    assert bundled.status == highs.status == status
    if objective is not None:
        assert bundled.objective == highs.objective == objective


def test_unbounded_ray_moving_two_artificial_columns_together():
    # Neither column alone can leave its artificial bound (each row blocks
    # it), but widening moves both and keeps every row: an unbounded ray.
    p = LpProblem()
    a = p.add_var("a")
    b = p.add_var("b")
    p.add_constraint([(a, 1.0), (b, -1.0)], "<=", 1.0)
    p.add_constraint([(a, -1.0), (b, 1.0)], "<=", 1.0)
    p.set_objective([(a, 1.0), (b, 1.0)])
    assert [solve(p, backend).status for backend in ("bundled", "scipy")] == [UNBOUNDED] * 2


@pytest.mark.parametrize("rows,message", [
    ([("<=", 5e14)], "optimum rests on an artificial bound"),
    ([(">=", 2e14)], "infeasibility proof rests on an artificial bound"),
], ids=["le-5e14", "ge-2e14"])
def test_verdicts_past_the_widening_cap_are_numerical_failures(rows, message):
    # HiGHS finds an optimum and an unbounded LP; past ARTIFICIAL_BOUND_CAP
    # the bundled simplex says it cannot tell rather than give a wrong status.
    assert lpcore.ARTIFICIAL_BOUND_CAP < abs(rows[0][1])
    sol = solve(_max_x(*rows), "bundled")
    assert (sol.status, sol.message) == (NUMERICAL_FAILURE, message)


def test_basic_values_are_refined_against_the_rounding_of_the_inverse():
    # The unique point of three equalities with right-hand sides near 1e8:
    # unrefined, row 0 misses its right-hand side by 4.8e-6 and fails the
    # re-check.
    p = LpProblem()
    x = [p.add_var("x0", -math.inf, math.inf), p.add_var("x1"),
         p.add_var("x2", -math.inf, math.inf)]
    p.add_constraint([(x[0], 2.0), (x[1], 3.0), (x[2], 3.0)], "=", -345e6)
    p.add_constraint([(x[1], 3.0), (x[0], 3.0), (x[2], -1.0)], "=", 278e6)
    p.add_constraint([(x[0], -1.0), (x[1], -2.0), (x[2], -3.0)], "=", 139e6)
    p.set_objective([(x[0], 1.0), (x[1], 2.0), (x[2], -1.0)])
    bundled, highs = solve(p, "bundled"), solve(p, "scipy")
    assert bundled.status == highs.status == OPTIMAL
    assert bundled.objective == pytest.approx(highs.objective, rel=1e-12)


def test_bounded_lp_with_free_columns_matches_highs():
    # x and w are free with a nonzero cost (artificial bounds at the start),
    # z is free with none (nonbasic at 0); all three end up basic.
    p = LpProblem()
    x = p.add_var("x", -math.inf, math.inf)
    w = p.add_var("w", -math.inf, math.inf)
    z = p.add_var("z", -math.inf, math.inf)
    y = p.add_var("y", 0.0, 4.0)
    p.add_constraint([(x, 1.0), (y, 1.0)], "<=", 3.0)
    p.add_constraint([(x, 1.0), (y, -1.0)], "<=", 1.0)
    p.add_constraint([(z, 1.0), (x, -1.0)], "=", 0.0)
    p.add_constraint([(w, 1.0), (z, 1.0)], ">=", -4.0)
    p.set_objective([(x, 1.0), (w, -1.0)])
    bundled, highs = solve(p, "bundled"), solve(p, "scipy")
    assert bundled.status == highs.status == OPTIMAL
    assert bundled.objective == pytest.approx(highs.objective, rel=1e-12) == 8.0
    np.testing.assert_allclose(bundled.values, [2.0, -6.0, 2.0, 1.0], rtol=0, atol=1e-12)


def test_degenerate_redundant_rows_terminate():
    p = LpProblem()
    x = p.add_var("x", 0, 10)
    y = p.add_var("y", 0, 10)
    for _ in range(4):
        p.add_constraint([(x, 1.0), (y, 1.0)], "<=", 5.0)
    p.add_constraint([(x, 2.0), (y, 2.0)], "<=", 10.0)
    p.set_objective([(x, 1.0), (y, 2.0)])
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(10.0, abs=1e-9)


def test_problem_validation():
    p = LpProblem()
    with pytest.raises(ValidationError):
        p.add_var("x", 2.0, 1.0)
    x = p.add_var("x")
    with pytest.raises(ValidationError):
        p.add_constraint([(x + 1, 1.0)], "<=", 1.0)
    with pytest.raises(ValidationError):
        p.add_constraint([(x, 1.0)], "<<", 1.0)
    with pytest.raises(ValidationError):
        p.add_constraint([(x, 1.0)], "<=", math.inf)
    with pytest.raises(ValidationError):
        p.set_objective([(7, 1.0)])
    with pytest.raises(ValidationError, match="non-finite coefficient"):
        p.set_objective([(x, math.nan)])
    with pytest.raises(ValidationError, match="row block: 1 rows, 2 rhs"):
        p.add_rows(sp.csr_matrix([[1.0]]), "<=", [1.0, 2.0], ["r0"])
    with pytest.raises(ValidationError):
        solve(p, backend="nope")
    assert LpProblem().simplex == "dual"
    later = LpProblem()
    later.simplex = "barrier"  # as a builder sets it after construction
    for q in (LpProblem(simplex="barrier"), later):
        for backend in sorted(BACKENDS):
            with pytest.raises(ValidationError, match="unknown simplex 'barrier'"):
                solve(q, backend)


def degenerate_box_lp(n=400):
    """Zero objective, rows ``x_i >= 1`` over ``0 <= x_i <= 2``: every pivot
    of the bundled simplex from its slack start is degenerate."""
    p = LpProblem("degenerate")
    p.add_vars([f"x{i}" for i in range(n)], np.zeros(n), np.full(n, 2.0))
    p.add_rows(sp.identity(n, format="csr"), ">=", np.ones(n), [f"r{i}" for i in range(n)])
    return p


def test_stalled_pivots_hand_over_to_blands_rule():
    bland_at = set()  # iteration counts at which a pass of optimize ran under Bland's rule

    def trace(frame, event, arg):
        if frame.f_code.co_name != "optimize":
            return None

        def line(f, e, a):
            if f.f_locals.get("bland"):
                bland_at.add(f.f_locals["self"].iterations)
            return line
        return line

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        sol = solve(degenerate_box_lp())
    finally:
        sys.settrace(previous)
    assert (sol.status, sol.iterations) == (OPTIMAL, 400)
    assert (sol.values == 1.0).all()
    assert min(bland_at) == 299  # from the 300th degenerate pivot on


def test_iteration_cap_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(lpcore, "MAX_ITERATIONS", 5)
    sol = solve(degenerate_box_lp())
    assert (sol.status, sol.iterations) == (NUMERICAL_FAILURE, 5)


@pytest.mark.parametrize("lb,ub", [(math.nan, 1.0), (0.0, math.nan), (2.0, 1.0),
                                   (math.inf, math.inf), (-math.inf, -math.inf)],
                         ids=["nan-lb", "nan-ub", "lb-over-ub", "inf-lb", "minus-inf-ub"])
def test_add_vars_rejects_the_bounds_add_var_rejects_with_its_message(lb, ub):
    message = "variable 'y': bounds must satisfy lb <= ub"
    p = LpProblem()
    with pytest.raises(ValidationError) as one:
        p.add_var("y", lb, ub)
    with pytest.raises(ValidationError) as block:
        p.add_vars(["x", "y", "z"], [0.0, lb, 0.0], [1.0, ub, 1.0])
    assert str(one.value) == str(block.value) == message
    assert (p.var_names, p.lower.tolist(), p.upper.tolist()) == ([], [], [])


def test_add_vars_appends_what_add_var_appends_one_by_one():
    one, block = LpProblem(), LpProblem()
    bounds = [(0, math.inf), (-math.inf, 2), (-math.inf, math.inf), (1.5, 1.5)]
    assert [one.add_var(f"x{j}", lb, ub) for j, (lb, ub) in enumerate(bounds)] == [0, 1, 2, 3]
    assert block.add_vars([f"x{j}" for j in range(4)], *zip(*bounds)) == 0
    assert block.add_vars(["y"], [0.0], [1.0]) == 4
    one.add_var("y", 0, 1)
    assert ((one.var_names, one.lower.tolist(), one.upper.tolist())
            == (block.var_names, block.lower.tolist(), block.upper.tolist()))
    assert block.lower.dtype == block.upper.dtype == np.float64
    with pytest.raises(ValidationError, match="2 names, 1 lower and 2 upper bounds"):
        block.add_vars(["u", "v"], [0.0], [1.0, 1.0])


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_empty_lp_is_optimal_at_zero_on_every_backend(backend):
    sol = solve(LpProblem(), backend)
    assert (sol.status, sol.objective, sol.values.shape) == (OPTIMAL, 0.0, (0,))


def _random_box_lp(rng):
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 10))
    p = LpProblem("rand")
    for j in range(n):
        p.add_var(f"x{j}", 0.0, float(rng.uniform(1, 6)))
    for i in range(m):
        nz = int(rng.integers(1, n + 1))
        idx = rng.choice(n, size=nz, replace=False)
        coeffs = [(int(j), float(rng.choice([-2.0, -1.0, 1.0, 2.0]))) for j in idx]
        sense = str(rng.choice(["<=", ">="]))
        rhs = float(np.round(rng.normal() * 4, 3))
        p.add_constraint(coeffs, sense, rhs)
    p.set_objective(
        [(j, float(rng.choice([-1.0, 1.0, 2.0]))) for j in range(n)],
        maximize=bool(rng.random() < 0.7),
    )
    return p


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(99)
    solved = 0
    while solved < 20:
        p = _random_box_lp(rng)
        want = vertex_enumeration_optimum(p)
        sol = solve(p)
        if want is None:
            assert sol.status == INFEASIBLE
            continue
        solved += 1
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_bundled_matches_scipy_backend():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = _random_box_lp(rng)
        a = solve(p, "bundled")
        b = solve(p, "scipy")
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.objective == pytest.approx(b.objective, rel=1e-6, abs=1e-8)


def test_bundled_deterministic():
    rng = np.random.default_rng(31)
    p = _random_box_lp(rng)
    a = solve(p, "bundled")
    b = solve(p, "bundled")
    assert a.status == b.status
    if a.status == OPTIMAL:
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations


def test_optimal_solutions_pass_substitution_check():
    rng = np.random.default_rng(55)
    for _ in range(20):
        p = _random_box_lp(rng)
        sol = solve(p)
        if sol.status == OPTIMAL:
            assert check_feasibility(p, sol.values) == []


def test_non_finite_values_are_violations():
    p = simple_box_lp()
    assert check_feasibility(p, np.array([np.nan, 0.5])) == ["var x: nan is not finite"]
    assert check_feasibility(p, np.array([0.5, np.inf]))[0] == "var y: inf is not finite"


def test_nan_optimum_is_downgraded_by_the_recheck(monkeypatch):
    values = np.array([np.nan, 0.5])
    monkeypatch.setitem(BACKENDS, "bundled", lambda prob, A, b, ineq, c: (OPTIMAL, values, 0, ""))
    sol = solve(simple_box_lp())
    assert sol.status == NUMERICAL_FAILURE and sol.values is None
    assert sol.message == "solution failed feasibility re-check: var x: nan is not finite"


def test_equality_rows():
    p = LpProblem()
    x = p.add_var("x", -5, 5)
    y = p.add_var("y", -5, 5)
    p.add_constraint([(x, 1.0), (y, 1.0)], "=", -2.0)
    p.add_constraint([(x, 1.0), (y, -1.0)], ">=", 1.0)
    p.set_objective([(x, 1.0), (y, 1.0)], maximize=False)
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)


def test_backend_registry():
    assert set(BACKENDS) >= {"bundled", "scipy"}
    for name in BACKENDS:
        sol = solve(simple_box_lp(), name)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_wrong_implied_mark_is_caught_by_the_recheck(backend):
    p = LpProblem("box")
    x = p.add_var("x", 0, 1)
    y = p.add_var("y", 0, 1)
    p.add_rows(sp.csr_matrix([[1.0, 1.0]]), "<=", [1.0], ["cap"], implied=[True])
    p.set_objective([(x, 1.0), (y, 1.0)])
    sol = solve(p, backend)
    assert sol.status == NUMERICAL_FAILURE
    assert "re-check: row cap: lhs" in sol.message and "<= rhs 1.0 violated" in sol.message
    assert "np." not in sol.message


def test_add_rows_leaves_the_callers_block_intact():
    # The LP keeps the block it is given; widening and stacking it for rows()
    # must build new arrays, never write into the caller's.
    p = LpProblem("own")
    p.add_vars(["x", "y"], [0, 0], [1, 1])
    block = sp.csr_matrix(([2.0, 3.0, 4.0], [1, 0, 1], [0, 1, 3]), shape=(2, 2))
    before = [block.indptr.copy(), block.indices.copy(), block.data.copy()]
    p.add_rows(block, "<=", [1.0, 2.0], ["r0", "r1"])
    p.add_var("z", 0, 1)
    A, _, _ = p.rows()
    assert A.shape == (2, 3) and block.shape == (2, 2)
    for got, want in zip([block.indptr, block.indices, block.data], before):
        assert np.array_equal(got, want)


def test_lp_text_export_roundtrip_values():
    p = simple_box_lp()
    text = write_lp_text(p)
    assert "Maximize" in text and "Subject To" in text and "Bounds" in text
    assert "cap:" in text
    assert repr(1.0) in text


def test_scipy_import_stays_lazy_and_outside_solve_time():
    # a fresh interpreter: importing telab leaves scipy.optimize unloaded, and
    # solve's timer starts only after the scipy backend's import
    script = """
import sys, time
import telab.lpcore as lpcore
assert "scipy.optimize" not in sys.modules
seen = []
clock = time.perf_counter
lpcore.time = type("clock", (), {"perf_counter": staticmethod(
    lambda: seen.append("scipy.optimize" in sys.modules) or clock())})
prob = lpcore.LpProblem()
x = prob.add_var("x", 0.0, 1.0)
prob.set_objective([(x, 1.0)], maximize=True)
assert lpcore.solve(prob, "scipy").status == lpcore.OPTIMAL
assert seen and all(seen), seen
"""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# The B4 sweep's capacities: ``telab calibrate`` on B4 with fixed:5 tunnels.
B4_CAPACITY_SCALE = 0.9798494123726679


def _calibrated_b4_lp(b4_topo, b4_tm, model, policy, scale):
    topo = scale_capacities(b4_topo, B4_CAPACITY_SCALE)
    pol = FixedTunnelPolicy(5) if policy == "fixed:5" else AdaptiveTunnelPolicy()
    ts = build_tunnel_sets(topo, b4_tm, pol)
    tm = scale_tm(b4_tm, scale)
    if model == "te":
        return build_te_lp(topo, tm, ts).problem
    return build_ffc_lp(topo, tm, ts, enumerate_single_link_scenarios(topo), "all").problem


# The objectives were recorded from the two-phase primal simplex this backend
# replaced; the iteration counts are the dual simplex's.  A change to how the
# inverse is updated must keep the pivot sequence, so the iteration counts
# match exactly and the objectives to round-off.  The two FFC counts at scale
# 2.0 were re-recorded when the simplex's dense products became numpy sums,
# whose order, unlike a BLAS kernel's, is the same on every CPU.
B4_PIVOT_PATH = [
    ("te", "fixed:5", 0.5, 132, 1854.419951855716),
    ("te", "fixed:5", 2.0, 211, 5425.829492953708),
    ("ffc", "fixed:5", 0.5, 284, 1691.4310618889542),
    ("ffc", "fixed:5", 2.0, 466, 3467.132991809054),
    ("te", "adaptive", 0.5, 132, 1854.4199518557161),
    ("te", "adaptive", 2.0, 205, 5425.829492953708),
    ("ffc", "adaptive", 0.5, 248, 1618.177760594112),
    ("ffc", "adaptive", 2.0, 359, 3433.307533663618),
]


@pytest.mark.parametrize("model,policy,scale,iterations,objective", B4_PIVOT_PATH,
                         ids=[f"{m}-{p}-{s}" for m, p, s, *_ in B4_PIVOT_PATH])
def test_bundled_pivot_path_is_pinned_on_calibrated_b4(b4_topo, b4_tm, model, policy, scale,
                                                       iterations, objective):
    sol = solve(_calibrated_b4_lp(b4_topo, b4_tm, model, policy, scale), "bundled")
    assert sol.status == OPTIMAL
    assert sol.iterations == iterations
    assert sol.objective == pytest.approx(objective, rel=1e-12, abs=0)


def test_bundled_pivot_path_does_not_depend_on_the_blas_kernel(b4_topo, b4_tm, tmp_path):
    # When the simplex's products went through BLAS, OpenBLAS's SSE3 kernels
    # rounded them differently and this LP took 458 pivots instead of 483.
    prob = _calibrated_b4_lp(b4_topo, b4_tm, "ffc", "fixed:5", 2.0)
    sol = solve(prob, "bundled")
    (tmp_path / "lp.pickle").write_bytes(pickle.dumps(prob))
    script = f"""
import pickle
import numpy as np
from telab.lpcore import solve
sol = solve(pickle.loads(open({str(tmp_path / "lp.pickle")!r}, "rb").read()), "bundled")
np.save({str(tmp_path / "x.npy")!r}, sol.values)
print(sol.iterations)
"""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
           "OPENBLAS_CORETYPE": "Prescott"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == sol.iterations
    assert np.load(tmp_path / "x.npy").tobytes() == sol.values.tobytes()


def _dense_lp(m=40, n=60, seed=3):
    """Positive dense rows: every entering column is nonzero in most rows."""
    rng = np.random.default_rng(seed)
    p = LpProblem("dense")
    for j in range(n):
        p.add_var(f"x{j}")
    p.add_rows(rng.uniform(0.1, 1.0, (m, n)), "<=", rng.uniform(1.0, 2.0, m),
               [f"r{i}" for i in range(m)])
    p.set_objective([(j, float(c)) for j, c in enumerate(rng.uniform(0.5, 1.0, n))])
    return p


def _simplex(prob):
    A, b, ineq = _standardize(prob)
    sign = 1.0 if prob.maximize else -1.0
    return _Simplex(A, b, ineq, prob.lower, prob.upper, sign * prob.c)


@pytest.mark.parametrize("lp", ["te", "ffc", "dense"])
def test_basis_inverse_stays_exact_under_row_restricted_updates(b4_topo, b4_tm, lp):
    prob = (_dense_lp() if lp == "dense"
            else _calibrated_b4_lp(b4_topo, b4_tm, lp, "fixed:5", 2.0))
    sx = _simplex(prob)
    assert sx.optimize() == OPTIMAL
    basis = sp.hstack([sx.A, sp.eye(sx.m)], format="csc")[:, sx.basis].toarray()
    np.testing.assert_allclose(sx.Binv @ basis, np.eye(sx.m), rtol=0, atol=1e-8)


@pytest.mark.parametrize("lp", ["te", "ffc", "calibration"])
def test_slack_start_is_dual_feasible_without_artificial_bounds(b4_topo, b4_tm, lp):
    if lp == "calibration":
        ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(5))
        prob = build_calibration_lp(b4_topo, b4_tm, ts)
    else:
        prob = _calibrated_b4_lp(b4_topo, b4_tm, lp, "fixed:5", 1.0)
    sx = _simplex(prob)
    assert not (sx.art_ub | sx.art_lb).any()
    assert sx.basis.tolist() == list(range(sx.n, sx.n + sx.m))
    assert (sx.d[sx.direction > 0] <= 0).all()  # at a lower bound, may rise
    assert (sx.d[sx.direction < 0] >= 0).all()  # at an upper bound, may fall
    assert (sx.d[sx.free] == 0).all()


def test_dense_inverse_over_the_memory_budget_is_refused(monkeypatch):
    p = simple_box_lp()  # one working row: 24 bytes for the inverse and two temporaries
    monkeypatch.setattr(lpcore, "DENSE_INVERSE_BUDGET_BYTES", 24)
    assert solve(p, "bundled").status == OPTIMAL

    def no_simplex(*args, **kwargs):
        raise AssertionError("the dense basis inverse was allocated")

    monkeypatch.setattr(lpcore, "_Simplex", no_simplex)
    monkeypatch.setattr(lpcore, "DENSE_INVERSE_BUDGET_BYTES", 23)
    sol = solve(p, "bundled")
    assert sol.status == NUMERICAL_FAILURE and sol.values is None
    assert sol.message == ("dense basis inverse of 1 working rows needs 24 bytes, "
                           "over the 23-byte budget")
