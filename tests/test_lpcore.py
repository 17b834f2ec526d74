import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from telab.errors import ValidationError
from telab.lpcore import (
    BACKENDS,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    bundled_simplex,
    check_feasibility,
    solve,
    write_lp_text,
)
from oracles import vertex_enumeration_optimum


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
    assert sol.solution_kind == "vertex"
    assert sol.solve_time >= 0.0


def test_contradictory_constraints_infeasible():
    p = LpProblem()
    x = p.add_var("x")
    p.add_constraint([(x, 1.0)], ">=", 2.0)
    p.add_constraint([(x, 1.0)], "<=", 1.0)
    p.set_objective([(x, 1.0)])
    assert solve(p).status == INFEASIBLE


def test_unbounded_detected():
    p = LpProblem()
    x = p.add_var("x")
    p.set_objective([(x, 1.0)])
    assert solve(p).status == UNBOUNDED


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
    with pytest.raises(ValidationError):
        solve(p, backend="nope")


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
    a = bundled_simplex(p)
    b = bundled_simplex(p)
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
        assert sol.solution_kind == "vertex"
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
