"""Seconds-long self-check of the benchmark, on the shipped diamond instance.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DIAMOND_PATHS = [[["a", "b", "d"], ["a", "c", "d"]]]

telab = workloads.import_telab()


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_diamond_run_reports_every_metric(trace, section):
    result = _bench("--workload", "diamond", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in BENCHMARK[section]} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_reference_lps_on_diamond():
    net = reference.Network(json.loads((workloads.DATA / "diamond.json").read_text()))
    assert reference.max_delivery(net, [15.0], DIAMOND_PATHS, ffc=False) == pytest.approx(15.0)
    # FFC: either path alone must carry the admitted flow after a failure.
    assert reference.max_delivery(net, [15.0], DIAMOND_PATHS, ffc=True) == pytest.approx(10.0)
    assert reference.min_capacity_factor(net, [15.0], DIAMOND_PATHS) == pytest.approx(0.75)


def test_checks_catch_a_wrong_objective(tmp_path):
    inputs = workloads.DIAMOND.write_inputs(tmp_path, 7)
    checks = run.Checks()
    _, stdout = run.run_cli(workloads.DIAMOND.main_argv(inputs, tmp_path), checks)
    assert run.check_solve(stdout, inputs, None, checks) is not None
    assert not checks.failures
    doc = json.loads(stdout)
    doc["objective"] *= 1.001
    run.check_solve(json.dumps(doc), inputs, None, checks)
    assert len(checks.failures) == 1 and "objective" in checks.failures[0]


def test_tracing_restores_the_program():
    original = telab.cli.build_ffc_lp
    tracer = spans.Tracer()
    with spans.patched(tracer) as missing:
        assert telab.cli.build_ffc_lp is not original
    assert missing == []
    assert telab.cli.build_ffc_lp is original


def test_syn_recipe_row_counts():
    doc = workloads.syn_topology_doc(24)
    topo = telab.parse_topology(json.dumps(doc))
    tm = telab.generate_lognormal_tm(topo, telab.LognormalFit(3.0, 1.2, 0), 7)
    ts = telab.build_tunnel_sets(topo, tm, telab.tunnels.parse_policy("fixed:4"))
    model = telab.build_ffc_lp(topo, tm, ts, telab.enumerate_single_link_scenarios(topo),
                               "normal_only")
    assert model.meta.n_constraints == workloads.EXPECTED_FFC_ROWS[24]
    links40 = len(workloads.syn_topology_doc(40)["links"])
    assert workloads.ffc_normal_only_rows(40, links40) == workloads.EXPECTED_FFC_ROWS[40]
