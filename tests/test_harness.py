import csv
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from telab import (
    FixedTunnelPolicy,
    SolveError,
    ValidationError,
    build_te_lp,
    build_tunnel_sets,
    calibrate_capacities,
    run_experiment,
    scale_capacities,
    solve_model,
)
import telab
from telab import cli, harness, lpcore
from telab.cli import cli_main
from telab.harness import RESULT_COLUMNS, TIMING_COLUMNS, ExperimentConfig, rows_to_csv
from telab.lpcore import BACKENDS, NUMERICAL_FAILURE, LpSolution, solve
from conftest import DATA, make_tm, make_topology


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def _failed_solve(prob, backend="bundled"):
    return LpSolution(NUMERICAL_FAILURE, math.nan, None, 0.0, message="stalled")


def test_calibrate_already_satisfied():
    topo = make_topology(["a", "b"], [("a", "b", 100)])
    tm = make_tm(topo, [("a", "b", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    factor = calibrate_capacities(topo, tm, ts)
    assert factor <= 1 + 1e-3
    scaled = scale_capacities(topo, factor)
    sol = solve_model(build_te_lp(scaled, tm, ts))
    assert sol.delivered.sum() == pytest.approx(tm.total_volume, rel=1e-6)


def test_calibrate_single_link_ratio():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    tm = make_tm(topo, [("a", "b", 20.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    factor = calibrate_capacities(topo, tm, ts)
    assert 2.0 <= factor <= 2.0 * (1 + 1e-3)


def test_calibrate_matches_resolve_oracle():
    rng = np.random.default_rng(14)
    names = [f"n{i}" for i in range(5)]
    links = [("n0", "n1", 4), ("n1", "n2", 3), ("n2", "n3", 5), ("n3", "n4", 4),
             ("n0", "n2", 2), ("n1", "n3", 2), ("n0", "n4", 3)]
    topo = make_topology(names, links)
    tm = make_tm(topo, [("n0", "n3", 6.0), ("n4", "n1", 3.0), ("n2", "n0", 4.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(3))
    factor = calibrate_capacities(topo, tm, ts)

    def unmet(f):
        sol = solve_model(build_te_lp(scale_capacities(topo, f), tm, ts))
        return tm.total_volume - sol.delivered.sum()

    assert unmet(factor) <= 1e-6 * tm.total_volume
    assert unmet(factor / (1 + 5e-3)) > 1e-6 * tm.total_volume


def test_calibrate_skips_unroutable_demands():
    topo = make_topology(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])
    tm = make_tm(topo, [("a", "b", 8.0), ("a", "c", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(2))
    assert ts.unroutable == (1,)
    factor = calibrate_capacities(topo, tm, ts)
    assert 8.0 <= factor <= 8.0 * (1 + 1e-3)


def test_calibrate_without_routable_volume_is_one():
    topo = make_topology(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])
    tm = make_tm(topo, [("a", "b", 0.0), ("a", "c", 5.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(2))
    assert calibrate_capacities(topo, tm, ts) == 1.0


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_calibrate_b4_is_the_min_max_utilization_optimum(b4_topo, b4_tm, backend):
    ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(5))
    factor = calibrate_capacities(b4_topo, b4_tm, ts, backend=backend)
    assert factor == pytest.approx(0.97984941237267, rel=1e-12)


def test_calibrate_solves_one_lp(b4_topo, b4_tm, monkeypatch):
    calls = []

    def counting_solve(prob, backend="bundled"):
        calls.append(prob.name)
        return solve(prob, backend)

    monkeypatch.setattr(harness, "solve", counting_solve)
    ts = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(5))
    calibrate_capacities(b4_topo, b4_tm, ts)
    assert calls == ["calibrate"]


def test_calibrate_raises_on_a_failed_solve(monkeypatch):
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    tm = make_tm(topo, [("a", "b", 20.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(1))
    monkeypatch.setattr(harness, "solve", _failed_solve)
    with pytest.raises(SolveError, match="numerical_failure.*stalled"):
        calibrate_capacities(topo, tm, ts)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_sweep_cfg(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    return ExperimentConfig(
        topology=str(DATA / "diamond.json"),
        tm=str(DATA / "diamond_tm.json"),
        scales=[0.5, 1.0, 2.0],
        models=["te", "ffc"],
        policies=["fixed:5", "adaptive"],
        out_dir=str(out),
    )


@pytest.fixture(scope="module")
def sweep_rows(small_sweep_cfg):
    return run_experiment(small_sweep_cfg)


def test_sweep_row_count(sweep_rows):
    assert len(sweep_rows) == 2 * 2 * 3


def test_sweep_rows_sorted_and_complete(sweep_rows):
    coords = [(r.model, r.policy, r.scale) for r in sweep_rows]
    assert coords == sorted(coords)
    assert all(r.status == "optimal" for r in sweep_rows)


def test_ffc_rows_verified(sweep_rows):
    for r in sweep_rows:
        assert r.congestion_free == ("pass" if r.model == "ffc" else "")


def test_ffc_bounded_by_te(sweep_rows):
    byrow = {(r.model, r.policy, r.scale): r for r in sweep_rows}
    for (model, policy, scale), r in byrow.items():
        if model == "ffc":
            te = byrow[("te", policy, scale)]
            assert r.objective <= te.objective * (1 + 1e-6) + 1e-9


def test_adaptive_rows_report_fewer_variables(sweep_rows):
    byrow = {(r.model, r.policy, r.scale): r for r in sweep_rows}
    for model in ("te", "ffc"):
        for scale in (0.5, 1.0, 2.0):
            adaptive = byrow[(model, "adaptive:3-4-5", scale)]
            fixed = byrow[(model, "fixed:5", scale)]
            assert adaptive.variables <= fixed.variables


def test_sweep_artifacts(small_sweep_cfg, sweep_rows):
    out = Path(small_sweep_cfg.out_dir)
    assert (out / "results.csv").exists()
    assert (out / "results.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == small_sweep_cfg.seed
    assert manifest["columns"] == RESULT_COLUMNS
    assert len(manifest["solutions"]) == len(sweep_rows)
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header.split(",") == RESULT_COLUMNS
    rows = json.loads((out / "results.json").read_text())
    assert len(rows) == len(sweep_rows)


def _strip_timing(csv_text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = rows[0]
    keep = [i for i, col in enumerate(header) if col not in TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def test_sweep_determinism(small_sweep_cfg):
    cfg = ExperimentConfig(**{**small_sweep_cfg.__dict__, "out_dir": None})
    a = rows_to_csv(run_experiment(cfg))
    b = rows_to_csv(run_experiment(cfg))
    assert _strip_timing(a) == _strip_timing(b)


def test_sweep_parallel_matches_serial(small_sweep_cfg):
    serial = ExperimentConfig(**{**small_sweep_cfg.__dict__, "out_dir": None})
    parallel = ExperimentConfig(**{**small_sweep_cfg.__dict__, "out_dir": None, "workers": 2})
    a = rows_to_csv(run_experiment(serial))
    b = rows_to_csv(run_experiment(parallel))
    assert _strip_timing(a) == _strip_timing(b)


def test_row_objective_is_its_dump_objective(tmp_path):
    # On this point the LP's c @ x and the dump's sum of delivered flow
    # differ in their last digit, and c @ x differed between BLAS kernels.
    rows = run_experiment(ExperimentConfig(
        topology=str(DATA / "b4.json"), tm=str(DATA / "b4_tm.json"),
        capacity_scale=0.9798494123726695, scales=[0.5], models=["te"], policies=["fixed:5"],
        out_dir=str(tmp_path)))
    dump = json.loads((tmp_path / "solutions" / "sol_te_fixed5_0.5.json").read_text())
    assert rows[0].objective == rows[0].dump["objective"] == dump["objective"]
    record, = json.loads((tmp_path / "results.json").read_text())
    assert record["objective"] == dump["objective"]


def _dumps_without_solve_time(out: Path) -> dict[str, dict]:
    manifest = json.loads((out / "manifest.json").read_text())
    dumps = {}
    for name in manifest["solutions"]:
        dumps[name] = json.loads((out / name).read_text())
        del dumps[name]["solve_time"]
    return dumps


def test_sweep_parallel_writes_the_serial_dumps_and_manifest(small_sweep_cfg, tmp_path):
    for workers in (1, 2):
        run_experiment(ExperimentConfig(**{**small_sweep_cfg.__dict__, "workers": workers,
                                           "out_dir": str(tmp_path / str(workers))}))
    manifests = [json.loads((tmp_path / w / "manifest.json").read_text()) for w in "12"]
    assert manifests[0]["solutions"] == manifests[1]["solutions"]
    assert len(manifests[0]["solutions"]) == 12
    assert _dumps_without_solve_time(tmp_path / "1") == _dumps_without_solve_time(tmp_path / "2")


def test_results_json_records_equal_the_csv_cells(tmp_path, monkeypatch):
    real_build = harness.build_ffc_lp

    def build_fails_at_scale_one(topo, tm, ts, scen, capacity_mode):
        if tm.total_volume == 10.0:  # the diamond demand at scale 1.0
            raise MemoryError("dense basis does not fit")
        return real_build(topo, tm, ts, scen, capacity_mode)

    monkeypatch.setattr(harness, "build_ffc_lp", build_fails_at_scale_one)
    cfg = ExperimentConfig(topology=str(DATA / "diamond.json"), tm=str(DATA / "diamond_tm.json"),
                           scales=[0.5, 1.0], models=["te", "ffc"], policies=["fixed:5"],
                           out_dir=str(tmp_path))
    run_experiment(cfg)
    header, *cells = list(csv.reader(io.StringIO((tmp_path / "results.csv").read_text())))
    records = json.loads((tmp_path / "results.json").read_text())
    assert [r["status"] for r in records] == ["optimal", "error", "optimal", "optimal"]
    assert len(records) == len(cells)
    for record, row in zip(records, cells):
        assert list(record) == header == RESULT_COLUMNS
        assert [harness._format_cell(v) for v in record.values()] == row


@pytest.mark.parametrize("fit", [None, {"mu": 1.0, "sigma": 0.4}])
def test_manifest_config_reads_back_as_the_config(tmp_path, fit):
    doc = {"topology": str(DATA / "diamond.json"), "seed": 3, "scales": [1.0],
           "models": ["te"], "policies": ["fixed:2"], "out_dir": str(tmp_path)}
    doc.update({"fit": fit} if fit else {"tm": str(DATA / "diamond_tm.json")})
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert ExperimentConfig.from_json(json.dumps(manifest["config"])) == cfg


def test_sweep_survives_failed_points(tmp_path):
    # an unroutable-demand TM still sweeps; rows record statuses per point
    topo_doc = {
        "name": "split",
        "nodes": [{"id": n} for n in "abcd"],
        "links": [{"src": "a", "dst": "b", "capacity": 1.0}, {"src": "c", "dst": "d", "capacity": 1.0}],
    }
    tm_doc = {"demands": [{"src": "a", "dst": "c", "volume": 5.0}, {"src": "a", "dst": "b", "volume": 1.0}]}
    topo_path = tmp_path / "t.json"
    tm_path = tmp_path / "m.json"
    topo_path.write_text(json.dumps(topo_doc))
    tm_path.write_text(json.dumps(tm_doc))
    cfg = ExperimentConfig(topology=str(topo_path), tm=str(tm_path),
                           scales=[1.0], models=["te"], policies=["fixed:2"])
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].status == "optimal"
    assert rows[0].metrics.unmet_flow_ratio == pytest.approx(5.0 / 6.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_point_exception_becomes_error_row(tmp_path, monkeypatch, caplog, workers):
    import telab.harness as harness

    real_build = harness.build_ffc_lp

    def build_fails_at_scale_one(topo, tm, ts, scen, capacity_mode):
        if tm.total_volume == 10.0:  # the diamond demand at scale 1.0
            raise MemoryError("dense basis does not fit")
        return real_build(topo, tm, ts, scen, capacity_mode)

    monkeypatch.setattr(harness, "build_ffc_lp", build_fails_at_scale_one)
    cfg = ExperimentConfig(topology=str(DATA / "diamond.json"), tm=str(DATA / "diamond_tm.json"),
                           scales=[0.5, 1.0, 2.0], models=["te", "ffc"], policies=["fixed:5"],
                           out_dir=str(tmp_path), workers=workers)
    rows = run_experiment(cfg)
    statuses = {(r.model, r.scale): r.status for r in rows}
    assert statuses.pop(("ffc", 1.0)) == "error"
    assert len(statuses) == 5 and set(statuses.values()) == {"optimal"}
    if workers == 1:
        assert "dense basis does not fit" in caplog.text
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0].split(",") == RESULT_COLUMNS
    assert len(lines) == 1 + 6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["solutions"]) == 5


def test_sweep_builds_each_tunnel_set_once_from_the_unscaled_matrix(monkeypatch):
    volumes = []
    real_build = harness.build_tunnel_sets

    def recording_build(topo, tm, policy):
        volumes.append((policy.label, tm.total_volume))
        return real_build(topo, tm, policy)

    monkeypatch.setattr(harness, "build_tunnel_sets", recording_build)
    cfg = ExperimentConfig(topology=str(DATA / "diamond.json"), tm=str(DATA / "diamond_tm.json"),
                           scales=[0.5, 1.0, 2.0], models=["te", "ffc"],
                           policies=["fixed:5", "adaptive"])
    rows = run_experiment(cfg)
    assert len(rows) == 12 and all(r.status == "optimal" for r in rows)
    assert volumes == [("fixed:5", 10.0), ("adaptive:3-4-5", 10.0)]


@pytest.mark.parametrize("workers", [1, 2])
def test_tunnel_set_exception_turns_its_points_into_error_rows(tmp_path, monkeypatch, caplog,
                                                               workers):
    real_build = harness.build_tunnel_sets

    def build_fails_for_adaptive(topo, tm, policy):
        if policy.label.startswith("adaptive"):
            raise RuntimeError("no paths for adaptive")
        return real_build(topo, tm, policy)

    monkeypatch.setattr(harness, "build_tunnel_sets", build_fails_for_adaptive)
    cfg = ExperimentConfig(topology=str(DATA / "diamond.json"), tm=str(DATA / "diamond_tm.json"),
                           scales=[0.5, 1.0], models=["te", "ffc"],
                           policies=["fixed:5", "adaptive"], out_dir=str(tmp_path),
                           workers=workers)
    rows = run_experiment(cfg)
    statuses = {(r.model, r.policy, r.scale): r.status for r in rows}
    assert len(statuses) == 8
    assert {s for (_, p, _), s in statuses.items() if p == "adaptive:3-4-5"} == {"error"}
    assert {s for (_, p, _), s in statuses.items() if p == "fixed:5"} == {"optimal"}
    assert "no paths for adaptive" in caplog.text
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 8
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["solutions"]) == 4


def test_failed_sweep_point_logs_its_status_and_backend_message(monkeypatch, caplog):
    monkeypatch.setattr(harness, "solve", _failed_solve)
    cfg = ExperimentConfig(topology=str(DATA / "diamond.json"), tm=str(DATA / "diamond_tm.json"),
                           scales=[2.0], models=["ffc"], policies=["fixed:5"])
    with caplog.at_level("WARNING", logger="telab.harness"):
        rows = run_experiment(cfg)
    assert [r.status for r in rows] == [NUMERICAL_FAILURE]
    [record] = [r for r in caplog.records if r.levelname == "WARNING"]
    message = record.getMessage()
    for part in ("ffc", "fixed:5", "scale=2.0", NUMERICAL_FAILURE, "stalled"):
        assert part in message


def test_sweep_point_over_the_dense_inverse_budget_is_one_failed_row(monkeypatch, caplog):
    monkeypatch.setattr(lpcore, "DENSE_INVERSE_BUDGET_BYTES", 0)
    cfg = ExperimentConfig(topology=str(DATA / "diamond.json"), tm=str(DATA / "diamond_tm.json"),
                           scales=[1.0, 2.0], models=["te"], policies=["fixed:5"])
    with caplog.at_level("WARNING", logger="telab.harness"):
        rows = run_experiment(cfg)
    assert [r.status for r in rows] == [NUMERICAL_FAILURE] * 2
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 2
    assert all("dense basis inverse of" in w and "byte budget" in w for w in warnings)


def test_sweep_rows_sorted_by_reported_policy_label():
    cfg = ExperimentConfig(topology=str(DATA / "diamond.json"), tm=str(DATA / "diamond_tm.json"),
                           scales=[1.0], models=["te"], policies=["adaptive:2-3", "adaptive"])
    rows = run_experiment(cfg)
    assert [r.policy for r in rows] == ["adaptive:2-3", "adaptive:3-4-5"]


@pytest.mark.parametrize("duplicate", [
    {"scales": [0.5, 1.0, 0.5]},
    {"scales": [1, 1.0]},
    {"policies": ["adaptive", "adaptive:3-4-5"]},
    {"policies": ["fixed:05", "fixed:5"]},
])
def test_config_rejects_duplicate_sweep_points(duplicate):
    with pytest.raises(ValidationError):
        ExperimentConfig(topology="x", tm="y", **duplicate).validate()


def test_cli_sweep_rejects_repeated_scales(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"topology": str(DATA / "diamond.json"),
                                    "tm": str(DATA / "diamond_tm.json"), "models": ["te"],
                                    "policies": ["fixed:2"]}))
    assert cli_main(["sweep", "--config", str(cfg_path), "--scales", "1,2,1"]) == 4
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("override", [
    ["--workers", "0"],
    ["--scales", ""],
    ["--scales", "nan"],
    ["--scales", "inf,1"],
])
def test_cli_sweep_rejects_bad_overrides(tmp_path, capsys, override):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"topology": str(DATA / "diamond.json"),
                                    "tm": str(DATA / "diamond_tm.json"), "models": ["te"],
                                    "policies": ["fixed:2"]}))
    assert cli_main(["sweep", "--config", str(cfg_path), *override]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_sweep_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text("5")
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 4
    assert capsys.readouterr().err == "error: experiment config must be a JSON object, got 5\n"


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(topology="x", tm="y", models=["bogus"]).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(topology="x", tm="y", scales=[0.0]).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(topology="x").validate()
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json("{bad json")
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json(json.dumps({"tm": "y"}))


@pytest.mark.parametrize("field", [
    {"scales": ["1"]},
    {"scales": 1.0},
    {"workers": "2"},
    {"workers": 2.0},
    {"seed": "7"},
    {"seed": True},
    {"capacity_scale": "1.5"},
    {"policies": [5]},
    {"fit": {"mu": 1.0}, "tm": None},
    {"fit": {"sigma": 0.4}, "tm": None},
    {"fit": {"mu": "x", "sigma": 0.4}, "tm": None},
    {"fit": {"mu": math.nan, "sigma": 1.0}, "tm": None},
    {"fit": {"mu": 1.0, "sigma": math.inf}, "tm": None},
    {"fit": {"mu": 1e308, "sigma": 1.0}, "tm": None},  # valid, but draws infinite volumes
    {"topology": 7},
    {"tm": 5},
    {"out_dir": 3},
    {"backend": ["scipy"]},
    {"models": 5},
    {"policies": 5},
    {"seed": -1},
    {"fit": {"mu": "3.0", "sigma": 0.4}, "tm": None},
    {"fit": {"mu": 1.0, "sigma": True}, "tm": None},
    {"fit": {"mu": 1.0, "sigma": 0.4, "n_samples": 2.7}, "tm": None},
])
def test_cli_sweep_rejects_mistyped_config_fields(tmp_path, capsys, field):
    doc = {"topology": str(DATA / "diamond.json"), "tm": str(DATA / "diamond_tm.json"),
           "models": ["te"], "policies": ["fixed:2"], **field}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_config_rejects_unknown_backend_and_capacity_mode():
    # caught up front: inside a sweep point they would only turn into error rows
    with pytest.raises(ValidationError):
        ExperimentConfig(topology="x", tm="y", backend="bogus").validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(topology="x", tm="y", capacity_mode="bogus").validate()


def test_config_from_json_with_fit():
    cfg = ExperimentConfig.from_json(json.dumps({
        "topology": str(DATA / "diamond.json"),
        "fit": {"mu": 1.0, "sigma": 0.4},
        "seed": 3,
        "scales": [1.0],
        "models": ["te"],
        "policies": ["fixed:2"],
    }))
    rows = run_experiment(cfg)
    assert len(rows) == 1 and rows[0].status == "optimal"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_solve_smoke(capsys):
    rc = cli_main([
        "solve", "--topo", str(DATA / "diamond.json"), "--tm", str(DATA / "diamond_tm.json"),
        "--model", "te", "--tunnels", "fixed:5",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == pytest.approx(10.0)
    assert doc["metrics"]["unmet_flow_ratio"] == 0.0


@pytest.mark.parametrize("topo,tm,model", [("diamond.json", "diamond_tm.json", "ffc"),
                                           ("b4.json", "b4_tm.json", "te")])
def test_cli_solve_streams_the_indented_document(tmp_path, capsys, topo, tm, model):
    # The solve document is streamed to stdout, and dumped again for --out,
    # in the bytes one json.dumps(doc, indent=2) gives.
    out = tmp_path / "dump.json"
    assert cli_main(["solve", "--topo", str(DATA / topo), "--tm", str(DATA / tm),
                     "--model", model, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    doc = json.loads(stdout)
    assert stdout == json.dumps(doc, indent=2) + "\n"
    assert out.read_text() == json.dumps(doc, indent=2)


def test_cli_sweep_smoke(tmp_path, capsys):
    cfg = {
        "topology": str(DATA / "diamond.json"),
        "tm": str(DATA / "diamond_tm.json"),
        "scales": [1.0],
        "models": ["te", "ffc"],
        "policies": ["fixed:5"],
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["sweep", "--config", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "out" / "results.csv").exists()


def test_cli_sweep_overrides_reach_the_rows_and_the_manifest(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"topology": str(DATA / "diamond.json"),
                                    "tm": str(DATA / "diamond_tm.json"), "models": ["te"],
                                    "policies": ["fixed:2"]}))
    out = tmp_path / "D"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--backend", "scipy", "--seed", "3", "--scales", "1.0"]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "results.csv").read_text())))
    assert [(r["backend"], r["seed"], r["scale"]) for r in rows] == [("scipy", "3", "1.0")]
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["out_dir"], config["backend"], config["seed"], config["scales"]) == (
        str(out), "scipy", 3, [1.0])


def test_cli_entry_ends_quietly_when_stdout_is_closed():
    # ``telab solve ... | head -1``: the B4 TE document (about 88 kB) overfills
    # the pipe, so the write after the reader has gone fails.
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    with subprocess.Popen(
            [sys.executable, "-m", "telab.cli", "solve", "--topo", str(DATA / "b4.json"),
             "--tm", str(DATA / "b4_tm.json"), "--model", "te", "--backend", "scipy"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""  # no traceback and no "Exception ignored" line


def test_cli_verify_flags_te_solution(tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    rc = cli_main([
        "solve", "--topo", str(DATA / "diamond.json"), "--tm", str(DATA / "diamond_tm.json"),
        "--model", "te", "--out", str(sol_path),
    ])
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(["verify", "--topo", str(DATA / "diamond.json"), "--solution", str(sol_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 5
    assert not out["ok"]
    assert out["violations"]


def test_cli_verify_passes_ffc_solution(tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    rc = cli_main([
        "solve", "--topo", str(DATA / "diamond.json"), "--tm", str(DATA / "diamond_tm.json"),
        "--model", "ffc", "--out", str(sol_path),
    ])
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(["verify", "--topo", str(DATA / "diamond.json"), "--solution", str(sol_path)])
    assert rc == 0


MALFORMED_DUMPS = {  # each edits the diamond's FFC dump in place
    "demand out of range": lambda doc: doc["a"][0].update(demand=99),
    "negative demand": lambda doc: doc["a"][0].update(demand=-1),
    "tunnel out of range": lambda doc: doc["a"][0].update(tunnel=7),
    "rate without value": lambda doc: doc["a"][0].pop("value"),
    "non-finite rate": lambda doc: doc["a"][0].update(value=math.nan),
    "negative rate": lambda doc: doc["a"][0].update(value=-3.0),
    "negative delivered flow": lambda doc: doc.update(b=[-3.0]),
    "delivered flow over its volume": lambda doc: doc["demands"][0].update(volume=1.0),
    "demand without src": lambda doc: doc["demands"][0].pop("src"),
    "demand node id not a string": lambda doc: doc["demands"][0].update(src=["a"]),
    "tunnel node id not a string": lambda doc: doc["tunnels"][0][0].append(["d"]),
    "more tunnel lists than demands": lambda doc: doc["tunnels"].append(doc["tunnels"][0]),
    "tunnel off its demand's source": lambda doc: doc["tunnels"][0][0].pop(0),
    "tunnel without an arc": lambda doc: doc["tunnels"][0].append(["a"]),
    "delivered flows not a list": lambda doc: doc.update(b="x"),
    "demand volume a boolean": lambda doc: doc["demands"][0].update(volume=True),
    "tunnel over a missing arc": lambda doc: doc["tunnels"][0].append(["a", "d"]),
}


@pytest.fixture(scope="module")
def diamond_ffc_dump(tmp_path_factory):
    path = tmp_path_factory.mktemp("dump") / "sol.json"
    assert cli_main(["solve", "--topo", str(DATA / "diamond.json"),
                     "--tm", str(DATA / "diamond_tm.json"), "--model", "ffc",
                     "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("case", [*MALFORMED_DUMPS, "not an object"])
def test_cli_verify_rejects_a_malformed_dump(diamond_ffc_dump, tmp_path, capsys, case):
    doc = json.loads(json.dumps(diamond_ffc_dump))
    if case == "not an object":
        doc = [doc]
    else:
        MALFORMED_DUMPS[case](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli_main(["verify", "--topo", str(DATA / "diamond.json"), "--solution", str(path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--mu", "nan", "--sigma", "1"], ["--mu", "1", "--sigma", "nan"],
                                   ["--mu", "inf", "--sigma", "1"], ["--mu", "1e308", "--sigma", "1"]])
def test_cli_gen_tm_rejects_a_non_finite_fit(tmp_path, capsys, flags):
    out = tmp_path / "gen.json"
    rc = cli_main(["gen-tm", "--topo", str(DATA / "diamond.json"), *flags, "--seed", "1",
                   "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: lognormal fit")
    assert not out.exists()


def test_cli_gen_tm_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = cli_main(["gen-tm", "--topo", str(DATA / "diamond.json"), "--mu", "1", "--sigma", "1",
                   "--seed", "-1", "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


def _diamond_te_sweep(tmp_path, **fields) -> Path:
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"topology": str(DATA / "diamond.json"),
                                    "tm": str(DATA / "diamond_tm.json"), "models": ["te"],
                                    "policies": ["fixed:2"], **fields}))
    return cfg_path


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_cli_rejects_a_scale_that_overflows(tmp_path, capsys, command):
    # 1e308 times the diamond's volume or capacities (10) is too large for a float
    if command == "solve":
        argv = ["solve", "--topo", str(DATA / "diamond.json"), "--tm",
                str(DATA / "diamond_tm.json"), "--model", "te", "--scale", "1e308",
                "--backend", "scipy"]
    else:  # the capacity scale is applied before any point
        argv = ["sweep", "--config", str(_diamond_te_sweep(tmp_path, capacity_scale=1e308))]
    assert cli_main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too large for a float" in captured.err


def test_sweep_demand_scale_that_overflows_is_an_error_row(tmp_path, capsys, caplog):
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(_diamond_te_sweep(tmp_path)), "--out", str(out),
                     "--scales", "1,1e308"]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "results.csv").read_text())))
    assert [(r["scale"], r["status"]) for r in rows] == [("1.0", "optimal"), ("1e+308", "error")]
    assert "demand scale factor 1e+308 makes a volume too large for a float" in caplog.text
    assert "Infinity" not in (out / "results.json").read_text()


@pytest.fixture
def empty_instances(tmp_path):
    """(topology, matrix) paths: the diamond without demands, and two nodes
    without links and one demand between them."""
    none, bare, one = tmp_path / "none.json", tmp_path / "bare.json", tmp_path / "one.json"
    none.write_text(json.dumps({"demands": []}))
    bare.write_text(json.dumps({"name": "bare", "nodes": [{"id": "a"}, {"id": "b"}],
                                "links": []}))
    one.write_text(json.dumps({"demands": [{"src": "a", "dst": "b", "volume": 5.0}]}))
    return {"no demands": (DATA / "diamond.json", none), "no links": (bare, one)}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("model", ["te", "ffc"])
def test_cli_solve_empty_instances(empty_instances, capsys, model, backend):
    for case, (topo, tm) in empty_instances.items():
        assert cli_main(["solve", "--topo", str(topo), "--tm", str(tm), "--model", model,
                         "--backend", backend]) == 0
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["metrics"]
        unmet = 0.0 if case == "no demands" else 1.0
        assert doc["objective"] == 0.0
        assert doc.get("congestion_free") == ("pass" if model == "ffc" else None)
        assert {k: v for k, v in metrics.items() if k.endswith("_ratio")} == {
            "overprovisioning_ratio": 0.0, "unmet_flow_ratio": unmet,
            "unmet_demands_ratio": unmet, "used_tunnel_ratio": 0.0}
        assert (metrics["mean_utility"], metrics["critical_link_fraction"],
                metrics["network_criticality"]) == (0.0, 0.0, 0.0)
        assert metrics["link_utilizations"] == ([0.0] * 8 if case == "no demands" else [])


def test_cli_calibrate_empty_instances(empty_instances, capsys):
    for topo, tm in empty_instances.values():
        assert cli_main(["calibrate", "--topo", str(topo), "--tm", str(tm)]) == 0
        assert json.loads(capsys.readouterr().out)["capacity_factor"] == 1.0


def test_cli_calibrate_and_tm_tools(tmp_path, capsys):
    rc = cli_main(["calibrate", "--topo", str(DATA / "diamond.json"),
                   "--tm", str(DATA / "diamond_tm.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # the 10-unit demand splits over both 10-unit paths, so half capacity suffices
    assert doc["capacity_factor"] == pytest.approx(0.5, abs=1e-3)

    tm_path = tmp_path / "gen.json"
    rc = cli_main(["gen-tm", "--topo", str(DATA / "diamond.json"), "--mu", "1.0",
                   "--sigma", "0.5", "--seed", "9", "--out", str(tm_path)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(tm_path.read_text())
    assert doc["seed"] == 9 and len(doc["demands"]) == 12

    rc = cli_main(["fit-tm", "--topo", str(DATA / "diamond.json"), "--tm", str(tm_path)])
    assert rc == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["n_samples"] == 12


def test_cli_solve_scale_keeps_the_unscaled_tunnels(monkeypatch, capsys):
    volumes = []
    real_build = cli.build_tunnel_sets

    def recording_build(topo, tm, policy):
        volumes.append(tm.total_volume)
        return real_build(topo, tm, policy)

    monkeypatch.setattr(cli, "build_tunnel_sets", recording_build)
    rc = cli_main(["solve", "--topo", str(DATA / "diamond.json"),
                   "--tm", str(DATA / "diamond_tm.json"), "--model", "te", "--scale", "3"])
    assert rc == 0
    assert volumes == [10.0]
    assert json.loads(capsys.readouterr().out)["objective"] == pytest.approx(20.0)


def test_cli_calibrate_failed_lp_is_an_error_message(monkeypatch, capsys):
    monkeypatch.setattr(harness, "solve", _failed_solve)
    rc = cli_main(["calibrate", "--topo", str(DATA / "diamond.json"),
                   "--tm", str(DATA / "diamond_tm.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "stalled" in err and "Traceback" not in err


def test_cli_solve_failed_lp_is_an_error_message(monkeypatch, capsys):
    monkeypatch.setattr(lpcore, "solve", _failed_solve)
    rc = cli_main(["solve", "--topo", str(DATA / "diamond.json"),
                   "--tm", str(DATA / "diamond_tm.json"), "--model", "ffc"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "stalled" in captured.err


def test_cli_solve_over_the_dense_inverse_budget_is_an_error_message(monkeypatch, capsys):
    monkeypatch.setattr(lpcore, "DENSE_INVERSE_BUDGET_BYTES", 0)
    rc = cli_main(["solve", "--topo", str(DATA / "diamond.json"),
                   "--tm", str(DATA / "diamond_tm.json"), "--model", "te"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "dense basis inverse of" in captured.err
    assert "Traceback" not in captured.err


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = cli_main(["solve", "--topo", "missing.json", "--tm", "also-missing.json",
                   "--model", "te"])
    assert rc == 3
    assert capsys.readouterr().err == "error: file not found: missing.json\n"
    assert cli_main(["sweep", "--config", "no-config.json"]) == 3
    assert capsys.readouterr().err == "error: file not found: no-config.json\n"
    assert cli_main(["verify", "--topo", str(DATA / "diamond.json"),
                     "--solution", "no-dump.json"]) == 3
    assert capsys.readouterr().err == "error: file not found: no-dump.json\n"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli_main(["solve", "--topo", str(bad), "--tm", str(bad), "--model", "te"])
    assert rc == 4

    with pytest.raises(SystemExit) as exc:
        cli_main(["solve", "--bogus-flag"])
    assert exc.value.code == 2


def test_every_exported_name_resolves():
    assert [name for name in telab.__all__ if not hasattr(telab, name)] == []
    assert len(set(telab.__all__)) == len(telab.__all__)
    # every public name the package binds, its submodules aside, is exported
    bound = {name for name, value in vars(telab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(telab.__all__) == bound | {"__version__"}
