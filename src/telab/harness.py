"""Batch experiment harness: calibration (one LP), sweeps, and result emission.

A sweep runs every (model, policy, scale) combination of its config, solving
each point independently and recording one result row per point.  A failed
solve is data, not an abort: the row carries the failure status and the sweep
continues.  So is an exception raised while handling a point: it is logged
and the point becomes one row with status ``error``.  Rows are merged in
sorted coordinate order, so reruns with the same config and seed produce
identical CSV content apart from the timing columns.  Each policy's tunnel
set is built once, from the unscaled matrix, and shared by every point of that
policy (positive scaling keeps the adaptive order); a tunnel set that raises
turns each of its policy's points into an ``error`` row.  Each point scales the
matrix and builds its own LP; per-point LP build and solve times are reported
separately (only solve time is a solution-quality metric).
"""
from __future__ import annotations

import concurrent.futures
import csv
import functools
import hashlib
import io
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import scipy.sparse as sp

from . import __version__
from .demands import (TrafficMatrix, LognormalFit, check_lognormal_fit, generate_lognormal_tm,
                      load_tm, scale_tm)
from .errors import SolveError, is_index, is_number, json_object, require
from .lpcore import BACKENDS, OPTIMAL, solve
from .metrics import METRIC_COLUMNS, MetricsReport, compute_metrics
from .temodels import (
    CAPACITY_MODE_ALL,
    CAPACITY_MODE_NORMAL_ONLY,
    build_calibration_lp,
    build_ffc_lp,
    build_te_lp,
    extract_solution,
    solution_to_dict,
    verify_congestion_free,
)
from .topology import Topology, load_topology, scale_capacities
from .tunnels import TunnelSet, build_tunnel_sets, enumerate_single_link_scenarios, parse_policy

log = logging.getLogger(__name__)

MODELS = ("te", "ffc")
ERROR = "error"  # status of a point whose handling raised

RESULT_COLUMNS = [
    "model",
    "policy",
    "scale",
    "seed",
    "backend",
    "capacity_mode",
    "status",
    "objective",
    "variables",
    "constraints",
    "build_time",
    *METRIC_COLUMNS,
    "congestion_free",
]

# Wall-clock columns excluded from reproducibility comparisons.
TIMING_COLUMNS = ("build_time", "solver_time")


@dataclass
class ExperimentConfig:
    topology: str
    tm: str | None = None
    fit: LognormalFit | None = None
    seed: int = 0
    scales: list[float] = field(default_factory=lambda: [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])
    models: list[str] = field(default_factory=lambda: ["te", "ffc"])
    policies: list[str] = field(default_factory=lambda: ["fixed:5", "adaptive"])
    backend: str = "bundled"
    capacity_mode: str = CAPACITY_MODE_ALL
    capacity_scale: float = 1.0
    out_dir: str | None = None
    workers: int = 1

    def validate(self) -> None:
        require(isinstance(self.topology, str),
                f"topology must be a path string, got {self.topology!r}")
        for name in ("tm", "out_dir"):
            value = getattr(self, name)
            require(value is None or isinstance(value, str),
                    f"{name} must be a path string or null, got {value!r}")
        require(isinstance(self.scales, list) and all(map(is_number, self.scales)),
                f"scales must be a list of finite numbers, got {self.scales!r}")
        for name, least in (("seed", 0), ("workers", 1)):
            value = getattr(self, name)
            require(is_index(value, math.inf) and value >= least,
                    f"{name} must be an integer >= {least}, got {value!r}")
        require(is_number(self.capacity_scale),
                f"capacity_scale must be a finite number, got {self.capacity_scale!r}")
        require(isinstance(self.models, list) and self.models
                and all(m in MODELS for m in self.models),
                f"models must be a nonempty subset of {MODELS}")
        require(len(set(self.models)) == len(self.models), f"models repeat a value: {self.models}")
        require(isinstance(self.policies, list) and self.policies
                and all(isinstance(p, str) for p in self.policies),
                "policies must be a nonempty list of policy strings")
        labels = [parse_policy(p).label for p in self.policies]
        require(len(set(labels)) == len(labels),
                f"policies name the same tunnel policy twice: {labels}")
        require(self.scales and all(s > 0 for s in self.scales),
                f"scales must be positive, got {self.scales}")
        require(len(set(self.scales)) == len(self.scales), f"scales repeat a value: {self.scales}")
        require(self.tm is not None or self.fit is not None,
                "config needs a tm path or a lognormal fit")
        if self.fit is not None:
            check_lognormal_fit(self.fit)
        require(isinstance(self.backend, str) and self.backend in BACKENDS,
                f"unknown backend {self.backend!r}")
        require(self.capacity_mode in (CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY),
                f"unknown capacity mode {self.capacity_mode!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        kwargs = json_object(text, "experiment config")
        unknown = sorted(set(kwargs) - {f.name for f in fields(cls)})
        require(not unknown, f"experiment config: unknown keys {unknown}")
        require("topology" in kwargs, "experiment config needs a 'topology' path")
        fit = kwargs.get("fit")  # null, as a manifest writes a config without a fit
        if fit is not None:
            require(isinstance(fit, dict) and is_number(fit.get("mu"))
                    and is_number(fit.get("sigma")) and is_index(fit.get("n_samples", 0), math.inf),
                    f"fit needs numeric 'mu' and 'sigma' and an integer 'n_samples' >= 0, "
                    f"got {fit!r}")
            unknown = sorted(set(fit) - {f.name for f in fields(LognormalFit)})
            require(not unknown, f"fit block: unknown keys {unknown}")
            kwargs["fit"] = LognormalFit(float(fit["mu"]), float(fit["sigma"]),
                                         fit.get("n_samples", 0))
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass
class ResultRow:
    """One sweep point; the defaults are the cells an error or non-optimal row leaves empty."""

    model: str
    policy: str
    scale: float
    seed: int
    backend: str
    capacity_mode: str
    status: str
    objective: float = math.nan  # the dump's, so both read the same number
    variables: int = 0
    constraints: int = 0
    build_time: float = 0.0
    metrics: MetricsReport | None = None
    congestion_free: str = ""  # "pass" | "fail" | "" (base TE rows)
    dump: dict | None = None  # the solution dump of an optimal point; not a column

    def as_record(self) -> dict:
        """The row's cells in ``RESULT_COLUMNS`` order; metric cells are "" without metrics."""
        return {col: getattr(self, col) if col not in METRIC_COLUMNS
                else ("" if self.metrics is None else float(getattr(self.metrics, col)))
                for col in RESULT_COLUMNS}


def calibrate_capacities(topo: Topology, tm: TrafficMatrix, ts, *,
                         backend: str = "bundled") -> float:
    """Minimal uniform capacity factor delivering all routable demand.

    The optimum of the min-max-utilization LP (``build_calibration_lp``);
    raises ``SolveError`` if it is not solved to optimality.  Demands with no
    tunnels cannot be delivered at any capacity; they are excluded from the
    target volume (and reported via the tunnel set's ``unroutable`` list).
    """
    routable_total = sum(d.volume for d, ids in zip(tm.demands, ts.by_demand) if ids)
    if routable_total <= 0:
        return 1.0
    lp_sol = solve(build_calibration_lp(topo, tm, ts), backend)
    if lp_sol.status != OPTIMAL:
        raise SolveError(f"calibration LP: status {lp_sol.status!r}: {lp_sol.message}")
    return lp_sol.objective


def _solve_point(cfg: ExperimentConfig, topo: Topology, tm: TrafficMatrix,
                 scen: sp.csr_matrix | None, tunnel_sets: dict[str, TunnelSet | None],
                 model_kind: str, policy: str, scale: float) -> ResultRow:
    """One sweep point: scale the matrix, build, solve, verify, measure and dump.

    An exception is logged and becomes one row with status ``error``, as does
    every point of a policy whose tunnel set failed to build (``None``).
    """
    log.info("solving %s %s scale=%s", model_kind, policy, scale)
    base = dict(model=model_kind, policy=policy, scale=scale, seed=cfg.seed,
                backend=cfg.backend,
                capacity_mode=cfg.capacity_mode if model_kind == "ffc" else "")
    error_row = ResultRow(status=ERROR, **base)
    ts = tunnel_sets[policy]
    if ts is None:
        return error_row
    try:
        tm_scaled = scale_tm(tm, scale)
        t0 = time.perf_counter()
        if model_kind == "te":
            model = build_te_lp(topo, tm_scaled, ts)
        else:
            model = build_ffc_lp(topo, tm_scaled, ts, scen, cfg.capacity_mode)
        base.update(variables=model.meta.n_vars, constraints=model.meta.n_constraints,
                    build_time=time.perf_counter() - t0)
        lp_sol = solve(model.problem, cfg.backend)
        if lp_sol.status != OPTIMAL:
            log.warning("sweep point %s %s scale=%s: status %s: %s", model_kind, policy,
                        scale, lp_sol.status, lp_sol.message)
            return ResultRow(status=lp_sol.status, **base)

        sol = extract_solution(lp_sol, model)
        verdict = ""
        if model_kind == "ffc":
            verdict = "pass" if verify_congestion_free(sol, ts, scen, topo).ok else "fail"
        dump = solution_to_dict(sol, model, scale=scale, seed=cfg.seed, backend=cfg.backend,
                                capacity_scale=cfg.capacity_scale)
        return ResultRow(status=OPTIMAL, objective=dump["objective"],
                         metrics=compute_metrics(sol, tm_scaled, ts, topo),
                         congestion_free=verdict, dump=dump, **base)
    except Exception:
        log.exception("sweep point %s %s scale=%s raised", model_kind, policy, scale)
        return error_row


def run_experiment(cfg: ExperimentConfig):
    """Execute the sweep; returns rows and writes artifacts when configured."""
    cfg.validate()
    topo = load_topology(cfg.topology)
    if cfg.capacity_scale != 1.0:
        topo = scale_capacities(topo, cfg.capacity_scale)
    if cfg.tm is not None:
        tm = load_tm(cfg.tm, topo)
    else:
        tm = generate_lognormal_tm(topo, cfg.fit, cfg.seed)

    scen = enumerate_single_link_scenarios(topo) if "ffc" in cfg.models else None
    tunnel_sets: dict[str, TunnelSet | None] = {}
    for text in cfg.policies:
        policy = parse_policy(text)
        try:
            tunnel_sets[policy.label] = build_tunnel_sets(topo, tm, policy)
        except Exception:
            log.exception("tunnel set %s raised; its points become error rows", policy.label)
            tunnel_sets[policy.label] = None

    points = sorted((model, policy, scale) for model in cfg.models
                    for policy in tunnel_sets for scale in cfg.scales)
    solve_point = functools.partial(_solve_point, cfg, topo, tm, scen, tunnel_sets)
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(solve_point, *zip(*points)))
    else:
        rows = [solve_point(*point) for point in points]
    if cfg.out_dir:
        _write_artifacts(cfg, rows)
    return rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row.as_record().values()])
    return buf.getvalue()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_artifacts(cfg: ExperimentConfig, rows: list[ResultRow]) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "results.csv", rows_to_csv(rows))
    records = [r.as_record() for r in rows]
    for record in records:  # strict JSON has no NaN: a point without an optimum has none
        if math.isnan(record["objective"]):
            record["objective"] = None
    _atomic_write(out / "results.json", json.dumps(records, indent=2, allow_nan=False))
    config_doc = asdict(cfg)
    manifest = {
        "seed": cfg.seed,
        "config": config_doc,
        "config_hash": hashlib.sha256(
            json.dumps(config_doc, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "columns": RESULT_COLUMNS,
        "timing_columns": list(TIMING_COLUMNS),
        "solutions": [],
    }
    sol_dir = out / "solutions"
    sol_dir.mkdir(exist_ok=True)
    for row in rows:
        if row.dump is None:
            continue
        name = f"sol_{row.model}_{row.policy.replace(':', '')}_{row.scale}.json"
        _atomic_write(sol_dir / name, json.dumps(row.dump))
        manifest["solutions"].append(f"solutions/{name}")
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2))
