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

from . import __version__
from .demands import (TrafficMatrix, LognormalFit, check_lognormal_fit, generate_lognormal_tm,
                      load_tm, scale_tm)
from .errors import SolveError, ValidationError
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
from .tunnels import (
    ScenarioSet,
    TunnelSet,
    build_tunnel_sets,
    enumerate_single_link_scenarios,
    parse_policy,
)

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        if not isinstance(self.scales, list) or not all(map(_is_number, self.scales)):
            raise ValidationError(f"scales must be a list of numbers, got {self.scales!r}")
        for name in ("seed", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not _is_number(self.capacity_scale):
            raise ValidationError(f"capacity_scale must be a number, got {self.capacity_scale!r}")
        if not self.models or any(m not in MODELS for m in self.models):
            raise ValidationError(f"models must be a nonempty subset of {MODELS}")
        if not self.policies or not all(isinstance(p, str) for p in self.policies):
            raise ValidationError("policies must be a nonempty list of policy strings")
        labels = [parse_policy(p).label for p in self.policies]
        if len(set(labels)) < len(labels):
            raise ValidationError(f"policies name the same tunnel policy twice: {labels}")
        if not self.scales or not all(math.isfinite(s) and s > 0 for s in self.scales):
            raise ValidationError(f"scales must be finite and positive, got {self.scales}")
        if len(set(self.scales)) < len(self.scales):
            raise ValidationError(f"scales repeat a value: {self.scales}")
        if self.tm is None and self.fit is None:
            raise ValidationError("config needs a tm path or a lognormal fit")
        if self.fit is not None:
            check_lognormal_fit(self.fit)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if self.backend not in BACKENDS:
            raise ValidationError(f"unknown backend {self.backend!r}")
        if self.capacity_mode not in (CAPACITY_MODE_ALL, CAPACITY_MODE_NORMAL_ONLY):
            raise ValidationError(f"unknown capacity mode {self.capacity_mode!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed experiment config: {e}") from e
        if not isinstance(doc, dict):
            raise ValidationError(f"experiment config must be a JSON object, got {doc!r}")
        kwargs = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
        if "topology" not in kwargs:
            raise ValidationError("experiment config needs a 'topology' path")
        fit = kwargs.get("fit")  # null, as a manifest writes a config without a fit
        if fit is not None:
            try:
                kwargs["fit"] = LognormalFit(float(fit["mu"]), float(fit["sigma"]),
                                             int(fit.get("n_samples", 0)))
            except (KeyError, TypeError, ValueError) as e:
                raise ValidationError(
                    f"fit needs numeric 'mu' and 'sigma', got {fit!r}") from e
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass
class ResultRow:
    model: str
    policy: str
    scale: float
    seed: int
    backend: str
    capacity_mode: str
    status: str
    objective: float
    variables: int
    constraints: int
    build_time: float
    metrics: MetricsReport | None
    congestion_free: str  # "pass" | "fail" | "" (base TE rows)
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
    routable_total = sum(
        d.volume for d in tm.demands if ts.by_demand[d.id]
    )
    if routable_total <= 0:
        return 1.0
    lp_sol = solve(build_calibration_lp(topo, tm, ts), backend)
    if lp_sol.status != OPTIMAL:
        raise SolveError(f"calibration LP: status {lp_sol.status!r}: {lp_sol.message}")
    return lp_sol.objective


def _solve_point(cfg: ExperimentConfig, topo: Topology, tm: TrafficMatrix,
                 scen: ScenarioSet | None, tunnel_sets: dict[str, TunnelSet | None],
                 model_kind: str, policy: str, scale: float) -> ResultRow:
    """One sweep point: scale the matrix, build, solve, verify, measure and dump.

    An exception is logged and becomes one row with status ``error``, as does
    every point of a policy whose tunnel set failed to build (``None``).
    """
    log.info("solving %s %s scale=%s", model_kind, policy, scale)
    base = dict(model=model_kind, policy=policy, scale=scale, seed=cfg.seed,
                backend=cfg.backend,
                capacity_mode=cfg.capacity_mode if model_kind == "ffc" else "")
    error_row = ResultRow(status=ERROR, objective=float("nan"), variables=0, constraints=0,
                          build_time=0.0, metrics=None, congestion_free="", **base)
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
            return ResultRow(status=lp_sol.status, objective=float("nan"), metrics=None,
                             congestion_free="", **base)

        sol = extract_solution(lp_sol, model)
        verdict = ""
        if model_kind == "ffc":
            verdict = "pass" if verify_congestion_free(sol, ts, scen, topo).ok else "fail"
        return ResultRow(status=lp_sol.status, objective=lp_sol.objective,
                         metrics=compute_metrics(sol, tm_scaled, ts, topo),
                         congestion_free=verdict,
                         dump=solution_to_dict(sol, model, scale=scale, seed=cfg.seed,
                                               backend=cfg.backend,
                                               capacity_scale=cfg.capacity_scale),
                         **base)
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
    _atomic_write(out / "results.json",
                  json.dumps([r.as_record() for r in rows], indent=2))
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
