"""Command-line interface.

Exit codes: 0 success, 2 usage error (argparse), 3 missing input file,
4 schema or validation error, 5 verification found violations, 1 no optimum
where one was required, a stdout closed by its reader, or anything else
unexpected.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .demands import fit_lognormal, generate_lognormal_tm, load_tm, scale_tm, tm_to_json, LognormalFit
from .errors import SolveError, ValidationError
from .harness import ExperimentConfig, calibrate_capacities, run_experiment
from .lpcore import BACKENDS
from .metrics import compute_metrics
from .temodels import (
    CAPACITY_MODE_ALL,
    CAPACITY_MODE_NORMAL_ONLY,
    build_ffc_lp,
    build_te_lp,
    load_solution,
    solution_to_dict,
    solve_model,
    verify_congestion_free,
)
from .topology import load_topology
from .tunnels import build_tunnel_sets, enumerate_single_link_scenarios, parse_policy

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MISSING_FILE = 3
EXIT_SCHEMA = 4
EXIT_VERIFY_FAILED = 5


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topo", required=True, help="topology JSON path")


def _capacity_mode(text: str) -> str:
    return {"all": CAPACITY_MODE_ALL, "normal-only": CAPACITY_MODE_NORMAL_ONLY}[text]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telab", description="Tunnel-based WAN traffic engineering lab")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one model and print solution + metrics JSON")
    _add_common(p)
    p.add_argument("--tm", required=True, help="traffic matrix path (JSON or CSV)")
    p.add_argument("--model", choices=["te", "ffc"], required=True)
    p.add_argument("--tunnels", default="fixed:5", help="fixed:K or adaptive")
    p.add_argument("--capacity-mode", choices=["all", "normal-only"], default="all")
    p.add_argument("--backend", choices=sorted(BACKENDS), default="bundled")
    p.add_argument("--scale", type=float, default=1.0, help="demand scale factor")
    p.add_argument("--out", help="also write the solution dump to this path")

    p = sub.add_parser("sweep", help="run an experiment sweep from a config file")
    p.add_argument("--config", required=True, help="experiment config JSON path")
    p.add_argument("--out", help="override the config output directory")
    p.add_argument("--workers", type=int, help="override worker count")
    p.add_argument("--backend", choices=sorted(BACKENDS), help="override backend")
    p.add_argument("--seed", type=int, help="override seed")
    p.add_argument("--scales", help="override scales, comma separated")

    p = sub.add_parser("calibrate", help="find the minimal uniform capacity factor")
    _add_common(p)
    p.add_argument("--tm", required=True)
    p.add_argument("--tunnels", default="fixed:5")
    p.add_argument("--backend", choices=sorted(BACKENDS), default="bundled")

    p = sub.add_parser("verify", help="re-check a solution dump for congestion freedom")
    _add_common(p)
    p.add_argument("--solution", required=True, help="solution dump JSON path")

    p = sub.add_parser("gen-tm", help="generate a lognormal traffic matrix")
    _add_common(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("fit-tm", help="fit a lognormal to a traffic matrix")
    _add_common(p)
    p.add_argument("--tm", required=True)
    return parser


def _cmd_solve(args) -> int:
    topo = load_topology(args.topo)
    tm = load_tm(args.tm, topo)
    ts = build_tunnel_sets(topo, tm, parse_policy(args.tunnels))
    if args.scale != 1.0:
        tm = scale_tm(tm, args.scale)
    if args.model == "te":
        model = build_te_lp(topo, tm, ts)
    else:
        scen = enumerate_single_link_scenarios(topo)
        model = build_ffc_lp(topo, tm, ts, scen, _capacity_mode(args.capacity_mode))
    sol = solve_model(model, args.backend)
    doc = solution_to_dict(sol, model, scale=args.scale, backend=args.backend)
    if args.model == "ffc":
        report = verify_congestion_free(sol, ts, scen, topo)
        doc["congestion_free"] = "pass" if report.ok else "fail"
    doc["metrics"] = compute_metrics(sol, tm, ts, topo).to_json_dict()
    if args.out:
        with Path(args.out).open("w") as f:
            json.dump(doc, f, indent=2)
    json.dump(doc, sys.stdout, indent=2)  # streamed: no copy of the whole text
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    if args.out:
        cfg.out_dir = args.out
    if args.workers is not None:
        cfg.workers = args.workers
    if args.backend:
        cfg.backend = args.backend
    if args.seed is not None:
        cfg.seed = args.seed
    if args.scales is not None:
        try:
            cfg.scales = [float(s) for s in args.scales.split(",")]
        except ValueError:
            raise ValidationError(f"--scales needs comma-separated numbers, "
                                  f"got {args.scales!r}") from None
    rows = run_experiment(cfg)
    failed = [r for r in rows if r.status != "optimal"]
    print(f"{len(rows)} sweep points, {len(failed)} failed"
          + (f", results in {cfg.out_dir}" if cfg.out_dir else ""))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    topo = load_topology(args.topo)
    tm = load_tm(args.tm, topo)
    ts = build_tunnel_sets(topo, tm, parse_policy(args.tunnels))
    factor = calibrate_capacities(topo, tm, ts, backend=args.backend)
    print(json.dumps({"capacity_factor": factor, "unroutable_demands": list(ts.unroutable)}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    topo = load_topology(args.topo)
    sol, ts, _tm = load_solution(args.solution, topo)
    scen = enumerate_single_link_scenarios(topo)
    report = verify_congestion_free(sol, ts, scen, topo)
    doc = {
        "ok": report.ok,
        "scenarios_checked": report.scenarios_checked,
        "violations": [
            {"scenario": v.scenario, "kind": v.kind, "index": v.index, "amount": v.amount}
            for v in report.violations
        ],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_gen_tm(args) -> int:
    topo = load_topology(args.topo)
    fit = LognormalFit(args.mu, args.sigma, 0)
    tm = generate_lognormal_tm(topo, fit, args.seed)
    meta = {"generator": "lognormal", "mu": args.mu, "sigma": args.sigma, "seed": args.seed}
    text = tm_to_json(tm, topo, meta)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {tm.n} demands to {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_fit_tm(args) -> int:
    topo = load_topology(args.topo)
    tm = load_tm(args.tm, topo)
    fit = fit_lognormal(tm)
    print(json.dumps({"mu": fit.mu, "sigma": fit.sigma, "n_samples": fit.n_samples}))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "verify": _cmd_verify,
    "gen-tm": _cmd_gen_tm,
    "fit-tm": _cmd_fit_tm,
}


def cli_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except SolveError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILED


def cli_main_entry() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does.  Point stdout at
        # devnull so the interpreter's last flush cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAILED
    sys.exit(code)


if __name__ == "__main__":
    cli_main_entry()
