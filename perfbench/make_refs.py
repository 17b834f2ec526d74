"""Record reference objectives and calibrated factors for the seeds the benchmark ships.

Usage: python3 perfbench/make_refs.py [--workload NAME] [--seeds 1,2,3]

For each workload and seed the telab commands run on both backends, and a
value is recorded only where ``bundled`` and ``scipy`` agree (objectives to
1e-6 relative, capacity factors to 1e-3).  syn40 is recorded from ``scipy``
alone: its FFC LP does not fit the bundled dense-basis simplex.  Writes
``perfbench/refs.json``; takes about 15 minutes for every workload and seed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import reference
from run import WORK_ROOT, Checks, run_cli
from workloads import BY_NAME, WORKLOADS, import_telab

TUNING_SEEDS = list(range(1, 11))  # the seeds the benchmark's spread was measured on
HELD_OUT_SEED = 1001  # never used while the benchmark was tuned
SCIPY_ONLY = {"syn40-ffc-scipy"}


def _agree(values: dict, close, what: str):
    first = next(iter(values.values()))
    if not all(close(value, first) for value in values.values()):
        raise SystemExit(f"make_refs: {what}: backends disagree: {values}")
    return values.get("bundled", first)


def record(workload, seed: int, work) -> dict:
    inputs = workload.write_inputs(work, seed)
    backends = ["scipy"] if workload.name in SCIPY_ONLY else ["bundled", "scipy"]
    checks = Checks()
    factors, entry = {}, {}
    for backend in backends:
        argv = workload.calibrate_argv(inputs)
        argv[argv.index("--backend") + 1] = backend
        factors[backend] = json.loads(run_cli(argv, checks)[1])["capacity_factor"]
    entry["capacity_factor"] = _agree(factors, reference.factor_close, "capacity factor")
    if workload.main_kind == "sweep":
        points = {}
        for backend in backends:
            out = work / f"sweep_{backend}"
            run_cli(workload.main_argv(inputs, out) + ["--backend", backend], checks)
            for row in csv.DictReader(io.StringIO((out / "results.csv").read_text())):
                key = reference.point_key(row["model"], row["policy"], row["scale"])
                points.setdefault(key, {})[backend] = float(row["objective"])
        entry["objectives"] = {key: _agree(v, reference.objective_close, key)
                               for key, v in sorted(points.items())}
    else:
        objectives = {}
        for backend in backends:
            argv = workload.main_argv(inputs, work)
            argv[argv.index("--backend") + 1] = backend
            objectives[backend] = json.loads(run_cli(argv, checks)[1])["objective"]
        entry["objective"] = _agree(objectives, reference.objective_close, "objective")
    if checks.failures:
        raise SystemExit(f"make_refs: {workload.name} seed {seed}: {checks.failures}")
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), action="append")
    parser.add_argument("--seeds", help="comma separated (default: tuning seeds + held-out)")
    args = parser.parse_args(argv)
    import_telab()
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else TUNING_SEEDS + [HELD_OUT_SEED])
    refs = json.loads(reference.REFS_PATH.read_text()) if reference.REFS_PATH.exists() else {}
    refs["held_out_seed"] = HELD_OUT_SEED
    WORK_ROOT.mkdir(exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        for seed in seeds:
            work = tempfile.mkdtemp(prefix="refs-", dir=WORK_ROOT)
            try:
                entry = record(BY_NAME[name], seed, Path(work))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            refs.setdefault(name, {})[str(seed)] = entry
            reference.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: recorded", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
