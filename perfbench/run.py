"""telab benchmark: times user commands end to end, checks their outputs, traces layers.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N --seconds S]

One process runs one workload, closed loop, one command at a time, through
``telab.cli.cli_main`` called in-process with its exit code checked.  With
``--trace 0`` it cycles through the parts of the workload's main command (the
sweep's scales, or the solve's traffic matrices) for ``--seconds``, each part
at least twice, with fresh-interpreter set-ups in between, and reports the
end-to-end metrics; with ``--trace 1`` it runs ``telab calibrate`` and the whole main
command once untraced and once with the public layer functions wrapped,
checks that both give the same outputs, and reports per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload both ways, each in a fresh process, and prints a table.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported: on a shared 2-vCPU host
# two threads made timings about twice as noisy, for a 15% gain on the dense
# simplex.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import reference  # noqa: E402  (imports numpy)
import spans  # noqa: E402
from workloads import BY_NAME, EXPECTED_FFC_ROWS, WORKLOADS, import_telab  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK_ROOT = CHECKOUT / ".perfbench_work"
SETUP_MIN_REPS = 5
SETUPS_PER_CYCLE = 3  # at most; spread over the parts of one cycle
MAIN_MIN_REPS = 2
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}


class Checks:
    """Correctness checks of one run; failures are kept with their reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def run_cli(argv: list[str], checks: Checks, tracer=None) -> tuple[float, str]:
    """Call telab's CLI in-process; return wall seconds and captured stdout."""
    import telab.cli

    entry = telab.cli.cli_main if tracer is None else tracer.wrap("cli.cli_main",
                                                                   telab.cli.cli_main)
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = entry(argv)
    except Exception as e:  # a crash of the program is a failed check, not a lost run
        code = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    checks.check(code == 0, f"telab {argv[0]} exited with {code!r}")
    return seconds, out.getvalue()


def canonical(kind: str, stdout: str, out_dir: Path | None) -> str:
    """Command output with wall-clock fields removed, for equality checks."""
    if kind == "sweep":
        from telab.harness import TIMING_COLUMNS

        path = out_dir / "results.csv"
        if not path.exists():
            return ""
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        return json.dumps([{k: v for k, v in r.items() if k not in TIMING_COLUMNS}
                           for r in rows])
    if kind == "solve":
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return ""
        doc.pop("solve_time", None)
        doc.get("metrics", {}).pop("solver_time", None)
        return json.dumps(doc, sort_keys=True)
    return stdout


class Setup:
    """Generates the inputs in fresh interpreters, timing each one; checks that
    every generation writes the same files."""

    def __init__(self, workload, seed: int, work: Path, checks: Checks):
        self.workload, self.seed, self.work, self.checks = workload, seed, work, checks
        self.times: list[float] = []
        self.inputs: dict = {}
        self._first: dict | None = None

    def __call__(self) -> dict:
        out = self.work / f"inputs{len(self.times)}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), "--workload", self.workload.name,
             "--seed", str(self.seed), "--out", str(out)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: input generation failed:\n{proc.stderr}")
        inputs = json.loads(proc.stdout.strip().splitlines()[-1])
        contents = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self._first is None:
            self._first, self.inputs = contents, inputs
        else:
            self.checks.check(contents == self._first, "the same seed gave different input files")
        return self.inputs


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_calibrate(stdout: str, inputs: dict, tunnels_doc: dict | None, shipped: dict | None,
                    checks: Checks) -> None:
    try:
        doc = json.loads(stdout)
        factor = float(doc["capacity_factor"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        checks.check(False, f"calibrate printed no capacity factor: {stdout[:200]!r}")
        return
    checks.check(doc.get("unroutable_demands") == [], "calibrate reported unroutable demands")
    if tunnels_doc is not None:
        net = reference.Network(json.loads(Path(inputs["topo"]).read_text()))
        exact = reference.min_capacity_factor(
            net, [d["volume"] for d in tunnels_doc["demands"]], tunnels_doc["tunnels"])
        checks.check(reference.factor_close(factor, exact),
                     f"capacity factor {factor!r} vs min-max-utilization LP {exact!r}")
    if shipped is not None:
        checks.check(reference.factor_close(factor, shipped["capacity_factor"]),
                     f"capacity factor {factor!r} vs recorded {shipped['capacity_factor']!r}")


def check_solve(stdout: str, inputs: dict, recorded: float | None,
                checks: Checks) -> dict | None:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        checks.check(False, "solve printed no JSON document")
        return None
    checks.check(doc.get("congestion_free") == "pass",
                 f"congestion_free is {doc.get('congestion_free')!r}")
    net = reference.Network(json.loads(Path(inputs["topo"]).read_text()))
    exact = reference.max_delivery(net, [d["volume"] for d in doc["demands"]], doc["tunnels"],
                                   ffc=doc.get("model") == "ffc")
    checks.check(reference.objective_close(doc["objective"], exact),
                 f"objective {doc['objective']!r} vs reference LP {exact!r}")
    if recorded is not None:
        checks.check(reference.objective_close(doc["objective"], recorded),
                     f"objective {doc['objective']!r} vs recorded {recorded!r}")
    return doc


def check_sweep(out_dirs: list[Path], inputs: dict, recorded: dict | None,
                checks: Checks) -> dict | None:
    """Check every row of the sweep, written whole or one scale per directory;
    return the te fixed:5 scale-1 dump (calibration's tunnels)."""
    rows, dumps = {}, []
    for out_dir in out_dirs:
        path = out_dir / "results.csv"
        if not checks.check(path.exists(), f"sweep wrote no {path.name} in {out_dir.name}"):
            return None
        rows.update((reference.point_key(r["model"], r["policy"], r["scale"]), r)
                    for r in csv.DictReader(io.StringIO(path.read_text())))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        dumps += [out_dir / rel for rel in manifest["solutions"]]
    checks.check(len(rows) == 28, f"sweep produced {len(rows)} points, expected 28")
    net = reference.Network(json.loads(Path(inputs["topo"]).read_text()))
    calibration_tunnels = None
    for key, row in rows.items():
        checks.check(row["status"] == "optimal", f"{key}: status {row['status']!r}")
        if row["model"] == "ffc":
            checks.check(row["congestion_free"] == "pass",
                         f"{key}: congestion_free {row['congestion_free']!r}")
    for path in dumps:
        dump = json.loads(path.read_text())
        key = reference.point_key(dump["model"], dump["policy"], dump["scale"])
        objective = float(rows[key]["objective"])
        exact = reference.max_delivery(net, [d["volume"] for d in dump["demands"]],
                                       dump["tunnels"], ffc=dump["model"] == "ffc")
        checks.check(reference.objective_close(objective, exact),
                     f"{key}: objective {objective!r} vs reference LP {exact!r}")
        if recorded is not None:
            checks.check(reference.objective_close(objective, recorded[key]),
                         f"{key}: objective {objective!r} vs recorded {recorded[key]!r}")
        if key == reference.point_key("te", "fixed:5", 1.0):
            calibration_tunnels = dump
    return calibration_tunnels


def check_outputs(workload, inputs: dict, seed: int, calibrate_out: str | None,
                  main_outs: list[str], main_dirs: list[Path], checks: Checks) -> None:
    """Check the output of each part of the main command and, when given, the
    calibrate output.  Recorded values are those of the seed's own matrix, the
    first part."""
    shipped = reference.shipped(workload.name, seed)
    if workload.main_kind == "sweep":
        tunnels_doc = check_sweep(main_dirs, inputs, shipped and shipped["objectives"], checks)
    else:
        docs = [check_solve(out, inputs, shipped["objective"] if shipped and i == 0 else None,
                            checks)
                for i, out in enumerate(main_outs)]
        tunnels_doc = docs[0]
    if calibrate_out is not None:
        check_calibrate(calibrate_out, inputs, tunnels_doc, shipped, checks)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, work: Path, checks: Checks) -> dict:
    """Untraced run: end-to-end metrics, outputs checked on every repetition.

    The parts of the main command run in turn, with fresh set-ups spread
    between them, until ``seconds`` have passed and every part has run
    ``MAIN_MIN_REPS`` times.  ``command_s`` is the sum over the parts of each
    part's fastest call, and ``setup_s`` the fastest set-up.  On a shared
    2-vCPU VM interference only ever slows a call, and it comes in phases of
    5-15 s that moved the median of a fixed 20 ms loop by up to 40%, while
    its fastest call in each 5 s window stayed within 5%.
    """
    setup = Setup(workload, seed, work, checks)
    inputs = setup()
    runs: dict = {part: [] for part in workload.parts}  # part -> [(seconds, canonical, dir)]
    setup_before = {len(workload.parts) * k // SETUPS_PER_CYCLE for k in range(SETUPS_PER_CYCLE)}
    until = time.perf_counter() + seconds
    for rep in itertools.count():
        if rep >= MAIN_MIN_REPS and time.perf_counter() >= until:
            break
        for i, part in enumerate(workload.parts):
            if i in setup_before:
                setup()
            out_dir = work / f"out{rep}_{i}"
            t, stdout = run_cli(workload.main_argv(inputs, out_dir, part), checks)
            runs[part].append((t, canonical(workload.main_kind, stdout, out_dir),
                               stdout, out_dir))
    while len(setup.times) < SETUP_MIN_REPS:
        setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for part, reps in runs.items():
        checks.check(all(r[1] == reps[0][1] for r in reps),
                     f"{workload.main_kind} part {part} output changed between repetitions")
    first = [reps[0] for reps in runs.values()]
    check_outputs(workload, inputs, seed, None, [r[2] for r in first], [r[3] for r in first],
                  checks)
    samples = {"setup_s": setup.times,
               "command_s": {str(part): [r[0] for r in reps] for part, reps in runs.items()}}
    metrics = {
        "setup_s": min(setup.times),
        "command_s": sum(min(r[0] for r in reps) for reps in runs.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"metrics": metrics, "samples": samples}


def traced(workload, seed: int, work: Path, checks: Checks) -> dict:
    """Traced run: each command untraced then traced; per-layer metrics and overhead."""
    from telab.lpcore import check_feasibility

    inputs = Setup(workload, seed, work, checks)()
    cal_argv = workload.calibrate_argv(inputs)
    kind = workload.main_kind
    # Untraced first, so the traced pass pays no first-call costs twice.
    _, cal_plain = run_cli(cal_argv, checks)
    plain_dir = work / "out_untraced"
    plain_s, plain_out = run_cli(workload.main_argv(inputs, plain_dir), checks)

    cal_tracer, tracer = spans.Tracer(), spans.Tracer()
    with spans.patched(cal_tracer) as missing:
        _, cal_traced = run_cli(cal_argv, checks, cal_tracer)
    traced_dir = work / "out_traced"
    with spans.patched(tracer):
        traced_s, traced_out = run_cli(workload.main_argv(inputs, traced_dir), checks, tracer)
    for name in missing:
        print(f"perfbench: warning: {name} not found, its layer is not traced", file=sys.stderr)

    checks.check(cal_traced == cal_plain, "traced calibrate output differs from untraced")
    checks.check(canonical(kind, traced_out, traced_dir) == canonical(kind, plain_out, plain_dir),
                 f"traced {kind} output differs from untraced")
    check_outputs(workload, inputs, seed, cal_plain, [plain_out], [plain_dir], checks)

    recheck_s = 0.0
    for prob, sol in tracer.solved:
        if sol.status == "optimal":
            t0 = time.perf_counter()
            issues = check_feasibility(prob, sol.values)
            recheck_s += time.perf_counter() - t0
            checks.check(not issues, f"feasibility re-check found {issues[:3]}")
    layers = spans.layer_metrics(tracer, cal_tracer, recheck_s, traced_s - plain_s)
    expected_rows = EXPECTED_FFC_ROWS.get(getattr(workload, "nodes", 0))
    if expected_rows is not None:
        checks.check(layers["temodels.rows"] == expected_rows,
                     f"FFC LP has {layers['temodels.rows']} rows, expected {expected_rows}")
    return {"metrics": layers, "samples": {"command_s": [plain_s, traced_s]}}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "telab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(CHECKOUT).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_one(args) -> int:
    workload = BY_NAME[args.workload]
    import_telab()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    checks = Checks()
    try:
        if args.trace:
            result = traced(workload, args.seed, work, checks)
        else:
            result = measure(workload, args.seed, args.seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = spans.LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"environment": environment(args.seed),
                      "workload": workload.name, "samples": result["samples"]}))
    for name, value in result["metrics"].items():
        print(f"{workload.name:18s} {name:26s} {value:14.6f} {units[name]}")
    print(f"{workload.name:18s} {'fail_ratio':26s} {len(checks.failures)}/{checks.attempted}")
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process; print a table."""
    ok = True
    for name in WORKLOADS:
        for flag in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", flag],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: run failed with exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{name} --trace {flag}: correct={result['correct']} "
                  f"fail_ratio={result['failed']}/{result['attempted']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:26s} {entry['value']:14.6f} {entry['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *BY_NAME])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
