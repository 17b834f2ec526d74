"""Benchmark workloads: the inputs each one generates and the telab commands it times.

Every workload has a main command, timed end to end (the 28-point B4 sweep,
or an FFC solve on a synthetic topology), and a ``telab calibrate`` on the
same topology and traffic matrix, timed per layer in the traced run.  The
main command comes in ``parts``, each one CLI call (the sweep one scale at a
time with ``--scales``, the solve once per traffic matrix), so that the
untraced run can time short calls.  Inputs are made from the workload seed
alone, so the same seed gives the same files.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"
DATA = SRC / "telab" / "data"

DEFAULT_SEED = 7
SWEEP_SCALES = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
SYN_MU, SYN_SIGMA = 3.0, 1.2
# FFC normal-only rows of the synN recipe: 2 capacity rows per link plus one
# delivery row per demand and scenario (the normal state and each link down).
EXPECTED_FFC_ROWS = {24: 21_604, 40: 101_528}


def import_telab():
    """Import telab from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "telab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no telab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import telab

    if Path(telab.__file__).resolve().parent != SRC / "telab":
        raise SystemExit(f"perfbench: imported telab from {telab.__file__}, not {SRC}")
    return telab


def syn_topology_doc(n: int) -> dict:
    """The synN recipe: a ring, seeded random chords up to int(1.6*n) links,
    capacities drawn from integers(200, 800), all from ``default_rng(0)``."""
    import numpy as np

    rng = np.random.default_rng(0)
    links = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    while len(links) < int(1.6 * n):
        u, v = rng.choice(n, size=2, replace=False)
        links.add(tuple(sorted((int(u), int(v)))))
    ordered = sorted(links)
    caps = rng.integers(200, 800, size=len(ordered))
    return {
        "name": f"syn{n}",
        "nodes": [{"id": f"n{i}"} for i in range(n)],
        "links": [{"src": f"n{u}", "dst": f"n{v}", "capacity": float(c)}
                  for (u, v), c in zip(ordered, caps)],
    }


def ffc_normal_only_rows(n_nodes: int, n_links: int) -> int:
    return 2 * n_links + n_nodes * (n_nodes - 1) * (n_links + 1)


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@dataclass(frozen=True)
class SweepWorkload:
    """Calibrate B4, then run the README's 28-point sweep with artifacts, on ``bundled``."""

    name: str
    why: str
    main_kind = "sweep"
    parts = tuple(SWEEP_SCALES)

    def write_inputs(self, work: Path, seed: int) -> dict:
        from telab import fit_lognormal, generate_lognormal_tm, load_topology
        from telab.demands import load_tm, tm_to_json

        topo_path = DATA / "b4.json"
        config = {
            "topology": str(topo_path),
            "seed": seed,
            "scales": SWEEP_SCALES,
            "models": ["te", "ffc"],
            "policies": ["fixed:5", "adaptive"],
            "backend": "bundled",
            "capacity_mode": "all",
            "workers": 1,
        }
        if seed == DEFAULT_SEED:
            tm_path = str(DATA / "b4_tm.json")
            config["tm"] = tm_path
        else:
            topo = load_topology(topo_path)
            fit = fit_lognormal(load_tm(DATA / "b4_tm.json", topo))
            config["fit"] = {"mu": fit.mu, "sigma": fit.sigma}
            # The same matrix the sweep generates from the fit block and seed.
            tm_path = str(work / "tm.json")
            (work / "tm.json").write_text(
                tm_to_json(generate_lognormal_tm(topo, fit, seed), topo))
        return {"topo": str(topo_path), "tm": tm_path,
                "config": _write_json(work / "sweep.json", config)}

    def calibrate_argv(self, inputs: dict) -> list[str]:
        return ["calibrate", "--topo", inputs["topo"], "--tm", inputs["tm"],
                "--tunnels", "fixed:5", "--backend", "bundled"]

    def main_argv(self, inputs: dict, out: Path, part: float | None = None) -> list[str]:
        """The whole sweep, or with ``part`` the sweep of that one scale."""
        argv = ["sweep", "--config", inputs["config"], "--out", str(out), "--workers", "1"]
        return argv if part is None else [*argv, "--scales", repr(part)]


@dataclass(frozen=True)
class SolveWorkload:
    """Calibrate on HiGHS, then FFC normal-only ``fixed:4`` solves, on a seeded
    synthetic topology.

    The main command solves ``tms`` lognormal matrices, one per part: the
    first from the workload seed itself, the others from seeds derived from
    it.  ``topology_file`` and ``tm_file`` replace the synN topology and the
    seeded matrices with shipped instances.
    """

    name: str
    why: str
    backend: str
    nodes: int = 0
    tms: int = 1
    topology_file: str = ""
    tm_file: str = ""
    main_kind = "solve"

    @property
    def parts(self) -> tuple:
        return tuple(range(1 if self.tm_file else self.tms))

    def write_inputs(self, work: Path, seed: int) -> dict:
        from telab import LognormalFit, generate_lognormal_tm, load_topology
        from telab.demands import tm_to_json

        if self.topology_file:
            topo_path = str(DATA / self.topology_file)
        else:
            doc = syn_topology_doc(self.nodes)
            rows = ffc_normal_only_rows(self.nodes, len(doc["links"]))
            if rows != EXPECTED_FFC_ROWS.get(self.nodes, rows):
                raise SystemExit(f"perfbench: syn{self.nodes} gives {rows} FFC rows, "
                                 f"expected {EXPECTED_FFC_ROWS[self.nodes]}")
            topo_path = _write_json(work / "topo.json", doc)
        if self.tm_file:
            tms = [str(DATA / self.tm_file)]
        else:
            import numpy as np

            topo = load_topology(topo_path)
            fit = LognormalFit(SYN_MU, SYN_SIGMA, 0)
            tms = []
            for part in self.parts:
                tm_seed = seed if part == 0 else int(
                    np.random.SeedSequence([seed, part]).generate_state(1)[0])
                tms.append(str(work / f"tm{part}.json"))
                Path(tms[-1]).write_text(tm_to_json(generate_lognormal_tm(topo, fit, tm_seed),
                                                    topo))
        return {"topo": topo_path, "tm": tms[0], "tms": tms}

    def calibrate_argv(self, inputs: dict) -> list[str]:
        return ["calibrate", "--topo", inputs["topo"], "--tm", inputs["tm"],
                "--tunnels", "fixed:4", "--backend", "scipy"]

    def main_argv(self, inputs: dict, out: Path, part: int | None = None) -> list[str]:
        """The solve on the seed's own matrix, or with ``part`` on that part's matrix."""
        tm = inputs["tm"] if part is None else inputs["tms"][part]
        return ["solve", "--topo", inputs["topo"], "--tm", tm, "--model", "ffc",
                "--capacity-mode", "normal-only", "--tunnels", "fixed:4",
                "--backend", self.backend]


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "b4-sweep",
            "calibrate and the 28-point B4 sweep on the bundled simplex; presolve-bound"),
        SolveWorkload(
            "syn40-ffc-scipy",
            "FFC solves of three matrices on syn40 with HiGHS; tunnel, build and "
            "verify-bound, no presolve",
            backend="scipy", nodes=40, tms=3),
    )
}

# Seconds-long instance for the benchmark's own self-check.
DIAMOND = SolveWorkload("diamond", "self-check", backend="bundled",
                        topology_file="diamond.json", tm_file="diamond_tm.json")

BY_NAME = {**WORKLOADS, DIAMOND.name: DIAMOND}
