"""Tunnel-based WAN traffic engineering lab.

Library layers, bottom up: topology and traffic matrices, tunnel
precomputation with failure scenarios, a sparse LP core with pluggable
solver backends, TE and congestion-free resilient model builders, solution
metrics, and a batch experiment harness with a CLI.
"""

__version__ = "0.1.0"

from importlib import resources as _resources
from pathlib import Path


def data_path(name: str) -> Path:
    """Filesystem path of a shipped instance file, e.g. ``data_path("b4.json")``."""
    return Path(str(_resources.files("telab") / "data" / name))


from .demands import (
    Demand,
    LognormalFit,
    TrafficMatrix,
    fit_lognormal,
    generate_lognormal_tm,
    parse_tm,
    scale_tm,
)
from .errors import SolveError, ValidationError
from .harness import ExperimentConfig, ResultRow, calibrate_capacities, run_experiment
from .lpcore import LpProblem, LpSolution, solve
from .metrics import MetricsReport, compute_metrics, utilization_histogram
from .temodels import (
    TeModel,
    TeSolution,
    build_ffc_lp,
    build_te_lp,
    extract_solution,
    solve_model,
    verify_congestion_free,
)
from .topology import Arc, Topology, load_topology, parse_topology, scale_capacities, serialize_topology
from .tunnels import (
    AdaptiveTunnelPolicy,
    FixedTunnelPolicy,
    ScenarioSet,
    TunnelSet,
    available_tunnels,
    build_tunnel_sets,
    enumerate_single_link_scenarios,
    k_shortest_paths,
)

__all__ = [
    "__version__",
    "data_path",
    "Arc",
    "Topology",
    "parse_topology",
    "serialize_topology",
    "load_topology",
    "scale_capacities",
    "Demand",
    "TrafficMatrix",
    "LognormalFit",
    "parse_tm",
    "fit_lognormal",
    "generate_lognormal_tm",
    "scale_tm",
    "TunnelSet",
    "ScenarioSet",
    "FixedTunnelPolicy",
    "AdaptiveTunnelPolicy",
    "k_shortest_paths",
    "build_tunnel_sets",
    "enumerate_single_link_scenarios",
    "available_tunnels",
    "LpProblem",
    "LpSolution",
    "solve",
    "TeModel",
    "TeSolution",
    "build_te_lp",
    "build_ffc_lp",
    "extract_solution",
    "solve_model",
    "verify_congestion_free",
    "MetricsReport",
    "compute_metrics",
    "utilization_histogram",
    "ExperimentConfig",
    "ResultRow",
    "calibrate_capacities",
    "run_experiment",
    "ValidationError",
    "SolveError",
]
