"""Tunnel-based WAN traffic engineering lab.

Library layers, bottom up: topology and traffic matrices, tunnel
precomputation with failure scenarios, a sparse LP core with pluggable
solver backends, TE and congestion-free resilient model builders, solution
metrics, and a batch experiment harness with a CLI.

``import telab`` loads no layer: each public name, and each submodule as
an attribute, is imported on first access and then bound here (PEP 562).
Topology and traffic-matrix work thus loads numpy only; scipy loads with
the first tunnel, LP or model name.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the public names it exports, in ``__all__`` order.
_EXPORTS = {
    "topology": ("Arc", "Topology", "parse_topology", "load_topology", "scale_capacities"),
    "demands": ("Demand", "TrafficMatrix", "LognormalFit", "parse_tm", "fit_lognormal",
                "generate_lognormal_tm", "scale_tm"),
    "tunnels": ("TunnelSet", "FixedTunnelPolicy", "AdaptiveTunnelPolicy", "k_shortest_paths",
                "build_tunnel_sets", "enumerate_single_link_scenarios"),
    "lpcore": ("LpProblem", "LpSolution", "solve"),
    "temodels": ("TeModel", "TeSolution", "build_te_lp", "build_ffc_lp", "extract_solution",
                 "solve_model", "verify_congestion_free"),
    "metrics": ("MetricsReport", "compute_metrics"),
    "harness": ("ExperimentConfig", "ResultRow", "calibrate_capacities", "run_experiment"),
    "errors": ("ValidationError", "SolveError"),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)  # binds the module here too
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
