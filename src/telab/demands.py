"""Traffic matrices: parsing, lognormal fitting, and seeded synthesis.

WAN demand volumes follow a long-tail lognormal distribution, so synthetic
matrices are drawn as ``exp(Normal(mu, sigma))`` per ordered node pair from a
seeded generator.  Fitting is moment matching in log space (equal to the
lognormal MLE): zero-volume demands are kept in the matrix but excluded from
the fit since their log is undefined.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError, is_index, is_number, json_object, list_of, require
from .topology import Topology


@dataclass(frozen=True)
class Demand:
    """One demand, named by its position in ``TrafficMatrix.demands``."""

    src: int
    dst: int
    volume: float


@dataclass(frozen=True)
class TrafficMatrix:
    demands: tuple[Demand, ...]

    @property
    def n(self) -> int:
        return len(self.demands)

    def volumes(self) -> np.ndarray:
        return np.array([d.volume for d in self.demands], dtype=float)

    @property
    def total_volume(self) -> float:
        return float(sum(d.volume for d in self.demands))


@dataclass(frozen=True)
class LognormalFit:
    mu: float
    sigma: float
    n_samples: int


def _demands_from_rows(rows, topo: Topology) -> TrafficMatrix:
    demands: list[Demand] = []
    seen: set[tuple[int, int]] = set()
    for src_id, dst_id, volume in rows:
        s, t = topo.index_of(src_id), topo.index_of(dst_id)
        if s == t:
            raise ValidationError(f"demand with equal endpoints {src_id!r}")
        if (s, t) in seen:
            raise ValidationError(f"duplicate demand {src_id!r} -> {dst_id!r}")
        if not (is_number(volume) and volume >= 0):
            raise ValidationError(f"demand {src_id!r} -> {dst_id!r}: "
                                  f"volume must be a nonnegative number, got {volume!r}")
        seen.add((s, t))
        demands.append(Demand(s, t, float(volume)))
    return TrafficMatrix(tuple(demands))


def parse_tm(text: str, topo: Topology) -> TrafficMatrix:
    """Parse a traffic matrix from JSON or CSV text.

    JSON form: ``{"demands": [{"src": str, "dst": str, "volume": number}]}``
    (extra top-level keys such as generation metadata are ignored).  CSV form:
    header row ``src,dst,volume`` followed by one row per demand.
    """
    if text.lstrip().startswith("{"):
        doc = json_object(text, "traffic matrix document")
        entries = list_of(doc, "demands", lambda e: isinstance(e, dict), "objects")
        return _demands_from_rows([(e.get("src"), e.get("dst"), e.get("volume")) for e in entries],
                                  topo)

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty traffic matrix document") from None
    require([h.strip().lower() for h in header] == ["src", "dst", "volume"],
            f"expected CSV header 'src,dst,volume', got {header!r}")
    rows = []
    for line in reader:
        if not line or all(not cell.strip() for cell in line):
            continue
        require(len(line) == 3, f"malformed CSV row {line!r}")
        try:
            vol = float(line[2])
        except ValueError:
            raise ValidationError(f"non-numeric volume in row {line!r}") from None
        rows.append((line[0].strip(), line[1].strip(), vol))
    return _demands_from_rows(rows, topo)


def load_tm(path: str | Path, topo: Topology) -> TrafficMatrix:
    return parse_tm(Path(path).read_text(), topo)


def _demand_entries(tm: TrafficMatrix, topo: Topology) -> list[dict]:
    """The ``"demands"`` entries of a traffic matrix or solution document."""
    return [{"src": topo.node_ids[d.src], "dst": topo.node_ids[d.dst], "volume": d.volume}
            for d in tm.demands]


def tm_to_json(tm: TrafficMatrix, topo: Topology, meta: dict | None = None) -> str:
    doc = dict(meta or {})
    doc["demands"] = _demand_entries(tm, topo)
    return json.dumps(doc, indent=2)


def fit_lognormal(tm: TrafficMatrix) -> LognormalFit:
    """Fit (mu, sigma) of ln(volume) over demands with positive volume.

    ``sigma`` is the population standard deviation (divisor n).  Requires at
    least two positive volumes and a nondegenerate spread.
    """
    vols = tm.volumes()
    vols = vols[vols > 0]
    if vols.size < 2:
        raise ValidationError("lognormal fit needs at least 2 positive volumes")
    logs = np.log(vols)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=0))
    if sigma <= 0:
        raise ValidationError("degenerate volume distribution: sigma must be > 0")
    return LognormalFit(mu, sigma, int(vols.size))


def check_lognormal_fit(fit: LognormalFit) -> None:
    """Raise ``ValidationError`` unless mu is finite and sigma finite and positive."""
    require(is_number(fit.mu) and is_number(fit.sigma) and fit.sigma > 0,
            f"lognormal fit needs a finite mu and a finite sigma > 0, "
            f"got mu={fit.mu!r}, sigma={fit.sigma!r}")


def generate_lognormal_tm(topo: Topology, fit: LognormalFit, seed: int) -> TrafficMatrix:
    """Draw one demand per ordered node pair from the fitted lognormal.

    Same (topo, fit, seed) always produces the same matrix: pairs are
    enumerated in (src, dst) index order and volumes drawn in one batch from
    ``numpy.random.default_rng(seed)``.
    """
    check_lognormal_fit(fit)
    require(is_index(seed, math.inf), f"seed must be an integer >= 0, got {seed!r}")
    n = topo.n_nodes
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    rng = np.random.default_rng(seed)
    vols = rng.lognormal(mean=fit.mu, sigma=fit.sigma, size=len(pairs))
    if not np.isfinite(vols).all():
        raise ValidationError(f"lognormal fit mu={fit.mu!r}, sigma={fit.sigma!r} "
                              "draws volumes too large for a float")
    return TrafficMatrix(tuple(Demand(s, t, float(v)) for (s, t), v in zip(pairs, vols)))


def scale_tm(tm: TrafficMatrix, factor: float) -> TrafficMatrix:
    """Multiply every demand volume by ``factor`` (>= 0); a product too large
    for a float is a ``ValidationError``."""
    require(is_number(factor) and factor >= 0,
            f"demand scale factor must be nonnegative, got {factor!r}")
    require(is_number(max((d.volume for d in tm.demands), default=0.0) * float(factor)),
            f"demand scale factor {factor!r} makes a volume too large for a float")
    return TrafficMatrix(tuple(replace(d, volume=d.volume * float(factor))
                               for d in tm.demands))
