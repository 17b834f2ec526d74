import json
import math

import numpy as np
import pytest

from telab import (
    LognormalFit,
    ValidationError,
    fit_lognormal,
    generate_lognormal_tm,
    parse_tm,
    scale_tm,
)
from conftest import make_tm, make_topology


@pytest.fixture
def line3():
    return make_topology(["a", "b", "c"], [("a", "b", 5), ("b", "c", 5)])


def test_parse_json_and_csv_agree(line3):
    doc = {"demands": [{"src": "a", "dst": "c", "volume": 2.5}, {"src": "c", "dst": "a", "volume": 1.0}]}
    tm_json = parse_tm(json.dumps(doc), line3)
    tm_csv = parse_tm("src,dst,volume\na,c,2.5\nc,a,1.0\n", line3)
    assert tm_json == tm_csv
    assert tm_json.total_volume == 3.5


def test_parse_full_mesh_count(b4_topo, b4_tm):
    assert b4_tm.n == 12 * 11


def test_empty_tm_is_valid(line3):
    tm = parse_tm('{"demands": []}', line3)
    assert tm.n == 0
    assert tm.total_volume == 0.0


@pytest.mark.parametrize(
    "rows, msg",
    [
        ([("a", "a", 1.0)], "equal endpoints"),
        ([("a", "c", 1.0), ("a", "c", 2.0)], "duplicate"),
        ([("a", "c", -1.0)], "volume"),
        ([("a", "zz", 1.0)], "unknown node"),
        ([("a", "c", True)], "volume"),
    ],
)
def test_parse_validation(line3, rows, msg):
    doc = {"demands": [{"src": s, "dst": t, "volume": v} for s, t, v in rows]}
    with pytest.raises(ValidationError, match=msg):
        parse_tm(json.dumps(doc), line3)


@pytest.mark.parametrize("text, msg", [
    ("{not json", "malformed traffic matrix document"),
    ('{"demands": 5}', "'demands' must be a list of objects"),
    ('{"demands": [5]}', "'demands' must be a list of objects"),
    ("", "empty traffic matrix document"),
    ("source,dest,volume\n", "expected CSV header"),
    ("src,dst,volume\na,c\n", "malformed CSV row"),
    ("src,dst,volume\na,c,lots\n", "non-numeric volume"),
    ("src,dst,volume\na,c,nan\n", "volume must be a nonnegative number"),
])
def test_parse_rejects_malformed_text(line3, text, msg):
    with pytest.raises(ValidationError, match=msg):
        parse_tm(text, line3)


def test_fit_two_point_analytic(line3):
    tm = make_tm(line3, [("a", "c", math.e), ("c", "a", math.e**3)])
    fit = fit_lognormal(tm)
    assert fit.mu == pytest.approx(2.0, abs=1e-12)
    assert fit.sigma == pytest.approx(1.0, abs=1e-12)
    assert fit.n_samples == 2


def test_fit_excludes_zero_volumes(line3):
    tm = make_tm(line3, [("a", "c", math.e), ("c", "a", math.e**3), ("a", "b", 0.0)])
    fit = fit_lognormal(tm)
    assert fit.mu == pytest.approx(2.0)
    assert fit.n_samples == 2


def test_fit_degenerate_rejected(line3):
    tm = make_tm(line3, [("a", "c", 4.0), ("c", "a", 4.0)])
    with pytest.raises(ValidationError, match="sigma"):
        fit_lognormal(tm)


def test_fit_needs_two_positive(line3):
    tm = make_tm(line3, [("a", "c", 4.0), ("c", "a", 0.0)])
    with pytest.raises(ValidationError, match="positive"):
        fit_lognormal(tm)


def test_generate_covers_every_ordered_pair():
    topo = make_topology(["a", "b"], [("a", "b", 1)])
    tm = generate_lognormal_tm(topo, LognormalFit(1.0, 0.5, 0), seed=1)
    assert tm.n == 2
    assert {(d.src, d.dst) for d in tm.demands} == {(0, 1), (1, 0)}
    assert all(d.volume > 0 for d in tm.demands)


@pytest.mark.parametrize("mu, sigma", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                       (1.0, math.inf), (1.0, 0.0), (1e308, 1.0)])
def test_generate_needs_a_finite_fit_and_finite_volumes(mu, sigma):
    topo = make_topology(["a", "b"], [("a", "b", 1)])
    with pytest.raises(ValidationError, match="lognormal fit"):
        generate_lognormal_tm(topo, LognormalFit(mu, sigma, 0), seed=1)


def test_generate_deterministic(b4_topo):
    fit = LognormalFit(3.0, 1.2, 0)
    a = generate_lognormal_tm(b4_topo, fit, seed=7)
    b = generate_lognormal_tm(b4_topo, fit, seed=7)
    assert a == b
    c = generate_lognormal_tm(b4_topo, fit, seed=8)
    assert a != c


def test_shipped_tm_matches_documented_generator(b4_topo, b4_tm):
    # The packaged matrix is the seed-7 draw from the documented fit.
    regen = generate_lognormal_tm(b4_topo, LognormalFit(3.0, 1.2, 0), seed=7)
    assert np.allclose(regen.volumes(), b4_tm.volumes(), rtol=0, atol=1e-12)


def test_generate_large_topology_pair_count():
    names = [f"n{i}" for i in range(158)]
    topo = make_topology(names, [(names[i], names[i + 1], 1) for i in range(157)])
    tm = generate_lognormal_tm(topo, LognormalFit(3.0, 1.2, 0), seed=0)
    assert tm.n == 158 * 157 == 24_806


def test_fit_generate_self_consistency():
    # 101 nodes -> 10100 pairs, enough for a tight moment recovery.
    names = [f"n{i}" for i in range(101)]
    topo = make_topology(names, [(names[i], names[i + 1], 1) for i in range(100)])
    fit = LognormalFit(2.0, 0.8, 0)
    tm = generate_lognormal_tm(topo, fit, seed=123)
    est = fit_lognormal(tm)
    assert est.mu == pytest.approx(2.0, abs=0.03)
    assert est.sigma == pytest.approx(0.8, abs=0.03)


def test_scale_tm(line3):
    tm = make_tm(line3, [("a", "c", 2.0), ("c", "a", 3.0)])
    assert scale_tm(tm, 1.0) == tm
    doubled = scale_tm(tm, 2.0)
    assert doubled.total_volume == pytest.approx(2 * tm.total_volume)
    assert [(d.src, d.dst) for d in doubled.demands] == [(d.src, d.dst) for d in tm.demands]
    zero = scale_tm(tm, 0.0)
    assert zero.total_volume == 0.0
    with pytest.raises(ValidationError):
        scale_tm(tm, -0.5)
    with pytest.raises(ValidationError, match="too large for a float"):
        scale_tm(tm, 1e308)  # 2e308 and 3e308 overflow
