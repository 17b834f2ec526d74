import json

import numpy as np
import pytest

from telab import ValidationError, parse_topology, scale_capacities
from conftest import make_topology


def test_link_materializes_two_arcs():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    assert topo.n_nodes == 2
    assert topo.n_arcs == 2
    fwd, rev = topo.arcs
    assert (fwd.src, fwd.dst) == (0, 1)
    assert (rev.src, rev.dst) == (1, 0)
    assert topo.arc_by_endpoints[(0, 1)] // 2 == topo.arc_by_endpoints[(1, 0)] // 2 == 0
    assert fwd.capacity == rev.capacity == 10.0
    assert fwd.weight == 1.0  # default


def test_b4_instance_counts(b4_topo):
    assert b4_topo.n_nodes == 12
    assert b4_topo.n_links == 19
    assert b4_topo.n_arcs == 38


def test_reverse_arc_pairing(b4_topo):
    by_pair = {}
    for e, a in enumerate(b4_topo.arcs):
        by_pair.setdefault(e // 2, []).append(a)
    for pair, arcs in by_pair.items():
        assert len(arcs) == 2
        f, r = arcs
        assert (f.src, f.dst) == (r.dst, r.src)
        assert f.capacity == r.capacity
        assert f.weight == r.weight


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda d: d["nodes"].append({"id": "a"}), "duplicate node"),
        (lambda d: d["links"].append({"src": "a", "dst": "zz", "capacity": 1}), "unknown endpoint"),
        (lambda d: d["links"].append({"src": "a", "dst": "a", "capacity": 1}), "self-loop"),
        (lambda d: d["links"].append({"src": "b", "dst": "a", "capacity": 1}), "duplicate link"),
        (lambda d: d["links"].__setitem__(0, {"src": "a", "dst": "b", "capacity": 0}), "capacity"),
        (lambda d: d["links"].__setitem__(0, {"src": "a", "dst": "b", "capacity": -3}), "capacity"),
        (lambda d: d["links"][0].update(capacity=True), "capacity"),
        (lambda d: d["links"][0].update(capacity=10**400), "capacity"),
        (lambda d: d["links"][0].update(weight=False), "weight"),
        pytest.param(lambda d: d["links"][0].update(src=["a"]), "unknown endpoint", id="non-string endpoint"),
    ],
)
def test_validation_errors(mutate, msg):
    doc = {
        "name": "x",
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "links": [{"src": "a", "dst": "b", "capacity": 1}, {"src": "b", "dst": "c", "capacity": 1}],
    }
    mutate(doc)
    with pytest.raises(ValidationError, match=msg):
        parse_topology(json.dumps(doc))


def test_malformed_document_is_validation_error():
    with pytest.raises(ValidationError, match="malformed"):
        parse_topology("{not json")


@pytest.mark.parametrize("text, msg", [
    ("[]", r"topology document must be a JSON object, got \[\]"),
    ('{"nodes": {}, "links": []}', "'nodes' must be a list"),
    ('{"nodes": [{"id": 1}], "links": []}', "'nodes' must be a list of objects with a string 'id'"),
    ('{"nodes": [], "links": [5]}', "'links' must be a list of objects"),
])
def test_document_shape_errors(text, msg):
    with pytest.raises(ValidationError, match=msg):
        parse_topology(text)


def test_scale_capacities_identity_and_arithmetic():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    assert scale_capacities(topo, 1.0) == topo
    scaled = scale_capacities(topo, 2.5)
    assert all(a.capacity == 25.0 for a in scaled.arcs)
    assert [a.weight for a in scaled.arcs] == [a.weight for a in topo.arcs]


def test_scale_capacities_compose(b4_topo):
    rng = np.random.default_rng(0)
    for _ in range(10):
        f1, f2 = rng.uniform(0.1, 4.0, 2)
        once = scale_capacities(b4_topo, f1 * f2)
        twice = scale_capacities(scale_capacities(b4_topo, f1), f2)
        for a, b in zip(once.arcs, twice.arcs):
            assert a.capacity == pytest.approx(b.capacity, rel=1e-12)


def test_scale_capacities_rejects_nonpositive():
    topo = make_topology(["a", "b"], [("a", "b", 10)])
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError):
            scale_capacities(topo, bad)
    with pytest.raises(ValidationError, match="too large for a float"):
        scale_capacities(topo, 1e308)  # 1e309 overflows
