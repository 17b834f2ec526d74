import numpy as np
import pytest

from telab import (
    AdaptiveTunnelPolicy,
    FixedTunnelPolicy,
    ValidationError,
    build_tunnel_sets,
    enumerate_single_link_scenarios,
    k_shortest_paths,
)
from telab import tunnels
from telab.topology import load_topology
from telab.tunnels import parse_policy, surviving_tunnels, tunnel_counts
from conftest import DATA, make_tm, make_topology, random_te_instance, syn_topology
from oracles import all_simple_paths, dead_arcs, ksp_oracle, path_arcs, path_cost, yen_oracle


def triangle():
    return make_topology(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])


def test_ksp_triangle():
    topo = triangle()
    paths = k_shortest_paths(topo, 0, 1, 2)
    assert paths == [(0, 1), (0, 2, 1)]


def test_ksp_returns_fewer_when_exhausted():
    topo = make_topology(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
    assert k_shortest_paths(topo, 0, 2, 5) == [(0, 1, 2)]


def test_ksp_disconnected_pair_empty():
    topo = make_topology(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])
    assert k_shortest_paths(topo, 0, 2, 3) == []


def test_ksp_rejects_bad_args():
    topo = triangle()
    with pytest.raises(ValidationError):
        k_shortest_paths(topo, 0, 0, 2)
    with pytest.raises(ValidationError):
        k_shortest_paths(topo, 0, 1, 0)


def random_graph(rng, n, weights):
    """A random connected graph: a spanning tree plus up to n chords."""
    names = [f"n{i}" for i in range(n)]
    links = set()
    for i in range(1, n):
        links.add((int(rng.integers(0, i)), i))
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            links.add((min(int(i), int(j)), max(int(i), int(j))))
    return make_topology(
        names, [(names[a], names[b], 1.0, float(rng.choice(weights))) for a, b in sorted(links)])


def test_ksp_matches_bruteforce_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        topo = random_graph(rng, n, [1.0, 2.0, 3.0])
        s, t = 0, n - 1
        got = k_shortest_paths(topo, s, t, 4)
        want = ksp_oracle(topo, s, t, 4)
        assert got == want
        assert got == yen_oracle(topo, s, t, 4)


def test_ksp_matches_yen_and_bruteforce_with_zero_weights():
    # integer weights keep every path sum exact, zero-weight arcs included
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        topo = random_graph(rng, n, [0.0, 1.0, 2.0, 3.0])
        for s in range(n):
            for t in range(n):
                if s != t:
                    got = k_shortest_paths(topo, s, t, 5)
                    assert got == yen_oracle(topo, s, t, 5) == ksp_oracle(topo, s, t, 5)


def test_ksp_costs_match_bruteforce_with_decimal_weights():
    # inexact sums: equal-cost paths may come out in float-rounding order, so
    # only the cost list is compared, within 1e-9 relative
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(5, 9))
        topo = random_graph(rng, n, [0.0, 0.1, 0.2, 0.3, 0.7])
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                got = k_shortest_paths(topo, s, t, 4)
                want = ksp_oracle(topo, s, t, 4)
                assert [path_cost(topo, p) for p in got] == pytest.approx(
                    [path_cost(topo, p) for p in want], rel=1e-9, abs=0.0)
                assert all(len(set(p)) == len(p) and p[0] == s and p[-1] == t for p in got)
                assert len(set(got)) == len(got)


@pytest.mark.parametrize("policy", [FixedTunnelPolicy(5), AdaptiveTunnelPolicy()])
def test_b4_tunnels_match_yen(b4_topo, b4_tm, policy):
    ts = build_tunnel_sets(b4_topo, b4_tm, policy)
    counts = tunnel_counts(policy, b4_tm)
    for f, d in enumerate(b4_tm.demands):
        want = yen_oracle(b4_topo, d.src, d.dst, counts[f])
        assert [ts.paths[t] for t in ts.by_demand[f]] == want


@pytest.mark.parametrize("n", [24, 40])
def test_syn_fixed4_paths_match_yen(n):
    topo = syn_topology(n)
    for s in range(n):
        for t in range(n):
            if s != t:
                assert k_shortest_paths(topo, s, t, 4) == yen_oracle(topo, s, t, 4)


def test_distances_to_match_bruteforce():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        topo = random_graph(rng, n, [0.0, 1.0, 2.0, 3.0])
        for s in range(n):
            for t in range(n):
                paths = all_simple_paths(topo.adjacency, s, t) if s != t else [(0.0, (s,))]
                assert topo.distances_to[t][s] == min(cost for cost, _ in paths)
    topo = make_topology(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])
    assert topo.distances_to[2][0] == float("inf")


def assert_all_pairs_match_oracles(topo, ks):
    for s in range(topo.n_nodes):
        for t in range(topo.n_nodes):
            if s != t:
                for k in ks:
                    want = ksp_oracle(topo, s, t, k)
                    assert k_shortest_paths(topo, s, t, k) == want == yen_oracle(topo, s, t, k)


def test_ksp_ring_with_a_hanging_clique():
    # r0 is also a clique node.  A prefix that leaves r0 into the clique can
    # only leave the clique through r0 again, so toward a ring destination
    # every such prefix fails to complete.
    ring = [f"r{i}" for i in range(8)]
    clique = ["r0"] + [f"c{i}" for i in range(4)]
    links = [(ring[i], ring[(i + 1) % 8], 1) for i in range(8)]
    links += [(a, b, 1) for i, a in enumerate(clique) for b in clique[i + 1:]]
    assert_all_pairs_match_oracles(make_topology(ring + clique[1:], links), [1, 3, 8])


def test_ksp_pair_joined_by_a_direct_arc():
    # s-t is the dearest route, so it is a deviation whose prefix (s, t)
    # already ends at t; the graph is complete, so every pair has such an arc.
    topo = make_topology(["s", "a", "b", "t"],
                         [("s", "a", 1, 1), ("a", "t", 1, 1), ("s", "b", 1, 2),
                          ("b", "t", 1, 1), ("s", "t", 1, 5), ("a", "b", 1, 1)])
    assert k_shortest_paths(topo, 0, 3, 5) == [(0, 1, 3), (0, 1, 2, 3), (0, 2, 3),
                                               (0, 2, 1, 3), (0, 3)]
    assert_all_pairs_match_oracles(topo, [1, 2, 5, 9])


def test_ksp_zero_weight_arc_at_a_deviation_node():
    # a-b weighs nothing, so the four s-t routes tie at cost 2 and come out
    # in node order; (0, 1, 2, 3) leaves a and (0, 2, 1, 3) leaves b by the
    # zero arc, and the paths after each of them deviate at that node.
    topo = make_topology(["s", "a", "b", "t"],
                         [("s", "a", 1, 1), ("a", "t", 1, 1), ("a", "b", 1, 0),
                          ("s", "b", 1, 1), ("b", "t", 1, 1)])
    assert k_shortest_paths(topo, 0, 3, 4) == [(0, 1, 2, 3), (0, 1, 3), (0, 2, 1, 3), (0, 2, 3)]
    assert_all_pairs_match_oracles(topo, [1, 2, 4, 6])


def test_ksp_ordering_properties(b4_topo):
    for s, t in [(0, 11), (3, 7), (5, 9)]:
        paths = k_shortest_paths(b4_topo, s, t, 5)
        assert len(paths) == 5
        costs = [sum(1.0 for _ in p[:-1]) for p in paths]  # unit weights: hops
        assert costs == sorted(costs)
        for p in paths:
            assert len(set(p)) == len(p)  # simple
        assert len(set(paths)) == len(paths)  # distinct


def test_fixed_policy_counts():
    topo = triangle()
    tm = make_tm(topo, [("a", "b", 5.0), ("b", "c", 1.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(5))
    # triangle admits exactly 2 simple paths per pair
    assert [len(ids) for ids in ts.by_demand] == [2, 2]
    assert ts.policy == "fixed:5"
    assert ts.unroutable == ()


def test_adaptive_grouping_three_four_five():
    names = [f"n{i}" for i in range(9)]
    # star-ish mesh so pairs have paths; counts only need the grouping logic
    topo = make_topology(names, [(names[i], names[j], 10) for i in range(9) for j in range(i + 1, 9)])
    rows = [(names[i], names[(i + 1) % 9], float(i + 1)) for i in range(9)]
    tm = make_tm(topo, rows)
    counts = tunnel_counts(AdaptiveTunnelPolicy(), tm)
    # volumes 1..9 ascending by demand id: group 1 -> ids 0,1,2; group 2 -> 3,4,5; group 3 -> 6,7,8
    assert counts == [3, 3, 3, 4, 4, 4, 5, 5, 5]
    ts = build_tunnel_sets(topo, tm, AdaptiveTunnelPolicy())
    assert ts.total == 36  # 3*3 + 3*4 + 3*5, every pair has >= 5 paths in a K9


def test_adaptive_equal_volumes_tiebreaks_by_pair_order():
    names = [f"n{i}" for i in range(6)]
    topo = make_topology(names, [(names[i], names[j], 10) for i in range(6) for j in range(i + 1, 6)])
    rows = [(names[i], names[i + 1], 7.0) for i in range(5)] + [(names[5], names[0], 7.0)]
    tm = make_tm(topo, rows)
    counts = tunnel_counts(AdaptiveTunnelPolicy(), tm)
    # all volumes equal: ascending (src, dst) order decides; demands are already in that order
    assert counts == [3, 3, 4, 4, 5, 5]


def test_adaptive_zero_volume_gets_smallest_group():
    topo = triangle()
    tm = make_tm(topo, [("a", "b", 0.0), ("b", "c", 2.0), ("c", "a", 1.0)])
    counts = tunnel_counts(AdaptiveTunnelPolicy(), tm)
    assert counts[0] == 3  # zero-volume demand
    assert sorted(counts[1:]) == [3, 4] or sorted(counts[1:]) == [4, 5]


def test_adaptive_remainder_to_earliest_groups():
    names = [f"n{i}" for i in range(11)]
    topo = make_topology(names, [(names[i], names[j], 10) for i in range(11) for j in range(i + 1, 11)])
    rows = [(names[i], names[(i + 1) % 11], float(i + 1)) for i in range(10)]
    tm = make_tm(topo, rows)
    counts = tunnel_counts(AdaptiveTunnelPolicy(), tm)
    assert sum(1 for c in counts if c == 3) == 4  # ceil(10/3)
    assert sum(1 for c in counts if c == 4) == 3
    assert sum(1 for c in counts if c == 5) == 3


def test_adaptive_policy_validation():
    with pytest.raises(ValidationError):
        AdaptiveTunnelPolicy((1, 2, 3))  # min must be >= 2
    with pytest.raises(ValidationError):
        AdaptiveTunnelPolicy((5, 4, 3))  # nondecreasing
    with pytest.raises(ValidationError):
        FixedTunnelPolicy(0)
    with pytest.raises(ValidationError, match="at least one group"):
        AdaptiveTunnelPolicy(())


def test_parse_policy_labels():
    assert parse_policy("fixed:5") == FixedTunnelPolicy(5)
    assert parse_policy("adaptive") == AdaptiveTunnelPolicy()
    assert parse_policy("adaptive:2-4-6") == AdaptiveTunnelPolicy((2, 4, 6))
    with pytest.raises(ValidationError):
        parse_policy("nope")
    with pytest.raises(ValidationError, match="invalid fixed tunnel policy 'fixed:x'"):
        parse_policy("fixed:x")
    with pytest.raises(ValidationError, match="invalid adaptive tunnel policy 'adaptive:3-x'"):
        parse_policy("adaptive:3-x")
    with pytest.raises(ValidationError, match="fixed tunnel count must be >= 1"):
        parse_policy("fixed:0")


def test_adaptive_total_never_exceeds_fixed5(b4_topo, b4_tm):
    ts_a = build_tunnel_sets(b4_topo, b4_tm, AdaptiveTunnelPolicy())
    ts_5 = build_tunnel_sets(b4_topo, b4_tm, FixedTunnelPolicy(5))
    assert ts_a.total <= ts_5.total
    assert ts_a.total == 4 * b4_tm.n  # every pair has >= 5 paths, |F| divisible by 3


def test_adaptive_keeps_two_tunnels_when_two_paths_exist(diamond_topo, diamond_tm):
    # spare tunnels must exist under failures: the diamond pair has exactly
    # two simple paths and the adaptive policy keeps both
    ts = build_tunnel_sets(diamond_topo, diamond_tm, AdaptiveTunnelPolicy())
    assert len(ts.by_demand[0]) == 2


def test_unroutable_demand_reported():
    topo = make_topology(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])
    tm = make_tm(topo, [("a", "c", 5.0), ("a", "b", 1.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(3))
    assert ts.unroutable == (0,)
    assert ts.by_demand[0] == ()


def test_scenarios_single_link(b4_topo):
    scen = enumerate_single_link_scenarios(b4_topo)
    assert scen.shape[0] == b4_topo.n_links + 1 == 20
    dead = scen.toarray()
    assert not dead[0].any()
    for q in range(1, scen.shape[0]):
        assert np.flatnonzero(dead[q]).tolist() == sorted(dead_arcs(b4_topo, q))
        assert len(dead_arcs(b4_topo, q)) == 2


def test_scenarios_one_link_topology():
    topo = make_topology(["a", "b"], [("a", "b", 1)])
    assert enumerate_single_link_scenarios(topo).shape[0] == 2


def test_surviving_tunnels_normal_and_failure(diamond_topo, diamond_tm):
    ts = build_tunnel_sets(diamond_topo, diamond_tm, FixedTunnelPolicy(5))
    scen = enumerate_single_link_scenarios(diamond_topo)
    survives = surviving_tunnels(ts, scen)
    assert survives.shape == (scen.shape[0], ts.total)
    assert ts.by_demand == (tuple(range(ts.total)),) and survives[0].all()
    # failing one side of the diamond kills exactly one of the two tunnels
    for q in range(1, scen.shape[0]):
        alive = np.flatnonzero(survives[q])
        assert len(alive) == 1
        dead = set(np.flatnonzero(scen.toarray()[q]).tolist())
        assert dead == dead_arcs(diamond_topo, q)
        assert all(a not in dead for a in path_arcs(diamond_topo, ts.paths[alive[0]]))


def test_surviving_tunnels_can_be_empty():
    topo = make_topology(["a", "b"], [("a", "b", 1)])
    tm = make_tm(topo, [("a", "b", 1.0)])
    ts = build_tunnel_sets(topo, tm, FixedTunnelPolicy(2))
    scen = enumerate_single_link_scenarios(topo)
    assert surviving_tunnels(ts, scen).tolist() == [[True], [False]]


def test_determinism_of_tunnel_sets(b4_topo, b4_tm):
    a = build_tunnel_sets(b4_topo, b4_tm, AdaptiveTunnelPolicy())
    b = build_tunnel_sets(b4_topo, b4_tm, AdaptiveTunnelPolicy())
    assert a == b


def test_ksp_for_a_smaller_k_slices_the_memo_exactly(b4_topo):
    pairs = [(s, t) for s in range(b4_topo.n_nodes) for t in range(b4_topo.n_nodes) if s != t]
    for s, t in pairs:
        k_shortest_paths(b4_topo, s, t, 5)
    fresh = load_topology(DATA / "b4.json")
    for s, t in pairs:
        assert k_shortest_paths(b4_topo, s, t, 3) == k_shortest_paths(fresh, s, t, 3)
        assert k_shortest_paths(b4_topo, s, t, 5)[:3] == k_shortest_paths(fresh, s, t, 3)


def test_ksp_memo_returns_copies_and_knows_when_paths_run_out(monkeypatch):
    topo = make_topology(["a", "b", "c", "d"],
                         [("a", "b", 1), ("b", "d", 1), ("a", "c", 1), ("c", "d", 1)])
    paths = k_shortest_paths(topo, 0, 3, 1)
    paths.append((9,))
    assert k_shortest_paths(topo, 0, 3, 1) == [(0, 1, 3)]
    assert k_shortest_paths(topo, 0, 3, 3) == [(0, 1, 3), (0, 2, 3)]  # k grew: search again

    def no_search(*args):
        raise AssertionError("a prefix was completed although the memo holds every path")

    monkeypatch.setattr(tunnels, "_complete", no_search)
    assert k_shortest_paths(topo, 0, 3, 7) == [(0, 1, 3), (0, 2, 3)]
    assert k_shortest_paths(topo, 0, 3, 2) == [(0, 1, 3), (0, 2, 3)]


def test_random_instances_ksp_invariants():
    rng = np.random.default_rng(5)
    for _ in range(10):
        topo, tm, ts = random_te_instance(rng)
        for p in ts.paths:
            assert len(set(p)) == len(p)
        for f, ids in enumerate(ts.by_demand):
            assert ts.demand_of[list(ids)].tolist() == [f] * len(ids)
            costs = [path_cost(topo, ts.paths[i]) for i in ids]
            assert costs == sorted(costs)
