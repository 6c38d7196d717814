"""Graph construction checks: BFS against a Floyd-Warshall oracle, bridges
against remove-and-search, degree capping against the rebuild-per-candidate
and bridge-pass-per-removal rules, K-medoids against exhaustive search, and
the attack-placement invariants, also at paper scale."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from sybilsim.topology import (
    CappingFailure,
    SSPPlan,
    Topology,
    attach_sybils,
    attack_edge_counts,
    bfs_distances,
    build_attack_network,
    cap_degrees,
    classify_scenario,
    kmedoids,
    plan_ssp_attack,
    random_geometric_graph,
    validate_topology,
)
from sybilsim import topology
from sybilsim.topology import _bridges


def _path_graph(n):
    return Topology(
        honest=frozenset(range(n)),
        sybils=frozenset(),
        edges=frozenset((i, i + 1) for i in range(n - 1)),
        degree_bound=n,
    )


class TestTopology:
    def test_edges_normalized(self):
        t = Topology(frozenset({0, 1}), frozenset(), {(1, 0)}, 4)
        assert t.edges == frozenset({(0, 1)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology(frozenset({0}), frozenset(), {(0, 0)}, 4)

    def test_neighbors_sorted(self):
        t = Topology(frozenset(range(4)), frozenset(), {(2, 0), (0, 3), (0, 1)}, 4)
        assert t.neighbors(0) == [1, 2, 3]
        assert t.degree(0) == 3
        assert t.degree(1) == 1

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(1, 7\) touches an unknown node"):
            Topology(frozenset({0, 1}), frozenset(), {(0, 1), (1, 7)}, 4)


class TestValidateTopology:
    def test_accepts_sound_graph(self):
        validate_topology(_path_graph(4))

    def test_rejects_overlap(self):
        t = Topology(frozenset({0, 1}), frozenset({1}), {(0, 1)}, 4)
        with pytest.raises(ValueError, match="overlap"):
            validate_topology(t)

    def test_rejects_degree_breach(self):
        t = Topology(frozenset(range(4)), frozenset(), {(0, 1), (0, 2), (0, 3)}, 2)
        with pytest.raises(ValueError, match="degree"):
            validate_topology(t)

    def test_rejects_sybil_without_honest_neighbor(self):
        t = Topology(
            frozenset({0, 1}), frozenset({5, 6}), {(0, 1), (0, 5), (5, 6)}, 4
        )
        with pytest.raises(ValueError, match="honest neighbor"):
            validate_topology(t)

    def test_rejects_disconnected_honest_subgraph(self):
        t = Topology(frozenset(range(4)), frozenset(), {(0, 1), (2, 3)}, 4)
        with pytest.raises(ValueError, match="connected"):
            validate_topology(t)


class TestRandomGeometricGraph:
    def test_connected_and_radius_consistent(self):
        g = random_geometric_graph(20, 0.35, seed=4)
        assert g.honest == frozenset(range(20))
        validate_topology(g)

    def test_deterministic(self):
        a = random_geometric_graph(12, 0.4, seed=9)
        b = random_geometric_graph(12, 0.4, seed=9)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = random_geometric_graph(12, 0.4, seed=1)
        b = random_geometric_graph(12, 0.4, seed=2)
        assert a.edges != b.edges

    def test_full_radius_is_complete(self):
        g = random_geometric_graph(6, math.sqrt(2), seed=0)
        assert len(g.edges) == 15

    def test_bad_params(self):
        with pytest.raises(ValueError):
            random_geometric_graph(1, 0.4, seed=0)
        with pytest.raises(ValueError):
            random_geometric_graph(5, 0.0, seed=0)


class TestCapDegrees:
    def test_caps_to_bound_and_stays_connected(self):
        g = random_geometric_graph(15, 0.6, seed=3)
        capped = cap_degrees(g, 4, seed=1)
        assert max(capped.degree(n) for n in capped.nodes) <= 4
        validate_topology(
            Topology(capped.honest, frozenset(), capped.edges, capped.degree_bound)
        )

    def test_no_op_when_under_bound(self):
        g = _path_graph(5)
        capped = cap_degrees(g, 3, seed=0)
        assert capped.edges == g.edges

    def test_deterministic(self):
        g = random_geometric_graph(15, 0.6, seed=3)
        a = cap_degrees(g, 4, seed=7)
        b = cap_degrees(g, 4, seed=7)
        assert a.edges == b.edges


def _adjacency(nodes, edges):
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _brute_bridges(adj):
    """Edges whose removal leaves one endpoint unreachable from the other."""
    found = set()
    for a in adj:
        for b in adj[a]:
            if a > b:
                continue
            seen = {a}
            stack = [a]
            while stack:
                node = stack.pop()
                for m in adj[node]:
                    if m not in seen and (node, m) != (a, b):
                        seen.add(m)
                        stack.append(m)
            if b not in seen:
                found.add((a, b))
    return found


class TestBridges:
    def test_matches_brute_force_on_random_graphs(self):
        """Thinned geometric graphs, some split into several components."""
        rng = np.random.default_rng(7)
        with_bridges = 0
        for trial in range(40):
            n = int(rng.integers(5, 41))
            radius = float(rng.uniform(1.3, 2.4)) / math.sqrt(n)
            g = random_geometric_graph(n, radius, seed=trial)
            kept = [edge for edge in sorted(g.edges) if rng.random() < 0.6]
            adj = _adjacency(g.nodes, kept)
            want = _brute_bridges(adj)
            assert _bridges(adj) == want, trial
            with_bridges += bool(want)
        assert with_bridges >= 20

    def test_cycle_has_none(self):
        assert _bridges(_adjacency(range(6), [(i, (i + 1) % 6) for i in range(6)])) == set()

    def test_every_tree_edge_is_one(self):
        tree = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)]
        assert _bridges(_adjacency(range(7), tree)) == set(tree)

    def test_two_triangles_joined_by_one_edge(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        assert _bridges(_adjacency(range(6), edges)) == {(2, 3)}

    def test_long_path_needs_no_recursion(self):
        g = _path_graph(3000)
        assert _bridges(g.adjacency()) == set(g.edges)


def _reference_cap(g, e, seed):
    """Degree capping by its first rule: an edge at an over-degree node is a
    candidate when the adjacency rebuilt without it still connects the
    whole graph; the RNG picks among the sorted candidates."""
    rng = np.random.default_rng(seed)
    edges = set(g.edges)

    def connected_without(edge):
        adj = {n: [] for n in g.nodes}
        for a, b in edges - {edge}:
            adj[a].append(b)
            adj[b].append(a)
        start = min(g.nodes)
        seen = {start}
        stack = [start]
        while stack:
            for m in adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len(g.nodes)

    while True:
        degree = Counter(n for edge in edges for n in edge)
        if all(degree[n] <= e for n in g.nodes):
            return frozenset(edges)
        candidates = sorted(
            edge
            for edge in edges
            if (degree[edge[0]] > e or degree[edge[1]] > e) and connected_without(edge)
        )
        if not candidates:
            raise CappingFailure("every incident edge is a bridge")
        edges.discard(candidates[rng.integers(len(candidates))])


class TestCapDegreesOracle:
    """``cap_degrees`` removes exactly the edges the rebuild-per-candidate
    rule removes, so every network built on it is unchanged."""

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        capped = 0
        for trial in range(60):
            n = int(rng.integers(6, 41))
            # a mean degree of about 5-15 keeps the reference quick
            radius = float(rng.uniform(1.3, 2.4)) / math.sqrt(n)
            bound = int(rng.integers(3, 7))
            g = random_geometric_graph(n, radius, seed=trial)
            try:
                want = _reference_cap(g, bound, seed=trial + 100)
            except CappingFailure:
                with pytest.raises(CappingFailure, match="bridge"):
                    cap_degrees(g, bound, seed=trial + 100)
                continue
            got = cap_degrees(g, bound, seed=trial + 100)
            assert got.edges == want, (n, radius, bound, trial)
            assert got.degree_bound == min(g.degree_bound, bound)
            capped += got.edges != g.edges
        assert capped >= 50

    def test_matches_reference_at_paper_scale(self):
        g = random_geometric_graph(99, 0.2, seed=1)
        got = cap_degrees(g, 7, seed=2)
        assert got.edges != g.edges
        assert got.edges == _reference_cap(g, 7, seed=2)

    def test_disconnected_input_raises(self):
        # K4 next to a lone edge: node degrees 3 exceed the bound 2
        edges = set(itertools.combinations(range(4), 2)) | {(4, 5)}
        g = Topology(frozenset(range(6)), frozenset(), edges, 6)
        with pytest.raises(CappingFailure):
            _reference_cap(g, 2, seed=0)
        with pytest.raises(CappingFailure, match="not connected"):
            cap_degrees(g, 2, seed=0)

    def test_all_bridges_raise(self):
        star = Topology(frozenset(range(5)), frozenset(), {(0, i) for i in range(1, 5)}, 5)
        with pytest.raises(CappingFailure):
            _reference_cap(star, 2, seed=0)
        with pytest.raises(CappingFailure, match="bridge"):
            cap_degrees(star, 2, seed=0)


def _bridge_pass_cap(g, e, seed):
    """Degree capping by its second rule: before every removal, one bridge
    pass over the whole graph and a fresh sorted list of the non-bridge
    edges at over-degree nodes."""
    if e < 2:
        raise ValueError("degree bound must be >= 2")
    rng = np.random.default_rng(seed)
    adj = {n: set(v) for n, v in g.adjacency().items()}
    over = sorted(n for n in adj if len(adj[n]) > e)
    if over and len(bfs_distances(g.adjacency(), over[:1])) < len(adj):
        raise CappingFailure(
            f"nodes {over} exceed degree {e} but the graph is not connected"
        )
    while over:
        incident = {tuple(sorted((n, m))) for n in over for m in adj[n]}
        candidates = sorted(incident - _bridges(adj))
        if not candidates:
            raise CappingFailure(
                f"nodes {over} exceed degree {e} but every incident edge is a bridge"
            )
        a, b = candidates[rng.integers(len(candidates))]
        adj[a].discard(b)
        adj[b].discard(a)
        over = sorted(n for n in adj if len(adj[n]) > e)
    return frozenset((a, b) for a in adj for b in adj[a] if a < b)


def _counting_bridges(monkeypatch):
    """Count the bridge passes ``cap_degrees`` makes."""
    calls = []

    def counted(adj):
        calls.append(1)
        return _bridges(adj)

    monkeypatch.setattr(topology, "_bridges", counted)
    return calls


class TestCapDegreesIncremental:
    """``cap_degrees`` carries its candidate list across removals and reruns
    the bridge pass only when the removed edge's endpoints share fewer than
    two neighbours; it removes exactly what a pass per removal removes."""

    def test_matches_bridge_pass_rule_on_random_graphs(self):
        rng = np.random.default_rng(616)
        capped = failed = 0
        for trial in range(200):
            n = int(rng.integers(6, 61))
            radius = float(rng.uniform(1.3, 3.0)) / math.sqrt(n)
            bound = int(rng.integers(2, 8))
            g = random_geometric_graph(n, radius, seed=trial)
            try:
                want = _bridge_pass_cap(g, bound, seed=trial + 7)
            except CappingFailure as exc:
                with pytest.raises(CappingFailure) as got:
                    cap_degrees(g, bound, seed=trial + 7)
                assert str(got.value) == str(exc), (n, radius, bound, trial)
                failed += 1
                continue
            got = cap_degrees(g, bound, seed=trial + 7)
            assert got.edges == want, (n, radius, bound, trial)
            capped += got.edges != g.edges
        assert capped >= 100
        assert failed >= 5

    def test_both_paths_occur(self, monkeypatch):
        calls = _counting_bridges(monkeypatch)
        g = random_geometric_graph(60, 0.35, seed=3)
        got = cap_degrees(g, 4, seed=5)
        removals = len(g.edges) - len(got.edges)
        reruns = len(calls) - 1
        assert 0 < reruns < removals

    def test_default_radius_skips_most_passes(self, monkeypatch):
        sub = np.random.SeedSequence(0).generate_state(3)
        g = random_geometric_graph(99, 0.4, int(sub[0]))
        calls = _counting_bridges(monkeypatch)
        got = cap_degrees(g, 7, int(sub[1]))
        removals = len(g.edges) - len(got.edges)
        assert removals == 1381
        assert len(calls) < removals / 4


class TestBfsDistances:
    def _floyd_warshall(self, g):
        nodes = sorted(g.nodes)
        index = {n: i for i, n in enumerate(nodes)}
        n = len(nodes)
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for a, b in g.edges:
            dist[index[a], index[b]] = 1.0
            dist[index[b], index[a]] = 1.0
        for k in range(n):
            dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
        return nodes, index, dist

    def test_matches_floyd_warshall_single_source(self):
        g = random_geometric_graph(14, 0.4, seed=8)
        nodes, index, dist = self._floyd_warshall(g)
        for s in nodes:
            hops = bfs_distances(g.adjacency(), {s})
            for t in nodes:
                assert hops[t] == int(dist[index[s], index[t]])

    def test_multi_source_is_minimum(self):
        g = random_geometric_graph(14, 0.4, seed=8)
        nodes, index, dist = self._floyd_warshall(g)
        sources = {nodes[0], nodes[5], nodes[9]}
        hops = bfs_distances(g.adjacency(), sources)
        for t in nodes:
            expect = min(int(dist[index[s], index[t]]) for s in sources)
            assert hops[t] == expect

    def test_unreachable_absent(self):
        t = Topology(frozenset(range(4)), frozenset(), {(0, 1), (2, 3)}, 4)
        hops = bfs_distances(t.adjacency(), {0})
        assert set(hops) == {0, 1}

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            bfs_distances(_path_graph(3).adjacency(), set())


class TestKmedoids:
    def _cost(self, dist, medoids):
        return dist[:, list(medoids)].min(axis=1).sum()

    def test_single_medoid_is_exact(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(3, 10))
            pts = rng.uniform(0, 1, (n, 2))
            dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
            got = kmedoids(dist, 1, seed=trial)
            best = min(self._cost(dist, (m,)) for m in range(n))
            assert self._cost(dist, got) == pytest.approx(best, abs=1e-12)

    def test_swap_local_optimum(self):
        """The returned medoid set admits no improving single swap."""
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(5, 10))
            k = int(rng.integers(2, 4))
            pts = rng.uniform(0, 1, (n, 2))
            dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
            got = kmedoids(dist, k, seed=trial)
            base = self._cost(dist, got)
            for out in got:
                for into in set(range(n)) - set(got):
                    swapped = [m for m in got if m != out] + [into]
                    assert self._cost(dist, swapped) >= base - 1e-9

    def test_k_equals_n(self):
        dist = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
        assert kmedoids(dist, 5, seed=0) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (10, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        assert kmedoids(dist, 3, seed=5) == kmedoids(dist, 3, seed=5)

    def test_bad_k(self):
        dist = np.zeros((3, 3))
        with pytest.raises(ValueError):
            kmedoids(dist, 0, seed=0)
        with pytest.raises(ValueError):
            kmedoids(dist, 4, seed=0)


class TestClassifyScenario:
    def test_boundaries(self):
        assert classify_scenario(2.0) == "dense"
        assert classify_scenario(4.0) == "dense"
        assert classify_scenario(0.25) == "sparse"
        assert classify_scenario(0.1) == "sparse"
        assert classify_scenario(1.0) == "distributed"
        assert classify_scenario(0.5) == "distributed"


class TestPlanSspAttack:
    def test_edge_count_and_spread(self):
        g = cap_degrees(random_geometric_graph(12, 0.5, seed=2), 5, seed=0)
        g = Topology(g.honest, frozenset(), g.edges, 8)
        for phi in (0.5, 1.0, 1.5, 2.0):
            plan = plan_ssp_attack(g, phi, seed=1)
            assert len(plan.attack_edges) == math.ceil(12 * phi)
            counts = plan.edges_per_honest()
            per_node = [counts.get(n, 0) for n in sorted(g.honest)]
            assert max(per_node) - min(per_node) <= 1

    def test_no_duplicate_pairs_and_sybil_degree(self):
        g = cap_degrees(random_geometric_graph(10, 0.5, seed=4), 4, seed=0)
        g = Topology(g.honest, frozenset(), g.edges, 8)
        plan = plan_ssp_attack(g, 3.0, seed=2)
        assert len(set(plan.attack_edges)) == len(plan.attack_edges)
        sybil_degree = {}
        for s, _ in plan.attack_edges:
            sybil_degree[s] = sybil_degree.get(s, 0) + 1
        assert max(sybil_degree.values()) <= 8
        assert len(sybil_degree) == plan.sybil_count

    def test_sybil_count_minimal(self):
        g = cap_degrees(random_geometric_graph(16, 0.5, seed=6), 4, seed=0)
        g = Topology(g.honest, frozenset(), g.edges, 8)
        plan = plan_ssp_attack(g, 1.0, seed=0)
        total = len(plan.attack_edges)
        max_per_honest = max(plan.edges_per_honest().values())
        assert plan.sybil_count == max(math.ceil(total / 8), max_per_honest)

    def test_fractional_phi_float_fuzz(self):
        """n * phi edges despite float representation: 50 * 1.1 is
        55.00000000000001 in floats."""
        for n, phi, want in ((10, 0.2, 2), (50, 1.1, 55)):
            g = _path_graph(n)
            g = Topology(g.honest, frozenset(), g.edges, 8)
            plan = plan_ssp_attack(g, phi, seed=0)
            assert len(plan.attack_edges) == want

    def test_extras_land_on_spread_nodes(self):
        """With one extra edge on a path graph, the K-medoid of the hop
        metric is the path center."""
        g = Topology(_path_graph(9).honest, frozenset(), _path_graph(9).edges, 8)
        plan = plan_ssp_attack(g, 1 + 1 / 9, seed=3)
        counts = plan.edges_per_honest()
        double = [n for n, c in counts.items() if c == 2]
        assert double == [4]

    def test_deterministic(self):
        g = cap_degrees(random_geometric_graph(12, 0.5, seed=2), 5, seed=0)
        g = Topology(g.honest, frozenset(), g.edges, 8)
        a = plan_ssp_attack(g, 1.5, seed=9)
        b = plan_ssp_attack(g, 1.5, seed=9)
        assert a.attack_edges == b.attack_edges


class TestAttachSybils:
    def test_valid_attachment(self):
        honest, plan, full = build_attack_network(12, 0.5, 8, 1.0, seed=5)
        assert full.sybils
        validate_topology(full)
        assert len(full.edges) == len(honest.edges) + len(plan.attack_edges)

    def test_rejects_over_degree(self):
        g = Topology(frozenset({0, 1}), frozenset(), {(0, 1)}, 2)
        plan = SSPPlan(
            phi=2.0, attack_edges=((2, 0), (3, 0)), sybil_count=2
        )
        with pytest.raises(ValueError, match="degree"):
            attach_sybils(g, plan)

    def test_rejects_unknown_target(self):
        g = Topology(frozenset({0, 1}), frozenset(), {(0, 1)}, 4)
        plan = SSPPlan(phi=1.0, attack_edges=((2, 7),), sybil_count=1)
        with pytest.raises(ValueError, match="unknown node"):
            attach_sybils(g, plan)


class TestBuildAttackNetwork:
    def test_no_attack_returns_same_graph(self):
        honest, plan, full = build_attack_network(10, 0.5, 6, None, seed=0)
        assert plan is None
        assert honest is full

    def test_headroom_keeps_degrees_legal(self):
        for phi in (1.0, 2.0, 4.0):
            honest, plan, full = build_attack_network(16, 0.5, 8, phi, seed=3)
            assert max(full.degree(n) for n in full.nodes) <= 8
            assert max(honest.degree(n) for n in honest.honest) <= 8 - math.ceil(phi)

    def test_insufficient_headroom_rejected(self):
        with pytest.raises(ValueError, match="room"):
            build_attack_network(10, 0.5, 4, 3.0, seed=0)

    def test_tiny_phi_plans_one_edge(self):
        """n * phi at or below the 1e-9 float guard still rounds up to one."""
        assert attack_edge_counts(16, 5e-11) == (1, 1)
        assert attack_edge_counts(99, 1e-11) == (1, 1)
        honest, plan, full = build_attack_network(16, 0.7, 8, 5e-11, 7)
        assert plan.sybil_count == 1 and len(plan.attack_edges) == 1
        assert len(full.sybils) == 1
        assert len(full.edges) == len(honest.edges) + 1

    def test_deterministic(self):
        a = build_attack_network(12, 0.5, 8, 1.0, seed=11)
        b = build_attack_network(12, 0.5, 8, 1.0, seed=11)
        assert a[2].edges == b[2].edges


# sha256 of the default network's sorted edges and attack edges, taken from
# the walk-per-candidate cap_degrees that the bridge pass replaced.
DEFAULT_NETWORK_SHA256 = "a2034a882bd65010b8566e71149694dc86240eb34790e9d025feab652b1d14df"


class TestPaperScaleNetwork:
    """Invariants and determinism of the network at 99 honest nodes."""

    @pytest.mark.parametrize("radius", [0.2, 0.4])
    @pytest.mark.parametrize("phi", [0.5, 1.0, 1.0 + 1e-10, 2.0])
    def test_invariants_and_rebuild(self, phi, radius):
        honest, plan, full = build_attack_network(99, radius, 8, phi, seed=1)
        validate_topology(full)
        assert max(full.degree(n) for n in full.nodes) <= 8
        assert max(honest.degree(n) for n in honest.honest) <= 8 - math.ceil(phi)
        assert len(plan.attack_edges) == math.ceil(99 * phi)
        counts = plan.edges_per_honest()
        per_node = [counts.get(n, 0) for n in sorted(honest.honest)]
        assert max(per_node) - min(per_node) <= 1
        again = build_attack_network(99, radius, 8, phi, seed=1)
        assert (again[0].edges, again[1], again[2].edges) == (
            honest.edges, plan, full.edges
        )

    def test_default_radius_network_is_pinned(self):
        """The CLI's default network (radius 0.4, bound 8, phi 1, topology
        seed 0) is the one the walk-per-candidate capping rule built."""
        honest, plan, full = build_attack_network(99, 0.4, 8, 1.0, 0)
        validate_topology(full)
        assert max(full.degree(n) for n in full.nodes) <= 8
        assert max(honest.degree(n) for n in honest.honest) <= 7
        text = " ".join(f"{a}-{b}" for a, b in sorted(full.edges))
        text += " | " + " ".join(f"{s}-{h}" for s, h in sorted(plan.attack_edges))
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_NETWORK_SHA256
