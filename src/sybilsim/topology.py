"""Network graphs: geometric generation, degree capping, and Sybil placement.

Honest overlays are random geometric graphs on the unit square, thinned to a
degree bound while staying connected.  Attack edges are spread over the
honest graph by hop distance using K-medoids and then grouped onto the
fewest Sybils that respect the degree bound.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

# Reporting boundary between the sparse and distributed attack regimes.  It
# labels plans only and affects no placement decision.
SPARSE_EPSILON = 0.25

CONNECT_RETRY_BUDGET = 100


class GenerationFailure(RuntimeError):
    """Raised when a connected graph cannot be generated within the retry budget."""


class CappingFailure(RuntimeError):
    """Raised when no edge can be removed without disconnecting the graph."""


Edge = Tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    if a == b:
        raise ValueError(f"self-loop on node {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Topology:
    """Undirected graph of honest nodes plus Sybils, with a degree bound.

    The sorted adjacency is built once, here, and never changes; an edge
    that touches a node outside ``honest | sybils`` is rejected.
    """

    honest: FrozenSet[int]
    sybils: FrozenSet[int]
    edges: FrozenSet[Edge]
    degree_bound: int
    _adj: Mapping[int, Tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "honest", frozenset(self.honest))
        object.__setattr__(self, "sybils", frozenset(self.sybils))
        object.__setattr__(
            self, "edges", frozenset(_norm_edge(a, b) for a, b in self.edges)
        )
        adj: Dict[int, list[int]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            if a not in adj or b not in adj:
                raise ValueError(f"edge ({a}, {b}) touches an unknown node")
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(
            self, "_adj", MappingProxyType({n: tuple(sorted(v)) for n, v in adj.items()})
        )

    @property
    def nodes(self) -> FrozenSet[int]:
        return self.honest | self.sybils

    def neighbors(self, node: int) -> list[int]:
        """Neighbor ids in ascending order."""
        return list(self._adj[node])

    def adjacency(self) -> Mapping[int, Tuple[int, ...]]:
        """Read-only map from every node to its sorted neighbor ids."""
        return self._adj

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def to_json_dict(self) -> dict:
        return {
            "nodes": sorted(self.honest),
            "sybils": sorted(self.sybils),
            "edges": sorted([a, b] for a, b in self.edges),
            "degree_bound": self.degree_bound,
        }


def validate_topology(t: Topology) -> None:
    """Check every structural invariant; raise ValueError on the first breach.

    Edges to unknown nodes never get this far: ``Topology`` rejects them.
    """
    if t.honest & t.sybils:
        raise ValueError("honest and sybil id sets overlap")
    adj = t.adjacency()
    for node in sorted(t.nodes):
        if len(adj[node]) > t.degree_bound:
            raise ValueError(
                f"node {node} has degree {len(adj[node])} > bound {t.degree_bound}"
            )
        if not any(m in t.honest for m in adj[node]):
            raise ValueError(f"node {node} has no honest neighbor")
    # Sybils must not be what holds the honest nodes together.
    honest_adj = {n: [m for m in adj[n] if m in t.honest] for n in t.honest}
    if t.honest and len(bfs_distances(honest_adj, [min(t.honest)])) < len(t.honest):
        raise ValueError("honest subgraph is not connected")


def random_geometric_graph(n: int, radius: float, seed: int) -> Topology:
    """Connected random geometric graph of ``n`` honest nodes on the unit square.

    Points are uniform; nodes are joined when closer than ``radius``.  Point
    sets are redrawn from fresh sub-seeds until the graph comes out connected,
    up to a fixed retry budget.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < radius <= math.sqrt(2):
        raise ValueError("radius must lie in (0, sqrt(2)]")
    root = np.random.SeedSequence(seed)
    for attempt_seed in root.spawn(CONNECT_RETRY_BUDGET):
        rng = np.random.default_rng(attempt_seed)
        points = rng.uniform(0.0, 1.0, (n, 2))
        diff = points[:, None, :] - points[None, :, :]
        close = np.sqrt((diff ** 2).sum(axis=2)) < radius
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if close[i, j]
        )
        topo = Topology(
            honest=frozenset(range(n)),
            sybils=frozenset(),
            edges=edges,
            degree_bound=n,
        )
        if len(bfs_distances(topo.adjacency(), [0])) == n:
            return topo
    raise GenerationFailure(
        f"no connected geometric graph after {CONNECT_RETRY_BUDGET} attempts "
        f"(n={n}, radius={radius})"
    )


def _bridges(adj: Mapping[int, Iterable[int]]) -> set[Edge]:
    """Every bridge of the simple undirected graph ``adj``, as normalized edges.

    One depth-first low-link pass over each component (Tarjan, "A note on
    finding the bridges of a graph", 1974): the tree edge (p, c) is a bridge
    exactly when no back edge from c's subtree reaches p or above.  The
    search keeps its own stack, so long paths cannot hit the recursion limit.
    """
    order: Dict[int, int] = {}
    low: Dict[int, int] = {}
    bridges: set[Edge] = set()
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, parent, rest = stack[-1]
            for m in rest:
                if m == parent:
                    continue
                if m not in order:
                    order[m] = low[m] = len(order)
                    stack.append((m, node, iter(adj[m])))
                    break
                if order[m] < low[node]:
                    low[node] = order[m]
            else:
                stack.pop()
                if parent is not None:
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    elif low[node] > order[parent]:
                        bridges.add(_norm_edge(parent, node))
    return bridges


def cap_degrees(g: Topology, e: int, seed: int) -> Topology:
    """Remove random edges until every degree is within ``e``.

    Only edges touching an over-degree node are candidates, and only those
    whose removal keeps the graph in a single connected component.  The
    graph is checked connected once and stays connected after every
    removal, so an edge qualifies exactly when it is not a bridge.  The RNG
    picks among the sorted candidates.

    The sorted candidate list is built once, from one bridge pass, and
    updated in place after each removal.  Degrees only fall and bridges
    only appear as edges go, so the list only loses edges: the removed one,
    those of an endpoint that fell to ``e`` whose other end is not over, and
    any new bridge.  A new bridge must separate the removed edge's two
    endpoints, and two common neighbours give them two edge-disjoint paths,
    so then the bridges are unchanged; otherwise one bridge pass finds them.
    The list therefore equals the one a fresh bridge pass would give before
    every draw, and the result is the same as recomputing it each time.
    """
    if e < 2:
        raise ValueError("degree bound must be >= 2")
    rng = np.random.default_rng(seed)
    adj = {n: set(v) for n, v in g.adjacency().items()}
    over = {n for n in adj if len(adj[n]) > e}
    if over and len(bfs_distances(adj, [min(over)])) < len(adj):
        raise CappingFailure(
            f"nodes {sorted(over)} exceed degree {e} but the graph is not connected"
        )
    incident = {_norm_edge(n, m) for n in over for m in adj[n]}
    candidates = sorted(incident - _bridges(adj))

    def discard(edge: Edge) -> None:
        i = bisect.bisect_left(candidates, edge)
        if i < len(candidates) and candidates[i] == edge:
            del candidates[i]

    while over:
        if not candidates:
            raise CappingFailure(
                f"nodes {sorted(over)} exceed degree {e} but every incident edge is a bridge"
            )
        a, b = candidates.pop(rng.integers(len(candidates)))
        adj[a].discard(b)
        adj[b].discard(a)
        fell = [n for n in (a, b) if len(adj[n]) == e]
        over.difference_update(fell)
        for n in fell:
            for m in adj[n]:
                if m not in over:
                    discard(_norm_edge(n, m))
        if len(adj[a] & adj[b]) < 2:
            for edge in _bridges(adj):
                discard(edge)

    edges = frozenset((a, b) for a in adj for b in adj[a] if a < b)
    return Topology(g.honest, g.sybils, edges, min(g.degree_bound, e))


def bfs_distances(adj: Mapping[int, Iterable[int]], sources: Iterable[int]) -> Dict[int, int]:
    """Multi-source shortest hop counts over ``adj``; unreachable nodes are absent."""
    sources = set(sources)
    if not sources:
        raise ValueError("sources must be non-empty")
    dist = {s: 0 for s in sources}
    frontier = sorted(sources)
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for node in frontier:
            for m in adj[node]:
                if m not in dist:
                    dist[m] = hops
                    nxt.append(m)
        frontier = sorted(set(nxt))
    return dist


def _kmedoids_cost(dist: np.ndarray, medoids: list[int]) -> float:
    return float(dist[:, medoids].min(axis=1).sum())


def kmedoids(dist: np.ndarray, k: int, seed: int) -> list[int]:
    """PAM-style K-medoids over a symmetric distance matrix.

    Starts from a seeded random medoid set and greedily applies the best
    improving (medoid, non-medoid) swap until the total within-cluster
    distance stops decreasing.  Returns the medoid indices sorted ascending.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be square")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    medoids = sorted(rng.choice(n, size=k, replace=False).tolist())
    cost = _kmedoids_cost(dist, medoids)
    improved = True
    while improved:
        improved = False
        best = (cost, None)
        medoid_set = set(medoids)
        for m in medoids:
            for o in range(n):
                if o in medoid_set:
                    continue
                trial = sorted(medoid_set - {m} | {o})
                trial_cost = _kmedoids_cost(dist, trial)
                if trial_cost < best[0] - 1e-12:
                    best = (trial_cost, trial)
        if best[1] is not None:
            cost, medoids = best
            improved = True
    return sorted(medoids)


def classify_scenario(phi: float) -> str:
    """Label phi: dense from 2 up, sparse up to SPARSE_EPSILON, else distributed."""
    if phi >= 2:
        return "dense"
    if phi <= SPARSE_EPSILON:
        return "sparse"
    return "distributed"


@dataclass(frozen=True)
class SSPPlan:
    """Attack-edge placement: which Sybil connects to which honest node."""

    phi: float
    attack_edges: Tuple[Tuple[int, int], ...]  # (sybil id, honest id)
    sybil_count: int

    @property
    def scenario(self) -> str:
        return classify_scenario(self.phi)

    def edges_per_honest(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for _, honest in self.attack_edges:
            counts[honest] = counts.get(honest, 0) + 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "phi": self.phi,
            "scenario": self.scenario,
            "sybil_count": self.sybil_count,
            "attack_edges": sorted([s, h] for s, h in self.attack_edges),
        }


def attack_edge_counts(n: int, phi: float) -> Tuple[int, int]:
    """(total, per-node maximum) attack edges on ``n`` honest nodes at ``phi``.

    The total is ceil(n * phi), at least 1 for any phi > 0; every node takes
    total // n edges and the K-medoids take the remainder total % n, so no
    node takes more than ceil(total / n).  The float guard keeps 50 * 1.1,
    which rounds to 55.00000000000001, at 55 edges, and a product past the
    float range counts as the largest float.
    """
    total = max(1, math.ceil(min(n * phi, sys.float_info.max) - 1e-9))
    return total, -(-total // n)


def plan_ssp_attack(g: Topology, phi: float, seed: int) -> SSPPlan:
    """Place the ``attack_edge_counts`` edges, spread as evenly as possible.

    Every honest node receives total // n edges; the remaining total % n go
    one each to the K-medoids of the honest graph's hop-distance matrix,
    which spreads them as far apart as hop distance allows.  Edge endpoints
    are then dealt onto the minimum number of Sybils such that no Sybil
    exceeds the degree bound or connects twice to the same honest node.
    The plan does not check honest degrees: ``attach_sybils`` does.
    """
    if phi <= 0:
        raise ValueError("phi must be > 0")
    honest = sorted(g.honest)
    n = len(honest)
    if g.honest - bfs_distances(g.adjacency(), honest[:1]).keys():
        raise ValueError("honest graph must be connected")

    total, max_count = attack_edge_counts(n, phi)
    base, extra = divmod(total, n)
    counts = {node: base for node in honest}
    if extra > 0:
        index_of = {node: i for i, node in enumerate(honest)}
        dist = np.zeros((n, n))
        for node in honest:
            hops = bfs_distances(g.adjacency(), {node})
            for other in honest:
                dist[index_of[node], index_of[other]] = hops[other]
        for medoid_index in kmedoids(dist, extra, seed):
            counts[honest[medoid_index]] += 1

    # Deal endpoints onto Sybils: copies of one honest node sit consecutively,
    # so round-robin over max(ceil(total/bound), max count) Sybils keeps them
    # on distinct Sybils and under the degree bound.
    sybil_count = max(math.ceil(total / g.degree_bound), max_count)
    first_sybil = max(honest) + 1
    items = [node for node in honest for _ in range(counts[node])]
    attack_edges = tuple(
        (first_sybil + position % sybil_count, node)
        for position, node in enumerate(items)
    )
    return SSPPlan(phi=phi, attack_edges=attack_edges, sybil_count=sybil_count)


def build_attack_network(
    n: int,
    radius: float,
    degree_bound: int,
    phi: Optional[float],
    seed: int,
) -> Tuple[Topology, Optional[SSPPlan], Topology]:
    """Full network pipeline: generate, cap, plan the attack, attach Sybils.

    The honest graph is capped at ``degree_bound`` minus the per-node
    maximum of ``attack_edge_counts``, so every honest node has room for
    its attack edges and the even spread survives intact.
    Returns (honest graph, plan, full graph); without an attack the plan is
    None and both graphs are the same object.
    """
    if degree_bound < 2:
        raise ValueError("degree_bound must be >= 2")
    headroom = 0 if phi is None else attack_edge_counts(n, phi)[1]
    honest_cap = degree_bound - headroom
    if honest_cap < 2:
        raise ValueError(
            f"degree bound {degree_bound} leaves no room for "
            f"{headroom} attack edges per node plus an honest graph"
        )
    sub = np.random.SeedSequence(seed).generate_state(3)
    g = random_geometric_graph(n, radius, int(sub[0]))
    honest = replace(cap_degrees(g, honest_cap, int(sub[1])), degree_bound=degree_bound)
    if phi is None:
        return honest, None, honest
    plan = plan_ssp_attack(honest, phi, int(sub[2]))
    return honest, plan, attach_sybils(honest, plan)


def attach_sybils(g: Topology, plan: SSPPlan) -> Topology:
    """Add the plan's Sybil nodes and attack edges to an honest graph.

    Raises ValueError when an attack edge targets an unknown node or the
    result breaks any invariant of ``validate_topology``.
    """
    sybils = frozenset(s for s, _ in plan.attack_edges)
    topo = Topology(
        honest=g.honest,
        sybils=g.sybils | sybils,
        edges=g.edges | {_norm_edge(s, h) for s, h in plan.attack_edges},
        degree_bound=g.degree_bound,
    )
    validate_topology(topo)
    return topo
