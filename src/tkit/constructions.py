"""Builders: the running 6-vertex example, standard small graphs, Cartesian
products, and the apex extension that glues a new vertex onto one fiber of
a product.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, GraphError, local_metric, make_graph
from .regularity import PdrProfile


def example_graph() -> tuple[Graph, int]:
    """The 7-edge graph on vertices 1..6 used throughout the test corpus,
    together with its distinguished base vertex 1."""
    edges_by_label = [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6)]
    g = make_graph(6, [(u - 1, v - 1) for u, v in edges_by_label],
                   labels=[str(i) for i in range(1, 7)])
    return g, 0


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("n must be at least 1")
    return make_graph(n, [])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("n must be at least 1")
    return make_graph(n, [(u, v) for v in range(n) for u in range(v)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("n must be at least 1")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Center vertex 0 joined to the given number of leaves."""
    if leaves < 1:
        raise GraphError("a star needs at least 1 leaf")
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return make_graph(10, edges)


def rook_graph_3x3() -> Graph:
    """Vertices are the cells of a 3x3 grid; adjacency is same row or
    same column."""
    def idx(r: int, c: int) -> int:
        return 3 * r + c
    edges = []
    for r in range(3):
        for c in range(3):
            for c2 in range(c + 1, 3):
                edges.append((idx(r, c), idx(r, c2)))
            for r2 in range(r + 1, 3):
                edges.append((idx(r, c), idx(r2, c)))
    return make_graph(9, edges, labels=[f"{r}{c}" for r in range(3) for c in range(3)])


def cartesian_product(g: Graph, s: Graph) -> Graph:
    """Vertex set is all pairs; a step moves in exactly one coordinate."""
    def idx(gi: int, si: int) -> int:
        return gi * s.n + si
    edges = []
    for gi in range(g.n):
        for si, sj in s.edges():
            edges.append((idx(gi, si), idx(gi, sj)))
    for si in range(s.n):
        for gi, gj in g.edges():
            edges.append((idx(gi, si), idx(gj, si)))
    labels = [f"({g.labels[gi]},{s.labels[si]})"
              for gi in range(g.n) for si in range(s.n)]
    return make_graph(g.n * s.n, edges, labels=labels)


@dataclass(frozen=True)
class ApexResult:
    """Product graph with one extra vertex joined to a single fiber.

    origin maps each non-apex vertex index to its (first factor, second
    factor) coordinate pair.
    """

    graph: Graph
    apex: int
    origin: dict[int, tuple[int, int]]


def apex_extension(g: Graph, x: int, s: Graph) -> ApexResult:
    """Join a new vertex to the fiber {(x, y) : y in s} of the Cartesian
    product of g and s.

    Requires g connected and s regular with at least 2 vertices. The apex
    w has d(w, (g', s')) = 1 + d(x, g'): a path leaves w into the fibre of
    x, each product step moves the first coordinate along at most one edge
    of g, and a geodesic of g from x walked at s' attains the bound. So
    ecc(w) = ecc(x) + 1.
    """
    if s.n < 2:
        raise GraphError("second factor needs at least 2 vertices")
    degrees = {s.degree(v) for v in range(s.n)}
    if len(degrees) != 1:
        raise GraphError("second factor must be regular")
    if not g.is_connected():
        raise GraphError("first factor must be connected")

    product = cartesian_product(g, s)
    apex = product.n
    # product labels are "(g,s)", so "w" is free
    labels = list(product.labels) + ["w"]
    edges = list(product.edges())
    for si in range(s.n):
        edges.append((x * s.n + si, apex))
    graph = make_graph(product.n + 1, edges, labels=labels)
    origin = {gi * s.n + si: (gi, si) for gi in range(g.n) for si in range(s.n)}
    return ApexResult(graph, apex, origin)


@dataclass(frozen=True)
class PredictedScalars:
    """Expected endpoint-one scalars at the apex of an extension, derived
    from the ratio constants of the first factor."""

    kappa: tuple[Fraction, ...]
    mu: tuple[Fraction, ...]
    theta: tuple[Fraction, ...]
    rho: tuple[Fraction, ...]


def predicted_profile(pdr: PdrProfile, sigma_kind: str) -> PredictedScalars:
    """Scalars expected at the apex when the second factor is edgeless
    ("empty") or complete ("complete"). Level i of the extension reuses the
    factor's constants from level i-1; a complete fiber adds one flat step
    everywhere, shifting the flat scalar down by one and forcing rho to 1.
    """
    if not pdr.ok:
        raise ValueError("predicted profile needs a successful ratio fit")
    zero, one = Fraction(0), Fraction(1)
    kappa = tuple(pdr.alpha)
    mu = tuple(zero for _ in pdr.alpha)
    if sigma_kind == "empty":
        theta = tuple(pdr.beta)
        rho = tuple(zero for _ in pdr.alpha)
    elif sigma_kind == "complete":
        theta = tuple(b - one for b in pdr.beta)
        rho = tuple(one for _ in pdr.alpha)
    else:
        raise ValueError(f"unknown sigma kind {sigma_kind!r}")
    return PredictedScalars(kappa, mu, theta, rho)


def is_distance_regular_around(g: Graph, x: int) -> bool:
    """True when every vertex of each sphere around x has the same number
    of neighbors one level down, on the level, and one level up."""
    metric = local_metric(g, x)
    for i in range(metric.ecc + 1):
        profile = None
        for v in metric.sphere(i):
            down = sum(1 for w in g.adj[v] if metric.dist[w] == i - 1)
            flat = sum(1 for w in g.adj[v] if metric.dist[w] == i)
            up = sum(1 for w in g.adj[v] if metric.dist[w] == i + 1)
            if profile is None:
                profile = (down, flat, up)
            elif profile != (down, flat, up):
                return False
    return True
