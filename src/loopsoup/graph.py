"""Finite oriented multigraphs with constant out-degree.

The walk model everywhere in this package is the simple random walk that
leaves each vertex through one of its ``g`` outgoing edges, chosen uniformly.
A graph whose out-degrees are not constant can be padded with "stationary"
self-edges until every vertex has out-degree ``g``; this changes nothing
about the walk watched on the original edges.

An unoriented graph is represented by an oriented one together with an
edge-reversal involution pairing each edge with its reverse.  A single
unoriented self-loop can be encoded two ways:

* one involution-fixed self-edge (counts once toward the out-degree; this is
  the convention used for stationary padding edges), or
* a pair of involution-swapped parallel self-edges (counts twice, matching
  the convention where an unoriented self-loop contributes two edge-ends).

Both are supported; graph files must say which they use (via ``rev``).

Domains are vertex subsets (optionally minus some edges).  The walk killed
on exiting the domain has transition matrix ``P_D`` with entries
``#edges(x -> y) / g``, and when its spectral radius is below one the Green's
function ``G_D = sum_{n>=0} P_D^n`` is finite and solves
``(I - P_D) G_D = I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EXACT_SIZE_LIMIT = 12
_RADIUS_TOL = 1e-10
_RADIUS_REJECT = 1.0 - 1e-9


class GraphError(ValueError):
    pass


class InvolutionError(GraphError):
    pass


class RecurrentDomainError(GraphError):
    """The killed walk is not strictly sub-critical; Green's function diverges."""


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    stationary: bool = False

    @property
    def is_self_edge(self) -> bool:
        return self.tail == self.head


class OrientedMultigraph:
    """Immutable oriented multigraph; parallel edges and self-edges allowed."""

    def __init__(self, n_vertices: int, edges: list[Edge] | tuple[Edge, ...]):
        if n_vertices < 1:
            raise GraphError("graph needs at least one vertex")
        self.n_vertices = n_vertices
        self.vertices = tuple(range(n_vertices))
        self.edges = tuple(sorted(edges, key=lambda e: e.id))
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise GraphError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            if not (0 <= e.tail < n_vertices) or not (0 <= e.head < n_vertices):
                raise GraphError(f"edge {e.id} has dangling endpoint ({e.tail}->{e.head})")
        self.edge_by_id = {e.id: e for e in self.edges}
        out: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.tail].append(e)
        self.out_edges = {v: tuple(es) for v, es in out.items()}
        self.out_degree = {v: len(es) for v, es in out.items()}
        degs = set(self.out_degree.values())
        #: common out-degree, or None when the graph is not degree-regular yet
        self.g: int | None = degs.pop() if len(degs) == 1 else None

    def require_regular(self) -> int:
        if self.g is None:
            raise GraphError("graph does not have constant out-degree; regularize first")
        return self.g

    def __repr__(self) -> str:
        return f"OrientedMultigraph(n={self.n_vertices}, m={len(self.edges)}, g={self.g})"


def build_graph(n_vertices: int, edge_list) -> OrientedMultigraph:
    """Build a graph from (id, tail, head[, stationary]) tuples or Edge values."""
    edges = []
    for item in edge_list:
        if isinstance(item, Edge):
            edges.append(item)
        else:
            eid, tail, head = item[:3]
            stat = bool(item[3]) if len(item) > 3 else False
            edges.append(Edge(int(eid), int(tail), int(head), stat))
    return OrientedMultigraph(n_vertices, edges)


def regularize_degree(graph: OrientedMultigraph, g_target: int) -> OrientedMultigraph:
    """Pad every vertex with stationary self-edges up to out-degree ``g_target``.

    The added edges are tagged stationary and get fresh ids above all existing
    ones, so the jump chain watched on the original edges is unchanged.
    """
    max_deg = max(graph.out_degree.values()) if graph.edges else 0
    if g_target < max_deg:
        raise GraphError(f"g_target={g_target} below max out-degree {max_deg}")
    next_id = max((e.id for e in graph.edges), default=-1) + 1
    edges = list(graph.edges)
    for v in graph.vertices:
        for _ in range(g_target - graph.out_degree[v]):
            edges.append(Edge(next_id, v, v, stationary=True))
            next_id += 1
    return OrientedMultigraph(graph.n_vertices, edges)


class Involution:
    """Edge-reversal involution iota: iota(iota(e)) = e and iota(e) runs head->tail.

    Fixed points iota(e) = e are allowed only for self-edges.
    """

    def __init__(self, graph: OrientedMultigraph, mapping: dict[int, int]):
        self.graph = graph
        self.mapping = dict(mapping)
        for e in graph.edges:
            if e.id not in self.mapping:
                raise InvolutionError(f"edge {e.id} missing from involution")
            j = self.mapping[e.id]
            if j not in graph.edge_by_id:
                raise InvolutionError(f"iota({e.id}) = {j} is not an edge")
            if self.mapping.get(j) != e.id:
                raise InvolutionError(f"iota is not an involution at edge {e.id}")
            rev = graph.edge_by_id[j]
            if (rev.tail, rev.head) != (e.head, e.tail):
                raise InvolutionError(
                    f"iota({e.id}) = {j} does not reverse endpoints "
                    f"({e.tail}->{e.head} vs {rev.tail}->{rev.head})"
                )
            if j == e.id and not e.is_self_edge:
                raise InvolutionError(f"iota fixes non-self-edge {e.id}")

    def __call__(self, edge_id: int) -> int:
        return self.mapping[edge_id]

    def reverse_path(self, path) -> tuple[int, ...]:
        """Edge-id sequence of the time-reversed path."""
        return tuple(self.mapping[e] for e in reversed(path))

    def unoriented_path(self, path) -> tuple[int, ...]:
        """The path up to reversal: the smaller of it and its reversal."""
        return min(tuple(path), self.reverse_path(path))


def pair_reversals(graph: OrientedMultigraph, fix_self_edges: bool = True) -> Involution:
    """Construct an involution by greedily pairing x->y edges with y->x edges.

    Self-edges are involution-fixed when ``fix_self_edges`` (each counts once
    toward the degree); otherwise they are paired among themselves two by two
    (each unoriented self-loop then counts twice).
    """
    mapping: dict[int, int] = {}
    pools: dict[tuple[int, int], list[int]] = {}
    for e in graph.edges:
        if e.is_self_edge and fix_self_edges:
            mapping[e.id] = e.id
        else:
            pools.setdefault((e.tail, e.head), []).append(e.id)
    for (t, h), ids in sorted(pools.items()):
        if t == h:
            if len(ids) % 2:
                raise InvolutionError(f"odd number of self-edges to pair at vertex {t}")
            ids = sorted(ids)
            for a, b in zip(ids[0::2], ids[1::2]):
                mapping[a] = b
                mapping[b] = a
        elif t < h:
            other = sorted(pools.get((h, t), []))
            ids = sorted(ids)
            if len(ids) != len(other):
                raise InvolutionError(f"unbalanced edge counts between {t} and {h}")
            for a, b in zip(ids, other):
                mapping[a] = b
                mapping[b] = a
    if len(mapping) != len(graph.edges):
        raise InvolutionError("could not pair all edges")
    return Involution(graph, mapping)


class UnorientedGraph:
    """Unoriented view of (graph, involution): edge classes {e, iota(e)}."""

    def __init__(self, graph: OrientedMultigraph, involution: Involution):
        if involution.graph is not graph:
            raise InvolutionError("involution belongs to a different graph")
        self.graph = graph
        self.involution = involution
        classes: dict[tuple[int, int], tuple[int, ...]] = {}
        for e in graph.edges:
            j = involution(e.id)
            key = (min(e.id, j), max(e.id, j))
            classes[key] = (key[0],) if key[0] == key[1] else key
        self.edge_classes = dict(sorted(classes.items()))

    def edge_class(self, edge_id: int) -> tuple[int, int]:
        j = self.involution(edge_id)
        return (min(edge_id, j), max(edge_id, j))

    def class_endpoints(self, key: tuple[int, int]) -> tuple[int, int]:
        e = self.graph.edge_by_id[key[0]]
        return (min(e.tail, e.head), max(e.tail, e.head))

    def classes_inside(self, domain: "Domain") -> list[tuple[int, int]]:
        """Sorted keys of the edge classes whose edges the domain allows."""
        return [k for k, members in self.edge_classes.items()
                if all(domain.allows_edge(self.graph.edge_by_id[e])
                       for e in members)]


def unoriented_view(graph: OrientedMultigraph, involution: Involution) -> UnorientedGraph:
    return UnorientedGraph(graph, involution)


def _spectral_radius(P: np.ndarray) -> float:
    """Spectral radius of a nonnegative matrix by power iteration.

    Iterates on (P + I)/2 so that periodic chains converge too, then maps the
    eigenvalue back.
    """
    n = P.shape[0]
    if n == 0 or not P.any():
        return 0.0
    A = 0.5 * (P + np.eye(n))
    v = np.ones(n)
    lam = 0.0
    for _ in range(200000):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        w /= nw
        lam_new = float(w @ (A @ w))
        if abs(lam_new - lam) <= _RADIUS_TOL * max(lam_new, 1e-30):
            lam = lam_new
            break
        lam, v = lam_new, w
    return max(0.0, 2.0 * lam - 1.0)


def _fraction_inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    """Invert a Fraction matrix by Gauss-Jordan elimination with pivoting."""
    n = len(M)
    A = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise RecurrentDomainError("recurrent domain: I - P_D is singular")
        A[col], A[piv] = A[piv], A[col]
        inv = Fraction(1) / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [row[n:] for row in A]


class Domain:
    """A vertex subset of a graph, optionally with some edges removed.

    The killed transition matrix indexes the domain's vertices in sorted
    order.  Construction checks sub-criticality (spectral radius < 1) unless
    ``allow_recurrent`` is passed; recurrent domains still support loop
    enumeration but any Green's-function use raises.
    """

    def __init__(self, graph: OrientedMultigraph, vertices,
                 removed_edges=(), allow_recurrent: bool = False):
        self.graph = graph
        self.g = graph.require_regular()
        verts = sorted(set(vertices))
        if not verts:
            raise GraphError("domain must contain at least one vertex")
        for v in verts:
            if v not in graph.out_degree:
                raise GraphError(f"domain vertex {v} not in graph")
        self.vertices = tuple(verts)
        self.vertex_set = frozenset(verts)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        removed = set(removed_edges)
        for eid in removed:
            if eid not in graph.edge_by_id:
                raise GraphError(f"removed edge {eid} not in graph")
        # removed edges with an endpoint outside the domain are already killed
        self.removed_edges = frozenset(
            eid for eid in removed
            if graph.edge_by_id[eid].tail in self.vertex_set
            and graph.edge_by_id[eid].head in self.vertex_set
        )
        self._P_float: np.ndarray | None = None
        self._P_exact: list[list[Fraction]] | None = None
        self._G_float: np.ndarray | None = None
        self._G_exact: list[list[Fraction]] | None = None
        # bridges.py's Doob tables and family CDFs, by (kind, endpoints)
        self._bridge_tables: dict = {}
        self._radius: float | None = None
        if not allow_recurrent and self.spectral_radius() > _RADIUS_REJECT:
            raise RecurrentDomainError(
                f"spectral radius {self.spectral_radius():.12f} too close to 1"
            )

    # -- walk structure ----------------------------------------------------

    def allows_edge(self, e: Edge) -> bool:
        return (e.tail in self.vertex_set and e.head in self.vertex_set
                and e.id not in self.removed_edges)

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.graph.out_edges[v] if self.allows_edge(e))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def transition_matrix(self) -> np.ndarray:
        if self._P_float is None:
            n = self.size
            P = np.zeros((n, n))
            for v in self.vertices:
                for e in self.out_edges(v):
                    P[self.index[v], self.index[e.head]] += 1.0 / self.g
            self._P_float = P
        return self._P_float

    def transition_matrix_exact(self) -> list[list[Fraction]]:
        if self._P_exact is None:
            n = self.size
            P = [[Fraction(0)] * n for _ in range(n)]
            for v in self.vertices:
                for e in self.out_edges(v):
                    P[self.index[v]][self.index[e.head]] += Fraction(1, self.g)
            self._P_exact = P
        return self._P_exact

    def spectral_radius(self) -> float:
        if self._radius is None:
            # a vertex that cannot leave lies in a closed class: radius 1,
            # which power iteration approaches too slowly to be trusted
            self._radius = (_spectral_radius(self.transition_matrix())
                            if self._leaks_everywhere() else 1.0)
        return self._radius

    def _leaks_everywhere(self) -> bool:
        """Whether the walk can leave the domain, or take a removed edge,
        from every vertex."""
        into: dict[int, list[int]] = {v: [] for v in self.vertices}
        leaking = set()
        for v in self.vertices:
            for e in self.graph.out_edges[v]:
                if self.allows_edge(e):
                    into[e.head].append(v)
                else:
                    leaking.add(v)
        stack = list(leaking)
        while stack:
            for u in into[stack.pop()]:
                if u not in leaking:
                    leaking.add(u)
                    stack.append(u)
        return len(leaking) == self.size

    # -- restriction -------------------------------------------------------

    def without_vertices(self, drop) -> "Domain":
        keep = [v for v in self.vertices if v not in set(drop)]
        return Domain(self.graph, keep, self.removed_edges)

    def without_edges(self, edge_ids) -> "Domain":
        return Domain(self.graph, self.vertices, set(self.removed_edges) | set(edge_ids))

    def __repr__(self) -> str:
        return f"Domain(vertices={self.vertices}, removed={sorted(self.removed_edges)})"


@dataclass
class GreenMatrix:
    """Green's function of a domain: values[x][y] = mean visits to y from x."""

    domain: Domain
    values: np.ndarray
    exact_values: list[list[Fraction]] | None = None

    def __call__(self, x: int, y: int) -> float:
        return float(self.values[self.domain.index[x], self.domain.index[y]])

    def exact(self, x: int, y: int) -> Fraction:
        if self.exact_values is None:
            raise GraphError("Green matrix was computed without exact mode")
        return self.exact_values[self.domain.index[x]][self.domain.index[y]]

    def product(self, X, Y) -> float:
        """G(X, Y) = prod_j G(x_j, y_j) for endpoint vectors of equal length."""
        out = 1.0
        for x, y in zip(X, Y, strict=True):
            out *= self(x, y)
        return out

    def product_exact(self, X, Y) -> Fraction:
        out = Fraction(1)
        for x, y in zip(X, Y, strict=True):
            out *= self.exact(x, y)
        return out


def green_function(domain: Domain, exact: bool = False) -> GreenMatrix:
    """Solve (I - P_D) G = I; with ``exact`` also in rational arithmetic."""
    if domain.spectral_radius() > _RADIUS_REJECT:
        raise RecurrentDomainError("recurrent domain: Green's function diverges")
    if domain._G_float is None:
        n = domain.size
        P = domain.transition_matrix()
        domain._G_float = np.linalg.solve(np.eye(n) - P, np.eye(n))
    exact_values = None
    if exact:
        if domain.size > EXACT_SIZE_LIMIT:
            raise GraphError(f"exact mode limited to domains of size {EXACT_SIZE_LIMIT}")
        if domain._G_exact is None:
            P = domain.transition_matrix_exact()
            n = domain.size
            M = [[Fraction(int(i == j)) - P[i][j] for j in range(n)] for i in range(n)]
            domain._G_exact = _fraction_inverse(M)
        exact_values = domain._G_exact
    return GreenMatrix(domain, domain._G_float, exact_values)


# -- builtin graphs ----------------------------------------------------------


def _both_ways(pairs: list[tuple[int, int]], n: int) -> OrientedMultigraph:
    edges = []
    eid = 0
    for a, b in pairs:
        edges.append(Edge(eid, a, b))
        edges.append(Edge(eid + 1, b, a))
        eid += 2
    return OrientedMultigraph(n, edges)


def cycle_graph(n: int) -> OrientedMultigraph:
    """n-cycle with both orientations of each edge; 2-regular."""
    return _both_ways([(i, (i + 1) % n) for i in range(n)], n)


def path_graph(n: int) -> OrientedMultigraph:
    """Path 0-1-...-(n-1), both orientations; endpoints have out-degree 1."""
    return _both_ways([(i, i + 1) for i in range(n - 1)], n)


def complete_graph(n: int) -> OrientedMultigraph:
    """Complete graph, both orientations; (n-1)-regular."""
    return _both_ways([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def grid_graph(rows: int, cols: int) -> OrientedMultigraph:
    """rows x cols lattice with 4-neighbour edges, both orientations."""
    def vid(r, c):
        return r * cols + c
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((vid(r, c), vid(r + 1, c)))
    return _both_ways(pairs, rows * cols)


# -- graph file format -----------------------------------------------------
#
#   vertices N
#   degree g
#   edge <id> <tail> <head> [stationary] [rev <id>]


def write_graph_file(path, graph: OrientedMultigraph,
                     involution: Involution | None = None) -> None:
    lines = [f"vertices {graph.n_vertices}"]
    if graph.g is not None:
        lines.append(f"degree {graph.g}")
    for e in graph.edges:
        parts = [f"edge {e.id} {e.tail} {e.head}"]
        if e.stationary:
            parts.append("stationary")
        if involution is not None:
            parts.append(f"rev {involution(e.id)}")
        lines.append(" ".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_graph_file(path) -> tuple[OrientedMultigraph, Involution | None]:
    """Parse the line-oriented graph format; errors carry line numbers."""
    n_vertices = None
    declared_g = None
    edges: list[Edge] = []
    rev: dict[int, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if tok[0] == "vertices":
                    n_vertices = int(tok[1])
                elif tok[0] == "degree":
                    declared_g = int(tok[1])
                elif tok[0] == "edge":
                    eid, tail, head = int(tok[1]), int(tok[2]), int(tok[3])
                    rest = tok[4:]
                    stationary = False
                    i = 0
                    while i < len(rest):
                        if rest[i] == "stationary":
                            stationary = True
                            i += 1
                        elif rest[i] == "rev":
                            rev[eid] = int(rest[i + 1])
                            i += 2
                        else:
                            raise ValueError(f"unknown token {rest[i]!r}")
                    edges.append(Edge(eid, tail, head, stationary))
                else:
                    raise ValueError(f"unknown directive {tok[0]!r}")
            except (IndexError, ValueError) as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from exc
    if n_vertices is None:
        raise GraphError(f"{path}: missing 'vertices' header")
    graph = OrientedMultigraph(n_vertices, edges)
    if declared_g is not None and graph.g != declared_g:
        raise GraphError(
            f"{path}: declared degree {declared_g} but graph has g={graph.g}"
        )
    involution = Involution(graph, rev) if rev else None
    return graph, involution
