import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, GraphError, Involution, RecurrentDomainError,
                      UnorientedGraph, build_graph, complete_graph,
                      cycle_graph, green_function, grid_graph, pair_reversals,
                      parse_graph_file, path_graph, regularize_degree,
                      write_graph_file)
from loopsoup.graph import EXACT_SIZE_LIMIT, _RADIUS_REJECT, _spectral_radius
from loopsoup.rng import stream


def test_build_two_cycle():
    g = build_graph(2, [(0, 0, 1), (1, 1, 0)])
    assert g.out_degree == {0: 1, 1: 1}
    assert g.g == 1


def test_build_parallel_self_edges():
    g = build_graph(1, [(0, 0, 0), (1, 0, 0)])
    assert g.out_degree[0] == 2


def test_build_empty_edges():
    g = build_graph(3, [])
    assert g.g == 0 or g.g is None or g.out_degree == {0: 0, 1: 0, 2: 0}
    assert all(d == 0 for d in g.out_degree.values())


def test_build_errors():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0, 1), (0, 1, 0)])      # duplicate id
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0, 5)])                 # dangling endpoint


def test_regularize_adds_stationary():
    g = build_graph(2, [(0, 0, 1), (1, 1, 0)])
    r = regularize_degree(g, 2)
    assert r.g == 2
    added = [e for e in r.edges if e.stationary]
    assert len(added) == 2 and all(e.tail == e.head for e in added)


def test_regularize_identity_when_regular():
    g = cycle_graph(4)
    r = regularize_degree(g, 2)
    assert len(r.edges) == len(g.edges)


def test_regularize_star():
    # star with center 0 and three leaves, both orientations: center degree 3
    g = path_graph(2)
    g = build_graph(4, [(0, 0, 1), (1, 1, 0), (2, 0, 2), (3, 2, 0),
                        (4, 0, 3), (5, 3, 0)])
    r = regularize_degree(g, 3)
    by_vertex = {v: sum(1 for e in r.edges if e.stationary and e.tail == v)
                 for v in r.vertices}
    assert by_vertex == {0: 0, 1: 2, 2: 2, 3: 2}
    with pytest.raises(GraphError):
        regularize_degree(g, 2)


def test_regularize_preserves_exit_distribution():
    # harmonic measure from any domain is unchanged by stationary padding
    g = path_graph(4)                      # 0-1-2-3
    r = regularize_degree(g, 2)
    dom_r = Domain(r, [1, 2])

    def exit_dist(graph):
        dom = Domain(graph, [1, 2], allow_recurrent=True)
        # absorb at 0 or 3: probability of exiting at 3 starting from 1
        P = dom.transition_matrix()
        G = np.linalg.solve(np.eye(2) - P, np.eye(2))
        hit3 = np.zeros(2)
        for v in dom.vertices:
            for e in graph.out_edges[v]:
                if e.head == 3:
                    hit3[dom.index[v]] += 1 / graph.require_regular()
        return G @ hit3

    # the unregularized path already has g = 2 on interior vertices only;
    # compare against an explicit g = 3 regularization instead
    r3 = regularize_degree(g, 3)
    a = exit_dist(r)
    b = exit_dist(r3)
    assert np.allclose(a, b, atol=1e-12)


def test_first_nonstationary_edge_uniform():
    g = build_graph(2, [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 1, 1)])
    r = regularize_degree(g, 5)
    rng = stream(3, "first-edge")
    counts = {0: 0, 1: 0, 2: 0}
    edges = r.out_edges[0]
    for _ in range(30000):
        while True:
            e = edges[rng.integers(5)]
            if not e.stationary:
                counts[e.id] += 1
                break
    n = sum(counts.values())
    for c in counts.values():
        assert abs(c - n / 3) < 3 * math.sqrt(n * (1 / 3) * (2 / 3))


def test_green_no_return():
    g = build_graph(2, [(0, 0, 1), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    dom = Domain(g, [0])
    gr = green_function(dom, exact=True)
    assert gr(0, 0) == 1.0 and gr.exact(0, 0) == 1


def test_green_self_edge_geometric(self_edge_domain):
    g, dom = self_edge_domain
    gr = green_function(dom, exact=True)
    assert gr.exact(0, 0) == 2
    # independent oracle: truncated path enumeration sum_{n<=40} (1/2)^n
    assert abs(gr(0, 0) - sum(0.5 ** n for n in range(41))) < 1e-11


def test_green_matrix_solve_vs_path_sum():
    g = regularize_degree(path_graph(3), 2)   # x - y - z, g = 2
    dom = Domain(g, [0, 1])
    gr = green_function(dom)
    P = dom.transition_matrix()
    # truncated path sum with analytic tail bound
    S = np.zeros_like(P)
    M = np.eye(2)
    for n in range(41):
        S += M
        M = M @ P
    lam = dom.spectral_radius()
    tail = dom.size * lam ** 41 / (1 - lam)
    assert np.abs(gr.values - S).max() <= tail + 1e-12
    assert np.abs(gr.values - S).max() < 1e-12 + tail


@st.composite
def _transient_domains(draw):
    """A transient domain of a small path, cycle or complete graph, its
    degree padded with self-edges."""
    make = draw(st.sampled_from([path_graph, cycle_graph, complete_graph]))
    graph = make(draw(st.integers(3, 5)))
    graph = regularize_degree(graph, max(graph.out_degree.values()))
    dom = Domain(graph, draw(st.sets(st.sampled_from(graph.vertices), min_size=1)),
                 allow_recurrent=True)
    assume(dom.spectral_radius() <= _RADIUS_REJECT)
    return dom


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_transient_domains())
@example(Domain(regularize_degree(grid_graph(4, 4), 4), range(EXACT_SIZE_LIMIT)))
def test_green_exact_identity(dom):
    """(I - P_D) G == I in exact arithmetic; Bareiss divides with `//`,
    which would floor an inexact quotient without a word."""
    G = green_function(dom, exact=True).exact_values
    P = dom.transition_matrix_exact()
    n = dom.size
    for i in range(n):
        for j in range(n):
            s = sum((Fraction(int(i == k)) - P[i][k]) * G[k][j]
                    for k in range(n))
            assert s == Fraction(int(i == j))


def test_recurrent_domain_rejected():
    g = cycle_graph(3)
    with pytest.raises(RecurrentDomainError):
        Domain(g, [0, 1, 2])
    dom = Domain(g, [0, 1, 2], allow_recurrent=True)
    with pytest.raises(RecurrentDomainError):
        green_function(dom)


def test_spectral_radius_matches_eigvals():
    """The radius is an upper bound, at most 2e-9 relative above eigvals.

    A nilpotent P (strictly triangular up to a permutation, or any draw
    with no closed path) has radius exactly 0.
    """
    rng, shuffle = np.random.default_rng(0), np.random.default_rng(1)
    mats = []
    for _ in range(25):
        n = rng.integers(1, 6)
        P = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        P *= 0.9 / max(P.sum(axis=1).max(), 1.0)
        perm = shuffle.permutation(n)
        mats += [P, np.triu(P, 1), np.triu(P, 1)[np.ix_(perm, perm)]]
    # the 100-site path inside cycle:101, radius cos(pi/101)
    mats.append(Domain(cycle_graph(101), range(1, 101)).transition_matrix())
    for P in mats:
        lam = _spectral_radius(P)
        eig = max(abs(np.linalg.eigvals(P)))
        if not np.linalg.matrix_power(P, len(P)).any():     # nilpotent
            assert lam == 0.0
        else:
            assert eig <= lam <= eig * (1 + 2e-9) + 2e-12


@st.composite
def _substochastic(draw):
    """A random n x n matrix, n <= 5, with rows summing to at most 0.9."""
    n = draw(st.integers(1, 5))
    P = np.array(draw(st.lists(st.floats(0, 1), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    return P * (0.9 / max(P.sum(axis=1).max(), 1.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_substochastic(), st.randoms(use_true_random=False))
def test_spectral_radius_bounds_eigvals_property(P, rnd):
    """The certified radius is at least LAPACK's max |eigvals| and at most
    1; the strictly upper triangle, relabeled at random, is nilpotent and
    has radius exactly 0."""
    lam = _spectral_radius(P)
    assert max(abs(np.linalg.eigvals(P))) <= lam <= 1.0
    perm = list(range(len(P)))
    rnd.shuffle(perm)
    assert _spectral_radius(np.triu(P, 1)[np.ix_(perm, perm)]) == 0.0


def test_involution_validation():
    g = build_graph(2, [(0, 0, 1), (1, 1, 0)])
    inv = Involution(g, {0: 1, 1: 0})
    assert inv(0) == 1
    with pytest.raises(GraphError):
        Involution(g, {0: 0, 1: 1})    # fixes non-self-edges
    with pytest.raises(GraphError):
        Involution(g, {0: 1})          # incomplete


def test_unoriented_graph_classes(k5):
    g, inv, ug = k5
    # one unoriented class per vertex pair
    assert len(ug.edge_classes) == 10
    key = ug.edge_class(0)
    assert ug.class_endpoints(key) == (0, 1)


def test_unoriented_self_edge_conventions(tmp_path):
    # iota-fixed self-edges, as pair_reversals makes them: one class each,
    # counted once
    g = build_graph(1, [(0, 0, 0), (1, 0, 0)])
    inv_fixed = pair_reversals(g)
    assert inv_fixed.mapping == {0: 0, 1: 1}
    ug = UnorientedGraph(g, inv_fixed)
    assert sorted(ug.edge_classes) == [(0, 0), (1, 1)]
    # paired parallel self-edges, as a graph file's rev gives them: one class
    # counted twice in the degree
    path = tmp_path / "paired.graph"
    path.write_text("vertices 1\nedge 0 0 0 rev 1\nedge 1 0 0 rev 0\n")
    g2, inv_pair = parse_graph_file(path)
    assert inv_pair.mapping == {0: 1, 1: 0}
    ug2 = UnorientedGraph(g2, inv_pair)
    assert sorted(ug2.edge_classes) == [(0, 1)]


def test_domain_restrictions(triangle_domain):
    sub = triangle_domain.without_vertices([3])
    assert sub.vertices == (1, 2)
    sub2 = triangle_domain.without_edges([8])
    assert 8 in sub2.removed_edges


def test_graph_file_round_trip(tmp_path, k5):
    g, inv, ug = k5
    path = tmp_path / "k5.graph"
    write_graph_file(path, g, inv)
    g2, inv2 = parse_graph_file(path)
    assert [(e.id, e.tail, e.head, e.stationary) for e in g2.edges] == \
           [(e.id, e.tail, e.head, e.stationary) for e in g.edges]
    assert all(inv2(e.id) == inv(e.id) for e in g.edges)


@st.composite
def _graphs_with_involutions(draw):
    """A random multigraph on at most 5 vertices, its edges paired with
    their reversals: self-edges fixed, or paired two by two.  Edge ids are
    a random permutation, and some edges are stationary."""
    n = draw(st.integers(1, 5))
    fix = draw(st.booleans())
    ends = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=8)):
        ends.append([(u, v)] if u == v and fix else [(u, v), (v, u)])
    ids = draw(st.permutations(range(sum(map(len, ends)))))
    edges, mapping, it = [], {}, iter(ids)
    for pair in ends:
        pair_ids = [next(it) for _ in pair]
        for eid, (u, v) in zip(pair_ids, pair):
            edges.append((eid, u, v, draw(st.booleans())))
        mapping.update(zip(pair_ids, reversed(pair_ids)))
    graph = build_graph(n, edges)
    return graph, Involution(graph, mapping)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_graphs_with_involutions())
def test_graph_file_round_trip_property(tmp_path_factory, graph_inv):
    """A graph file written with its involution parses back to the same
    edges, degree and involution."""
    graph, inv = graph_inv
    path = tmp_path_factory.mktemp("graph") / "g.graph"
    write_graph_file(path, graph, inv)
    g2, inv2 = parse_graph_file(path)
    assert [(e.id, e.tail, e.head, e.stationary) for e in g2.edges] == \
           [(e.id, e.tail, e.head, e.stationary) for e in graph.edges]
    assert (g2.n_vertices, g2.g) == (graph.n_vertices, graph.g)
    assert (inv2.mapping if inv2 is not None else {}) == inv.mapping


def test_graph_file_parse_errors(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("vertices 2\nedge 0 0 asdf\n")
    with pytest.raises(GraphError) as exc:
        parse_graph_file(p)
    assert ":2:" in str(exc.value)
    p.write_text("edge 0 0 1\n")
    with pytest.raises(GraphError, match="vertices"):
        parse_graph_file(p)
    p.write_text("vertices 2\ndegree 5\nedge 0 0 1\nedge 1 1 0\n")
    with pytest.raises(GraphError, match="declared degree"):
        parse_graph_file(p)


def test_trapped_vertex_is_recurrent():
    # vertex 1 keeps all four of its edges inside the domain, so P_D has
    # eigenvalue 1; the bound reads exactly 1.0 through its clamp at 1
    g = build_graph(4, [(0, 0, 0), (1, 0, 0), (2, 0, 3), (3, 2, 0), (4, 2, 1),
                        (5, 0, 0), (6, 1, 1), (7, 1, 1), (8, 1, 1), (9, 1, 1),
                        (10, 2, 2), (11, 2, 2), (12, 3, 3), (13, 3, 3),
                        (14, 3, 3), (15, 3, 3)])
    with pytest.raises(RecurrentDomainError):
        Domain(g, [0, 1, 2])
    dom = Domain(g, [0, 1, 2], allow_recurrent=True)
    assert dom.spectral_radius() == 1.0
    with pytest.raises(RecurrentDomainError):
        green_function(dom)
    assert Domain(g, [0, 2]).spectral_radius() < 1.0
