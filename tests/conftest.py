import pytest

from loopsoup import (Domain, Involution, UnorientedGraph, build_graph,
                      complete_graph, enumerate_loops, pair_reversals)
from loopsoup.exact import side_orbit_key
from loopsoup.excursions import (decompose_counts, extract_crossings_counts,
                                 oriented_hookup_orbit_key,
                                 record_edge_jumps_counts,
                                 unoriented_hookup_orbit_key)
from loopsoup.verify import EdgeCut, ExcursionCut


def pytest_collection_modifyitems(items):
    """Ignore one known DeprecationWarning in every test.

    When a Hypothesis test fails, the plugin's report hook triggers
    ``mypy_extensions.TypedDict is deprecated``; under ``-W error`` that ends
    the session with INTERNALERROR and no summary.  An ini filter cannot
    help, as ``-W`` is applied after the ini filters; an item mark is
    applied after both.  Every other DeprecationWarning still fails its
    test."""
    ignore = pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    for item in items:
        item.add_marker(ignore)


def _whole_cut(cut, counts):
    """(bin, hookup key) of the class multiset `counts` (key -> count), from
    one cut of the whole multiset by `excursions`' cutters and orbit keys;
    None when the cut splits none of its classes."""
    cat = cut.catalog
    if isinstance(cut, ExcursionCut):
        d = decompose_counts(cat, counts, cut.F1, cut.F2)
        if not d.N:
            return None
        if cut.oriented:
            return d.eta, oriented_hookup_orbit_key(d.eta, d.beta_truth)
        return d.eta, unoriented_hookup_orbit_key(d.eta, d.beta_truth,
                                                  involution=cut.inv)
    if isinstance(cut, EdgeCut):
        rec = record_edge_jumps_counts(cat, counts, cut.removed)
        if not any(rec.counts):
            return None
        return rec.counts, unoriented_hookup_orbit_key(
            cut._pieces(rec.counts), rec.hookup, rec.self_edge_slots, cut.inv)
    cs = extract_crossings_counts(cat, counts, cut.sets)
    if not cs.instances:
        return None
    return cs.crossing_key(), tuple(side_orbit_key(cs, i)
                                    for i in range(len(cut.sets)))


@pytest.fixture(scope="session")
def whole_cut():
    """The reference a cut's `bin_key` is checked against: the bin and key
    of a class multiset read off one cut of the whole multiset, with no
    per-class record."""
    return _whole_cut


@pytest.fixture(scope="session")
def k5():
    """Complete graph on 5 vertices (g = 4) with its reversal involution."""
    g = complete_graph(5)
    inv = pair_reversals(g)
    return g, inv, UnorientedGraph(g, inv)


@pytest.fixture(scope="session")
def triangle_domain(k5):
    """Vertices {1,2,3} of K5: a triangle where every vertex leaks at rate 1/2."""
    g, inv, ug = k5
    return Domain(g, [1, 2, 3])


@pytest.fixture(scope="session")
def triangle_catalogs(k5, triangle_domain):
    g, inv, ug = k5
    cat = enumerate_loops(triangle_domain, 8, unoriented=ug)
    ucat = cat.counterpart()
    return cat, ucat


@pytest.fixture(scope="session")
def k12():
    g = complete_graph(12)
    inv = pair_reversals(g)
    return g, inv, UnorientedGraph(g, inv)


@pytest.fixture(scope="session")
def sharp_triangle(k12):
    """Vertices {1,2,3} of K12 (g = 11): heavy leakage, little infeasible mass."""
    g, inv, ug = k12
    dom = Domain(g, [1, 2, 3])
    cat = enumerate_loops(dom, 6, unoriented=ug)
    return dom, cat, cat.counterpart()


@pytest.fixture(scope="session")
def self_edge_domain():
    """One vertex with a self-edge and an exit edge (g = 2): G(x,x) = 2."""
    from loopsoup import build_graph
    g = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    return g, Domain(g, [0])


@pytest.fixture(scope="session")
def paired_self_edge_catalogs():
    """Domain {0, 1} of a path 0-1-2 with self-edges: a reversal pair at 0,
    a fixed one at 1 and a pair at 2 (g = 3)."""
    g = build_graph(3, [(0, 0, 1), (1, 1, 0), (2, 1, 2), (3, 2, 1),
                        (4, 0, 0), (5, 0, 0), (6, 1, 1), (7, 2, 2), (8, 2, 2)])
    inv = Involution(g, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 6, 7: 8,
                         8: 7})
    cat = enumerate_loops(Domain(g, [0, 1]), 6,
                          unoriented=UnorientedGraph(g, inv))
    return cat, cat.counterpart()
