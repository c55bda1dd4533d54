import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsoup import (Bridge, Domain, RecurrentDomainError, build_graph,
                      complete_graph, cycle_graph, enumerate_bridges,
                      green_function, regularize_degree, sample_bridge,
                      sample_unordered_bridge, sample_z_bridge)
from loopsoup import stats
from loopsoup.bridges import (SEGMENT_BUDGET, BridgeError, _doob_table,
                              all_pairings, bridge_probability_exact,
                              pairing_weights, permutation_weights)
from loopsoup.exact import unordered_bridge_law
from loopsoup.rng import stream
from loopsoup.verify import CHI2_SIGNIFICANCE


def test_zero_length_bridge_probability():
    g = build_graph(2, [(0, 0, 1), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    dom = Domain(g, [0])
    green = green_function(dom, exact=True)
    assert bridge_probability_exact(dom, Bridge(0, 0, ()), green) == 1


def test_self_edge_bridge_law(self_edge_domain):
    g, dom = self_edge_domain
    green = green_function(dom, exact=True)
    total = Fraction(0)
    for n in range(12):
        b = Bridge(0, 0, (0,) * n)
        p = bridge_probability_exact(dom, b, green)
        assert p == Fraction(1, 2 ** n) / 2
        total += p
    assert 1 - total == Fraction(1, 2 ** 12)   # geometric remainder


def test_bridge_normalization_with_tail(triangle_domain):
    green = green_function(triangle_domain, exact=True)
    bridges = enumerate_bridges(triangle_domain, 1, 2, 10)
    total = sum(Fraction(1, triangle_domain.g ** b.n) for b in bridges)
    # remainder relative to the exact Green value, bounded by the Green tail
    rem = green.exact(1, 2) - total
    assert 0 <= rem
    lam = triangle_domain.spectral_radius()
    assert float(rem) <= triangle_domain.size * lam ** 11 / (1 - lam)
    assert sum(bridge_probability_exact(triangle_domain, b, green)
               for b in bridges) <= 1


def test_bridge_leaving_domain_rejected(k5, triangle_domain):
    g, inv, ug = k5
    e10 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 0))
    with pytest.raises(BridgeError):
        bridge_probability_exact(triangle_domain, Bridge(1, 0, (e10,)),
                                 green_function(triangle_domain, exact=True))


def test_sample_bridge_degenerate():
    g = build_graph(2, [(0, 0, 1), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    dom = Domain(g, [0])
    rng = stream(1, "deg")
    for _ in range(20):
        assert sample_bridge(dom, 0, 0, rng).n == 0


def test_sample_bridge_geometric_law(self_edge_domain):
    g, dom = self_edge_domain
    rng = stream(2, "geo")
    n = 100000
    lens = Counter(sample_bridge(dom, 0, 0, rng).n for _ in range(n))
    from loopsoup.stats import chi2_gof
    probs = {k: 0.5 ** k / 2 for k in range(30)}
    _, dof, p = chi2_gof(lens, probs, n)
    assert p > 1e-3


def test_sample_bridge_matches_enumeration(k5):
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    green = green_function(dom, exact=True)
    bridges = enumerate_bridges(dom, 1, 3, 6)
    probs = {b.path: float(bridge_probability_exact(dom, b, green))
             for b in bridges}
    covered = sum(probs.values())
    rng = stream(3, "tv")
    n = 100000
    emp = Counter(b.path for b in (sample_bridge(dom, 1, 3, rng)
                                   for _ in range(n)) if b.n <= 6)
    m = sum(emp.values())
    # distributions conditioned on length <= 6
    tv = 0.5 * sum(abs(emp.get(k, 0) / m - p / covered)
                   for k in set(emp) | set(probs)
                   for p in [probs.get(k, 0.0)])
    assert tv < 0.01


def test_bridge_reversal_symmetry(k5):
    """The reversed x->y bridge law is the y->x bridge law."""
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    green = green_function(dom, exact=True)
    fwd = {b.path: bridge_probability_exact(dom, b, green)
           for b in enumerate_bridges(dom, 1, 2, 7)}
    bwd = {b.path: bridge_probability_exact(dom, b, green)
           for b in enumerate_bridges(dom, 2, 1, 7)}
    for path, p in fwd.items():
        assert bwd[inv.reverse_path(path)] == p


def test_unordered_reduces_to_single(k5):
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    rng = stream(4, "n1")
    fam = sample_unordered_bridge(dom, [1], [2], rng)
    assert fam.permutation == (0,)
    assert fam.bridges[0].x == 1 and fam.bridges[0].y == 2


def test_unordered_equal_targets_double_count(k5):
    """With y_1 = y_2 both permutations carry equal weight: the same bridge
    collection is counted once per permutation."""
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    green = green_function(dom, exact=True)
    w = permutation_weights(green.exact, (1, 2), (3, 3))
    assert w[(0, 1)] == w[(1, 0)] > 0
    rng = stream(5, "perm")
    n = 40000
    perms = Counter(sample_unordered_bridge(dom, [1, 2], [3, 3], rng).permutation
                    for _ in range(n))
    assert abs(perms[(0, 1)] - n / 2) < 3 * math.sqrt(n * 0.25)


def test_unordered_permutation_frequencies(k12):
    """Permutation frequencies follow the Green-product ratio on an
    asymmetric domain."""
    g, inv, ug = k12
    dom = Domain(g, [1, 2, 3])
    green = green_function(dom)
    X, Y = (1, 2), (1, 3)
    w = permutation_weights(green, X, Y)
    total = sum(w.values())
    rng = stream(6, "freq")
    n = 100000
    emp = Counter(sample_unordered_bridge(dom, X, Y, rng).permutation
                  for _ in range(n))
    for s, weight in w.items():
        p = weight / total
        assert abs(emp[s] - n * p) < 3 * math.sqrt(n * p * (1 - p))


def test_z_bridge_single_pair(k5):
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    rng = stream(7, "z1")
    fam = sample_z_bridge(dom, (1, 2), rng)
    assert fam.pairing == ((0, 1),)


def test_z_bridge_degenerate_weights():
    """When the cross pairings are unreachable only one pairing survives."""
    # two disjoint 2-cycles inside the domain: 1-2 and 3-4, no other edges
    g = build_graph(5, [(0, 1, 2), (1, 2, 1), (2, 3, 4), (3, 4, 3),
                        (4, 1, 0), (5, 2, 0), (6, 3, 0), (7, 4, 0),
                        (8, 0, 0), (9, 0, 0)])
    dom = Domain(g, [1, 2, 3, 4])
    rng = stream(8, "zdeg")
    for _ in range(30):
        fam = sample_z_bridge(dom, (1, 2, 3, 4), rng)
        assert fam.pairing == ((0, 1), (2, 3))


def test_z_bridge_pairing_frequencies():
    """Pairing frequencies follow the three Green-product weights on a
    4-cycle domain."""
    g = cycle_graph(6)
    dom = Domain(g, [1, 2, 3, 4])
    green = green_function(dom)
    Z = (1, 2, 3, 4)
    w = pairing_weights(green, Z)
    total = sum(w.values())
    rng = stream(9, "zfreq")
    n = 100000
    emp = Counter(sample_z_bridge(dom, Z, rng).pairing for _ in range(n))
    for t, weight in w.items():
        p = weight / total
        assert abs(emp[t] - n * p) < 3 * math.sqrt(n * p * (1 - p)) + 3
    assert len(all_pairings(4)) == 3


def test_g_power_K_characterization(k12):
    """Sampled unordered-family configurations of total length <= 4 follow
    the exact law g^{-K} / Z restricted to them, renormalized: one
    chi-square over all 35 configurations."""
    g, inv, ug = k12
    dom = Domain(g, [1, 2, 3])
    rng = stream(10, "gk")
    n = 150000
    X, Y = (1, 2), (2, 1)
    emp = Counter()
    for _ in range(n):
        fam = sample_unordered_bridge(dom, X, Y, rng)
        if fam.total_length <= 4:
            # bridge j joins the end of piece j to the start of piece s[j]
            emp[tuple(((2 * j + 1, 2 * s), b.path) for j, (s, b)
                      in enumerate(zip(fam.permutation, fam.bridges)))] += 1
    configs, _ = unordered_bridge_law(dom, X, Y, 4)
    law = {c: p for c, p in configs.items()
           if sum(len(path) for _, path in c) <= 4}
    total = sum(law.values())
    law = {c: p / total for c, p in law.items()}
    assert len(law) == 35
    assert set(emp) <= set(law)
    _, dof, p = stats.chi2_gof(emp, law, sum(emp.values()))
    assert dof > 0 and p > CHI2_SIGNIFICANCE


def test_budget_errors(k5):
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    green = green_function(dom)
    with pytest.raises(BridgeError):
        permutation_weights(green, list(range(9)) * 1, list(range(9)))
    with pytest.raises(BridgeError):
        all_pairings(14)
    with pytest.raises(BridgeError):
        all_pairings(3)


def test_unreachable_target():
    g = build_graph(4, [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 1, 2),
                        (4, 2, 3), (5, 2, 3), (6, 3, 3), (7, 3, 3)])
    dom = Domain(g, [0, 1])
    rng = stream(12, "unreach")
    # edges only run forward
    with pytest.raises(BridgeError, match="unreachable"):
        sample_bridge(dom, 1, 0, rng)
    with pytest.raises(BridgeError, match="no permutation has positive weight"):
        sample_unordered_bridge(dom, (1,), (0,), rng)
    with pytest.raises(BridgeError, match="no pairing has positive weight"):
        sample_z_bridge(dom, (1, 0), rng)


def test_bad_family_endpoints_raise_bridge_error():
    dom = Domain(complete_graph(5), [1, 2, 3])
    rng = stream(13, "bad-endpoints")
    outside = "bridge endpoints must lie in the domain"
    with pytest.raises(BridgeError, match=outside):
        sample_z_bridge(dom, (1, 4), rng)
    with pytest.raises(BridgeError, match=outside):
        sample_unordered_bridge(dom, (1,), (4,), rng)
    with pytest.raises(BridgeError, match=outside):
        sample_bridge(dom, 1, 4, rng)
    with pytest.raises(BridgeError, match=outside):
        sample_bridge(dom, 4, 1, rng)
    sample_bridge(dom, 1, 2, rng)   # the tables towards 1 and 2 now exist
    with pytest.raises(BridgeError, match=outside):
        sample_bridge(dom, 4, 2, rng)


# -- the Doob segment tables ----------------------------------------------------


def _reference_bridge(domain, x, y, rng):
    """A plain walk over the segment table: one uniform per segment, found
    by a linear scan of the row's CDF."""
    table = _doob_table(domain, y)
    path = []
    v = x
    while True:
        cdf, segments = table[v]
        u = rng.random()
        eids, v, stopped = segments[next(i for i, c in enumerate(cdf) if u < c)]
        path.extend(eids)
        if stopped:
            return Bridge(x, y, tuple(path))


def _check_segment_rows(dom):
    """Every Doob row lists walks in the domain whose exact probabilities sum
    to exactly one, and each float CDF increment is within 1e-12 of its
    segment's probability.  The one-step probabilities G(head, y) /
    (g G(tail, y)) of j moves from v to w multiply to g^{-j} G(w, y) / G(v, y),
    and the stop at w = y multiplies that by 1 / G(y, y)."""
    green = green_function(dom, exact=True)
    for y in dom.vertices:
        table = _doob_table(dom, y)
        assert set(table) == {v for v in dom.vertices if green.exact(v, y) > 0}
        # the unstopped segments all make k moves, the stopped ones fewer
        moves = {len(eids) for _, segments in table.values()
                 for eids, _, stopped in segments if not stopped}
        assert len(moves) <= 1
        k = min(moves, default=SEGMENT_BUDGET)
        assert k == 1 or max(len(segments) for _, segments in table.values()) \
            <= SEGMENT_BUDGET
        for v, (cdf, segments) in table.items():
            assert len(cdf) == len(segments) and cdf[-1] == 1.0
            total, previous = Fraction(0), 0.0
            for c, (eids, end, stopped) in zip(cdf, segments):
                w = v
                for eid in eids:
                    e = dom.graph.edge_by_id[eid]
                    assert e.tail == w and dom.allows_edge(e)
                    w = e.head
                assert w == end
                assert not stopped or (end == y and len(eids) < k)
                p = (1 if stopped else green.exact(end, y)) \
                    / (dom.g ** len(eids) * green.exact(v, y))
                assert p > 0
                assert abs((c - previous) - float(p)) <= 1e-12
                total += p
                previous = c
            assert total == 1


def _reference_choice(weights, rng):
    """The family draw as it was before the cached CDFs."""
    keys = sorted(weights)
    w = np.array([float(weights[k]) for k in keys])
    return keys[int(rng.choice(len(keys), p=w / float(w.sum())))]


def _criterion_9_fixtures():
    g1 = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    singles = [(Domain(g1, [0]), 0, 0),
               (Domain(complete_graph(5), [1, 2, 3]), 1, 3),
               (Domain(cycle_graph(6), [1, 2, 3, 4]), 1, 4)]
    edges = []
    for i, (a, b) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1), (1, 0)]):
        edges += [(2 * i, a, b), (2 * i + 1, b, a)]
    d4 = Domain(regularize_degree(build_graph(5, edges), 3), [1, 2, 3, 4])
    return singles, Domain(complete_graph(12), [1, 2, 3]), d4


DRAWS = 2000


def test_doob_segments_are_exact_on_the_fixtures():
    singles, dk, d4 = _criterion_9_fixtures()
    for dom in [d for d, _, _ in singles] + [dk, d4]:
        _check_segment_rows(dom)


def test_samplers_match_the_segment_walk_draw_for_draw():
    singles, dk, d4 = _criterion_9_fixtures()
    for k, (dom, x, y) in enumerate(singles):
        rng, ref = stream(k, "doob-table"), stream(k, "doob-table")
        for _ in range(DRAWS):
            assert sample_bridge(dom, x, y, rng) == _reference_bridge(
                dom, x, y, ref)
    X, Y = (1, 2), (1, 3)
    perm_w = permutation_weights(green_function(dk), X, Y)
    rng, ref = stream(3, "doob-table"), stream(3, "doob-table")
    for _ in range(DRAWS):
        fam = sample_unordered_bridge(dk, X, Y, rng)
        s = _reference_choice(perm_w, ref)
        assert fam.permutation == s
        assert fam.bridges == tuple(_reference_bridge(dk, X[j], Y[s[j]], ref)
                                    for j in range(2))
    Z = (1, 2, 3, 4)
    pair_w = pairing_weights(green_function(d4), Z)
    rng, ref = stream(4, "doob-table"), stream(4, "doob-table")
    for _ in range(DRAWS):
        fam = sample_z_bridge(d4, Z, rng)
        t = _reference_choice(pair_w, ref)
        assert fam.pairing == t
        assert fam.bridges == tuple(_reference_bridge(d4, Z[a], Z[b], ref)
                                    for a, b in t)


# sha256 of the plain-tuple draws of `test_bridge_streams_are_pinned`
PINNED_STREAMS = {
    "single[0]":
        "513b9f054f3fb02f8e0dfb24f264e04933b6d8fce693f91088e26bf7c0549591",
    "single[1]":
        "843454e2479803ebe4a2e77ef527fc5205ec8fdf145f233b534cf286fdfd0897",
    "single[2]":
        "da596ee14e511c6b03db4094b880cff34c0cc86e233d7841dfdaba5330cfd974",
    "permutation":
        "a4b3b96e3e4afc36e59acaac7e32a1e2ef73e579feaf77915874e196980b3e69",
    "pairing":
        "7b628fc89f0d9546b6f91499666138c0998bcf45146257ee7608f2fdea15066c",
}


def _fields(record, names):
    """The record's fields as a plain tuple, after checking that it is
    immutable and hashes as that tuple, and that every path in it is a
    tuple."""
    fields = tuple(getattr(record, name) for name in names)
    assert hash(record) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(record, names[-1], None)
    for bridge in getattr(record, "bridges", (record,)):
        assert type(bridge.path) is tuple
    return fields


def test_bridge_streams_are_pinned():
    """The draws of all three samplers at fixed seeds hash to fixed digests:
    (x, y, path) of single bridges on criterion 9's fixtures, (permutation,
    paths) on the K12 triangle and (pairing, paths) on the degree-3 domain.
    The digests hash plain tuples, not record reprs."""
    singles, dk, d4 = _criterion_9_fixtures()
    draws = {}
    for k, (dom, x, y) in enumerate(singles):
        rng = stream(k, "pinned-streams")
        draws[f"single[{k}]"] = [
            _fields(sample_bridge(dom, x, y, rng), ("x", "y", "path"))
            for _ in range(DRAWS)]
    rng = stream(3, "pinned-streams")
    draws["permutation"] = [
        (s, tuple(b.path for b in bridges)) for _, _, s, bridges in (
            _fields(sample_unordered_bridge(dk, (1, 2), (1, 3), rng),
                    ("X", "Y", "permutation", "bridges"))
            for _ in range(DRAWS))]
    rng = stream(4, "pinned-streams")
    draws["pairing"] = [
        (t, tuple(b.path for b in bridges)) for _, t, bridges in (
            _fields(sample_z_bridge(d4, (1, 2, 3, 4), rng),
                    ("Z", "pairing", "bridges"))
            for _ in range(DRAWS))]
    digests = {name: hashlib.sha256(repr(d).encode()).hexdigest()
               for name, d in draws.items()}
    assert digests == PINNED_STREAMS


# -- properties on random regular graphs ----------------------------------------


@st.composite
def _regular_domains(draw):
    """A domain of a random g-regular multigraph on at most 5 vertices:
    up to 3 random out-edges per vertex, padded with self-edges."""
    n = draw(st.integers(2, 5))
    edges = []
    for v in range(n):
        for head in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            edges.append((len(edges), v, head))
    graph = build_graph(n, edges)
    g = max(graph.out_degree.values()) + draw(st.integers(0, 1))
    assume(g > 0)
    vertices = draw(st.sets(st.integers(0, n - 1), min_size=1,
                            max_size=n - 1))
    try:
        return Domain(regularize_degree(graph, g), vertices)
    except RecurrentDomainError:
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_regular_domains(), st.data())
def test_doob_rows_and_length_laws_property(dom, data):
    """Every Doob row's segments are exact (`_check_segment_rows`); and the
    exact length law of the bridges up to a cap is at most 1 and grows with
    the cap."""
    _check_segment_rows(dom)
    green = green_function(dom, exact=True)
    x = data.draw(st.sampled_from(dom.vertices))
    y = data.draw(st.sampled_from(dom.vertices))
    assume(green.exact(x, y) > 0)
    previous = Fraction(0)
    for cap in range(5):
        law = sum((bridge_probability_exact(dom, b, green)
                   for b in enumerate_bridges(dom, x, y, cap)), Fraction(0))
        assert previous <= law <= 1
        previous = law
