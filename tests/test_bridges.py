import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsoup import (Bridge, Domain, RecurrentDomainError,
                      bridge_probability, build_graph, complete_graph,
                      cycle_graph, enumerate_bridges, green_function,
                      regularize_degree, sample_bridge,
                      sample_unordered_bridge, sample_z_bridge)
from loopsoup.bridges import (BridgeError, _doob_table, all_pairings,
                              bridge_probability_exact, pairing_weights,
                              permutation_weights)
from loopsoup.rng import stream


def test_zero_length_bridge_probability():
    g = build_graph(2, [(0, 0, 1), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    dom = Domain(g, [0])
    assert bridge_probability(dom, Bridge(0, 0, ())) == 1.0


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
        bridge_probability(triangle_domain, Bridge(1, 0, (e10,)))


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
    """Sampled unordered-family configurations occur with frequency
    proportional to g^{-K} (configurations enumerated to length 4)."""
    g, inv, ug = k12
    dom = Domain(g, [1, 2, 3])
    rng = stream(10, "gk")
    n = 150000
    X, Y = (1, 2), (2, 1)
    emp = Counter()
    for _ in range(n):
        fam = sample_unordered_bridge(dom, X, Y, rng)
        if fam.total_length <= 4:
            emp[(fam.permutation, tuple(b.path for b in fam.bridges))] += 1
    configs = sorted(emp, key=lambda k: -emp[k])[:12]
    # pairwise frequency ratios match g^{-(K1 - K2)}
    ref = configs[0]
    K_ref = sum(len(p) for p in ref[1])
    for cfg in configs[1:]:
        K = sum(len(p) for p in cfg[1])
        r = float(dom.g) ** (K_ref - K)
        c1, c0 = emp[cfg], emp[ref]
        se = math.sqrt(c1 + r * r * c0)
        assert abs(c1 - r * c0) <= 3 * se


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
    with pytest.raises(BridgeError):
        sample_bridge(dom, 1, 0, rng)   # edges only run forward


def test_bad_family_endpoints_raise_bridge_error():
    dom = Domain(complete_graph(5), [1, 2, 3])
    rng = stream(13, "bad-endpoints")
    with pytest.raises(BridgeError):
        sample_z_bridge(dom, (1, 4), rng)
    with pytest.raises(BridgeError):
        sample_unordered_bridge(dom, (1,), (4,), rng)
    with pytest.raises(BridgeError):
        sample_bridge(dom, 1, 4, rng)
    with pytest.raises(BridgeError):
        sample_bridge(dom, 4, 1, rng)


# -- the Doob tables against the per-step walk they replaced -------------------


def _reference_bridge(domain, x, y, rng):
    """The Doob walk as it was before the tables: out-edges and Green's
    values looked up afresh at every step."""
    green = green_function(domain)
    path = []
    v = x
    while True:
        edges = domain.out_edges(v)
        weights = [green(e.head, y) for e in edges]
        stop = float(domain.g) if v == y else 0.0
        total = stop + sum(weights)
        u = rng.random() * total
        if u < stop:
            return Bridge(x, y, tuple(path))
        u -= stop
        for e, w in zip(edges, weights):
            if u < w:
                path.append(e.id)
                v = e.head
                break
            u -= w
        else:
            for e, w in reversed(list(zip(edges, weights))):
                if w > 0:
                    path.append(e.id)
                    v = e.head
                    break


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


def test_doob_rows_match_the_per_step_expressions():
    """Each table row holds the floats the per-step walk computed, in
    out-edge order and with the same summation order."""
    singles, dk, d4 = _criterion_9_fixtures()
    for dom in [d for d, _, _ in singles] + [dk, d4]:
        green = green_function(dom)
        for y in dom.vertices:
            rows = _doob_table(dom, y)
            for v in dom.vertices:
                if green(v, y) <= 0.0:
                    assert v not in rows
                    continue
                edges = dom.out_edges(v)
                weights = [green(e.head, y) for e in edges]
                stop = float(dom.g) if v == y else 0.0
                assert rows[v][:3] == (
                    stop, stop + sum(weights),
                    tuple((w, e.id, e.head) for e, w in zip(edges, weights)))


def test_samplers_match_the_per_step_walk_draw_for_draw():
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
    """Every Doob row sums to one in exact arithmetic,
    delta(v, y) + (1/g) sum_e G(head e, y) = G(v, y); and the exact length
    law of the bridges up to a cap is at most 1 and grows with the cap."""
    green = green_function(dom, exact=True)
    for y in dom.vertices:
        rows = _doob_table(dom, y)
        for v in dom.vertices:
            if v not in rows:
                assert green.exact(v, y) == 0
                continue
            stop, _, moves, _ = rows[v]
            mass = Fraction(stop) + sum(green.exact(head, y)
                                        for _, _, head in moves)
            assert mass / (dom.g * green.exact(v, y)) == 1
    x = data.draw(st.sampled_from(dom.vertices))
    y = data.draw(st.sampled_from(dom.vertices))
    assume(green.exact(x, y) > 0)
    previous = Fraction(0)
    for cap in range(5):
        law = sum((bridge_probability_exact(dom, b, green)
                   for b in enumerate_bridges(dom, x, y, cap)), Fraction(0))
        assert previous <= law <= 1
        previous = law
