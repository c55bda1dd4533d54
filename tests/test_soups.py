import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from loopsoup import (Domain, FieldSampler, build_graph, enumerate_loops,
                      forget_orientation, green_function, merge_soups,
                      occupation_field, orient_randomly, restrict_soup,
                      sample_ct_soup, sample_ct_soup_by_discretization,
                      sample_oriented_soup, sample_unoriented_soup)
from loopsoup.rng import stream
from loopsoup.soups import SoupError


@pytest.fixture(scope="module")
def self_edge_catalog(self_edge_domain):
    g, dom = self_edge_domain
    return enumerate_loops(dom, 10)


def test_poisson_ratio_formula(self_edge_catalog):
    """P(counts)/P(all zero) = prod (p/J)^u / u! at unit intensity, verified
    against the empirical joint law on the one-vertex catalog."""
    cat = self_edge_catalog
    rng = stream(1, "ratio")
    n = 200000
    counts = Counter()
    for _ in range(n):
        s = sample_oriented_soup(cat, 1.0, rng, method="per-class")
        counts[tuple(sorted(s.counts.items()))] += 1
    p0 = counts[()] / n
    for key, c in counts.most_common(8):
        if not key:
            continue
        expected = p0
        for k, u in key:
            cls = cat.by_key[k]
            expected *= float(cls.mass) ** u / math.factorial(u)
        se = math.sqrt(c) / n * 3 + 3 * math.sqrt(counts[()]) / n
        assert abs(c / n - expected) < max(5e-3, se)


def test_empty_soup_probability(self_edge_catalog):
    cat = self_edge_catalog
    rng = stream(2, "void")
    alpha = 0.25
    n = 100000
    empty = sum(1 for _ in range(n)
                if not sample_oriented_soup(cat, alpha, rng).counts)
    target = math.exp(-alpha * float(cat.total_mass))
    se = math.sqrt(n * target * (1 - target))
    assert abs(empty - n * target) < 3 * se


def test_count_independence(triangle_catalogs):
    cat, _ = triangle_catalogs
    keys = [cat.classes[0].key, cat.classes[1].key]
    rng = stream(3, "indep")
    n = 100000
    a = np.zeros(n)
    b = np.zeros(n)
    for i in range(n):
        s = sample_oriented_soup(cat, 1.0, rng, method="per-class")
        a[i] = s.counts.get(keys[0], 0)
        b[i] = s.counts.get(keys[1], 0)
    cov = np.cov(a, b)[0, 1]
    se = a.std() * b.std() / math.sqrt(n)
    assert abs(cov) < 3 * se + 1e-4


def test_categorical_matches_per_class(triangle_catalogs):
    cat, _ = triangle_catalogs
    n = 60000
    r1, r2 = stream(4, "cat"), stream(5, "perclass")
    c1 = Counter(tuple(sorted(sample_oriented_soup(cat, 1.0, r1,
                                                   "categorical").counts.items()))
                 for _ in range(n))
    c2 = Counter(tuple(sorted(sample_oriented_soup(cat, 1.0, r2,
                                                   "per-class").counts.items()))
                 for _ in range(n))
    keys = set(c1) | set(c2)
    tv = 0.5 * sum(abs(c1.get(k, 0) - c2.get(k, 0)) for k in keys) / n
    assert tv < 0.02


def test_forget_orientation_law(triangle_catalogs):
    """Forgetting orientation of an alpha-soup gives the c = 2 alpha law."""
    cat, ucat = triangle_catalogs
    n = 100000
    r1, r2 = stream(6, "forget"), stream(7, "direct")
    c1 = Counter()
    for _ in range(n):
        s = forget_orientation(sample_oriented_soup(cat, 0.5, r1))
        c1[tuple(sorted(s.counts.items()))] += 1
    c2 = Counter()
    for _ in range(n):
        s = sample_unoriented_soup(ucat, 1.0, r2)
        c2[tuple(sorted(s.counts.items()))] += 1
    keys = set(c1) | set(c2)
    tv = 0.5 * sum(abs(c1.get(k, 0) - c2.get(k, 0)) for k in keys) / n
    assert tv < 0.01


def test_orient_randomly_law(triangle_catalogs):
    """Re-orienting a c-soup gives the alpha = c/2 oriented law."""
    cat, ucat = triangle_catalogs
    n = 100000
    r1, r2 = stream(8, "orient"), stream(9, "direct-o")
    c1 = Counter()
    for _ in range(n):
        s = orient_randomly(sample_unoriented_soup(ucat, 1.0, r1), r1)
        c1[tuple(sorted(s.counts.items()))] += 1
    c2 = Counter()
    for _ in range(n):
        s = sample_oriented_soup(cat, 0.5, r2)
        c2[tuple(sorted(s.counts.items()))] += 1
    keys = set(c1) | set(c2)
    tv = 0.5 * sum(abs(c1.get(k, 0) - c2.get(k, 0)) for k in keys) / n
    assert tv < 0.01


def test_round_trip_and_noop(triangle_catalogs):
    cat, ucat = triangle_catalogs
    rng = stream(10, "rt")
    for _ in range(200):
        s = sample_oriented_soup(cat, 1.0, rng)
        assert forget_orientation(s).n_loops == s.n_loops
        u = sample_unoriented_soup(ucat, 1.0, rng)
        o = orient_randomly(u, rng)
        back = forget_orientation(o)
        assert back.counts == u.counts   # forget is a left inverse pointwise
    # a reversal-symmetric class has a single preimage: the coin is a no-op
    sym = next(c for c in ucat.classes if len(c.oriented_keys) == 1)
    from loopsoup.soups import LoopSoup
    u = LoopSoup(ucat, {sym.key: 3}, "c", 1.0)
    o = orient_randomly(u, rng)
    assert o.counts == {sym.oriented_keys[0]: 3}


def test_orientation_coin_is_fair(triangle_catalogs):
    cat, ucat = triangle_catalogs
    tri = next(c for c in ucat.classes if len(c.oriented_keys) == 2)
    from loopsoup.soups import LoopSoup
    rng = stream(11, "coin")
    n = 100000
    heads = 0
    for _ in range(n):
        o = orient_randomly(LoopSoup(ucat, {tri.key: 1}, "c", 1.0), rng)
        heads += o.counts.get(tri.oriented_keys[0], 0)
    assert abs(heads - n / 2) < 3 * math.sqrt(n * 0.25)


def test_poisson_additivity(triangle_catalogs):
    cat, _ = triangle_catalogs
    n = 60000
    r1, r2 = stream(12, "a"), stream(13, "b")
    c1 = Counter()
    for _ in range(n):
        s = merge_soups(sample_oriented_soup(cat, 0.4, r1),
                        sample_oriented_soup(cat, 0.6, r1))
        c1[tuple(sorted(s.counts.items()))] += 1
    c2 = Counter(tuple(sorted(sample_oriented_soup(cat, 1.0, r2).counts.items()))
                 for _ in range(n))
    keys = set(c1) | set(c2)
    tv = 0.5 * sum(abs(c1.get(k, 0) - c2.get(k, 0)) for k in keys) / n
    assert tv < 0.02


def test_restriction_is_exact_thinning(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    sub = cat.domain.without_vertices([3])
    subcat = enumerate_loops(sub, cat.L_max, "oriented", unoriented=ug)
    # classes inside the subdomain carry identical masses in both catalogs
    for cls in subcat.classes:
        assert cat.by_key[cls.key].mass == cls.mass
    rng = stream(14, "thin")
    for _ in range(300):
        s = sample_oriented_soup(cat, 1.0, rng)
        r = restrict_soup(s, sub, subcat)
        for k in r.counts:
            assert cat.vertex_sets[k] <= sub.vertex_set


def test_occupation_field_basics(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, ucat = triangle_catalogs
    from loopsoup.soups import LoopSoup
    empty = occupation_field(LoopSoup(cat, {}, "alpha", 1.0))
    assert empty.edge_jumps == {}
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    e21 = inv(e12)
    key = tuple(sorted(((e12, e21), (e21, e12)))[0])
    from loopsoup import canonicalize_oriented
    cls = canonicalize_oriented(g, (e12, e21))
    f = occupation_field(LoopSoup(cat, {cls.key: 1}, "alpha", 1.0))
    assert f.edge_jumps[e12] == 1 and f.edge_jumps[e21] == 1
    pair = f.oriented_pairs[ug.edge_class(e12)]
    assert tuple(sorted(pair)) == (1, 1)
    ucls = next(c for c in ucat.classes if c.n == 2
                and ug.edge_class(c.key[0]) == ug.edge_class(e12))
    fu = occupation_field(LoopSoup(ucat, {ucls.key: 1}, "c", 1.0))
    assert fu.edge_jumps[ug.edge_class(e12)] == 2


def test_in_equals_out_every_sample(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    rng = stream(15, "flow")
    for _ in range(500):
        s = sample_oriented_soup(cat, 1.0, rng)
        flow = occupation_field(s).vertex_flow(g)
        for v, (i, o) in flow.items():
            assert i == o


def test_oriented_jump_expectation(k5, triangle_catalogs):
    """E[jumps along e: x->y] = alpha G(y, x) / g, within 3 sigma + tail."""
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    dom = cat.domain
    green = green_function(dom)
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    fs = FieldSampler(cat, [(e12,)], [1])
    rng = stream(16, "ejump")
    n = 200000
    jumps, _, _ = fs.sample(1.0, n, rng)
    lam = dom.spectral_radius()
    tail = dom.size * lam ** (cat.L_max + 1) / (1 - lam)
    target = green(2, 1) / dom.g
    se = jumps[:, 0].std(ddof=1) / math.sqrt(n)
    assert abs(jumps[:, 0].mean() - target) <= 3 * se + tail


def test_ct_soup_structure(triangle_catalogs):
    cat, _ = triangle_catalogs
    rng = stream(17, "ct")
    ct = sample_ct_soup(cat, 0.5, rng)
    for key, occs in ct.holding_times.items():
        n = cat.by_key[key].n
        assert all(len(arr) == n and (arr > 0).all() for arr in occs)
    assert set(ct.trivial_field) == set(cat.domain.vertices)


def test_ct_mean_occupation(triangle_catalogs):
    """E[site time] = alpha G(x,x) / g, trivial and loop parts combined."""
    cat, _ = triangle_catalogs
    dom = cat.domain
    green = green_function(dom)
    fs = FieldSampler(cat, [], [1])
    rng = stream(18, "ctmean")
    n = 200000
    alpha = 1.0
    _, _, times = fs.sample(alpha, n, rng)
    lam = dom.spectral_radius()
    tail = alpha * dom.size * lam ** (cat.L_max + 1) / ((1 - lam) * dom.g)
    target = alpha * green(1, 1) / dom.g
    se = times[:, 0].std(ddof=1) / math.sqrt(n)
    assert abs(times[:, 0].mean() - target) <= 3 * se + tail


def test_fieldsampler_matches_explicit_ct(triangle_catalogs):
    """The Gamma(visits + shape) shortcut agrees with summing exponentials."""
    cat, _ = triangle_catalogs
    rng = stream(19, "explicit")
    n = 30000
    direct = np.empty(n)
    for i in range(n):
        ct = sample_ct_soup(cat, 0.5, rng)
        direct[i] = ct.site_times().get(1, 0.0)
    fs = FieldSampler(cat, [], [1])
    _, _, times = fs.sample(0.5, n, stream(20, "fast"))
    ks = sps.ks_2samp(direct, times[:, 0]).statistic
    assert ks < 0.015


def test_discretization_m1_matches_augmented_catalog(self_edge_domain):
    """At M = 1 the discretization is the discrete soup on the augmented
    graph with unit-time steps; compare jump+time laws computed both ways."""
    g, dom = self_edge_domain
    cat = enumerate_loops(dom, 9)
    rng = stream(21, "disc")
    n = 50000
    jumps = np.empty(n)
    times = np.empty(n)
    for i in range(n):
        ct = sample_ct_soup_by_discretization(cat, 1.0, 1, rng)
        jumps[i] = ct.jump_soup.total_steps()
        times[i] = ct.site_times().get(0, 0.0)
    # augmented graph: one extra stationary self-edge, g = 3
    g2 = build_graph(2, [(0, 0, 0), (1, 0, 1), (4, 0, 0, True),
                         (2, 1, 1), (3, 1, 1), (5, 1, 1)])
    dom2 = Domain(g2, [0])
    cat2 = enumerate_loops(dom2, 14)
    rng2 = stream(22, "aug")
    jumps2 = np.empty(n)
    times2 = np.empty(n)
    for i in range(n):
        s = sample_oriented_soup(cat2, 1.0, rng2)
        total = s.total_steps()
        real = sum(c * sum(1 for eid in k if eid != 4)
                   for k, c in s.counts.items())
        jumps2[i] = real
        times2[i] = total
    # jump law along the original self-edge is M-independent
    ja = Counter(jumps.astype(int).tolist())
    jb = Counter(jumps2.astype(int).tolist())
    keys = set(ja) | set(jb)
    tv = 0.5 * sum(abs(ja.get(k, 0) - jb.get(k, 0)) for k in keys) / n
    assert tv < 0.02
    ks = sps.ks_2samp(times, times2).statistic
    assert ks < 0.015


def test_discretization_converges_to_direct(triangle_catalogs):
    cat, _ = triangle_catalogs
    n = 40000
    rng = stream(23, "m64")
    m64 = np.empty(n)
    for i in range(n):
        ct = sample_ct_soup_by_discretization(cat, 0.5, 64, rng)
        m64[i] = ct.site_times().get(1, 0.0)
    fs = FieldSampler(cat, [], [1])
    _, _, times = fs.sample(0.5, n, stream(24, "direct-ct"))
    se = math.sqrt(m64.var() / n + times[:, 0].var() / n)
    # M-discretization biases each holding time up by O(1/M)
    assert abs(m64.mean() - times[:, 0].mean()) < 3 * se + 2.0 / 64


def test_trivial_field_gamma_vs_discretization(self_edge_domain):
    """Zero catalog: occupation is the trivial field alone.  The direct
    Gamma(alpha, 1/g) draw is validated against the purely-stationary
    negative-binomial limit of the discretization sampler: matching first two
    moments at alpha = 1/2 (where the density blows up at zero, so KS against
    a 1/M lattice converges too slowly to test directly) and matching KS at
    alpha = 1 where the limit density is bounded."""
    g, dom = self_edge_domain
    cat0 = enumerate_loops(dom, 0)
    assert len(cat0) == 0
    n = 50000
    rng = stream(25, "gamma")
    direct = np.array([sample_ct_soup(cat0, 0.5, rng).trivial_field[0]
                       for _ in range(n)])
    ks_gamma = sps.kstest(direct, sps.gamma(a=0.5, scale=1 / dom.g).cdf).statistic
    assert ks_gamma < 0.01
    rng2 = stream(26, "nb")
    M = 512
    disc = np.array([sample_ct_soup_by_discretization(cat0, 0.5, M, rng2)
                     .trivial_field[0] for _ in range(n)])
    se = math.sqrt(direct.var() / n + disc.var() / n)
    assert abs(direct.mean() - disc.mean()) < 3 * se + 1.0 / M
    sev = math.sqrt(2.0 * (direct.var() ** 2 + disc.var() ** 2) / n)
    assert abs(direct.var() - disc.var()) < 3 * sev + 1.0 / M
    d1 = np.array([sample_ct_soup(cat0, 1.0, rng).trivial_field[0]
                   for _ in range(n)])
    disc1 = np.array([sample_ct_soup_by_discretization(cat0, 1.0, M, rng2)
                      .trivial_field[0] for _ in range(n)])
    assert sps.ks_2samp(d1, disc1).statistic < 0.02


def test_soup_errors(triangle_catalogs):
    cat, ucat = triangle_catalogs
    rng = stream(27, "err")
    with pytest.raises(SoupError):
        sample_oriented_soup(ucat, 1.0, rng)
    with pytest.raises(SoupError):
        sample_unoriented_soup(cat, 1.0, rng)
    with pytest.raises(SoupError):
        sample_oriented_soup(cat, 0.0, rng)


class _TopUniform:
    """A generator whose uniform draws are all the largest double below 1."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_fieldsampler_top_uniform_draws_last_class():
    """A uniform draw just below 1 selects the last class, even on a catalog
    whose float masses sum above their cumulative sum's last entry."""
    from loopsoup import complete_graph
    cat = enumerate_loops(Domain(complete_graph(6), [1, 2, 3]), 6, "oriented")
    masses, cum = cat.mass_arrays()
    assert masses.sum() > cum[-1]
    fs = FieldSampler(cat, [], [1])
    totals = np.random.default_rng(0).poisson(float(cum[-1]), size=50)
    _, visits, _ = fs.sample(1.0, 50, _TopUniform(0), with_times=False)
    last = cat.visits[cat.classes[-1].key].get(1, 0)
    assert visits[:, 0].tolist() == (totals * last).tolist()
