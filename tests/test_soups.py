import math
from collections import Counter

import numpy as np
import pytest

from loopsoup import (Domain, FieldSampler, enumerate_loops,
                      forget_orientation, green_function, merge_soups,
                      orient_randomly, restrict_soup, sample_oriented_soup,
                      sample_unoriented_soup)
from loopsoup.loops import loop_vertices
from loopsoup.rng import stream
from loopsoup.soups import ROW_CHUNK, SoupError, soup_count_rows
from loopsoup.verify import (CHI2_SIGNIFICANCE, laplace_points,
                             laplace_pvalues)


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
        s = sample_oriented_soup(cat, 1.0, rng)
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
        s = sample_oriented_soup(cat, 1.0, rng)
        a[i] = s.counts.get(keys[0], 0)
        b[i] = s.counts.get(keys[1], 0)
    cov = np.cov(a, b)[0, 1]
    se = a.std() * b.std() / math.sqrt(n)
    assert abs(cov) < 3 * se + 1e-4


@pytest.mark.parametrize("mode", ["oriented", "unoriented"])
def test_row_sampler_matches_one_soup_draws(triangle_catalogs, mode):
    """Rows equal the soups of direct numpy calls, chunk by chunk across a
    chunk boundary: one Poisson call for the totals, then one uniform call
    for the class draws, searched in the cumulative masses.  They leave the
    generator where those calls leave it, and one soup is the one-row case."""
    cat = triangle_catalogs[mode == "unoriented"]
    sampler = (sample_oriented_soup if mode == "oriented"
               else sample_unoriented_soup)
    cum = cat.mass_arrays()[1]

    def reference(rng, n):
        out = []
        for start in range(0, n, ROW_CHUNK):
            totals = rng.poisson(0.7 * cum[-1], size=min(ROW_CHUNK, n - start))
            idx = np.searchsorted(cum[:-1], rng.random(totals.sum()) * cum[-1],
                                  side="right").tolist()
            for t in totals.tolist():
                out.append(dict(Counter(cat.classes[i].key for i in idx[:t])))
                idx = idx[t:]
        return out

    n = ROW_CHUNK + 37
    r1, r2, r3, r4 = (stream(8, "rows") for _ in range(4))
    rows = list(soup_count_rows(cat, mode, 0.7, n, r1))
    assert rows == reference(r2, n)
    assert 0 < sum(map(bool, rows)) < n
    assert r1.random() == r2.random()
    singles = [sampler(cat, 0.7, r3).counts for _ in range(50)]
    assert singles == [reference(r4, 1)[0] for _ in range(50)]
    assert 0 < sum(map(bool, singles)) < 50
    assert r3.random() == r4.random()


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
    u = LoopSoup(ucat, {sym.key: 3})
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
        o = orient_randomly(LoopSoup(ucat, {tri.key: 1}), rng)
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
            assert set(loop_vertices(g, k)) <= sub.vertex_set


def test_occupation_field_basics(k5, triangle_catalogs):
    """FieldSampler's class rows: the 2-cycle 1 -> 2 -> 1 jumps once along
    each of its edges and visits sites 1 and 2 once, and its unoriented
    class jumps twice across the unoriented edge 1-2."""
    g, inv, ug = k5
    cat, ucat = triangle_catalogs
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    e21 = inv(e12)
    fs = FieldSampler(cat, [(e12,), (e21,)], [1, 2, 3])
    i = next(i for i, c in enumerate(cat.classes)
             if sorted(c.key) == sorted((e12, e21)))
    assert fs.class_jumps[i].tolist() == [1, 1]
    assert fs.class_visits[i].tolist() == [1, 1, 0]
    ufs = FieldSampler(ucat, [ug.edge_class(e12)], [1, 2, 3])
    j = next(j for j, c in enumerate(ucat.classes) if c.n == 2
             and ug.edge_class(c.key[0]) == ug.edge_class(e12))
    assert ufs.class_jumps[j].tolist() == [2]
    assert ufs.class_visits[j].tolist() == [1, 1, 0]


def test_in_equals_out_every_sample(k5, triangle_catalogs):
    """Every sampled soup jumps into each vertex as often as out of it,
    counted off its class keys."""
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    rng = stream(15, "flow")
    for _ in range(500):
        s = sample_oriented_soup(cat, 1.0, rng)
        net = Counter()
        for key, cnt in s.counts.items():
            for eid in key:
                net[g.edge_by_id[eid].head] += cnt
                net[g.edge_by_id[eid].tail] -= cnt
        assert not any(net.values())


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
    """FieldSampler's rescaled site times follow their exact joint Laplace
    transform at every lejan point (alpha = 1/2, l_max 8)."""
    cat, _ = triangle_catalogs
    dom = cat.domain
    fs = FieldSampler(cat, [], dom.vertices)
    _, _, times = fs.sample(0.5, 30000, stream(20, "fast"))
    pvals = laplace_pvalues(fs, 0.5, times * dom.g, laplace_points(dom.size))
    assert min(pvals) > CHI2_SIGNIFICANCE / len(pvals)


@pytest.mark.parametrize("where, l_max", [
    ("self_edge", 4), ("self_edge", 9), ("self_edge", 20), ("triangle", 8),
    ("triangle", 12)])
def test_laplace_transform_within_omitted_mass(request, k5, where, l_max):
    """0 <= L(lam) - det(I + G Lam)^-alpha <= alpha * (omitted mu-mass) at
    every lejan point, for alpha 1/2 and 1.  On the self-edge domain every
    class is a run of stationary self-jumps, so this fixes the convention
    that each such jump is a visit.  The unoriented catalog at c = 2 alpha
    gives the same transform."""
    if where == "self_edge":
        dom = request.getfixturevalue("self_edge_domain")[1]
        cat = enumerate_loops(dom, l_max)
    else:
        dom = request.getfixturevalue("triangle_domain")
        cat = enumerate_loops(dom, l_max, unoriented=k5[2])
    I = np.eye(dom.size)
    omitted = (-np.linalg.slogdet(I - dom.transition_matrix())[1]
               - float(cat.total_mass))
    lam = laplace_points(dom.size)
    det = np.linalg.det(I + green_function(dom).values * lam[:, None, :])
    fs = FieldSampler(cat, [], dom.vertices)
    for alpha in (0.5, 1.0):
        gap = fs.laplace(alpha, lam) - det ** -alpha
        assert (gap >= -1e-12).all() and (gap <= alpha * omitted + 1e-12).all()
        if where == "triangle":
            ufs = FieldSampler(cat.counterpart(), [], dom.vertices)
            assert np.allclose(ufs.laplace(2 * alpha, lam),
                               fs.laplace(alpha, lam), rtol=1e-12, atol=0)


def test_trivial_field_gamma_laplace(self_edge_domain):
    """Zero catalog: the occupation is the trivial field alone,
    Gamma(alpha, 1/g), whose transform is (1 + lam)^-alpha; tested at
    alpha 1/2 (where the density blows up at zero) and 1."""
    g, dom = self_edge_domain
    cat0 = enumerate_loops(dom, 0)
    assert len(cat0) == 0
    fs = FieldSampler(cat0, [], [0])
    lam = laplace_points(1)
    rng = stream(25, "gamma")
    for alpha in (0.5, 1.0):
        assert np.allclose(fs.laplace(alpha, lam), (1 + lam[:, 0]) ** -alpha,
                           rtol=1e-15, atol=0)
        _, _, times = fs.sample(alpha, 50000, rng)
        pvals = laplace_pvalues(fs, alpha, times * dom.g, lam)
        assert min(pvals) > CHI2_SIGNIFICANCE / len(pvals)




def test_soup_errors(triangle_catalogs):
    cat, ucat = triangle_catalogs
    rng = stream(27, "err")
    with pytest.raises(SoupError):
        sample_oriented_soup(ucat, 1.0, rng)
    with pytest.raises(SoupError):
        sample_unoriented_soup(cat, 1.0, rng)
    with pytest.raises(SoupError):
        sample_oriented_soup(cat, 0.0, rng)
    with pytest.raises(SoupError):
        soup_count_rows(ucat, "unoriented", -1.0, 10, rng)
    # every check runs before anything is drawn
    assert rng.random() == stream(27, "err").random()


def test_class_sums_match_soup_by_soup_draws(triangle_catalogs):
    """class_sums draws the uniforms of all soups in one call; the sums, and
    the generator's state after them, are those of one call per soup."""
    cat, _ = triangle_catalogs
    fs = FieldSampler(cat, [], [1, 2])
    cum = cat.mass_arrays()[1]
    total = float(cum[-1])
    ref = stream(41, "sums")
    expected = []
    for k in ref.poisson(0.7 * total, size=300).tolist():
        idx = np.searchsorted(cum[:-1], ref.random(k) * total, side="right")
        expected.append(fs.class_visits[idx].sum(axis=0).tolist())
    rng = stream(41, "sums")
    assert fs.class_sums(fs.class_visits, 0.7, 300, rng).tolist() == expected
    assert rng.random() == ref.random()


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
    _, visits, _ = fs.sample(1.0, 50, _TopUniform(0))
    last = loop_vertices(cat.domain.graph, cat.classes[-1].key).count(1)
    assert visits[:, 0].tolist() == (totals * last).tolist()
