import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, build_graph, green_function, occupation_law,
                      tv_distance)
from loopsoup.bridges import pairing_weights, permutation_weights
from loopsoup.cli import markov_edge_partition
from loopsoup.config import build_workspace, config_from_dict
from loopsoup.exact import (OracleError, _binomial_series, _det, _mul,
                            conditional_multiset_law, unordered_bridge_law,
                            z_bridge_law)
from loopsoup.rng import stream
from loopsoup.verify import ExcursionCut


def _graded(coeffs: dict, cap: int) -> dict:
    """Coefficients keyed by exponent tuples as a series on the window of
    one part bounded by cap: buckets (total degree,), each monomial packed
    one byte per variable."""
    out: dict = {}
    for m, c in coeffs.items():
        if c:
            out.setdefault((sum(m),), {})[
                sum(e << 8 * j for j, e in enumerate(m))] = c
    return out


def _ungraded(series: dict, nvars: int, denominator: int = 1) -> dict:
    return {tuple(code.to_bytes(nvars, "little")): Fraction(c, denominator)
            for terms in series.values() for code, c in terms.items()}


def _poly_mul(a: dict, b: dict, cap=None) -> dict:
    """Reference product on exponent-tuple dicts, truncated when `cap` is set."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if cap is None or sum(m) <= cap:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_series_algebra():
    cap = 4
    p = {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2}        # (1 + x)(1 + 2y)
    window = (cap,)
    assert _ungraded(_mul(_graded({(0, 0): 1, (1, 0): 1}, cap),
                          _graded({(0, 0): 1, (0, 1): 2}, cap), window),
                     2) == p
    gp = _graded(p, cap)
    q = _mul(_mul(gp, gp, window), gp, window)
    full = _poly_mul(_poly_mul(p, p), p)
    assert max(map(sum, full)) == 6
    assert sorted(q) == [(d,) for d in range(cap + 1)]
    assert _ungraded(q, 2) == {m: c for m, c in full.items() if sum(m) <= cap}
    x = _graded({(1,): 1}, cap)
    # (1+x)^{-1/2} = 1 - x/2 + 3x^2/8 - ...
    F, denominator = _binomial_series(x, 1, Fraction(-1, 2), window)
    s = _ungraded(F, 1, denominator)
    assert s[(1,)] == Fraction(-1, 2)
    assert s[(2,)] == Fraction(3, 8)
    # the same series at x/2
    F, denominator = _binomial_series(x, 2, Fraction(-1, 2), window)
    assert _ungraded(F, 1, denominator)[(2,)] == Fraction(3, 32)
    with pytest.raises(OracleError):
        _binomial_series(_graded({(0,): 1}, cap), 1, Fraction(1, 2), window)


def _power_expansion(u, exponent, nvars, cap):
    """Reference (1 + u)^exponent: sum_k C(exponent, k) u^k, one truncated
    product per power of u."""
    one = (0,) * nvars
    out = {one: Fraction(1)}
    power = {one: Fraction(1)}
    coef = Fraction(1)
    for k in range(1, cap + 1):
        coef *= (exponent - (k - 1)) / k
        power = _poly_mul(power, u, cap)
        for m, c in power.items():
            out[m] = out.get(m, 0) + coef * c
    return {m: c for m, c in out.items() if c}


@st.composite
def _integer_series(draw):
    """(nvars, cap, U, Q): an integer series U without constant term, Q >= 1."""
    nvars = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 6))
    # a monomial of degree 1..cap is a multiset of variable indices
    monomials = st.lists(st.integers(0, nvars - 1), min_size=1,
                         max_size=cap).map(
        lambda idx: tuple(idx.count(j) for j in range(nvars)))
    U = draw(st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                             max_size=5))
    return nvars, cap, U, draw(st.integers(1, 7))


EXPONENTS = st.sampled_from([Fraction(-1, 2), Fraction(-1), Fraction(-3, 2),
                             Fraction(1, 2), Fraction(2)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_integer_series(), EXPONENTS, EXPONENTS)
def test_binomial_series_property(series, a, b):
    """The graded recurrence equals the power expansion, and the powers
    multiply: (1+u)^a (1+u)^b = (1+u)^(a+b)."""
    nvars, cap, U, Q = series
    u = {m: Fraction(c, Q) for m, c in U.items()}

    def power(e):
        F, denominator = _binomial_series(_graded(U, cap), Q, e, (cap,))
        return _ungraded(F, nvars, denominator)

    fa = power(a)
    assert fa == _power_expansion(u, a, nvars, cap)
    assert _poly_mul(fa, power(b), cap) == power(a + b)


def _leibniz(mat):
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]]
                                                for i in range(n))
    return total


@st.composite
def _linear_matrices(draw):
    """(nvars, cap, entries): an n x n matrix, n <= 4 <= cap, of integer
    entries c_0 + c_1 x_1 + ... given as coefficient lists."""
    n = draw(st.integers(1, 4))
    nvars = draw(st.integers(1, 3))
    cap = draw(st.integers(n, n + 2))
    coeff = st.integers(-3, 3)
    return nvars, cap, [[[draw(coeff) for _ in range(nvars + 1)]
                         for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_linear_matrices())
def test_det_coefficient_sum(case):
    """Below the cap the determinant is exact, so its coefficient sum (the
    value at x = 1) is the determinant of the entries' values at x = 1."""
    nvars, cap, entries = case
    one = (0,) * nvars
    unit = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    mat = [[_graded({one: e[0], **dict(zip(unit, e[1:]))}, cap) for e in row]
           for row in entries]
    det = _det(mat, (cap,))
    assert all(d <= cap for (d,) in det)
    assert sum(c for part in det.values() for c in part.values()) == \
        _leibniz([[sum(e) for e in row] for row in entries])


def test_occupation_law_self_edge():
    """Frozen against the closed form: the jump count on the lone self-edge
    of a half-leaky vertex has rational part C(2n, n) 8^{-n} at c = 1."""
    g = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    dom = Domain(g, [0])
    law = occupation_law(dom, [(0,)], Fraction(1, 2), 10)
    for n in range(6):
        assert law.weights[(n,)] == Fraction(math.comb(2 * n, n), 8 ** n)
    assert abs(law.scalar - 2 ** -0.5) < 1e-12
    assert abs(law.probability((0,)) - 2 ** -0.5) < 1e-12


def test_occupation_law_two_vertex_even():
    """Two vertices joined by one unoriented edge, each half-leaky: the
    unoriented jump count is even with rational part C(2k, k) 16^{-k}."""
    g = build_graph(4, [(0, 0, 1), (1, 1, 0), (2, 0, 2), (3, 1, 3),
                        (4, 2, 2), (5, 2, 2), (6, 3, 3), (7, 3, 3)])
    dom = Domain(g, [0, 1])
    law = occupation_law(dom, [(0, 1)], Fraction(1, 2), 11)
    for k in range(5):
        assert law.weights[(2 * k,)] == Fraction(math.comb(2 * k, k), 16 ** k)
        assert (2 * k + 1,) not in law.weights
    assert abs(law.scalar - (3 / 4) ** 0.5) < 1e-12


def test_occupation_law_refuses_counts_it_did_not_compute():
    """A count vector beyond the cap, or outside the window of a windowed
    law, was not computed: its probability is an error, not 0.0.  On the
    self-edge law of cap 10 the count 11 has probability
    2^{-1/2} C(22, 11) 8^{-11}, about 5.8e-5.  On two vertices, each
    orientation of their edge its own variable, the count (4, 0) is
    impossible: the full law of cap 6 says 0.0, the law on the window of 3
    jumps each way refuses it."""
    g = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    law = occupation_law(Domain(g, [0]), [(0,)], Fraction(1, 2), 10)
    assert law.probability((10,)) == pytest.approx(
        2 ** -0.5 * math.comb(20, 10) / 8 ** 10, rel=1e-12)
    with pytest.raises(OracleError, match="outside the window"):
        law.probability((11,))
    g = build_graph(4, [(0, 0, 1), (1, 1, 0), (2, 0, 2), (3, 1, 3),
                        (4, 2, 2), (5, 2, 2), (6, 3, 3), (7, 3, 3)])
    dom = Domain(g, [0, 1])
    full = occupation_law(dom, [(0,), (1,)], Fraction(1, 2), 6)
    law = occupation_law(dom, [(0,), (1,)], Fraction(1, 2), 6,
                         window=(((0,), 3), ((1,), 3)))
    assert law.weights == {n: w for n, w in full.weights.items()
                           if max(n) <= 3}
    assert law.probability((3, 3)) == full.probability((3, 3)) > 0
    assert full.probability((4, 0)) == 0.0
    for n in ((4, 0), (0, 4), (3, 4), (7, 0)):
        with pytest.raises(OracleError, match="outside the window"):
            law.probability(n)
    for window in ((((0,), 3),), (((0, 1), 3), ((1,), 3)),
                   (((0,), 3), ((1,), 2))):
        with pytest.raises(OracleError, match="partition"):
            occupation_law(dom, [(0,), (1,)], Fraction(1, 2), 6, window=window)
    # one byte packs an exponent
    with pytest.raises(OracleError, match="outside 0..255"):
        occupation_law(dom, [(0,), (1,)], Fraction(1, 2), 256)


def _weights_digest(law) -> str:
    return hashlib.sha256(repr(sorted(law.weights.items())).encode()).hexdigest()


@pytest.mark.parametrize("graph, domain, oriented, exponent, cap, terms, digest", [
    ("grid:2x3", "0 1 2 3 4", False, Fraction(1, 2), 12, 12750,
     "dada10a5d7c7c29cec46ddc6b4d3a7f3d684ec2b655ea882f34a6590bd140873"),
    ("grid:3x3", "0 1 2 3 4 5 6 7", True, Fraction(1), 6, 22328,
     "795a7dd1ef08f2730122323797a43750fbc7aee97e18aaea1902c2036a80be9e"),
])
def test_occupation_law_weights_are_pinned(graph, domain, oriented, exponent,
                                           cap, terms, digest):
    """The law on the default window, every total degree <= cap, is pinned
    by the sha256 of its sorted (count vector, Fraction) pairs: the c = 1
    law of golden_occupation's grid and the oriented law of grid:3x3 minus
    a corner (30 variables)."""
    ws = build_workspace(config_from_dict({
        "graph": graph, "domain": domain, "jobs": "occupation-markov",
        "seed": "0", "f1": "0 1"}))
    groups = markov_edge_partition(ws, oriented)[0]
    law = occupation_law(ws.domain, groups, exponent, cap)
    assert len(law.weights) == terms
    assert _weights_digest(law) == digest


def test_occupation_law_matches_sampler(triangle_catalogs, k5):
    """The generating-function law agrees with empirical soup sampling."""
    g, inv, ug = k5
    cat, ucat = triangle_catalogs
    dom = cat.domain
    classes = sorted(k for k in ug.edge_classes
                     if set(ug.class_endpoints(k)) <= dom.vertex_set)
    groups = [tuple(dict.fromkeys(k)) for k in classes]
    law = occupation_law(dom, groups, Fraction(1, 2), 10)
    from loopsoup import FieldSampler
    fs = FieldSampler(ucat, groups, [])
    rng = stream(40, "law")
    n = 100000
    jumps, _, _ = fs.sample(1.0, n, rng)     # c = 1
    emp = Counter(map(tuple, jumps))
    for vec, count in emp.most_common(6):
        p = law.probability(vec)
        se = math.sqrt(n * p * (1 - p))
        assert abs(count - n * p) < 3 * se + 1


def test_occupation_law_requires_tracking(triangle_domain):
    with pytest.raises(OracleError):
        occupation_law(triangle_domain, [], Fraction(1), 4)
    law = occupation_law(triangle_domain, [], Fraction(1), 4,
                         allow_marginal=True)
    assert law.weights == {(): Fraction(1)}


def test_unordered_bridge_law_normalizes(sharp_triangle):
    dom, cat, ucat = sharp_triangle
    sub = dom.without_vertices({1})
    configs, denominator = unordered_bridge_law(sub, (2, 3), (3, 2), 8)
    total = Fraction(sum(configs.values()), denominator)
    assert 0 < total <= 1
    assert 1 - total < 1e-3     # heavy leak: nearly all mass enumerated
    # probability of a configuration is g^{-K} / Z
    Z = sum(permutation_weights(green_function(sub, exact=True).exact,
                                (2, 3), (3, 2)).values())
    for joins, w in list(configs.items())[:20]:
        # the end of piece j (slot 2j+1) joins the start of piece sigma(j)
        assert [a for (a, _), _ in joins] == [1, 3]
        assert sorted(b for (_, b), _ in joins) == [0, 2]
        K = sum(len(p) for _, p in joins)
        assert Fraction(w, denominator) == Fraction(1, dom.g ** K) / Z


def test_z_bridge_law_accumulates_reversals(k5):
    """Self-return unoriented paths absorb both oriented representatives."""
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    configs, denominator = z_bridge_law(dom, (1, 1), inv, 4)
    # one bridge: weights are g^{-K} masses scaled by g^4, over g^4 Z
    assert denominator == 4 ** 4 * sum(pairing_weights(
        green_function(dom, exact=True).exact, (1, 1)).values())
    # the path 1-2-1 appears once with twice the single-orientation mass...
    # no: its reversal is itself through iota, mass g^{-2}; the path 1-2-3-1
    # and 1-3-2-1 merge into one unoriented key with mass 2 g^{-3}
    masses = {}
    for ((pair, path),), w in configs.items():
        assert pair == (0, 1)
        masses[path] = Fraction(w, 4 ** 4)
    two_step = [k for k in masses if len(k) == 2]
    three_step = [k for k in masses if len(k) == 3]
    for k in two_step:
        assert masses[k] == Fraction(1, 4 ** 2)
    for k in three_step:
        assert masses[k] == 2 * Fraction(1, 4 ** 3)


def test_conditional_multiset_law_single_class(sharp_triangle):
    dom, cat, ucat = sharp_triangle
    cands = ExcursionCut(cat, {1}, {2}).candidates
    key, mass, contrib, _ = cands[0]
    w = conditional_multiset_law(Fraction(1), cands, Counter(contrib))
    assert ((key, 1),) in w
    with pytest.raises(OracleError):
        conditional_multiset_law(Fraction(1), cands, Counter({("bogus",): 1}))


@pytest.mark.parametrize("intensity", [Fraction(0), Fraction(-1)])
def test_conditional_multiset_law_refuses_nonpositive_intensity(
        sharp_triangle, intensity):
    dom, cat, ucat = sharp_triangle
    cands = ExcursionCut(cat, {1}, {2}).candidates
    with pytest.raises(OracleError, match="positive"):
        conditional_multiset_law(intensity, cands, Counter(cands[0][2]))


def test_tv_distance():
    p = {"a": 0.5, "b": 0.5}
    q = {"a": 0.5, "b": 0.25, "c": 0.25}
    assert abs(tv_distance(p, q) - 0.25) < 1e-12
    assert tv_distance(p, p) == 0.0
