import hashlib
import inspect
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, GraphError, UnorientedGraph, build_graph,
                      canonicalize_oriented, canonicalize_unoriented,
                      complete_graph, cycle_graph, enumerate_loops,
                      pair_reversals, path_graph, regularize_degree, rho_mass,
                      tail_bound)
from loopsoup import loops
from loopsoup.cli import run
from loopsoup.config import config_from_dict
from loopsoup.loops import BudgetExceededError, InvalidLoopError, necklace


def frac_matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_rho_examples(self_edge_domain):
    g, dom = self_edge_domain
    assert rho_mass(g, (0,)) == Fraction(1, 2)
    g2 = build_graph(2, [(0, 0, 1), (1, 1, 0), (2, 0, 0), (3, 1, 1)])
    assert rho_mass(g2, (0, 1)) == Fraction(1, 8)       # (1/4) / 2
    g1 = build_graph(2, [(0, 0, 1), (1, 1, 0)])         # g = 1
    assert rho_mass(g1, (0, 1)) == Fraction(1, 2)


def test_rho_invalid_loop():
    g = build_graph(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    with pytest.raises(InvalidLoopError):
        rho_mass(g, (0, 0))
    with pytest.raises(InvalidLoopError):
        rho_mass(g, ())
    with pytest.raises(InvalidLoopError, match="edge 7 is not in the graph"):
        rho_mass(g, (7,))


def test_canonicalize_double_cover():
    g = build_graph(2, [(0, 0, 1), (1, 1, 0), (2, 0, 0), (3, 1, 1)])
    cls = canonicalize_oriented(g, (0, 1, 0, 1))
    assert cls.J == 2 and cls.n == 4
    assert cls.mass == Fraction(1, 2 ** 4 * 2)


def test_canonicalize_rotations_collapse():
    g = build_graph(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    keys = {canonicalize_oriented(g, rot).key
            for rot in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]}
    assert len(keys) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 11), st.integers(1, 3))
def test_rotation_invariance_property(n, shift, repeat):
    # an n-cycle repeated `repeat` times, rotated anywhere, canonicalizes alike
    g = build_graph(n, [(i, i, (i + 1) % n) for i in range(n)])
    base = tuple(range(n)) * repeat
    rot = base[shift % len(base):] + base[:shift % len(base)]
    a = canonicalize_oriented(g, base)
    b = canonicalize_oriented(g, rot)
    assert a == b
    assert a.J == repeat


def test_rho_mu_consistency_k3(triangle_catalogs, triangle_domain, k5):
    # sum of rho over the rooted representatives of a class equals mu(L),
    # and the representative count is n / J
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    for cls in cat.classes:
        if cls.n > 6:
            continue
        rots = {tuple(cls.key[i:] + cls.key[:i]) for i in range(cls.n)}
        assert len(rots) == cls.n // cls.J
        total = sum(rho_mass(g, r) for r in rots)
        assert total == cls.mass


def test_canonicalize_unoriented_cases(k5):
    g, inv, ug = k5
    # back-and-forth along one edge: equal to its own reversal
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    cls = canonicalize_unoriented(g, (e12, inv(e12)), inv)
    assert cls.J_tilde == 2
    assert cls.mass == Fraction(1, 4 ** 2 * 2)
    # directed triangle: reversal is a different oriented class
    e23 = next(e.id for e in g.edges if (e.tail, e.head) == (2, 3))
    e31 = next(e.id for e in g.edges if (e.tail, e.head) == (3, 1))
    tri = canonicalize_unoriented(g, (e12, e23, e31), inv)
    assert tri.J_tilde == 1
    assert len(tri.oriented_keys) == 2
    ori = canonicalize_oriented(g, (e12, e23, e31))
    assert tri.mass == ori.mass


def test_unoriented_self_edge_loop():
    g = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)])
    from loopsoup import Involution
    inv = Involution(g, {0: 0, 1: 2, 2: 1, 3: 3})
    cls = canonicalize_unoriented(g, (0,), inv)
    assert cls.J_tilde == 2


def test_reversal_invariance(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    for cls in list(cat.classes)[:80]:
        rev = inv.reverse_path(cls.key)
        assert canonicalize_unoriented(g, cls.key, inv) == \
               canonicalize_unoriented(g, rev, inv)


def test_p_equals_p_reversed(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    for cls in list(cat.classes)[:50]:
        assert len(inv.reverse_path(cls.key)) == cls.n


def test_trace_identity_k3_exact():
    # K3 regularized to g = 2 (already 2-regular), all three vertices
    g = complete_graph(3)
    dom = Domain(g, [0, 1, 2], allow_recurrent=True)
    P = dom.transition_matrix_exact()
    for L in (4, 6, 8):
        cat = enumerate_loops(dom, L)
        tot = Fraction(0)
        M = [row[:] for row in P]
        for n in range(1, L + 1):
            tot += Fraction(sum(M[i][i] for i in range(3)), n)
            M = frac_matmul(M, P)
        assert cat.total_mass == tot


def test_k_fold_self_loops(self_edge_domain):
    g, dom = self_edge_domain
    cat = enumerate_loops(dom, 6)
    masses = {c.n: c.mass for c in cat.classes}
    for k in range(1, 7):
        assert masses[k] == Fraction(1, 2 ** k * k)


def test_empty_catalog_below_girth(k5):
    g, inv, ug = k5
    dom = Domain(g, [1, 2, 3])
    cat = enumerate_loops(dom, 1)    # girth 2 without self-edges
    assert len(cat) == 0


def test_budget_exceeded(triangle_domain):
    with pytest.raises(BudgetExceededError):
        enumerate_loops(triangle_domain, 8, budget=3)


def test_tail_bound_examples(self_edge_domain):
    g, dom = self_edge_domain
    b = tail_bound(dom, 10)
    assert b <= 2 ** -10
    assert tail_bound(dom, 20) < tail_bound(dom, 10)
    # bound dominates the exact omitted mass (enumerate to twice the cap)
    cat10 = enumerate_loops(dom, 10)
    cat20 = enumerate_loops(dom, 20)
    omitted = float(cat20.total_mass - cat10.total_mass)
    assert omitted <= b


def test_tail_bound_monotone(triangle_domain):
    bounds = [tail_bound(triangle_domain, L) for L in (4, 8, 12, 16, 60)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    # at L_max 60 the tail, 3 sum_{n>60} lambda^n / n = 4.2e-20, lies far
    # below the rounding of -log(1 - lambda); the terms past 260 are < 1e-78
    lam = Fraction(triangle_domain.spectral_radius())
    exact = 3 * sum(lam ** n / n for n in range(61, 261))
    assert exact <= Fraction(bounds[-1]) <= exact * (1 + Fraction(1, 10 ** 9))


def test_tail_bound_dominates_omitted(self_edge_domain, triangle_domain):
    """0 <= -log det(I - P_D) - (catalog mass) <= tail_bound: the whole loop
    mass is -log det(I - P_D), and the bound is certified.  On path:4 padded
    to g = 3 the omitted mass is 0.472 of 3.296 at l_max 8."""
    path4 = Domain(regularize_degree(path_graph(4), 3), [0, 1, 2])
    cases = [(self_edge_domain[1], 4), (self_edge_domain[1], 9),
             (self_edge_domain[1], 20), (triangle_domain, 8),
             (triangle_domain, 12), (path4, 8)]
    for dom, l_max in cases:
        P = dom.transition_matrix()
        whole = -np.linalg.slogdet(np.eye(len(P)) - P)[1]
        omitted = whole - float(enumerate_loops(dom, l_max).total_mass)
        assert -1e-12 <= omitted <= tail_bound(dom, l_max) + 1e-12, (
            dom.vertices, l_max)


def test_catalog_export_jsonl(tmp_path, triangle_catalogs):
    import json
    cat, _ = triangle_catalogs
    p = tmp_path / "catalog.jsonl"
    cat.export_jsonl(p)
    lines = p.read_text().strip().split("\n")
    assert len(lines) == len(cat)
    row = json.loads(lines[0])
    assert set(row) == {"edges", "n", "J", "mass", "mass_float"}
    assert Fraction(row["mass"]) == cat.classes[0].mass


def _reference_export(cat) -> bytes:
    """A catalog's JSONL export written line by line, one format string per
    class from its Fraction mass."""
    g = cat.domain.g
    out = []
    for c in cat.classes:
        den = g ** c.n * c.J
        mass = f"1/{den}" if den != 1 else "1"
        out.append(f'{{"edges": {list(c.key)}, "n": {c.n}, "J": {c.J}, '
                   f'"mass": "{mass}", "mass_float": {float(c.mass)!r}}}\n')
    return "".join(out).encode()


@pytest.mark.parametrize("which", [0, 1])
def test_export_and_mass_arrays_match_the_per_class_reference(
        tmp_path, triangle_catalogs, paired_self_edge_catalogs, which):
    """The per-(n, J) export and float masses equal, byte for byte and bit
    for bit, what each class's own Fraction gives."""
    for cat in (triangle_catalogs[which], paired_self_edge_catalogs[which]):
        p = tmp_path / f"{cat.mode}.jsonl"
        cat.export_jsonl(p)
        assert p.read_bytes() == _reference_export(cat)
        masses = cat.mass_arrays()[0]
        assert masses.tobytes() == np.array(
            [float(c.mass) for c in cat.classes]).tobytes()


def test_minimal_rotation_and_period():
    assert necklace((3, 1, 2)) == ((1, 2, 3), 1)
    assert necklace((2, 1, 2, 1)) == ((1, 2, 1, 2), 2)
    assert necklace((1, 2, 3)) == ((1, 2, 3), 1)
    assert necklace((7,)) == ((7,), 1)


def _rotations_minimum(seq):
    """The smallest rotation, by trying every one."""
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=12), st.booleans(),
       st.booleans())
def test_minimal_rotation_property(seq, as_list, reverse):
    # three symbols, so the smallest one usually repeats
    arg = seq if as_list else tuple(seq)
    key, J = necklace(arg, arg[::-1] if reverse else None)
    assert type(key) is tuple
    # every rotation, and with the reversal every reflection too
    images = [tuple(s[i:] + s[:i]) for s in ([seq, seq[::-1]] if reverse
                                             else [seq])
              for i in range(len(seq))]
    assert key == min(images)
    assert J == images.count(key) == images.count(tuple(seq))


@st.composite
def _small_domains(draw):
    """A domain of a small path, cycle or complete graph (degree padded with
    self-edges) and the graph's unoriented view."""
    make = draw(st.sampled_from([path_graph, cycle_graph, complete_graph]))
    graph = make(draw(st.integers(3, 5)))
    graph = regularize_degree(graph, max(graph.out_degree.values()))
    vertices = draw(st.sets(st.sampled_from(graph.vertices), min_size=1))
    ug = UnorientedGraph(graph, pair_reversals(graph))
    return Domain(graph, vertices, allow_recurrent=True), ug


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_domains(), st.integers(0, 6))
def test_unoriented_catalog_merges_oriented_classes(
        paired_self_edge_catalogs, dom_ug, L):
    """The unoriented catalog is the set of unoriented classes of the
    oriented keys, and carries exactly half the oriented mass: on every
    small domain and cap, and with self-loops the involution pairs."""
    dom, ug = dom_ug
    for cat in (enumerate_loops(dom, L, unoriented=ug),
                paired_self_edge_catalogs[0]):
        ucat = cat.counterpart()
        assert ucat.mode == "unoriented" and ucat.counterpart() is cat
        expected = {}
        for c in cat.classes:
            u = canonicalize_unoriented(cat.domain.graph, c.key,
                                        cat.unoriented_graph.involution)
            expected[u.key] = u
        # equality compares key, n, J~, mass and oriented_keys
        assert {c.key: c for c in ucat.classes} == expected
        assert 2 * ucat.total_mass == cat.total_mass


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_domains(), st.integers(0, 8))
def test_nu_is_half_mu(triangle_catalogs, dom_ug, L):
    """nu(L~) is half the mu-mass of its oriented preimages, class by class,
    so the c = 2 alpha unoriented soup has the intensity of the alpha-soup
    with its orientations forgotten: on the K5 triangle and on every small
    domain and cap."""
    dom, ug = dom_ug
    drawn = enumerate_loops(dom, L, unoriented=ug)
    for cat, ucat in (triangle_catalogs, (drawn, drawn.counterpart())):
        assert 2 * ucat.total_mass == cat.total_mass
        for ucls in ucat.classes:
            mu_sum = sum(cat.by_key[k].mass for k in ucls.oriented_keys)
            assert ucls.mass == mu_sum / 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_domains(), st.integers(0, 8))
def test_unoriented_class_keeps_both_orientations(
        paired_self_edge_catalogs, dom_ug, L):
    """Every unoriented class lists its key and the necklace of the key's
    reversal as its oriented keys, once when they are equal: on every small
    domain and cap, and with self-loops the involution pairs."""
    dom, ug = dom_ug
    for cat in (enumerate_loops(dom, L, unoriented=ug),
                paired_self_edge_catalogs[0]):
        inv = cat.unoriented_graph.involution
        for u in cat.counterpart().classes:
            back = necklace(inv.reverse_path(u.key))[0]
            assert u.oriented_keys == ((u.key,) if back == u.key
                                       else (u.key, back))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_domains(), st.integers(0, 8))
def test_tail_bound_dominates_omitted_property(dom_ug, l_max):
    """The bound of test_tail_bound_dominates_omitted on every transient
    small domain and cap."""
    dom, _ = dom_ug
    assume(dom.spectral_radius() < 1)
    P = dom.transition_matrix()
    whole = -np.linalg.slogdet(np.eye(len(P)) - P)[1]
    omitted = whole - float(enumerate_loops(dom, l_max).total_mass)
    assert -1e-12 <= omitted <= tail_bound(dom, l_max) + 1e-12


def _brute_force_classes(dom, L):
    """(n, key, J, mass) of every oriented class up to length L: each closed
    walk of in-domain edges kept when it is its own smallest rotation, with J
    from trying every period, sorted by (n, key)."""
    out = {v: dom.out_edges(v) for v in dom.vertices}
    walks = [((e.id,), e.tail, e.head) for v in dom.vertices for e in out[v]]
    found = []
    for n in range(1, L + 1):
        for seq, start, end in walks:
            if end == start and seq == _rotations_minimum(seq):
                period = min(p for p in range(1, n + 1)
                             if seq == seq[:p] * (n // p))
                J = n // period
                found.append((n, seq, J, Fraction(1, dom.g ** n * J)))
        walks = [(seq + (e.id,), start, e.head)
                 for seq, start, end in walks for e in out[end]]
    return sorted(found)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_domains(), st.integers(0, 7))
def test_enumeration_matches_brute_force(dom_ug, L):
    dom, _ = dom_ug
    cat = enumerate_loops(dom, L)
    assert ([(c.n, c.key, c.J, c.mass) for c in cat.classes]
            == _brute_force_classes(dom, L))
    k = len(cat)
    if k:
        with pytest.raises(BudgetExceededError):
            enumerate_loops(dom, L, budget=k - 1)
    assert len(enumerate_loops(dom, L, budget=k)) == k


def test_deep_enumeration():
    # one self-edge in the domain: one class (0,)*n per length, J = n; the
    # search must not recurse once per step
    g = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 0)])
    L = sys.getrecursionlimit() + 100
    cat = enumerate_loops(Domain(g, [0]), L)
    assert [(c.key, c.n, c.J, c.mass) for c in cat.classes] == [
        ((0,) * n, n, n, Fraction(1, 2 ** n * n)) for n in range(1, L + 1)]


def test_counterpart_needs_unoriented_graph(triangle_domain):
    with pytest.raises(GraphError):
        enumerate_loops(triangle_domain, 4).counterpart()


def test_enumerate_loops_takes_no_mode(triangle_domain):
    """Enumeration has no mode: the unoriented catalog is the counterpart.
    `unoriented` and `budget` are keyword-only, so any third positional
    argument, a stale mode string included, fails loudly."""
    params = inspect.signature(enumerate_loops).parameters
    assert list(params) == ["domain", "L_max", "unoriented", "budget"]
    assert {params[k].kind for k in ("unoriented", "budget")} == \
        {inspect.Parameter.KEYWORD_ONLY}
    with pytest.raises(TypeError):
        enumerate_loops(triangle_domain, 4, None)


def test_counterpart_needs_reversal_closed_domain():
    # removing 0->1 but not 1->0 leaves the loop 1->0->2->1 without its reversal
    g = complete_graph(4)
    ug = UnorientedGraph(g, pair_reversals(g))
    removed = [e.id for e in g.edges if (e.tail, e.head) == (0, 1)]
    dom = Domain(g, [0, 1, 2], removed_edges=removed)
    with pytest.raises(GraphError):
        enumerate_loops(dom, 3, unoriented=ug).counterpart()


def test_workspace_enumerates_domain_once(tmp_path, monkeypatch):
    calls = []
    search = loops._search_classes

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(loops, "_search_classes", counted)
    cfg = config_from_dict({"graph": "complete:5", "domain": "1 2 3",
                            "f1": "1", "f2": "2", "l_max": "4", "seed": "0",
                            "jobs": "prop1, prop2"})
    assert run(cfg, str(tmp_path)) == 0
    assert len(calls) == 1


# sha256 and row count of the two catalogs the mc-resampling benchmark
# exports (complete:8, domain 1-4, l_max 12), 14,432,502 bytes together
K8_CATALOG_SHA256 = {
    "catalog_oriented.jsonl": (
        "2a9e48cd97999d21c6e91ef0a64ffb9709c3f3b15342958d90d0f578121716bb",
        69960),
    "catalog_unoriented.jsonl": (
        "d178bd772dfd47fa2144a883091babaff1a01606fb535faaf716f4aea2b03016",
        36072),
}


def test_k8_catalog_exports_are_pinned(tmp_path):
    cfg = config_from_dict({"graph": "complete:8", "domain": "1 2 3 4",
                            "l_max": "12", "seed": "0", "jobs": "enumerate"})
    assert run(cfg, str(tmp_path)) == 0
    size = 0
    for name, (digest, rows) in K8_CATALOG_SHA256.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
        assert data.count(b"\n") == rows, name
        size += len(data)
    assert size == 14432502
