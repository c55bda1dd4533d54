from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, UnorientedGraph, build_graph,
                      canonicalize_oriented, canonicalize_unoriented,
                      enumerate_loops, reassemble, sample_oriented_soup,
                      sample_unoriented_soup)
from loopsoup.excursions import (CrossingSet, DecompositionError,
                                 EdgeJumpRecord, ExcursionDecomposition,
                                 decompose_counts, extract_crossings_counts,
                                 hookup_loops, loop_skeletons, path_endpoints,
                                 path_vertices, record_edge_jumps_counts)
from loopsoup.loops import loop_vertices
from loopsoup.rng import stream


def test_empty_decomposition(triangle_catalogs):
    cat, _ = triangle_catalogs
    d = decompose_counts(cat, {}, {1}, {2})
    assert d.N == d.M == 0 and d.eta == ()
    assert reassemble(d.eta, d.beta_truth, graph=cat.domain.graph) == ()


def test_overlapping_sets_rejected(triangle_catalogs):
    cat, _ = triangle_catalogs
    with pytest.raises(DecompositionError):
        decompose_counts(cat, {}, {1}, {1, 2})


def test_empty_crossing_set_rejected(triangle_catalogs):
    cat, _ = triangle_catalogs
    with pytest.raises(DecompositionError, match="nonempty"):
        extract_crossings_counts(cat, {}, ({1}, set()))


def test_whole_loop_excursion(k5, triangle_catalogs):
    """A loop visiting the cut set once yields one excursion equal to the
    entire loop, hooked up by a zero-length bridge."""
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    e21 = inv(e12)
    cls = canonicalize_oriented(g, (e21, e12))      # 2 -> 1 -> 2
    d = decompose_counts(cat, {cls.key: 1}, {1}, {2})
    assert d.N == d.M == 1
    assert len(d.eta[0]) == 2
    assert d.beta_truth == (((1, 0), ()),)
    assert d.Z == (2, 2)


def test_hand_built_two_loop_decomposition():
    """Two hand-laid loops on a 6-vertex graph, checked against a hand count."""
    # hexagon 0-1-2-3-4-5 (both ways) regularized by an absorber edge at 0
    edges = []
    eid = 0
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]:
        edges.append((eid, a, b))
        edges.append((eid + 1, b, a))
        eid += 2
    g = build_graph(6, edges)
    from loopsoup import pair_reversals
    inv = pair_reversals(g)
    ug = UnorientedGraph(g, inv)
    dom = Domain(g, [1, 2, 3, 4, 5], allow_recurrent=True)
    cat = enumerate_loops(dom, 8, unoriented=ug)
    F1, F2 = {3}, {1, 5}
    # loop A: 1-2-3-2-1; loop B: 3-4-5-4-3
    path_a = (2, 4, 5, 3)     # edges 1->2,2->3,3->2,2->1
    path_b = (6, 8, 9, 7)     # 3->4,4->5,5->4,4->3
    A = canonicalize_oriented(g, path_a)
    B = canonicalize_oriented(g, path_b)
    d = decompose_counts(cat, {A.key: 1, B.key: 1}, F1, F2)
    # by hand: A visits F2 at 1 and F1 at 3 -> one whole-loop excursion;
    # B visits F2 at 5 and F1 at 3 -> one whole-loop excursion
    assert d.M == 2 and d.N == 2
    assert sorted(d.Z[1::2]) == [1, 5] and sorted(d.Z[0::2]) == [1, 5]
    back = reassemble(d.eta, d.beta_truth, g)
    assert back == d.touching_multiset == tuple(sorted([A.key, B.key]))


def test_reassemble_identity_vs_swap(k5, triangle_catalogs):
    """The loop count created by the hookup depends on its permutation."""
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    e21 = inv(e12)
    exc = (e21, e12)          # 2 -> 1 -> 2
    eta = (exc, exc)
    ident = (((1, 0), ()), ((3, 2), ()))
    swapped = (((1, 2), ()), ((3, 0), ()))
    loops_id = reassemble(eta, ident, g)
    loops_sw = reassemble(eta, swapped, g)
    assert len(loops_id) == 2 and len(loops_sw) == 1
    assert sum(len(k) for k in loops_id) == sum(len(k) for k in loops_sw) == 4


def test_reassemble_round_trip_random(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, ucat = triangle_catalogs
    rng = stream(30, "round")
    hits = 0
    for _ in range(2000):
        soup = sample_oriented_soup(cat, 1.0, rng)
        d = decompose_counts(cat, soup, {1}, {2})
        if d.N:
            hits += 1
            assert reassemble(d.eta, d.beta_truth, g) == d.touching_multiset
        u = sample_unoriented_soup(ucat, 1.0, rng)
        du = decompose_counts(ucat, u, {1}, {2})
        if du.N:
            assert reassemble(du.eta, du.beta_truth, g, inv) == \
                   du.touching_multiset
    assert hits > 50


def test_reassemble_endpoint_mismatch(k5):
    g, inv, ug = k5
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    e21 = inv(e12)
    with pytest.raises(DecompositionError):
        reassemble(((e21, e12),), (((1, 0), (e12,)),), g)


def test_hookup_loops_refuses_an_oriented_join_of_like_slots(k5):
    """Oriented joins run from an exit (odd slot) to an entry (even slot):
    joining two entries and two exits is refused, as is a slot joined
    twice or never.  With an involution the same joins are an unoriented
    pairing, which closes one loop."""
    g, inv, ug = k5
    e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
    exc = (inv(e12), e12)          # 2 -> 1 -> 2
    eta = (exc, exc)
    like = (((0, 2), ()), ((1, 3), ()))
    with pytest.raises(DecompositionError, match="exit to an entry"):
        hookup_loops(g, eta, like)
    assert len(hookup_loops(g, eta, like, inv)) == 1
    assert len(hookup_loops(g, eta, (((1, 0), ()), ((3, 2), ())))) == 2
    with pytest.raises(DecompositionError, match="twice"):
        hookup_loops(g, eta, (((1, 0), ()), ((1, 2), ())))
    with pytest.raises(DecompositionError, match="cover"):
        hookup_loops(g, eta, (((1, 0), ()),))


def test_decompose_deterministic(triangle_catalogs):
    cat, _ = triangle_catalogs
    rng = stream(31, "det")
    for _ in range(200):
        soup = sample_oriented_soup(cat, 1.0, rng)
        d1 = decompose_counts(cat, soup, {1}, {2})
        d2 = decompose_counts(cat, soup, {1}, {2})
        assert d1.eta == d2.eta and d1.Z == d2.Z
        assert d1.beta_truth == d2.beta_truth
        assert d1.N >= d1.M
        assert (d1.N == 0) == (d1.M == 0)


def test_crossings_empty_and_balance(triangle_catalogs):
    cat, _ = triangle_catalogs
    cs = extract_crossings_counts(cat, {}, ({1}, {2}))
    assert not cs.instances
    rng = stream(32, "bal")
    for _ in range(400):
        s = sample_oriented_soup(cat, 1.0, rng)
        cs = extract_crossings_counts(cat, s, ({1}, {2}))
        n12 = len(cs.crossings.get((0, 1), ()))
        n21 = len(cs.crossings.get((1, 0), ()))
        assert n12 == n21


def test_crossing_endpoints_match_decomposition(triangle_catalogs):
    """The endpoint vectors read off the crossings coincide with the ones the
    excursion decomposition defines."""
    cat, _ = triangle_catalogs
    rng = stream(33, "xy")
    hits = 0
    for _ in range(1500):
        s = sample_oriented_soup(cat, 1.0, rng)
        d = decompose_counts(cat, s, {1}, {2})
        cs = extract_crossings_counts(cat, s, ({1}, {2}))
        if d.N == 0:
            assert not cs.instances
            continue
        hits += 1
        arrivals = sorted(v for v, s_ in cs.endpoint_slots[1]
                          if cs.instances[s_][0][1] == 1)
        departures = sorted(v for v, s_ in cs.endpoint_slots[1]
                            if cs.instances[s_][0][0] == 1)
        assert arrivals == sorted(d.Z[1::2])
        assert departures == sorted(d.Z[0::2])
    assert hits > 100


def test_oriented_single_loop_double_alternation():
    """A loop alternating between the two sets twice has two crossings each
    way."""
    g = build_graph(2, [(0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 1, 0)])
    from loopsoup import pair_reversals
    inv = pair_reversals(g)
    ug = UnorientedGraph(g, inv)
    dom = Domain(g, [0, 1], allow_recurrent=True)
    cat = enumerate_loops(dom, 4, unoriented=ug)
    loop = canonicalize_oriented(g, (0, 1, 2, 3))
    cs = extract_crossings_counts(cat, {loop.key: 1}, ({0}, {1}))
    assert len(cs.crossings[(0, 1)]) == 2
    assert len(cs.crossings[(1, 0)]) == 2


def test_record_edge_jumps(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, ucat = triangle_catalogs
    cls12 = next(k for k in ug.edge_classes if ug.class_endpoints(k) == (1, 2))
    rec = record_edge_jumps_counts(ucat, {}, [cls12])
    assert rec.counts == (0,) and rec.Z == ()
    rng = stream(34, "jumps")
    hits = 0
    for _ in range(800):
        s = sample_unoriented_soup(ucat, 1.0, rng)
        rec = record_edge_jumps_counts(ucat, s, [cls12])
        n = rec.counts[0]
        assert len(rec.Z) == 2 * n
        if n:
            hits += 1
            assert set(rec.Z) <= {1, 2}
    assert hits > 20


def test_record_self_edge_doubles():
    """One jump along a removed self-edge contributes two equal endpoints."""
    g = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)])
    from loopsoup import Involution
    inv = Involution(g, {0: 0, 1: 2, 2: 1, 3: 3})
    ug = UnorientedGraph(g, inv)
    dom = Domain(g, [0])
    cat = enumerate_loops(dom, 4, unoriented=ug).counterpart()
    self_cls = ug.edge_class(0)
    one = canonicalize_unoriented(g, (0,), inv)
    rec = record_edge_jumps_counts(cat, {one.key: 1}, [self_cls])
    assert rec.counts == (1,)
    assert rec.Z == (0, 0)
    assert rec.self_edge_slots == ((0, 1),)


def test_all_edges_removed_decomposes_to_single_jumps(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, ucat = triangle_catalogs
    removed = sorted(k for k in ug.edge_classes
                     if set(ug.class_endpoints(k)) <= {1, 2, 3})
    rng = stream(35, "hats")
    for _ in range(300):
        s = sample_unoriented_soup(ucat, 1.0, rng)
        rec = record_edge_jumps_counts(ucat, s, removed)
        assert sum(rec.counts) == sum(ucat.by_key[k].n * c
                                      for k, c in s.items())
        assert all(b == () for _, b in rec.hookup)


def test_ct_excursions_parity(triangle_catalogs):
    """Cut at a site set, every unoriented class leaves an even number of
    skeleton ends at each site, so every soup does; a loop that avoids the
    sites leaves none."""
    cat, ucat = triangle_catalogs
    g = ucat.domain.graph
    inv = ucat.unoriented_graph.involution
    for sites in ({1}, {1, 2}, {1, 2, 3}):
        for cls in ucat.classes:
            skels = loop_skeletons(g, cls.key, sites, inv)
            ends = Counter(v for sk in skels for v in path_endpoints(g, sk))
            assert set(ends) <= sites
            assert all(n % 2 == 0 for n in ends.values())
            assert bool(skels) == bool(sites & set(loop_vertices(g, cls.key)))


def test_ct_excursion_single_visit(k5, triangle_catalogs):
    g, inv, ug = k5
    # loop 1 -> 3 -> 1 visits site 1 once: one skeleton from 1 to 1
    e13 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 3))
    cls = canonicalize_unoriented(g, (e13, inv(e13)), inv)
    skels = loop_skeletons(g, cls.key, {1}, inv)
    assert len(skels) == 1 and path_endpoints(g, skels[0]) == (1, 1)
    assert len(skels[0]) == 2


# -- reference cuts ---------------------------------------------------------------
#
# Before the cuts shared one walk, each cut its loops with its own splitter,
# instance sort and slot convention.  These are those three walks, kept
# verbatim in behaviour, so the shared walk can be checked against them.


def _ref_cyclic_arcs(seq, verts, marked):
    pos = [i for i in range(len(seq)) if verts[i] in marked]
    if not pos:
        return None
    arcs = []
    for k, p in enumerate(pos):
        q = pos[(k + 1) % len(pos)]
        arcs.append((p, tuple(seq[p:q] if q > p else seq[p:] + seq[:q])))
    return arcs


def _ref_flagged_runs(arcs, flags):
    k = len(arcs)
    for i in range(k):
        if flags[i]:
            run = ()
            j = (i + 1) % k
            while not flags[j]:
                run += arcs[j][1]
                j = (j + 1) % k
            yield i, run, j


def _ref_iter_multiset(counts):
    for key in sorted(counts):
        for occ in range(counts[key]):
            yield key, occ


def _ref_unoriented_hookup(links, exit_slot, entry_slot, inv):
    pairs, bridges = [], []
    for label, bridge, nxt in links:
        a, b = exit_slot[label], entry_slot[nxt]
        pairs.append((min(a, b), max(a, b)))
        bridges.append(min(bridge, inv.reverse_path(bridge)) if bridge else ())
    order = sorted(range(len(pairs)), key=lambda i: pairs[i])
    return tuple((pairs[i], bridges[i]) for i in order)


def _ref_decompose_counts(catalog, counts, F1, F2):
    F1, F2 = frozenset(F1), frozenset(F2)
    graph = catalog.domain.graph
    inv = (catalog.unoriented_graph.involution
           if catalog.mode == "unoriented" else None)
    instances, touching = [], []
    for key, occ in _ref_iter_multiset(counts):
        verts = loop_vertices(graph, key)
        if not (set(verts) & F1) or not (set(verts) & F2):
            continue
        arcs = _ref_cyclic_arcs(key, verts, F2)
        flags = [any(v in F1 for v in path_vertices(graph, edges)[1:-1])
                 for _, edges in arcs]
        if not any(flags):
            continue
        structure = [(arcs[i][1], run)
                     for i, run, _ in _ref_flagged_runs(arcs, flags)]
        touching.append(key)
        for pos, (exc, bridge) in enumerate(structure):
            canon = (exc if catalog.mode == "oriented"
                     else min(exc, inv.reverse_path(exc)))
            instances.append((canon, key, occ, pos, exc, bridge,
                              (key, occ, (pos + 1) % len(structure))))
    instances.sort(key=lambda r: r[:4])
    N = len(instances)
    slot_of = {r[1:4]: j for j, r in enumerate(instances)}
    eta = tuple(r[0] for r in instances)
    if catalog.mode == "oriented":
        X, Y, sigma, bridges = [], [], [0] * N, [()] * N
        for j, (_, _, _, _, exc, bridge, nxt) in enumerate(instances):
            a, b = path_endpoints(graph, exc)
            Y.append(a)
            X.append(b)
            sigma[j] = slot_of[nxt]
            bridges[j] = bridge
        # piece j starts at Y_j and ends at X_j; its end joins the start of
        # piece sigma(j)
        return ExcursionDecomposition(
            "oriented", F1, F2, eta, len(touching), N,
            tuple(v for y, x in zip(Y, X) for v in (y, x)),
            tuple(((2 * j + 1, 2 * s), br)
                  for j, (s, br) in enumerate(zip(sigma, bridges))),
            tuple(sorted(touching)))
    Z, start_slot, end_slot = [], {}, {}
    for j, (canon, key, occ, pos, exc, _, _) in enumerate(instances):
        Z.extend(path_endpoints(graph, canon))
        flip = canon != exc
        start_slot[(key, occ, pos)] = 2 * j + flip
        end_slot[(key, occ, pos)] = 2 * j + 1 - flip
    beta = _ref_unoriented_hookup([(r[1:4], r[5], r[6]) for r in instances],
                                  end_slot, start_slot, inv)
    return ExcursionDecomposition("unoriented", F1, F2, eta, len(touching), N,
                                  tuple(Z), beta, tuple(sorted(touching)))


def _ref_extract_crossings_counts(catalog, counts, sets):
    sets = tuple(frozenset(s) for s in sets)
    graph = catalog.domain.graph
    oriented = catalog.mode == "oriented"
    inv = None if oriented else catalog.unoriented_graph.involution
    union = set().union(*sets)

    def set_idx(v):
        return next(i for i, s in enumerate(sets) if v in s)

    records, arc_links = [], {}
    for key, occ in _ref_iter_multiset(counts):
        verts = loop_vertices(graph, key)
        arcs = _ref_cyclic_arcs(key, verts, union)
        if arcs is None:
            continue
        k = len(arcs)
        starts = [set_idx(verts[pos]) for pos, _ in arcs]
        flags = [starts[i] != starts[(i + 1) % k] for i in range(k)]
        if not any(flags):
            continue
        for i, run, j in _ref_flagged_runs(arcs, flags):
            frm, to, edges = starts[i], starts[(i + 1) % k], arcs[i][1]
            if oriented:
                pair, canon = (frm, to), edges
            else:
                pair = (min(frm, to), max(frm, to))
                canon = min(edges, inv.reverse_path(edges))
            records.append([(pair, canon, key, occ, i), pair, canon,
                            (key, occ, i)])
            arc_links[(key, occ, i)] = (run, j, to)
    records.sort(key=lambda r: r[0])
    slot_by_tag = {r[3]: s for s, r in enumerate(records)}
    crossings = {}
    for r in records:
        crossings.setdefault(r[1], []).append(r[2])
    crossings = {p: tuple(v) for p, v in crossings.items()}
    instances = tuple((r[1], r[2]) for r in records)
    endpoint_slots = {i: [] for i in range(len(sets))}
    for s, (pair, canon) in enumerate(instances):
        a, b = path_endpoints(graph, canon)
        frm, to = pair if oriented else next(
            (f, t) for f, t in (pair, pair[::-1])
            if a in sets[f] and b in sets[t])
        endpoint_slots[frm].append((a, s))
        endpoint_slots[to].append((b, s))
    endpoint_slots = {i: tuple(sorted(v, key=lambda t: t[1]))
                      for i, v in endpoint_slots.items()}
    slot_index = {i: {s: k for k, (_, s) in enumerate(endpoint_slots[i])}
                  for i in endpoint_slots}
    sides = {i: [] for i in range(len(sets))}
    for (key, occ, i_from), (run, j_to, to) in arc_links.items():
        a = slot_index[to][slot_by_tag[(key, occ, i_from)]]
        b = slot_index[to][slot_by_tag[(key, occ, j_to)]]
        arc = run if oriented else (
            min(run, inv.reverse_path(run)) if run else ())
        sides[to].append(((a, b) if oriented else (min(a, b), max(a, b)), arc))
    sides = {i: tuple(sorted(v)) for i, v in sides.items()}
    return CrossingSet(catalog.mode, sets, crossings, instances,
                       endpoint_slots, sides)


def _ref_record_edge_jumps_counts(catalog, counts, removed_classes):
    graph = catalog.domain.graph
    ug = catalog.unoriented_graph
    removed = tuple(sorted(tuple(k) for k in removed_classes))
    instances, arcs_after = [], {}
    for key, occ in _ref_iter_multiset(counts):
        pos = [i for i, e in enumerate(key) if ug.edge_class(e) in removed]
        for k, p in enumerate(pos):
            q = pos[(k + 1) % len(pos)]
            bridge = key[p + 1:q] if q > p else key[p + 1:] + key[:q]
            instances.append((ug.edge_class(key[p]), key, occ, p))
            arcs_after[(key, occ, p)] = (tuple(bridge), (key, occ, q))
    instances.sort()
    jump_counts = Counter(r[0] for r in instances)
    Z, entry_slot, exit_slot, self_pairs = [], {}, {}, []
    for i, (ckey, key, occ, p) in enumerate(instances):
        e = graph.edge_by_id[key[p]]
        cmin, cmax = ug.class_endpoints(ckey)
        Z.extend([cmin, cmax])
        if cmin == cmax:
            entry_slot[(key, occ, p)] = 2 * i
            exit_slot[(key, occ, p)] = 2 * i + 1
            self_pairs.append((2 * i, 2 * i + 1))
        else:
            entry_slot[(key, occ, p)] = 2 * i if e.tail == cmin else 2 * i + 1
            exit_slot[(key, occ, p)] = 2 * i if e.head == cmin else 2 * i + 1
    hookup = _ref_unoriented_hookup(
        [(r[1:], *arcs_after[r[1:]]) for r in instances], exit_slot,
        entry_slot, ug.involution)
    return EdgeJumpRecord(removed,
                          tuple(jump_counts.get(c, 0) for c in removed),
                          tuple(Z), hookup, tuple(self_pairs))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_cuts_match_reference_walks(triangle_catalogs,
                                    paired_self_edge_catalogs, data):
    """The shared cutting walk gives records equal to the per-cut walks it
    replaced, on random multisets of the K5 triangle and of a graph with
    paired and fixed self-edges, in both modes; reassembling the
    decomposition returns the touching classes."""
    catalogs = triangle_catalogs + paired_self_edge_catalogs
    cat = data.draw(st.sampled_from(catalogs))
    keys = sorted(c.key for c in cat.classes)
    counts = data.draw(st.dictionaries(st.sampled_from(keys),
                                       st.integers(1, 3), max_size=5))
    verts = data.draw(st.permutations(cat.domain.vertices))
    cut = data.draw(st.integers(1, len(verts) - 1))
    F1, F2 = verts[:cut], verts[cut:]
    d = decompose_counts(cat, counts, F1, F2)
    assert asdict(d) == asdict(_ref_decompose_counts(cat, counts, F1, F2))
    inv = cat.unoriented_graph.involution if cat.mode == "unoriented" else None
    assert reassemble(d.eta, d.beta_truth, cat.domain.graph, inv) == \
        d.touching_multiset
    # the marked sets of a crossing cut need not cover the domain
    sets = [F1, F2[:data.draw(st.integers(1, len(F2)))]]
    if len(sets[1]) < len(F2):
        sets.append(F2[len(sets[1]):])
    assert asdict(extract_crossings_counts(cat, counts, sets)) == \
        asdict(_ref_extract_crossings_counts(cat, counts, sets))
    if cat.mode == "unoriented":
        ug = cat.unoriented_graph
        removed = data.draw(st.lists(st.sampled_from(
            ug.classes_inside(cat.domain)), min_size=1, unique=True))
        assert asdict(record_edge_jumps_counts(cat, counts, removed)) == \
            asdict(_ref_record_edge_jumps_counts(cat, counts, removed))
