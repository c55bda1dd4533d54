"""Orbit keys as canonical cycles, against the relabeling enumerations they
replaced, and multiset keys read off per-class records, against the cuts
of whole multisets they replaced.

Hookups used to be keyed by listing every relabeling of identical pieces
(and every flip of flippable ones) and taking the smallest image.  Those
functions are kept here as references, so the canonical-cycle keys can be
checked to split every bin into the same orbits.
"""

import math
from collections import Counter
from itertools import islice, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup.exact import _assemble_multisets, side_orbit_key, side_pair_orbit
from loopsoup.excursions import (DecompositionError, decompose_counts,
                                 extract_crossings_counts, hookup_cycle_key,
                                 matching_key, oriented_hookup_orbit_key,
                                 path_endpoints, record_edge_jumps_counts,
                                 unoriented_hookup_orbit_key)
from loopsoup.verify import CrossingCut, EdgeCut, ExcursionCut

# -- reference keys: every relabeling, the smallest image ------------------------

ORBIT_BUDGET = 20000


def _ref_block_permutations(items):
    blocks: dict = {}
    for i, it in enumerate(items):
        blocks.setdefault(it, []).append(i)
    blocks = list(blocks.values())
    size = 1
    for b in blocks:
        size *= math.factorial(len(b))
    if size > ORBIT_BUDGET:
        raise DecompositionError(f"orbit group of size {size} beyond budget")
    for combo in product(*(permutations(b) for b in blocks)):
        perm = [0] * len(items)
        for orig, new in zip(blocks, combo):
            for a, b in zip(orig, new):
                perm[a] = b
        yield perm


def _ref_oriented_hookup_orbit_key(eta, joins):
    N = len(eta)
    # the join (2j+1, b) runs from the end of piece j to the start of b // 2
    hook_sigma, hook_bridges = [0] * N, [()] * N
    for (a, b), br in joins:
        hook_sigma[a // 2], hook_bridges[a // 2] = b // 2, br

    def relabel(perm):
        sigma = [0] * N
        bridges = [()] * N
        for j in range(N):
            sigma[perm[j]] = perm[hook_sigma[j]]
            bridges[perm[j]] = hook_bridges[j]
        return tuple(((2 * j + 1, 2 * s), br)
                     for j, (s, br) in enumerate(zip(sigma, bridges)))

    return min(relabel(perm) for perm in _ref_block_permutations(eta))


def _ref_xy_orbit_key(X, Y, joins):
    return _ref_oriented_hookup_orbit_key(tuple(zip(X, Y)), joins)


def _ref_pairing_orbit_min(joins, slot_perms):
    def relabel(sp):
        return tuple(sorted(((min(sp[a], sp[b]), max(sp[a], sp[b])), br)
                            for (a, b), br in joins))

    return min(relabel(sp) for sp in slot_perms)


def _ref_unoriented_hookup_orbit_key(eta, joins, flippable=(),
                                     involution=None):
    N = len(eta)
    pal = []
    if involution is not None:
        for j, path in enumerate(eta):
            if path and path == involution.reverse_path(path):
                pal.append((2 * j, 2 * j + 1))
    flips = sorted(set(flippable) | set(pal))
    if 2 ** len(flips) > ORBIT_BUDGET:
        raise DecompositionError("flip group beyond budget")

    def slot_perms():
        for perm in _ref_block_permutations(eta):
            base = [0] * (2 * N)
            for j in range(N):
                base[2 * j] = 2 * perm[j]
                base[2 * j + 1] = 2 * perm[j] + 1
            for mask in range(2 ** len(flips)):
                sp = list(base)
                for bit, (a, b) in enumerate(flips):
                    if mask >> bit & 1:
                        sp[a], sp[b] = base[b], base[a]
                yield sp

    return _ref_pairing_orbit_min(joins, slot_perms())


def _ref_z_orbit_key(Z, joins):
    return _ref_pairing_orbit_min(joins, _ref_block_permutations(Z))


def _ref_relabel_side(structure, slot_instances, perm, oriented):
    new_ids = [perm[s] for s in slot_instances]
    order = sorted(range(len(new_ids)), key=lambda k: new_ids[k])
    new_slot = [0] * len(new_ids)
    for rank, k in enumerate(order):
        new_slot[k] = rank
    entries = []
    for (a, b), arc in structure:
        na, nb = new_slot[a], new_slot[b]
        entries.append(((na, nb) if oriented else (min(na, nb), max(na, nb)), arc))
    return tuple(sorted(entries))


def _ref_side_orbit_key(cs, i):
    slot_instances = [s for _, s in cs.endpoint_slots[i]]
    oriented = cs.mode == "oriented"
    return min(_ref_relabel_side(cs.sides[i], slot_instances, perm, oriented)
               for perm in _ref_block_permutations(cs.instances))


def _ref_side_pair_orbit(cs, involution):
    oriented = cs.mode == "oriented"
    slot_instances = {i: [s for _, s in cs.endpoint_slots[i]] for i in cs.sides}
    images = {tuple(_ref_relabel_side(cs.sides[i], slot_instances[i], perm,
                                      oriented)
                    for i in cs.sides)
              for perm in _ref_block_permutations(cs.instances)}
    flips = 0 if oriented else sum(
        1 for i, side in cs.sides.items() for (a, b), arc in side
        if cs.endpoints(i)[a] == cs.endpoints(i)[b]
        and arc != involution.reverse_path(arc))
    return min(images), len(images) << flips


# -- the property ----------------------------------------------------------------


def _same_orbits(pairs):
    """New keys are equal exactly when the reference keys are."""
    assert len(set(pairs)) == len({n for n, _ in pairs}) == \
        len({r for _, r in pairs})


def _hookup_keys(cut, pieces, hook, flippable=()):
    """(name, new key, reference key) for every key of one hookup."""
    graph = cut.catalog.domain.graph
    ends = [path_endpoints(graph, p) for p in pieces]
    if cut.oriented:
        X, Y = [b for _, b in ends], [a for a, _ in ends]
        return [("hookup", oriented_hookup_orbit_key(pieces, hook),
                 _ref_oriented_hookup_orbit_key(pieces, hook)),
                ("xy", oriented_hookup_orbit_key(tuple(zip(X, Y)), hook),
                 _ref_xy_orbit_key(X, Y, hook))]
    Z = tuple(v for e in ends for v in e)
    return [("hookup",
             unoriented_hookup_orbit_key(pieces, hook, flippable, cut.inv),
             _ref_unoriented_hookup_orbit_key(pieces, hook, flippable, cut.inv)),
            ("z", matching_key(Z, hook, False),
             _ref_z_orbit_key(Z, hook))]


def _pair_count(cs, involution):
    """side_pair_orbit's key of a crossing set and its configuration count,
    prod_t n_t! over the crossings // the relabelings fixing the key,
    doubled per returning arc."""
    key, fixing, flips = side_pair_orbit(cs, involution)
    relabelings = math.prod(map(math.factorial,
                                Counter(cs.instances).values()))
    return key, relabelings // fixing << flips


def _multiset_keys(cut, counts):
    """(name, new key, reference key) for every key of one class multiset;
    the configuration counts of side_pair_orbit (`_pair_count`) and of the
    relabeling enumeration are compared on the spot."""
    cat = cut.catalog
    if isinstance(cut, ExcursionCut):
        d = decompose_counts(cat, counts, cut.F1, cut.F2)
        return _hookup_keys(cut, d.eta, d.beta_truth)
    if isinstance(cut, EdgeCut):
        rec = record_edge_jumps_counts(cat, counts, cut.removed)
        return _hookup_keys(cut, cut._pieces(rec.counts), rec.hookup,
                            rec.self_edge_slots)
    cs = extract_crossings_counts(cat, counts, cut.sets)
    (key, n), (ref_key, ref_n) = (_pair_count(cs, cut.inv),
                                  _ref_side_pair_orbit(cs, cut.inv))
    assert n == ref_n
    sides = range(len(cut.sets))
    return [("pair", key, ref_key),
            ("sides", tuple(side_orbit_key(cs, i) for i in sides),
             tuple(_ref_side_orbit_key(cs, i) for i in sides))]


def _draw_bin(data, catalogs):
    """(cut, target): a random excursion, crossing or removed-edge cut of
    one of `catalogs`, and one of its targets of at most three pieces; None
    when the cut has no target."""
    cat = data.draw(st.sampled_from(catalogs))
    verts = data.draw(st.permutations(cat.domain.vertices))
    k = data.draw(st.integers(1, len(verts) - 1))
    F1, F2 = verts[:k], verts[k:]
    kinds = [ExcursionCut(cat, F1, F2), CrossingCut(cat, [F1, F2])]
    if cat.mode == "unoriented":
        ug = cat.unoriented_graph
        kinds.append(EdgeCut(cat, data.draw(st.lists(
            st.sampled_from(ug.classes_inside(cat.domain)), min_size=1,
            max_size=2, unique=True))))
    cut = data.draw(st.sampled_from(kinds))
    targets = cut.targets(3)
    if not targets:
        return None
    return cut, data.draw(st.sampled_from(targets))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_orbit_keys_split_bins_like_the_relabeling_enumerations(
        triangle_catalogs, paired_self_edge_catalogs, whole_cut, data):
    """Within a random bin of an excursion, crossing or removed-edge cut of
    the K5 triangle or of a graph with paired and fixed self-edges, in both
    modes, every canonical-cycle key is equal exactly when its reference
    key is, over the class multisets of the bin and over the bridge
    configurations of its oracle; the configuration counts are equal."""
    drawn = _draw_bin(data, triangle_catalogs + paired_self_edge_catalogs)
    if drawn is None:
        return
    cut, target = drawn
    pairs: dict = {}
    for combo in islice(_assemble_multisets(cut.candidates, target), 200):
        counts = {key: u for key, _, u in combo}
        for name, new, ref in _multiset_keys(cut, counts):
            pairs.setdefault(name, []).append((new, ref))
    if not isinstance(cut, CrossingCut) and sum(target.values()) <= 2:
        b, _ = whole_cut(cut, counts)
        pieces, table, _, flippable = cut.bridge_table(b)
        for hook, _, _ in islice(table, 300):
            for name, new, ref in _hookup_keys(cut, pieces, hook, flippable):
                pairs.setdefault("oracle " + name, []).append((new, ref))
    for found in pairs.values():
        _same_orbits(found)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_class_records_key_every_multiset_as_its_cut_does(
        triangle_catalogs, paired_self_edge_catalogs, whole_cut, data):
    """Every class multiset of a random bin (the bins of the test above),
    keyed from the one-class records of its classes, gets the bin and key
    of its own cut (`whole_cut`), the per-side keys of the Monte Carlo
    crossing check included; for crossings also the key and configuration
    count of side_pair_orbit on the whole multiset, and the count of the
    relabeling enumeration."""
    drawn = _draw_bin(data, triangle_catalogs + paired_self_edge_catalogs)
    if drawn is None:
        return
    cut, target = drawn
    relabelings = math.prod(map(math.factorial, target.values()))
    checked = 0
    for combo in _assemble_multisets(cut.candidates, target):
        ms = tuple(sorted((key, u) for key, _, u in combo))
        assert cut.bin_key(ms) == whole_cut(cut, dict(ms))
        if isinstance(cut, CrossingCut):
            cs = extract_crossings_counts(cut.catalog, dict(ms), cut.sets)
            key, n = _pair_count(cs, cut.inv)
            assert cut.completion(ms, relabelings) == (key, n)
            assert n == _ref_side_pair_orbit(cs, cut.inv)[1]
        checked += 1
    assert checked


def test_hookup_cycle_key_counts_the_relabelings_that_fix_it():
    """Two copies of a two-piece cycle that is its own reversal: 2! for the
    copies, and 2 rotations times 2 reflections for each copy."""
    joins = [((1, 2), ()), ((3, 0), ()), ((5, 6), ()), ((7, 4), ())]
    key, fixing = hookup_cycle_key(["a"] * 4, joins, False, {0, 1, 2, 3})
    assert fixing == 2 * 4 ** 2
    assert key == ((("a", 0, ()), ("a", 0, ())),) * 2
    # oriented: only the rotations
    assert hookup_cycle_key(["a"] * 4, joins, True)[1] == 2 * 2 ** 2


def test_matching_key_orders_the_ends_of_an_unoriented_join():
    joins = [((0, 1), (7,)), ((2, 3), ())]
    assert matching_key("yxzz", joins, True) == (("y", (7,), "x"),
                                                 ("z", (), "z"))
    assert matching_key("yxzz", joins, False) == (("x", (7,), "y"),
                                                  ("z", (), "z"))
