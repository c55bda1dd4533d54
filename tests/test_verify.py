import json
import math
import os
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, GraphError, UnorientedGraph, build_graph,
                      complete_graph, enumerate_loops, green_function,
                      pair_reversals, regularize_degree, sample_gff,
                      verify_ct_excursions, verify_lejan,
                      verify_occupation_markov, verify_prop1,
                      verify_prop1bis_3bis, verify_prop2, verify_prop5,
                      verify_random_currents, verify_wilson, wilson_ust)
from loopsoup import excursions, verify
from loopsoup.cli import markov_edge_partition
from loopsoup.config import build_workspace, config_from_dict, parse_config
from loopsoup.bridges import (enumerate_bridges, pairing_weights,
                              permutation_weights)
from loopsoup.exact import (OccupationLaw, OracleError, _assemble_multisets,
                            occupation_law)
from loopsoup.excursions import (extract_crossings_counts, flipped_pieces,
                                 hookup_loop_lengths, hookup_loops,
                                 hookup_walk, reassemble, walk_orbit_key)
from loopsoup.rng import stream
from loopsoup.soups import _chunk_rows, soup_chunks
from loopsoup.verify import (CHI2_SIGNIFICANCE, MIN_BIN_SAMPLES, CrossingCut,
                             EdgeCut, ExcursionCut, _bonferroni,
                             _markov_defect, _mc_bins, _mc_driver, _verdict)


@pytest.fixture(scope="module")
def ws_k12():
    cfg = config_from_dict({
        "graph": "complete:12", "domain": "1 2 3", "jobs": "prop1",
        "seed": "0", "l_max": "6", "f1": "1", "f2": "2",
    })
    return build_workspace(cfg)


def test_exact_conditional_beta_matches_bridge_measure(ws_k12):
    """The brute-force conditional law over hookups equals the truncated-soup
    law (the bridge measure restricted to hookups whose loops fit in L_max,
    renormalized), Fraction by Fraction (here: single-excursion
    conditionings reduce to single bridges)."""
    cut = ExcursionCut(ws_k12.catalog("oriented"), {1}, {2})
    for target in cut.targets(1)[:4]:
        entry, cond, law = cut.laws(Fraction(1), target)
        assert sum(cond.values()) == 1
        assert cond == law
        assert 0 < entry["infeasible"] < 1


def test_prop1_conditional_depends_only_on_endpoints(ws_k12):
    """Distinct excursion vectors sharing (X, Y) induce the same conditional
    hookup law, pushed to endpoint-preserving orbits."""
    from collections import Counter, defaultdict
    from loopsoup.exact import conditional_multiset_law
    from loopsoup.excursions import (decompose_counts,
                                     oriented_hookup_orbit_key)
    cat = ws_k12.catalog("oriented")
    cut = ExcursionCut(cat, {1}, {2})
    cands = cut.candidates
    by_xy = defaultdict(list)
    for target in cut.targets(2):
        eta = tuple(sorted(target.elements()))
        w = conditional_multiset_law(Fraction(1), cands, target)
        total = sum(w.values())
        dist = {}
        XY = None
        for ms, wt in w.items():
            d = decompose_counts(cat, dict(ms), {1}, {2})
            XY = (d.Z[1::2], d.Z[0::2])
            key = oriented_hookup_orbit_key(tuple(zip(*XY)), d.beta_truth)
            dist[key] = dist.get(key, Fraction(0)) + wt / total
        _, infeasible = cut.oracle(eta)
        by_xy[XY].append((dist, float(infeasible)))
    compared = 0
    for XY, entries in by_xy.items():
        ref, r_ref = entries[0]
        for dist, r in entries[1:]:
            compared += 1
            tv = 0.5 * sum(abs(float(ref.get(k, 0) - dist.get(k, 0)))
                           for k in set(ref) | set(dist))
            # the two conditionings truncate the shared law differently;
            # their distance is bounded by the two infeasible masses
            assert tv <= 1e-9 + (r_ref + r) / (1 - max(r_ref, r))
    assert compared >= 1


@pytest.mark.parametrize("mode", ["oriented", "unoriented"])
def test_bridge_families_tabulated_once_per_endpoint_vector(
        ws_k12, monkeypatch, mode):
    """An exact excursion check builds one bridge family per endpoint vector
    of its bins, not one per bin: on the K12 triangle the vectors are one
    and two excursions at F2 = {2}, Z = (2, 2) and (2, 2, 2, 2) in both
    modes.  Every bin's law from
    the shared tables equals, as Fractions, the law of a cut built for that
    bin alone."""
    calls = Counter()
    for law in (verify.unordered_bridge_law, verify.z_bridge_law):
        def counting(*args, law=law):
            calls[law.__name__] += 1
            return law(*args)
        monkeypatch.setattr(verify, law.__name__, counting)
    cat = ws_k12.catalog(mode)
    check = verify_prop1 if mode == "oriented" else verify_prop2
    rep = check(cat, {1}, {2}, mode="exact")
    assert rep.passed
    name = "unordered_bridge_law" if mode == "oriented" else "z_bridge_law"
    assert calls == {name: 2}
    cut = ExcursionCut(cat, {1}, {2})
    bins = [cut.bin_of(t) for t in cut.targets(2)]
    assert len(bins) == rep.details["etas_tested"] > 2
    assert len({cut.bridge_ends(b)[1] for b in bins}) == 2
    for b in bins:
        assert cut.oracle(b) == ExcursionCut(cat, {1}, {2}).oracle(b)
    assert calls == {name: 2 + 2 + len(bins)}


def test_bins_read_the_table_of_their_own_endpoint_vector(
        k5, triangle_catalogs):
    """Where bins of one size differ in their endpoint vertices (F2 = {2, 3}
    on the K5 triangle, in both modes, and jumps across the edges {1, 2}
    and {2, 3}), every bin's law from one cut's shared tables equals, as
    Fractions, the law of a cut built for that bin alone."""
    cat, ucat = triangle_catalogs
    ug = k5[2]
    removed = [k for k in ug.edge_classes
               if ug.class_endpoints(k) in ((1, 2), (2, 3))]
    for make in (lambda: ExcursionCut(cat, {1}, {2, 3}),
                 lambda: ExcursionCut(ucat, {1}, {2, 3}),
                 lambda: EdgeCut(ucat, removed)):
        cut = make()
        bins = [cut.bin_of(t) for t in cut.targets(2)]
        sizes = {cut.bridge_ends(b)[1]: len(cut.bridge_ends(b)[0])
                 for b in bins}
        assert len(sizes) > len(set(sizes.values()))
        for b in bins:
            assert cut.oracle(b) == make().oracle(b)



def test_exact_excursion_checks_with_two_endpoint_vertices(
        triangle_catalogs):
    """With F2 = {2, 3} an excursion's start and end differ, so an oracle
    that joined starts to ends, not ends to starts, would key bridges the
    soup never builds: prop1 and prop2 hold exactly on every bin."""
    cat, ucat = triangle_catalogs
    for check, c in ((verify_prop1, cat), (verify_prop2, ucat)):
        rep = check(c, {1}, {2, 3}, mode="exact")
        assert rep.passed and rep.statistic == 0.0
        assert rep.details["etas_tested"] > 5


def _golden_exact_cuts():
    """The five cuts of the golden_exact fixture: excursions in both modes,
    its removed edge, and crossings in both modes."""
    ws = build_workspace(parse_config(os.path.join(
        os.path.dirname(__file__), "data", "golden_exact.cfg")))
    cat, ucat = ws.catalog("oriented"), ws.catalog("unoriented")
    return [ExcursionCut(cat, {1}, {2}), ExcursionCut(ucat, {1}, {2}),
            EdgeCut(ucat, ws.removed_classes()), CrossingCut(cat, [{1}, {2}]),
            CrossingCut(ucat, [{1}, {2}])]


def test_piece_index_finds_the_fitting_candidates():
    """For every target of the golden_exact cuts, the candidates looked up
    by piece are exactly those a filter over all candidates keeps, in
    candidate order."""
    for cut in _golden_exact_cuts():
        targets = cut.targets(4)
        assert targets
        for target in targets:
            assert cut.fitting(target) == [
                c for c in cut.candidates
                if all(target[k] >= v for k, v in c[2].items())]


# -- the Fraction oracles that the integer ones replaced, kept as a reference


def _fraction_multiset_law(intensity, candidates, target):
    """Conditional law of the class multisets matching `target`, each
    weighted by prod (t m)^u / u! in Fractions, normalized."""
    weights = {}
    for combo in _assemble_multisets(candidates, target):
        weights[tuple(sorted((key, u) for key, _, u in combo))] = math.prod(
            (intensity * mass) ** u / math.factorial(u) for key, mass, u in combo)
    total = sum(weights.values())
    return {ms: w / total for ms, w in weights.items()}


def _fraction_bridge_configs(cut, ends):
    """(label, bridge-path tuple) -> g^{-K} / Z, in Fractions, for the
    bridge family of an endpoint vector of the cut."""
    dom, L = cut.sub, cut.catalog.L_max
    green = green_function(dom, exact=True).exact
    if cut.oriented:
        X, Y = ends[1::2], ends[0::2]
        weights = permutation_weights(green, X, Y)

        def pairs_of(s):
            return [(X[j], Y[s[j]]) for j in range(len(X))]

        def menu(pair):
            return [(b.path, Fraction(1, dom.g ** b.n))
                    for b in enumerate_bridges(dom, *pair, L)]
    else:
        weights = pairing_weights(green, ends)

        def pairs_of(t):
            return [(ends[a], ends[b]) for a, b in t]

        def menu(pair):
            masses = {}
            for br in enumerate_bridges(dom, *pair, L):
                ukey = cut.inv.unoriented_path(br.path)
                masses[ukey] = masses.get(ukey, 0) + Fraction(1, dom.g ** br.n)
            return sorted(masses.items())
    Z = sum(weights.values())
    return {(label, tuple(path for path, _ in combo)):
            math.prod(m for _, m in combo) / Z
            for label in weights
            for combo in product(*map(menu, pairs_of(label)))}


def _fraction_oracle(cut, b):
    """(truncated-soup law of bin b, infeasible mass), summed in Fractions."""
    pieces, ends, flippable = cut.bridge_ends(b)
    flips = () if cut.oriented else flipped_pieces(pieces, flippable, cut.inv)
    law = {}
    for (label, paths), pr in _fraction_bridge_configs(cut, ends).items():
        # a permutation joins the end of piece j to the start of piece s[j]
        pairs = ([(2 * j + 1, 2 * s) for j, s in enumerate(label)]
                 if cut.oriented else label)
        walk = hookup_walk(tuple(zip(pairs, paths)), len(pieces))
        if max(hookup_loop_lengths(pieces, walk)) > cut.catalog.L_max:
            continue
        key = walk_orbit_key(pieces, walk, cut.oriented, flips)
        law[key] = law.get(key, 0) + pr
    feasible = sum(law.values())
    return {k: v / feasible for k, v in law.items()}, 1 - feasible


def _fraction_laws(cut, intensity, target):
    """(conditional law of the keys given `target`, truncated-soup law of
    its bin), in Fractions, as `Cut.laws` and `CrossingCut.laws` give
    them."""
    ms_law = _fraction_multiset_law(intensity, cut.fitting(target), target)
    cond = {}
    if not isinstance(cut, CrossingCut):
        for ms, p in ms_law.items():
            key = cut.key_of(ms)
            cond[key] = cond.get(key, 0) + p
        return cond, _fraction_oracle(cut, cut.bin_of(target))[0]
    g = cut.catalog.domain.g
    cross_steps = sum(len(p) * n for (_, p), n in target.items())
    relabelings = math.prod(map(math.factorial, target.values()))
    bridge = {}
    for ms, p in ms_law.items():
        key, n = cut.completion(ms, relabelings)
        cond[key] = cond.get(key, 0) + p
        bridge[key] = n * Fraction(1, g ** (sum(len(k) * u for k, u in ms)
                                            - cross_steps))
    z = sum(bridge.values())
    return cond, {k: v / z for k, v in bridge.items()}


def test_integer_oracles_equal_their_fraction_reference():
    """On every target of golden_exact's five cuts, at the intensity of the
    check and of its control, the conditional law and the truncated-soup
    law summed in integers equal, as dicts of Fractions, those summed in
    Fractions, and so does the infeasible mass of every bin."""
    for cut in _golden_exact_cuts():
        targets = cut.targets(4 if isinstance(cut, CrossingCut) else 2)
        assert targets
        for target in targets:
            for intensity in (Fraction(1), Fraction(2)):
                _, cond, law = cut.laws(intensity, target)
                assert (cond, law) == _fraction_laws(cut, intensity, target)
            if not isinstance(cut, CrossingCut):
                b = cut.bin_of(target)
                assert cut.oracle(b) == _fraction_oracle(cut, b)


def test_integer_oracles_equal_their_fraction_reference_on_mc_bins():
    """On every bin whose oracle the benchmark's Monte Carlo K5 config
    reads (those of MIN_BIN_SAMPLES soups), in each of its three checks,
    the oracle's law and infeasible mass equal those summed in
    Fractions."""
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..",
                                    "perfbench", "configs", "mc_k5.cfg"))
    ws = build_workspace(cfg)
    cat, ucat = ws.catalog("oriented"), ws.catalog("unoriented")
    checked = 0
    for prop, cut, intensity in (
            ("prop1", ExcursionCut(cat, {1}, {2}), cfg.alpha),
            ("prop2", ExcursionCut(ucat, {1}, {2}), cfg.c),
            ("prop5", EdgeCut(ucat, ws.removed_classes()), cfg.c)):
        bins = _mc_bins(cut, float(intensity), cfg.samples,
                        stream(cfg.seed, prop))
        for b, counts in bins.items():
            if sum(counts.values()) >= MIN_BIN_SAMPLES:
                assert cut.oracle(b) == _fraction_oracle(cut, b)
                checked += 1
    assert checked == 7


def test_exact_checks_cut_each_class_alone_and_no_multiset(ws_k12,
                                                           monkeypatch):
    """An exact prop1 check and an exact prop3bis check, the latter as the
    command line runs it, cut every catalog class once, alone, and no class
    multiset: the multisets are keyed from the per-class records."""
    calls = defaultdict(list)
    for cut in (verify.decompose_counts, verify.extract_crossings_counts):
        def counting(catalog, counts, *args, cut=cut):
            calls[cut.__name__].append(tuple(counts.items()))
            return cut(catalog, counts, *args)
        monkeypatch.setattr(verify, cut.__name__, counting)
    cat, ucat = ws_k12.catalog("oriented"), ws_k12.catalog("unoriented")
    assert verify_prop1(cat, {1}, {2}, mode="exact").passed
    rep = verify_prop1bis_3bis(ucat, [{1}, {2}], mode="exact", max_targets=6)
    assert rep.passed and max(t["crossings"] for t in rep.details[
        "per_target"]) == 4
    assert sorted(calls["decompose_counts"]) == sorted(
        ((c.key, 1),) for c in cat.classes)
    assert sorted(calls["extract_crossings_counts"]) == sorted(
        ((c.key, 1),) for c in ucat.classes)


def test_prop1_exact_and_control(ws_k12):
    cat = ws_k12.catalog("oriented")
    rep = verify_prop1(cat, {1}, {2}, mode="exact")
    assert rep.passed and rep.statistic == 0.0
    bad = verify_prop1(cat, {1}, {2}, mode="exact", intensity=Fraction(2),
                       expect_fail=True)
    assert bad.passed    # the control is expected to fail, and does


def test_prop2_exact_and_control(ws_k12):
    ucat = ws_k12.catalog("unoriented")
    rep = verify_prop2(ucat, {1}, {2}, mode="exact")
    assert rep.passed
    bad = verify_prop2(ucat, {1}, {2}, mode="exact", intensity=Fraction(2),
                       expect_fail=True)
    assert bad.passed


def test_prop1_mc_small(ws_k12):
    cat = ws_k12.catalog("oriented")
    rep = verify_prop1(cat, {1}, {2}, mode="mc", samples=250000, seed=11)
    assert rep.details["bins_tested"] >= 1
    assert rep.passed


def test_prop5_exact_and_degenerate(ws_k12):
    ucat = ws_k12.catalog("unoriented")
    removed = ws_k12.removed_classes() or None
    ug = ws_k12.unoriented
    cls12 = next(k for k in ug.edge_classes
                 if ug.class_endpoints(k) == (1, 2))
    rep = verify_prop5(ucat, [cls12], mode="exact")
    assert rep.passed
    bad = verify_prop5(ucat, [cls12], mode="exact", intensity=Fraction(2),
                       expect_fail=True)
    assert bad.passed
    # with every inner edge removed, G is the identity and the bridge
    # measure is the uniform matching of the jump ends, with empty bridges
    deg = verify_prop5(ucat, ucat.unoriented_graph.classes_inside(ucat.domain),
                       max_jumps=3)
    assert deg.passed
    # a class removed twice is refused in both modes, not cut twice
    for mode in ("exact", "mc"):
        with pytest.raises(GraphError, match="given twice"):
            verify_prop5(ucat, [cls12, cls12], mode=mode, samples=200)


def test_prop2_z_measurability(ws_k12):
    """Distinct excursion vectors sharing the extremity vector induce the
    same conditional hookup law (pushed to extremity-preserving orbits)."""
    from loopsoup.exact import conditional_multiset_law
    from loopsoup.excursions import decompose_counts, matching_key
    from collections import defaultdict
    ucat = ws_k12.catalog("unoriented")
    cut = ExcursionCut(ucat, {1}, {2})
    cands = cut.candidates
    by_Z = defaultdict(list)
    for target in cut.targets(2):
        eta = tuple(sorted(target.elements()))
        w = conditional_multiset_law(Fraction(1), cands, target)
        total = sum(w.values())
        dist = {}
        Z = None
        for ms, wt in w.items():
            d = decompose_counts(ucat, dict(ms), {1}, {2})
            Z = d.Z
            key = matching_key(d.Z, d.beta_truth, False)
            dist[key] = dist.get(key, Fraction(0)) + wt / total
        _, infeasible = cut.oracle(eta)
        by_Z[Z].append((dist, float(infeasible)))
    compared = 0
    for Z, entries in by_Z.items():
        if len(entries) < 2:
            continue
        ref, r_ref = entries[0]
        for dist, r in entries[1:]:
            compared += 1
            tv = 0.5 * sum(abs(float(ref.get(k, 0) - dist.get(k, 0)))
                           for k in set(ref) | set(dist))
            assert tv <= 1e-9 + (r_ref + r) / (1 - max(r_ref, r))
    assert compared >= 1


def test_prop1bis_exact(ws_k12):
    cat = ws_k12.catalog("oriented")
    rep = verify_prop1bis_3bis(cat, [{1}, {2}], mode="exact",
                               max_crossings=2)
    assert rep.passed
    ucat = ws_k12.catalog("unoriented")
    rep3 = verify_prop1bis_3bis(ucat, [{1}, {2}], mode="exact",
                                max_crossings=2)
    assert rep3.passed


def test_prop1bis_control(ws_k12):
    """At the wrong intensity the joint completion law leaves the product
    bridge measure (the loop-count tilt shows up in the relative alignment
    of the two sides even when each side's own key cannot see it)."""
    cat = ws_k12.catalog("oriented")
    good = verify_prop1bis_3bis(cat, [{1}, {2}], mode="exact",
                                max_crossings=4, max_targets=4)
    assert good.passed
    bad = verify_prop1bis_3bis(cat, [{1}, {2}], mode="exact",
                               max_crossings=4, max_targets=4,
                               intensity=Fraction(2), expect_fail=True)
    assert bad.passed


def test_prop3bis_exact_counts_both_orientations_of_a_returning_arc():
    """With two free vertices beside the marked ones, a side arc can return
    to its vertex along a path that differs from its reversal (1-2-4-1).
    The side keeps the arc up to reversal, and both orientations are bridge
    configurations, so the joint completion weighs twice as much; without
    the doubling the exact law is off on some targets."""
    ws = build_workspace(config_from_dict({
        "graph": "complete:6", "domain": "1 2 3 4", "jobs": "prop3bis",
        "seed": "0", "l_max": "6", "f1": "1", "f2": "3",
    }))
    ucat = ws.catalog("unoriented")
    cut = CrossingCut(ucat, [{1}, {3}])
    inv = ucat.unoriented_graph.involution
    returning = 0
    for cls in cut.candidates:
        cs = extract_crossings_counts(ucat, {cls[0]: 1}, cut.sets)
        returning += any(cs.endpoints(i)[a] == cs.endpoints(i)[b]
                         and arc != inv.reverse_path(arc)
                         for i, side in cs.sides.items() for (a, b), arc in side)
    assert returning
    rep = verify_prop1bis_3bis(ucat, [{1}, {3}], mode="exact", max_crossings=2)
    assert rep.passed and rep.statistic == 0.0


def test_prop5_mc(ws_k12):
    ug = ws_k12.unoriented
    cls12 = next(k for k in ug.edge_classes
                 if ug.class_endpoints(k) == (1, 2))
    rep = verify_prop5(ws_k12.catalog("unoriented"), [cls12], mode="mc",
                       samples=400000, seed=77)
    assert rep.details["bins_tested"] >= 1
    assert rep.passed


def test_prop5_mc_tests_against_the_truncated_soup_law():
    """prop5 by Monte Carlo on the K5 triangle at l_max 6: a pairing whose
    bridges would close a loop longer than the cap never occurs in the
    truncated soup, so its bins are tested against the restricted law.
    Against the unrestricted bridge law these seeds failed (p = 2.7e-4,
    1.9e-4 and 3.5e-5 against the Bonferroni threshold 5e-4)."""
    ws = build_workspace(config_from_dict({
        "graph": "complete:5", "domain": "1 2 3", "jobs": "prop5",
        "seed": "0", "l_max": "6", "removed_edges": "1-2",
    }))
    for seed in (1, 2, 3):
        rep = verify_prop5(ws.catalog("unoriented"), ws.removed_classes(),
                           mode="mc", samples=10 ** 5, seed=seed)
        assert rep.details["bins_tested"] >= 1
        assert rep.passed, (seed, rep.statistic, rep.tolerance)


def _triangle_cuts(k5, triangle_catalogs):
    """Every cut kind on the K5 triangle, oriented and unoriented."""
    cat, ucat = triangle_catalogs
    ug = k5[2]
    cls12 = next(k for k in ug.edge_classes if ug.class_endpoints(k) == (1, 2))
    return [ExcursionCut(cat, {1}, {2}), ExcursionCut(ucat, {1}, {2}),
            EdgeCut(ucat, [cls12]), CrossingCut(cat, [{1}, {2}]),
            CrossingCut(ucat, [{1}, {3}])]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_cut_depends_only_on_touching_classes(k5, triangle_catalogs,
                                              whole_cut, data):
    """A soup's whole cut (`whole_cut`) is `bin_key` of its sub-multiset of
    touching classes, keyed from their one-class records: the facts the
    Monte Carlo driver's memo and keys rest on."""
    cut = data.draw(st.sampled_from(_triangle_cuts(k5, triangle_catalogs)))
    keys = [c.key for c in cut.catalog.classes]
    touching = [k for k in keys if cut.touches(k)]
    others = [k for k in keys if not cut.touches(k)]
    soup = data.draw(st.permutations(
        data.draw(st.lists(st.sampled_from(touching), max_size=2))
        + data.draw(st.lists(st.sampled_from(others), max_size=3))))
    counts = dict(Counter(soup))
    sub = tuple((k, v) for k, v in sorted(counts.items()) if cut.touches(k))

    assert whole_cut(cut, counts) == (cut.bin_key(sub) if sub else None)


def test_mc_driver_leaves_candidates_unbuilt(k5, triangle_catalogs):
    """A Monte Carlo run cuts the sampled classes alone (`cut_of`) and never
    the whole catalog; the exact side still builds `candidates`."""
    for cut in _triangle_cuts(k5, triangle_catalogs):
        rep = _mc_driver("lazy", cut, 1.0, 3000, 0, False)
        assert rep.samples == 3000
        assert "candidates" not in cut.__dict__
        assert cut._class_cuts and len(cut._class_cuts) < len(cut.catalog)
        cut.targets(2)
        assert "candidates" in cut.__dict__


def test_mc_checks_cut_each_class_alone_and_no_multiset(k5, triangle_catalogs,
                                                        monkeypatch):
    """A Monte Carlo run of each K5-triangle cut, excursions and crossings in
    both modes and the removed edge, cuts each class it draws at most once,
    alone, and no class multiset: soups are binned and keyed from the
    per-class records (`Cut.bin_key`)."""
    calls = defaultdict(list)
    for cutter in (verify.decompose_counts, verify.extract_crossings_counts,
                   verify.record_edge_jumps_counts):
        def counting(catalog, counts, *args, cutter=cutter):
            calls[cutter.__name__].append(tuple(counts.items()))
            return cutter(catalog, counts, *args)
        monkeypatch.setattr(verify, cutter.__name__, counting)
    for cut in _triangle_cuts(k5, triangle_catalogs):
        calls.clear()
        rep = _mc_driver("alone", cut, 1.0, 20000, 0, False)
        assert rep.details["bins_tested"] >= 1
        made = [c for per_cutter in calls.values() for c in per_cutter]
        assert made and all(len(c) == 1 and c[0][1] == 1 for c in made)
        assert len(set(made)) == len(made)


def _per_soup_driver(whole_cut, prop, cut, intensity, samples, seed,
                     expect_fail):
    """The Monte Carlo driver as one loop over the count dicts of the
    `soup_chunks` rows: each soup's touching sub-multiset is sorted and cut
    whole (`whole_cut`), once per distinct one, then every bin of
    MIN_BIN_SAMPLES soups is tested in bin-key order.
    Returns (bins, report, soups holding more than one touching class)."""
    mode = "oriented" if cut.oriented else "unoriented"
    cuts: dict = {}
    bins: dict = defaultdict(Counter)
    several = 0
    rows = (row for c, idx in soup_chunks(cut.catalog, mode, intensity,
                                          samples, stream(seed, prop))
            for row in _chunk_rows(cut.catalog.classes, c, idx))
    for counts in rows:
        sub = tuple(sorted((k, n) for k, n in counts.items() if cut.touches(k)))
        if not sub:
            continue
        several += len(sub) > 1
        if sub not in cuts:
            cuts[sub] = whole_cut(cut, dict(sub))
        if cuts[sub] is not None:
            bins[cuts[sub][0]][cuts[sub][1]] += 1
    pvals, tested = [], []
    for b, counts in sorted(bins.items()):
        n_bin = sum(counts.values())
        p = cut.bin_p(b, counts, n_bin) if n_bin >= MIN_BIN_SAMPLES else None
        if p is not None:
            pvals.append(p)
            tested.append({**cut.label(b), "n": n_bin, "p": p})
    if not pvals:
        return bins, _verdict(prop, "mc", 1.0, CHI2_SIGNIFICANCE, None,
                              cut.catalog, samples, seed, expect_fail,
                              note="no bin had enough samples"), several
    worst, threshold, ok = _bonferroni(pvals)
    return bins, _verdict(prop, "mc", worst, threshold, ok, cut.catalog,
                          samples, seed, expect_fail, bins_tested=len(pvals),
                          bins_skipped=len(bins) - len(pvals), bins=tested,
                          intensity=intensity), several


@pytest.fixture(scope="module")
def k8_crossing_catalog():
    """The oriented catalog of the benchmark's crossing case: complete:8,
    domain 1-4, l_max 12 (69,960 classes)."""
    g = complete_graph(8)
    return enumerate_loops(Domain(g, [1, 2, 3, 4]), 12,
                           unoriented=UnorientedGraph(g, pair_reversals(g)))


@pytest.mark.parametrize("case", ["prop1", "prop2", "prop5", "alpha2",
                                  "prop1bis"])
def test_chunked_driver_matches_per_soup_driver(case, k5, triangle_catalogs,
                                                k8_crossing_catalog,
                                                whole_cut):
    """The chunked Monte Carlo driver fills the same bins, each Counter in
    the same order, and writes the same report bytes as a per-soup loop on
    the same stream: the K5 triangle's three cuts, the alpha = 2 control,
    and a crossing cut on K8 where soups hold several touching classes."""
    cat, ucat = triangle_catalogs
    ug = k5[2]
    cls12 = next(k for k in ug.edge_classes if ug.class_endpoints(k) == (1, 2))
    prop, make, intensity, samples, control = {
        "prop1": ("prop1", lambda: ExcursionCut(cat, {1}, {2}), 1.0, 20000,
                  False),
        "prop2": ("prop2", lambda: ExcursionCut(ucat, {1}, {2}), 1.0, 20000,
                  False),
        "prop5": ("prop5", lambda: EdgeCut(ucat, [cls12]), 1.0, 20000, False),
        "alpha2": ("prop1", lambda: ExcursionCut(cat, {1}, {2}), 2.0, 20000,
                   True),
        "prop1bis": ("prop1bis",
                     lambda: CrossingCut(k8_crossing_catalog, [{1}, {3}]),
                     1.0, 10000, False),
    }[case]
    seed = 5
    bins, rep, several = _per_soup_driver(whole_cut, prop, make(), intensity,
                                          samples, seed, control)
    assert several > 0 and rep.details["bins_tested"] > 0
    chunked = _mc_bins(make(), intensity, samples, stream(seed, prop))
    assert ([(b, list(c.items())) for b, c in chunked.items()]
            == [(b, list(c.items())) for b, c in bins.items()])
    got = _mc_driver(prop, make(), intensity, samples, seed, control)
    assert json.dumps(got.to_json()) == json.dumps(rep.to_json())


@pytest.mark.parametrize("ok, expect_fail, verdict", [
    (True, False, "pass"), (False, False, "fail"), (None, False, "fail"),
    (True, True, "fail"), (False, True, "pass"), (None, True, "fail")])
def test_verdict_rule(ok, expect_fail, verdict):
    """A check passes on ok, a control when its check fails, and a run that
    tested nothing (ok None) fails either way."""
    rep = _verdict("p", "mc", 0.5, 0.1, ok, expect_fail=expect_fail)
    assert rep.verdict == verdict
    assert rep.details == {"positive_control": expect_fail}


def test_mc_control_with_no_testable_bin_fails(triangle_catalogs):
    # 100 soups cannot fill a bin of MIN_BIN_SAMPLES: nothing is tested, so
    # even a control that must fail does not pass
    cut = ExcursionCut(triangle_catalogs[0], {1}, {2})
    rep = _mc_driver("prop1", cut, 1.0, 100, 0, True)
    assert rep.details["note"] == "no bin had enough samples"
    assert rep.details["positive_control"] and not rep.passed


def test_crossing_cut_keys_every_two_copy_soup(triangle_catalogs, whole_cut):
    """Two copies of any K5-triangle class that crosses get side keys, every
    bin included: no orbit is too large to key, and `bin_key` keys them as
    the cut of the pair does."""
    cat, ucat = triangle_catalogs
    keyed = 0
    for cut in (CrossingCut(cat, [{1}, {2}]), CrossingCut(ucat, [{1}, {3}])):
        for cls in cut.catalog.classes:
            if not cut.touches(cls.key):
                assert whole_cut(cut, {cls.key: 2}) is None
                continue
            got = cut.bin_key(((cls.key, 2),))
            assert got == whole_cut(cut, {cls.key: 2})
            assert None not in got[1]
            keyed += 1
    assert keyed == 134


def _oracle_cuts(k5, triangle_catalogs):
    """The cuts with a bridge-measure oracle: excursions in both modes and
    the removed edge {1, 2}."""
    return _triangle_cuts(k5, triangle_catalogs)[:3]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_walker_flags_exactly_the_loops_beyond_the_catalog(
        k5, triangle_catalogs, whole_cut, data):
    """An oracle configuration's longest walker loop exceeds L_max exactly
    when one of the classes it reassembles into is missing from the
    catalog: the mass the truncated-soup law leaves out.  The loops use every
    edge of the pieces and bridges once (up to reversal when unoriented),
    which reassembly over the same walk could not notice, and have the
    lengths the oracles read off the tabulated walk, which checks no
    junction."""
    cut = data.draw(st.sampled_from(_oracle_cuts(k5, triangle_catalogs)))
    edge = (lambda e: e) if cut.oriented else k5[2].edge_class
    single = [key for key, _, contrib, _ in cut.candidates
              if sum(contrib.values()) == 1]
    soup = data.draw(st.lists(st.sampled_from(single), min_size=1, max_size=2))
    b, _ = whole_cut(cut, dict(Counter(soup)))
    pieces, table, _, _ = cut.bridge_table(b)
    cat = cut.catalog
    graph = cat.domain.graph
    assert table
    for hook, _, walk in table:
        loops = hookup_loops(graph, pieces, hook, cut.inv)
        assert hookup_loop_lengths(pieces, walk) == list(map(len, loops))
        assert Counter(map(edge, (e for lp in loops for e in lp))) == \
               Counter(map(edge, (e for p in pieces + tuple(
                   arc for _, arc in hook) for e in p)))
        longest = max(map(len, loops))
        keys = reassemble(pieces, hook, graph, cut.inv)
        assert (longest > cat.L_max) == any(k not in cat.by_key for k in keys)


def test_oracles_do_not_canonicalize(k5, triangle_catalogs, monkeypatch):
    """The oracles read loop lengths off the hookup walker and build no loop
    class, neither when they tabulate a bridge family nor when they read
    the table."""
    bins = []
    for i, cut in enumerate(_oracle_cuts(k5, triangle_catalogs)):
        for target in cut.targets(2)[:4]:
            b = cut.bin_of(target)
            bins.append((i, b, cut.oracle(b)))

    def refuse(*args):
        raise AssertionError("an oracle canonicalized a loop")

    monkeypatch.setattr(excursions, "canonicalize_oriented", refuse)
    monkeypatch.setattr(excursions, "canonicalize_unoriented", refuse)
    cuts = _oracle_cuts(k5, triangle_catalogs)      # tables built anew
    for i, b, before in bins:
        assert cuts[i].oracle(b) == before
    # the walker's length check removes mass beyond the bridges too long to
    # enumerate, in every bin
    for i, b, (_, infeasible) in bins:
        _, table, denominator, _ = cuts[i].bridge_table(b)
        assert infeasible > 1 - Fraction(sum(w for _, w, _ in table),
                                         denominator)


def test_residual_coupling(ws_k12):
    """Loops missing one of the sets form soups of the complements, coupled
    to share the loops avoiding both: for each set F, the catalog classes
    that avoid F, with their masses, are the catalog of the domain minus F."""
    cat = ws_k12.catalog("oriented")
    edge_by_id = cat.domain.graph.edge_by_id
    for F in ({1}, {2}):
        sub = enumerate_loops(cat.domain.without_vertices(F), cat.L_max,
                              unoriented=cat.unoriented_graph)
        mine = {c.key: c.mass for c in cat.classes
                if not any(edge_by_id[eid].tail in F for eid in c.key)}
        assert mine == {c.key: c.mass for c in sub.classes}


THREE_SETS = [{1}, {3}, {5}]


@pytest.fixture(scope="module")
def three_set_run():
    """The unoriented catalog of three marked sets on a 5-vertex domain, and
    its Monte Carlo crossing report at 400,000 soups, seed 71."""
    cfg = config_from_dict({
        "graph": "complete:9", "domain": "1 2 3 4 5", "jobs": "prop3bis",
        "seed": "0", "l_max": "8", "f1": "1", "f2": "3", "f3": "5",
    })
    ucat = build_workspace(cfg).catalog("unoriented")
    rep = verify_prop1bis_3bis(ucat, THREE_SETS, mode="mc", samples=400000,
                               seed=71)
    return ucat, rep


def test_three_set_independence_mc(three_set_run):
    """Three marked sets on a 5-vertex domain: the three completions are
    conditionally independent given the crossings (three-way chi-square)."""
    _, rep = three_set_run
    assert rep.details["bins_tested"] >= 1
    assert rep.passed


def test_mc_driver_tests_every_bin_at_the_floor(three_set_run, whole_cut):
    """The sample floor is the Monte Carlo driver's one bin rule: recounted
    from the same soups, every bin holding MIN_BIN_SAMPLES soups is tested,
    in bin-key order, and tested + skipped is the number of bins."""
    ucat, rep = three_set_run
    cut = CrossingCut(ucat, THREE_SETS)
    bins = {b: sum(keys.values()) for b, keys in _per_soup_driver(
        whole_cut, rep.prop, cut, 1.0, rep.samples, rep.seed, False)[0].items()}
    d = rep.details
    assert d["bins_tested"] + d["bins_skipped"] == len(bins)
    large = [{**cut.label(b), "n": n} for b, n in sorted(bins.items())
             if n >= MIN_BIN_SAMPLES]
    assert [{k: v for k, v in e.items() if k != "p"} for e in d["bins"]] == large


def test_occupation_markov_exact_and_tilt():
    cfg = config_from_dict({
        "graph": "cycle:5", "domain": "1 2 3 4", "jobs": "occupation-markov",
        "seed": "0", "l_max": "6", "f1": "1 2",
    })
    ws = build_workspace(cfg)
    part = markov_edge_partition(ws, oriented=False)
    rep, tilted = verify_occupation_markov(ws.domain, part,
                                           intensity_kind="c", cap=12,
                                           tilt_edge_groups=part[2][:1])
    assert rep.passed and rep.details["cells_violated"] == 0
    assert tilted.passed and tilted.details["tilted"]
    part_o = markov_edge_partition(ws, oriented=True)
    [rep_o] = verify_occupation_markov(ws.domain, part_o,
                                       intensity_kind="alpha",
                                       intensity=Fraction(1), cap=8)
    assert rep_o.passed


def test_occupation_markov_control_fails_on_cycle():
    """On a domain with a two-edge boundary the single-component field at
    c = 2 is not Markov; the exact product check must fail on some cell."""
    edges = []
    eid = 0
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 1), (1, 0)]:
        edges.append((eid, a, b))
        edges.append((eid + 1, b, a))
        eid += 2
    g = regularize_degree(build_graph(5, edges), 3)
    inv = pair_reversals(g)
    ug = UnorientedGraph(g, inv)
    dom = Domain(g, [1, 2, 3, 4])
    groups = [(0, 1), (2, 3), (4, 5), (6, 7)]
    part = (groups, [0], [1, 3], [2])
    [rep] = verify_occupation_markov(dom, part, intensity_kind="c",
                                     intensity=Fraction(1), cap=12,
                                     allow_marginal=True)
    assert rep.passed
    [bad] = verify_occupation_markov(dom, part, intensity_kind="c",
                                     intensity=Fraction(2), cap=12,
                                     expect_fail=True, allow_marginal=True)
    assert bad.passed
    assert bad.details["cells_checked"] == 66
    assert bad.details["cells_violated"] == 9


def test_occupation_markov_checking_no_cell_fails():
    """At cap 2 the window of the 2-D grid split holds no boundary block
    with two rows and two columns: nothing is tested, so the run fails
    instead of passing vacuously."""
    cfg = config_from_dict({
        "graph": "grid:2x3", "domain": "0 1 2 3 4", "jobs": "occupation-markov",
        "seed": "0", "f1": "0 1",
    })
    ws = build_workspace(cfg)
    part = markov_edge_partition(ws, oriented=False)
    [rep] = verify_occupation_markov(ws.domain, part, cap=2)
    assert rep.details["cells_checked"] == 0
    assert rep.verdict == "fail"


def test_markov_defect_decides_each_boundary_block_exactly():
    """A block [[a, 0], [0, d]] holds no 2x2 minor of present cells, yet it
    is no product and fails; a product block passes; a one-row block tests
    nothing.  Variables are (inside, boundary, outside), all within the
    window of cap 6 (at most 2 inside, 2 outside and 2 on the boundary)."""
    def law(cells):
        return OccupationLaw((), 6, {n: Fraction(w) for n, w in cells.items()},
                             1.0)

    diagonal = law({(0, 0, 0): 3, (1, 0, 1): 5})
    stat, checked, bad = _markov_defect(diagonal, [0], [1], [2])
    assert (checked, bad) == (4, 4)
    # the projection puts 9/8, 15/8, 15/8, 25/8 of the mass 8 on the cells
    assert stat == float(Fraction(15, 32))
    product_block = law({(i, b, o): (1 + i) * (2 + o) * (1 + b)
                         for i in range(3) for o in range(2) for b in range(2)})
    assert _markov_defect(product_block, [0], [1], [2]) == (0.0, 12, 0)
    one_row = law({(1, 0, 0): 2, (1, 0, 2): 7, (1, 1, 1): 1})
    assert _markov_defect(one_row, [0], [1], [2]) == (0.0, 0, 0)


@pytest.fixture(scope="module")
def occupation_split():
    """golden_occupation's domain and its unoriented Markov partition."""
    ws = build_workspace(parse_config(os.path.join(
        os.path.dirname(__file__), "data", "golden_occupation.cfg")))
    return ws.domain, markov_edge_partition(ws, oriented=False)


@pytest.mark.parametrize("c", [1, 2])
def test_markov_defect_tilts_in_place(occupation_split, c):
    """Tilting inside `_markov_defect` gives what the check of a tilted copy
    of the law gives, for an inside, a boundary and an outside group; at
    c = 2 the statistic is nonzero, so the integer scaling is exercised.
    The law itself is left as it was."""
    dom, part = occupation_split
    _, idx_in, idx_bd, idx_out = part
    law = occupation_law(dom, part[0], Fraction(c, 2), 12)
    weights = dict(law.weights)
    for group in (idx_in[0], idx_bd[0], idx_out[0]):
        copy = OccupationLaw(law.groups, law.cap,
                             {n: w * verify.TILT ** n[group]
                              for n, w in weights.items()}, law.scalar)
        tilted = _markov_defect(law, idx_in, idx_bd, idx_out, group)
        assert tilted == _markov_defect(copy, idx_in, idx_bd, idx_out)
        assert tilted[1] > 0 and (tilted[0] > 0) == (c == 2)
        assert law.weights == weights


# graph -> (vertex count, largest degree), for the windowed-law property
_SMALL_GRAPHS = {"cycle:5": (5, 2), "path:4": (4, 2), "complete:4": (4, 3),
                 "grid:2x3": (6, 3)}


@st.composite
def _markov_cases(draw):
    """(config, oriented, cap, exponent): a domain of two to four vertices
    of a small graph, padded by up to two stationary self-edges per vertex
    beyond its largest degree, split by f1 and the rest."""
    graph = draw(st.sampled_from(sorted(_SMALL_GRAPHS)))
    size, degree = _SMALL_GRAPHS[graph]
    domain = draw(st.lists(st.integers(0, size - 1), min_size=2,
                           max_size=min(4, size - 1), unique=True))
    f1 = draw(st.lists(st.sampled_from(domain), min_size=1,
                       max_size=len(domain) - 1, unique=True))
    config = {"graph": graph, "domain": " ".join(map(str, sorted(domain))),
              "f1": " ".join(map(str, sorted(f1))),
              "g": str(degree + draw(st.integers(0, 2))),
              "jobs": "occupation-markov", "seed": "0"}
    return (config, draw(st.booleans()), draw(st.integers(3, 8)),
            draw(st.sampled_from([Fraction(1, 2), Fraction(1),
                                  Fraction(3, 2)])))


_SQUARE = {"graph": "grid:2x3", "domain": "0 1 3 4", "f1": "0 1", "g": "3",
           "jobs": "occupation-markov", "seed": "0"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_markov_cases())
@example((_SQUARE, False, 8, Fraction(1)))
@example((_SQUARE, True, 5, Fraction(3, 2)))
def test_windowed_law_is_the_full_law_on_its_window(case):
    """The law built on the Markov window of the cap equals the law of
    every total degree <= cap restricted to that window, and
    `_markov_defect` gives both the same statistic, cells checked and cells
    violated, untilted and tilted on each group.  The square of grid:2x3
    split across two boundary edges is not Markov at c = 2: the first
    example violates 16 of its 108 cells."""
    config, oriented, cap, exponent = case
    ws = build_workspace(config_from_dict(config))
    groups, idx_in, idx_bd, idx_out = markov_edge_partition(ws, oriented)
    # the full law's size, C(variables + cap, cap), kept small
    assume(math.comb(len(groups) + cap, cap) <= 5000)
    b, b_bd = verify._markov_bounds(cap)
    window = ((idx_in, b), (idx_bd, b_bd), (idx_out, b))
    full = occupation_law(ws.domain, groups, exponent, cap)
    law = occupation_law(ws.domain, groups, exponent, cap, window=window)
    assert law.weights == {
        n: w for n, w in full.weights.items()
        if all(sum(n[i] for i in idx) <= bound for idx, bound in window)}
    for tilt in (None, *range(len(groups))):
        assert _markov_defect(law, idx_in, idx_bd, idx_out, tilt) == \
            _markov_defect(full, idx_in, idx_bd, idx_out, tilt)


def test_occupation_markov_refuses_laws_it_would_mislabel(occupation_split):
    """A kind other than c or alpha, which would build the exponent-1 law
    under another name, and a nonpositive intensity, which would build
    signed weights, are refused."""
    dom, part = occupation_split
    with pytest.raises(OracleError, match="intensity kind 'C'"):
        verify_occupation_markov(dom, part, "C", Fraction(1), cap=6)
    for c in (Fraction(-1), Fraction(0)):
        with pytest.raises(OracleError, match="must be positive"):
            verify_occupation_markov(dom, part, "c", c, cap=6)
    with pytest.raises(OracleError, match="must be positive"):
        occupation_law(dom, part[0], Fraction(-1, 2), 6)


def test_occupation_markov_report_names_the_law_it_checked(occupation_split):
    """The check builds the law it reads, so its reports, tilted or not,
    name that law: at c = 2 the untilted one reads kind c, intensity 2 and
    fails 198 of 2,292 cells."""
    dom, part = occupation_split
    reports = verify_occupation_markov(dom, part, "c", Fraction(2),
                                       tilt_edge_groups=part[2][:1])
    assert [(r.details["intensity_kind"], r.details["intensity"],
             r.details["cap"], r.details["tilted"]) for r in reports] == \
        [("c", "2", 12, False), ("c", "2", 12, True)]
    untilted = reports[0]
    assert (untilted.details["cells_checked"],
            untilted.details["cells_violated"]) == (2292, 198)
    assert untilted.verdict == "fail"


def test_quiet_occupation_control_says_why_it_fails(occupation_split):
    """At cap 5 the c = 2 control checks cells but violates none: it fails
    with a note naming the window.  At cap 12 it violates cells, passes and
    carries no note."""
    dom, part = occupation_split
    reports = {cap: verify_occupation_markov(
        dom, part, "c", Fraction(2), cap=cap, expect_fail=True)[0]
        for cap in (5, 12)}
    quiet, loud = reports[5], reports[12]
    assert quiet.verdict == "fail"
    assert (quiet.details["cells_checked"], quiet.details["cells_violated"]) \
        == (24, 0)
    assert "window of cap 5" in quiet.details["note"]
    assert loud.passed and loud.details["cells_violated"] > 0
    assert "note" not in loud.details


@pytest.fixture(scope="module")
def k5_cats():
    cfg = config_from_dict({
        "graph": "complete:5", "domain": "1 2 3", "jobs": "lejan",
        "alpha": "1/2", "seed": "0", "l_max": "12",
    })
    ws = build_workspace(cfg)
    return ws


def test_gff_sampler(k5_cats):
    dom = k5_cats.domain
    rng = stream(50, "gff")
    n = 100000
    phi = sample_gff(dom, rng, size=n)
    G = green_function(dom).values
    emp = phi.T @ phi / n
    for i in range(dom.size):
        for j in range(dom.size):
            se = math.sqrt((G[i, i] * G[j, j] + G[i, j] ** 2) / n)
            assert abs(emp[i, j] - G[i, j]) < 4 * se
    # one-vertex case: Normal(0, G)
    g1 = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    d1 = Domain(g1, [0])
    x = sample_gff(d1, rng, size=50000)[:, 0]
    from scipy import stats as sps
    assert sps.kstest(x, sps.norm(scale=math.sqrt(2)).cdf).statistic < 0.01


def test_gff_requires_positive_definite():
    g = build_graph(4, [(0, 0, 1), (1, 0, 2), (2, 1, 0), (3, 1, 2),
                        (4, 2, 3), (5, 2, 3), (6, 3, 3), (7, 3, 3)])
    dom = Domain(g, [0, 1, 2])
    from loopsoup import GraphError
    with pytest.raises(GraphError):
        sample_gff(dom, stream(51, "bad"))   # non-symmetric Green matrix


def test_lejan_and_control(k5_cats):
    cat = k5_cats.catalog("oriented")
    rep = verify_lejan(cat, samples=60000, seed=52)
    assert rep.passed
    bad = verify_lejan(cat, samples=60000, seed=53, intensity=1.0,
                       expect_fail=True)
    # the control's verdict is the whole check flipped; its Laplace z-tests
    # must fail
    assert bad.passed and bad.statistic < bad.tolerance
    # the isomorphism is stated for oriented soups; an unoriented catalog is
    # refused, not tested against the alpha = 1/2 law
    with pytest.raises(GraphError, match="oriented soups"):
        verify_lejan(k5_cats.catalog("unoriented"), samples=200)


def test_random_currents(k5_cats):
    ucat = k5_cats.catalog("unoriented")
    rep = verify_random_currents(ucat, samples=40000, seed=54)
    assert rep.passed
    assert rep.details["even_degrees"]
    bad = verify_random_currents(ucat, samples=40000, seed=55, intensity=2.0,
                                 expect_fail=True)
    assert bad.passed
    # both run the in = out variant, on the catalog's oriented counterpart
    for r in (rep, bad):
        assert r.details["inout_ok"] is True
        assert 0 <= r.details["oriented_p"] <= 1
    # an oriented catalog is refused, not tested
    with pytest.raises(GraphError, match="take an unoriented catalog"):
        verify_random_currents(k5_cats.catalog("oriented"), samples=200)
    # on path:4 padded to g = 3, vertex 0 carries two stationary self-edges
    # of equal mass, so the ratio gate compares two skeletons of one site
    # pair (0, 0), unoriented and oriented
    ws = build_workspace(config_from_dict({
        "graph": "path:4", "domain": "0 1 2", "g": "3",
        "jobs": "random-currents", "seed": "0", "l_max": "8",
    }))
    ucat = ws.catalog("unoriented")
    rep = verify_random_currents(ucat, samples=20000, seed=0)
    assert rep.passed and rep.details["ratio_ok"]
    bad = verify_random_currents(ucat, samples=20000, seed=1, intensity=2.0,
                                 expect_fail=True)
    assert bad.passed and bad.details["positive_control"]


def test_ct_excursions(k5_cats):
    ucat = k5_cats.catalog("unoriented")
    rep = verify_ct_excursions(ucat, [1, 2], samples=20000, seed=56)
    assert rep.passed
    assert rep.details["parity_ok"] and rep.details["ratio_ok"]


def test_ct_excursions_control():
    """At intensity 2 the skeleton counts leave the conditioned-current law
    of unit intensity (pooled p = 3.5e-54 at seed 0), and the same call
    passes at intensity 1."""
    ws = build_workspace(config_from_dict({
        "graph": "complete:5", "domain": "1 2 3", "jobs": "ct-excursions",
        "seed": "0", "l_max": "8", "sites": "1 2",
    }))
    ucat = ws.catalog("unoriented")
    bad = verify_ct_excursions(ucat, [1, 2], samples=20000, seed=0,
                               intensity=2.0, expect_fail=True)
    assert bad.passed and bad.details["positive_control"]
    assert bad.statistic < bad.tolerance
    assert verify_ct_excursions(ucat, [1, 2], samples=20000, seed=0,
                                intensity=1.0).passed


def test_skeleton_checks_with_no_degree_of_freedom_test_nothing(
        k5_cats, monkeypatch):
    """Fewer than MIN_BIN_SAMPLES soups run no two-sample test, the pooled
    one included, as `_mc_driver` tests no such bin: nothing is tested.
    The run fails with a note, a control too, and reports no pooled
    p-value.  At 20 soups on two sites the pooled test, were it run, would
    pass (p = 1.0) with one degree of freedom."""
    ucat = k5_cats.catalog("unoriented")
    calls = []
    monkeypatch.setattr(verify.stats, "chi2_two_sample",
                        lambda *a: calls.append(a))
    for expect_fail in (False, True):
        for rep in (verify_ct_excursions(ucat, [1, 2, 3], samples=1, seed=0,
                                         expect_fail=expect_fail),
                    verify_ct_excursions(ucat, [1, 2], samples=20, seed=0,
                                         expect_fail=expect_fail),
                    verify_random_currents(ucat, samples=3, seed=0,
                                           expect_fail=expect_fail)):
            assert rep.verdict == "fail"
            assert rep.details["note"] == \
                "no skeleton test had enough soups and a degree of freedom"
            assert "pooled_p" not in rep.details
    assert not calls


def test_ct_excursions_one_site_keeps_asymmetric_skeletons_whole():
    """With one site on the K5 triangle, the excursions 1-2-3-1 and
    1-3-2-1 are one unoriented skeleton from 1 back to 1 that merges two
    orientations: its rate is not halved, as a self-reversed one's is."""
    ws = build_workspace(config_from_dict({
        "graph": "complete:5", "domain": "1 2 3", "jobs": "ct-excursions",
        "seed": "57", "l_max": "12", "sites": "1",
    }))
    rep = verify_ct_excursions(ws.catalog("unoriented"), [1], samples=20000,
                               seed=57)
    assert rep.passed
    assert rep.details["parity_ok"] and rep.details["ratio_ok"]


def test_random_currents_with_paired_self_loops(tmp_path):
    """K4 with two self-loops per vertex that the involution pairs (g = 5):
    each pair is one unoriented skeleton of one jump, at the full rate."""
    lines = ["vertices 4", "degree 5"]
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    eid = {ab: i for i, ab in enumerate(pairs)}
    lines += [f"edge {i} {a} {b} rev {eid[b, a]}" for (a, b), i in eid.items()]
    for v in range(4):
        e = len(pairs) + 2 * v
        lines += [f"edge {e} {v} {v} rev {e + 1}",
                  f"edge {e + 1} {v} {v} rev {e}"]
    path = tmp_path / "k4_paired_loops.graph"
    path.write_text("\n".join(lines) + "\n")
    ws = build_workspace(config_from_dict({
        "graph": f"file:{path}", "domain": "0 1 2", "jobs": "random-currents",
        "seed": "58", "l_max": "8",
    }))
    rep = verify_random_currents(ws.catalog("unoriented"), samples=20000,
                                 seed=58)
    assert rep.passed
    assert rep.details["ratio_ok"] and rep.details["inout_ok"]


def test_wilson_small():
    cfg = config_from_dict({
        "graph": "cycle:4", "domain": "1 2 3", "jobs": "wilson",
        "seed": "0", "l_max": "14", "root": "0",
    })
    ws = build_workspace(cfg)
    rep = verify_wilson(ws.catalog("oriented"), 0, runs=150000, seed=57)
    assert rep.passed
    assert rep.details["tree_marginal_uniform"]
    assert rep.details["n_trees"] == 4
    assert rep.details["naive_multiset_tv"] > 0.05   # the naive identity fails


def test_wilson_tree_input_no_loops():
    g = regularize_degree(build_graph(3, [(0, 0, 1), (1, 1, 0),
                                          (2, 1, 2), (3, 2, 1)]), 2)
    rng = stream(58, "tree")
    for _ in range(200):
        tree, erased = wilson_ust(g, 0, rng)
        assert set(tree) == {1, 2}
    # with a doubled path graph (a tree), loops of length >= 2 exist (back
    # and forth), so only verify the walk terminates and spans
    from loopsoup.wilson import WilsonError
    g2 = build_graph(2, [(0, 0, 1), (1, 0, 1)])
    with pytest.raises(WilsonError):
        wilson_ust(regularize_degree(g2, 2), 0, rng)   # root unreachable


@pytest.mark.parametrize("weights, n", [
    (0.55 ** np.arange(16), 670),                 # many rare categories
    (np.array([0.985, 0.01, 0.005]), 650),        # one dominating key
], ids=["geometric", "dominated"])
def test_independence_chi2_calibrated_on_independent_sides(weights, n):
    """Independent sides: the pooled test keeps its size (p < 1e-3 about
    0.4 times in 400 tables), tests every table, and keeps its power."""
    from loopsoup.verify import _independence_chi2
    rng = stream(0, "independence-chi2")
    weights = weights / weights.sum()
    pvals = []
    for _ in range(400):
        a, b = rng.choice(len(weights), size=(2, n), p=weights)
        pvals.append(_independence_chi2(Counter(zip(a.tolist(), b.tolist())), 2))
    assert all(p is not None for p in pvals)
    assert sum(p < 1e-3 for p in pvals) <= 2
    assert sum(p < 1e-2 for p in pvals) <= 12
    # dependent sides: the second copies the first half of the time
    a, b = rng.choice(len(weights), size=(2, n), p=weights)
    b = np.where(rng.random(n) < 0.5, a, b)
    assert _independence_chi2(Counter(zip(a.tolist(), b.tolist())), 2) < 1e-6
