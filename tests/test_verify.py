import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, GraphError, build_graph, green_function,
                      pair_reversals, regularize_degree, sample_gff,
                      unoriented_view, verify_ct_excursions, verify_lejan,
                      verify_occupation_markov, verify_prop1,
                      verify_prop1bis_3bis, verify_prop2, verify_prop5,
                      verify_prop5_degenerate, verify_random_currents,
                      verify_wilson, wilson_ust)
from loopsoup import excursions
from loopsoup.cli import markov_edge_partition
from loopsoup.config import build_workspace, config_from_dict
from loopsoup.exact import OccupationLaw, side_orbit_key
from loopsoup.excursions import (OrientedHookup, UnorientedHookup,
                                 extract_crossings_counts, hookup_loop_lengths,
                                 hookup_loops, reassemble)
from loopsoup.rng import stream
from loopsoup.soups import soup_count_rows
from loopsoup.verify import (MIN_BIN_SAMPLES, CrossingCut,
                             EdgeCut, ExcursionCut, _conditional_keys,
                             _markov_defect, _mc_driver, _verdict,
                             exact_conditional_beta, feasible_etas,
                             verify_residual_independence)


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
    from loopsoup.verify import ExcursionCut
    cat = ws_k12.catalog("oriented")
    cut = ExcursionCut(cat, {1}, {2})
    for eta in feasible_etas(cat, {1}, {2}, 1)[:4]:
        dist = exact_conditional_beta(cat, {1}, {2}, eta)
        assert sum(dist.values()) == 1
        assert list(dist) == sorted(dist)
        law, infeasible = cut.oracle(eta)
        assert dist == law
        assert 0 < infeasible < 1
    with pytest.raises(GraphError, match="edge 99999 is not in the graph"):
        exact_conditional_beta(cat, {1}, {2}, [(99999,)])
    # infeasible conditionings are rejected: an excursion path whose
    # endpoint misses the cut set
    g = ws_k12.graph
    e13 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 3))
    with pytest.raises(GraphError, match="endpoint not in the cut set"):
        exact_conditional_beta(cat, {1}, {2}, [(e13,)])
    # an excursion whose edges do not meet is refused where it breaks
    e21, e32 = (next(e.id for e in g.edges if (e.tail, e.head) == pair)
                for pair in ((2, 1), (3, 2)))
    with pytest.raises(GraphError, match="breaks the path"):
        exact_conditional_beta(cat, {1}, {2}, [(e21, e32)])


def test_prop1_conditional_depends_only_on_endpoints(ws_k12):
    """Distinct excursion vectors sharing (X, Y) induce the same conditional
    hookup law, pushed to endpoint-preserving orbits."""
    from collections import Counter, defaultdict
    from loopsoup.exact import conditional_multiset_law
    from loopsoup.excursions import (decompose_counts,
                                     oriented_hookup_orbit_key)
    from loopsoup.verify import ExcursionCut
    cat = ws_k12.catalog("oriented")
    cut = ExcursionCut(cat, {1}, {2})
    cands = cut.candidates
    by_xy = defaultdict(list)
    for eta in feasible_etas(cat, {1}, {2}, 2):
        w = conditional_multiset_law(cat, Fraction(1), cands, Counter(eta))
        total = sum(w.values())
        dist = {}
        XY = None
        for ms, wt in w.items():
            d = decompose_counts(cat, dict(ms), {1}, {2})
            XY = (d.X, d.Y)
            key = oriented_hookup_orbit_key(tuple(zip(d.X, d.Y)),
                                            d.beta_truth)
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
    deg = verify_prop5_degenerate(ucat, max_jumps=3)
    assert deg.passed


def test_prop2_z_measurability(ws_k12):
    """Distinct excursion vectors sharing the extremity vector induce the
    same conditional hookup law (pushed to extremity-preserving orbits)."""
    from loopsoup.exact import conditional_multiset_law
    from loopsoup.excursions import decompose_counts, z_orbit_key
    from loopsoup.verify import ExcursionCut
    from collections import Counter, defaultdict
    ucat = ws_k12.catalog("unoriented")
    cut = ExcursionCut(ucat, {1}, {2})
    cands = cut.candidates
    by_Z = defaultdict(list)
    for eta in feasible_etas(ucat, {1}, {2}, 2):
        w = conditional_multiset_law(ucat, Fraction(1), cands, Counter(eta))
        total = sum(w.values())
        dist = {}
        Z = None
        for ms, wt in w.items():
            d = decompose_counts(ucat, dict(ms), {1}, {2})
            Z = d.Z
            key = z_orbit_key(d.Z, d.beta_truth)
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
def test_cut_depends_only_on_touching_classes(k5, triangle_catalogs, data):
    """A soup cuts exactly as its sub-multiset of touching classes does, the
    fact the Monte Carlo driver's memo rests on."""
    cut = data.draw(st.sampled_from(_triangle_cuts(k5, triangle_catalogs)))
    keys = [c.key for c in cut.catalog.classes]
    touching = [k for k in keys if cut.touches(k)]
    others = [k for k in keys if not cut.touches(k)]
    soup = data.draw(st.permutations(
        data.draw(st.lists(st.sampled_from(touching), max_size=2))
        + data.draw(st.lists(st.sampled_from(others), max_size=3))))
    counts = dict(Counter(soup))
    sub = {k: v for k, v in sorted(counts.items()) if cut.touches(k)}

    assert cut.cut(counts) == cut.cut(sub)


def test_mc_driver_leaves_candidates_unbuilt(k5, triangle_catalogs):
    """A Monte Carlo run asks `touches` of the sampled classes and never
    cuts the whole catalog; the exact side still builds `candidates`."""
    for cut in _triangle_cuts(k5, triangle_catalogs):
        rep = _mc_driver("lazy", cut, 1.0, 3000, 0, False)
        assert rep.samples == 3000
        assert "candidates" not in cut.__dict__
        assert cut._touches and len(cut._touches) < len(cut.catalog)
        cut.targets(2)
        assert "candidates" in cut.__dict__


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


def test_crossing_cut_keys_every_two_copy_soup(triangle_catalogs):
    """Two copies of any K5-triangle class that crosses get side keys, every
    bin included: no orbit is too large to key."""
    cat, ucat = triangle_catalogs
    keyed = 0
    for cut in (CrossingCut(cat, [{1}, {2}]), CrossingCut(ucat, [{1}, {3}])):
        for cls in cut.catalog.classes:
            got = cut.cut({cls.key: 2})
            if got is None:
                continue
            cs = extract_crossings_counts(cut.catalog, {cls.key: 2}, cut.sets)
            assert got[1] == tuple(side_orbit_key(cs, i) for i in range(2))
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
        k5, triangle_catalogs, data):
    """An oracle configuration's longest walker loop exceeds L_max exactly
    when one of the classes it reassembles into is missing from the
    catalog: the mass the truncated-soup law leaves out.  The loops use every
    edge of the pieces and bridges once (up to reversal when unoriented),
    which reassembly over the same walk could not notice, and have the
    lengths the oracles read off the walk, which checks no junction."""
    cut = data.draw(st.sampled_from(_oracle_cuts(k5, triangle_catalogs)))
    edge = (lambda e: e) if cut.oriented else k5[2].edge_class
    single = [c.key for c in cut.catalog.classes
              if sum(cut.contribution(c.key).values()) == 1]
    soup = data.draw(st.lists(st.sampled_from(single), min_size=1, max_size=2))
    b, _ = cut.cut(dict(Counter(soup)))
    pieces, configs, _ = cut.bridge_configs(b)
    cat = cut.catalog
    graph = cat.domain.graph
    hookup = OrientedHookup if cut.oriented else UnorientedHookup
    assert configs
    for s, paths in configs:
        hook = hookup(s, paths)
        loops = hookup_loops(graph, pieces, hook, cut.inv)
        assert hookup_loop_lengths(pieces, hook) == list(map(len, loops))
        assert Counter(map(edge, (e for lp in loops for e in lp))) == \
               Counter(map(edge, (e for p in pieces + paths for e in p)))
        longest = max(map(len, loops))
        keys = reassemble(pieces, hook, graph, cut.inv)
        assert (longest > cat.L_max) == any(k not in cat.by_key for k in keys)


def test_oracles_do_not_canonicalize(k5, triangle_catalogs, monkeypatch):
    """The oracles read loop lengths off the hookup walker and build no loop
    class."""
    bins = []
    for cut in _oracle_cuts(k5, triangle_catalogs):
        for target in cut.targets(2)[:4]:
            b = _conditional_keys(cut, Fraction(1), target)[1]
            bins.append((cut, b, cut.oracle(b)))

    def refuse(*args):
        raise AssertionError("an oracle canonicalized a loop")

    monkeypatch.setattr(excursions, "canonicalize_oriented", refuse)
    monkeypatch.setattr(excursions, "canonicalize_unoriented", refuse)
    for cut, b, before in bins:
        assert cut.oracle(b) == before
    # the walker's length check removes mass beyond the bridges too long to
    # enumerate, in every bin
    for cut, b, (_, infeasible) in bins:
        assert infeasible > 1 - sum(cut.bridge_configs(b)[1].values())


def test_residual_coupling(ws_k12):
    rep = verify_residual_independence(ws_k12.catalog("oriented"),
                                       [{1}, {2}])
    assert rep.passed


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


def test_mc_driver_tests_every_bin_at_the_floor(three_set_run):
    """The sample floor is the Monte Carlo driver's one bin rule: recounted
    from the same soups, every bin holding MIN_BIN_SAMPLES soups is tested,
    in bin-key order, and tested + skipped is the number of bins."""
    ucat, rep = three_set_run
    cut = CrossingCut(ucat, THREE_SETS)
    cuts: dict = {}
    bins: Counter = Counter()
    for counts in soup_count_rows(ucat, "unoriented", 1.0, rep.samples,
                                  stream(rep.seed, rep.prop)):
        sub = tuple(sorted((k, n) for k, n in counts.items() if cut.touches(k)))
        if not sub:
            continue
        if sub not in cuts:
            cuts[sub] = cut.cut(dict(sub))
        if cuts[sub] is not None:
            bins[cuts[sub][0]] += 1
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
    rep = verify_occupation_markov(ws.domain, part,
                                   intensity_kind="c", cap=12)
    assert rep.passed and rep.details["cells_violated"] == 0
    tilted = verify_occupation_markov(ws.domain, part,
                                      intensity_kind="c", cap=12,
                                      tilt_edge_group=part[2][0])
    assert tilted.passed
    part_o = markov_edge_partition(ws, oriented=True)
    rep_o = verify_occupation_markov(ws.domain, part_o,
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
    ug = unoriented_view(g, inv)
    dom = Domain(g, [1, 2, 3, 4])
    groups = [(0, 1), (2, 3), (4, 5), (6, 7)]
    part = (groups, [0], [1, 3], [2])
    rep = verify_occupation_markov(dom, part, intensity_kind="c",
                                   intensity=Fraction(1), cap=12,
                                   allow_marginal=True)
    assert rep.passed
    bad = verify_occupation_markov(dom, part, intensity_kind="c",
                                   intensity=Fraction(2), cap=12,
                                   allow_marginal=True, expect_fail=True)
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
    rep = verify_occupation_markov(ws.domain, part, cap=2)
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
def k5_cats():
    cfg = config_from_dict({
        "graph": "complete:5", "domain": "1 2 3", "jobs": "lejan",
        "seed": "0", "l_max": "12",
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
    rep = verify_random_currents(ucat, samples=40000, seed=54,
                                 oriented_catalog=k5_cats.catalog("oriented"))
    assert rep.passed
    assert rep.details["even_degrees"] and rep.details["inout_ok"]
    bad = verify_random_currents(ucat, samples=40000, seed=55, intensity=2.0,
                                 expect_fail=True)
    assert bad.passed
    # a catalog of the wrong mode is refused, not tested
    with pytest.raises(GraphError, match="oriented one"):
        verify_random_currents(ucat, samples=200, oriented_catalog=ucat)
    # on path:4 padded to g = 3, vertex 0 carries two stationary self-edges
    # of equal mass, so the ratio gate compares two skeletons of one site
    # pair (0, 0), unoriented and oriented
    ws = build_workspace(config_from_dict({
        "graph": "path:4", "domain": "0 1 2", "g": "3",
        "jobs": "random-currents", "seed": "0", "l_max": "8",
    }))
    ucat, ocat = ws.catalog("unoriented"), ws.catalog("oriented")
    rep = verify_random_currents(ucat, samples=20000, seed=0,
                                 oriented_catalog=ocat)
    assert rep.passed and rep.details["ratio_ok"]
    bad = verify_random_currents(ucat, samples=20000, seed=1, intensity=2.0,
                                 oriented_catalog=ocat, expect_fail=True)
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


def test_wilson_small():
    cfg = config_from_dict({
        "graph": "cycle:4", "domain": "1 2 3", "jobs": "wilson",
        "seed": "0", "l_max": "14", "root": "0",
    })
    ws = build_workspace(cfg)
    rep = verify_wilson(ws.graph, 0, ws.catalog("oriented"), runs=150000,
                        seed=57)
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
