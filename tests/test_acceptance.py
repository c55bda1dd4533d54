"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic given the seeds below.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from loopsoup import (Domain, build_graph, complete_graph, cycle_graph,
                      enumerate_loops, green_function, regularize_degree,
                      sample_bridge, sample_unordered_bridge, sample_z_bridge,
                      verify_lejan, verify_occupation_markov, verify_prop1,
                      verify_prop1bis_3bis, verify_prop2, verify_prop5,
                      verify_prop5_degenerate, verify_random_currents,
                      verify_wilson)
from loopsoup.bridges import pairing_weights, permutation_weights
from loopsoup.cli import main as cli_main, markov_edge_partition
from loopsoup.config import build_workspace, config_from_dict
from loopsoup.rng import stream
from loopsoup.stats import chi2_gof


def _line(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@pytest.fixture(scope="module")
def ws_sharp():
    """Triangle {1,2,3} in complete:12 (g = 11): little infeasible mass."""
    cfg = config_from_dict({
        "graph": "complete:12", "domain": "1 2 3", "jobs": "prop1",
        "seed": "0", "l_max": "6", "f1": "1", "f2": "2",
    })
    return build_workspace(cfg)


@pytest.fixture(scope="module")
def ws_k5():
    cfg = config_from_dict({
        "graph": "complete:5", "domain": "1 2 3", "jobs": "lejan",
        "seed": "0", "l_max": "14",
    })
    return build_workspace(cfg)


def test_criterion_1_measure_consistency():
    """K3 at g = 2: catalog mass equals the rational trace sum, exactly."""
    t0 = time.time()
    g = complete_graph(3)
    dom = Domain(g, [0, 1, 2], allow_recurrent=True)
    P = dom.transition_matrix_exact()

    def matmul(A, B):
        n = len(A)
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    ok = True
    for L in (4, 6, 8):
        cat = enumerate_loops(dom, L)
        tot = Fraction(0)
        M = [row[:] for row in P]
        for n in range(1, L + 1):
            tot += Fraction(sum(M[i][i] for i in range(3)), n)
            M = matmul(M, P)
        ok &= cat.total_mass == tot
    dt = time.time() - t0
    ok &= dt < 10
    _line(1, ok, f"K3 trace identity exact for L in (4,6,8); {dt:.1f}s")


def test_criterion_2_prop1_exact(ws_sharp):
    t0 = time.time()
    cat = ws_sharp.catalog("oriented")
    rep = verify_prop1(cat, {1}, {2}, mode="exact")
    ctrl = verify_prop1(cat, {1}, {2}, mode="exact", intensity=Fraction(2),
                        expect_fail=True)
    # the control passes by being unequal on at least one conditioning
    unequal = sum(e["tv"] > 0 for e in ctrl.details["per_eta"])
    dt = time.time() - t0
    ok = rep.passed and ctrl.passed and ctrl.statistic > 0.1 and dt < 300
    _line(2, ok, f"oriented resampling equal to the truncated-soup law over "
          f"{rep.details['etas_tested']} conditionings (worst tv "
          f"{rep.statistic:.2e}); alpha=2 control unequal on {unequal}, "
          f"worst tv {ctrl.statistic:.3f}; {dt:.1f}s")


def test_criterion_3_prop2_prop5_exact(ws_sharp):
    t0 = time.time()
    ucat = ws_sharp.catalog("unoriented")
    rep2 = verify_prop2(ucat, {1}, {2}, mode="exact")
    ctrl2 = verify_prop2(ucat, {1}, {2}, mode="exact", intensity=Fraction(2),
                         expect_fail=True)
    ug = ws_sharp.unoriented
    cls12 = next(k for k in ug.edge_classes if ug.class_endpoints(k) == (1, 2))
    rep5 = verify_prop5(ucat, [cls12], mode="exact")
    ctrl5 = verify_prop5(ucat, [cls12], mode="exact", intensity=Fraction(2),
                         expect_fail=True)
    deg = verify_prop5_degenerate(ucat, max_jumps=3)
    dt = time.time() - t0
    ok = all(r.passed for r in (rep2, ctrl2, rep5, ctrl5, deg)) and dt < 600
    _line(3, ok, f"unoriented and removed-edge resampling exact "
          f"(worst {max(rep2.statistic, rep5.statistic):.2e}); uniform "
          f"hat-exchange degenerate case exact ({deg.statistic:.2e}); "
          f"c=2 controls fail as required; {dt:.1f}s")


@pytest.fixture(scope="module")
def ws_k8():
    cfg = config_from_dict({
        "graph": "complete:8", "domain": "1 2 3 4", "jobs": "prop1bis",
        "seed": "0", "l_max": "8", "f1": "1", "f2": "3",
    })
    return build_workspace(cfg)


def test_criterion_4_independence(ws_k8):
    t0 = time.time()
    cat = ws_k8.catalog("oriented")
    rep = verify_prop1bis_3bis(cat, [{1}, {3}], mode="exact",
                               max_crossings=4, max_targets=3)
    ucat = ws_k8.catalog("unoriented")
    rep3 = verify_prop1bis_3bis(ucat, [{1}, {3}], mode="exact",
                                max_crossings=4, max_targets=3)
    # Monte Carlo independence at one million samples
    cfgm = config_from_dict({
        "graph": "complete:8", "domain": "1 2 3 4", "jobs": "prop1bis",
        "seed": "0", "l_max": "12", "f1": "1", "f2": "3",
    })
    wsm = build_workspace(cfgm)
    mc = verify_prop1bis_3bis(wsm.catalog("oriented"), [{1}, {3}], mode="mc",
                              samples=10 ** 6, seed=101)
    dt = time.time() - t0
    ok = rep.passed and rep3.passed and mc.passed and dt < 600
    _line(4, ok, f"two-sided independence: joint completion law equal to "
          f"the truncated-soup law (worst tv "
          f"{max(rep.statistic, rep3.statistic):.2e}); MC chi-square over "
          f"{mc.details['bins_tested']} bins "
          f"(min p {mc.statistic:.3g} vs {mc.tolerance:.2e}); {dt:.0f}s")


def test_criterion_5_occupation_markov():
    t0 = time.time()
    cfg = config_from_dict({
        "graph": "cycle:5", "domain": "1 2 3 4", "jobs": "occupation-markov",
        "seed": "0", "l_max": "6", "f1": "1 2",
    })
    ws = build_workspace(cfg)
    part = markov_edge_partition(ws, oriented=False)
    rep_u = verify_occupation_markov(ws.domain, part,
                                     intensity_kind="c", cap=12)
    part_o = markov_edge_partition(ws, oriented=True)
    rep_o = verify_occupation_markov(ws.domain, part_o,
                                     intensity_kind="alpha",
                                     intensity=Fraction(1), cap=9)
    tilt = verify_occupation_markov(ws.domain, part,
                                    intensity_kind="c", cap=12,
                                    tilt_edge_group=part[2][0])
    dt = time.time() - t0
    ok = (rep_u.passed and rep_o.passed and tilt.passed
          and max(rep_u.statistic, rep_o.statistic, tilt.statistic) == 0.0
          and dt < 300)
    _line(5, ok, f"occupation-field Markov property exact: every boundary "
          f"block a product, TV to the Markov projection "
          f"{max(rep_u.statistic, rep_o.statistic)} (c=1 and oriented "
          f"two-component), persists under edge tilt theta=1/2; {dt:.0f}s")


def test_criterion_6_lejan(ws_k5):
    t0 = time.time()
    cat = ws_k5.catalog("oriented")
    rep = verify_lejan(cat, samples=10 ** 5, seed=106)
    ctrl = verify_lejan(cat, samples=10 ** 5, seed=107, intensity=1.0,
                        expect_fail=True)
    dt = time.time() - t0
    # the control's verdict is the whole check flipped; its Laplace z-tests
    # must fail
    ok = (rep.passed and ctrl.passed and ctrl.statistic < ctrl.tolerance
          and dt < 120)
    _line(6, ok, f"half-intensity occupation = GFF half-square: worst "
          f"Laplace p {rep.statistic:.3g} over {rep.details['points_tested']} "
          f"points (>{rep.tolerance:.2g}); alpha=1 control p "
          f"{ctrl.statistic:.3g} fails; {dt:.0f}s")


def test_criterion_7_random_currents(ws_k5):
    t0 = time.time()
    ucat = ws_k5.catalog("unoriented")
    rep = verify_random_currents(ucat, samples=10 ** 5, seed=108,
                                 oriented_catalog=ws_k5.catalog("oriented"))
    dt = time.time() - t0
    ok = (rep.passed and rep.details["even_degrees"]
          and rep.details["inout_ok"] and dt < 300)
    _line(7, ok, f"random currents: even degrees on 100% of samples, "
          f"per-bin chi-square min p {rep.statistic:.3g} vs "
          f"{rep.tolerance:.2e}, oriented in=out everywhere; {dt:.0f}s")


def test_criterion_8_wilson():
    t0 = time.time()
    cfg = config_from_dict({
        "graph": "cycle:4", "domain": "1 2 3", "jobs": "wilson",
        "seed": "0", "l_max": "14", "root": "0",
    })
    ws = build_workspace(cfg)
    rep = verify_wilson(ws.graph, 0, ws.catalog("oriented"), runs=10 ** 6,
                        seed=109)
    dt = time.time() - t0
    ok = rep.passed and rep.details["tree_marginal_uniform"] and dt < 600
    _line(8, ok, f"Wilson cross-check: {rep.details['n_trees']} spanning "
          f"trees uniform within 3 s.e. over 1e6 runs; erased cycles vs "
          f"resolved soup TV {rep.statistic:.4f} (<0.01; raw multiset TV "
          f"{rep.details['naive_multiset_tv']:.3f} documents the winding "
          f"mismatch); {dt:.0f}s")


def test_criterion_9_bridge_laws(ws_k5):
    t0 = time.time()
    from loopsoup.bridges import bridge_probability_exact, enumerate_bridges
    oks = []
    # fixture 1: self-loop vertex, geometric law
    g1 = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    d1 = Domain(g1, [0])
    # fixture 2: triangle in complete:5
    d2 = Domain(ws_k5.graph, [1, 2, 3])
    # fixture 3: path of four vertices in cycle:6
    g3 = cycle_graph(6)
    d3 = Domain(g3, [1, 2, 3, 4])
    rng = stream(110, "bridge-laws")
    for dom, (x, y), cap in ((d1, (0, 0), 14), (d2, (1, 3), 9), (d3, (1, 4), 11)):
        green = green_function(dom, exact=True)
        probs = {}
        for b in enumerate_bridges(dom, x, y, cap):
            probs[b.n] = probs.get(b.n, 0.0) + float(
                bridge_probability_exact(dom, b, green))
        n = 30000
        lens = Counter(sample_bridge(dom, x, y, rng).n for _ in range(n))
        _, dof, p = chi2_gof(lens, probs, n)
        oks.append(p > 1e-3)
    # permutation frequencies against Green-product ratios
    gk12 = complete_graph(12)
    dk = Domain(gk12, [1, 2, 3])
    green = green_function(dk)
    X, Y = (1, 2), (1, 3)
    w = permutation_weights(green, X, Y)
    tot = sum(w.values())
    n = 10 ** 5
    perms = Counter(sample_unordered_bridge(dk, X, Y, rng).permutation
                    for _ in range(n))
    for s, weight in w.items():
        p = weight / tot
        oks.append(abs(perms[s] - n * p) <= 3 * math.sqrt(n * p * (1 - p)))
    # pairing frequencies on a genuine 4-cycle domain
    edges = []
    eid = 0
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 1), (1, 0)]:
        edges.append((eid, a, b))
        edges.append((eid + 1, b, a))
        eid += 2
    g4 = regularize_degree(build_graph(5, edges), 3)
    d4 = Domain(g4, [1, 2, 3, 4])
    green4 = green_function(d4)
    Z = (1, 2, 3, 4)
    wz = pairing_weights(green4, Z)
    totz = sum(wz.values())
    pairs = Counter(sample_z_bridge(d4, Z, rng).pairing for _ in range(n))
    for t, weight in wz.items():
        p = weight / totz
        oks.append(abs(pairs[t] - n * p) <= 3 * math.sqrt(n * p * (1 - p)))
    dt = time.time() - t0
    ok = all(oks) and dt < 120
    _line(9, ok, f"bridge laws: length chi-square on 3 fixtures, permutation "
          f"and pairing frequencies within 3 s.e. at 1e5 draws; {dt:.0f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg_text = """
graph = complete:5
domain = 1 2 3
f1 = 1
f2 = 2
sites = 1 2
l_max = 6
seed = 12345
samples = 20000
mode = mc
jobs = enumerate, prop1, sample-soup
"""
    p = tmp_path / "determinism.cfg"
    p.write_text(cfg_text)
    rc1 = cli_main(["run", str(p), "--out", str(tmp_path / "r1")])
    rc2 = cli_main(["run", str(p), "--out", str(tmp_path / "r2")])
    same = ((tmp_path / "r1" / "report.json").read_bytes()
            == (tmp_path / "r2" / "report.json").read_bytes())
    csv_same = all(
        (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()
        for f in ("loop_length_spectrum.csv", "occupation_edge_hist.csv",
                  "bridge_length_hist.csv"))
    dt = time.time() - t0
    ok = rc1 == rc2 == 0 and same and csv_same
    _line(10, ok, f"reports byte-identical across reruns of the same "
          f"(config, seed); {dt:.0f}s")
