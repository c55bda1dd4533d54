"""Verification engine: exact conditional-law oracles and Monte Carlo tests.

Every verification produces a TestReport carrying its statistic, tolerance,
seed, truncation data and verdict, and is reproducible bit-for-bit from the
same inputs.  Exact resampling modes decide, as an equality of Fractions,
that each conditional law is equal to the truncated-soup law: the bridge
measure restricted to the hookups whose loops all fit in the catalog's
length cap, renormalized.  Monte Carlo modes compare sampled soups against
independent oracle samplers with chi-square or total-variation statistics.

Positive controls run the same machinery at the wrong intensity and must
fail; they demonstrate that the tests can distinguish the special intensities
(alpha = 1 oriented, c = 1 unoriented) from nearby ones.

The resampling checks share one structure, defined here.  A Cut says how a
statement cuts loops: ExcursionCut (Props. 1 and 2), EdgeCut (Prop. 5) and
CrossingCut (Props. 1bis and 3bis) give each class's contribution, cut a
class multiset into its bin and hookup key, and give the truncated-soup
law of a bin from the bridge laws in `exact`.  `_exact_driver` decides, per
feasible target, that the conditional law of the keys equals that law;
`_mc_driver` samples soups, cuts the touching ones into bins and tests each
bin (goodness of fit against the oracle, or independence of the sides for
crossings) under one Bonferroni correction.

A cut touches only what it needs.  Its `candidates` (every catalog class it
splits, with contribution) are built on first use by the exact driver and
`targets`.  The Monte Carlo driver never builds them: it asks the memoized
`touches(key)` of the classes its soups hold, draws the soups in batched
rows (`soups.soup_count_rows`), and cuts each distinct touching
sub-multiset once.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product, zip_longest

import numpy as np
from scipy import stats as sps

from . import stats
from .exact import (DiscreteDistribution, OracleError, conditional_multiset_law,
                    occupation_law, side_orbit_key, side_pair_orbit,
                    tv_distance, unordered_bridge_law, validate_eta,
                    z_bridge_law)
from .excursions import (OrientedHookup, UnorientedHookup, decompose_counts,
                         extract_crossings_counts, hookup_loops,
                         loop_skeletons, oriented_hookup_orbit_key,
                         path_endpoints, record_edge_jumps_counts,
                         unoriented_hookup_orbit_key)
from .graph import Domain, green_function
from .loops import LoopCatalog, enumerate_loops
from .rng import stream
from .soups import FieldSampler, LoopSoup, soup_count_rows
from .wilson import _EdgeDice, check_root, pop_cycles, wilson_ust

CMI_TOL = 1e-12
CHI2_SIGNIFICANCE = 1e-3
MC_TV_TOL = 0.01
MIN_BIN_SAMPLES = 200


@dataclass
class TestReport:
    """Outcome of one verification run (schema fixed by the report contract)."""

    prop: str
    mode: str
    statistic: float
    tolerance: float
    samples: int
    seed: int | None
    L_max: int | None
    tail_bound: float | None
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "prop": self.prop,
            "mode": self.mode,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "seed": self.seed,
            "L_max": self.L_max,
            "tail_bound": self.tail_bound,
            "verdict": self.verdict,
            "details": self.details,
        }


def _report(prop, mode, stat, tol, ok, catalog=None, samples=0, seed=None,
            **details) -> TestReport:
    return TestReport(
        prop=prop, mode=mode, statistic=float(stat), tolerance=float(tol),
        samples=samples, seed=seed,
        L_max=catalog.L_max if catalog is not None else None,
        tail_bound=catalog.tail_bound if catalog is not None else None,
        verdict="pass" if ok else "fail", details=details,
    )


# -- cuts: how each resampling statement cuts loops into conditioned pieces ----


class Cut:
    """One way of cutting loops into pieces, and the hookup law given them.

    A kind says what a catalog class contributes (the Counter of pieces it is
    cut into), cuts a class multiset into its bin (the conditioned pieces)
    and the orbit key of its hookup, and gives the truncated-soup law of the
    keys in a bin.  The kinds are ExcursionCut (Props. 1 and 2), EdgeCut
    (Prop. 5) and CrossingCut (Props. 1bis and 3bis).
    """

    def __init__(self, catalog: LoopCatalog):
        self.catalog = catalog
        self.oriented = catalog.mode == "oriented"
        self.inv = None if self.oriented else catalog.unoriented_graph.involution
        self._touches: dict = {}

    @cached_property
    def candidates(self) -> list:
        """(key, mass, contribution) for every catalog class the cut splits.

        Built on first use, by the exact oracles and `targets`; it cuts every
        class of the catalog, which the Monte Carlo driver never needs.
        """
        out = []
        for cls in self.catalog.classes:
            contrib = self.contribution(cls.key)
            if contrib:
                out.append((cls.key, cls.mass, contrib))
        return out

    def touches(self, key) -> bool:
        """Whether the cut splits class `key` (memoized per class)."""
        hit = self._touches.get(key)
        if hit is None:
            hit = self._touches[key] = bool(self.contribution(key))
        return hit

    def targets(self, max_size: int) -> list[Counter]:
        """Conditioning targets: single contributions of size <= max_size and
        sums of two contributions of size <= max_size / 2, in target order."""
        found = set()
        halves = []
        for _, _, contrib in self.candidates:
            size = sum(contrib.values())
            if size <= max_size:
                found.add(tuple(sorted(contrib.items())))
            if 2 * size <= max_size:
                halves.append(contrib)
        for i, c1 in enumerate(halves):
            for c2 in halves[i:]:
                found.add(tuple(sorted((c1 + c2).items())))
        return [Counter(dict(t)) for t in sorted(found, key=self.target_order)]

    # the order of the targets, and so of per_eta/per_target in a report
    target_order = None

    def bin_order(self, item):
        """Sort key of a (bin, key counts) pair: the order bins are tested in."""
        return item[0]

    def testable(self, b) -> bool:
        return True

    def bin_p(self, b, counts: Counter, n: int):
        """p-value of the sampled keys of a bin against its law, or None."""
        law, _ = self.oracle(b)
        expected = {k: float(v) for k, v in law.items()}
        _, dof, p = stats.chi2_gof(counts, expected, n)
        return p if dof > 0 else None

    def oracle(self, b):
        """(truncated-soup law of the hookup keys of bin b, infeasible mass).

        The law is the bridge measure restricted to the configurations whose
        loops, as the hookup walker closes them, all fit in L_max, then
        renormalized: the exact conditional law of the truncated soup.  The
        infeasible mass is the bridge mass left out, bridges too long to
        enumerate included (no loop holding one fits).
        """
        pieces, configs, flippable = self.bridge_configs(b)
        graph = self.catalog.domain.graph
        law: dict = {}
        for (s, paths), pr in configs.items():
            hook = (OrientedHookup if self.oriented else UnorientedHookup)(s, paths)
            loops = hookup_loops(graph, pieces, hook, self.inv)
            if max(map(len, loops)) > self.catalog.L_max:
                continue
            if self.oriented:
                key = oriented_hookup_orbit_key(pieces, hook)
            else:
                key = unoriented_hookup_orbit_key(pieces, hook, flippable,
                                                  self.inv)
            law[key] = law.get(key, 0) + pr
        feasible = sum(law.values())
        return {k: v / feasible for k, v in law.items()}, 1 - feasible

    def laws(self, intensity: Fraction, target: Counter):
        """(report entry, conditional law of the hookup keys given `target`,
        truncated-soup law of its bin)."""
        cond, b = _conditional_keys(self, intensity, target)
        law, infeasible = self.oracle(b)
        return {**self.label(b), "infeasible": float(infeasible)}, cond, law


class ExcursionCut(Cut):
    """Loops meeting F1 and F2, cut at F2 into the excursions through F1;
    bins are excursion vectors eta, the oracle is the unordered (oriented)
    or pairing-weighted (unoriented) bridge measure in D minus F1."""

    def __init__(self, catalog: LoopCatalog, F1, F2):
        self.F1, self.F2 = F1, F2
        self.sub = catalog.domain.without_vertices(F1)
        super().__init__(catalog)

    def contribution(self, key) -> Counter:
        return Counter(decompose_counts(self.catalog, {key: 1},
                                        self.F1, self.F2).eta)

    def cut(self, counts, max_size=None):
        """(eta, hookup key), or None without excursions or beyond max_size."""
        d = decompose_counts(self.catalog, counts, self.F1, self.F2)
        if not d.N or (max_size is not None and d.N > max_size):
            return None
        if self.oriented:
            return d.eta, oriented_hookup_orbit_key(d.eta, d.beta_truth)
        return d.eta, unoriented_hookup_orbit_key(d.eta, d.beta_truth,
                                                  involution=self.inv)

    @staticmethod
    def target_order(items):
        return tuple(sorted(Counter(dict(items)).elements()))

    def label(self, eta) -> dict:
        return {"eta_lengths": [len(p) for p in eta]}

    def bridge_configs(self, eta):
        """(pieces, bridge-measure configurations, flippable slot pairs)."""
        graph = self.catalog.domain.graph
        ends = [path_endpoints(graph, p) for p in eta]
        if self.oriented:
            configs, _ = unordered_bridge_law(self.sub, [b for _, b in ends],
                                              [a for a, _ in ends],
                                              self.catalog.L_max)
        else:
            configs, _ = z_bridge_law(self.sub, tuple(v for e in ends for v in e),
                                      self.inv, self.catalog.L_max)
        return eta, configs, ()


class EdgeCut(Cut):
    """Loops cut at their jumps across removed edge classes; bins are jump
    count vectors, the oracle is the pairing-weighted bridge measure in the
    domain without those edges."""

    def __init__(self, catalog: LoopCatalog, removed):
        if catalog.mode != "unoriented":
            raise OracleError("the removed-edge resampling works on unoriented soups")
        self.removed = tuple(sorted(tuple(k) for k in removed))
        self.sub = catalog.domain.without_edges(
            {eid for ck in self.removed for eid in ck})
        super().__init__(catalog)

    def contribution(self, key) -> Counter:
        ug = self.catalog.unoriented_graph
        return Counter(ck for ck in map(ug.edge_class, key) if ck in self.removed)

    def _pieces(self, jumps):
        """Single-jump paths, one per instance, running small endpoint to large."""
        graph = self.catalog.domain.graph
        pieces = []
        for ckey, n in zip(self.removed, jumps):
            eid = ckey[0]
            e = graph.edge_by_id[eid]
            pieces.extend([(eid,) if e.tail <= e.head else (self.inv(eid),)] * n)
        return tuple(pieces)

    def cut(self, counts, max_size=None):
        """(jump counts, hookup key), or None without jumps or beyond max_size."""
        rec = record_edge_jumps_counts(self.catalog, counts, self.removed)
        total = sum(rec.counts)
        if not total or (max_size is not None and total > max_size):
            return None
        return rec.counts, unoriented_hookup_orbit_key(
            self._pieces(rec.counts), rec.hookup, rec.self_edge_slots, self.inv)

    def label(self, jumps) -> dict:
        return {"jumps": {str(c): n for c, n in zip(self.removed, jumps) if n}}

    def bridge_configs(self, jumps):
        graph = self.catalog.domain.graph
        pieces = self._pieces(jumps)
        Z = tuple(v for p in pieces for v in path_endpoints(graph, p))
        # self-edge jumps have indistinguishable ends
        flips = tuple((2 * i, 2 * i + 1) for i in range(len(pieces))
                      if Z[2 * i] == Z[2 * i + 1])
        configs, _ = z_bridge_law(self.sub, Z, self.inv, self.catalog.L_max)
        return pieces, configs, flips


class CrossingCut(Cut):
    """Loops cut at visits to the marked sets into crossings between them;
    bins are crossing configurations, keyed by the per-set completions.

    Monte Carlo bins test independence of the sides instead of an oracle.
    Bins whose crossings eat into the truncation budget (fewer than `slack`
    spare steps below L_max) are skipped: for those the truncated soup
    genuinely couples the sides through the leftover length budget, a pure
    cutoff artifact.  The exact mode has no such skip: the conditional law
    it checks is equal to the truncated-soup law, which carries the
    coupling.
    """

    slack = 6

    def __init__(self, catalog: LoopCatalog, sets):
        self.sets = tuple(frozenset(s) for s in sets)
        super().__init__(catalog)

    def contribution(self, key) -> Counter:
        return Counter(extract_crossings_counts(self.catalog, {key: 1},
                                                self.sets).instances)

    def cut(self, counts, max_size=None):
        """(crossing key, per-side completion keys), or None without crossings;
        the keys are None in an untestable bin, which never reads them (their
        orbit groups can outgrow the budget on legal soups)."""
        cs = extract_crossings_counts(self.catalog, counts, self.sets)
        if not cs.instances:
            return None
        ck = cs.crossing_key()
        if not self.testable(ck):
            return ck, None
        return ck, tuple(side_orbit_key(cs, i) for i in range(len(self.sets)))

    target_order = staticmethod(repr)

    def bin_order(self, item):
        return -sum(item[1].values())

    def label(self, ck) -> dict:
        return {"crossings": sum(len(v) for _, v in ck)}

    def testable(self, ck) -> bool:
        cross_steps = sum(len(p) for _, paths in ck for p in paths)
        return cross_steps <= self.catalog.L_max - self.slack

    def bin_p(self, ck, counts: Counter, n: int):
        return _independence_chi2(list(counts.elements()), len(self.sets))

    def laws(self, intensity: Fraction, target: Counter):
        """(report entry, conditional law of the joint completion given the
        crossings `target`, its truncated-soup law).

        The joint completion is every side's hookup, up to relabeling
        identical crossings at once (`side_pair_orbit`); for oriented soups
        it is the class multiset itself.  It stands for a number of labeled
        configurations of the per-side bridge measures, each of mass
        g^-(its bridge steps) over a normalizer shared by the bin; the law
        renormalizes over the completions the catalog realizes, those whose
        loops all fit in L_max.
        """
        weights = conditional_multiset_law(self.catalog, intensity,
                                           self.candidates, target)
        g = self.catalog.domain.g
        cross_steps = sum(len(p) * n for (_, p), n in target.items())
        total = sum(weights.values())
        cond: dict = {}
        bridge: dict = {}
        for ms, w in weights.items():
            counts = dict(ms)
            cs = extract_crossings_counts(self.catalog, counts, self.sets)
            key, n = side_pair_orbit(cs, self.inv)
            steps = sum(len(k) * u for k, u in counts.items())
            cond[key] = cond.get(key, 0) + w / total
            # multisets sharing a key (the orientations of a returning arc)
            # share its configurations
            bridge[key] = n * Fraction(1, g ** (steps - cross_steps))
        z = sum(bridge.values())
        return ({"crossings": sum(target.values()), "support": len(cond)},
                cond, {k: v / z for k, v in bridge.items()})


# -- the drivers -------------------------------------------------------------------


def _conditional_keys(cut: Cut, intensity: Fraction, target: Counter):
    """Conditional law of the hookup keys given `target`, and its bin."""
    weights = conditional_multiset_law(cut.catalog, intensity, cut.candidates,
                                       target)
    total = sum(weights.values())
    cond: dict = {}
    for ms, w in weights.items():
        b, key = cut.cut(dict(ms))
        cond[key] = cond.get(key, Fraction(0)) + w / total
    return cond, b


def _exact_driver(cut: Cut, intensity: Fraction, targets: list):
    """Decide, per target, that the conditional law equals the truncated-soup
    law of its bin, as Fractions; returns (every pair equal, worst total
    variation, per-target entries).

    The total variations are floats for display: each is exactly 0.0 when
    its two laws are equal, and the verdict is the equality itself.
    """
    if not targets:
        raise OracleError("no feasible conditioning target: nothing to check")
    equal, worst, entries = True, 0.0, []
    for target in targets:
        entry, cond, law = cut.laws(intensity, target)
        tv = tv_distance(cond, law)
        equal = equal and cond == law
        worst = max(worst, tv)
        entries.append({**entry, "tv": tv})
    return equal, worst, entries


def _mc_driver(prop, cut: Cut, intensity: float, samples: int, seed: int,
               max_size, expect_fail: bool, /, **details) -> TestReport:
    """Sample soups, cut those touching the cut into bins of hookup keys, test
    every bin with enough samples, and Bonferroni-correct over the bins.

    Classes the cut does not split leave the cut unchanged, so each soup is
    cut on its touching classes alone, once per distinct sub-multiset.
    """
    catalog = cut.catalog
    rows = soup_count_rows(catalog, "oriented" if cut.oriented else "unoriented",
                           intensity, samples, stream(seed, prop))
    cuts: dict = {}         # sorted touching sub-multiset -> its cut
    bins: dict = defaultdict(Counter)
    for counts in rows:
        sub = tuple(sorted((k, n) for k, n in counts.items() if cut.touches(k)))
        if not sub:
            continue
        if sub not in cuts:
            cuts[sub] = cut.cut(dict(sub), max_size)
        got = cuts[sub]
        if got is not None:
            bins[got[0]][got[1]] += 1
    pvals = []
    skipped = 0
    tested = []
    for b, counts in sorted(bins.items(), key=cut.bin_order):
        n_bin = sum(counts.values())
        if n_bin < MIN_BIN_SAMPLES or not cut.testable(b):
            skipped += 1
            continue
        p = cut.bin_p(b, counts, n_bin)
        if p is not None:
            pvals.append(p)
            tested.append({**cut.label(b), "n": n_bin, "p": p})
    if not pvals:
        return _report(prop, "mc", 1.0, CHI2_SIGNIFICANCE, False, catalog,
                       samples, seed, note="no bin had enough samples")
    threshold = CHI2_SIGNIFICANCE / len(pvals)   # Bonferroni
    worst = min(pvals)
    return _report(prop, "mc", worst, threshold,
                   (worst > threshold) != expect_fail, catalog, samples, seed,
                   bins_tested=len(pvals), bins_skipped=skipped, bins=tested,
                   positive_control=expect_fail, **details)


# -- excursion resampling ------------------------------------------------------------


def exact_conditional_beta(catalog: LoopCatalog, F1, F2, eta,
                           intensity: Fraction = Fraction(1)) -> DiscreteDistribution:
    """Conditional law of the hookup given the excursions, from first principles.

    Enumerates every truncated-soup multiset whose decomposition equals eta,
    weighted by its exact Poisson probability, and marginalizes onto the
    hookup (canonical up to relabeling identical excursions).
    """
    eta = tuple(sorted(tuple(p) for p in eta))
    validate_eta(catalog, eta, F1, F2)
    dist, b = _conditional_keys(ExcursionCut(catalog, F1, F2), intensity,
                                Counter(eta))
    if b != eta:
        raise OracleError("internal: decomposition mismatch")
    support = sorted(dist)
    return DiscreteDistribution(tuple(support),
                                tuple(dist[k] for k in support), 0.0)


def feasible_etas(catalog: LoopCatalog, F1, F2, max_excursions: int):
    """All excursion vectors with at most max_excursions entries realizable by
    multisets of touching catalog classes."""
    return [tuple(sorted(t.elements()))
            for t in ExcursionCut(catalog, F1, F2).targets(max_excursions)]


def verify_prop1(catalog: LoopCatalog, F1, F2, mode: str = "exact",
                 intensity=Fraction(1), max_excursions: int = 2,
                 samples: int = 10 ** 6, seed: int = 0,
                 expect_fail: bool = False) -> TestReport:
    """Oriented resampling law: the hookup given the excursions is the
    unordered bridge measure between the excursion endpoint vectors."""
    if catalog.mode != "oriented":
        raise OracleError("prop1 needs an oriented catalog")
    return _verify_excursions("prop1", catalog, F1, F2, mode, intensity,
                              max_excursions, samples, seed, expect_fail)


def verify_prop2(catalog: LoopCatalog, F1, F2, mode: str = "exact",
                 intensity=Fraction(1), max_excursions: int = 2,
                 samples: int = 10 ** 6, seed: int = 0,
                 expect_fail: bool = False) -> TestReport:
    """Unoriented resampling law: the hookup given the excursions is the
    pairing-weighted unoriented bridge measure on the extremity vector."""
    if catalog.mode != "unoriented":
        raise OracleError("prop2 needs an unoriented catalog")
    return _verify_excursions("prop2", catalog, F1, F2, mode, intensity,
                              max_excursions, samples, seed, expect_fail)


def _verify_excursions(prop, catalog, F1, F2, mode, intensity, max_excursions,
                       samples, seed, expect_fail) -> TestReport:
    cut = ExcursionCut(catalog, F1, F2)
    if mode != "exact":
        return _mc_driver(prop, cut, float(intensity), samples, seed,
                          max_excursions, expect_fail,
                          intensity=float(intensity))
    intensity = Fraction(intensity)
    equal, worst, per_eta = _exact_driver(cut, intensity,
                                          cut.targets(max_excursions))
    return _report(prop, "exact", worst, 0.0, equal != expect_fail, catalog,
                   intensity=str(intensity), etas_tested=len(per_eta),
                   per_eta=per_eta, positive_control=expect_fail)


# -- removed-edge formulation -----------------------------------------------------


def verify_prop5(catalog: LoopCatalog, removed, mode: str = "exact",
                 intensity=Fraction(1), max_jumps: int = 2,
                 samples: int = 10 ** 6, seed: int = 0,
                 expect_fail: bool = False) -> TestReport:
    """Removed-edge resampling: the hookup of the jumps across removed edges,
    given their counts, is the pairing-weighted bridge measure in the graph
    without those edges."""
    cut = EdgeCut(catalog, removed)
    if mode != "exact":
        return _mc_driver("prop5", cut, float(intensity), samples, seed,
                          max_jumps, expect_fail, intensity=float(intensity))
    equal, worst, per_target = _exact_driver(cut, Fraction(intensity),
                                             cut.targets(max_jumps))
    return _report("prop5", "exact", worst, 0.0, equal != expect_fail, catalog,
                   intensity=str(intensity), targets_tested=len(per_target),
                   per_target=per_target, positive_control=expect_fail)


def verify_prop5_degenerate(catalog: LoopCatalog, intensity=Fraction(1),
                            max_jumps: int = 3) -> TestReport:
    """All-edges-removed case: the hookup pairs the jump endpoints uniformly
    at random among the pairings matching endpoint vertices.

    With every in-domain edge removed the Green's function of what is left
    is the identity, so the bridge measure of the removed-edge cut is exactly
    that uniform pairing law, with empty bridges.
    """
    cut = EdgeCut(catalog, catalog.unoriented_graph.classes_inside(catalog.domain))
    equal, worst, per_target = _exact_driver(cut, Fraction(intensity),
                                             cut.targets(max_jumps))
    return _report("prop5", "exact-degenerate", worst, 0.0, equal, catalog,
                   targets_tested=len(per_target))


# -- crossing independence (the symmetric two-sided resampling) --------------------


def verify_prop1bis_3bis(catalog: LoopCatalog, sets, mode: str = "exact",
                         intensity=Fraction(1), max_crossings: int = 4,
                         samples: int = 10 ** 6, seed: int = 0,
                         max_targets: int | None = None,
                         expect_fail: bool = False) -> TestReport:
    """Conditionally on the crossings between the marked sets, the per-set
    completions are independent, each following its bridge measure in the
    complement of the other sets.

    The exact mode checks the joint law of the completions at once: given
    the crossings, it is the product bridge measure restricted to the
    completions the catalog realizes (`CrossingCut.laws`).
    """
    prop = "prop1bis" if catalog.mode == "oriented" else "prop3bis"
    cut = CrossingCut(catalog, sets)
    if mode != "exact":
        return _mc_driver(prop, cut, float(intensity), samples, seed, None,
                          expect_fail)
    targets = cut.targets(max_crossings)
    if max_targets is not None:
        # deterministic stratified selection: shortest targets of each
        # crossing count, interleaved, so multi-loop configurations (the only
        # ones sensitive to the intensity) are always represented
        targets.sort(key=lambda t: (sum(t.values()),
                                    sum(len(p) * n for (_, p), n in t.items()),
                                    repr(sorted(t.items()))))
        by_count: dict = defaultdict(list)
        for t in targets:
            by_count[sum(t.values())].append(t)
        rounds = zip_longest(*(by_count[c] for c in sorted(by_count)))
        targets = [t for r in rounds for t in r if t is not None][:max_targets]
    equal, worst, per_target = _exact_driver(cut, Fraction(intensity), targets)
    return _report(prop, "exact", worst, 0.0, equal != expect_fail, catalog,
                   intensity=str(intensity), targets_tested=len(targets),
                   per_target=per_target, positive_control=expect_fail)


def _independence_chi2(rows, n_sides):
    """Test that the per-side keys of the rows are independent.

    Each side's rarest categories are pooled, rarest into next rarest, until
    the smallest expected cell count n prod_i (min marginal_i / n) is at
    least 1; pooling only categories seen fewer than 5 times leaves cells
    expected far below 1, and chi-square p-values far too small.  A side
    pooled to one category drops out of the table while two others remain.
    When two sides of two categories each still expect a cell below 1 (one
    key dominating both sides), Fisher's exact test replaces the chi-square.
    None when fewer than two sides have two categories.
    """
    n = len(rows)
    # per side: its index, the pooled label of every key, the label counts
    sides = []
    for i in range(n_sides):
        marg = Counter(r[i] for r in rows)
        sides.append((i, {k: k for k in marg}, marg))
    while True:
        active = [s for s in sides if len(s[2]) > 1]
        if len(active) < 2:
            return None
        e_min = n * math.prod(min(s[2].values()) / n for s in active)
        poolable = [s for s in active if len(s[2]) > 2 or len(active) > 2]
        if e_min >= 1 or not poolable:
            break
        _, label, marg = min(poolable, key=lambda s: min(s[2].values()))
        (a, _), (b, _) = sorted(marg.items(),
                                key=lambda kv: (kv[1], repr(kv[0])))[:2]
        for k in label:
            if label[k] == a:
                label[k] = b
        marg[b] += marg.pop(a)
    joint = Counter(tuple(label[r[i]] for i, label, _ in active) for r in rows)
    cats = [sorted(m, key=repr) for _, _, m in active]
    if e_min < 1:
        return float(sps.fisher_exact(
            [[joint.get((x, y), 0) for y in cats[1]] for x in cats[0]])[1])
    dof = (math.prod(len(c) for c in cats) - 1
           - sum(len(c) - 1 for c in cats))
    stat = 0.0
    for cell in product(*cats):
        e = n
        for (_, _, m), k in zip(active, cell):
            e *= m[k] / n
        stat += (joint.get(cell, 0) - e) ** 2 / e
    return float(sps.chi2.sf(stat, dof))


def verify_residual_independence(catalog: LoopCatalog, sets) -> TestReport:
    """Loops missing one of the sets form soups of the complements, coupled to
    share the loops avoiding both: exact identity of class rates."""
    edge_by_id = catalog.domain.graph.edge_by_id
    worst = 0
    for F in sets:
        sub_cat = enumerate_loops(catalog.domain.without_vertices(F),
                                  catalog.L_max, catalog.mode,
                                  unoriented=catalog.unoriented_graph)
        mine = {c.key: c.mass for c in catalog.classes
                if not any(edge_by_id[eid].tail in F for eid in c.key)}
        if mine != {c.key: c.mass for c in sub_cat.classes}:
            worst = 1
    return _report("residual-coupling", "exact", worst, 0, worst == 0, catalog)


# -- occupation-field spatial Markov property ----------------------------------


def _cells_by_split(law, idx_in, idx_bd, idx_out):
    cells: dict = defaultdict(dict)
    for n, w in law.weights.items():
        b = tuple(n[i] for i in idx_bd)
        i_ = tuple(n[i] for i in idx_in)
        o_ = tuple(n[i] for i in idx_out)
        cells[b][(i_, o_)] = w
    return cells


def _windowed_cmi(cells, Bi, Bb, Bo) -> tuple[float, int, int]:
    """Conditional mutual information of the window-restricted law (exact
    weights, float logs) plus exact rank-one minor violations.

    The window is the product set {|i| <= Bi} x {|b| <= Bb} x {|o| <= Bo};
    with Bi + Bb + Bo at most the series cap every cell weight is exact, and
    restriction to a product window preserves conditional independence, so
    the window CMI of a Markov field vanishes identically.
    """
    windows = []
    for b, M in cells.items():
        if sum(b) > Bb:
            continue
        win = {(i, o): w for (i, o), w in M.items()
               if sum(i) <= Bi and sum(o) <= Bo}
        if win:
            windows.append(win)
    if not windows:
        return 0.0, 0, 0
    # One common denominator makes every weight an integer.  The ratios
    # w / norm are the same rationals, and int / int division rounds them
    # correctly, so each float equals the float of the exact probability.
    scale = math.lcm(*(w.denominator for win in windows for w in win.values()))
    windows = [{c: w.numerator * (scale // w.denominator) for c, w in win.items()}
               for win in windows]
    norm = sum(sum(win.values()) for win in windows)
    bad = 0
    checked = 0
    terms = []
    for win in windows:
        rows: dict = defaultdict(dict)
        pi: dict = defaultdict(int)
        po: dict = defaultdict(int)
        for (i, o), w in win.items():
            rows[i][o] = w
            pi[i] += w
            po[o] += w
        # a minor is tested when all four cells are in the window
        for r1, r2 in combinations(rows.values(), 2):
            for o1, o2 in combinations(r1.keys() & r2.keys(), 2):
                checked += 1
                if r1[o1] * r2[o2] != r1[o2] * r2[o1]:
                    bad += 1
        pb = sum(win.values()) / norm
        for (i, o), w in win.items():
            p = w / norm
            terms.append(p * math.log(p * pb / ((pi[i] / norm) * (po[o] / norm))))
    # fsum: the correctly rounded sum does not depend on the cell order
    return math.fsum(terms), checked, bad


def check_markov_partition(edge_partition) -> None:
    """Refuse a Markov-test partition with no inside or no outside variable."""
    _, idx_in, _, idx_out = edge_partition
    if not idx_in or not idx_out:
        raise OracleError("the partition leaves no inside or no outside edge "
                          "variable, so there is nothing to test")


def verify_occupation_markov(domain: Domain, F1, edge_partition,
                             intensity_kind: str = "c",
                             intensity=Fraction(1), cap: int = 12,
                             window: tuple[int, int, int] | None = None,
                             tilt_edge_group: int | None = None,
                             tilt: Fraction = Fraction(1, 2),
                             allow_marginal: bool = False,
                             expect_fail: bool = False) -> TestReport:
    """Edge-occupation fields inside and outside F1 are conditionally
    independent given the boundary jump counts, computed exactly from the
    jump-count generating function.

    edge_partition = (groups, idx_in, idx_bd, idx_out): variable groups and
    the index split into inside/boundary/outside variables.  Site occupation
    times are measurable over visit counts, which the edge fields determine,
    so edge-level independence carries the site fields along.
    """
    check_markov_partition(edge_partition)
    groups, idx_in, idx_bd, idx_out = edge_partition
    if intensity_kind == "c":
        exponent = Fraction(intensity) / 2
    else:
        exponent = Fraction(intensity)
    law = occupation_law(domain, groups, exponent, cap,
                         allow_marginal=allow_marginal)
    if tilt_edge_group is not None:
        tilt = Fraction(tilt)
        law = type(law)(law.groups, law.cap,
                        {n: w * tilt ** n[tilt_edge_group]
                         for n, w in law.weights.items()}, law.scalar)
    if window is None:
        b = cap // 3
        window = (b, cap - 2 * b, b)
    if sum(window) > cap:
        raise OracleError("window exceeds the series cap; cells would be missing")
    cells = _cells_by_split(law, idx_in, idx_bd, idx_out)
    cmi, checked, bad = _windowed_cmi(cells, *window)
    stat = abs(cmi) if bad == 0 else max(abs(cmi), 1.0)
    ok = stat <= CMI_TOL and bad == 0
    if expect_fail:
        ok = not ok
    return _report("occupation-markov", "exact", stat, CMI_TOL, ok, None,
                   minors_checked=checked, minors_violated=bad,
                   intensity_kind=intensity_kind, intensity=str(intensity),
                   cap=cap, tilted=tilt_edge_group is not None,
                   positive_control=expect_fail)


# -- continuous time: GFF square, excursions, random currents --------------------


def verify_lejan(catalog: LoopCatalog, samples: int = 10 ** 5, seed: int = 0,
                 intensity: float = 0.5, expect_fail: bool = False) -> TestReport:
    """At alpha = 1/2 the rescaled occupation field (unit-mean holding times)
    is the half-square of the Gaussian free field with covariance G_D.

    Checked per site by Kolmogorov-Smirnov against Gamma(1/2, scale G(x,x))
    and at first and second moments (Wick) with truncation allowances.
    """
    dom = catalog.domain
    g = dom.g
    sites = list(dom.vertices)
    fs = FieldSampler(catalog, [], sites)
    rng = stream(seed, "lejan")
    _, _, times = fs.sample(intensity, samples, rng)
    T = times * g
    green = green_function(dom)
    lam = dom.spectral_radius()
    # mean-occupation deficit of the omitted loops, in rescaled units
    tail_mean = intensity * dom.size * lam ** (catalog.L_max + 1) / (1 - lam)
    ks_worst = 0.0
    details = {}
    for j, x in enumerate(sites):
        gxx = green(x, x)
        ks = stats.ks_distance(T[:, j], sps.gamma(a=0.5, scale=gxx).cdf)
        ks_worst = max(ks_worst, ks)
        mean_ok = stats.three_sigma(
            float(T[:, j].mean()), 0.5 * gxx,
            float(T[:, j].std(ddof=1)) / math.sqrt(samples), tail_mean)
        details[f"site_{x}"] = {"ks": ks, "mean": float(T[:, j].mean()),
                                "target_mean": 0.5 * gxx, "mean_ok": mean_ok}
        if not mean_ok and not expect_fail:
            return _report("lejan", "mc", 1.0, MC_TV_TOL, False, catalog,
                           samples, seed, **details)
    # pairwise Wick moment on the first two sites; a one-site domain takes
    # the diagonal pair, where the same formula gives 3 G(x, x)^2 / 4
    j = min(1, len(sites) - 1)
    x, y = sites[0], sites[j]
    txy = T[:, 0] * T[:, j]
    exy = float(txy.mean())
    wick = (green(x, x) * green(y, y) + 2 * green(x, y) ** 2) / 4
    se = float(txy.std(ddof=1)) / math.sqrt(samples)
    wick_ok = stats.three_sigma(exy, wick, se, 2 * tail_mean)
    ok = ks_worst < MC_TV_TOL and wick_ok
    if expect_fail:
        ok = ks_worst >= MC_TV_TOL
    return _report("lejan", "mc", ks_worst, MC_TV_TOL, ok, catalog, samples,
                   seed, wick_moment=exy, wick_target=wick, wick_ok=wick_ok,
                   tail_mean_allowance=tail_mean, positive_control=expect_fail,
                   **details)


def _excursion_skeleton_menu(domain: Domain, sites, involution, max_len: int):
    """Unoriented excursion skeletons between marked sites with masses g^{-n}.

    A skeleton from x to y jumps out of x, stays off the marked set inside,
    and jumps into y.  Unoriented skeletons are keyed by the smaller of the
    path and its reversal; the two orientations of an asymmetric skeleton
    are one object (mass still g^{-n}).
    """
    siteset = set(sites)
    menu: dict = {}
    for x in sorted(siteset):
        stack = [(x, ())]
        while stack:
            v, path = stack.pop()
            if path and v in siteset:
                key = involution.unoriented_path(path)
                pair = tuple(sorted((x, v)))
                if key not in menu:
                    menu[key] = (pair, Fraction(1, domain.g ** len(path)))
                continue
            if len(path) < max_len:
                for e in domain.out_edges(v):
                    stack.append((e.head, path + (e.id,)))
    return menu


def _current_oracle_pvalues(rows, pairs, masses, T, rng, keep=slice(None)):
    """Test sampled currents against the conditioned-current oracle.

    Column k of `rows` counts the jumps (or excursions) of mass masses[k]
    between the sites of column indices pairs[k] = (a, b) of the rescaled
    occupations T.  Given T, the oracle draws the columns as independent
    Poisson(phi_a phi_b m), phi = sqrt(2 T), halved when a == b, conditioned
    on even endpoint counts at every site.  The rows in `keep` are compared
    by two-sample chi-square, per quantile bin of the total occupation with
    enough samples and then pooled.  Returns whether every kept row has even
    endpoint counts, and the p-values with the pooled one last.
    """
    ends = np.zeros((len(pairs), T.shape[1]), dtype=np.int64)
    for k, (a, b) in enumerate(pairs):
        ends[k, a] += 1
        ends[k, b] += 1

    def even(draw):
        return ((draw @ ends) % 2 == 0).all(axis=1)

    x, y = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    phi = np.sqrt(2.0 * T)
    lam = phi[:, x] * phi[:, y] * (np.where(x == y, 0.5, 1.0) * masses)
    oracle = stats.sample_conditioned_poisson(lam, even, rng, max_iter=2000)
    rows, oracle, occupation = rows[keep], oracle[keep], T.sum(axis=1)[keep]

    def test(a, b):
        return stats.chi2_two_sample(Counter(map(tuple, a)),
                                     Counter(map(tuple, b)))

    bins = stats.quantile_bins(occupation, MIN_BIN_SAMPLES)
    pvals = []
    for b in range(bins.max() + 1):
        m = bins == b
        if m.sum() < MIN_BIN_SAMPLES:
            continue
        _, dof_b, p = test(rows[m], oracle[m])
        if dof_b > 0:
            pvals.append(p)
    return bool(even(rows).all()), pvals + [test(rows, oracle)[2]]


def verify_ct_excursions(catalog: LoopCatalog, sites,
                         samples: int = 2 * 10 ** 4, seed: int = 0,
                         intensity: float = 1.0,
                         skeleton_cap: int = 6) -> TestReport:
    """Conditionally on the occupation times at the marked sites, the
    excursion skeletons form a Poisson process with intensity
    |phi_i| |phi_j| g^{-n} per site pair (half that on diagonal pairs),
    |phi_i| = sqrt(2 T_i), conditioned on even endpoint counts per site.

    Checked by pairing every soup sample with one rejection-oracle sample at
    the same occupations and comparing the skeleton count laws (two-sample
    chi-square, pooled and per occupation bin), plus the pooled
    skeleton-frequency ratios, which must match the mass ratios g^{-n}.
    """
    if catalog.mode != "unoriented":
        raise OracleError("the excursion law is stated for unoriented soups")
    dom = catalog.domain
    inv = catalog.unoriented_graph.involution
    sites = sorted(sites)
    site_ix = {v: i for i, v in enumerate(sites)}
    menu = _excursion_skeleton_menu(dom, sites, inv, skeleton_cap)
    skels = sorted(menu)
    skel_ix = {k: i for i, k in enumerate(skels)}
    nsk = len(skels)

    # per-class skeleton counts (loops cut at the site set), skeletons beyond
    # the cap in column nsk
    fs = FieldSampler(catalog, [], sites)
    class_sk = np.zeros((len(catalog), nsk + 1), dtype=np.int64)
    marked = set(sites)
    for i, cls in enumerate(catalog.classes):
        for sk in loop_skeletons(dom.graph, cls.key, marked, inv):
            class_sk[i, skel_ix.get(sk, nsk)] += 1
    rng = stream(seed, "ct-excursions")
    sums = fs.class_sums(np.hstack([class_sk, fs.class_visits]), intensity,
                         samples, rng)
    T = rng.gamma(shape=sums[:, nsk + 1:] + intensity / 2.0)   # rescaled
    # Long skeletons carry endpoints too (every visit is one arrival and one
    # departure, so the counts stay even), but the capped checks use only
    # the samples without them.
    no_long = sums[:, nsk] == 0
    pairs = [tuple(site_ix[v] for v in menu[sk][0]) for sk in skels]
    parity_ok, pvals = _current_oracle_pvalues(
        sums[:, :nsk], pairs, [float(menu[sk][1]) for sk in skels], T,
        stream(seed, "ct-excursions/oracle"), no_long)
    threshold = CHI2_SIGNIFICANCE / len(pvals)
    worst = min(pvals)
    # pooled frequency-ratio check within site pairs
    ratio_ok = True
    pair_groups: dict = defaultdict(list)
    for k, sk in enumerate(skels):
        pair_groups[menu[sk][0]].append(k)
    tot_counts = sums[no_long, :nsk].sum(axis=0)
    for pair, ks in pair_groups.items():
        if len(ks) < 2:
            continue
        k0 = ks[0]
        for k in ks[1:]:
            r = float(menu[skels[k]][1] / menu[skels[k0]][1])
            c1, c0 = float(tot_counts[k]), float(tot_counts[k0])
            se = math.sqrt(max(c1 + r * r * c0, 1.0))
            if abs(c1 - r * c0) > 3 * se:
                ratio_ok = False
    ok = parity_ok and ratio_ok and worst > threshold
    return _report("ct-excursions", "mc", worst, threshold, ok, catalog,
                   samples, seed, parity_ok=parity_ok, ratio_ok=ratio_ok,
                   pooled_p=pvals[-1], bins_tested=len(pvals))


def verify_random_currents(catalog: LoopCatalog, samples: int = 10 ** 5,
                           seed: int = 0, intensity: float = 1.0,
                           oriented_catalog: LoopCatalog | None = None,
                           expect_fail: bool = False) -> TestReport:
    """With every vertex marked, the jump counts given the occupation times
    are independent Poisson per unoriented edge with mean
    |phi_x| |phi_y| k_e / g (half that for self-edges), conditioned on even
    incident totals at every site; the oriented variant at alpha = 1 uses
    sqrt(T_x T_y) k_e / g per oriented edge conditioned on in = out.
    """
    if catalog.mode != "unoriented":
        raise OracleError("random currents are stated for the unoriented soup")
    dom = catalog.domain
    g = dom.g
    ug = catalog.unoriented_graph
    sites = list(dom.vertices)
    site_ix = {v: i for i, v in enumerate(sites)}
    classes = ug.classes_inside(dom)
    if not classes:
        raise OracleError("no edge lies inside the domain, so there are no "
                          "currents to test")
    fs = FieldSampler(catalog, classes, sites)
    jumps, _, times = fs.sample(intensity, samples,
                                stream(seed, "random-currents"))
    pairs = [tuple(site_ix[v] for v in ug.class_endpoints(ck))
             for ck in classes]
    even_ok, pvals = _current_oracle_pvalues(
        jumps, pairs, [1 / g] * len(classes), times * g,
        stream(seed, "random-currents/oracle"))
    details = {"even_degrees": even_ok, "pooled_p": pvals[-1],
               "bins_tested": len(pvals)}
    inout_ok = True
    if oriented_catalog is not None:
        # the oriented statement is specific to alpha = 1
        oedges = sorted((e for v in sites for e in dom.out_edges(v)),
                        key=lambda e: e.id)
        fso = FieldSampler(oriented_catalog, [(e.id,) for e in oedges], sites)
        jo, _, to = fso.sample(1.0, samples,
                               stream(seed, "random-currents/oriented"))
        flow = np.zeros((len(oedges), len(sites)), dtype=np.int64)
        for j, e in enumerate(oedges):
            flow[j, site_ix[e.head]] += 1
            flow[j, site_ix[e.tail]] -= 1

        def balanced(draw):             # in = out at every site
            return (draw @ flow == 0).all(axis=1)

        inout_ok = bool(balanced(jo).all())
        phio = np.sqrt(to * g)
        lam_o = (phio[:, [site_ix[e.tail] for e in oedges]]
                 * phio[:, [site_ix[e.head] for e in oedges]] / g)
        oracle_o = stats.sample_conditioned_poisson(
            lam_o, balanced, stream(seed, "random-currents/oriented-oracle"),
            max_iter=5000)
        _, _, p_oriented = stats.chi2_two_sample(
            Counter(map(tuple, jo)), Counter(map(tuple, oracle_o)))
        pvals.append(p_oriented)
        details.update(inout_ok=inout_ok, oriented_p=p_oriented)
    threshold = CHI2_SIGNIFICANCE / len(pvals)
    worst = min(pvals)
    ok = even_ok and inout_ok and worst > threshold
    if expect_fail:
        ok = not ok
    details["positive_control"] = expect_fail
    return _report("random-currents", "mc", worst, threshold, ok, catalog,
                   samples, seed, **details)


# -- Wilson cross-check ------------------------------------------------------------


def verify_wilson(graph, root, catalog: LoopCatalog, runs: int = 10 ** 6,
                  seed: int = 0, length_cap: int = 4) -> TestReport:
    """Wilson's algorithm against the unit-intensity oriented soup.

    (a) The spanning-tree marginal is uniform (each tree within three
    standard errors of 1/#trees).  (b) The erased-cycle multiset restricted
    to short cycles matches the soup resolved into simple cycles through the
    arrow-stack correspondence (uniformly interleaved stacks, popped), with
    total variation below the Monte Carlo tolerance.  The raw class-multiset
    comparison is reported for transparency; it is NOT expected to vanish
    because erased cycles are always simple while soup loops may wind.

    The catalog's domain must be every vertex but the root (WilsonError
    otherwise).  One walk table serves every run, so the checks run once.
    """
    check_root(graph, root, catalog.domain.vertices)
    ug = catalog.unoriented_graph
    edge_class = {e.id: ug.edge_class(e.id) for e in graph.edges}

    def short(counts):          # the multiset's cycles up to length_cap
        return tuple(sorted([kc for kc in counts.items()
                             if len(kc[0]) <= length_cap]))

    rng = stream(seed, "wilson")
    dice = _EdgeDice(graph, root, rng)
    trees: Counter = Counter()
    w_keys: Counter = Counter()
    for _ in range(runs):
        tree, erased = wilson_ust(graph, root, rng, dice=dice)
        trees[tuple(sorted([edge_class[e] for e in tree.values()]))] += 1
        w_keys[short(erased)] += 1
    n_trees = len(trees)
    p0 = 1.0 / n_trees
    se = math.sqrt(runs * p0 * (1 - p0))
    tree_ok = all(abs(c - runs * p0) <= 3 * se for c in trees.values())
    # the soups are drawn lazily, each just before its popping draws
    rng_s = stream(seed, "wilson/soup")
    s_keys: Counter = Counter()
    s_naive: Counter = Counter()
    for counts in soup_count_rows(catalog, "oriented", 1.0, runs, rng_s,
                                  "categorical"):
        s_keys[short(pop_cycles(LoopSoup(catalog, counts, "alpha", 1.0),
                                rng_s))] += 1
        s_naive[short(counts)] += 1
    tv = stats.empirical_tv(w_keys, s_keys)
    tv_naive = stats.empirical_tv(w_keys, s_naive)
    ok = tree_ok and tv < MC_TV_TOL
    return _report("wilson", "mc", tv, MC_TV_TOL, ok, catalog, runs, seed,
                   tree_marginal_uniform=tree_ok, n_trees=n_trees,
                   tree_frequencies={str(k): v / runs for k, v in sorted(trees.items())},
                   naive_multiset_tv=tv_naive)
