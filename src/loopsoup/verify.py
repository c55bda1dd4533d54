"""Verification engine: exact conditional-law oracles and Monte Carlo tests.

Every verification produces a TestReport carrying its statistic, tolerance,
seed, truncation data and verdict, and is reproducible bit-for-bit from the
same inputs.  Exact resampling modes decide, as an equality of Fractions,
that each conditional law is equal to the truncated-soup law: the bridge
measure restricted to the hookups whose loops all fit in the catalog's
length cap, renormalized.  Monte Carlo modes compare sampled soups against
independent oracle samplers with chi-square or total-variation statistics.

Every verifier decides its verdict by one rule, in `_verdict`: a check
passes when its gates hold; a positive control (`expect_fail`) runs the same
machinery at the wrong intensity and passes when its check fails, which shows
that the tests can tell the special intensities (alpha = 1 oriented, c = 1
unoriented) from nearby ones; and a run that tested nothing fails, control
or not.  Sets of p-values share one Bonferroni line, `_bonferroni`.

The resampling checks share one structure, defined here.  A Cut says how a
statement cuts loops: ExcursionCut (Props. 1 and 2), EdgeCut (Prop. 5) and
CrossingCut (Props. 1bis and 3bis) give each class's contribution, cut a
class multiset into its bin and hookup key, and give the truncated-soup
law of a bin from the bridge laws in `exact`.  `_verify_cut` runs a cut in
either mode: exactly, it decides per feasible target that the conditional
law of the keys equals that law; by Monte Carlo (`_mc_driver`) it samples
soups, cuts the touching ones into bins and tests every bin that holds
MIN_BIN_SAMPLES soups (goodness of fit against the oracle, or independence
of the sides for crossings) under one Bonferroni correction.  The sample
floor is the only rule: every other bin counts as skipped.

A cut touches only what it needs.  Its `candidates` (every catalog class it
splits, with contribution) are built on first use by the exact mode and
`targets`.  The Monte Carlo driver never builds them: it asks the memoized
`touches(key)` of the classes its soups hold, draws the soups in batched
rows (`soups.soup_count_rows`), and cuts each distinct touching
sub-multiset once.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product, zip_longest

import numpy as np

from . import stats
from .exact import (OracleError, conditional_multiset_law, occupation_law,
                    side_orbit_key, side_pair_orbit, tv_distance,
                    unordered_bridge_law, validate_eta, z_bridge_law)
from .excursions import (OrientedHookup, UnorientedHookup, decompose_counts,
                         extract_crossings_counts, hookup_loop_lengths,
                         loop_skeletons, oriented_hookup_orbit_key,
                         path_endpoints, record_edge_jumps_counts,
                         unoriented_hookup_orbit_key)
from .graph import Domain, green_function
from .loops import LoopCatalog, enumerate_loops
from .rng import stream
from .soups import FieldSampler, LoopSoup, soup_count_rows, trivial_shape
from .wilson import _EdgeDice, check_root, pop_cycles, wilson_ust

CHI2_SIGNIFICANCE = 1e-3
MC_TV_TOL = 0.01
MIN_BIN_SAMPLES = 200
SKELETON_CAP = 6         # longest excursion skeleton ct-excursions tests
WILSON_LENGTH_CAP = 4    # longest cycle the Wilson cross-check compares
LEJAN_T = (0.25, 1.0, 4.0)   # Laplace points t of the lejan check, per ray
TILT = Fraction(1, 2)    # theta of the tilted occupation-Markov check


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
        return asdict(self)


def _verdict(prop, mode, stat, tol, ok, catalog=None, samples=0, seed=None,
             expect_fail=False, **details) -> TestReport:
    """The one verdict rule: a check passes on `ok`, a positive control
    (`expect_fail`) passes when its check fails, and a run that tested
    nothing (`ok` None) fails either way."""
    details["positive_control"] = expect_fail
    return TestReport(
        prop=prop, mode=mode, statistic=float(stat), tolerance=float(tol),
        samples=samples, seed=seed,
        L_max=catalog.L_max if catalog is not None else None,
        tail_bound=catalog.tail_bound if catalog is not None else None,
        verdict="pass" if ok is not None and ok != expect_fail else "fail",
        details=details,
    )


def _bonferroni(pvals):
    """(smallest p-value, Bonferroni threshold, whether it clears it)."""
    worst = min(pvals)
    threshold = CHI2_SIGNIFICANCE / len(pvals)
    return worst, threshold, worst > threshold


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
    # an exact report counts and lists its targets as <noun>s_tested, per_<noun>
    noun = "target"

    def bin_p(self, b, counts: Counter, n: int):
        """p-value of the sampled keys of a bin against its law, or None."""
        law, _ = self.oracle(b)
        expected = {k: float(v) for k, v in law.items()}
        _, dof, p = stats.chi2_gof(counts, expected, n)
        return p if dof > 0 else None

    def oracle(self, b):
        """(truncated-soup law of the hookup keys of bin b, infeasible mass).

        The law is the bridge measure restricted to the configurations whose
        loops, as the hookup walk measures them, all fit in L_max, then
        renormalized: the exact conditional law of the truncated soup.  The
        infeasible mass is the bridge mass left out, bridges too long to
        enumerate included (no loop holding one fits).
        """
        pieces, configs, flippable = self.bridge_configs(b)
        law: dict = {}
        for (s, paths), pr in configs.items():
            hook = (OrientedHookup if self.oriented else UnorientedHookup)(s, paths)
            if max(hookup_loop_lengths(pieces, hook)) > self.catalog.L_max:
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

    noun = "eta"

    def __init__(self, catalog: LoopCatalog, F1, F2):
        self.F1, self.F2 = F1, F2
        self.sub = catalog.domain.without_vertices(F1)
        super().__init__(catalog)

    def contribution(self, key) -> Counter:
        return Counter(decompose_counts(self.catalog, {key: 1},
                                        self.F1, self.F2).eta)

    def cut(self, counts):
        """(eta, hookup key), or None without excursions."""
        d = decompose_counts(self.catalog, counts, self.F1, self.F2)
        if not d.N:
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

    def cut(self, counts):
        """(jump counts, hookup key), or None without jumps."""
        rec = record_edge_jumps_counts(self.catalog, counts, self.removed)
        if not any(rec.counts):
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
    """

    def __init__(self, catalog: LoopCatalog, sets):
        self.sets = tuple(frozenset(s) for s in sets)
        super().__init__(catalog)

    def contribution(self, key) -> Counter:
        return Counter(extract_crossings_counts(self.catalog, {key: 1},
                                                self.sets).instances)

    def cut(self, counts):
        """(crossing key, per-side completion keys), or None without crossings."""
        cs = extract_crossings_counts(self.catalog, counts, self.sets)
        if not cs.instances:
            return None
        return cs.crossing_key(), tuple(side_orbit_key(cs, i)
                                        for i in range(len(self.sets)))

    target_order = staticmethod(repr)

    def label(self, ck) -> dict:
        return {"crossings": sum(len(v) for _, v in ck)}

    def bin_p(self, ck, counts: Counter, n: int):
        return _independence_chi2(counts, len(self.sets))

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


def _mc_driver(prop, cut: Cut, intensity: float, samples: int, seed: int,
               expect_fail: bool) -> TestReport:
    """Sample soups, cut those touching the cut into bins of hookup keys, and
    test, in bin-key order, every bin that holds MIN_BIN_SAMPLES soups, under
    one Bonferroni correction.  Every other bin counts as skipped, and so
    does a bin whose test has no degree of freedom: tested + skipped is the
    number of bins.

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
            cuts[sub] = cut.cut(dict(sub))
        got = cuts[sub]
        if got is not None:
            bins[got[0]][got[1]] += 1
    pvals = []
    tested = []
    for b, counts in sorted(bins.items()):
        n_bin = sum(counts.values())
        p = cut.bin_p(b, counts, n_bin) if n_bin >= MIN_BIN_SAMPLES else None
        if p is not None:
            pvals.append(p)
            tested.append({**cut.label(b), "n": n_bin, "p": p})
    if not pvals:
        return _verdict(prop, "mc", 1.0, CHI2_SIGNIFICANCE, None, catalog,
                        samples, seed, expect_fail,
                        note="no bin had enough samples")
    worst, threshold, ok = _bonferroni(pvals)
    return _verdict(prop, "mc", worst, threshold, ok, catalog, samples, seed,
                    expect_fail, bins_tested=len(pvals),
                    bins_skipped=len(bins) - len(pvals), bins=tested,
                    intensity=intensity)


def _verify_cut(prop, cut: Cut, mode, intensity, max_size, samples, seed,
                expect_fail, targets=None) -> TestReport:
    """Check one cut by Monte Carlo (`_mc_driver`), or exactly: decide, per
    target (by default every target of at most max_size pieces), that the
    conditional law of the keys equals the truncated-soup law of its bin,
    as Fractions.

    The total variations are floats for display: each is exactly 0.0 when
    its two laws are equal, and the verdict is the equality itself.
    """
    if mode != "exact":
        # refused before any draw, as exact mode refuses it
        if not any(cut.touches(cls.key) for cls in cut.catalog.classes):
            raise OracleError("no catalog class meets the cut: nothing to check")
        return _mc_driver(prop, cut, float(intensity), samples, seed,
                          expect_fail)
    intensity = Fraction(intensity)
    if targets is None:
        targets = cut.targets(max_size)
    if not targets:
        raise OracleError("no feasible conditioning target: nothing to check")
    equal, worst, entries = True, 0.0, []
    for target in targets:
        entry, cond, law = cut.laws(intensity, target)
        tv = tv_distance(cond, law)
        equal = equal and cond == law
        worst = max(worst, tv)
        entries.append({**entry, "tv": tv})
    return _verdict(prop, "exact", worst, 0.0, equal, cut.catalog,
                    expect_fail=expect_fail, intensity=str(intensity),
                    **{f"{cut.noun}s_tested": len(entries),
                       f"per_{cut.noun}": entries})


# -- excursion resampling ------------------------------------------------------------


def exact_conditional_beta(catalog: LoopCatalog, F1, F2, eta,
                           intensity: Fraction = Fraction(1)) -> dict:
    """Conditional law of the hookup given the excursions, from first principles.

    Enumerates every truncated-soup multiset whose decomposition equals eta,
    weighted by its exact Poisson probability, and marginalizes onto the
    hookup (canonical up to relabeling identical excursions).  Returns
    {hookup key: Fraction} in sorted-key order.
    """
    eta = tuple(sorted(tuple(p) for p in eta))
    validate_eta(catalog, eta, F1, F2)
    dist, b = _conditional_keys(ExcursionCut(catalog, F1, F2), intensity,
                                Counter(eta))
    if b != eta:
        raise OracleError("internal: decomposition mismatch")
    return {k: dist[k] for k in sorted(dist)}


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
    return _verify_cut("prop1", ExcursionCut(catalog, F1, F2), mode,
                       intensity, max_excursions, samples, seed, expect_fail)


def verify_prop2(catalog: LoopCatalog, F1, F2, mode: str = "exact",
                 intensity=Fraction(1), max_excursions: int = 2,
                 samples: int = 10 ** 6, seed: int = 0,
                 expect_fail: bool = False) -> TestReport:
    """Unoriented resampling law: the hookup given the excursions is the
    pairing-weighted unoriented bridge measure on the extremity vector."""
    if catalog.mode != "unoriented":
        raise OracleError("prop2 needs an unoriented catalog")
    return _verify_cut("prop2", ExcursionCut(catalog, F1, F2), mode,
                       intensity, max_excursions, samples, seed, expect_fail)


# -- removed-edge formulation -----------------------------------------------------


def verify_prop5(catalog: LoopCatalog, removed, mode: str = "exact",
                 intensity=Fraction(1), max_jumps: int = 2,
                 samples: int = 10 ** 6, seed: int = 0,
                 expect_fail: bool = False) -> TestReport:
    """Removed-edge resampling: the hookup of the jumps across removed edges,
    given their counts, is the pairing-weighted bridge measure in the graph
    without those edges."""
    return _verify_cut("prop5", EdgeCut(catalog, removed), mode, intensity,
                       max_jumps, samples, seed, expect_fail)


def verify_prop5_degenerate(catalog: LoopCatalog, intensity=Fraction(1),
                            max_jumps: int = 3) -> TestReport:
    """All-edges-removed case: the hookup pairs the jump endpoints uniformly
    at random among the pairings matching endpoint vertices.

    With every in-domain edge removed the Green's function of what is left
    is the identity, so the bridge measure of the removed-edge cut is exactly
    that uniform pairing law, with empty bridges.
    """
    cut = EdgeCut(catalog, catalog.unoriented_graph.classes_inside(catalog.domain))
    return _verify_cut("prop5", cut, "exact", intensity, max_jumps,
                       samples=0, seed=None, expect_fail=False)


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
    cut = CrossingCut(catalog, sets)
    targets = None
    if mode == "exact" and max_targets is not None:
        targets = cut.targets(max_crossings)
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
    return _verify_cut("prop1bis" if cut.oriented else "prop3bis", cut, mode,
                       intensity, max_crossings, samples, seed, expect_fail,
                       targets)


def _independence_chi2(table: Counter, n_sides):
    """Test that the sides of a contingency table, a Counter of per-side key
    tuples, are independent.

    Each side's rarest categories are pooled, rarest into next rarest, until
    the smallest expected cell count n prod_i (min marginal_i / n) is at
    least 1; pooling only categories seen fewer than 5 times leaves cells
    expected far below 1, and chi-square p-values far too small.  A side
    pooled to one category drops out of the table while two others remain.
    When two sides of two categories each still expect a cell below 1 (one
    key dominating both sides), Fisher's exact test replaces the chi-square.
    None when fewer than two sides have two categories.
    """
    n = sum(table.values())
    # per side: its index, the pooled label of every key, the label counts
    sides = []
    for i in range(n_sides):
        marg: Counter = Counter()
        for r, m in table.items():
            marg[r[i]] += m
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
    joint: Counter = Counter()
    for r, m in table.items():
        joint[tuple(label[r[i]] for i, label, _ in active)] += m
    cats = [sorted(m, key=repr) for _, _, m in active]
    if e_min < 1:
        return stats.fisher_2x2(
            [[joint.get((x, y), 0) for y in cats[1]] for x in cats[0]])
    dof = (math.prod(len(c) for c in cats) - 1
           - sum(len(c) - 1 for c in cats))
    stat = 0.0
    for cell in product(*cats):
        e = n
        for (_, _, m), k in zip(active, cell):
            e *= m[k] / n
        stat += (joint.get(cell, 0) - e) ** 2 / e
    return stats.chi2_sf(stat, dof)


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
    return _verdict("residual-coupling", "exact", worst, 0, worst == 0, catalog)


# -- occupation-field spatial Markov property ----------------------------------


def _markov_defect(law, idx_in, idx_bd, idx_out) -> tuple[float, int, int]:
    """Decide in integers that the inside and outside counts of a window of
    the law are independent given the boundary counts.

    The window is {|inside| <= b} x {|boundary| <= cap - 2b} x
    {|outside| <= b} with b = cap // 3.  Its bounds sum to the cap, so every
    weight in it is exact and an absent cell weighs 0; restriction to a
    product window preserves conditional independence.  The block of a
    boundary value, with row sums R, column sums C and total T, is a product
    exactly when w T == R(i) C(o) at every cell of rows x columns; a block
    with one row or one column is a product whatever its weights, so it
    tests nothing.  Returns the total variation between the window law and
    its Markov projection (0.0 exactly when every block is a product), the
    cells checked and the cells violated.
    """
    b = law.cap // 3
    b_bd = law.cap - 2 * b
    blocks: dict = defaultdict(dict)
    for n, w in law.weights.items():
        i_ = tuple(n[k] for k in idx_in)
        o_ = tuple(n[k] for k in idx_out)
        bd = tuple(n[k] for k in idx_bd)
        if sum(i_) <= b and sum(o_) <= b and sum(bd) <= b_bd:
            blocks[bd][i_, o_] = w
    # one common denominator makes every weight an integer
    scale = math.lcm(*(w.denominator for M in blocks.values()
                       for w in M.values()))
    norm = checked = bad = 0
    gap = Fraction(0)
    for M in blocks.values():
        M = {c: w.numerator * (scale // w.denominator) for c, w in M.items()}
        rows: dict = defaultdict(int)
        cols: dict = defaultdict(int)
        for (i, o), w in M.items():
            rows[i] += w
            cols[o] += w
        total = sum(rows.values())
        norm += total
        if len(rows) < 2 or len(cols) < 2:
            continue
        checked += len(rows) * len(cols)
        block_gap = 0
        for i, r in rows.items():
            for o, c in cols.items():
                d = abs(M.get((i, o), 0) * total - r * c)
                block_gap += d
                bad += d != 0
        gap += Fraction(block_gap, total)
    return float(gap / (2 * norm)) if norm else 0.0, checked, bad


def check_markov_partition(edge_partition) -> None:
    """Refuse a Markov-test partition with no inside or no outside variable."""
    _, idx_in, _, idx_out = edge_partition
    if not idx_in or not idx_out:
        raise OracleError("the partition leaves no inside or no outside edge "
                          "variable, so there is nothing to test")


def verify_occupation_markov(domain: Domain, edge_partition,
                             intensity_kind: str = "c",
                             intensity=Fraction(1), cap: int = 12,
                             tilt_edge_group: int | None = None,
                             allow_marginal: bool = False,
                             expect_fail: bool = False) -> TestReport:
    """Edge-occupation fields inside and outside a vertex set are
    conditionally independent given the boundary jump counts, computed
    exactly from the jump-count generating function.

    edge_partition = (groups, idx_in, idx_bd, idx_out): variable groups and
    the index split into inside/boundary/outside variables, which is all the
    check reads of the vertex set.  Site occupation times are measurable
    over visit counts, which the edge fields determine, so edge-level
    independence carries the site fields along.
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
        law = type(law)(law.groups, law.cap,
                        {n: w * TILT ** n[tilt_edge_group]
                         for n, w in law.weights.items()}, law.scalar)
    stat, checked, bad = _markov_defect(law, idx_in, idx_bd, idx_out)
    return _verdict("occupation-markov", "exact", stat, 0.0,
                    bad == 0 if checked else None, expect_fail=expect_fail,
                    cells_checked=checked, cells_violated=bad,
                    intensity_kind=intensity_kind, intensity=str(intensity),
                    cap=cap, tilted=tilt_edge_group is not None)


# -- continuous time: GFF square, excursions, random currents --------------------


def laplace_points(size: int) -> np.ndarray:
    """The lejan check's points lam ([K, size]): t on each site and t on all
    sites together, t in LEJAN_T; on one site the two coincide."""
    rays = np.eye(size) if size == 1 else np.vstack([np.eye(size), np.ones(size)])
    return np.vstack([t * rays for t in LEJAN_T])


def laplace_pvalues(fs: FieldSampler, intensity: float, T: np.ndarray,
                    lam: np.ndarray) -> list[float]:
    """Two-sided z-test p-value, per row of lam, of the sample mean of
    Y = exp(-<lam, T>) over the rescaled site times T ([n, S]) against the
    law of `fs` at `intensity`.  Y lies in (0, 1], and its mean L(lam) and
    variance L(2 lam) - L(lam)^2 are exact (`FieldSampler.laplace`)."""
    mean = fs.laplace(intensity, lam)
    var = fs.laplace(intensity, 2 * lam) - mean ** 2
    z = (np.exp(-T @ lam.T).mean(axis=0) - mean) / np.sqrt(var / len(T))
    return [math.erfc(abs(v) / math.sqrt(2)) for v in z.tolist()]


def verify_lejan(catalog: LoopCatalog, samples: int = 10 ** 5, seed: int = 0,
                 intensity: float = 0.5, expect_fail: bool = False) -> TestReport:
    """At alpha = 1/2 the rescaled occupation field T (unit-mean holding
    times) is the half-square of the Gaussian free field with covariance
    G_D: E exp(-<lam, T>) = det(I + G_D Lam)^(-1/2).

    The field is drawn at `intensity` and tested against the alpha = 1/2
    law of the catalog's truncated soup at the `laplace_points`, one z-test
    each (`laplace_pvalues`) under one Bonferroni line.  The truncated and
    untruncated transforms differ by at most half the omitted mu-mass, so by
    half the tail bound; the largest gap at the points is reported with that
    bound.
    """
    if catalog.mode != "oriented":
        raise OracleError("the isomorphism is stated for oriented soups")
    dom = catalog.domain
    fs = FieldSampler(catalog, [], dom.vertices)
    _, _, times = fs.sample(intensity, samples, stream(seed, "lejan"))
    lam = laplace_points(dom.size)
    pvals = laplace_pvalues(fs, 0.5, times * dom.g, lam)
    worst, threshold, ok = _bonferroni(pvals)
    det = np.linalg.det(np.eye(dom.size)
                        + green_function(dom).values * lam[:, None, :])
    gap = np.abs(fs.laplace(0.5, lam) - det ** -0.5).max()
    return _verdict("lejan", "mc", worst, threshold, ok, catalog, samples,
                    seed, expect_fail, points_tested=len(pvals),
                    untruncated_gap=float(gap),
                    untruncated_gap_bound=0.5 * catalog.tail_bound)


def _excursion_skeleton_menu(domain: Domain, sites, involution, max_len: int):
    """Excursion skeletons between marked sites with masses g^{-n}.

    A skeleton from x to y jumps out of x, stays off the marked set inside,
    and jumps into y; it is keyed with its site pair (x, y).  Given the
    involution (unoriented soups) a skeleton is keyed by the smaller of the
    path and its reversal, with its pair sorted: the two orientations of an
    asymmetric skeleton are one object (mass still g^{-n}).
    """
    siteset = set(sites)
    menu: dict = {}
    for x in sorted(siteset):
        stack = [(x, ())]
        while stack:
            v, path = stack.pop()
            if path and v in siteset:
                key, pair = path, (x, v)
                if involution is not None:
                    key, pair = involution.unoriented_path(path), tuple(sorted(pair))
                menu.setdefault(key, (pair, Fraction(1, domain.g ** len(path))))
                continue
            if len(path) < max_len:
                for e in domain.out_edges(v):
                    stack.append((e.head, path + (e.id,)))
    return menu


def _skeleton_pvalues(catalog: LoopCatalog, sites, intensity: float,
                      samples: int, seed: int, name: str):
    """Test the excursion skeletons between marked sites against the
    conditioned-current law, taken from the catalog's mode.

    Given the rescaled occupations T at the sites, the skeletons of n steps
    from site a to site b are independent Poisson(phi_a phi_b g^{-n})
    counts, conditioned per site: unoriented, phi = sqrt(2 T), halved on
    diagonal pairs, and even endpoint counts; oriented (alpha = 1),
    phi = sqrt(T) and in = out.  With every vertex marked each skeleton is
    one jump: the random-current representation.

    The soups come from stream (seed, name), and the oracle, one rejection
    sample per soup at its occupations, from (seed, name/oracle).  Soups
    holding a skeleton beyond SKELETON_CAP are left out (long skeletons keep
    the condition too, but have no column).  The rest are compared by
    two-sample chi-square per quantile bin of the total occupation with
    enough samples, and pooled.  Returns whether every compared soup meets
    the condition, whether the pooled skeleton counts within each site pair
    follow the mass ratios, and the p-values with the pooled one last.
    """
    oriented = catalog.mode == "oriented"
    dom = catalog.domain
    inv = None if oriented else catalog.unoriented_graph.involution
    sites = sorted(sites)
    site_ix = {v: i for i, v in enumerate(sites)}
    menu = _excursion_skeleton_menu(dom, sites, inv, SKELETON_CAP)
    if not menu:
        raise OracleError("no excursion skeleton joins the sites: nothing to test")
    skels = sorted(menu)
    skel_ix = {k: i for i, k in enumerate(skels)}
    nsk = len(skels)
    # per-class skeleton counts (loops cut at the site set), skeletons beyond
    # the cap in column nsk
    fs = FieldSampler(catalog, [], sites)
    class_sk = np.zeros((len(catalog), nsk + 1), dtype=np.int64)
    for i, cls in enumerate(catalog.classes):
        for sk in loop_skeletons(dom.graph, cls.key, site_ix, inv):
            class_sk[i, skel_ix.get(sk, nsk)] += 1
    rng = stream(seed, name)
    sums = fs.class_sums(np.hstack([class_sk, fs.class_visits]), intensity,
                         samples, rng)
    T = rng.gamma(shape=sums[:, nsk + 1:]
                  + trivial_shape(catalog.mode, intensity))     # rescaled
    keep = sums[:, nsk] == 0
    pairs = [tuple(site_ix[v] for v in menu[sk][0]) for sk in skels]
    ends = np.zeros((nsk, len(sites)), dtype=np.int64)
    for k, (a, b) in enumerate(pairs):
        ends[k, a] += -1 if oriented else 1     # oriented: out of a, into b
        ends[k, b] += 1

    def meets(draw):            # in = out, or even endpoint counts, everywhere
        d = draw @ ends
        return ((d if oriented else d % 2) == 0).all(axis=1)

    x, y = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    masses = np.array([float(menu[sk][1]) for sk in skels])
    phi = np.sqrt((1.0 if oriented else 2.0) * T)
    half = 1.0 if oriented else np.where(x == y, 0.5, 1.0)
    oracle = stats.sample_conditioned_poisson(
        phi[:, x] * phi[:, y] * (half * masses), meets,
        stream(seed, f"{name}/oracle"))
    rows, oracle, occupation = sums[keep, :nsk], oracle[keep], T.sum(axis=1)[keep]

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
    pvals.append(test(rows, oracle)[2])
    # pooled frequency ratios within site pairs against the mass ratios
    ratio_ok = True
    pair_groups: dict = defaultdict(list)
    for k, sk in enumerate(skels):
        pair_groups[menu[sk][0]].append(k)
    tot_counts = rows.sum(axis=0).tolist()
    for k0, *ks in pair_groups.values():
        for k in ks:
            r = float(menu[skels[k]][1] / menu[skels[k0]][1])
            c1, c0 = tot_counts[k], tot_counts[k0]
            if abs(c1 - r * c0) > 3 * math.sqrt(max(c1 + r * r * c0, 1.0)):
                ratio_ok = False
    return bool(meets(rows).all()), ratio_ok, pvals


def verify_ct_excursions(catalog: LoopCatalog, sites,
                         samples: int = 2 * 10 ** 4, seed: int = 0,
                         intensity: float = 1.0,
                         expect_fail: bool = False) -> TestReport:
    """Conditionally on the occupation times at the marked sites, the
    excursion skeletons form a Poisson process with intensity
    |phi_i| |phi_j| g^{-n} per site pair (half that on diagonal pairs),
    |phi_i| = sqrt(2 T_i), conditioned on even endpoint counts per site.

    Checked by `_skeleton_pvalues`: against one rejection-oracle sample per
    soup at the same occupations, and by the skeleton-frequency ratios.
    """
    if catalog.mode != "unoriented":
        raise OracleError("the excursion law is stated for unoriented soups")
    parity_ok, ratio_ok, pvals = _skeleton_pvalues(
        catalog, sites, intensity, samples, seed, "ct-excursions")
    worst, threshold, chi2_ok = _bonferroni(pvals)
    return _verdict("ct-excursions", "mc", worst, threshold,
                    parity_ok and ratio_ok and chi2_ok, catalog, samples, seed,
                    expect_fail, parity_ok=parity_ok, ratio_ok=ratio_ok,
                    pooled_p=pvals[-1], bins_tested=len(pvals))


def verify_random_currents(catalog: LoopCatalog, samples: int = 10 ** 5,
                           seed: int = 0, intensity: float = 1.0,
                           oriented_catalog: LoopCatalog | None = None,
                           expect_fail: bool = False) -> TestReport:
    """With every vertex marked, the jump counts given the occupation times
    are independent Poisson per unoriented edge with mean
    |phi_x| |phi_y| k_e / g (half that for self-edges), conditioned on even
    incident totals at every site; the oriented variant at alpha = 1 uses
    sqrt(T_x T_y) k_e / g per oriented edge conditioned on in = out.  Both
    are the skeleton check `_skeleton_pvalues` at every site.
    """
    if catalog.mode != "unoriented" or (oriented_catalog is not None
                                        and oriented_catalog.mode != "oriented"):
        raise OracleError("random currents take an unoriented catalog and, "
                          "for the in = out variant, an oriented one")
    even_ok, ratio_ok, pvals = _skeleton_pvalues(
        catalog, catalog.domain.vertices, intensity, samples, seed,
        "random-currents")
    details = {"even_degrees": even_ok, "pooled_p": pvals[-1],
               "bins_tested": len(pvals)}
    inout_ok = True
    if oriented_catalog is not None:
        # the oriented statement is specific to alpha = 1
        inout_ok, ratio_o, p_oriented = _skeleton_pvalues(
            oriented_catalog, oriented_catalog.domain.vertices, 1.0, samples,
            seed, "random-currents/oriented")
        ratio_ok = ratio_ok and ratio_o
        pvals += p_oriented
        details.update(inout_ok=inout_ok, oriented_p=p_oriented[-1])
    worst, threshold, chi2_ok = _bonferroni(pvals)
    return _verdict("random-currents", "mc", worst, threshold,
                    even_ok and inout_ok and ratio_ok and chi2_ok, catalog,
                    samples, seed, expect_fail, ratio_ok=ratio_ok, **details)


# -- Wilson cross-check ------------------------------------------------------------


def verify_wilson(graph, root, catalog: LoopCatalog, runs: int = 10 ** 6,
                  seed: int = 0) -> TestReport:
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
    # refuses an unoriented catalog before any walk; the soups are drawn a
    # chunk at a time as read, so each chunk's popping draws follow it
    rng_s = stream(seed, "wilson/soup")
    soup_rows = soup_count_rows(catalog, "oriented", 1.0, runs, rng_s)
    ug = catalog.unoriented_graph
    edge_class = {e.id: ug.edge_class(e.id) for e in graph.edges}

    def short(counts):          # the multiset's cycles up to WILSON_LENGTH_CAP
        return tuple(sorted([kc for kc in counts.items()
                             if len(kc[0]) <= WILSON_LENGTH_CAP]))

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
    s_keys: Counter = Counter()
    s_naive: Counter = Counter()
    for counts in soup_rows:
        s_keys[short(pop_cycles(LoopSoup(catalog, counts), rng_s))] += 1
        s_naive[short(counts)] += 1
    tv = stats.empirical_tv(w_keys, s_keys)
    tv_naive = stats.empirical_tv(w_keys, s_naive)
    return _verdict("wilson", "mc", tv, MC_TV_TOL, tree_ok and tv < MC_TV_TOL,
                    catalog, runs, seed, tree_marginal_uniform=tree_ok,
                    n_trees=n_trees,
                    tree_frequencies={str(k): v / runs
                                      for k, v in sorted(trees.items())},
                    naive_multiset_tv=tv_naive)
