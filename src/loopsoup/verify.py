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
CrossingCut (Props. 1bis and 3bis) cut a catalog class alone into its
contribution and record, and give the truncated-soup law of a bin from the
bridge laws in `exact`.  In a soup's own hookup each loop the cut splits
closes exactly one cycle, so both modes bin and key a class multiset from
its classes' records and cut no multiset.  `_verify_cut` runs a cut in
either mode: exactly, it decides per feasible target that the conditional
law of the keys equals that law; by Monte Carlo (`_mc_driver`) it samples
soups, bins the touching ones and tests every bin that holds
MIN_BIN_SAMPLES soups (goodness of fit against the oracle, or independence
of the sides for crossings) under one Bonferroni correction.  The sample
floor is the only rule: every other bin counts as skipped.

A cut touches only what it needs.  It cuts each class at most once, on
first use (`cut_of`).  Its `candidates` (every catalog class it splits)
are built by the exact mode and `targets`; the Monte Carlo driver never
builds them.  It reads the soups a chunk of class-index arrays at a time
(`soups.soup_chunks`), asks `touches(key)` once of each class drawn, keeps
only the touching draws, and visits, in soup order, just the soups that
hold one, keying each distinct touching sub-multiset once (`bin_key`).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import groupby, product, zip_longest
from operator import itemgetter

import numpy as np

from . import stats
from .exact import (OracleError, conditional_multiset_law, occupation_law,
                    side_orbit_key, side_pair_orbit, tv_distance,
                    unordered_bridge_law, z_bridge_law)
from .excursions import (cycles_key, decompose_counts,
                         extract_crossings_counts, flipped_pieces,
                         hookup_loop_lengths, hookup_walk, loop_skeletons,
                         oriented_hookup_orbit_key, path_endpoints,
                         record_edge_jumps_counts,
                         unoriented_hookup_orbit_key, walk_orbit_key)
from .graph import Domain, green_function
from .loops import LoopCatalog
from .rng import stream
from .soups import FieldSampler, soup_chunks, trivial_shape
from .wilson import (_multisets, check_root, popped_blocks,
                     spanning_tree_count, wilson_blocks)

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


def _untested(prop, catalog, samples, seed, expect_fail, note, **details):
    """The verdict of a Monte Carlo check that had no p-value to correct:
    it tested nothing, and `note` says why."""
    return _verdict(prop, "mc", 1.0, CHI2_SIGNIFICANCE, None, catalog,
                    samples, seed, expect_fail, note=note, **details)


def _bonferroni(pvals):
    """(smallest p-value, Bonferroni threshold, whether it clears it)."""
    worst = min(pvals)
    threshold = CHI2_SIGNIFICANCE / len(pvals)
    return worst, threshold, worst > threshold


# -- cuts: how each resampling statement cuts loops into conditioned pieces ----


class Cut:
    """One way of cutting loops into pieces, and the hookup law given them.

    A kind cuts a catalog class alone (`class_cut`) into its contribution
    (the Counter of pieces it is cut into) and its record (the cycle its
    loop closes), and gives the truncated-soup law of the keys in a bin,
    from a bridge-family table built once per endpoint vector
    (`bridge_table`).  The kinds are ExcursionCut (Props. 1 and 2), EdgeCut
    (Prop. 5) and CrossingCut (Props. 1bis and 3bis).  In a soup's own
    hookup each loop the cut splits closes exactly one cycle, so a class
    multiset's bin is that of its classes' summed contributions and its key
    is their cycles, sorted, or for crossings each side's joins
    (`bin_key`): neither mode cuts a multiset.
    """

    def __init__(self, catalog: LoopCatalog):
        self.catalog = catalog
        self.oriented = catalog.mode == "oriented"
        self.inv = None if self.oriented else catalog.unoriented_graph.involution
        self._class_cuts: dict = {}
        self._tables: dict = {}
        self._poisson: dict = defaultdict(dict)   # per intensity, per check

    @cached_property
    def candidates(self) -> list:
        """(key, mass, contribution, record) for every catalog class the cut
        splits (`cut_of`).  Built on first use, by the exact oracles and
        `targets`; the Monte Carlo driver never needs it."""
        out = []
        for cls in self.catalog.classes:
            got = self.cut_of(cls.key)
            if got is not None:
                out.append((cls.key, cls.mass, *got))
        return out

    def cut_of(self, key):
        """`class_cut(key)`: (contribution, record) of class `key` cut alone,
        or None when the cut does not split it; memoized per class."""
        if key not in self._class_cuts:
            self._class_cuts[key] = self.class_cut(key)
        return self._class_cuts[key]

    @cached_property
    def _by_piece(self) -> dict:
        """Piece -> the positions in `candidates` of the classes holding it."""
        index = defaultdict(list)
        for j, cand in enumerate(self.candidates):
            for piece in cand[2]:
                index[piece].append(j)
        return index

    def fitting(self, target: Counter) -> list:
        """The candidates whose contributions fit in `target`, in order."""
        cands = self.candidates
        holding = {j for piece in target for j in self._by_piece.get(piece, ())}
        return [cands[j] for j in sorted(holding)
                if all(target[k] >= v for k, v in cands[j][2].items())]

    def key_of(self, ms):
        """Hookup key of the class multiset ms, (key, count) pairs of
        touching classes: their cycles, each repeated count times, sorted."""
        return tuple(sorted(c for k, u in ms for c in (self.cut_of(k)[1],) * u))

    def bin_key(self, ms):
        """(bin, hookup key) of the class multiset ms: the bin of its
        classes' summed contributions (`bin_of`) and `key_of`."""
        pieces = Counter()
        for k, u in ms:
            pieces.update({p: n * u for p, n in self.cut_of(k)[0].items()})
        return self.bin_of(pieces), self.key_of(ms)

    def touches(self, key) -> bool:
        """Whether the cut splits class `key`."""
        return self.cut_of(key) is not None

    def targets(self, max_size: int) -> list[Counter]:
        """Conditioning targets: single contributions of size <= max_size and
        sums of two contributions of size <= max_size / 2, in target order."""
        found = set()
        halves = []
        for _, _, contrib, _ in self.candidates:
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

    def bridge_table(self, b):
        """(pieces of bin b, its bridge-family table, the table's
        denominator, flippable slot pairs).

        The bridge measure depends on the pieces only through their endpoint
        vector Z (`bridge_ends`), so its table is built once per vector and
        shared by the bins with that vector: one (joins, integer weight,
        walk) entry per configuration, the walk read once (`hookup_walk`);
        an entry's probability is its weight over the denominator.  The
        oriented table joins the ends Z[1::2] to the starts Z[0::2].
        """
        pieces, Z, flippable = self.bridge_ends(b)
        if Z not in self._tables:
            L_max = self.catalog.L_max
            if self.oriented:
                configs, denominator = unordered_bridge_law(
                    self.sub, Z[1::2], Z[0::2], L_max)
            else:
                configs, denominator = z_bridge_law(self.sub, Z, self.inv,
                                                    L_max)
            self._tables[Z] = ([
                (joins, w, hookup_walk(joins, len(pieces)))
                for joins, w in configs.items()], denominator)
        return pieces, *self._tables[Z], flippable

    def oracle(self, b):
        """(truncated-soup law of the hookup keys of bin b, infeasible mass).

        The law is the bridge measure restricted to the configurations whose
        loops, measured on their tabulated walks with the lengths of b's
        pieces, all fit in L_max, then renormalized: the exact conditional
        law of the truncated soup.  The infeasible mass is the bridge mass
        left out, bridges too long to enumerate included (no loop holding
        one fits).  Weights are summed as integers, and each law entry is
        one Fraction.
        """
        pieces, table, denominator, flippable = self.bridge_table(b)
        flips = () if self.oriented else flipped_pieces(pieces, flippable,
                                                        self.inv)
        law: dict = {}
        for _, w, walk in table:
            if max(hookup_loop_lengths(pieces, walk)) > self.catalog.L_max:
                continue
            key = walk_orbit_key(pieces, walk, self.oriented, flips)
            law[key] = law.get(key, 0) + w
        feasible = sum(law.values())
        return ({k: Fraction(v, feasible) for k, v in law.items()},
                1 - feasible / denominator)

    def laws(self, intensity: Fraction, target: Counter):
        """(report entry, conditional law of the hookup keys given `target`
        (`key_of`), truncated-soup law of its bin)."""
        cond: dict = {}
        for ms, w in conditional_multiset_law(
                intensity, self.fitting(target), target,
                self._poisson[intensity]).items():
            key = self.key_of(ms)
            cond[key] = cond.get(key, 0) + w
        total = sum(cond.values())
        b = self.bin_of(target)
        law, infeasible = self.oracle(b)
        return ({**self.label(b), "infeasible": float(infeasible)},
                {k: Fraction(v, total) for k, v in cond.items()}, law)


class ExcursionCut(Cut):
    """Loops meeting F1 and F2, cut at F2 into the excursions through F1;
    bins are excursion vectors eta, the oracle is the unordered (oriented)
    or pairing-weighted (unoriented) bridge measure in D minus F1."""

    noun = "eta"

    def __init__(self, catalog: LoopCatalog, F1, F2):
        self.F1, self.F2 = F1, F2
        self.sub = catalog.domain.without_vertices(F1)
        super().__init__(catalog)

    def class_cut(self, key):
        d = decompose_counts(self.catalog, {key: 1}, self.F1, self.F2)
        if not d.N:
            return None
        if self.oriented:
            (cycle,) = oriented_hookup_orbit_key(d.eta, d.beta_truth)
        else:
            (cycle,) = unoriented_hookup_orbit_key(d.eta, d.beta_truth,
                                                   involution=self.inv)
        return Counter(d.eta), cycle

    @staticmethod
    def target_order(items):
        return tuple(sorted(Counter(dict(items)).elements()))

    def bin_of(self, target: Counter):
        return self.target_order(target.items())

    def label(self, eta) -> dict:
        return {"eta_lengths": [len(p) for p in eta]}

    def bridge_ends(self, eta):
        """(pieces, endpoint vector Z, flippable slot pairs): Z[2j] starts
        excursion j and Z[2j+1] ends it."""
        graph = self.catalog.domain.graph
        return eta, tuple(v for p in eta for v in path_endpoints(graph, p)), ()


class EdgeCut(Cut):
    """Loops cut at their jumps across removed edge classes; bins are jump
    count vectors, the oracle is the pairing-weighted bridge measure in the
    domain without those edges."""

    def __init__(self, catalog: LoopCatalog, removed):
        if catalog.mode != "unoriented":
            raise OracleError("the removed-edge resampling works on unoriented soups")
        self.removed = tuple(sorted(tuple(k) for k in removed))
        if len(set(self.removed)) < len(self.removed):
            raise OracleError("a removed edge class is given twice")
        self.sub = catalog.domain.without_edges(
            {eid for ck in self.removed for eid in ck})
        super().__init__(catalog)

    def _pieces(self, jumps):
        """Single-jump paths, one per instance, running small endpoint to large."""
        graph = self.catalog.domain.graph
        pieces = []
        for ckey, n in zip(self.removed, jumps):
            eid = ckey[0]
            e = graph.edge_by_id[eid]
            pieces.extend([(eid,) if e.tail <= e.head else (self.inv(eid),)] * n)
        return tuple(pieces)

    def class_cut(self, key):
        rec = record_edge_jumps_counts(self.catalog, {key: 1}, self.removed)
        if not any(rec.counts):
            return None
        (cycle,) = unoriented_hookup_orbit_key(
            self._pieces(rec.counts), rec.hookup, rec.self_edge_slots, self.inv)
        return Counter({c: n for c, n in zip(self.removed, rec.counts) if n}), cycle

    def bin_of(self, target: Counter):
        return tuple(target[c] for c in self.removed)

    def label(self, jumps) -> dict:
        return {"jumps": {str(c): n for c, n in zip(self.removed, jumps) if n}}

    def bridge_ends(self, jumps):
        graph = self.catalog.domain.graph
        pieces = self._pieces(jumps)
        Z = tuple(v for p in pieces for v in path_endpoints(graph, p))
        # self-edge jumps have indistinguishable ends
        flippable = tuple((2 * i, 2 * i + 1) for i in range(len(pieces))
                          if Z[2 * i] == Z[2 * i + 1])
        return pieces, Z, flippable


class CrossingCut(Cut):
    """Loops cut at visits to the marked sets into crossings between them;
    bins are crossing configurations, keyed by the per-set completions.

    Monte Carlo bins test independence of the sides instead of an oracle.
    """

    def __init__(self, catalog: LoopCatalog, sets):
        self.sets = tuple(frozenset(s) for s in sets)
        super().__init__(catalog)

    target_order = staticmethod(repr)

    def label(self, ck) -> dict:
        return {"crossings": sum(len(v) for _, v in ck)}

    def bin_p(self, ck, counts: Counter, n: int):
        return _independence_chi2(counts, len(self.sets))

    def class_cut(self, key):
        """Its record is (cycle, J, flips), `side_pair_orbit` of it alone,
        and the joins of each side, `side_orbit_key` of it alone."""
        cs = extract_crossings_counts(self.catalog, {key: 1}, self.sets)
        if not cs.instances:
            return None
        (cycle,), J, flips = side_pair_orbit(cs, self.inv)
        sides = tuple(side_orbit_key(cs, i) for i in range(len(self.sets)))
        return Counter(cs.instances), (cycle, J, flips, sides)

    def bin_of(self, target: Counter):
        """The crossing key: the crossings grouped by pair, sorted."""
        return tuple((pair, tuple(p for _, p in group)) for pair, group
                     in groupby(sorted(target.elements()), itemgetter(0)))

    def key_of(self, ms):
        """Per-side completion keys of the class multiset ms: each side's
        joins, the sorted union of its classes' (`side_orbit_key`)."""
        recs = [(self.cut_of(k)[1][3], u) for k, u in ms]
        return tuple(tuple(sorted(j for sides, u in recs for j in sides[i] * u))
                     for i in range(len(self.sets)))

    def completion(self, ms, relabelings: int):
        """`side_pair_orbit`'s key and count of the class multiset ms, from
        its classes' records; relabelings is prod_t n_t! over the crossings."""
        recs = [(self.cut_of(k)[1], u) for k, u in ms]
        key, fixing = cycles_key([rec[:2] for rec, u in recs for _ in range(u)])
        return key, relabelings // fixing << sum(u * rec[2] for rec, u in recs)

    def laws(self, intensity: Fraction, target: Counter):
        """(report entry, conditional law of the joint completion given the
        crossings `target`, its truncated-soup law).

        The joint completion is every side's hookup, up to relabeling
        identical crossings at once; for oriented soups it is the class
        multiset itself.  Each loop closes exactly one of its cycles, so its
        key, and the number of labeled configurations of the per-side bridge
        measures it stands for, are read off the classes (`completion`),
        each configuration of mass g^-(its bridge steps) over a normalizer
        shared by the bin, summed as the integer g^(most steps - its steps);
        the law renormalizes over the completions the catalog realizes,
        those whose loops all fit in L_max.
        """
        g = self.catalog.domain.g
        cross_steps = sum(len(p) * n for (_, p), n in target.items())
        relabelings = math.prod(map(math.factorial, target.values()))
        cond: dict = {}
        bridge: dict = {}
        for ms, w in conditional_multiset_law(
                intensity, self.fitting(target), target,
                self._poisson[intensity]).items():
            key, n = self.completion(ms, relabelings)
            cond[key] = cond.get(key, 0) + w
            # multisets sharing a key (the orientations of a returning arc)
            # share its configurations
            bridge[key] = n, sum(len(k) * u for k, u in ms) - cross_steps
        total = sum(cond.values())
        top = max(steps for _, steps in bridge.values())
        bridge = {k: n * g ** (top - steps) for k, (n, steps) in bridge.items()}
        z = sum(bridge.values())
        return ({"crossings": sum(target.values()), "support": len(cond)},
                {k: Fraction(v, total) for k, v in cond.items()},
                {k: Fraction(v, z) for k, v in bridge.items()})


# -- the drivers -------------------------------------------------------------------


def _mc_bins(cut: Cut, intensity: float, samples: int, rng) -> dict:
    """Bin key -> Counter of hookup keys, over `samples` soups of the stream.

    Classes the cut does not split add no piece, so each soup is keyed by
    its touching classes alone (`Cut.bin_key`), once per distinct
    sub-multiset.  The soups come a chunk of arrays at a time
    (`soups.soup_chunks`), and most hold no touching class: the touching
    draws are masked out of each chunk with a per-class memo of
    `cut.touches`, asked only of the classes drawn, and only soups holding
    one are visited, in soup order.
    """
    classes = cut.catalog.classes
    chunks = soup_chunks(cut.catalog,
                         "oriented" if cut.oriented else "unoriented",
                         intensity, samples, rng)
    touching = np.full(len(classes), -1, dtype=np.int8)    # -1: not asked yet
    keyed: dict = {}        # sorted touching sub-multiset -> its bin_key
    bins: dict = defaultdict(Counter)
    for counts, idx in chunks:
        for i in set(idx[touching[idx] < 0].tolist()):
            touching[i] = cut.touches(classes[i].key)
        hit = touching[idx] == 1
        if not hit.any():
            continue
        owners = np.repeat(np.arange(len(counts)), counts)[hit].tolist()
        for _, soup in groupby(zip(owners, idx[hit].tolist()), itemgetter(0)):
            keys = [classes[i].key for _, i in soup]
            sub = (((keys[0], 1),) if len(keys) == 1
                   else tuple(sorted(Counter(keys).items())))
            if sub not in keyed:
                keyed[sub] = cut.bin_key(sub)
            b, key = keyed[sub]
            bins[b][key] += 1
    return bins


def _mc_driver(prop, cut: Cut, intensity: float, samples: int, seed: int,
               expect_fail: bool) -> TestReport:
    """Sample soups, bin the hookup keys of those touching the cut
    (`_mc_bins`), and test, in bin-key order, every bin that holds
    MIN_BIN_SAMPLES soups, under one Bonferroni correction.  Every other bin
    counts as skipped, and so does a bin whose test has no degree of
    freedom: tested + skipped is the number of bins.
    """
    bins = _mc_bins(cut, intensity, samples, stream(seed, prop))
    pvals = []
    tested = []
    for b, counts in sorted(bins.items()):
        n_bin = sum(counts.values())
        p = cut.bin_p(b, counts, n_bin) if n_bin >= MIN_BIN_SAMPLES else None
        if p is not None:
            pvals.append(p)
            tested.append({**cut.label(b), "n": n_bin, "p": p})
    catalog = cut.catalog
    if not pvals:
        return _untested(prop, catalog, samples, seed, expect_fail,
                         "no bin had enough samples")
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


# -- occupation-field spatial Markov property ----------------------------------


def _markov_bounds(cap: int) -> tuple[int, int]:
    """(b, cap - 2b), b = cap // 3: the Markov window's bound on the inside
    and the outside, and on the boundary."""
    return cap // 3, cap - 2 * (cap // 3)


def _markov_defect(law, idx_in, idx_bd, idx_out,
                   tilt_edge_group: int | None = None) -> tuple[float, int, int]:
    """Decide in integers that the inside and outside counts of a window of
    the law, tilted by TILT^(jumps of `tilt_edge_group`) when one is given,
    are independent given the boundary counts.

    The window is {|inside| <= b} x {|boundary| <= cap - 2b} x
    {|outside| <= b} with b = cap // 3 (`_markov_bounds`), the window
    `verify_occupation_markov` builds its law on.  Its bounds sum to the
    cap, so every weight in it is exact and an absent cell weighs 0;
    restriction to a product window preserves conditional independence.
    The block of a boundary value, with row sums R, column sums C and total
    T, is a product exactly when w T == R(i) C(o) at every cell of rows x
    columns; a block with one row or one column is a product whatever its
    weights, so it tests nothing.  Returns the total variation between the
    window law and its Markov projection (0.0 exactly when every block is a
    product), the cells checked and the cells violated.
    The law's integer numerators share one denominator, which cancels.  No
    count exceeds the cap, so for TILT = p/q a weight with k jumps in the
    group is scaled by p^k q^(cap - k), TILT^k times the common q^cap.
    """
    b, b_bd = _markov_bounds(law.cap)
    t, p, q = tilt_edge_group, TILT.numerator, TILT.denominator
    factor = [p ** k * q ** (law.cap - k) for k in range(law.cap + 1)]
    inside, boundary, outside = (
        (lambda n, idx=idx: tuple(map(n.__getitem__, idx)))
        for idx in (idx_in, idx_bd, idx_out))
    blocks: dict = defaultdict(dict)
    for n, w in law.numerators.items():
        i_, bd, o_ = inside(n), boundary(n), outside(n)
        if sum(i_) <= b and sum(o_) <= b and sum(bd) <= b_bd:
            blocks[bd][i_, o_] = w if t is None else w * factor[n[t]]
    norm = checked = bad = 0
    gap = Fraction(0)
    for M in blocks.values():
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
                             intensity_kind: str = "c", intensity=Fraction(1),
                             cap: int = 12, tilt_edge_groups=(),
                             expect_fail: bool = False,
                             allow_marginal: bool = False) -> list[TestReport]:
    """Edge-occupation fields inside and outside a vertex set are
    conditionally independent given the boundary jump counts, decided
    exactly on the jump-count law of a c-soup (`intensity_kind` "c") or of
    an oriented soup ("alpha") at `intensity`.

    edge_partition = (groups, idx_in, idx_bd, idx_out): variable groups and
    the index split into inside/boundary/outside variables, which is all the
    check reads of the vertex set.  Site occupation times are measurable
    over visit counts, which the edge fields determine, so edge-level
    independence carries the site fields along.  The law is built once, by
    `occupation_law` on the partition's groups at exponent c/2 or alpha, on
    the window `_markov_defect` reads (the parts inside, on the boundary
    and outside, bounded by `_markov_bounds(cap)`), and every report names
    it.  The partition's parts must hold every group.  Returns the check of
    the law, then one check per group of `tilt_edge_groups` of the law
    tilted by TILT^(jumps of that group).  A control that checks cells and
    violates none fails with a note: its window is too small to see the
    defect.
    """
    if intensity_kind not in ("c", "alpha"):
        raise OracleError(f"intensity kind {intensity_kind!r} is neither "
                          "'c' nor 'alpha'")
    check_markov_partition(edge_partition)
    exponent = Fraction(intensity)
    if intensity_kind == "c":
        exponent /= 2
    groups, idx_in, idx_bd, idx_out = edge_partition
    b, b_bd = _markov_bounds(cap)
    law = occupation_law(domain, groups, exponent, cap,
                         allow_marginal=allow_marginal,
                         window=((idx_in, b), (idx_bd, b_bd), (idx_out, b)))
    reports = []
    for tilt in (None, *tilt_edge_groups):
        stat, checked, bad = _markov_defect(law, idx_in, idx_bd, idx_out, tilt)
        quiet = expect_fail and checked and not bad
        note = {"note": f"no cell violated: the window of cap {cap} is too "
                        "small to see the defect"} if quiet else {}
        reports.append(_verdict(
            "occupation-markov", "exact", stat, 0.0,
            bad == 0 if checked else None, expect_fail=expect_fail,
            cells_checked=checked, cells_violated=bad,
            intensity_kind=intensity_kind, intensity=str(intensity), cap=cap,
            tilted=tilt is not None, **note))
    return reports


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
    counts, conditioned per site: unoriented, phi = sqrt(2 T), halved for
    a skeleton that is its own reversal (any other merges two
    orientations), and even endpoint counts; oriented (alpha = 1),
    phi = sqrt(T) and in = out.  With every vertex marked each skeleton is
    one jump: the random-current representation.

    The soups come from stream (seed, name), and the oracle, one rejection
    sample per soup at its occupations, from (seed, name/oracle).  Soups
    holding a skeleton beyond SKELETON_CAP are left out (long skeletons keep
    the condition too, but have no column).  The rest are compared by
    two-sample chi-square per quantile bin of the total occupation, and
    pooled, each test only over MIN_BIN_SAMPLES soups or more, as in
    `_mc_driver`.  Returns whether every compared soup meets the condition,
    whether the pooled skeleton counts within each site pair follow the
    mass ratios, the p-values of the tests with a degree of freedom, and
    the pooled one (None when it was not run or had no degree of freedom).
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
    rates = [menu[sk][1] if oriented or inv.reverse_path(sk) != sk
             else menu[sk][1] / 2 for sk in skels]       # per phi_a phi_b
    phi = np.sqrt((1.0 if oriented else 2.0) * T)
    oracle = stats.sample_conditioned_poisson(
        phi[:, x] * phi[:, y] * np.array([float(r) for r in rates]), meets,
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
    pooled = None
    if len(rows) >= MIN_BIN_SAMPLES:
        _, dof, p = test(rows, oracle)
        if dof > 0:
            pooled = p
            pvals.append(p)
    # pooled frequency ratios within site pairs against the rate ratios
    ratio_ok = True
    pair_groups: dict = defaultdict(list)
    for k, sk in enumerate(skels):
        pair_groups[menu[sk][0]].append(k)
    tot_counts = rows.sum(axis=0).tolist()
    for k0, *ks in pair_groups.values():
        for k in ks:
            r = float(rates[k] / rates[k0])
            c1, c0 = tot_counts[k], tot_counts[k0]
            if abs(c1 - r * c0) > 3 * math.sqrt(max(c1 + r * r * c0, 1.0)):
                ratio_ok = False
    return bool(meets(rows).all()), ratio_ok, pvals, pooled


NO_SKELETON_TEST = "no skeleton test had enough soups and a degree of freedom"


def verify_ct_excursions(catalog: LoopCatalog, sites,
                         samples: int = 2 * 10 ** 4, seed: int = 0,
                         intensity: float = 1.0,
                         expect_fail: bool = False) -> TestReport:
    """Conditionally on the occupation times at the marked sites, the
    excursion skeletons form a Poisson process with intensity
    |phi_i| |phi_j| g^{-n} per site pair (half that for a skeleton that
    is its own reversal), |phi_i| = sqrt(2 T_i), conditioned on even
    endpoint counts per site.

    Checked by `_skeleton_pvalues`: against one rejection-oracle sample per
    soup at the same occupations, and by the skeleton-frequency ratios.
    """
    if catalog.mode != "unoriented":
        raise OracleError("the excursion law is stated for unoriented soups")
    parity_ok, ratio_ok, pvals, pooled = _skeleton_pvalues(
        catalog, sites, intensity, samples, seed, "ct-excursions")
    if not pvals:
        return _untested("ct-excursions", catalog, samples, seed, expect_fail,
                         NO_SKELETON_TEST, parity_ok=parity_ok,
                         ratio_ok=ratio_ok)
    worst, threshold, chi2_ok = _bonferroni(pvals)
    return _verdict("ct-excursions", "mc", worst, threshold,
                    parity_ok and ratio_ok and chi2_ok, catalog, samples, seed,
                    expect_fail, parity_ok=parity_ok, ratio_ok=ratio_ok,
                    pooled_p=pooled, bins_tested=len(pvals))


def verify_random_currents(catalog: LoopCatalog, samples: int = 10 ** 5,
                           seed: int = 0, intensity: float = 1.0,
                           expect_fail: bool = False) -> TestReport:
    """With every vertex marked, the jump counts given the occupation times
    are independent Poisson per unoriented edge with mean
    |phi_x| |phi_y| k_e / g (half that for self-edges the involution
    fixes), conditioned on even incident totals at every site; the
    oriented variant at alpha = 1 uses sqrt(T_x T_y) k_e / g per oriented
    edge conditioned on in = out.  Both are the skeleton check
    `_skeleton_pvalues` at every site: the unoriented one on `catalog` at
    `intensity`, the oriented one on its `counterpart()`, the oriented soup
    it forgets the orientation of.
    """
    if catalog.mode != "unoriented":
        raise OracleError("random currents take an unoriented catalog; the "
                          "in = out variant runs on its oriented counterpart")
    even_ok, ratio_u, p_u, pooled_u = _skeleton_pvalues(
        catalog, catalog.domain.vertices, intensity, samples, seed,
        "random-currents")
    # the oriented statement is specific to alpha = 1
    inout_ok, ratio_o, p_o, pooled_o = _skeleton_pvalues(
        catalog.counterpart(), catalog.domain.vertices, 1.0, samples, seed,
        "random-currents/oriented")
    ratio_ok = ratio_u and ratio_o
    if not p_u + p_o:
        return _untested("random-currents", catalog, samples, seed,
                         expect_fail, NO_SKELETON_TEST, ratio_ok=ratio_ok,
                         even_degrees=even_ok, inout_ok=inout_ok)
    worst, threshold, chi2_ok = _bonferroni(p_u + p_o)
    return _verdict("random-currents", "mc", worst, threshold,
                    even_ok and inout_ok and ratio_ok and chi2_ok, catalog,
                    samples, seed, expect_fail, ratio_ok=ratio_ok,
                    even_degrees=even_ok, pooled_p=pooled_u,
                    bins_tested=len(p_u) + len(p_o), inout_ok=inout_ok,
                    oriented_p=pooled_o)


# -- Wilson cross-check ------------------------------------------------------------


def verify_wilson(catalog: LoopCatalog, root, runs: int = 10 ** 6,
                  seed: int = 0) -> TestReport:
    """Wilson's algorithm on the catalog's graph against the unit-intensity
    oriented soup.

    (a) The spanning-tree marginal is uniform: each tree is within three
    standard errors of 1/#trees, and every one of the g^|D| det(I - P_D)
    trees (directed matrix-tree theorem, in exact integers) is drawn, so a
    tree never drawn fails the check.  (b) The erased-cycle multiset
    restricted to short cycles matches the soup resolved into simple cycles
    through the arrow-stack correspondence (uniformly interleaved stacks,
    popped), with total variation below the Monte Carlo tolerance.  The raw
    class-multiset comparison is reported for transparency; it is NOT
    expected to vanish because erased cycles are always simple while soup
    loops may wind.

    The walks run on `catalog.domain.graph`, the graph the soup lives on,
    and the catalog's domain must be every vertex but the root (WilsonError
    otherwise).  Both sides pop in lockstep, a block at a time
    (`wilson.wilson_blocks`, `wilson.popped_blocks`); runs, soups and raw
    class multisets are counted by distinct row, and each distinct tree,
    cycle multiset and raw class multiset is mapped to its report key once
    per check, across blocks.
    """
    graph = catalog.domain.graph
    check_root(graph, root, catalog.domain.vertices)
    # refuses an unoriented catalog before any walk; the soups are drawn a
    # block at a time as popped, so each block's popping draws follow it
    rng_s = stream(seed, "wilson/soup")
    chunks = soup_chunks(catalog, "oriented", 1.0, runs, rng_s)
    classes, ug = catalog.classes, catalog.unoriented_graph

    # the report keys, each computed once per distinct value per check
    @cache
    def short(keys):        # a multiset's cycles up to WILSON_LENGTH_CAP
        return tuple(sorted(Counter(
            [k for k in keys if len(k) <= WILSON_LENGTH_CAP]).items()))

    @cache
    def tree_key(exits):
        return tuple(sorted([ug.edge_class(e) for e in exits if e is not None]))

    @cache
    def raw_key(m):         # a multiset of class indices
        return short(tuple([classes[i].key for i in m]))

    def tally(into, distinct, of, key):     # runs by distinct value -> by key
        for d, c in zip(distinct, np.bincount(of, minlength=len(distinct))):
            into[key(d)] += int(c)

    trees, w_keys, popped, s_naive = Counter(), Counter(), Counter(), Counter()
    for tree_d, tree_of, erased, erased_of in wilson_blocks(
            graph, root, runs, stream(seed, "wilson")):
        tally(trees, tree_d, tree_of, tree_key)
        tally(w_keys, erased, erased_of, short)
    n_trees = len(trees)
    p0 = 1.0 / n_trees
    se = math.sqrt(runs * p0 * (1 - p0))
    tree_ok = (n_trees == spanning_tree_count(graph, root)
               and all(abs(c - runs * p0) <= 3 * se for c in trees.values()))
    is_short = np.array([c.n <= WILSON_LENGTH_CAP for c in classes], dtype=bool)
    for counts, idx, pops, pops_of in popped_blocks(catalog, chunks, rng_s):
        tally(popped, pops, pops_of, short)
        keep = is_short[idx]
        tally(s_naive, *_multisets(np.repeat(np.arange(len(counts)),
                                             counts)[keep], idx[keep],
                                   len(counts)), raw_key)
    tv = stats.empirical_tv(w_keys, popped)
    tv_naive = stats.empirical_tv(w_keys, s_naive)
    return _verdict("wilson", "mc", tv, MC_TV_TOL, tree_ok and tv < MC_TV_TOL,
                    catalog, runs, seed, tree_marginal_uniform=tree_ok,
                    n_trees=n_trees,
                    tree_frequencies={str(k): v / runs
                                      for k, v in sorted(trees.items())},
                    naive_multiset_tv=tv_naive)
