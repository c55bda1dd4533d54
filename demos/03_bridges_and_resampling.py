#!/usr/bin/env python3
"""Bridges, excursion decompositions, and the unit-intensity resampling law.

A soup loop that meets two disjoint vertex sets splits into the excursions
seen from the cut set and the complementary bridges that hook them back into
loops.  At unit intensity the conditional law of the hookup given the
excursions is exactly the permutation-weighted bridge measure between the
excursion endpoints: we check it here by exact enumeration, in rational
arithmetic.
"""

from collections import Counter
from fractions import Fraction

from loopsoup import (Domain, UnorientedGraph, complete_graph, enumerate_loops,
                      green_function, pair_reversals, sample_bridge,
                      sample_oriented_soup, sample_unordered_bridge,
                      verify_prop1)
from loopsoup.excursions import decompose_counts
from loopsoup.rng import stream
from loopsoup.verify import ExcursionCut

g = complete_graph(12)            # heavy leakage: little infeasible mass
iota = pair_reversals(g)
ug = UnorientedGraph(g, iota)
dom = Domain(g, [1, 2, 3])
cat = enumerate_loops(dom, 6, unoriented=ug)
rng = stream(7, "demo-bridges")

# Single bridges: the law weights a path g^{-length} / G(x, y).
green = green_function(dom)
lens = Counter(sample_bridge(dom, 1, 2, rng).n for _ in range(20000))
print("bridge 1->2 length frequencies:", dict(sorted(lens.items())[:5]))

fam = sample_unordered_bridge(dom, (1, 2), (2, 1), rng)
print("unordered family: permutation", fam.permutation,
      "lengths", [b.n for b in fam.bridges])

# Decompose soup samples at the cut sets F1 = {1}, F2 = {2}.
for _ in range(10000):
    soup = sample_oriented_soup(cat, 1.0, rng)
    d = decompose_counts(cat, soup, {1}, {2})
    if d.N >= 2:
        print(f"a soup with {d.M} touching loop(s) and {d.N} excursions:")
        print("  excursion endpoint vector Z =", d.Z)
        print("  realized hookup joins:", d.beta_truth)
        break
else:
    print("no soup among the 10,000 drawn had two excursions between {1} "
          "and {2}")

# The exact conditional oracle: enumerate every truncated soup matching a
# conditioning and marginalize onto the hookup.
cut = ExcursionCut(cat, {1}, {2})
_, dist, _ = cut.laws(Fraction(1), cut.targets(2)[1])
print(f"conditional hookup law given a 2-excursion conditioning: "
      f"{len(dist)} outcomes, total mass {float(sum(dist.values())):.6f}")

# And the packaged verification: the conditional law is equal, as Fractions,
# to the truncated-soup law (the bridge measure restricted to hookups whose
# loops fit in the length cap, renormalized).
report = verify_prop1(cat, {1}, {2}, mode="exact")
print("resampling law verified:", report.verdict,
      f"(worst tv {report.statistic}, equal to the truncated-soup law)")
report2 = verify_prop1(cat, {1}, {2}, mode="exact", intensity=Fraction(2),
                       expect_fail=True)
print("alpha=2 control fails as it must:", report2.verdict == "pass")
