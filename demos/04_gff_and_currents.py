#!/usr/bin/env python3
"""The Gaussian free field connection and random currents.

At half intensity the continuous-time occupation field, measured in
unit-mean holding times, has exactly the law of half the squared Gaussian
free field with covariance the Green's matrix.  Conditioning on the
occupation turns the jump counts into independent Poisson variables with
means |phi_x||phi_y|/g, constrained to even degrees: the random-current
law.
"""

from scipy import stats as sps

from loopsoup import (Domain, FieldSampler, complete_graph, enumerate_loops,
                      green_function, pair_reversals, sample_gff,
                      unoriented_view, verify_lejan, verify_random_currents)
from loopsoup.rng import stream

g = complete_graph(5)
iota = pair_reversals(g)
ug = unoriented_view(g, iota)
dom = Domain(g, [1, 2, 3])
cat = enumerate_loops(dom, 14, unoriented=ug)
ucat = cat.counterpart()
rng = stream(99, "demo-gff")

green = green_function(dom)
print("G(1,1) =", green(1, 1))

# Occupation vs half the squared GFF, side by side.
fs = FieldSampler(cat, [], [1, 2, 3])
_, _, times = fs.sample(0.5, 100000, rng)
T = times * dom.g
phi = sample_gff(dom, rng, size=100000)
print("mean occupation:", T[:, 0].mean().round(4),
      "  mean phi^2/2:", (phi[:, 0] ** 2 / 2).mean().round(4))
ks = sps.ks_2samp(T[:, 0], phi[:, 0] ** 2 / 2).statistic
print("two-sample KS distance:", round(ks, 4))

report = verify_lejan(cat, samples=100000, seed=1)
print("isomorphism verified:", report.verdict,
      " worst Laplace p over", report.details["points_tested"], "points:",
      round(report.statistic, 4))

# Random currents: even degree at every vertex, and conditionally on the
# occupation the jumps are even-conditioned independent Poissons.
report = verify_random_currents(ucat, samples=50000, seed=2,
                                oriented_catalog=cat)
print("random currents verified:", report.verdict,
      " even degrees:", report.details["even_degrees"],
      " oriented in=out:", report.details["inout_ok"])
