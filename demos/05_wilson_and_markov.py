#!/usr/bin/env python3
"""Wilson's algorithm and the spatial Markov property of occupation fields.

The cycles erased while Wilson's algorithm builds a uniform spanning tree
have the law of the unit-intensity oriented soup once the soup is resolved
into simple cycles through the arrow-stack correspondence.  Separately, the
edge occupation field of the c = 1 unoriented soup is conditionally
independent across a vertex cut given the boundary jump counts, which we
check exactly from the jump-count generating function.
"""

from loopsoup import (pop_cycles, sample_oriented_soup,
                      verify_occupation_markov, verify_wilson, wilson_ust)
from loopsoup.cli import markov_edge_partition
from loopsoup.config import build_workspace, config_from_dict
from loopsoup.rng import stream

cfg = config_from_dict({
    "graph": "cycle:4", "domain": "1 2 3", "jobs": "wilson",
    "seed": "0", "l_max": "14", "root": "0",
})
ws = build_workspace(cfg)
rng = stream(5, "demo-wilson")

tree, erased = wilson_ust(ws.domain.graph, 0, rng)
print("one Wilson run: tree =", tree, " erased cycles =", dict(erased))

cat = ws.catalog("oriented")
resolved = pop_cycles(cat, sample_oriented_soup(cat, 1.0, rng), rng)
print("one soup sample resolved into simple cycles:", dict(resolved))

report = verify_wilson(cat, 0, runs=200000, seed=6)
print("Wilson cross-check:", report.verdict,
      " tree marginal uniform:", report.details["tree_marginal_uniform"],
      " TV(erased, resolved soup):", round(report.statistic, 4))
print("  (raw multiset TV", round(report.details["naive_multiset_tv"], 3),
      "- erased cycles are simple, soup loops may wind)")

# Spatial Markov property of the occupation field on a 4-vertex split.
cfg2 = config_from_dict({
    "graph": "cycle:5", "domain": "1 2 3 4", "jobs": "occupation-markov",
    "seed": "0", "l_max": "6", "f1": "1 2",
})
ws2 = build_workspace(cfg2)
part = markov_edge_partition(ws2, oriented=False)
rep, rep_t = verify_occupation_markov(ws2.domain, part, intensity_kind="c",
                                      cap=12, tilt_edge_groups=part[2][:1])
print("occupation-field Markov property:", rep.verdict,
      " TV to the Markov projection:", rep.statistic,
      " cells violated:", rep.details["cells_violated"], "of",
      rep.details["cells_checked"])
print("tilted by theta^N on a boundary edge, still Markov:", rep_t.verdict)
