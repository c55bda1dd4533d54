#!/usr/bin/env python3
"""Sampling loop soups and watching their occupation fields.

The soup at intensity t gives every loop class an independent Poisson count
with mean t times its measure.  Each unoriented class carries half the mass
of its oriented preimages, so forgetting the orientations of an alpha-soup
gives the c = 2 alpha soup, and fair coins bring them back.  In continuous
time every visit carries an exponential holding time and each site also
collects the occupation of the zero-jump loops; `FieldSampler` draws these
occupation fields in bulk and knows their exact Laplace transform.
"""

import numpy as np

from loopsoup import (Domain, FieldSampler, UnorientedGraph, complete_graph,
                      enumerate_loops, green_function, pair_reversals,
                      sample_oriented_soup)
from loopsoup.loops import necklace
from loopsoup.rng import stream

g = complete_graph(5)
iota = pair_reversals(g)
ug = UnorientedGraph(g, iota)
dom = Domain(g, [1, 2, 3])
cat = enumerate_loops(dom, 10, unoriented=ug)   # keep ug around so the
ucat = cat.counterpart()                        # unoriented catalog is derivable
rng = stream(2024, "demo-soups")

soup = sample_oriented_soup(cat, 1.0, rng)      # {class key: count}
print("one alpha=1 soup sample:", sum(soup.values()), "loops,",
      sum(cat.by_key[k].n * c for k, c in soup.items()), "jumps")

# A class's orientations are its key and the necklace of its reversal.
print("nu(L~) = sum of mu / 2 over its orientations, every class:",
      all(2 * u.mass == sum(cat.by_key[k].mass for k in
                            {u.key, necklace(iota.reverse_path(u.key))[0]})
          for u in ucat.classes))
print("so the c = 2 alpha soup is the alpha-soup unoriented:",
      2 * ucat.total_mass == cat.total_mass)

# Continuous time: mean occupation is alpha G(x,x) / g.
green = green_function(dom)
fs = FieldSampler(cat, [], [1, 2, 3])
_, _, times = fs.sample(0.5, 200000, rng)
print("E[occupation at 1] =", times[:, 0].mean().round(4),
      " alpha G(1,1)/g =", round(0.5 * green(1, 1) / dom.g, 4))

# The joint law is exact: E exp(-<lam, T>) of the rescaled times T = g *
# times, from the catalog's classes and the trivial Gamma field.
lam = np.ones(3)
print("E exp(-<1, T>): sampled", np.exp(-(times * dom.g) @ lam).mean().round(4),
      " exact", fs.laplace(0.5, lam)[0].round(4))
