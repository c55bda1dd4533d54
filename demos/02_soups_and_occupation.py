#!/usr/bin/env python3
"""Sampling loop soups and watching their occupation fields.

The soup at intensity t gives every loop class an independent Poisson count
with mean t times its measure.  Forgetting orientations halves the bookkeeping
(c = 2 alpha); re-orienting with fair coins brings it back.  In continuous
time every visit carries an exponential holding time and each site also
collects the occupation of the zero-jump loops; `FieldSampler` draws these
occupation fields in bulk and knows their exact Laplace transform.
"""

import numpy as np

from loopsoup import (Domain, FieldSampler, complete_graph, enumerate_loops,
                      forget_orientation, green_function, orient_randomly,
                      pair_reversals, sample_oriented_soup,
                      sample_unoriented_soup, unoriented_view)
from loopsoup.rng import stream

g = complete_graph(5)
iota = pair_reversals(g)
ug = unoriented_view(g, iota)
dom = Domain(g, [1, 2, 3])
cat = enumerate_loops(dom, 10, unoriented=ug)   # keep iota around so the
ucat = cat.counterpart()                        # unoriented view is derivable
rng = stream(2024, "demo-soups")

soup = sample_oriented_soup(cat, 1.0, rng)
print("one alpha=1 soup sample:", soup.n_loops, "loops,",
      soup.total_steps(), "jumps")

u = forget_orientation(soup)
print("forgetting orientation keeps the loops:", u.n_loops == soup.n_loops)
o = orient_randomly(sample_unoriented_soup(ucat, 1.0, rng), rng)
print("re-oriented c=1 soup (an alpha=1/2 soup) is", o.catalog.mode)

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
