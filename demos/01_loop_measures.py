#!/usr/bin/env python3
"""Loop measures on a triangle, step by step.

We put a triangle {1,2,3} inside the complete graph on five vertices, so
every vertex keeps g = 4 outgoing edges of which two leave the triangle:
the walk killed on leaving the triangle is strictly sub-critical and all the
loop-measure quantities are finite.
"""

from fractions import Fraction

from loopsoup import (Domain, UnorientedGraph, canonicalize_oriented,
                      canonicalize_unoriented, complete_graph, enumerate_loops,
                      green_function, pair_reversals, rho_mass, tail_bound)

g = complete_graph(5)
iota = pair_reversals(g)
ug = UnorientedGraph(g, iota)
dom = Domain(g, [1, 2, 3])

print("g =", g.g, " spectral radius of the killed walk:", dom.spectral_radius())

# A rooted loop is an edge sequence; its rho-mass is g^{-n} / n.
e12 = next(e.id for e in g.edges if (e.tail, e.head) == (1, 2))
e21 = iota(e12)
loop = (e12, e21)                      # 1 -> 2 -> 1
print("rho(1->2->1) =", rho_mass(g, loop), "= 1/(4^2 * 2)")

# The unrooted class divides by the winding multiplicity J instead of n.
double = loop + loop                   # the same loop traversed twice
cls = canonicalize_oriented(g, double)
print("double cover: n =", cls.n, " J =", cls.J, " mu =", cls.mass)

# Unoriented classes also identify time reversal: J~ doubles when the
# reversal lands in the same oriented class.
u = canonicalize_unoriented(g, loop, iota)
print("unoriented back-and-forth: J~ =", u.J_tilde, " nu =", u.mass)

e23 = next(e.id for e in g.edges if (e.tail, e.head) == (2, 3))
e31 = next(e.id for e in g.edges if (e.tail, e.head) == (3, 1))
tri = canonicalize_unoriented(g, (e12, e23, e31), iota)
print("directed triangle: J~ =", tri.J_tilde,
      " (reversal is the other orientation, so nu = mu)")

# Catalogs enumerate everything up to a length cap, with exact masses and a
# bound on what the cap leaves out.
cat = enumerate_loops(dom, 8, unoriented=ug)
ucat = cat.counterpart()                # the same classes, reversals merged
print(f"classes up to length 8: {len(cat)} oriented, {len(ucat)} unoriented")
print("total mu-mass:", cat.total_mass, "=", float(cat.total_mass))
print("2 * total nu-mass == total mu-mass:",
      2 * ucat.total_mass == cat.total_mass)
print("tail bound beyond length 8:", tail_bound(dom, 8))

# The rooted/unrooted bookkeeping closes an exact identity: the catalog mass
# up to L equals sum_{n<=L} trace(P^n)/n.
P = dom.transition_matrix_exact()
tot = Fraction(0)
M = [row[:] for row in P]
for n in range(1, 9):
    tot += Fraction(sum(M[i][i] for i in range(3)), n)
    M = [[sum(M[i][k] * P[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
print("trace identity holds exactly:", tot == cat.total_mass)

# Green's function, both numerically and as exact rationals.
green = green_function(dom, exact=True)
print("G(1,1) =", green.exact(1, 1), " G(1,2) =", green.exact(1, 2))
