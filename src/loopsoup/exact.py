"""Exact (rational-arithmetic) oracles for the conditional-law verifications.

Two independent computations are compared everywhere:

* the conditional side: enumerate every multiset of catalog loop classes
  whose cut (excursions, crossings, or removed-edge jumps) matches the
  conditioning event, weighted by its exact Poisson probability
  prod (t m(L))^u / u!, and push forward onto the hookup.  In a soup's own
  hookup each loop closes exactly one cycle, so the hookup is keyed by the
  cycles of its classes, each class cut once, alone: no multiset is cut;

* the bridge-measure side: enumerate permutations (or pairings) and bridge
  paths with their closed-form probabilities g^{-K} / Z, Z the Green-product
  normalizer, and push forward through reassembly onto the same keys.

This module holds the oracles: the conditioned multiset enumeration, the
bridge-family laws, and the orbit keys and configuration counts of the
sides of crossings.  The cuts that feed
them and the drivers that compare the two sides live in `verify`.

Occupation-field laws are computed without sampling from the probability
generating function of the edge jump counts,

    E prod_e z_e^{N_e}  =  (det(I - P_z) / det(I - P))^{-t},

expanded as a truncated multivariate power series, one total degree at a
time.  The determinant is built on integer series (g (I - P_z) has integer
entries), and the power is taken over the integers with the rational
coefficients formed once at the end.  For half-integer exponents the series
carries an irrational scalar prefactor that cancels from every conditional
quantity, so the rational part is sufficient for exact
conditional-independence checks.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .bridges import enumerate_bridges, pairing_weights, permutation_weights
from .excursions import hookup_cycle_key, matching_key
from .graph import Domain, GraphError, green_function

MULTISET_BUDGET = 200000


class OracleError(GraphError):
    pass


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance between two laws given as dicts, summed
    exactly rounded (`math.fsum`), so it does not depend on the order the
    dicts were filled in."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(float(p.get(k, 0)) - float(q.get(k, 0)))
                           for k in keys)


# -- conditioned multiset enumeration -----------------------------------------


def _assemble_multisets(candidates, target: Counter):
    """All ways to write `target` as a sum of candidate contribution Counters.

    candidates: list of (key, mass, contribution Counter, ...).  Yields tuples
    of (key, mass, count).  Contributions are nonempty, so the recursion depth
    is bounded by the target size.  One Counter of what is left to cover is
    subtracted from in place and restored on return.
    """
    found = 0
    remaining = Counter({k: c for k, c in target.items() if c > 0})

    def rec(start, chosen):
        nonlocal found
        if not any(remaining.values()):
            found += 1
            if found > MULTISET_BUDGET:
                raise OracleError("conditioned-multiset budget exceeded")
            yield tuple(chosen)
            return
        for j in range(start, len(candidates)):
            key, mass, contrib = candidates[j][:3]
            u_max = min(remaining[k] // c for k, c in contrib.items())
            for u in range(u_max, 0, -1):
                for k, c in contrib.items():
                    remaining[k] -= c * u
                chosen.append((key, mass, u))
                yield from rec(j + 1, chosen)
                chosen.pop()
                for k, c in contrib.items():
                    remaining[k] += c * u

    yield from rec(0, [])


def conditional_multiset_law(intensity: Fraction, candidates, target: Counter,
                             poisson: dict | None = None) -> dict:
    """Conditional law of the class multisets matching `target`, memoizing
    the Poisson weight of each (key, count) in `poisson`."""
    if intensity <= 0:
        raise OracleError(f"intensity {intensity} must be positive")
    poisson = {} if poisson is None else poisson
    weights: dict = {}
    for combo in _assemble_multisets(candidates, target):
        for key, mass, u in combo:
            if (key, u) not in poisson:
                poisson[key, u] = (intensity * mass) ** u / math.factorial(u)
        weights[tuple(sorted((key, u) for key, _, u in combo))] = math.prod(
            poisson[key, u] for key, _, u in combo)
    if not weights:
        raise OracleError("conditioning event has zero weight at this truncation")
    total = sum(weights.values())
    return {ms: w / total for ms, w in weights.items()}


# -- bridge-measure enumeration ------------------------------------------------


def _bridge_families(weights: dict, pairs_of, menu) -> dict:
    """Labeled bridge families with exact probabilities.

    Every label of `weights` (a permutation or a pairing) joins the endpoint
    pairs pairs_of(label) by one path each, drawn from menu(pair) as
    (path, mass) entries; a family's probability is the product of its path
    masses over Z = sum(weights).
    """
    Z = sum(weights.values())
    menus: dict = {}
    configs: dict = {}
    for label in weights:
        pairs = pairs_of(label)
        for pair in pairs:
            if pair not in menus:
                menus[pair] = menu(pair)
        for combo in product(*(menus[pair] for pair in pairs)):
            mass = Fraction(1)
            for _, m in combo:
                mass *= m
            configs[(label, tuple(path for path, _ in combo))] = mass / Z
    return configs


def unordered_bridge_law(domain: Domain, X, Y, max_len: int):
    """Labeled unordered-bridge configurations with exact probabilities.

    Returns (configs, normalizer) where configs maps
    (sigma, bridge-path-tuple) -> Fraction probability g^{-K} / Z and
    Z = sum_s G(X, Y^s).  Unenumerated mass is 1 - sum(configs.values()).
    """
    weights = permutation_weights(green_function(domain, exact=True).exact,
                                  X, Y)
    Z = sum(weights.values())
    if Z == 0:
        raise OracleError("no permutation has positive weight")

    def menu(pair):
        return [(b.path, Fraction(1, domain.g ** b.n))
                for b in enumerate_bridges(domain, pair[0], pair[1], max_len)]

    return _bridge_families(
        weights, lambda s: [(X[j], Y[s[j]]) for j in range(len(X))], menu), Z


def z_bridge_law(domain: Domain, Z_vertices, involution, max_len: int):
    """Labeled Z-bridge configurations with exact probabilities.

    Returns (configs, normalizer): configs maps
    (pairing, unoriented-bridge-path-tuple) -> Fraction g^{-K}-style mass / Z.
    Bridge paths are stored in canonical unoriented form; the mass of an
    unoriented path accumulates both oriented representatives when they
    differ (self-return paths), which keeps the g^{-K} bookkeeping exact.
    """
    weights = pairing_weights(green_function(domain, exact=True).exact,
                              Z_vertices)
    Z = sum(weights.values())
    if Z == 0:
        raise OracleError("no pairing has positive weight")

    def menu(pair):
        masses: dict = {}
        for br in enumerate_bridges(domain, pair[0], pair[1], max_len):
            ukey = involution.unoriented_path(br.path)
            masses[ukey] = masses.get(ukey, Fraction(0)) + Fraction(1, domain.g ** br.n)
        return sorted(masses.items())

    return _bridge_families(
        weights, lambda t: [(Z_vertices[a], Z_vertices[b]) for a, b in t],
        menu), Z


# -- crossing-side structures ----------------------------------------------------


def side_orbit_key(cs, i):
    """Key of sides[i] under relabeling identical crossings, which permutes
    the endpoint slots of equal crossings."""
    labels = [cs.instances[s] for _, s in cs.endpoint_slots[i]]
    return matching_key(labels, cs.sides[i], cs.mode == "oriented")


def side_pair_orbit(cs, involution):
    """(key of all sides under simultaneous relabeling of identical
    crossings, relabelings fixing it, arcs whose count doubles).

    Crossing s owns slot 2s on the first set of its pair and 2s+1 on the
    second, so the sides join the crossings into one hookup
    (`hookup_cycle_key`).  An unoriented arc that returns to its vertex and
    differs from its reversal doubles the configurations the key stands
    for: the side stores the arc up to reversal, and both orientations join
    the same two slots.  `involution` reverses arcs (None for oriented
    sides).
    """
    oriented = cs.mode == "oriented"
    joins = []
    for i, side in cs.sides.items():
        slot = [2 * s + (cs.instances[s][0][0] != i)
                for _, s in cs.endpoint_slots[i]]
        joins += [((slot[a], slot[b]), arc) for (a, b), arc in side]
    key, fixing = hookup_cycle_key(cs.instances, joins, oriented)
    flips = 0 if oriented else sum(
        1 for i, side in cs.sides.items() for (a, b), arc in side
        if cs.endpoints(i)[a] == cs.endpoints(i)[b]
        and arc != involution.reverse_path(arc))
    return key, fixing, flips


def _side_arrivals_departures(cs, i):
    """Oriented side i: its arrival slots and its departure slots."""
    slots = cs.endpoint_slots[i]
    arrivals = [k for k, (_, s) in enumerate(slots) if cs.instances[s][0][1] == i]
    departures = [k for k, (_, s) in enumerate(slots) if cs.instances[s][0][0] == i]
    return arrivals, departures


def side_bridge_law(domain_minus: Domain, cs, i, max_len: int, involution=None):
    """The bridge-measure law of side i, pushed onto side orbit keys.

    Returns (dist, remainder, normalizer): dist maps orbit keys to exact
    probabilities; remainder is the un-enumerated bridge mass and normalizer
    the Green-product sum Z over the side's bridge families (Fractions).
    """
    v = cs.endpoints(i)
    if cs.mode == "oriented":
        arrivals, departures = _side_arrivals_departures(cs, i)
        configs, Z = unordered_bridge_law(
            domain_minus, [v[k] for k in arrivals],
            [v[k] for k in departures], max_len)
        structures = ((tuple(sorted(((arrivals[j], departures[s[j]]), paths[j])
                                    for j in range(len(arrivals)))), pr)
                      for (s, paths), pr in configs.items())
    else:
        configs, Z = z_bridge_law(domain_minus, v, involution, max_len)
        structures = ((tuple(sorted(zip(t, paths))), pr)
                      for (t, paths), pr in configs.items())
    labels = [cs.instances[s] for _, s in cs.endpoint_slots[i]]
    dist: dict = {}
    total = Fraction(0)
    for structure, pr in structures:
        key = matching_key(labels, structure, cs.mode == "oriented")
        dist[key] = dist.get(key, Fraction(0)) + pr
        total += pr
    return dist, Fraction(1) - total, Z


# -- truncated multivariate power series over the integers ----------------------


def _mul(a: list, b: list, cap: int) -> list:
    """Product of two graded series, dropping every degree above `cap`.

    A graded series is a list of dicts, one per total degree, from a packed
    monomial code to its coefficient.  Monomials are packed base cap + 1
    into one int (no exponent exceeds the cap), so multiplying two of them
    is adding their codes.
    """
    out = [defaultdict(int) for _ in range(cap + 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            o = out[i + j]
            for ma, ca in ai.items():
                for mb, cb in bj.items():
                    o[ma + mb] += ca * cb
    return [{m: c for m, c in o.items() if c} for o in out]


def _det(mat: list, cap: int) -> list:
    """Determinant of a matrix of graded series by cofactor expansion along
    the first row (matrices here are tiny)."""
    if len(mat) == 1:
        return mat[0][0]
    out = [defaultdict(int) for _ in range(cap + 1)]
    for j, entry in enumerate(mat[0]):
        if not any(entry):
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        sign = -1 if j % 2 else 1
        for o, part in zip(out, _mul(entry, _det(minor, cap), cap)):
            for m, c in part.items():
                o[m] += sign * c
    return [{m: c for m, c in o.items() if c} for o in out]


def _binomial_series(U: list, Q: int, exponent: Fraction) -> list:
    """(1 + U/Q)^exponent as a graded series with Fraction coefficients.

    U is a graded integer series without constant term and Q >= 1.  One
    pass, degree by degree, by J.C.P. Miller's power recurrence (Knuth,
    TAOCP vol. 2, sec. 4.7) lifted by the Euler operator E, which scales the
    degree-d part by d: with u = U/Q, (1 + u) E f = a (E u) f gives f_0 = 1
    and

        d f_d = sum_{k=1..d} (a k - (d - k)) u_k f_{d-k},

    u_k the degree-k part of u.  With a = p/q the numerators
    F_d = (Q q)^d d! f_d are integers,

        F_d = sum_k (p k - q (d - k)) (Q q)^{k-1} (d-1)!/(d-k)! U_k F_{d-k},

    so the pass runs on Python ints and the Fractions are built once at the
    end.
    """
    if U[0]:
        raise OracleError("series argument must vanish at the origin")
    p, q = exponent.numerator, exponent.denominator
    Qq = Q * q
    F: list[dict] = [{0: 1}]
    for d in range(1, len(U)):
        acc: dict = defaultdict(int)
        for k in range(1, d + 1):
            scale = (p * k - q * (d - k)) * Qq ** (k - 1) * math.perm(d - 1, k - 1)
            for mu, cu in U[k].items():
                c = scale * cu
                for mf, cf in F[d - k].items():
                    acc[mu + mf] += c * cf
        F.append({code: c for code, c in acc.items() if c})
    return [{code: Fraction(c, Qq ** d * math.factorial(d))
             for code, c in Fd.items()} for d, Fd in enumerate(F)]


@dataclass
class OccupationLaw:
    """Joint law of jump counts on tracked edge groups, up to a scalar.

    weights[n] is proportional to P(N = n) for every total degree <= cap;
    the proportionality scalar (irrational for half-integer intensities)
    cancels from all conditional quantities.  `scalar` is its float value so
    absolute probabilities are available numerically.
    """

    groups: tuple
    cap: int
    weights: dict
    scalar: float

    def probability(self, n) -> float:
        return self.scalar * float(self.weights.get(tuple(n), 0))


def occupation_law(domain: Domain, edge_groups, intensity: Fraction,
                   cap: int, allow_marginal: bool = False) -> OccupationLaw:
    """Exact joint jump-count law on `edge_groups` for the soup at `intensity`.

    `intensity` is alpha for the oriented count field; for the unoriented
    field of a c-soup pass c/2 and group each unoriented edge class's two
    orientations into one variable (their jumps then share the variable,
    which is exactly the unoriented count).  Untracked in-domain edges are
    rejected unless `allow_marginal`: leaving their variable at 1 yields the
    exact marginal law of the tracked counts.

    M = g (I - P_z) has integer entries: g on the diagonal, minus the
    edge's variable for each tracked in-domain edge and -1 for an untracked
    one.  det M is expanded by cofactors over graded integer series; with D0
    its constant term and u = det M / D0 - 1 = U / Q in lowest terms, the
    rational part (1 + u)^{-intensity} is built degree by degree in one pass
    of Miller's recurrence over the integers (`_binomial_series`).
    """
    if intensity <= 0:
        raise OracleError(f"intensity {intensity} must be positive")
    groups = [tuple(g) for g in edge_groups]
    var_of = {}
    for i, grp in enumerate(groups):
        for eid in grp:
            if eid in var_of:
                raise OracleError(f"edge {eid} appears in two groups")
            var_of[eid] = i
    n = domain.size
    tracked = set(var_of)
    in_domain = {e.id for v in domain.vertices for e in domain.out_edges(v)}
    if not in_domain <= tracked and not allow_marginal:
        raise OracleError("all in-domain edges must be tracked for an exact law")
    place = [(cap + 1) ** k for k in range(len(groups))]
    M = [[[defaultdict(int) for _ in range(cap + 1)] for _ in range(n)]
         for _ in range(n)]
    for v in domain.vertices:
        i = domain.index[v]
        M[i][i][0][0] += domain.g
        for e in domain.out_edges(v):
            d, code = (1, place[var_of[e.id]]) if e.id in var_of else (0, 0)
            if d <= cap:
                M[i][domain.index[e.head]][d][code] -= 1
    D = _det(M, cap)                  # g^n det(I - P_z)
    D0 = D[0].get(0, 0)               # at z = 0 (no tracked jumps)
    if D0 <= 0:
        raise OracleError("degenerate determinant at the origin")
    Q = D0 // math.gcd(D0, *(c for Dk in D[1:] for c in Dk.values()))
    U = [{}] + [{m: c // (D0 // Q) for m, c in Dk.items()} for Dk in D[1:]]
    series = _binomial_series(U, Q, -intensity)
    weights = {tuple(code // w % (cap + 1) for w in place): c
               for Fd in series for code, c in Fd.items()}
    # true PGF = (D0 / (g^n det(I - P)))^{-intensity} * series
    P = domain.transition_matrix()
    det_ip = float(np.linalg.det(np.eye(n) - P))
    scalar = (float(Fraction(D0, domain.g ** n)) / det_ip) ** (-float(intensity))
    return OccupationLaw(tuple(groups), cap, weights, scalar)
