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
  normalizer, each configuration keyed by its joins of endpoint slots (the
  one hookup form of `excursions`), and push forward through reassembly
  onto the same keys.

This module holds the oracles: the conditioned multiset enumeration, the
bridge-family laws, and the orbit keys and configuration counts of the
sides of crossings.  The cuts that feed
them and the drivers that compare the two sides live in `verify`.  Both
sides are summed on integers: a multiset's Poisson weight, and a bridge
configuration's g^{-K}, is an integer over one denominator per target or
per bridge table, so a law builds one Fraction per entry.

Occupation-field laws are computed without sampling from the probability
generating function of the edge jump counts,

    E prod_e z_e^{N_e}  =  (det(I - P_z) / det(I - P))^{-t},

expanded as a truncated multivariate power series on a window of per-part
degree bounds, bucket by bucket; the plain total-degree cap is the window
of one part.  A check that reads a smaller window asks for it, and no
coefficient outside it is computed.  The determinant is built on integer
series (g (I - P_z) has integer entries), and the power is taken over the
integers as numerators over the one denominator (Q q)^cap cap!.  For
half-integer exponents the series carries an irrational scalar prefactor
that cancels from every conditional quantity, so the rational part is
sufficient for exact conditional-independence checks.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from operator import add, le, sub

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
    remaining = Counter({k: c for k, c in target.items() if c > 0})
    for found, combo in enumerate(_covers(candidates, remaining, 0, []), 1):
        if found > MULTISET_BUDGET:
            raise OracleError("conditioned-multiset budget exceeded")
        yield combo


def _covers(candidates, remaining: Counter, start: int, chosen: list):
    """`_assemble_multisets`' recursion from candidate `start` on; its
    state is passed, since a closure that calls itself is a cycle."""
    if not any(remaining.values()):
        yield tuple(chosen)
        return
    for j in range(start, len(candidates)):
        key, mass, contrib = candidates[j][:3]
        u_max = min(remaining[k] // c for k, c in contrib.items())
        for u in range(u_max, 0, -1):
            for k, c in contrib.items():
                remaining[k] -= c * u
            chosen.append((key, mass, u))
            yield from _covers(candidates, remaining, j + 1, chosen)
            chosen.pop()
            for k, c in contrib.items():
                remaining[k] += c * u


def conditional_multiset_law(intensity: Fraction, candidates, target: Counter,
                             poisson: dict | None = None) -> dict:
    """Conditional law of the class multisets matching `target`, as integer
    weights over one common denominator: each multiset's weight over their
    sum is its probability.

    A multiset's Poisson weight prod (t m)^u / u! is the integer product
    of its classes' numerators over that of their denominators, each pair
    memoized per (key, count) in `poisson`; the common denominator is the
    lcm of the multisets' denominators.
    """
    if intensity <= 0:
        raise OracleError(f"intensity {intensity} must be positive")
    poisson = {} if poisson is None else poisson
    fractions: dict = {}
    for combo in _assemble_multisets(candidates, target):
        num = den = 1
        for key, mass, u in combo:
            pair = poisson.get((key, u))
            if pair is None:
                x = intensity * mass
                pair = poisson[key, u] = (x.numerator ** u,
                                          x.denominator ** u * math.factorial(u))
            num *= pair[0]
            den *= pair[1]
        fractions[tuple(sorted((key, u) for key, _, u in combo))] = num, den
    if not fractions:
        raise OracleError("conditioning event has zero weight at this truncation")
    common = math.lcm(*{den for _, den in fractions.values()})
    return {ms: num * (common // den) for ms, (num, den) in fractions.items()}


# -- bridge-measure enumeration ------------------------------------------------


def _bridge_families(labels, Z, menu) -> dict:
    """Bridge families with integer weights, keyed by their joins.

    Every label (a permutation or a pairing, as its sorted slot pairs)
    joins each of its slot pairs (a, b) by one path from Z[a] to Z[b],
    drawn from menu((Z[a], Z[b])) as (path, integer weight) entries; a
    family is the tuple of its ((a, b), path) joins, and its weight is the
    product of its path weights.
    """
    menus: dict = {}
    configs: dict = {}
    for pairs in labels:
        ends = [(Z[a], Z[b]) for a, b in pairs]
        for pair in ends:
            if pair not in menus:
                menus[pair] = menu(pair)
        for combo in product(*(menus[pair] for pair in ends)):
            configs[tuple(zip(pairs, (path for path, _ in combo)))] = \
                math.prod(m for _, m in combo)
    return configs


def unordered_bridge_law(domain: Domain, X, Y, max_len: int):
    """Unordered-bridge configurations with exact probabilities.

    The slots are those of Z = (Y_0, X_0, Y_1, X_1, ...): piece j starts at
    Y_j (slot 2j) and ends at X_j (slot 2j+1).  Returns (configs,
    denominator): configs maps the joins ((2j+1, 2 sigma(j)), path), a
    bridge X_j -> Y_sigma(j) each, to an integer weight g^(N max_len - K),
    N = len(X), and the configuration's probability g^{-K} / Z is its
    weight over the one denominator g^(N max_len) Z, Z = sum_s G(X, Y^s).
    Unenumerated mass is 1 - sum(configs.values()) / denominator.
    """
    weights = permutation_weights(green_function(domain, exact=True).exact,
                                  X, Y)
    Z = sum(weights.values())
    if Z == 0:
        raise OracleError("no permutation has positive weight")
    g = domain.g

    def menu(pair):
        return [(b.path, g ** (max_len - b.n))
                for b in enumerate_bridges(domain, pair[0], pair[1], max_len)]

    ends = [v for y, x in zip(Y, X) for v in (y, x)]
    return _bridge_families(
        ([(2 * j + 1, 2 * s[j]) for j in range(len(X))] for s in weights),
        ends, menu), g ** (len(X) * max_len) * Z


def z_bridge_law(domain: Domain, Z_vertices, involution, max_len: int):
    """Z-bridge configurations with exact probabilities.

    Returns (configs, denominator): configs maps the joins ((a, b), path)
    of a pairing of the slots of Z_vertices, the path an unoriented bridge
    Z_a -- Z_b, to an integer weight, g^{-K} scaled by g^(N max_len) for
    N = len(Z_vertices) / 2 bridges, and the configuration's probability
    is its weight over the one denominator g^(N max_len) Z, Z the
    pairing-weight sum.  Bridge paths are stored in canonical unoriented
    form; the weight of an unoriented path accumulates both oriented
    representatives when they differ (self-return paths), which keeps the
    g^{-K} bookkeeping exact.
    """
    weights = pairing_weights(green_function(domain, exact=True).exact,
                              Z_vertices)
    Z = sum(weights.values())
    if Z == 0:
        raise OracleError("no pairing has positive weight")
    g = domain.g

    def menu(pair):
        masses: dict = {}
        for br in enumerate_bridges(domain, pair[0], pair[1], max_len):
            ukey = involution.unoriented_path(br.path)
            masses[ukey] = masses.get(ukey, 0) + g ** (max_len - br.n)
        return sorted(masses.items())

    return _bridge_families(weights, Z_vertices, menu), \
        g ** (len(Z_vertices) // 2 * max_len) * Z


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

    Returns (dist, remainder, denominator): dist maps orbit keys to exact
    probabilities; remainder is the un-enumerated bridge mass and
    denominator that of the side's bridge-family weights.
    """
    v = cs.endpoints(i)
    if cs.mode == "oriented":
        arrivals, departures = _side_arrivals_departures(cs, i)
        configs, denominator = unordered_bridge_law(
            domain_minus, [v[k] for k in arrivals],
            [v[k] for k in departures], max_len)
        structures = ((tuple(((arrivals[a // 2], departures[b // 2]), path)
                             for (a, b), path in joins), w)
                      for joins, w in configs.items())
    else:
        configs, denominator = z_bridge_law(domain_minus, v, involution,
                                            max_len)
        structures = configs.items()
    labels = [cs.instances[s] for _, s in cs.endpoint_slots[i]]
    dist: dict = {}
    for structure, w in structures:
        key = matching_key(labels, structure, cs.mode == "oriented")
        dist[key] = dist.get(key, 0) + w
    total = sum(dist.values())
    return ({k: w / denominator for k, w in dist.items()},
            1 - total / denominator, denominator)


# -- truncated multivariate power series over the integers ----------------------
#
# A series lives on a window: per-part degree bounds, each variable in one
# part.  It is a dict from a bucket, the vector of a monomial's degrees in
# the parts, to the series' terms there, a dict from the packed monomial to
# its integer coefficient.  Monomials are packed one byte per variable (no
# exponent exceeds its part's bound, and the cap is at most 255), so
# multiplying two is adding their codes and `int.to_bytes` unpacks one.
# The window is an order ideal, so every coefficient in it depends on
# coefficients in it alone.


def _fits(bucket, bounds) -> bool:
    return all(map(le, bucket, bounds))


def _pruned(series: dict) -> dict:
    """The series without zero coefficients and empty buckets."""
    out = {}
    for k, terms in series.items():
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            out[k] = terms
    return out


def _mul(a: dict, b: dict, bounds: tuple) -> dict:
    """Product of two series on the window `bounds`: two buckets whose sum
    leaves the window are never multiplied."""
    out: dict = defaultdict(lambda: defaultdict(int))
    for ka, ta in a.items():
        for kb, tb in b.items():
            k = tuple(map(add, ka, kb))
            if not _fits(k, bounds):
                continue
            o = out[k]
            for ma, ca in ta.items():
                for mb, cb in tb.items():
                    o[ma + mb] += ca * cb
    return _pruned(out)


def _det(mat: list, bounds: tuple) -> dict:
    """Determinant of a matrix of series by cofactor expansion along the
    first row (matrices here are tiny)."""
    if len(mat) == 1:
        return mat[0][0]
    out: dict = defaultdict(lambda: defaultdict(int))
    for j, entry in enumerate(mat[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        sign = -1 if j % 2 else 1
        for k, terms in _mul(entry, _det(minor, bounds), bounds).items():
            o = out[k]
            for m, c in terms.items():
                o[m] += sign * c
    return _pruned(out)


def _binomial_series(U: dict, Q: int, exponent: Fraction,
                     bounds: tuple) -> tuple[dict, int]:
    """(1 + U/Q)^exponent on the window `bounds`, as integer numerators over
    one denominator: returns (F, denominator), the coefficient of monomial m
    in bucket k being F[k][m] / denominator.

    U is an integer series without constant term and Q >= 1.  One pass,
    bucket by bucket in order of total degree, by J.C.P. Miller's power
    recurrence (Knuth, TAOCP vol. 2, sec. 4.7) lifted by the Euler operator
    E, which scales the total-degree-d part by d: with u = U/Q,
    (1 + u) E f = a (E u) f gives f_0 = 1 and

        d f_d = sum_{k=1..d} (a k - (d - k)) u_k f_{d-k},

    u_k the degree-k part of u.  With a = p/q the numerators
    F_d = (Q q)^d d! f_d are integers,

        F_d = sum_k (p k - q (d - k)) (Q q)^{k-1} (d-1)!/(d-k)! U_k F_{d-k}.

    The identity holds monomial by monomial, so each bucket of F is the sum
    over the buckets of U below it, times the bucket of F they leave.  The
    plain total-degree cap is the window of one part.  Each F_d is brought
    to the common denominator (Q q)^D D!, D = sum(bounds), at the end.
    """
    zero = (0,) * len(bounds)
    if zero in U:
        raise OracleError("series argument must vanish at the origin")
    p, q = exponent.numerator, exponent.denominator
    Qq = Q * q
    terms = [(k, sum(k), t) for k, t in U.items() if _fits(k, bounds)]
    F = {zero: {0: 1}}
    for bucket in sorted(product(*(range(b + 1) for b in bounds)), key=sum):
        d = sum(bucket)
        acc: dict = defaultdict(int)
        for k, deg, tu in terms:
            rest = F.get(tuple(map(sub, bucket, k)))
            if rest is None:
                continue
            scale = (p * deg - q * (d - deg)) * Qq ** (deg - 1) \
                * math.perm(d - 1, deg - 1)
            for mu, cu in tu.items():
                c = scale * cu
                for mf, cf in rest.items():
                    acc[mu + mf] += c * cf
        acc = {m: c for m, c in acc.items() if c}
        if acc:
            F[bucket] = acc
    top = sum(bounds)
    lift = [Qq ** (top - d) * (math.factorial(top) // math.factorial(d))
            for d in range(top + 1)]
    return ({k: {m: c * lift[sum(k)] for m, c in t.items()}
             for k, t in F.items()}, Qq ** top * math.factorial(top))


@dataclass
class OccupationLaw:
    """Joint law of jump counts on tracked edge groups, up to a scalar, on
    a window of per-part degree bounds.

    numerators[n] / denominator is proportional to P(N = n) for every count
    vector n in the window, and an n absent from it has weight 0; `weights`
    are those Fractions.  `window` is a tuple of (variable indices, bound)
    pairs; None is the one part of every variable, bounded by `cap`.  The
    proportionality scalar (irrational for half-integer intensities)
    cancels from all conditional quantities.  `scalar` is its float value
    so absolute probabilities are available numerically.
    """

    groups: tuple
    cap: int
    numerators: dict
    scalar: float
    denominator: int = 1
    window: tuple | None = None

    @cached_property
    def weights(self) -> dict:
        return {n: Fraction(c, self.denominator)
                for n, c in self.numerators.items()}

    def probability(self, n) -> float:
        """P(N = n), for a count vector in the window; beyond it the law was
        not computed, and asking is an error."""
        n = tuple(n)
        parts = self.window or ((range(len(n)), self.cap),)
        if any(sum(n[i] for i in idx) > bound for idx, bound in parts):
            raise OracleError(f"count vector {n} lies outside the window "
                              "the law was computed on")
        return self.scalar * (self.numerators.get(n, 0) / self.denominator)


def occupation_law(domain: Domain, edge_groups, intensity: Fraction,
                   cap: int, allow_marginal: bool = False,
                   window=None) -> OccupationLaw:
    """Exact joint jump-count law on `edge_groups` for the soup at `intensity`.

    `intensity` is alpha for the oriented count field; for the unoriented
    field of a c-soup pass c/2 and group each unoriented edge class's two
    orientations into one variable (their jumps then share the variable,
    which is exactly the unoriented count).  Untracked in-domain edges are
    rejected unless `allow_marginal`: leaving their variable at 1 yields the
    exact marginal law of the tracked counts.

    The law is computed on `window`, (group indices, degree bound) pairs
    whose parts partition the groups and whose bounds sum to `cap`; by
    default the one part of every group, so every total degree <= cap.

    M = g (I - P_z) has integer entries: g on the diagonal, minus the
    edge's variable for each tracked in-domain edge and -1 for an untracked
    one.  det M is expanded by cofactors over integer series on the window;
    with D0 its constant term and u = det M / D0 - 1 = U / Q in lowest
    terms, the rational part (1 + u)^{-intensity} is built bucket by bucket
    in one pass of Miller's recurrence over the integers
    (`_binomial_series`).
    """
    if intensity <= 0:
        raise OracleError(f"intensity {intensity} must be positive")
    if not 0 <= cap <= 255:
        raise OracleError(f"cap {cap} is outside 0..255")
    groups = [tuple(g) for g in edge_groups]
    var_of = {}
    for i, grp in enumerate(groups):
        for eid in grp:
            if eid in var_of:
                raise OracleError(f"edge {eid} appears in two groups")
            var_of[eid] = i
    if window is None:
        window = ((range(len(groups)), cap),)
    window = tuple((tuple(idx), bound) for idx, bound in window)
    part_of = {i: j for j, (idx, _) in enumerate(window) for i in idx}
    if sorted(i for idx, _ in window for i in idx) != list(range(len(groups))) \
            or sum(bound for _, bound in window) != cap:
        raise OracleError("the window's parts must partition the groups and "
                          "its bounds sum to the cap")
    bounds = tuple(bound for _, bound in window)
    n = domain.size
    tracked = set(var_of)
    in_domain = {e.id for v in domain.vertices for e in domain.out_edges(v)}
    if not in_domain <= tracked and not allow_marginal:
        raise OracleError("all in-domain edges must be tracked for an exact law")
    zero = (0,) * len(bounds)
    M = [[defaultdict(lambda: defaultdict(int)) for _ in range(n)]
         for _ in range(n)]
    for v in domain.vertices:
        i = domain.index[v]
        M[i][i][zero][0] += domain.g
        for e in domain.out_edges(v):
            bucket, code = zero, 0
            if e.id in var_of:
                var = var_of[e.id]
                bucket = tuple(int(j == part_of[var]) for j in range(len(bounds)))
                code = 1 << 8 * var
            if _fits(bucket, bounds):
                M[i][domain.index[e.head]][bucket][code] -= 1
    D = _det([[_pruned(entry) for entry in row] for row in M], bounds)
    D0 = D.get(zero, {}).get(0, 0)    # g^n det(I - P_z) at z = 0
    if D0 <= 0:
        raise OracleError("degenerate determinant at the origin")
    Q = D0 // math.gcd(D0, *(c for k, t in D.items() if k != zero
                             for c in t.values()))
    U = {k: {m: c // (D0 // Q) for m, c in t.items()}
         for k, t in D.items() if k != zero}
    F, denominator = _binomial_series(U, Q, -intensity, bounds)
    nvars = len(groups)
    numerators = {tuple(code.to_bytes(nvars, "little")): c
                  for t in F.values() for code, c in t.items()}
    # true PGF = (D0 / (g^n det(I - P)))^{-intensity} * series
    P = domain.transition_matrix()
    det_ip = float(np.linalg.det(np.eye(n) - P))
    scalar = (float(Fraction(D0, domain.g ** n)) / det_ip) ** (-float(intensity))
    return OccupationLaw(tuple(groups), cap, numerators, scalar, denominator,
                         window)
