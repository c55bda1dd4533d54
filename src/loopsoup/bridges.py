"""Conditioned-path laws: single bridges, permutation- and pairing-weighted families.

A bridge from x to y in a domain D is any path from x to y staying in D
(zero length allowed when x = y), and the bridge law weights it
g^{-n(b)} / G_D(x, y).  Sampling walks the Doob transform of the killed
chain: from z, take edge e to w with probability (1/g) G_D(w, y) / G_D(z, y)
and stop at z = y with probability 1 / G_D(y, y); these weights sum to one
because G = I + P G.

An unordered bridge family from X = (x_1..x_N) to Y picks a permutation s
with probability proportional to prod_j G_D(x_j, y_{s(j)}) and then N
independent bridges; the resulting configuration probability is proportional
to g^{-K}, K the total length.  The unoriented analogue pairs the 2N entries
of a vector Z with probability proportional to the product of Green's values
over pairs, then joins each pair with an unoriented bridge.

Permutations and pairings are enumerated exhaustively (budgets below);
exactness matters more than scale here.

The samplers build their tables once and cache them on the domain.  The Doob
table towards y lists, per vertex v, every segment of up to k Doob moves
from v: one that stops (only at y, possibly after passing through y) or one
of exactly k moves, with its edge ids, end vertex and the float CDF of the
segment probabilities.  k is the largest value whose rows hold at most
SEGMENT_BUDGET segments, so a bridge draw takes one uniform per segment of
moves.  Each family keeps its sorted permutations or pairings and their CDF
per endpoint tuple, and draws one by ``bisect_right`` exactly as
``rng.choice(p=...)`` would.  The records are NamedTuples and a cached draw
costs one lookup per table plus one uniform per segment (endpoints are
checked only when a lookup misses): ``rng.random()`` is the floor left.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, permutations
from typing import NamedTuple

import numpy as np

from .graph import Domain, GraphError, GreenMatrix, green_function

PERMUTATION_BUDGET = 8      # max N for N! enumeration
PAIRING_BUDGET = 12         # max 2N for (2N-1)!! enumeration
SEGMENT_BUDGET = 256        # max segments in a row of a Doob table


class BridgeError(GraphError):
    pass


class Bridge(NamedTuple):
    """A path from x to y inside a domain, as an edge-id sequence."""

    x: int
    y: int
    path: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.path)


def _check_bridge(domain: Domain, bridge: Bridge) -> None:
    v = bridge.x
    for eid in bridge.path:
        e = domain.graph.edge_by_id[eid]
        if e.tail != v:
            raise BridgeError(f"edge {eid} does not continue the path at {v}")
        if not domain.allows_edge(e):
            raise BridgeError(f"edge {eid} leaves the domain")
        v = e.head
    if v != bridge.y:
        raise BridgeError(f"path ends at {v}, not {bridge.y}")
    if bridge.n == 0 and bridge.x != bridge.y:
        raise BridgeError("zero-length bridge needs equal endpoints")


def bridge_probability_exact(domain: Domain, bridge: Bridge,
                             green: GreenMatrix) -> Fraction:
    _check_bridge(domain, bridge)
    gxy = green.exact(bridge.x, bridge.y)
    if gxy == 0:
        raise BridgeError(f"target {bridge.y} unreachable from {bridge.x}")
    return Fraction(1, domain.g ** bridge.n) / gxy


def enumerate_bridges(domain: Domain, x: int, y: int,
                      max_len: int) -> list[Bridge]:
    """All bridges from x to y of length <= max_len, in deterministic order."""
    out: list[Bridge] = []
    stack = [(x, ())]
    while stack:
        v, path = stack.pop()
        if v == y:
            out.append(Bridge(x, y, path))
        if len(path) < max_len:
            for e in reversed(domain.out_edges(v)):
                stack.append((e.head, path + (e.id,)))
    out.sort(key=lambda b: (b.n, b.path))
    return out


def _doob_table(domain: Domain, y: int) -> dict:
    """The multi-step Doob table towards y, built once per (domain, y).

    Maps each domain vertex v with G_D(v, y) > 0 to (cdf, segments).  The
    segments list every sequence of Doob moves from v that stops or makes k
    moves, as (edge ids, end vertex, stopped), depth first: at each vertex
    the moves in ``domain.out_edges`` order, then the stop.  The one-step
    probabilities are G_D(w, y) / (g G_D(z, y)) for a move z -> w and
    g / (g G_D(y, y)) for the stop; moves to a w with G_D(w, y) = 0 are
    dropped.  ``cdf`` accumulates the products of the one-step probabilities
    along each segment, its last entry set to 1.  k is the largest value, at
    most SEGMENT_BUDGET, whose rows all hold at most SEGMENT_BUDGET segments.
    """
    key = ("doob", y)
    table = domain._bridge_tables.get(key)
    if table is None:
        if y not in domain.vertex_set:
            raise BridgeError("bridge endpoints must lie in the domain")
        green = green_function(domain)
        g = domain.g
        stop = g / (g * green(y, y))
        moves = {v: [] for v in domain.vertices if green(v, y) > 0.0}
        for v, row in moves.items():
            gv = g * green(v, y)
            row.extend((green(e.head, y) / gv, e.id, e.head)
                       for e in domain.out_edges(v) if e.head in moves)
        # segment counts per row, one more move at a time
        counts = dict.fromkeys(moves, 1)
        k = 0
        while k < SEGMENT_BUDGET:
            more = {v: (v == y) + sum(counts[h] for _, _, h in row)
                    for v, row in moves.items()}
            if k and max(more.values()) > SEGMENT_BUDGET:
                break
            counts, k = more, k + 1

        def expand(v, path, p, depth, out):
            if depth == k:
                out.append((p, (path, v, False)))
                return
            for q, eid, head in moves[v]:
                expand(head, path + (eid,), p * q, depth + 1, out)
            if v == y:
                out.append((p * stop, (path, v, True)))

        table = {}
        for v in moves:
            out = []
            expand(v, (), 1.0, 0, out)
            probs, segments = zip(*out)
            cdf = list(accumulate(probs))
            cdf[-1] = 1.0
            table[v] = (cdf, segments)
        domain._bridge_tables[key] = table
    return table


def sample_bridge(domain: Domain, x: int, y: int, rng) -> Bridge:
    """Draw from the bridge law, one segment of the Doob table towards y
    per uniform.  The endpoints are checked only when a lookup misses."""
    table = domain._bridge_tables.get(("doob", y)) or _doob_table(domain, y)
    row = table.get(x)
    if row is None:
        if x not in domain.vertex_set:
            raise BridgeError("bridge endpoints must lie in the domain")
        raise BridgeError(f"target {y} unreachable from {x}")
    random = rng.random
    cdf, segments = row
    eids, v, stopped = segments[bisect_right(cdf, random())]
    if stopped:
        return Bridge(x, y, eids)
    path = list(eids)
    while not stopped:
        cdf, segments = table[v]
        eids, v, stopped = segments[bisect_right(cdf, random())]
        path += eids
    return Bridge(x, y, tuple(path))


def _family_table(domain: Domain, key, vertices, weights_of, *args):
    """Cache and return the sorted keys of the weight table
    ``weights_of(green, *args)`` and their CDF, built as ``Generator.choice``
    builds it: ``bisect_right`` of a uniform then draws a key as
    ``rng.choice(p=...)`` over the sorted keys would."""
    if not set(vertices) <= domain.vertex_set:
        raise BridgeError("bridge endpoints must lie in the domain")
    weights = weights_of(green_function(domain), *args)
    keys = sorted(weights)
    w = np.array([float(weights[k]) for k in keys])
    total = float(w.sum())
    if total <= 0.0:
        raise BridgeError(f"no {key[0]} has positive weight")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    return domain._bridge_tables.setdefault(key, (keys, cdf.tolist()))


# -- unordered (permutation-weighted) families --------------------------------


class UnorderedBridgeFamily(NamedTuple):
    """Permutation s plus bridges, bridge j running x_j -> y_{s[j]} (0-based)."""

    X: tuple[int, ...]
    Y: tuple[int, ...]
    permutation: tuple[int, ...]
    bridges: tuple[Bridge, ...]

    @property
    def total_length(self) -> int:
        return sum(b.n for b in self.bridges)


def permutation_weights(green, X, Y) -> dict[tuple[int, ...], float | Fraction]:
    """Weight G_D(X, Y^s) for every permutation s of the N slots.

    `green(x, y)` gives the Green's function: a GreenMatrix for floats, or
    its `exact` method for Fractions.
    """
    N = len(X)
    if len(Y) != N:
        raise BridgeError("X and Y must have equal length")
    if N > PERMUTATION_BUDGET:
        raise BridgeError(f"N={N} beyond permutation budget {PERMUTATION_BUDGET}")
    return {s: math.prod(green(X[j], Y[s[j]]) for j in range(N))
            for s in permutations(range(N))}


def sample_unordered_bridge(domain: Domain, X, Y, rng) -> UnorderedBridgeFamily:
    X, Y = tuple(X), tuple(Y)
    key = ("permutation", X, Y)
    keys, cdf = domain._bridge_tables.get(key) or _family_table(
        domain, key, X + Y, permutation_weights, X, Y)
    s = keys[bisect_right(cdf, rng.random())]
    return UnorderedBridgeFamily(X, Y, s, tuple(
        [sample_bridge(domain, X[j], Y[s[j]], rng) for j in range(len(X))]))


# -- unoriented Z-bridge (pairing-weighted) families ---------------------------


class ZBridgeFamily(NamedTuple):
    """Perfect pairing of the 2N entries of Z plus one unoriented bridge per pair.

    Pairs are stored sorted by smaller slot; each bridge runs from the pair's
    smaller slot to its larger one (a representation choice, invisible in law
    by reversal symmetry of the bridge measure).
    """

    Z: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...]
    bridges: tuple[Bridge, ...]

    @property
    def total_length(self) -> int:
        return sum(b.n for b in self.bridges)


def all_pairings(n: int):
    """Perfect matchings of range(n) as tuples of (small, large) pairs."""
    if n % 2:
        raise BridgeError("pairings need an even number of points")
    if n > PAIRING_BUDGET:
        raise BridgeError(f"2N={n} beyond pairing budget {PAIRING_BUDGET}")

    def rec(items):
        if not items:
            yield ()
            return
        a = items[0]
        for i in range(1, len(items)):
            b = items[i]
            rest = items[1:i] + items[i + 1:]
            for tail in rec(rest):
                yield ((a, b),) + tail

    return list(rec(tuple(range(n))))


def pairing_weights(green, Z) -> dict[tuple, float | Fraction]:
    """Weight prod G_D(z_a, z_b) over the pairs of every perfect pairing;
    `green` as for `permutation_weights`."""
    return {t: math.prod(green(Z[a], Z[b]) for a, b in t)
            for t in all_pairings(len(Z))}


def sample_z_bridge(domain: Domain, Z, rng) -> ZBridgeFamily:
    Z = tuple(Z)
    key = ("pairing", Z)
    keys, cdf = domain._bridge_tables.get(key) or _family_table(
        domain, key, Z, pairing_weights, Z)
    t = keys[bisect_right(cdf, rng.random())]
    return ZBridgeFamily(Z, t, tuple(
        [sample_bridge(domain, Z[a], Z[b], rng) for a, b in t]))

