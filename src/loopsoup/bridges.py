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
table towards y holds, per vertex v, the stop weight, the float total of the
row, the (G_D(head, y), edge id, head) moves in ``domain.out_edges`` order
and the fallback edge for numerical slack; a bridge draw walks it with one
uniform per step.  Each family keeps its sorted permutations or pairings and
their CDF per endpoint tuple, and draws one by ``searchsorted`` exactly as
``rng.choice(p=...)`` would.  Endpoints are checked when a table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .graph import Domain, GraphError, GreenMatrix, green_function

PERMUTATION_BUDGET = 8      # max N for N! enumeration
PAIRING_BUDGET = 12         # max 2N for (2N-1)!! enumeration


class BridgeError(GraphError):
    pass


@dataclass(frozen=True)
class Bridge:
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


def bridge_probability(domain: Domain, bridge: Bridge,
                       green: GreenMatrix | None = None) -> float:
    """g^{-n} / G_D(x, y); zero-weight paths (leaving the domain) are rejected."""
    _check_bridge(domain, bridge)
    green = green or green_function(domain)
    gxy = green(bridge.x, bridge.y)
    if gxy == 0.0:
        raise BridgeError(f"target {bridge.y} unreachable from {bridge.x}")
    return domain.g ** (-bridge.n) / gxy


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
    """The Doob transition table towards y, built once per (domain, y).

    Maps each domain vertex v with G_D(v, y) > 0 to (stop, total, moves,
    slack): the stop weight (g at v = y, else 0), the float total
    stop + sum of the move weights, the moves (G_D(head, y), edge id, head)
    in ``domain.out_edges(v)`` order, and the slack fallback (edge id, head)
    of the last move with positive weight.
    """
    key = ("doob", y)
    table = domain._bridge_tables.get(key)
    if table is None:
        if y not in domain.vertex_set:
            raise BridgeError("bridge endpoints must lie in the domain")
        green = green_function(domain)
        table = {}
        for v in domain.vertices:
            if green(v, y) <= 0.0:
                continue
            moves = tuple((green(e.head, y), e.id, e.head)
                          for e in domain.out_edges(v))
            stop = float(domain.g) if v == y else 0.0
            total = stop + sum(w for w, _, _ in moves)
            slack = next(((eid, head) for w, eid, head in reversed(moves)
                          if w > 0), None)
            table[v] = (stop, total, moves, slack)
        domain._bridge_tables[key] = table
    return table


def sample_bridge(domain: Domain, x: int, y: int, rng) -> Bridge:
    """Draw from the bridge law by walking the Doob table towards y."""
    table = _doob_table(domain, y)
    if x not in domain.vertex_set:
        raise BridgeError("bridge endpoints must lie in the domain")
    if x not in table:
        raise BridgeError(f"target {y} unreachable from {x}")
    random = rng.random
    path: list[int] = []
    v = x
    while True:
        stop, total, moves, slack = table[v]
        u = random() * total
        if u < stop:
            return Bridge(x, y, tuple(path))
        u -= stop
        for w, eid, head in moves:
            if u < w:
                break
            u -= w
        else:  # numerical slack lands on the last positive-weight edge
            eid, head = slack
        path.append(eid)
        v = head


def _family_draw(domain: Domain, key, vertices, weights_of, rng):
    """One key of a bridge-family weight table, drawn as ``rng.choice(p=...)``
    over the sorted keys would draw it.

    The sorted keys and the CDF (built as ``Generator.choice`` builds it) are
    cached per (domain, key); ``weights_of(green)`` gives the weight table.
    """
    entry = domain._bridge_tables.get(key)
    if entry is None:
        if not set(vertices) <= domain.vertex_set:
            raise BridgeError("bridge endpoints must lie in the domain")
        weights = weights_of(green_function(domain))
        keys = sorted(weights)
        w = np.array([float(weights[k]) for k in keys])
        total = float(w.sum())
        if total <= 0.0:
            raise BridgeError(f"no {key[0]} has positive weight")
        cdf = (w / total).cumsum()
        cdf /= cdf[-1]
        entry = domain._bridge_tables[key] = (keys, cdf)
    keys, cdf = entry
    return keys[int(cdf.searchsorted(rng.random(), side="right"))]


# -- unordered (permutation-weighted) families --------------------------------


@dataclass(frozen=True)
class UnorderedBridgeFamily:
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
    s = _family_draw(domain, ("permutation", X, Y), X + Y,
                     lambda green: permutation_weights(green, X, Y), rng)
    bridges = tuple(sample_bridge(domain, X[j], Y[s[j]], rng)
                    for j in range(len(X)))
    return UnorderedBridgeFamily(X, Y, s, bridges)


# -- unoriented Z-bridge (pairing-weighted) families ---------------------------


@dataclass(frozen=True)
class ZBridgeFamily:
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
    t = _family_draw(domain, ("pairing", Z), Z,
                     lambda green: pairing_weights(green, Z), rng)
    bridges = tuple(sample_bridge(domain, Z[a], Z[b], rng) for a, b in t)
    return ZBridgeFamily(Z, t, bridges)

