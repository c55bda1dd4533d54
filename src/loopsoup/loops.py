"""Rooted loops, unrooted loop classes, and the loop measures.

A rooted loop is a closed nearest-neighbour path recorded as its edge-id
sequence (e_1, ..., e_n); the visited vertices are the edge tails.  A rooted
loop of n steps on a g-regular graph has walk probability p = g^{-n}, and the
rooted-loop measure puts mass rho(l) = g^{-n} / n on it.

An (unrooted, oriented) loop class is the set of rotations of a rooted loop.
Writing J for the largest number of identical blocks the loop splits into,
the class has n/J distinct rooted representatives and carries mass
mu(L) = g^{-n} / J.

An unoriented class additionally identifies a loop with its time-reversal
(edges reversed through the involution).  Its multiplicity is J~ = 2J when
the reversal lands back in the same oriented class and J~ = J otherwise, and
the mass is nu(L~) = g^{-n} / J~, which is also the image of mu/2 under
forgetting orientation.

Over the alphabet of edge ids, an oriented class is a necklace: its key is
its least rotation.  `necklace` computes it with J, or given the reversal
the unoriented key with J~, for loop classes, Wilson's cycles and hookup
cycles alike.  Catalogs enumerate every class up to a length cap inside a
domain by the prenecklace search of Fredricksen, Kessler and Maiorana
(Ruskey, Savage and Wang 1992), which only extends paths that are prefixes
of some key.  A closed prefix of n steps and period p is a key exactly when
p divides n, and then J = n/p.  Classes carry exact rational masses, and the
catalog an analytic bound on the mass of omitted longer loops.
"""

from __future__ import annotations

import gc
import math
import sys
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np

from .graph import Domain, GraphError, UnorientedGraph

DEFAULT_CLASS_BUDGET = 10 ** 6
_TAIL_TERMS = 1000       # terms tail_bound sums before it bounds the rest


class BudgetExceededError(GraphError):
    pass


class InvalidLoopError(GraphError):
    pass


# -- rooted loops ------------------------------------------------------------


def loop_vertices(graph, edge_seq) -> tuple[int, ...]:
    """Visited vertices (l_0, ..., l_{n-1}) of a closed edge sequence."""
    if not edge_seq:
        raise InvalidLoopError("loops have at least one step")
    verts = []
    try:
        for i, eid in enumerate(edge_seq):
            e = graph.edge_by_id[eid]
            verts.append(e.tail)
            nxt = graph.edge_by_id[edge_seq[(i + 1) % len(edge_seq)]]
            if e.head != nxt.tail:
                raise InvalidLoopError(f"edge {eid} head {e.head} != next tail {nxt.tail}")
    except KeyError as err:
        raise InvalidLoopError(f"edge {err.args[0]} is not in the graph") from None
    return tuple(verts)


def rho_mass(graph, edge_seq) -> Fraction:
    """Rooted-loop mass rho(l) = g^{-n} / n."""
    loop_vertices(graph, edge_seq)
    g = graph.require_regular()
    n = len(edge_seq)
    return Fraction(1, g ** n * n)


def _least_rotation(seq: tuple) -> tuple:
    """The least rotation of a nonempty tuple: `necklace`'s key without J."""
    m = min(seq)
    i = seq.index(m)
    if seq.count(m) == 1:
        return seq[i:] + seq[:i]
    return min(seq[j:] + seq[:j] for j in range(i, len(seq)) if seq[j] == m)


def necklace(seq, reverse=None) -> tuple[tuple, int]:
    """(key, J): the least rotation of a cyclic sequence and the number of
    rotations fixing it.  Those equal to the key start at the smallest entry,
    so J counts such candidates.  Given the reversal, the key is the smaller
    of both least rotations, and J doubles when they are equal."""
    seq = tuple(seq)
    m = min(seq)
    if seq.count(m) == 1:
        i = seq.index(m)
        key, J = seq[i:] + seq[:i], 1
    else:
        rots = [seq[i:] + seq[:i] for i, e in enumerate(seq) if e == m]
        key = min(rots)
        J = rots.count(key)
    if reverse is not None:
        back = _least_rotation(tuple(reverse))
        key, J = min(key, back), 2 * J if key == back else J
    return key, J


# -- loop classes ------------------------------------------------------------


class LoopClass(NamedTuple):
    """Oriented unrooted loop class with its canonical rooted representative.

    A NamedTuple, for cheap construction: catalogs build tens of thousands.
    """

    key: tuple[int, ...]          # least rotation of the edge-id sequence
    n: int
    J: int
    mass: Fraction                # mu = g^{-n} / J


class UnorientedLoopClass(NamedTuple):
    """Unoriented unrooted loop class, a NamedTuple like `LoopClass`; its
    key is least over rotations and reversal."""

    key: tuple[int, ...]
    n: int
    J_tilde: int
    mass: Fraction                # nu = g^{-n} / J~
    oriented_keys: tuple[tuple[int, ...], ...]   # one key when self-reversed, else two

    @property
    def J(self) -> int:
        return self.J_tilde


# builds a record from a tuple of its fields, as `_make` does, without the
# NamedTuple's Python-level __new__
_new = tuple.__new__


def canonicalize_oriented(graph, edge_seq) -> LoopClass:
    loop_vertices(graph, edge_seq)
    g = graph.require_regular()
    seq, J = necklace(edge_seq)
    return LoopClass(seq, len(seq), J, Fraction(1, g ** len(seq) * J))


def canonicalize_unoriented(graph, edge_seq, involution) -> UnorientedLoopClass:
    if involution is None:
        raise InvalidLoopError("unoriented canonicalization needs an involution")
    loop_vertices(graph, edge_seq)
    g = graph.require_regular()
    rev = involution.reverse_path(edge_seq)
    key, jt = necklace(edge_seq, rev)
    keys = {necklace(edge_seq)[0], necklace(rev)[0]}
    return UnorientedLoopClass(key, len(key), jt, Fraction(1, g ** len(key) * jt),
                               tuple(sorted(keys)))


# -- catalogs ----------------------------------------------------------------


@contextmanager
def _gc_paused():
    """Run a catalog build with the cyclic collector paused, then tenure
    what it allocated: `gc.freeze()` and `gc.unfreeze()` move every tracked
    object to the oldest generation, so no young-generation pass walks the
    build's tuples, which hold no cycle.  Every other young object is
    tenured too, and cyclic garbage among them waits for a full collection,
    as does any object an earlier `gc.freeze()` held."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
        gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


class LoopCatalog:
    """All loop classes of length <= L_max inside a domain.

    mode is "oriented" or "unoriented".  A catalog holds its classes, given
    in (n, key) order; readers take their geometry from the class keys.  An
    unoriented catalog is always the counterpart of an oriented one, so a
    domain is enumerated once, and it holds that oriented source; no link
    runs the other way, so no catalog is part of a reference cycle.
    """

    def __init__(self, domain: Domain, L_max: int, mode: str,
                 classes, tail_bound_value: float,
                 unoriented_graph: UnorientedGraph | None = None):
        self.domain = domain
        self.L_max = L_max
        self.mode = mode
        self.classes = tuple(classes)
        self.tail_bound = tail_bound_value
        self.unoriented_graph = unoriented_graph
        self.by_key = {c.key: c for c in self.classes}
        self._source: LoopCatalog | None = None   # an unoriented one's origin
        self._mass_arrays = None          # lazy (masses, cumsum) cache

    @property
    def total_mass(self) -> Fraction:
        return sum((c.mass for c in self.classes), Fraction(0))

    def _per_shape(self, make) -> list:
        """make(n, J) for every class, in class order, computed once per
        distinct (n, J): a catalog has few (n, J) but many classes."""
        made: dict = {}
        out = []
        for c in self.classes:
            shape = c.n, c.J
            value = made.get(shape)
            if value is None:
                value = made[shape] = make(*shape)
            out.append(value)
        return out

    def mass_arrays(self):
        """(masses, cumulative masses) as float arrays, cached.

        A class's mass is 1 / (g^n J), and int true division rounds
        correctly, so each float equals `float` of the class's Fraction.
        """
        if self._mass_arrays is None:
            g = self.domain.g
            masses = np.array(self._per_shape(lambda n, J: 1 / (g ** n * J)))
            self._mass_arrays = (masses, np.cumsum(masses))
        return self._mass_arrays

    def counterpart(self) -> "LoopCatalog":
        """The catalog of the other orientation mode on the same domain.

        An unoriented catalog returns the oriented catalog it was merged
        from.  An oriented one keeps no link to its merges, so reference
        counting frees a dead pair; each call merges anew, and
        `Workspace.catalog` keeps the merge it uses.

        Each unoriented class merges an oriented class with its reversal; a
        self-reversed one doubles J and halves its mass.  One pass over the
        oriented classes, which are in (n, key) order, skips every key seen
        as an earlier class's reversal.  So the first of each pair is the
        smaller, it is the unoriented key, and the merged classes come out
        in (n, key) order too.  A reversal's key is the first of its
        rotations from its least entry that `by_key` holds: `by_key` holds
        one rotation of each class, its least, so no other can hit.  The
        merged class lists that class's own key object, not the rotation
        that found it.
        """
        if self._source is not None:
            return self._source
        if self.mode != "oriented" or self.unoriented_graph is None:
            raise GraphError("the unoriented catalog is derived from an "
                             "oriented one with an UnorientedGraph")
        with _gc_paused():
            iota = self.unoriented_graph.involution.mapping
            by_key = self.by_key
            reversals = set()
            merged = []
            for seq, n, J, mass in self.classes:
                if seq in reversals:
                    continue
                back = tuple([iota[e] for e in reversed(seq)])
                m = min(back)
                for i in range(back.index(m), n):
                    if back[i] == m:
                        hit = by_key.get(back[i:] + back[:i])
                        if hit is not None:
                            break
                else:
                    raise GraphError("the domain's edges are not closed "
                                     "under reversal")
                rev = hit.key
                if seq == rev:
                    merged.append(_new(UnorientedLoopClass,
                                       (seq, n, 2 * J, mass / 2, (seq,))))
                else:
                    reversals.add(rev)
                    merged.append(_new(UnorientedLoopClass,
                                       (seq, n, J, mass, (seq, rev))))
            ucat = LoopCatalog(self.domain, self.L_max, "unoriented", merged,
                               self.tail_bound,
                               unoriented_graph=self.unoriented_graph)
            ucat._source = self
        return ucat

    def export_jsonl(self, path) -> None:
        """One JSON object per class, one line each, streamed to the file.

        A class's mass is 1 / (g^n J), so everything after its edges (n, J,
        the mass's text and its float) is one string per distinct (n, J);
        int true division rounds correctly, like `float` of the Fraction.
        The edges are joined from the edge ids' cached texts.
        """
        g = self.domain.g

        def tail(n, J):
            den = g ** n * J
            mass = f"1/{den}" if den != 1 else "1"
            return (f'], "n": {n}, "J": {J}, "mass": "{mass}", '
                    f'"mass_float": {1 / den!r}}}\n')

        ids = {eid: str(eid) for eid in self.domain.graph.edge_by_id}
        with open(path, "w") as fh:
            fh.writelines('{"edges": [' + ", ".join([ids[e] for e in c.key]) + t
                          for c, t in zip(self.classes, self._per_shape(tail)))

    def __len__(self) -> int:
        return len(self.classes)


def _search_classes(domain: Domain, L_max: int, budget: int) -> tuple:
    """The oriented classes of the domain, in (n, key) order.

    A depth-first search over paths whose edge-id sequence is a prenecklace,
    carrying the period p of the prefix: the next edge id may not be below
    the one p steps back; an equal id keeps p and a larger one makes the
    whole prefix the period.  A step back to the first edge's tail closes a
    key when p divides the length, and its class joins its length's row at
    once.  Out-edges are taken in id order, so the keys of each length come
    out in lexicographic order.  The stack is explicit, since a path can be
    L_max steps deep.
    """
    if L_max < 1:
        return ()
    out = {}
    into = {v: {u: [] for u in domain.vertices} for v in domain.vertices}
    for v in domain.vertices:
        edges = sorted(domain.out_edges(v), key=lambda e: e.id)
        out[v] = ([e.id for e in edges], [e.head for e in edges])
        for e in edges:
            into[e.head][v].append(e.id)
    g = domain.g
    rows = [[] for _ in range(L_max + 1)]
    simple = [None] * (L_max + 1)     # n -> g^{-n}, the mass when J = 1
    masses = {}                       # (n, J) -> g^{-n} / J; few distinct
    found = 0

    def add(key, J):
        nonlocal found
        found += 1
        if found > budget:
            raise BudgetExceededError(f"class budget {budget} exceeded")
        n = len(key)
        if J == 1:
            mass = simple[n]
            if mass is None:
                mass = simple[n] = Fraction(1, g ** n)
        else:
            mass = masses.get((n, J))
            if mass is None:
                mass = masses[n, J] = Fraction(1, g ** n * J)
        rows[n].append(_new(LoopClass, (key, n, J, mass)))

    seq = []
    starts = sorted((eid, v, head) for v in domain.vertices
                    for eid, head in zip(*out[v]))
    for first, root, head in starts:
        if head == root:
            add((first,), 1)
        back = into[root]                  # u -> ids of the edges u -> root
        stack = [(0, first, head, 1)] if L_max > 1 else []
        while stack:                       # (depth, edge id, head, period)
            t, eid, u, p = stack.pop()
            del seq[t:]
            seq.append(eid)
            n = t + 1
            ref = seq[n - p]
            for nxt in back[u]:
                if nxt > ref:
                    add((*seq, nxt), 1)
                elif nxt == ref and (n + 1) % p == 0:
                    add((*seq, nxt), (n + 1) // p)
            if n + 1 < L_max:
                ids, heads = out[u]
                for j in range(len(ids) - 1, bisect_left(ids, ref) - 1, -1):
                    nxt = ids[j]
                    stack.append((n, nxt, heads[j], p if nxt == ref else n + 1))
    return tuple(chain.from_iterable(rows))


@_gc_paused()
def enumerate_loops(domain: Domain, L_max: int, *,
                    unoriented: UnorientedGraph | None = None,
                    budget: int | None = None) -> LoopCatalog:
    """Exhaustive catalog of oriented loop classes with length <= L_max.

    The classes are those `_search_classes` finds, already in (n, key)
    order, each with J = n/p for its period p; the unoriented catalog is
    its `counterpart()`, built from ``unoriented``.
    """
    if budget is None:
        budget = DEFAULT_CLASS_BUDGET
    if L_max < 0:
        raise GraphError("L_max must be nonnegative")
    classes = _search_classes(domain, L_max, budget)
    try:
        tb = tail_bound(domain, L_max)
    except GraphError:
        tb = math.inf
    return LoopCatalog(domain, L_max, "oriented", classes, tb,
                       unoriented_graph=unoriented)


def tail_bound(domain: Domain, L_max: int) -> float:
    """Upper bound on the mu-mass of loops longer than L_max.

    trace(P^n) <= |D| lambda^n for the nonnegative matrix P, so the omitted
    mass sum_{n>L} trace(P^n)/n is at most |D| sum_{n>L} lambda^n / n.  Of
    two rounded-up bounds on it the smaller is kept: the terms summed one by
    one plus a geometric bound on the rest, precise however small the tail,
    and -log(1 - lambda) minus the partial sum, tight as lambda nears 1.
    The nu-mass omitted is at most half of this.
    """
    lam = domain.spectral_radius()
    if lam >= 1.0:
        raise GraphError("tail bound requires spectral radius < 1")
    N = L_max + _TAIL_TERMS
    rest = lam ** (N + 1) / ((N + 1) * (1.0 - lam))     # >= sum_{n > N}
    up = 1.0 + 8 * sys.float_info.epsilon   # covers the roundings of each bound
    direct = (math.fsum(lam ** n / n for n in range(L_max + 1, N + 1)) + rest) * up
    closed = (-math.log1p(-lam) * up
              - math.fsum(lam ** n / n for n in range(1, L_max + 1)))
    return domain.size * min(direct, closed)
