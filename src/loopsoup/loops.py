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

Catalogs enumerate every class up to a length cap inside a domain, with
exact rational masses and an analytic bound on the mass of omitted longer
loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import Domain, GraphError, UnorientedGraph

DEFAULT_CLASS_BUDGET = 10 ** 6


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
    for i, eid in enumerate(edge_seq):
        e = graph.edge_by_id[eid]
        verts.append(e.tail)
        nxt = graph.edge_by_id[edge_seq[(i + 1) % len(edge_seq)]]
        if e.head != nxt.tail:
            raise InvalidLoopError(f"edge {eid} head {e.head} != next tail {nxt.tail}")
    return tuple(verts)


def rho_mass(graph, edge_seq) -> Fraction:
    """Rooted-loop mass rho(l) = g^{-n} / n."""
    loop_vertices(graph, edge_seq)
    g = graph.require_regular()
    n = len(edge_seq)
    return Fraction(1, g ** n * n)


def minimal_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The smallest rotation; it starts at an occurrence of the smallest id."""
    seq = tuple(seq)
    m = min(seq)
    if seq.count(m) == 1:
        i = seq.index(m)
        return seq[i:] + seq[:i]
    return min(seq[i:] + seq[:i] for i, e in enumerate(seq) if e == m)


def repetition_count(seq: tuple[int, ...]) -> int:
    """Largest J such that seq is J copies of its first n/J entries."""
    n = len(seq)
    for p in sorted(d for d in range(1, n + 1) if n % d == 0):
        if seq == seq[:p] * (n // p):
            return n // p
    return 1


# -- loop classes ------------------------------------------------------------


@dataclass(frozen=True)
class LoopClass:
    """Oriented unrooted loop class with its canonical rooted representative."""

    key: tuple[int, ...]          # minimal rotation of the edge-id sequence
    n: int
    J: int
    mass: Fraction                # mu = g^{-n} / J

    @property
    def mass_float(self) -> float:
        return float(self.mass)


@dataclass(frozen=True)
class UnorientedLoopClass:
    """Unoriented unrooted loop class; key is minimal over rotations and reversal."""

    key: tuple[int, ...]
    n: int
    J_tilde: int
    mass: Fraction                # nu = g^{-n} / J~
    oriented_keys: tuple[tuple[int, ...], ...]   # one key when self-reversed, else two

    @property
    def J(self) -> int:
        return self.J_tilde

    @property
    def mass_float(self) -> float:
        return float(self.mass)


def canonicalize_oriented(graph, edge_seq) -> LoopClass:
    loop_vertices(graph, edge_seq)
    g = graph.require_regular()
    seq = minimal_rotation(tuple(edge_seq))
    n = len(seq)
    J = repetition_count(seq)
    return LoopClass(seq, n, J, Fraction(1, g ** n * J))


def canonicalize_unoriented(graph, edge_seq, involution) -> UnorientedLoopClass:
    if involution is None:
        raise InvalidLoopError("unoriented canonicalization needs an involution")
    loop_vertices(graph, edge_seq)
    g = graph.require_regular()
    fwd = minimal_rotation(tuple(edge_seq))
    rev = minimal_rotation(involution.reverse_path(edge_seq))
    n = len(fwd)
    J = repetition_count(fwd)
    if fwd == rev:
        jt = 2 * J
        keys = (fwd,)
    else:
        jt = J
        keys = tuple(sorted((fwd, rev)))
    return UnorientedLoopClass(min(fwd, rev), n, jt, Fraction(1, g ** n * jt), keys)


def unoriented_key(edge_seq, involution) -> tuple[int, ...]:
    return min(minimal_rotation(tuple(edge_seq)),
               minimal_rotation(involution.reverse_path(edge_seq)))


# -- catalogs ----------------------------------------------------------------


class LoopCatalog:
    """All loop classes of length <= L_max inside a domain.

    mode is "oriented" or "unoriented".  A catalog holds its classes and the
    departure lists of those a reader asks for (`departures`, for cycle
    popping); readers take any other geometry from the class keys.  An
    unoriented catalog is always the counterpart of an oriented one, so a
    domain is enumerated once.
    """

    def __init__(self, domain: Domain, L_max: int, mode: str,
                 classes, tail_bound_value: float,
                 unoriented_graph: UnorientedGraph | None = None):
        self.domain = domain
        self.L_max = L_max
        self.mode = mode
        self.classes = tuple(sorted(classes, key=lambda c: (c.n, c.key)))
        self.tail_bound = tail_bound_value
        self.unoriented_graph = unoriented_graph
        self.by_key = {c.key: c for c in self.classes}
        self._counterpart: LoopCatalog | None = None
        self._mass_arrays = None          # lazy (masses, cumsum) cache
        self._departures: dict = {}       # lazy class key -> departures

    @property
    def total_mass(self) -> Fraction:
        return sum((c.mass for c in self.classes), Fraction(0))

    def mass_arrays(self):
        """(masses, cumulative masses) as float arrays, cached."""
        if self._mass_arrays is None:
            import numpy as np
            masses = np.array([c.mass_float for c in self.classes])
            self._mass_arrays = (masses, np.cumsum(masses))
        return self._mass_arrays

    def departures(self, key) -> list:
        """The departure lists of class `key` rooted at each of its steps.

        Entry r is, per vertex in order of first visit from step r, the
        (edge id, head) of the steps leaving it, in order; cached.
        """
        deps = self._departures.get(key)
        if deps is None:
            graph = self.domain.graph
            verts = loop_vertices(graph, key)
            deps = self._departures[key] = []
            for r in range(len(key)):
                dep: dict = {}
                for eid, v in zip(key[r:] + key[:r], verts[r:] + verts[:r]):
                    dep.setdefault(v, []).append((eid, graph.edge_by_id[eid].head))
                deps.append(tuple(dep.items()))
        return deps

    def counterpart(self) -> "LoopCatalog":
        """The catalog of the other orientation mode on the same domain.

        Each unoriented class merges an oriented class with its reversal; a
        self-reversed one doubles J and halves its mass.
        """
        if self._counterpart is None:
            if self.mode != "oriented" or self.unoriented_graph is None:
                raise GraphError("the unoriented catalog is derived from an "
                                 "oriented one with an UnorientedGraph")
            inv = self.unoriented_graph.involution
            merged = {}
            for cls in self.classes:
                seq = cls.key
                rev = minimal_rotation(inv.reverse_path(seq))
                key = min(seq, rev)
                if key not in merged:
                    twice = seq == rev
                    merged[key] = UnorientedLoopClass(
                        key, cls.n, 2 * cls.J if twice else cls.J,
                        cls.mass / 2 if twice else cls.mass,
                        tuple(sorted({seq, rev})))
            self._counterpart = LoopCatalog(
                self.domain, self.L_max, "unoriented", merged.values(),
                self.tail_bound, unoriented_graph=self.unoriented_graph)
            self._counterpart._counterpart = self
        return self._counterpart

    def export_jsonl(self, path) -> None:
        """One JSON object per class, each written with one format string.

        A class's mass is 1 / (g^n J), so its text and its float come from
        that denominator (int division rounds correctly, like `float` of the
        Fraction).
        """
        g = self.domain.g
        with open(path, "w") as fh:
            for c in self.classes:
                den = g ** c.n * c.J
                mass = f"1/{den}" if den != 1 else "1"
                fh.write(f'{{"edges": {list(c.key)}, "n": {c.n}, "J": {c.J}, '
                         f'"mass": "{mass}", "mass_float": {1 / den!r}}}\n')

    def __len__(self) -> int:
        return len(self.classes)


def _enumerate_oriented_keys(domain: Domain, L_max: int, budget: int):
    """Yield canonical (rotation-minimal) edge sequences of loops in the domain.

    DFS from each start edge using only edge ids >= the start id, then keep
    a closed sequence only if it is its own minimal rotation, so each class
    comes out exactly once.
    """
    out_edges = {v: domain.out_edges(v) for v in domain.vertices}
    found = 0
    if L_max < 1:
        return
    for start in sorted((e for v in domain.vertices for e in out_edges[v]),
                        key=lambda e: e.id):
        stack = [(start.head, (start.id,))]
        while stack:
            v, seq = stack.pop()
            if v == start.tail:
                if seq == minimal_rotation(seq):
                    found += 1
                    if found > budget:
                        raise BudgetExceededError(f"class budget {budget} exceeded")
                    yield seq
            if len(seq) < L_max:
                for e in out_edges[v]:
                    if e.id >= start.id:
                        stack.append((e.head, seq + (e.id,)))


def enumerate_loops(domain: Domain, L_max: int, mode: str = "oriented",
                    unoriented: UnorientedGraph | None = None,
                    budget: int | None = None) -> LoopCatalog:
    """Exhaustive catalog of loop classes with length <= L_max in the domain;
    an unoriented catalog is the counterpart of the oriented one."""
    if budget is None:
        budget = DEFAULT_CLASS_BUDGET
    if L_max < 0:
        raise GraphError("L_max must be nonnegative")
    if mode not in ("oriented", "unoriented"):
        raise GraphError(f"unknown mode {mode!r}")
    if mode == "unoriented" and unoriented is None:
        raise GraphError("unoriented enumeration needs an UnorientedGraph")
    g = domain.g
    classes = []
    for seq in _enumerate_oriented_keys(domain, L_max, budget):
        n = len(seq)
        J = repetition_count(seq)
        classes.append(LoopClass(seq, n, J, Fraction(1, g ** n * J)))
    try:
        tb = tail_bound(domain, L_max)
    except GraphError:
        tb = math.inf
    catalog = LoopCatalog(domain, L_max, "oriented", classes, tb,
                          unoriented_graph=unoriented)
    return catalog if mode == "oriented" else catalog.counterpart()


def tail_bound(domain: Domain, L_max: int) -> float:
    """Upper bound on the mu-mass of loops longer than L_max.

    trace(P^n) <= |D| lambda^n for the nonnegative matrix P, so the omitted
    mass sum_{n>L} trace(P^n)/n is at most |D| sum_{n>L} lambda^n / n,
    evaluated in closed form.  The nu-mass omitted is at most half of this.
    """
    lam = domain.spectral_radius()
    if lam >= 1.0:
        raise GraphError("tail bound requires spectral radius < 1")
    if lam == 0.0:
        return 0.0
    partial = sum(lam ** n / n for n in range(1, L_max + 1))
    return domain.size * (-math.log1p(-lam) - partial)
