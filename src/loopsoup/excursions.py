"""Cutting soup loops at marked places and putting them back together.

Every resampling statement cuts each loop at marked places into pieces and
the runs between them, then re-hooks the runs.  `_cut_pieces` is the one
cutting walk: it visits each class of a soup multiset once and records its
pieces in a deterministic order, each with the run after it and the label of
the next piece on its loop.  The cuts differ only in where they cut:

* excursions: given disjoint vertex sets F1, F2, the arcs between
  consecutive F2-visits whose interior meets F1; the runs are the
  complementary bridges (paths avoiding F1) that hook the excursions back
  into loops.  The decomposition records the excursions, their endpoint
  vector on F2, and the hookup actually realized by the soup.
* crossings: given disjoint marked sets, the arcs between consecutive marked
  visits that start and end in different sets; the runs are the side arcs,
  each joining two crossing ends on one set, and a set's side is the joins
  of its slots.
* edge jumps: given removed edge classes, the single steps across them; the
  runs are the paths avoiding those edges that join the jump endpoints.

Continuous-time excursions cut loops at a marked site set: every arc between
consecutive site visits is an excursion skeleton there.

One form serves both orientations.  Piece j (an excursion, a crossing or a
jump) owns slot 2j, its start, and slot 2j+1, its end, and the endpoint
vector Z lists the slots' vertices: Z[2j] starts piece j and Z[2j+1] ends
it.  A hookup is a perfect matching of the slots, the sorted tuple of its
((slot, slot), arc) joins.  An oriented join runs from exit 2j+1 to entry
2 sigma(j), so the hookup is a permutation sigma; an unoriented one pairs
two slots, sorted, by an arc in unoriented form.  Every cut builds its
record through `_hookup`; the bridge laws of `exact` and the bridge tables
of `verify` build and read joins over the same Z.

Reassembly is the inverse operation.  `hookup_walk` is the one walk along
a hookup, into cycles of pieces and bridges: on it, `hookup_loops` closes
them into loops for reassembly to canonicalize, and `hookup_cycle_key`
keys them.  The exact oracles read a bridge configuration's walk once,
when its bridge family is tabulated, and then measure its loops
(`hookup_loop_lengths`) and key it (`walk_orbit_key`) for every bin
sharing its endpoint vector.

Hookup keys: relabeling occurrences of identical excursions (or identical
jumps, or the two ends of a palindromic unoriented piece) is unobservable in
the soup, so hookups are compared through a key of their orbit under those
relabelings: the sorted multiset of the hookup's cycles, each canonicalized
like a loop class (`hookup_cycle_key`), or of the joins of a matching of
labelled slots (`matching_key`).  No relabeling is enumerated.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .graph import GraphError
from .loops import (InvalidLoopError, LoopCatalog, canonicalize_oriented,
                    canonicalize_unoriented, loop_vertices, necklace)


class DecompositionError(GraphError):
    pass


def path_vertices(graph, path) -> tuple[int, ...]:
    """All n+1 vertices along an open edge path."""
    if not path:
        return ()
    try:
        verts = [graph.edge_by_id[path[0]].tail]
        for eid in path:
            e = graph.edge_by_id[eid]
            if e.tail != verts[-1]:
                raise DecompositionError(f"edge {eid} breaks the path")
            verts.append(e.head)
    except KeyError as err:
        raise DecompositionError(f"edge {err.args[0]} is not in the graph") from None
    return tuple(verts)


def path_endpoints(graph, path) -> tuple[int, int]:
    v = path_vertices(graph, path)
    return v[0], v[-1]


def _cyclic_arcs(seq, cuts):
    """Split a cyclic edge sequence at the sorted cut positions.

    Returns the arcs from each cut to the next in cyclic order.  A single cut
    yields the whole loop started there; no cut yields no arc.
    """
    return [seq[p:q] if p < q else seq[p:] + seq[:q]
            for p, q in zip(cuts, cuts[1:] + cuts[:1])]


def _marked_arcs(graph, seq, marked):
    """The arcs of a loop between consecutive visits to the marked vertices."""
    verts = loop_vertices(graph, seq)
    return _cyclic_arcs(seq, [p for p, v in enumerate(verts) if v in marked])


def _flagged_runs(arcs, flags):
    """Each flagged arc in cyclic order, with the edges of the unflagged arcs
    that follow it up to the next flagged arc."""
    if True not in flags:
        return []
    k = flags.index(True)
    out = []
    for arc, flag in zip(arcs[k:] + arcs[:k], flags[k:] + flags[:k]):
        if flag:
            out.append((arc, ()))
        else:
            out[-1] = (out[-1][0], out[-1][1] + arc)
    return out


def _cut_pieces(counts, loop_cut):
    """The one cutting walk over a class multiset.

    `loop_cut(key)` lists a loop's pieces in loop order as (sort token, piece
    as traversed, run to the next piece); it is called once per class.
    Returns rows (token, label, piece, run, next label) sorted by (token,
    label), where label = (key, occurrence, piece index) and next label is
    the label of the piece the run leads to.
    """
    rows = []
    for key, n in counts.items():
        cut = loop_cut(key)
        for occ in range(n):
            for i, (token, piece, run) in enumerate(cut):
                rows.append((token, (key, occ, i), piece, run,
                             (key, occ, (i + 1) % len(cut))))
    rows.sort(key=lambda r: r[:2])
    return rows


def _hookup(graph, rows, canon, inv=None):
    """Endpoint vector Z and the hookup realized by cut rows, as sorted joins.

    Piece j owns slots 2j and 2j+1 in the direction of canon(piece), swapped
    when the piece was traversed against that form, and Z lists the slots'
    vertices; the run after a piece joins its exit slot to the entry slot of
    the next piece.  With no involution a join runs from exit to entry,
    ((2j+1, 2 sigma(j)), run); with one its slots are sorted and its run
    is in unoriented form.
    """
    Z, entry, exit_ = [], {}, {}
    for j, (_, label, piece, _, _) in enumerate(rows):
        form = canon(piece)
        Z.extend(path_endpoints(graph, form))
        flip = form != piece
        entry[label], exit_[label] = 2 * j + flip, 2 * j + 1 - flip
    joins = []
    for _, label, _, run, nxt in rows:
        a, b = exit_[label], entry[nxt]
        joins.append(((a, b), run) if inv is None else
                     ((min(a, b), max(a, b)), inv.unoriented_path(run)))
    return tuple(Z), tuple(sorted(joins))


# -- excursion decomposition ---------------------------------------------------


@dataclass
class ExcursionDecomposition:
    eta: tuple[tuple[int, ...], ...]      # canonical-form excursion paths, sorted
    M: int                                 # number of loops meeting both sets
    N: int                                 # number of excursions
    Z: tuple[int, ...]                     # start and end of each, on F2
    joins: tuple                           # the realized hookup's joins
    touching_multiset: tuple               # sorted class keys with multiplicity


def decompose_counts(catalog: LoopCatalog, counts: dict, F1, F2) -> ExcursionDecomposition:
    F1, F2 = frozenset(F1), frozenset(F2)
    if not F1 or not F2:
        raise DecompositionError("marked sets must be nonempty")
    if F1 & F2:
        raise DecompositionError("marked sets must be disjoint")
    graph = catalog.domain.graph
    edge = graph.edge_by_id
    oriented = catalog.mode == "oriented"
    inv = None if oriented else catalog.unoriented_graph.involution
    canon = (lambda path: path) if oriented else inv.unoriented_path

    def loop_cut(key):
        arcs = _marked_arcs(graph, key, F2)
        flags = [any(edge[e].head in F1 for e in arc[:-1]) for arc in arcs]
        return [(canon(exc), exc, run) for exc, run in _flagged_runs(arcs, flags)]

    rows = _cut_pieces(counts, loop_cut)
    touching = tuple(sorted(r[1][0] for r in rows if r[1][2] == 0))
    return ExcursionDecomposition(tuple(r[0] for r in rows), len(touching),
                                  len(rows), *_hookup(graph, rows, canon, inv),
                                  touching)


# -- crossings -----------------------------------------------------------------


@dataclass
class CrossingSet:
    """Crossings between marked sets, on the one hookup form.

    instances[j] is the (pair, canonical path) of crossing j, in the global
    canonical order; the pair is (from set, to set), sorted in unoriented
    mode.  Crossing j owns slots 2j and 2j+1, the start and end of its
    canonical path, and Z lists the slots' vertices.  The joins are the
    side arcs, each joining two slots on one set (`side`).
    """

    mode: str
    sets: tuple[frozenset, ...]
    instances: tuple
    Z: tuple[int, ...]
    joins: tuple

    def side(self, i) -> tuple:
        """The joins whose slots lie on set i."""
        return tuple(j for j in self.joins if self.Z[j[0][0]] in self.sets[i])


def extract_crossings_counts(catalog: LoopCatalog, counts: dict, sets) -> CrossingSet:
    sets = tuple(frozenset(s) for s in sets)
    if not all(sets):
        raise DecompositionError("marked sets must be nonempty")
    set_of = {}
    for i, s in enumerate(sets):
        for v in s:
            if v in set_of:
                raise DecompositionError("marked sets must be disjoint")
            set_of[v] = i
    graph = catalog.domain.graph
    edge = graph.edge_by_id
    oriented = catalog.mode == "oriented"
    inv = None if oriented else catalog.unoriented_graph.involution
    canon = (lambda path: path) if oriented else inv.unoriented_path

    def end_sets(path):
        return set_of[edge[path[0]].tail], set_of[edge[path[-1]].head]

    def token(path):
        pair = end_sets(path)
        return (pair if oriented else tuple(sorted(pair))), canon(path)

    def loop_cut(key):
        arcs = _marked_arcs(graph, key, set_of)
        flags = [a != b for a, b in map(end_sets, arcs)]
        return [(token(c), c, run) for c, run in _flagged_runs(arcs, flags)]

    rows = _cut_pieces(counts, loop_cut)
    return CrossingSet(catalog.mode, sets, tuple(r[0] for r in rows),
                       *_hookup(graph, rows, canon, inv))


# -- removed-edge jump records ---------------------------------------------------


@dataclass
class EdgeJumpRecord:
    counts: tuple[int, ...]                 # jumps per removed class, classes sorted
    Z: tuple[int, ...]                      # 2 * sum(counts) endpoint vertices
    joins: tuple                            # joins of Z slots by D' bridge paths
    self_edge_slots: tuple[tuple[int, int], ...]   # flippable slot pairs


def record_edge_jumps_counts(catalog: LoopCatalog, counts: dict,
                             removed_classes) -> EdgeJumpRecord:
    if catalog.mode != "unoriented":
        raise DecompositionError("edge-jump records need an unoriented soup")
    graph = catalog.domain.graph
    edge = graph.edge_by_id
    ug = catalog.unoriented_graph
    inv = ug.involution
    removed = tuple(sorted(tuple(k) for k in removed_classes))
    removed_set = set(removed)

    def loop_cut(key):
        cuts = [p for p, e in enumerate(key) if ug.edge_class(e) in removed_set]
        return [(ug.edge_class(arc[0]), arc[:1], arc[1:])
                for arc in _cyclic_arcs(key, cuts)]

    def canon(jump):
        # the class edge leaving the smaller endpoint; a self-edge keeps its own
        e = edge[jump[0]]
        return jump if e.tail <= e.head else inv.reverse_path(jump)

    rows = _cut_pieces(counts, loop_cut)
    jump_counts = Counter(r[0] for r in rows)
    self_pairs = tuple((2 * j, 2 * j + 1) for j, r in enumerate(rows)
                       if edge[r[2][0]].is_self_edge)
    return EdgeJumpRecord(tuple(jump_counts.get(c, 0) for c in removed),
                          *_hookup(graph, rows, canon, inv), self_pairs)


# -- reassembly ------------------------------------------------------------------


def hookup_walk(joins, n):
    """The cycles of a hookup of n pieces, each a list of (entry slot, arc
    after the piece) steps.  Piece j owns slots 2j and 2j+1, and the joins
    ((a, b), arc) pair every slot once (unchecked); a step leaves its piece
    by the other slot and follows that slot's arc to the next entry slot.
    """
    partner = {}
    for (a, b), arc in joins:
        partner[a], partner[b] = (b, arc), (a, arc)
    cycles, done = [], set()
    for first in range(n):
        if first in done:
            continue
        steps, slot = [], 2 * first
        while not steps or slot != 2 * first:
            done.add(slot >> 1)
            nxt, arc = partner[slot ^ 1]
            steps.append((slot, arc))
            slot = nxt
        cycles.append(steps)
    return cycles


def hookup_loop_lengths(pieces, walk) -> list[int]:
    """The lengths of the loops a hookup walk closes, pieces plus arcs, read
    off the walk without building a loop or checking a junction."""
    return [sum(len(pieces[s >> 1]) + len(arc) for s, arc in steps)
            for steps in walk]


def hookup_loops(graph, pieces, joins, involution=None) -> list[tuple[int, ...]]:
    """The closed loops the joins make of pieces and bridges, as edge
    sequences: their walk, traversing each piece (slot 2j its start, 2j+1
    its end) and bridge in the direction it enters them.  With no
    involution the hookup is oriented: every join runs from an exit to an
    entry and nothing is traversed backwards.  Raises DecompositionError at
    a slot joined twice or never, at an oriented join of two entries or two
    exits, or where a loop breaks at a junction."""
    slots = [s for pair, _ in joins for s in pair]
    if len(set(slots)) < len(slots):
        raise DecompositionError("slot paired twice")
    if set(slots) != set(range(2 * len(pieces))):
        raise DecompositionError("pairing must cover all slots")
    if involution is None and any(a & 1 == b & 1 for (a, b), _ in joins):
        raise DecompositionError(
            "an oriented join runs from an exit to an entry")
    edge = graph.edge_by_id
    loops = []
    for steps in hookup_walk(joins, len(pieces)):
        seq: tuple[int, ...] = ()
        for slot, br in steps:
            piece = pieces[slot >> 1]
            seq += involution.reverse_path(piece) if slot & 1 else piece
            # an unoriented bridge runs on from where the piece stopped
            backwards = br and edge[br[0]].tail != edge[seq[-1]].head
            if backwards and involution is not None:
                br = involution.reverse_path(br)
            seq += br
        try:
            loop_vertices(graph, seq)
        except InvalidLoopError as exc:
            raise DecompositionError(f"a junction does not match: {exc}") from exc
        loops.append(seq)
    return loops


def reassemble(eta, beta, graph, involution=None):
    """Reassemble pieces eta and the joins beta into the sorted loop-class
    keys they encode; oriented with no involution."""
    # hookup_loops checks that every loop closes, so none is refused below
    loops = hookup_loops(graph, eta, beta, involution)
    if involution is None:
        keys = [canonicalize_oriented(graph, seq).key for seq in loops]
    else:
        keys = [canonicalize_unoriented(graph, seq, involution).key
                for seq in loops]
    return tuple(sorted(keys))


# -- continuous-time excursions ---------------------------------------------------


def loop_skeletons(graph, key, marked, involution=None) -> list[tuple[int, ...]]:
    """The excursion skeletons of a loop cut at the marked vertices.

    Each arc between consecutive marked visits is one skeleton; with an
    involution it is keyed by the smaller of the arc and its reversal.  A
    loop that avoids the marked set has none.
    """
    arcs = _marked_arcs(graph, key, marked)
    if involution is None:
        return arcs
    return [involution.unoriented_path(arc) for arc in arcs]


# -- hookup orbit keys -------------------------------------------------------------


def _hookup_cycles(tokens, walk, oriented, flips=()) -> list:
    """The (canonical cycle, J) pairs of a hookup, sorted.

    The walk splits the hookup into cycles of (tokens[j],
    direction, arc after the piece) items: direction +1 for a piece j
    entered at slot 2j, -1 at 2j+1, 0 for the pieces in `flips`.  A
    cycle is keyed like a loop class by `loops.necklace`, given when
    unoriented its reversal (each piece turns round and the arc before it
    now follows it), with J the rotations fixing it, doubled when it equals
    its reversal.  Hookups differ by a relabeling of identical pieces (and
    flips) exactly when their sorted cycles are equal.
    """
    cycles = []
    for steps in walk:
        items = [(tokens[s >> 1], 0 if s >> 1 in flips else 1 - 2 * (s & 1),
                  arc) for s, arc in steps]
        back = None if oriented else [(t, -d, items[i - 1][2]) for i, (t, d, _)
                                      in enumerate(items)][::-1]
        cycles.append(necklace(items, back))
    cycles.sort()
    return cycles


def hookup_cycle_key(tokens, joins, oriented, flips=()):
    """`cycles_key` of the hookup's `_hookup_cycles`."""
    return cycles_key(_hookup_cycles(tokens, hookup_walk(joins, len(tokens)),
                                     oriented, flips))


def cycles_key(cycles):
    """(sorted canonical cycles, number of relabelings fixing a hookup with
    these (cycle, J) pairs): prod m! J^m over the distinct cycles, m the
    multiplicity."""
    cycles = sorted(cycles)
    # sorted, the k-th copy of a cycle follows k - 1 copies: prod k J = m! J^m
    fixing = math.prod(J * cycles[:i + 1].count((c, J))
                       for i, (c, J) in enumerate(cycles))
    return tuple(c for c, _ in cycles), fixing


def matching_key(labels, joins, oriented):
    """The sorted (label, arc, label) joins of a matching of labelled slots,
    ends unordered when unoriented: its orbit under relabeling slots of
    equal label."""
    ends = [((labels[a], labels[b]), arc) for (a, b), arc in joins]
    return tuple(sorted((x, arc, y) if oriented or x <= y else (y, arc, x)
                        for (x, y), arc in ends))


def flipped_pieces(eta, flippable, involution) -> set:
    """The pieces whose ends are indistinguishable: those of the
    (slot_a, slot_b) pairs in `flippable` (self-edge jumps) and, with an
    involution, the palindromic pieces."""
    flips = {a // 2 for a, _ in flippable}
    if involution is not None:
        flips.update(j for j, path in enumerate(eta)
                     if path and path == involution.reverse_path(path))
    return flips


def walk_orbit_key(eta, walk, oriented, flips=()):
    """Key of a hookup of the pieces eta, given by its walk, under
    relabeling identical pieces and flipping the pieces in `flips`."""
    return tuple(c for c, _ in _hookup_cycles(eta, walk, oriented, flips))


def oriented_hookup_orbit_key(eta, joins):
    """Key of an oriented hookup's joins under relabeling pieces with equal
    entries of eta (identical excursions, or equal endpoint pairs)."""
    return walk_orbit_key(eta, hookup_walk(joins, len(eta)), True)


def unoriented_hookup_orbit_key(eta, joins, flippable=(), involution=None):
    """Key of an unoriented hookup's joins under excursion relabeling and
    end flips of the pieces in `flippable` ((slot_a, slot_b) pairs of
    indistinguishable ends: self-edge jumps) and, with an involution, of
    palindromic pieces."""
    return walk_orbit_key(eta, hookup_walk(joins, len(eta)), False,
                          flipped_pieces(eta, flippable, involution))
