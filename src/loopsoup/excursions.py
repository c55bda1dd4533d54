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
  vectors on F2, and the hookup actually realized by the soup.
* crossings: given disjoint marked sets, the arcs between consecutive marked
  visits that start and end in different sets; the runs are the side arcs.
* edge jumps: given removed edge classes, the single steps across them; the
  runs are the paths avoiding those edges that join the jump endpoints.

Continuous-time excursions cut loops at a marked site set: every arc between
consecutive site visits is an excursion skeleton there.

Reassembly is the inverse operation.  `hookup_loops` is the one walk that
closes pieces (excursions or jumps) and bridges into loops along a hookup;
reassembly canonicalizes those loops, and the exact oracles read their lengths.

Hookup keys: relabeling occurrences of identical excursions (or identical
jumps, or the two ends of a palindromic unoriented piece) is unobservable in
the soup, so hookups are compared through a canonical representative of
their orbit under those relabelings.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from .graph import GraphError
from .loops import (InvalidLoopError, LoopCatalog, canonicalize_oriented,
                    canonicalize_unoriented, loop_vertices)

ORBIT_BUDGET = 20000


class DecompositionError(GraphError):
    pass


def _path_vertices(graph, path) -> tuple[int, ...]:
    """All n+1 vertices along an open edge path."""
    if not path:
        return ()
    verts = [graph.edge_by_id[path[0]].tail]
    for eid in path:
        e = graph.edge_by_id[eid]
        if e.tail != verts[-1]:
            raise DecompositionError(f"edge {eid} breaks the path")
        verts.append(e.head)
    return tuple(verts)


def path_endpoints(graph, path) -> tuple[int, int]:
    v = _path_vertices(graph, path)
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


def _unoriented_hookup(graph, rows, canon, inv):
    """Endpoint slots Z and the unoriented hookup realized by cut rows.

    Piece j owns slots 2j and 2j+1 in the direction of canon(piece), swapped
    when the piece was traversed against that form; the run after a piece
    joins its exit slot to the entry slot of the next piece.
    """
    Z, entry, exit_ = [], {}, {}
    for j, (_, label, piece, _, _) in enumerate(rows):
        form = canon(piece)
        Z.extend(path_endpoints(graph, form))
        flip = form != piece
        entry[label], exit_[label] = 2 * j + flip, 2 * j + 1 - flip
    pairs = []
    for _, label, _, run, nxt in rows:
        a, b = exit_[label], entry[nxt]
        pairs.append(((min(a, b), max(a, b)), inv.unoriented_path(run)))
    pairs.sort()
    return tuple(Z), UnorientedHookup(tuple(p for p, _ in pairs),
                                      tuple(br for _, br in pairs))


# -- excursion decomposition ---------------------------------------------------


@dataclass(frozen=True)
class OrientedHookup:
    """Permutation sigma plus bridge paths: bridge j runs X_j -> Y_{sigma[j]}."""

    sigma: tuple[int, ...]
    bridges: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class UnorientedHookup:
    """Pairing of endpoint slots plus one unoriented bridge path per pair."""

    pairing: tuple[tuple[int, int], ...]
    bridges: tuple[tuple[int, ...], ...]


@dataclass
class ExcursionDecomposition:
    mode: str
    F1: frozenset
    F2: frozenset
    eta: tuple[tuple[int, ...], ...]      # canonical-form excursion paths, sorted
    M: int                                 # number of loops meeting both sets
    N: int                                 # number of excursions
    X: tuple[int, ...] | None              # arrival points on F2 (oriented)
    Y: tuple[int, ...] | None              # departure points on F2 (oriented)
    Z: tuple[int, ...] | None              # 2N extremities on F2 (unoriented)
    beta_truth: OrientedHookup | UnorientedHookup
    touching_multiset: tuple               # sorted class keys with multiplicity

    def to_json(self) -> dict:
        out = {"mode": self.mode, "M": self.M, "N": self.N,
               "eta": [list(p) for p in self.eta],
               "bridges": [list(b) for b in self.beta_truth.bridges]}
        if self.mode == "oriented":
            out.update(X=list(self.X), Y=list(self.Y),
                       permutation=list(self.beta_truth.sigma))
        else:
            out.update(Z=list(self.Z),
                       pairing=[list(p) for p in self.beta_truth.pairing])
        return out


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
    eta = tuple(r[0] for r in rows)
    touching = tuple(sorted(r[1][0] for r in rows if r[1][2] == 0))
    if oriented:
        slot_of = {r[1]: j for j, r in enumerate(rows)}
        ends = [path_endpoints(graph, r[2]) for r in rows]
        beta = OrientedHookup(tuple(slot_of[r[4]] for r in rows),
                              tuple(r[3] for r in rows))
        return ExcursionDecomposition(
            "oriented", F1, F2, eta, len(touching), len(rows),
            tuple(b for _, b in ends), tuple(a for a, _ in ends), None, beta,
            touching)
    Z, beta = _unoriented_hookup(graph, rows, canon, inv)
    return ExcursionDecomposition("unoriented", F1, F2, eta, len(touching),
                                  len(rows), None, None, Z, beta, touching)


def decompose(soup, F1, F2) -> ExcursionDecomposition:
    return decompose_counts(soup.catalog, soup.counts, F1, F2)


# -- crossings -----------------------------------------------------------------


@dataclass
class CrossingSet:
    """Crossings between marked sets plus the per-set completion structures.

    crossings[(i, j)] lists canonical crossing paths from set i to set j
    (unordered pairs in unoriented mode).  instances[s] is the (pair, path)
    of the s-th crossing in the global canonical order.  sides[i] is the
    hookup of loop arcs avoiding the other sets that join crossing endpoint
    slots on set i: entries ((end_slot, start_slot), arc) in oriented mode
    and ((slot, slot), arc) with sorted slots in unoriented mode, where slots
    index endpoint_slots[i].
    """

    mode: str
    sets: tuple[frozenset, ...]
    crossings: dict
    instances: tuple
    endpoint_slots: dict                    # i -> tuple of (vertex, instance s)
    sides: dict

    def crossing_key(self):
        return tuple(sorted(
            (pair, tuple(paths)) for pair, paths in self.crossings.items()
        ))

    def endpoints(self, i) -> tuple[int, ...]:
        return tuple(v for v, _ in self.endpoint_slots[i])


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

    def end_sets(path):
        return set_of[edge[path[0]].tail], set_of[edge[path[-1]].head]

    def token(path):
        pair = end_sets(path)
        if oriented:
            return pair, path
        return tuple(sorted(pair)), inv.unoriented_path(path)

    def loop_cut(key):
        arcs = _marked_arcs(graph, key, set_of)
        flags = [a != b for a, b in map(end_sets, arcs)]
        return [(token(c), c, run) for c, run in _flagged_runs(arcs, flags)]

    rows = _cut_pieces(counts, loop_cut)
    instances = tuple(r[0] for r in rows)
    crossings: dict = {}
    for pair, path in instances:
        crossings.setdefault(pair, []).append(path)
    crossings = {p: tuple(v) for p, v in crossings.items()}
    # every crossing has exactly one endpoint on each of its two sets, so the
    # instance index s identifies the slot; endpoint vertices come from the
    # canonical path so the layout is a function of the crossing multiset only
    endpoint_slots: dict = {i: [] for i in range(len(sets))}
    for s, (_, path) in enumerate(instances):
        for v in path_endpoints(graph, path):
            endpoint_slots[set_of[v]].append((v, s))
    endpoint_slots = {i: tuple(v) for i, v in endpoint_slots.items()}
    slot_index = {i: {s: k for k, (_, s) in enumerate(v)}
                  for i, v in endpoint_slots.items()}
    instance_of = {r[1]: s for s, r in enumerate(rows)}
    sides: dict = {i: [] for i in range(len(sets))}
    for s, (_, _, piece, run, nxt) in enumerate(rows):
        to = end_sets(piece)[1]
        a = slot_index[to][s]                   # arrival slot
        b = slot_index[to][instance_of[nxt]]    # departure slot
        if oriented:
            sides[to].append(((a, b), run))
        else:
            sides[to].append(((min(a, b), max(a, b)), inv.unoriented_path(run)))
    sides = {i: tuple(sorted(v)) for i, v in sides.items()}
    return CrossingSet(catalog.mode, sets, crossings, instances,
                       endpoint_slots, sides)


def extract_crossings(soup, F1, F2) -> CrossingSet:
    return extract_crossings_counts(soup.catalog, soup.counts, (F1, F2))


# -- removed-edge jump records ---------------------------------------------------


@dataclass
class EdgeJumpRecord:
    removed: tuple                          # unoriented edge class keys, sorted
    counts: tuple[int, ...]                 # jumps per removed class
    Z: tuple[int, ...]                      # 2 * sum(counts) endpoint vertices
    hookup: UnorientedHookup                # pairing of Z slots + D' bridge paths
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
    Z, hookup = _unoriented_hookup(graph, rows, canon, inv)
    self_pairs = tuple((2 * j, 2 * j + 1) for j, r in enumerate(rows)
                       if edge[r[2][0]].is_self_edge)
    return EdgeJumpRecord(removed, tuple(jump_counts.get(c, 0) for c in removed),
                          Z, hookup, self_pairs)


def record_edge_jumps(soup, removed_classes) -> EdgeJumpRecord:
    return record_edge_jumps_counts(soup.catalog, soup.counts, removed_classes)


# -- reassembly ------------------------------------------------------------------


def hookup_loops(graph, pieces, hookup, involution=None) -> list[tuple[int, ...]]:
    """The closed loops a hookup makes of pieces and bridges, as edge sequences.

    Piece j owns endpoint slots 2j (its start) and 2j+1 (its end).  An
    oriented hookup joins the end of piece j to the start of piece sigma[j]
    through bridge j; an unoriented one pairs slots, and the walk traverses
    each piece and bridge in the direction it enters them.  Raises
    DecompositionError at any junction whose endpoints do not match.
    """
    if isinstance(hookup, OrientedHookup):
        pairing = [(2 * j + 1, 2 * s) for j, s in enumerate(hookup.sigma)]
        involution = None           # nothing is traversed backwards
    elif involution is None:
        raise DecompositionError("an unoriented hookup needs an involution")
    else:
        pairing = hookup.pairing
    partner, bridge_of = {}, {}
    for (a, b), br in zip(pairing, hookup.bridges):
        if a in partner or b in partner:
            raise DecompositionError("slot paired twice")
        partner[a], partner[b] = b, a
        bridge_of[a] = bridge_of[b] = br
    if set(partner) != set(range(2 * len(pieces))):
        raise DecompositionError("pairing must cover all slots")
    edge = graph.edge_by_id
    ends = [v for p in pieces for v in (edge[p[0]].tail, edge[p[-1]].head)]
    loops, visited = [], set()
    for start in range(2 * len(pieces)):
        if start in visited:
            continue
        seq: tuple[int, ...] = ()
        slot = start
        while True:
            # the piece owning `slot`, from `slot` to its mate, then the
            # bridge from the mate to its partner
            j, side = divmod(slot, 2)
            mate = slot ^ 1
            visited.update((slot, mate))
            seq += pieces[j] if side == 0 else involution.reverse_path(pieces[j])
            slot, br = partner[mate], bridge_of[mate]
            at = (ends[mate], ends[slot])
            ab = (edge[br[0]].tail, edge[br[-1]].head) if br else at[:1] * 2
            if ab == at:
                seq += br
            elif involution is not None and ab[::-1] == at:
                seq += involution.reverse_path(br)
            else:
                raise DecompositionError("bridge endpoints do not match the hookup")
            if slot == start:
                break
        loops.append(seq)
    return loops


def reassemble(eta, beta, graph, involution=None):
    """Reassemble pieces eta and hookup beta into the sorted loop-class keys
    they encode."""
    loops = hookup_loops(graph, eta, beta, involution)
    try:
        if isinstance(beta, OrientedHookup):
            keys = [canonicalize_oriented(graph, seq).key for seq in loops]
        else:
            keys = [canonicalize_unoriented(graph, seq, involution).key
                    for seq in loops]
    except InvalidLoopError as exc:
        raise DecompositionError(f"hookup endpoints do not match: {exc}") from exc
    return tuple(sorted(keys))


def reassemble_oriented(graph, eta, hookup: OrientedHookup):
    """Concatenate excursions and bridges into loops; returns sorted class keys."""
    return reassemble(eta, hookup, graph)


def reassemble_unoriented(graph, involution, eta, hookup: UnorientedHookup):
    """Glue unoriented excursions along the pairing; returns sorted class keys."""
    return reassemble(eta, hookup, graph, involution)


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


def ct_excursions(ct_soup, sites):
    """Cut the loops of a continuous-time soup at a marked site set.

    Returns (skeletons, local_times, endpoint_parity): the excursion jump
    skeletons (canonical paths), the total occupation at each site, and the
    number of excursion endpoints at each site (always even for a soup).
    """
    soup = ct_soup.jump_soup
    catalog = soup.catalog
    graph = catalog.domain.graph
    sites = sorted(set(sites))
    siteset = set(sites)
    inv = catalog.unoriented_graph.involution if catalog.mode == "unoriented" else None
    cut = []
    parity = {v: 0 for v in sites}
    for key, cnt in soup.counts.items():
        for skel in loop_skeletons(graph, key, siteset, inv):
            cut += [skel] * cnt
            a, b = path_endpoints(graph, skel)
            parity[a] += cnt
            parity[b] += cnt
    times = ct_soup.site_times()
    local = {v: times.get(v, 0.0) for v in sites}
    return sorted(cut), local, parity


# -- hookup orbit keys -------------------------------------------------------------


def block_permutations(items):
    """Relabelings of range(len(items)) that map every index to one holding an
    equal item, as lists perm[i] = new label of i.

    This is the orbit group of every hookup key: identical excursions, jumps
    or crossings, and endpoint slots sharing a vertex.
    """
    blocks: dict = {}
    for i, it in enumerate(items):
        blocks.setdefault(it, []).append(i)
    blocks = list(blocks.values())
    size = 1
    for b in blocks:
        size *= math.factorial(len(b))
    if size > ORBIT_BUDGET:
        raise DecompositionError(f"orbit group of size {size} beyond budget")
    for combo in product(*(permutations(b) for b in blocks)):
        perm = [0] * len(items)
        for orig, new in zip(blocks, combo):
            for a, b in zip(orig, new):
                perm[a] = b
        yield perm


def oriented_hookup_orbit_key(eta, hookup: OrientedHookup):
    """Canonical form of (sigma, bridges) under relabeling slots with equal
    entries of eta (identical excursions, or equal (X_j, Y_j) pairs)."""
    N = len(eta)

    def relabel(perm):
        sigma = [0] * N
        bridges = [()] * N
        for j in range(N):
            sigma[perm[j]] = perm[hookup.sigma[j]]
            bridges[perm[j]] = hookup.bridges[j]
        return tuple(sigma), tuple(bridges)

    return min(relabel(perm) for perm in block_permutations(eta))


def xy_orbit_key(X, Y, hookup: OrientedHookup):
    """Canonical (sigma, bridges) under slot relabelings preserving (X_j, Y_j)."""
    return oriented_hookup_orbit_key(tuple(zip(X, Y)), hookup)


def _pairing_orbit_min(hookup: UnorientedHookup, slot_perms):
    """Smallest (pairing, bridges) among the hookup's images under slot_perms."""

    def relabel(sp):
        relabeled = sorted(((min(sp[a], sp[b]), max(sp[a], sp[b])), br)
                           for (a, b), br in zip(hookup.pairing, hookup.bridges))
        return (tuple(p for p, _ in relabeled), tuple(b for _, b in relabeled))

    return min(relabel(sp) for sp in slot_perms)


def unoriented_hookup_orbit_key(eta, hookup: UnorientedHookup,
                                flippable=(), involution=None):
    """Canonical (pairing, bridges) under excursion relabeling and end flips.

    `flippable` lists (slot_a, slot_b) pairs whose two endpoint slots are
    indistinguishable (palindromic pieces, self-edge jumps).
    """
    N = len(eta)
    pal = []
    if involution is not None:
        for j, path in enumerate(eta):
            if path and path == involution.reverse_path(path):
                pal.append((2 * j, 2 * j + 1))
    flips = sorted(set(flippable) | set(pal))
    if 2 ** len(flips) > ORBIT_BUDGET:
        raise DecompositionError("flip group beyond budget")

    def slot_perms():
        for perm in block_permutations(eta):
            base = [0] * (2 * N)
            for j in range(N):
                base[2 * j] = 2 * perm[j]
                base[2 * j + 1] = 2 * perm[j] + 1
            for mask in range(2 ** len(flips)):
                sp = list(base)
                for bit, (a, b) in enumerate(flips):
                    if mask >> bit & 1:
                        sp[a], sp[b] = base[b], base[a]
                yield sp

    return _pairing_orbit_min(hookup, slot_perms())


def z_orbit_key(Z, hookup: UnorientedHookup):
    """Canonical (pairing, bridges) under slot relabelings preserving Z values."""
    return _pairing_orbit_min(hookup, block_permutations(Z))
