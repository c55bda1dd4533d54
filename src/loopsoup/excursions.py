"""Cutting soup loops at marked vertex sets and putting them back together.

Given disjoint vertex sets F1, F2, every loop that meets both splits at its
F2-visits into arcs.  Arcs whose interior meets F1 are the excursions; the
remaining arcs, concatenated between consecutive excursions, are the
complementary bridges (paths avoiding F1) that hook the excursions back into
loops.  The decomposition records the excursions in a deterministic
lexicographic order, their endpoint vectors on F2, and the hookup actually
realized by the soup.

The same cutting against a family of removed edges yields, per removed edge,
the jump instances of the soup across it and the hookup joining the jump
endpoints through paths avoiding those edges.

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


def _cyclic_arcs(seq, verts, marked):
    """Split a cyclic edge sequence at positions whose vertex is marked.

    Returns the list of (position, edges) arcs between consecutive marked
    positions in cyclic order, or None when no vertex is marked.  A single
    marked position yields one arc equal to the whole loop.
    """
    n = len(seq)
    pos = [i for i in range(n) if verts[i] in marked]
    if not pos:
        return None
    arcs = []
    for k, p in enumerate(pos):
        q = pos[(k + 1) % len(pos)]
        if q > p:
            edges = seq[p:q]
        else:
            edges = seq[p:] + seq[:q]
        arcs.append((p, tuple(edges)))
    return arcs


def _flagged_runs(arcs, flags):
    """For each flagged arc i in cyclic order: (i, the edges of the unflagged
    arcs that follow it, index of the next flagged arc)."""
    k = len(arcs)
    for i in range(k):
        if flags[i]:
            run: tuple[int, ...] = ()
            j = (i + 1) % k
            while not flags[j]:
                run += arcs[j][1]
                j = (j + 1) % k
            yield i, run, j


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


def _loop_excursion_structure(graph, seq, F1, F2):
    """Cut one rooted loop: excursion arcs in loop order plus following bridges.

    Returns a list of (excursion_edges, following_bridge_edges) in loop order,
    or None when the loop does not meet both sets.
    """
    verts = loop_vertices(graph, seq)
    vset = set(verts)
    if not (vset & F1) or not (vset & F2):
        return None
    arcs = _cyclic_arcs(seq, verts, F2)
    if arcs is None:
        return None
    flags = []
    for _, edges in arcs:
        inner = _path_vertices(graph, edges)[1:-1]
        flags.append(any(v in F1 for v in inner))
    if not any(flags):
        return None
    return [(arcs[i][1], bridge) for i, bridge, _ in _flagged_runs(arcs, flags)]


def _iter_multiset(counts):
    for key in sorted(counts):
        for occ in range(counts[key]):
            yield key, occ


def decompose_counts(catalog: LoopCatalog, counts: dict, F1, F2) -> ExcursionDecomposition:
    F1, F2 = frozenset(F1), frozenset(F2)
    if not F1 or not F2:
        raise DecompositionError("marked sets must be nonempty")
    if F1 & F2:
        raise DecompositionError("marked sets must be disjoint")
    graph = catalog.domain.graph
    inv = catalog.unoriented_graph.involution if catalog.mode == "unoriented" else None
    # (canonical excursion, loop key, occurrence, position, excursion as
    # traversed, following bridge, label of the next excursion on the loop)
    instances = []
    touching = []
    for key, occ in _iter_multiset(counts):
        structure = _loop_excursion_structure(graph, key, F1, F2)
        if structure is None:
            continue
        touching.append(key)
        for pos, (exc, bridge) in enumerate(structure):
            if catalog.mode == "oriented":
                canon = exc
            else:
                canon = min(exc, inv.reverse_path(exc))
            instances.append((canon, key, occ, pos, exc, bridge,
                              (key, occ, (pos + 1) % len(structure))))
    instances.sort(key=lambda r: r[:4])
    N = len(instances)
    slot_of = {r[1:4]: j for j, r in enumerate(instances)}
    eta = tuple(r[0] for r in instances)
    if catalog.mode == "oriented":
        X, Y, sigma, bridges = [], [], [0] * N, [()] * N
        for j, (canon, key, occ, pos, exc, bridge, nxt) in enumerate(instances):
            a, b = path_endpoints(graph, exc)
            Y.append(a)
            X.append(b)
            sigma[j] = slot_of[nxt]
            bridges[j] = bridge
        beta = OrientedHookup(tuple(sigma), tuple(bridges))
        return ExcursionDecomposition("oriented", F1, F2, eta, len(touching),
                                      N, tuple(X), tuple(Y), None, beta,
                                      tuple(sorted(touching)))
    # unoriented: excursion j occupies endpoint slots (2j, 2j+1) listed in the
    # canonical direction of its path
    Z = []
    start_slot, end_slot = {}, {}
    for j, (canon, key, occ, pos, exc, bridge, nxt) in enumerate(instances):
        Z.extend(path_endpoints(graph, canon))
        flip = canon != exc
        start_slot[(key, occ, pos)] = 2 * j + flip
        end_slot[(key, occ, pos)] = 2 * j + 1 - flip
    beta = _unoriented_hookup(
        [(r[1:4], r[5], r[6]) for r in instances], end_slot, start_slot, inv)
    return ExcursionDecomposition("unoriented", F1, F2, eta, len(touching), N,
                                  None, None, tuple(Z), beta,
                                  tuple(sorted(touching)))


def _unoriented_hookup(links, exit_slot, entry_slot, inv) -> UnorientedHookup:
    """Pairing of endpoint slots and unoriented bridges from the cut pieces.

    links lists (piece label, bridge after the piece, label of the next
    piece); the bridge joins the exit slot of the piece to the entry slot of
    the next one.
    """
    pairs, bridges = [], []
    for label, bridge, nxt in links:
        a, b = exit_slot[label], entry_slot[nxt]
        pairs.append((min(a, b), max(a, b)))
        bridges.append(min(bridge, inv.reverse_path(bridge)) if bridge else ())
    order = sorted(range(len(pairs)), key=lambda i: pairs[i])
    return UnorientedHookup(tuple(pairs[i] for i in order),
                            tuple(bridges[i] for i in order))


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
    endpoint_slots: dict                    # i -> tuple of (vertex, (s, "start"|"end"))
    sides: dict

    def crossing_key(self):
        return tuple(sorted(
            (pair, tuple(paths)) for pair, paths in self.crossings.items()
        ))

    def endpoints(self, i) -> tuple[int, ...]:
        return tuple(v for v, _ in self.endpoint_slots[i])


def _loop_crossing_structure(graph, seq, sets):
    """Cut one loop at visits to the union of the marked sets.

    Returns (crossings, side_arcs): crossings are (frm, to, edges, arc_idx);
    side_arcs are (set_idx, run_edges, from_arc_idx, to_arc_idx) joining the
    end of crossing from_arc_idx to the start of crossing to_arc_idx.  None
    when the loop meets fewer than two sets or never crosses.
    """
    verts = loop_vertices(graph, seq)
    union = set().union(*sets)
    arcs = _cyclic_arcs(seq, verts, union)
    if arcs is None:
        return None

    def set_idx(v):
        for i, s in enumerate(sets):
            if v in s:
                return i
        raise AssertionError

    k = len(arcs)
    starts = [set_idx(verts[pos]) for pos, _ in arcs]
    crossing_flags = [starts[i] != starts[(i + 1) % k] for i in range(k)]
    if not any(crossing_flags):
        return None
    crossings = []
    side_arcs = []
    for i, run, j in _flagged_runs(arcs, crossing_flags):
        to = starts[(i + 1) % k]
        crossings.append((starts[i], to, arcs[i][1], i))
        side_arcs.append((to, run, i, j))
    return crossings, side_arcs


def extract_crossings_counts(catalog: LoopCatalog, counts: dict, sets) -> CrossingSet:
    sets = tuple(frozenset(s) for s in sets)
    if not all(sets):
        raise DecompositionError("marked sets must be nonempty")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                raise DecompositionError("marked sets must be disjoint")
    graph = catalog.domain.graph
    oriented = catalog.mode == "oriented"
    inv = None if oriented else catalog.unoriented_graph.involution
    records = []        # [sort_key, pair, path, loop_tag, raw_edges]
    arc_links = {}      # (loop_tag, arc_idx) -> (run_edges, to_arc_idx, set_idx)
    for key, occ in _iter_multiset(counts):
        structure = _loop_crossing_structure(graph, key, sets)
        if structure is None:
            continue
        crossings, side_arcs = structure
        for frm, to, edges, idx in crossings:
            if oriented:
                pair, canon = (frm, to), edges
            else:
                pair = (min(frm, to), max(frm, to))
                canon = min(edges, inv.reverse_path(edges))
            records.append([(pair, canon, key, occ, idx), pair, canon,
                            (key, occ, idx), edges])
        for to, run, i_from, j_to in side_arcs:
            arc_links[(key, occ, i_from)] = (run, j_to, to)
    records.sort(key=lambda r: r[0])
    slot_by_tag = {r[3]: s for s, r in enumerate(records)}
    crossings: dict = {}
    for r in records:
        crossings.setdefault(r[1], []).append(r[2])
    crossings = {p: tuple(v) for p, v in crossings.items()}
    instances = tuple((r[1], r[2]) for r in records)
    # every crossing has exactly one endpoint on each of its two sets, so the
    # instance index s identifies the slot; endpoint vertices come from the
    # canonical path so the layout is a function of the crossing multiset only
    endpoint_slots: dict = {i: [] for i in range(len(sets))}
    for s, (pair, canon) in enumerate(instances):
        a, b = path_endpoints(graph, canon)
        if oriented:
            frm, to = pair
        else:
            frm, to = next((f, t) for f, t in (pair, pair[::-1])
                           if a in sets[f] and b in sets[t])
        endpoint_slots[frm].append((a, s))
        endpoint_slots[to].append((b, s))
    endpoint_slots = {i: tuple(sorted(v, key=lambda t: t[1]))
                      for i, v in endpoint_slots.items()}
    slot_index = {i: {s: k for k, (_, s) in enumerate(endpoint_slots[i])}
                  for i in endpoint_slots}
    sides: dict = {i: [] for i in range(len(sets))}
    for (key, occ, i_from), (run, j_to, to) in arc_links.items():
        a = slot_index[to][slot_by_tag[(key, occ, i_from)]]   # arrival slot
        b = slot_index[to][slot_by_tag[(key, occ, j_to)]]     # departure slot
        arc = run if oriented else (min(run, inv.reverse_path(run)) if run else ())
        sides[to].append(((a, b) if oriented else (min(a, b), max(a, b)), arc))
    sides = {i: tuple(sorted(v)) for i, v in sides.items()}
    return CrossingSet("oriented" if oriented else "unoriented",
                       sets, crossings, instances, endpoint_slots, sides)


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
    ug = catalog.unoriented_graph
    inv = ug.involution
    removed = tuple(sorted(tuple(k) for k in removed_classes))
    removed_set = set(removed)

    # jump instances per removed class, in deterministic order
    instances = []   # (class_key, loop_key, occ, position)
    arcs_after = {}  # instance label -> (bridge edges, next instance label)
    for key, occ in _iter_multiset(counts):
        pos = [i for i, eid in enumerate(key) if ug.edge_class(eid) in removed_set]
        if not pos:
            continue
        for k, p in enumerate(pos):
            q = pos[(k + 1) % len(pos)]
            if q > p:
                bridge = key[p + 1:q]
            else:
                bridge = key[p + 1:] + key[:q]
            instances.append((ug.edge_class(key[p]), key, occ, p))
            arcs_after[(key, occ, p)] = (tuple(bridge), (key, occ, q))
    instances.sort()
    jump_counts = Counter(r[0] for r in instances)
    Z: list[int] = []
    entry_slot, exit_slot = {}, {}
    self_pairs = []
    for i, (ckey, key, occ, p) in enumerate(instances):
        e = graph.edge_by_id[key[p]]
        cmin, cmax = ug.class_endpoints(ckey)
        Z.extend([cmin, cmax])
        if cmin == cmax:
            entry_slot[(key, occ, p)] = 2 * i
            exit_slot[(key, occ, p)] = 2 * i + 1
            self_pairs.append((2 * i, 2 * i + 1))
        else:
            entry_slot[(key, occ, p)] = 2 * i if e.tail == cmin else 2 * i + 1
            exit_slot[(key, occ, p)] = 2 * i if e.head == cmin else 2 * i + 1
    hookup = _unoriented_hookup(
        [(r[1:], *arcs_after[r[1:]]) for r in instances], exit_slot,
        entry_slot, inv)
    return EdgeJumpRecord(removed, tuple(jump_counts.get(c, 0) for c in removed),
                          tuple(Z), hookup, tuple(self_pairs))


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
    arcs = _cyclic_arcs(key, loop_vertices(graph, key), marked) or ()
    if involution is None:
        return [edges for _, edges in arcs]
    return [min(edges, involution.reverse_path(edges)) for _, edges in arcs]


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
