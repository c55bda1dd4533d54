"""Wilson's algorithm: uniform spanning trees by loop-erased random walk.

Walks run on a g-regular graph and are absorbed at a root vertex (or at the
current partial tree).  Every cycle erased along the way is recorded with its
edges; over a full run the multiset of erased cycles, viewed as unrooted
oriented loop classes on the non-root vertices, has the law of the unit
intensity oriented loop soup there.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .graph import GraphError, OrientedMultigraph
from .loops import minimal_rotation


class WilsonError(GraphError):
    pass


def _check_reachable(graph: OrientedMultigraph, root: int) -> None:
    # reverse reachability from the root
    radj: dict[int, set] = {v: set() for v in graph.vertices}
    for e in graph.edges:
        radj[e.head].add(e.tail)
    seen = {root}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for w in radj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if seen != set(graph.vertices):
        raise WilsonError("graph is disconnected from the root")


class _EdgeDice:
    """Pre-drawn uniform edge choices per vertex, refilled in blocks."""

    def __init__(self, graph: OrientedMultigraph, rng, block: int = 65536):
        self.rng = rng
        self.block = block
        self.choices = {v: graph.out_edges[v] for v in graph.vertices}
        self.buf: dict[int, np.ndarray] = {}
        self.pos: dict[int, int] = {}

    def step(self, v: int):
        buf = self.buf.get(v)
        pos = self.pos.get(v, 0)
        if buf is None or pos >= len(buf):
            self.buf[v] = buf = self.rng.integers(0, len(self.choices[v]),
                                                  size=self.block)
            self.pos[v] = pos = 0
        self.pos[v] = pos + 1
        return self.choices[v][buf[pos]]


def wilson_ust(graph: OrientedMultigraph, root: int, rng,
               dice: "_EdgeDice | None" = None):
    """One run of Wilson's algorithm rooted at `root`.

    Returns (tree, erased) where tree maps each non-root vertex to the edge
    id it exits through, and erased is a Counter of canonical oriented loop
    keys of all cycles erased during the run.
    """
    graph.require_regular()
    _check_reachable(graph, root)
    dice = dice or _EdgeDice(graph, rng)
    in_tree = {root}
    tree: dict[int, int] = {}
    erased: Counter = Counter()
    for start in graph.vertices:
        if start in in_tree:
            continue
        path_v = [start]
        path_e: list[int] = []
        index = {start: 0}
        v = start
        while v not in in_tree:
            e = dice.step(v)
            w = e.head
            if w in index:
                # erase the cycle from w's first occurrence to here
                i = index[w]
                cyc = tuple(path_e[i:]) + (e.id,)
                seq = minimal_rotation(cyc)
                erased[seq] += 1
                for drop in path_v[i + 1:]:
                    del index[drop]
                del path_v[i + 1:]
                del path_e[i:]
                v = w
            else:
                path_e.append(e.id)
                path_v.append(w)
                index[w] = len(path_v) - 1
                v = w
        for u, e in zip(path_v[:-1], path_e):
            tree[u] = e
        in_tree.update(path_v)
    return tree, erased


def pop_cycles(soup, rng) -> Counter:
    """Resolve a soup sample into the simple cycles Wilson's algorithm erases.

    Wilson's walk path is self-avoiding, so every erased cycle is simple; a
    soup loop that winds or self-crosses never appears verbatim.  The exact
    correspondence runs through the arrow-stack picture: write every loop
    occurrence (uniformly re-rooted) as per-vertex departure lists, interleave
    the lists at each vertex uniformly at random into stacks, and repeatedly
    pop the cycles formed by the stack tops.  The popped multiset has the law
    of the erased-cycle multiset of a Wilson run at unit intensity.

    Popping cannot stall: the remaining arrows always balance in- and
    out-degrees at every vertex, so the top arrows of the nonempty stacks
    contain a cycle until everything is consumed.
    """
    from collections import deque

    graph = soup.catalog.domain.graph
    from .loops import loop_vertices
    queues: dict[int, list] = {}
    for key, cnt in sorted(soup.counts.items()):
        verts = loop_vertices(graph, key)
        n = len(key)
        for _ in range(cnt):
            r = int(rng.integers(n))
            seq = key[r:] + key[:r]
            vs = verts[r:] + verts[:r]
            dep: dict[int, list] = {}
            for eid, v in zip(seq, vs):
                dep.setdefault(v, []).append(eid)
            for v, lst in dep.items():
                queues.setdefault(v, []).append(lst)
    stacks: dict[int, deque] = {}
    for v, qs in queues.items():
        slots = []
        for i, lst in enumerate(qs):
            slots += [i] * len(lst)
        rng.shuffle(slots)
        its = [iter(lst) for lst in qs]
        stacks[v] = deque(next(its[i]) for i in slots)
    popped: Counter = Counter()
    tops = {v: s[0] for v, s in stacks.items() if s}
    while tops:
        v = next(iter(tops))
        seen = set()
        while v in tops and v not in seen:
            seen.add(v)
            v = graph.edge_by_id[tops[v]].head
        if v not in tops:
            raise WilsonError("stack popping stalled on unbalanced arrows")
        cyc = []
        w = v
        while True:
            e = tops[w]
            cyc.append(e)
            w = graph.edge_by_id[e].head
            if w == v:
                break
        for eid in cyc:
            x = graph.edge_by_id[eid].tail
            stacks[x].popleft()
            if stacks[x]:
                tops[x] = stacks[x][0]
            else:
                del tops[x]
        popped[minimal_rotation(tuple(cyc))] += 1
    return popped
