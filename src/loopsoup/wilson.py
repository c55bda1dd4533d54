"""Wilson's algorithm: uniform spanning trees by loop-erased random walk.

Walks run on a g-regular graph and are absorbed at a root vertex (or at the
current partial tree).  Every cycle erased along the way is recorded with its
edges; over a full run the multiset of erased cycles, viewed as unrooted
oriented loop classes on the non-root vertices, has the law of the unit
intensity oriented loop soup there.

The walk reads a table (`_EdgeDice`) built once per (graph, root), which
checks the graph when it is built, so a job of many runs checks it once.
"""

from __future__ import annotations

from collections import Counter

from .graph import GraphError, OrientedMultigraph
from .loops import necklace


class WilsonError(GraphError):
    pass


def check_root(graph: OrientedMultigraph, root: int,
               domain_vertices=None) -> None:
    """Refuse a root that is not a vertex or that some vertex cannot reach.

    With `domain_vertices`, also refuse a domain other than every vertex but
    the root: the erased cycles live there, so the soup must live there too.
    """
    if root not in graph.vertices:
        raise WilsonError(f"root {root} is not a vertex of the graph")
    if (domain_vertices is not None
            and set(domain_vertices) != set(graph.vertices) - {root}):
        raise WilsonError(f"the domain must be every vertex but the root {root}")
    radj: dict[int, set] = {v: set() for v in graph.vertices}
    for e in graph.edges:
        radj[e.head].add(e.tail)
    seen, frontier = {root}, [root]
    while frontier:
        for w in radj[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    if seen != set(graph.vertices):
        raise WilsonError("graph is disconnected from the root")


class _EdgeDice:
    """The walk table of one (graph, root), checked once when built.

    It holds the (head, edge id) of the out-edges by vertex, and per vertex a
    buffer of uniform choices among them with its read position, drawn from
    `rng` in blocks in the order the walk first needs them.  `rotations`
    memoizes the keys of erased cycles."""

    def __init__(self, graph: OrientedMultigraph, root: int, rng,
                 block: int = 65536):
        self.g = graph.require_regular()
        check_root(graph, root)
        self.graph, self.root, self.rng, self.block = graph, root, rng, block
        self.out = [[(e.head, e.id) for e in graph.out_edges[v]]
                    for v in graph.vertices]
        self.buf: list[list[int]] = [[] for _ in graph.vertices]
        self.pos = [0] * len(graph.vertices)
        self.rotations: dict[tuple, tuple] = {}

    def refill(self, v: int) -> list[int]:
        self.buf[v] = buf = self.rng.integers(0, self.g, size=self.block).tolist()
        return buf


def wilson_ust(graph: OrientedMultigraph, root: int, rng,
               dice: "_EdgeDice | None" = None):
    """One run of Wilson's algorithm rooted at `root`.

    Returns (tree, erased) where tree maps each non-root vertex to the edge
    id it exits through, and erased is a Counter of canonical oriented loop
    keys of all cycles erased during the run.  The walk draws from `dice`,
    the table of (graph, root), whose checks ran once when it was built;
    without one, a table drawing from `rng` is built for this run.
    """
    if dice is None:
        dice = _EdgeDice(graph, root, rng)
    elif dice.graph is not graph or dice.root != root:
        raise WilsonError("the walk table belongs to another graph or root")
    out, buf, pos, rotations = dice.out, dice.buf, dice.pos, dice.rotations
    # -2: in the tree, -1: off the path, i >= 0: position i on the path
    state = [-1] * len(out)
    state[root] = -2
    tree: dict[int, int] = {}
    erased: Counter = Counter()
    for start in graph.vertices:
        if state[start] == -2:
            continue
        path_v = [start]
        path_e: list[int] = []
        state[start] = 0
        v = start
        while True:
            b, p = buf[v], pos[v]
            if p == len(b):
                b, p = dice.refill(v), 0
            pos[v] = p + 1
            w, e = out[v][b[p]]
            i = state[w]
            if i >= 0:
                # erase the cycle from w's position to here
                cyc = tuple(path_e[i:]) + (e,)
                seq = rotations.get(cyc) or rotations.setdefault(
                    cyc, necklace(cyc)[0])
                erased[seq] += 1
                for drop in path_v[i + 1:]:
                    state[drop] = -1
                del path_v[i + 1:]
                del path_e[i:]
            else:
                path_e.append(e)
                if i == -2:
                    break
                state[w] = len(path_v)
                path_v.append(w)
            v = w
        for u, e in zip(path_v, path_e):
            tree[u] = e
            state[u] = -2
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

    An empty soup pops nothing and draws nothing.  Each class's departure
    lists come from the catalog, which builds them once.
    """
    popped: Counter = Counter()
    if not soup.counts:
        return popped
    queues: dict[int, list] = {}
    for key, cnt in sorted(soup.counts.items()):
        deps = soup.catalog.departures(key)
        for _ in range(cnt):
            for v, lst in deps[int(rng.integers(len(key)))]:
                queues.setdefault(v, []).append(lst)
    stacks: dict[int, list] = {}
    for v, qs in queues.items():
        slots = []
        for i, lst in enumerate(qs):
            slots += [i] * len(lst)
        rng.shuffle(slots)
        its = [iter(lst) for lst in qs]
        stacks[v] = [next(its[i]) for i in slots][::-1]    # top is last
    tops = {v: s[-1] for v, s in stacks.items()}
    while tops:
        v = next(iter(tops))
        seen = set()
        while v in tops and v not in seen:
            seen.add(v)
            v = tops[v][1]
        if v not in tops:
            raise WilsonError("stack popping stalled on unbalanced arrows")
        cyc = []
        w = v
        while True:
            e, head = tops[w]
            cyc.append(e)
            stack = stacks[w]
            stack.pop()
            if stack:
                tops[w] = stack[-1]
            else:
                del tops[w]
            if head == v:
                break
            w = head
        popped[necklace(cyc)[0]] += 1
    return popped
