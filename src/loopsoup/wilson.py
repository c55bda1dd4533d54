"""Wilson's algorithm: uniform spanning trees by loop-erased random walk.

Walks run on a g-regular graph and are absorbed at a root vertex (or at the
current partial tree).  Every cycle erased along the way is recorded with its
edges; over a full run the multiset of erased cycles, viewed as unrooted
oriented loop classes on the non-root vertices, has the law of the unit
intensity oriented loop soup there.  The soup side of that correspondence is
cycle popping (`_StackPops`): a soup resolved into the simple cycles the walk
would erase.  The trees are uniform over the `spanning_tree_count` trees.

The walk reads a table (`_EdgeDice`) built once per (graph, root), which
checks the graph when it is built, and `wilson_runs` walks any number of runs
on it in one pass; `wilson_ust` is its one-run case.  A job of many runs
checks the graph once and builds no per-run dict or Counter.  Popping is one
object per (catalog, stream) likewise, and `pop_cycles` is its one-soup case.
A job passes the walk's necklace memo to its popping, so that both sides key
each cycle once.
"""

from __future__ import annotations

from collections import Counter

from .graph import GraphError, OrientedMultigraph, bareiss
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


def spanning_tree_count(graph: OrientedMultigraph, root: int) -> int:
    """The number of spanning trees oriented towards `root`.

    By the directed matrix-tree theorem it is det(g I - A_D) = g^|D|
    det(I - P_D), where A_D counts the edges between the vertices D other
    than the root (a self-edge counts in g and in A_D, so it cancels).  The
    determinant is `graph.bareiss`'s, in exact integers; it is 0 when some
    vertex cannot reach the root.
    """
    g = graph.require_regular()
    verts = [v for v in graph.vertices if v != root]
    index = {v: i for i, v in enumerate(verts)}
    M = [[g * (i == j) for j in range(len(verts))] for i in range(len(verts))]
    for e in graph.edges:
        if e.tail != root and e.head != root:
            M[index[e.tail]][index[e.head]] -= 1
    return bareiss(M)[0]


class _EdgeDice:
    """The walk table of one (graph, root), checked once when built.

    It holds the (head, edge id) of the out-edges by vertex, and per vertex a
    buffer of uniform choices among them with its read position, drawn from
    `rng` in blocks in the order the walk first needs them.  `rotations`
    memoizes the necklace keys of erased cycles, and of popped ones when a
    job shares it with its popping."""

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


def wilson_runs(dice: _EdgeDice, runs: int) -> tuple[dict, dict]:
    """`runs` runs of Wilson's algorithm on the walk table `dice`, in one pass.

    Returns (trees, erased), run counts by key.  A tree keys as the tuple of
    the edge ids each vertex exits through, indexed by vertex (None at the
    root).  A run's erased cycles key as the tuple of their necklace keys in
    erasure order, so a run that erases no cycle or one keys as () or
    (key,) with no dict, Counter or sort.
    """
    out, buf, pos, rotations = dice.out, dice.buf, dice.pos, dice.rotations
    root = dice.root
    starts = [v for v in dice.graph.vertices if v != root]
    # -2: in the tree, -1: off the path, i >= 0: position i on the path
    fresh = [-1] * len(out)
    fresh[root] = -2
    exits = [None] * len(out)       # every run sets every non-root entry
    trees: dict[tuple, int] = {}
    erased: dict[tuple, int] = {}
    for _ in range(runs):
        state = fresh.copy()
        cycles: tuple = ()
        for start in starts:
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
                    cycles += (rotations.get(cyc) or rotations.setdefault(
                        cyc, necklace(cyc)[0]),)
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
                exits[u] = e
                state[u] = -2
        key = tuple(exits)
        trees[key] = trees.get(key, 0) + 1
        erased[cycles] = erased.get(cycles, 0) + 1
    return trees, erased


def wilson_ust(graph: OrientedMultigraph, root: int, rng,
               dice: "_EdgeDice | None" = None):
    """One run of Wilson's algorithm rooted at `root`: the one-run case of
    `wilson_runs`.

    Returns (tree, erased) where tree maps each non-root vertex to the edge
    id it exits through, in the order the walk joined them to the tree, and
    erased is a Counter of canonical oriented loop keys of all cycles erased
    during the run.  The walk draws from `dice`, the table of (graph, root),
    whose checks ran once when it was built; without one, a table drawing
    from `rng` is built for this run.
    """
    if dice is None:
        dice = _EdgeDice(graph, root, rng)
    elif dice.graph is not graph or dice.root != root:
        raise WilsonError("the walk table belongs to another graph or root")
    (exits,), (cycles,) = wilson_runs(dice, 1)
    tree: dict[int, int] = {}
    for start in graph.vertices:
        # each start's loop-erased path joined the tree in path order
        u = start
        while u != root and u not in tree:
            tree[u] = exits[u]
            u = graph.edge_by_id[exits[u]].head
    return tree, Counter(cycles)


class _StackPops:
    """Cycle popping of the soups of one catalog, drawing from `rng`.

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

    An empty soup pops nothing and draws nothing.  A lone loop puts one
    departure list on each vertex, so its shuffles are drawn but reorder
    nothing, and its popped cycles are cached by (class key, rotation):
    at most one entry per step of each class.  `necklaces` memoizes the
    keys of popped cycles; pass the walk's `rotations` to share it.  Each
    class's departure lists come from the catalog, which builds them once.
    """

    def __init__(self, catalog, rng, necklaces: dict | None = None):
        self.catalog, self.rng = catalog, rng
        self.necklaces = {} if necklaces is None else necklaces
        self.lone: dict[tuple, tuple] = {}

    def __call__(self, counts: dict) -> tuple:
        """The necklace keys of the cycles popped from the soup `counts`,
        in popping order."""
        if not counts:
            return ()
        rng = self.rng
        if len(counts) == 1:
            (key, cnt), = counts.items()
            if cnt == 1:
                r = int(rng.integers(len(key)))
                hit = self.lone.get((key, r))
                if hit is None:
                    deps = self.catalog.departures(key)[r]
                    hit = self.lone[key, r] = (
                        [len(lst) for _, lst in deps if len(lst) > 1],
                        self._pop({v: lst[::-1] for v, lst in deps}))
                # numpy's shuffle of k slots draws k - 1 intervals, none for k = 1
                for k in hit[0]:
                    rng.shuffle([0] * k)
                return hit[1]
        queues: dict[int, list] = {}
        departures = self.catalog.departures
        for key, cnt in sorted(counts.items()):
            deps = departures(key)
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
        return self._pop(stacks)

    def _pop(self, stacks: dict) -> tuple:
        """Pop the cycles of the stack tops until the stacks (lists of
        (edge id, head), top last) are empty."""
        necklaces = self.necklaces
        popped = []
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
            cyc = tuple(cyc)
            popped.append(necklaces.get(cyc)
                          or necklaces.setdefault(cyc, necklace(cyc)[0]))
        return tuple(popped)


def pop_cycles(soup, rng) -> Counter:
    """Resolve a soup sample into the simple cycles Wilson's algorithm
    erases, as a Counter of their necklace keys: the one-soup case of
    `_StackPops`."""
    return Counter(_StackPops(soup.catalog, rng)(soup.counts))
