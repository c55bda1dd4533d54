"""Wilson's algorithm: uniform spanning trees by loop-erased random walk.

Walks run on a g-regular graph and are absorbed at a root vertex (or at the
current partial tree).  Every cycle erased along the way is recorded with its
edges; over a full run the multiset of erased cycles, viewed as unrooted
oriented loop classes on the non-root vertices, has the law of the unit
intensity oriented loop soup there.  The soup side of that correspondence is
cycle popping: a soup resolved into the simple cycles the walk would erase.
The trees are uniform over the `spanning_tree_count` trees.

Both sides pop the cycles of per-vertex stacks of exits (Wilson 1996;
Propp-Wilson 1998), and by the cycle-popping lemma the popped cycles and the
final tree depend on the stacks alone, not on the order of popping.  So one
kernel, `_lockstep`, pops every cycle of a block of up to BLOCK runs or soups
per round: i.i.d. uniform exits for walks (`wilson_blocks`), interleaved
departure lists for soups (`popped_blocks`).  Runs are keyed exactly by
integer rows, and each distinct cycle is mapped to its necklace key once
per iterator, across blocks; `verify.verify_wilson` maps each distinct tree
and multiset to its report key once per check.
`wilson_ust` and `pop_cycles` are the one-run cases.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

import numpy as np

from .graph import GraphError, OrientedMultigraph, bareiss
from .loops import necklace
from .soups import ROW_CHUNK, SoupError

BLOCK = 4096        # runs, or soups, popped in lockstep at a time


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


def _edge_arrays(edges):
    """The ids, heads and tails of `edges`, by position."""
    return np.array([(e.id, e.head, e.tail) for e in edges],
                    dtype=np.intp).reshape(-1, 3).T


def _lockstep(heads, top, advance):
    """Pop the cycles of the stack tops of a block of runs, in lockstep.

    top[r, v] is the edge position of the top of run r's stack at vertex v,
    or -1 for none (the root, an empty stack); heads[p] is the head of edge
    position p.  Each round the m runs left are laid out flat, run r's
    vertex v the cell r*n + v, and the tops form a functional graph f on
    the cells and one shared sink m*n, where a cell with no top goes.  With
    2^k >= n, f^(2^k) maps every cell onto a cycle, so the cycles' cells are
    its image, and the least of f^0(c), ..., f^(2^k - 1)(c), its lead,
    labels c's cycle.  Every cycle's tops are popped at once, in cell order,
    advance(runs, vertices) giving the new tops, and a run that owns no
    cycle cell is done.  `top` must be C-contiguous: its tops are written
    through `top.ravel()`.

    Returns the final tops by run (each run's tree), and the popped cycles:
    their runs, and rows of edge position + 1 at their vertices, 0
    elsewhere, which code the cycles exactly, in the order of their leads.
    """
    size, n = top.shape
    heads = np.append(heads, size * n)      # no top (-1): past every cell
    final = np.empty_like(top)
    runs = np.arange(size)
    cycles = []
    while len(runs):
        sink = len(runs) * n
        f = heads[top] + np.arange(0, sink, n)[:, None]
        f = np.append(np.minimum(f, sink, out=f), sink)
        low = np.arange(sink + 1)
        for _ in range((n - 1).bit_length()):
            low = np.minimum(low, low[f])
            f = f[f]
        on = np.zeros(sink + 1, dtype=bool)
        on[f] = True
        cells = np.flatnonzero(on[:sink])   # row-major: by run, then vertex
        r, v = np.divmod(cells, n)
        owns = np.zeros(len(runs), dtype=bool)
        owns[r] = True
        final[runs[~owns]] = top[~owns]
        lead = low[cells]
        leads = cells[lead == cells]
        rows = np.zeros((len(leads), n), dtype=top.dtype)
        flat = top.ravel()
        rows[np.searchsorted(leads, lead), v] = flat[cells] + 1
        cycles.append((runs[leads // n], rows))
        flat[cells] = advance(runs[r], v)
        top, runs = top[owns], runs[owns]
    return final, *map(np.concatenate, zip(*cycles))


def _distinct_rows(table):
    """(the distinct rows of an integer table with entries >= -1, in order;
    each row's index among them), exactly: the rows are folded into int64
    by mixed-radix digits, re-ranked before a column could overflow it."""
    code = np.zeros(len(table), dtype=np.int64)
    bound = 1                               # code < bound
    for col in table.T:
        base = int(col.max(initial=-1)) + 2
        if bound * base >= 2 ** 62:
            distinct, code = np.unique(code, return_inverse=True)
            bound = len(distinct)
        code = code * base + (col + 1)
        bound *= base
    _, first, of = np.unique(code, return_index=True, return_inverse=True)
    return table[first], of


def _multisets(owner, items, size: int):
    """The multisets of nonnegative ints `items` held by `size` owners:
    (the distinct multisets as ascending tuples, each owner's index among
    them), keyed by the rows of sorted items, padded with -1."""
    order = np.argsort(owner * (int(items.max(initial=0)) + 1) + items)
    owner, items = owner[order], items[order]
    held = np.bincount(owner, minlength=size)
    table = np.full((size, held.max(initial=0)), -1)
    table[owner, np.arange(len(owner)) - np.repeat(np.cumsum(held) - held,
                                                   held)] = items
    distinct, of = _distinct_rows(table)
    return [tuple(x for x in row if x >= 0) for row in distinct.tolist()], of


def _popped(cyc_runs, cyc_rows, size: int, ids, heads, necklaces: dict):
    """The popped cycles of `_lockstep` as each run's multiset of necklace
    keys: (the distinct multisets as tuples of keys, each run's index among
    them).  `necklaces` memoizes the key of each cycle code."""
    codes, code_of = _distinct_rows(cyc_rows)
    codes = list(map(tuple, codes.tolist()))
    ids, heads = ids.tolist(), heads.tolist()
    for code in codes:
        if code not in necklaces:
            p = first = next(p for p in code if p) - 1
            cycle = []
            while not cycle or p != first:
                cycle.append(ids[p])
                p = code[heads[p]] - 1
            necklaces[code] = necklace(cycle)[0]
    keys = [necklaces[code] for code in codes]
    multisets, of = _multisets(cyc_runs, code_of, size)
    return [tuple([keys[c] for c in m]) for m in multisets], of


def wilson_blocks(graph: OrientedMultigraph, root: int, runs: int, rng):
    """Iterator over `runs` runs of Wilson's algorithm rooted at `root`, a
    block of at most BLOCK runs at a time, popped by `_lockstep` from stacks
    of i.i.d. uniform exits: one `rng.integers` call per round draws the new
    tops.  The graph is checked once.

    Per block it yields (trees, tree_of, erased, erased_of): the distinct
    trees, each the tuple of the edge ids the vertices exit through, indexed
    by vertex (None at the root); the distinct multisets of erased cycles,
    each a tuple of necklace keys; and each run's index into both.
    """
    g = graph.require_regular()
    check_root(graph, root)
    ids, heads, _ = _edge_arrays(graph.edges)
    out = np.searchsorted(ids, [[e.id for e in graph.out_edges[v]]
                                for v in graph.vertices])
    walkers = np.array([v for v in graph.vertices if v != root], dtype=np.intp)
    necklaces: dict = {}
    for start in range(0, runs, BLOCK):
        size = min(BLOCK, runs - start)
        top = np.full((size, graph.n_vertices), -1)
        top[:, walkers] = out[walkers, rng.integers(g, size=(size, len(walkers)))]
        final, cyc_runs, cyc_rows = _lockstep(
            heads, top, lambda r, v: out[v, rng.integers(g, size=len(v))])
        trees, tree_of = _distinct_rows(final)
        yield ([tuple([None if p < 0 else int(ids[p]) for p in t])
                for t in trees.tolist()], tree_of,
               *_popped(cyc_runs, cyc_rows, size, ids, heads, necklaces))


def _soup_stacks(keys, lens, tails, n: int, counts, idx, rng):
    """The arrow stacks of the soups (counts, idx) on n vertices, as
    (at, nxt, edge): soup s's stack at v runs from edge[at[s, v]] on through
    nxt to the -1 at edge[-1], top first, in edge positions; class c's edge
    positions are keys[c, :lens[c]].  One `rng.integers` call
    roots every loop occurrence at a uniform step, and one `rng.permutation`
    call draws the keys that interleave the departure lists at each vertex
    uniformly: each list takes its keys in ascending order along its steps.
    """
    n_occ = lens[idx]
    rot = rng.integers(n_occ)
    step_occ = np.repeat(np.arange(len(idx)), n_occ)
    step = np.arange(len(step_occ)) - np.repeat(np.cumsum(n_occ) - n_occ, n_occ)
    e = keys[idx[step_occ], (rot[step_occ] + step) % n_occ[step_occ]]
    group = np.repeat(np.arange(len(counts)), counts)[step_occ] * n + tails[e]
    order = np.argsort(group, kind="stable")    # by (soup, vertex, loop, step)
    group, occ = group[order], step_occ[order]
    T = len(order)
    new = np.diff(group, prepend=-1) != 0                   # a stack starts
    spread = np.cumsum(new | (np.diff(occ, prepend=-1) != 0)) * T   # a list
    key = np.sort(spread + rng.permutation(T)) - spread
    order = order[np.argsort(group * T + key)]
    at = np.full(len(counts) * n, T)
    at[group[new]] = np.flatnonzero(new)
    nxt = np.arange(1, T + 1)
    nxt[np.flatnonzero(new)[1:] - 1] = T
    nxt[-1:] = T
    return at.reshape(-1, n), nxt, np.append(e[order], -1)


def popped_blocks(catalog, chunks, rng):
    """Iterator over the soups of `chunks` (`soups.soup_chunks` arrays of the
    oriented `catalog`) popped into the cycles Wilson's algorithm erases, a
    block of at most BLOCK soups at a time: `_soup_stacks`, `_lockstep`.

    Per block it yields (counts, idx, popped, popped_of): the block's soup
    arrays, the distinct multisets of popped cycles (tuples of necklace
    keys) and each soup's index among them.  Popping cannot stall: the
    arrows left balance in- and out-degrees at every vertex.
    """
    graph = catalog.domain.graph
    ids, heads, tails = _edge_arrays(graph.edges)
    lens = np.array([c.n for c in catalog.classes], dtype=np.intp)
    keys = np.zeros((len(lens), lens.max(initial=0)), dtype=np.intp)
    keys[np.arange(keys.shape[1]) < lens[:, None]] = np.searchsorted(
        ids, [e for c in catalog.classes for e in c.key])
    necklaces: dict = {}
    chunks = iter(chunks)
    for block in iter(lambda: list(islice(chunks, max(1, BLOCK // ROW_CHUNK))),
                      []):
        counts = np.concatenate([c for c, _ in block])
        idx = np.concatenate([i for _, i in block])
        at, nxt, edge = _soup_stacks(keys, lens, tails, graph.n_vertices,
                                     counts, idx, rng)

        def pop(r, v):
            at[r, v] = nxt[at[r, v]]
            return edge[at[r, v]]

        final, cyc_runs, cyc_rows = _lockstep(heads, edge[at], pop)
        if (final >= 0).any():
            raise WilsonError("stack popping stalled on unbalanced arrows")
        yield (counts, idx, *_popped(cyc_runs, cyc_rows, len(counts), ids,
                                     heads, necklaces))


def wilson_ust(graph: OrientedMultigraph, root: int, rng):
    """One run of Wilson's algorithm rooted at `root`: the one-run case of
    `wilson_blocks`.

    Returns (tree, erased): tree maps each non-root vertex, in order, to the
    edge id it exits through; erased counts the necklace keys erased.
    """
    (trees, _, erased, _), = wilson_blocks(graph, root, 1, rng)
    return ({v: e for v, e in enumerate(trees[0]) if e is not None},
            Counter(erased[0]))


def pop_cycles(catalog, counts: dict, rng) -> Counter:
    """Resolve one soup of the oriented `catalog`, {class key: count}, into
    the simple cycles Wilson's algorithm erases, as a Counter of their
    necklace keys: the one-soup case of `popped_blocks`.  A catalog that is
    not oriented raises SoupError before anything is drawn."""
    if catalog.mode != "oriented":
        raise SoupError("catalog is not oriented")
    index = {c.key: i for i, c in enumerate(catalog.classes)}
    idx = np.array([index[k] for k, c in sorted(counts.items())
                    for _ in range(c)], dtype=np.intp)
    (_, _, popped, _), = popped_blocks(catalog, [(np.array([len(idx)]), idx)],
                                       rng)
    return Counter(popped[0])
