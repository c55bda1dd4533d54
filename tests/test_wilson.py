"""Wilson's walk and cycle popping in lockstep, against per-step references
and exact laws.

The references below are the straightforward forms of the two samplers: a
walk that reads one exit per step from per-vertex stacks and erases each
loop as it closes, and arrow stacks kept as deques, popped one cycle at a
time.  By the cycle-popping lemma both pop, from the same stacks, the cycles
and the tree that `wilson._lockstep` pops in lockstep.  So the tests record
the stacks the kernel pops (`_recorded`) and feed them to the references.
The stacks' own law is tested apart: the walk's erased cycles and trees
against exact laws, and a soup's rotations and interleavings against the
enumerated uniform law.  `verify_wilson` must report what the blocks of
runs and soups give run by run.
"""

import hashlib
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, UnorientedGraph, build_graph, complete_graph,
                      cycle_graph, enumerate_loops, pair_reversals, pop_cycles,
                      regularize_degree, sample_oriented_soup, verify_wilson,
                      wilson_ust)
from loopsoup import stats, verify, wilson
from loopsoup.loops import loop_vertices, necklace
from loopsoup.rng import stream
from loopsoup.soups import SoupError, _chunk_rows, soup_chunks
from loopsoup.wilson import (BLOCK, WilsonError, _distinct_rows, check_root,
                             popped_blocks, spanning_tree_count, wilson_blocks)


@contextmanager
def _recorded():
    """Within it, `wilson._lockstep` records the stacks it pops: a list per
    block, holding per run a list of stacks by vertex, each the tops it held
    in order, as edge positions (`_ids` makes them edge ids)."""
    blocks = []
    lockstep = wilson._lockstep

    def spy(heads, top, advance):
        stacks = [[[p] if p >= 0 else [] for p in row] for row in top.tolist()]
        blocks.append(stacks)

        def popped(runs, verts):
            new = advance(runs, verts)
            for r, v, p in zip(runs.tolist(), verts.tolist(), new.tolist()):
                if p >= 0:
                    stacks[r][v].append(p)
            return new
        return lockstep(heads, top, popped)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wilson, "_lockstep", spy)
        yield blocks


def _ids(graph, stacks):
    """Recorded stacks by vertex, edge positions made edge ids."""
    return {v: [graph.edges[p].id for p in s] for v, s in enumerate(stacks)}


class _StackDice:
    """A walk's exits read one per step off fixed stacks of edge ids."""

    def __init__(self, graph, stacks):
        self.graph = graph
        self.stacks = {v: deque(s) for v, s in stacks.items()}

    def step(self, v):
        return self.graph.edge_by_id[self.stacks[v].popleft()]


def _ref_wilson_ust(graph, root, dice):
    in_tree = {root}
    tree = {}
    erased = Counter()
    for start in graph.vertices:
        if start in in_tree:
            continue
        path_v = [start]
        path_e = []
        index = {start: 0}
        v = start
        while v not in in_tree:
            e = dice.step(v)
            w = e.head
            if w in index:
                i = index[w]
                erased[necklace(tuple(path_e[i:]) + (e.id,))[0]] += 1
                for drop in path_v[i + 1:]:
                    del index[drop]
                del path_v[i + 1:]
                del path_e[i:]
            else:
                path_e.append(e.id)
                path_v.append(w)
                index[w] = len(path_v) - 1
            v = w
        for u, e in zip(path_v[:-1], path_e):
            tree[u] = e
        in_tree.update(path_v)
    return tree, erased


def _ref_pop(graph, stacks):
    """Pop the cycles of deque stacks of edge ids (top first) one at a time
    until they are empty; a Counter of their necklace keys."""
    stacks = {v: deque(s) for v, s in stacks.items()}
    popped = Counter()
    tops = {v: s[0] for v, s in stacks.items() if s}
    while tops:
        v = next(iter(tops))
        seen = set()
        while v in tops and v not in seen:
            seen.add(v)
            v = graph.edge_by_id[tops[v]].head
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
        popped[necklace(cyc)[0]] += 1
    return popped


@st.composite
def _rooted_graphs(draw):
    """A random g-regular multigraph on at most 5 vertices (up to 3 random
    out-edges per vertex, padded with self-edges) and a root every vertex
    reaches."""
    n = draw(st.integers(2, 5))
    edges = []
    for v in range(n):
        for head in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            edges.append((len(edges), v, head))
    graph = build_graph(n, edges)
    g = max(graph.out_degree.values()) + draw(st.integers(0, 1))
    assume(g > 0)
    graph = regularize_degree(graph, g)
    root = draw(st.integers(0, n - 1))
    try:
        check_root(graph, root)
    except WilsonError:
        assume(False)
    return graph, root


def _state(rng):
    """The generator's state, its arrays as lists so that states compare."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rooted_graphs(), st.integers(0, 2 ** 32 - 1))
def test_wilson_ust_matches_the_per_step_walk(graph_root, seed):
    """On the stacks the kernel pops, 20 runs in one block and then the
    one-run case, the per-step walk draws the same tree and erases the same
    cycles, and it reads every entry: the tree's exits last."""
    graph, root = graph_root
    with _recorded() as blocks:
        (trees, tree_of, erased, erased_of), = wilson_blocks(
            graph, root, 20, stream(seed, "w"))
        one = wilson_ust(graph, root, stream(seed, "one"))
    runs = [({v: e for v, e in enumerate(trees[t]) if e is not None},
             Counter(erased[m])) for t, m in zip(tree_of, erased_of)]
    assert len(blocks) == 2 and len(blocks[0]) == 20
    for (tree, cycles), stacks in zip(runs + [one], blocks[0] + blocks[1]):
        dice = _StackDice(graph, _ids(graph, stacks))
        assert (tree, cycles) == _ref_wilson_ust(graph, root, dice)
        assert not any(dice.stacks.values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_rooted_graphs(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1.0, 3.0]))
def test_pop_cycles_matches_the_deque_stacks(graph_root, seed, alpha):
    """On the stacks the kernel draws, which hold each soup's steps once
    each, the deque stacks pop the same cycles: 10 soups of the domain of
    every vertex but the root, up to length 6, in one block, then the
    one-soup case.  An empty soup pops nothing and draws nothing."""
    graph, root = graph_root
    domain = Domain(graph, [v for v in graph.vertices if v != root])
    cat = enumerate_loops(domain, 6)
    rng = stream(seed, "pop")
    soup = sample_oriented_soup(cat, alpha, stream(seed, "one"))
    with _recorded() as blocks:
        (counts, idx, popped, of), = popped_blocks(
            cat, soup_chunks(cat, "oriented", alpha, 10, rng), rng)
        one = pop_cycles(cat, soup, rng)
    rows = _chunk_rows(cat.classes, counts, idx) + [soup]
    got = [Counter(popped[m]) for m in of] + [one]
    assert len(blocks) == 2 and len(blocks[0]) == 10
    for row, cycles, stacks in zip(rows, got, blocks[0] + blocks[1]):
        stacks = _ids(graph, stacks)
        assert (sorted(e for s in stacks.values() for e in s)
                == sorted(e for key, c in row.items() for e in key * c))
        assert cycles == _ref_pop(graph, stacks)
    before = _state(rng)
    assert pop_cycles(cat, {}, rng) == Counter()
    assert _state(rng) == before


# sha256 of what `test_wilson_streams_are_pinned` reads off the blocks
PINNED_STREAMS = {
    "trees": "4e59184771127d63ab3386651c1054b1b4faef968ad903136ca6f43e87138e9a",
    "tree_of":
        "ecc096d6e6520340cc4372a378036cd77d38c636b0f72e986ce62a7d1d26d013",
    "erased":
        "6f1817e5631610ac45b06ee9e751ff23010137151d360ef6390947db91c5e6d5",
    "erased_of":
        "200f6481223b033c8a5ae4afedcd4430de1fa819433400e8bbb5d74eca64381f",
    "counts":
        "95f2441b46e9f559d6e5a2b9a7484edfe23d1f569c6aa9ea54297b86b377e1cf",
    "idx": "0a255ecaa5967eb645e949c9dc057042fccc3b17e716bea5dacff6016ebe70a5",
    "popped":
        "efbffb9bc4b4cf41dcc9a05c7d4bba54efa8c31caf1a627f6da25c84cf14b169",
    "popped_of":
        "139bcba2bf36f4359dafa5e92bfdadd05f8d861a89a217c1a30c00e7e571d913",
}


def test_wilson_streams_are_pinned():
    """Everything the blocks yield at fixed seeds hashes to fixed digests:
    BLOCK + 7 runs of the walk on complete:5 rooted at 0, and as many soups
    of its domain 1-4 up to length 6 popped, so each side crosses a block
    boundary, and rounds pop 3- and 4-cycles and disjoint 2-cycles at once.
    Arrays are hashed as (dtype, shape, entries), tuples as they are."""
    def plain(x):
        return (str(x.dtype), x.shape, x.tolist()) if isinstance(
            x, np.ndarray) else x

    graph = complete_graph(5)
    cat = enumerate_loops(Domain(graph, [1, 2, 3, 4]), 6)
    draws = {name: [] for name in PINNED_STREAMS}
    rng = stream(1, "pinned-wilson")
    for blocks, names in (
            (wilson_blocks(graph, 0, BLOCK + 7, stream(0, "pinned-wilson")),
             ("trees", "tree_of", "erased", "erased_of")),
            (popped_blocks(cat, soup_chunks(cat, "oriented", 1.0, BLOCK + 7,
                                            rng), rng),
             ("counts", "idx", "popped", "popped_of"))):
        for block in blocks:
            for name, x in zip(names, block):
                draws[name].append(plain(x))
    assert all(len(d) == 2 for d in draws.values())
    assert {name: hashlib.sha256(repr(d).encode()).hexdigest()
            for name, d in draws.items()} == PINNED_STREAMS


def test_pop_cycles_refuses_an_unoriented_catalog():
    """Wilson's cycles are oriented: a soup of unoriented classes is refused
    before anything is drawn, not popped as if its keys were oriented."""
    g = complete_graph(5)
    cat = enumerate_loops(Domain(g, [1, 2, 3]), 6,
                          unoriented=UnorientedGraph(g, pair_reversals(g)))
    ucat = cat.counterpart()
    key = next(c.key for c in ucat.classes if c.n == 3)
    rng = stream(0, "refuse")
    before = _state(rng)
    with pytest.raises(SoupError, match="not oriented"):
        pop_cycles(ucat, {key: 2}, rng)
    assert _state(rng) == before


@pytest.mark.parametrize("width, high", [(3, 4), (40, 10), (2, 2 ** 40)])
def test_distinct_rows_match_numpy_unique(width, high):
    """Rows keyed by folding them into one int64 are the rows np.unique
    finds, in the same order, including tables whose fold must be re-ranked
    on the way (11^40 and (2^40)^2 exceed 2^62)."""
    table = stream(width, "rows").integers(-1, high, size=(500, width))
    table[250:] = table[:250]
    distinct, of = _distinct_rows(table)
    expected, inverse = np.unique(table, axis=0, return_inverse=True)
    assert np.array_equal(distinct, expected)
    assert np.array_equal(of, inverse)


def test_verify_wilson_refuses_a_domain_other_than_every_other_vertex():
    """The erased cycles live on every vertex but the root, so a catalog on
    another domain cannot be compared with them."""
    graph = cycle_graph(4)
    for root, domain in ((0, [1, 2]), (2, [1, 2, 3])):
        cat = enumerate_loops(Domain(graph, domain), 6)
        with pytest.raises(WilsonError, match="every vertex but the root"):
            verify_wilson(cat, root, runs=10)


def test_verify_wilson_refuses_an_unoriented_catalog_before_walking(monkeypatch):
    """Wilson's cycles are compared with an oriented soup: an unoriented
    catalog is refused before a single walk is made."""
    def refuse(*args, **kwargs):
        raise AssertionError("walked before refusing the catalog")

    monkeypatch.setattr(wilson, "_lockstep", refuse)
    graph = cycle_graph(4)
    cat = enumerate_loops(Domain(graph, [1, 2, 3]), 6,
                          unoriented=UnorientedGraph(graph, pair_reversals(graph)))
    with pytest.raises(SoupError, match="not oriented"):
        verify_wilson(cat.counterpart(), 0, runs=20000)


def _ref_stack_law(graph, keys):
    """The exact law of the stacks of one soup holding the loops `keys`:
    each loop rooted at a uniform step, the steps it leaves each vertex by
    listed in order, and the lists at each vertex interleaved uniformly.
    As {stacks: probability}, the stacks a tuple by vertex of tuples of
    edge ids, top first."""
    law = defaultdict(Fraction)
    for roots in product(*(range(len(key)) for key in keys)):
        lists = {v: [] for v in graph.vertices}
        for key, r in zip(keys, roots):
            leaving = defaultdict(list)
            for e in key[r:] + key[:r]:
                leaving[graph.edge_by_id[e].tail].append(e)
            for v, lst in leaving.items():
                lists[v].append(lst)
        by_vertex = []
        for v in graph.vertices:
            labels = [i for i, lst in enumerate(lists[v]) for _ in lst]
            stacks = []
            for order in sorted(set(permutations(labels))):
                its = [iter(lst) for lst in lists[v]]
                stacks.append(tuple(next(its[i]) for i in order))
            by_vertex.append(stacks)
        weight = Fraction(1, np.prod([len(k) for k in keys]) *
                          np.prod([len(s) for s in by_vertex]))
        for stacks in product(*by_vertex):
            law[stacks] += weight
    return law


def test_soup_stacks_root_and_interleave_uniformly():
    """The stacks the soup side draws for one soup of cycle:4's domain 1-3,
    holding the 2-cycle 1-2-1 and the loop 1-2-3-2-1, 6,000 times in one
    block, against the enumerated law of uniform roots and uniform
    interleavings.  At vertex 2 the long loop leaves twice, in an order
    its root sets, and the 2-cycle once.  This tests how the stacks are
    built, on one fixed soup; it is not a law test of the popped soup,
    which the truncation of the catalog biases."""
    graph = cycle_graph(4)
    cat = enumerate_loops(Domain(graph, [1, 2, 3]), 4)
    idx = [i for i, c in enumerate(cat.classes)
           if sorted(loop_vertices(graph, c.key)) in ([1, 2], [1, 2, 2, 3])]
    assert len(idx) == 2
    n = 6000
    with _recorded() as blocks:
        for _ in popped_blocks(cat, [(np.full(n, 2), np.tile(idx, n))],
                               stream(0, "stacks")):
            pass
    observed = Counter(tuple(tuple(graph.edges[p].id for p in s)
                             for s in stacks) for stacks in blocks[0])
    law = _ref_stack_law(graph, [cat.classes[i].key for i in idx])
    assert set(observed) <= set(law)
    _, _, p = stats.chi2_gof(observed, {k: float(w) for k, w in law.items()},
                             n)
    assert p > verify.CHI2_SIGNIFICANCE


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rooted_graphs())
def test_spanning_tree_count_matches_the_exit_choices(graph_root):
    """The matrix-tree count equals the number of choices of one exit edge
    per non-root vertex that lead every vertex to the root."""
    graph, root = graph_root
    verts = [v for v in graph.vertices if v != root]
    trees = 0
    for exits in product(*(graph.out_edges[v] for v in verts)):
        head = {v: e.head for v, e in zip(verts, exits)}
        reach = {root}
        for _ in verts:
            reach |= {v for v in verts if head[v] in reach}
        trees += len(reach) == graph.n_vertices
    assert spanning_tree_count(graph, root) == trees


def test_a_tree_never_drawn_fails_the_tree_check():
    """complete:4 rooted at 0 has 16 spanning trees; 8 runs cannot draw
    them all, so the tree marginal cannot be uniform."""
    graph = complete_graph(4)
    assert spanning_tree_count(graph, 0) == 16
    assert spanning_tree_count(cycle_graph(4), 0) == 4
    cat = enumerate_loops(Domain(graph, [1, 2, 3]), 6,
                          unoriented=UnorientedGraph(graph, pair_reversals(graph)))
    rep = verify_wilson(cat, 0, runs=8, seed=0)
    assert rep.details["n_trees"] <= 8
    assert rep.details["tree_marginal_uniform"] is False
    assert not rep.passed


def _short(counts):
    return tuple(sorted([kc for kc in counts.items()
                         if len(kc[0]) <= verify.WILSON_LENGTH_CAP]))


@pytest.mark.parametrize("graph, l_max, runs, seed", [
    *(pytest.param(graph, l_max, 3000, seed, id=f"{name}-{seed}")
      for name, graph, l_max in (("cycle:4", cycle_graph(4), 14),
                                 ("complete:4", complete_graph(4), 8))
      for seed in (0, 1, 2)),
    pytest.param(complete_graph(4), 8, 5000, 0, id="complete:4-across-blocks-0")])
def test_verify_wilson_matches_the_references(graph, l_max, runs, seed):
    """The job path (blocks of runs and soups, trees and multisets counted
    by distinct row and mapped to report keys once per check, raw class
    multisets keyed from the soups' arrays) reports the statistic, naive TV
    and tree frequencies that the blocks give run by run and soup by soup
    on the same streams.  complete:4 has simple 3-cycles; 5,000 runs cross
    a block boundary, so keys mapped in one block are reused in the next.
    The counts are tallied in another order, so the TVs sum their terms in
    another order."""
    ug = UnorientedGraph(graph, pair_reversals(graph))
    cat = enumerate_loops(Domain(graph, [1, 2, 3]), l_max, unoriented=ug)
    trees, w_keys = Counter(), Counter()
    for tree_d, tree_of, erased, erased_of in wilson_blocks(
            graph, 0, runs, stream(seed, "wilson")):
        for t, m in zip(tree_of, erased_of):
            trees[tuple(sorted([ug.edge_class(e) for e in tree_d[t]
                                if e is not None]))] += 1
            w_keys[_short(Counter(erased[m]))] += 1
    rng_s = stream(seed, "wilson/soup")
    s_keys, s_naive = Counter(), Counter()
    for counts, idx, popped, of in popped_blocks(
            cat, soup_chunks(cat, "oriented", 1.0, runs, rng_s), rng_s):
        for row, m in zip(_chunk_rows(cat.classes, counts, idx), of):
            s_keys[_short(Counter(popped[m]))] += 1
            s_naive[_short(row)] += 1
    rep = verify_wilson(cat, 0, runs=runs, seed=seed)
    # equal up to the order in which the float differences are summed
    assert rep.statistic == pytest.approx(stats.empirical_tv(w_keys, s_keys),
                                          rel=0, abs=1e-12)
    assert rep.details["naive_multiset_tv"] == pytest.approx(
        stats.empirical_tv(w_keys, s_naive), rel=0, abs=1e-12)
    assert rep.details["tree_frequencies"] == {
        str(k): v / runs for k, v in sorted(trees.items())}


def test_erased_cycles_follow_the_exact_heap_law():
    """cycle:4 rooted at 0: every simple cycle of the domain 1-3 is one of
    the 2-cycles on {1, 2} and {2, 3}, D(z) = 1 - (z_12 + z_23)/4, and the
    counts (a, b) they are erased have P = 1/2 C(a+b, a) 4^-(a+b), so the
    total N = a + b is geometric, P(N = k) = 2^-(k+1)."""
    graph = cycle_graph(4)
    runs = 20000
    totals, pairs = Counter(), Counter()
    for _, _, erased, of in wilson_blocks(graph, 0, runs, stream(0, "heap")):
        for m, c in zip(erased, np.bincount(of, minlength=len(erased))):
            on = Counter(1 in loop_vertices(graph, key) for key in m)
            assert all(len(key) == 2 for key in m)
            totals[len(m)] += int(c)
            pairs[on[True], on[False]] += int(c)
    _, _, p_total = stats.chi2_gof(
        totals, {k: 2.0 ** -(k + 1) for k in range(40)}, runs)
    _, _, p_pairs = stats.chi2_gof(
        pairs, {(a, b): comb(a + b, a) * 4.0 ** -(a + b) / 2
                for a in range(30) for b in range(30)}, runs)
    assert min(p_total, p_pairs) > verify.CHI2_SIGNIFICANCE


def test_trees_are_uniform_over_the_matrix_tree_count():
    """complete:5 rooted at 0 has 5^3 = 125 spanning trees: every one is
    drawn, with uniform frequencies."""
    graph = complete_graph(5)
    runs = 20000
    trees = Counter()
    for tree_d, of, _, _ in wilson_blocks(graph, 0, runs, stream(0, "trees")):
        for t, c in zip(tree_d, np.bincount(of, minlength=len(tree_d))):
            trees[t] += int(c)
    assert len(trees) == spanning_tree_count(graph, 0) == 125
    _, _, p = stats.chi2_gof(trees, {t: 1 / 125 for t in trees}, runs)
    assert p > verify.CHI2_SIGNIFICANCE
