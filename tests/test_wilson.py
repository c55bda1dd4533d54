"""Wilson's walk and cycle popping, draw for draw against per-step references.

The references below are the straightforward forms of the two samplers: one
edge choice looked up per step through dicts, and arrow stacks kept as
deques.  The table-driven `wilson_ust` and `pop_cycles` must return the same
trees and Counters, in the same insertion order, and leave the generator in
the same state; `verify_wilson`, which walks all its runs in one pass and
caches the pops of lone loops, must report what the references give run by
run on the same streams.
"""

from collections import Counter, deque
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsoup import (Domain, build_graph, complete_graph, cycle_graph,
                      enumerate_loops, pair_reversals, pop_cycles,
                      regularize_degree, sample_oriented_soup, unoriented_view,
                      verify_wilson, wilson_ust)
from loopsoup import stats, verify
from loopsoup.loops import loop_vertices, necklace
from loopsoup.rng import stream
from loopsoup.soups import LoopSoup, SoupError, soup_count_rows
from loopsoup.wilson import (WilsonError, _EdgeDice, check_root,
                             spanning_tree_count)


class _RefDice:
    """Per-vertex blocks of edge choices, looked up one step at a time."""

    def __init__(self, graph, rng, block=65536):
        self.rng = rng
        self.block = block
        self.choices = {v: graph.out_edges[v] for v in graph.vertices}
        self.buf = {}
        self.pos = {}

    def step(self, v):
        buf = self.buf.get(v)
        pos = self.pos.get(v, 0)
        if buf is None or pos >= len(buf):
            self.buf[v] = buf = self.rng.integers(0, len(self.choices[v]),
                                                  size=self.block)
            self.pos[v] = pos = 0
        self.pos[v] = pos + 1
        return self.choices[v][buf[pos]]


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


def _ref_pop_cycles(soup, rng):
    graph = soup.catalog.domain.graph
    queues = {}
    for key, cnt in sorted(soup.counts.items()):
        verts = loop_vertices(graph, key)
        n = len(key)
        for _ in range(cnt):
            r = int(rng.integers(n))
            dep = {}
            for eid, v in zip(key[r:] + key[:r], verts[r:] + verts[:r]):
                dep.setdefault(v, []).append(eid)
            for v, lst in dep.items():
                queues.setdefault(v, []).append(lst)
    stacks = {}
    for v, qs in queues.items():
        slots = []
        for i, lst in enumerate(qs):
            slots += [i] * len(lst)
        rng.shuffle(slots)
        its = [iter(lst) for lst in qs]
        stacks[v] = deque(next(its[i]) for i in slots)
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
@given(_rooted_graphs(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_wilson_ust_matches_the_per_step_walk(graph_root, seed, block):
    """Shared tables with small blocks (refills mid-run) and a fresh table
    per run both replay the reference walk draw for draw."""
    graph, root = graph_root
    rng, ref_rng = stream(seed, "w"), stream(seed, "w")
    dice = _EdgeDice(graph, root, rng, block=block)
    ref_dice = _RefDice(graph, ref_rng, block=block)
    for _ in range(20):
        tree, erased = wilson_ust(graph, root, rng, dice=dice)
        ref_tree, ref_erased = _ref_wilson_ust(graph, root, ref_dice)
        assert list(tree.items()) == list(ref_tree.items())
        assert list(erased.items()) == list(ref_erased.items())
    assert _state(rng) == _state(ref_rng)
    tree, erased = wilson_ust(graph, root, rng)
    ref_tree, ref_erased = _ref_wilson_ust(graph, root, _RefDice(graph, ref_rng))
    assert (tree, erased) == (ref_tree, ref_erased)
    assert _state(rng) == _state(ref_rng)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_rooted_graphs(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1.0, 3.0]))
def test_pop_cycles_matches_the_deque_stacks(graph_root, seed, alpha):
    """Popped Counters and generator states agree on soups of the domain of
    every vertex but the root, up to length 6; an empty soup draws nothing."""
    graph, root = graph_root
    domain = Domain(graph, [v for v in graph.vertices if v != root])
    cat = enumerate_loops(domain, 6)
    soups = stream(seed, "soups")
    rng, ref_rng = stream(seed, "pop"), stream(seed, "pop")
    for _ in range(10):
        soup = sample_oriented_soup(cat, alpha, soups)
        popped = pop_cycles(soup, rng)
        ref = _ref_pop_cycles(soup, ref_rng)
        assert list(popped.items()) == list(ref.items())
        assert _state(rng) == _state(ref_rng)
    before = _state(rng)
    assert pop_cycles(LoopSoup(cat, {}), rng) == Counter()
    assert _state(rng) == before


def test_verify_wilson_refuses_a_domain_other_than_every_other_vertex():
    """The erased cycles live on every vertex but the root, so a catalog on
    another domain cannot be compared with them."""
    graph = cycle_graph(4)
    for root, domain in ((0, [1, 2]), (2, [1, 2, 3])):
        cat = enumerate_loops(Domain(graph, domain), 6)
        with pytest.raises(WilsonError, match="every vertex but the root"):
            verify_wilson(graph, root, cat, runs=10)


def test_verify_wilson_refuses_an_unoriented_catalog_before_walking(monkeypatch):
    """Wilson's cycles are compared with an oriented soup: an unoriented
    catalog is refused before a single walk is made."""
    def refuse(*args, **kwargs):
        raise AssertionError("walked before refusing the catalog")

    monkeypatch.setattr(verify, "wilson_runs", refuse)
    graph = cycle_graph(4)
    cat = enumerate_loops(Domain(graph, [1, 2, 3]), 6,
                          unoriented=unoriented_view(graph, pair_reversals(graph)))
    with pytest.raises(SoupError, match="not oriented"):
        verify_wilson(graph, 0, cat.counterpart(), runs=20000)


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
                          unoriented=unoriented_view(graph, pair_reversals(graph)))
    rep = verify_wilson(graph, 0, cat, runs=8, seed=0)
    assert rep.details["n_trees"] <= 8
    assert rep.details["tree_marginal_uniform"] is False
    assert not rep.passed


def _short(counts):
    return tuple(sorted([kc for kc in counts.items()
                         if len(kc[0]) <= verify.WILSON_LENGTH_CAP]))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("graph, l_max", [(cycle_graph(4), 14),
                                          (complete_graph(4), 8)],
                         ids=["cycle:4", "complete:4"])
def test_verify_wilson_matches_the_references(graph, l_max, seed):
    """The job path (one walk over all runs, trees and erasure sequences
    keyed raw and mapped back, lone-loop pops cached by class and rotation)
    reports the statistic, naive TV and tree frequencies that the per-step
    walk and the deque stacks give run by run on the same streams.
    complete:4 has simple 3-cycles, and 3,000 runs repeat (class, rotation)
    pairs, so the cache is hit."""
    runs = 3000
    ug = unoriented_view(graph, pair_reversals(graph))
    cat = enumerate_loops(Domain(graph, [1, 2, 3]), l_max, unoriented=ug)
    dice = _RefDice(graph, stream(seed, "wilson"))
    trees, w_keys = Counter(), Counter()
    for _ in range(runs):
        tree, erased = _ref_wilson_ust(graph, 0, dice)
        trees[tuple(sorted([ug.edge_class(e) for e in tree.values()]))] += 1
        w_keys[_short(erased)] += 1
    rng_s = stream(seed, "wilson/soup")
    s_keys, s_naive = Counter(), Counter()
    for counts in soup_count_rows(cat, "oriented", 1.0, runs, rng_s):
        s_keys[_short(_ref_pop_cycles(LoopSoup(cat, counts), rng_s))] += 1
        s_naive[_short(counts)] += 1
    rep = verify_wilson(graph, 0, cat, runs=runs, seed=seed)
    assert rep.statistic == stats.empirical_tv(w_keys, s_keys)
    assert rep.details["naive_multiset_tv"] == stats.empirical_tv(w_keys, s_naive)
    assert rep.details["tree_frequencies"] == {
        str(k): v / runs for k, v in sorted(trees.items())}
