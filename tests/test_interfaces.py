"""Cross-cutting invariants: the crossings as a function of the excursions,
the infeasible mass against the length cap, job order and the class budget."""

import json
from collections import Counter

import pytest

from loopsoup import Domain, enumerate_loops, sample_oriented_soup, verify_prop1
from loopsoup.cli import main as cli_main
from loopsoup.excursions import decompose_counts, extract_crossings_counts
from loopsoup.rng import stream


def test_crossings_recomputable_from_eta(k5, triangle_catalogs):
    """The crossings are a function of the excursions alone: cutting the
    excursion paths at their marked-set visits reproduces them."""
    g, inv, ug = k5
    cat, _ = triangle_catalogs
    F1, F2 = {1}, {2}
    rng = stream(63, "recross")
    hits = 0
    for _ in range(2000):
        soup = sample_oriented_soup(cat, 1.0, rng)
        d = decompose_counts(cat, soup, F1, F2)
        cs = extract_crossings_counts(cat, soup, (F1, F2))
        from_eta = Counter()
        for path in d.eta:
            verts = [g.edge_by_id[path[0]].tail]
            for eid in path:
                verts.append(g.edge_by_id[eid].head)
            marked = [i for i, v in enumerate(verts) if v in F1 | F2]
            for a, b in zip(marked, marked[1:]):
                va, vb = verts[a], verts[b]
                if (va in F1) != (vb in F1):
                    pair = (0, 1) if va in F1 else (1, 0)
                    from_eta[(pair, tuple(path[a:b]))] += 1
        assert from_eta == Counter(cs.instances)
        if d.N:
            hits += 1
    assert hits > 100


def test_remainder_shrinks_with_lmax(k12):
    g, inv, ug = k12
    dom = Domain(g, [1, 2, 3])
    infeasible = []
    for L in (4, 6, 8):
        cat = enumerate_loops(dom, L, unoriented=ug)
        rep = verify_prop1(cat, {1}, {2}, mode="exact", max_excursions=1)
        infeasible.append(min(e["infeasible"] for e in rep.details["per_eta"]
                              if e["eta_lengths"] == [2]))
        assert rep.passed
    assert infeasible[0] > infeasible[1] > infeasible[2]


def test_job_order_permutation_only_reorders(tmp_path):
    base = """
graph = complete:5
domain = 1 2 3
f1 = 1
f2 = 2
l_max = 5
seed = 11
samples = 5000
mode = exact
jobs = {jobs}
"""
    p1 = tmp_path / "a.cfg"
    p1.write_text(base.format(jobs="prop1, prop2"))
    p2 = tmp_path / "b.cfg"
    p2.write_text(base.format(jobs="prop2, prop1"))
    cli_main(["run", str(p1), "--out", str(tmp_path / "o1")])
    cli_main(["run", str(p2), "--out", str(tmp_path / "o2")])
    r1 = json.loads((tmp_path / "o1" / "report.json").read_text())["reports"]
    r2 = json.loads((tmp_path / "o2" / "report.json").read_text())["reports"]
    key = lambda r: r["prop"]
    assert sorted(map(json.dumps, r1)) != [] and \
           sorted(r1, key=key) == sorted(r2, key=key)


def test_class_budget_env(tmp_path, monkeypatch):
    import loopsoup.loops as loops_mod
    monkeypatch.setenv("LOOPSOUP_CLASS_BUDGET", "2")
    default = loops_mod.DEFAULT_CLASS_BUDGET
    rc = cli_main(["enumerate", "--graph", "complete:5", "--domain",
                   "1 2 3", "--l-max", "6", "--seed", "0",
                   "--out", str(tmp_path / "budget")])
    assert rc == 2
    assert loops_mod.DEFAULT_CLASS_BUDGET == default
    from loopsoup import complete_graph
    from loopsoup.loops import BudgetExceededError
    g = complete_graph(5)
    dom = Domain(g, [1, 2, 3])
    with pytest.raises(BudgetExceededError):
        enumerate_loops(dom, 6, budget=2)
