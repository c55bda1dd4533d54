"""Dump formats and cross-cutting invariants."""

import json
from collections import Counter

import pytest

from loopsoup import (Domain, attach_holding_times, decompose, enumerate_loops,
                      extract_crossings, sample_ct_soup, sample_oriented_soup,
                      sample_unordered_bridge, sample_z_bridge,
                      verify_prop1)
from loopsoup.bridges import family_to_json
from loopsoup.cli import main as cli_main
from loopsoup.rng import stream
from loopsoup.soups import export_soup_jsonl, occupation_to_json, occupation_field


def test_soup_dump_jsonl(tmp_path, triangle_catalogs):
    cat, _ = triangle_catalogs
    rng = stream(60, "dump")
    ct = sample_ct_soup(cat, 1.0, rng)
    p = tmp_path / "soup.jsonl"
    export_soup_jsonl(ct, p)
    rows = [json.loads(l) for l in p.read_text().strip().split("\n")]
    assert "trivial_field" in rows[-1]
    for row in rows[:-1]:
        key = tuple(row["class"])
        assert row["count"] == ct.jump_soup.counts[key]
        assert len(row["holding_times"]) == row["count"]
        assert all(len(arr) == len(key) for arr in row["holding_times"])


def test_occupation_json(triangle_catalogs):
    cat, _ = triangle_catalogs
    rng = stream(61, "occ")
    soup = sample_oriented_soup(cat, 1.0, rng)
    d = occupation_to_json(occupation_field(soup))
    assert d["mode"] == "oriented"
    json.dumps(d)


def test_family_and_decomposition_json(k5, triangle_catalogs):
    g, inv, ug = k5
    cat, ucat = triangle_catalogs
    dom = cat.domain
    rng = stream(62, "fam")
    fam = sample_unordered_bridge(dom, (1, 2), (2, 3), rng)
    timed = attach_holding_times(fam, rng, domain=dom)
    d = family_to_json(fam, timed)
    assert set(d) == {"bridges", "permutation", "X", "Y", "interior_times"}
    zfam = sample_z_bridge(dom, (1, 1, 2, 2), rng)
    dz = family_to_json(zfam)
    assert "pairing" in dz and len(dz["Z"]) == 4
    for _ in range(500):
        soup = sample_oriented_soup(cat, 1.0, rng)
        dec = decompose(soup, {1}, {2})
        if dec.N:
            j = dec.to_json()
            assert j["N"] == dec.N and len(j["eta"]) == dec.N
            json.dumps(j)
            break


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
        d = decompose(soup, F1, F2)
        cs = extract_crossings(soup, F1, F2)
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
