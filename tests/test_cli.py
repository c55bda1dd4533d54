import csv
import gc
import glob
import json
import os
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest

from loopsoup import cli, verify
from loopsoup.bridges import bridge_probability_exact, enumerate_bridges
from loopsoup.cli import main, markov_edge_partition, run_job
from loopsoup.config import (ConfigError, build_workspace, config_from_dict,
                             job_seed, parse_config)
from loopsoup.graph import green_function
from loopsoup.loops import LoopCatalog, LoopClass, necklace
from loopsoup.stats import chi2_gof
from loopsoup.verify import CHI2_SIGNIFICANCE


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE = """
# triangle in a complete graph, heavy leakage
graph = complete:5
domain = 1 2 3
f1 = 1
f2 = 2
l_max = 5
seed = 7
samples = 2000
mode = exact
jobs = prop2
"""


def test_parse_config(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    assert cfg.graph == "complete:5"
    assert cfg.domain == (1, 2, 3)
    assert cfg.jobs == ("prop2",)
    assert cfg.seed == 7


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(write(tmp_path, "graph complete:5\n"))
    with pytest.raises(ConfigError, match="unknown job"):
        parse_config(write(tmp_path, BASE.replace("prop2", "prop99")))
    with pytest.raises(ConfigError, match="missing required"):
        parse_config(write(tmp_path, "graph = cycle:4\n"))
    with pytest.raises(ConfigError, match="subset of the domain"):
        parse_config(write(tmp_path, BASE.replace("f1 = 1", "f1 = 4")))


def test_run_and_determinism(tmp_path):
    cfg_path = write(tmp_path, BASE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg_path, "--out", str(out1)]) == 0
    assert main(["run", cfg_path, "--out", str(out2)]) == 0
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    assert b1 == b2
    bundle = json.loads(b1)
    rep = bundle["reports"][0]
    assert set(rep) >= {"prop", "mode", "statistic", "tolerance", "samples",
                        "seed", "L_max", "tail_bound", "verdict"}
    assert rep["verdict"] == "pass"
    # config round trip: rerunning from the embedded config reproduces it
    resolved = bundle["config"]
    raw = {
        "graph": resolved["graph"],
        "domain": " ".join(map(str, resolved["domain"])),
        "jobs": " ".join(resolved["jobs"]),
        "seed": str(resolved["seed"]),
        "f1": " ".join(map(str, resolved["f1"])),
        "f2": " ".join(map(str, resolved["f2"])),
        "l_max": str(resolved["l_max"]),
        "samples": str(resolved["samples"]),
        "mode": resolved["mode"],
    }
    cfg2 = config_from_dict(raw)
    from loopsoup.cli import run
    out3 = tmp_path / "o3"
    run(cfg2, str(out3))
    assert (out3 / "report.json").read_bytes() == b1


def test_seed_override_changes_report(tmp_path):
    cfg_path = write(tmp_path, BASE.replace("mode = exact", "mode = mc")
                     .replace("jobs = prop2", "jobs = prop1"))
    o1, o2 = tmp_path / "a", tmp_path / "b"
    main(["run", cfg_path, "--out", str(o1)])
    main(["run", cfg_path, "--seed", "8", "--out", str(o2)])
    r1 = json.loads((o1 / "report.json").read_text())
    r2 = json.loads((o2 / "report.json").read_text())
    assert r1["config"]["seed"] != r2["config"]["seed"]


def test_enumerate_outputs(tmp_path):
    out = tmp_path / "enum"
    rc = main(["enumerate", "--graph", "cycle:3", "--domain", "0 1 2",
               "--l-max", "6", "--out", str(out), "--seed", "0"])
    assert rc == 0
    lines = (out / "catalog_oriented.jsonl").read_text().strip().split("\n")
    rows = [json.loads(l) for l in lines]
    assert all(set(r) == {"edges", "n", "J", "mass", "mass_float"}
               for r in rows)


def test_verify_subcommand(tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "prop2", "--graph", "complete:5", "--domain", "1 2 3",
               "--f1", "1", "--f2", "2", "--l-max", "5", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    assert rep["prop"] == "prop2" and rep["verdict"] == "pass"


def test_exit_code_on_failure(tmp_path):
    # an mc prop1 run at the wrong intensity must fail and exit nonzero
    out = tmp_path / "f"
    cfg = BASE.replace("jobs = prop2", "jobs = prop1") \
              .replace("mode = exact", "mode = mc") + "alpha = 2\nsamples = 150000\n"
    rc = main(["run", write(tmp_path, cfg, "bad.cfg"), "--out", str(out)])
    assert rc == 1


def test_occupation_markov_with_nothing_to_test_exits_2(tmp_path):
    # on the K5 triangle with f1 = 1, f2 = 2 no edge lies inside f1 or
    # inside f2, so the Markov check has no variables to test
    cfg = BASE.replace("jobs = prop2", "jobs = occupation-markov")
    rc = main(["run", write(tmp_path, cfg, "occ.cfg"),
               "--out", str(tmp_path / "occ")])
    assert rc == 2


def test_occupation_markov_refused_before_any_job_runs(tmp_path, monkeypatch):
    import loopsoup.verify as V
    calls = []
    monkeypatch.setattr(V, "verify_prop2", lambda *a, **kw: calls.append(a))
    cfg = BASE.replace("jobs = prop2", "jobs = prop2, occupation-markov")
    out = tmp_path / "occ"
    rc = main(["run", write(tmp_path, cfg, "occ.cfg"), "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert not (out / "report.json").exists()


def test_wilson_without_root_refused_before_any_job_runs(tmp_path, monkeypatch):
    import loopsoup.verify as V
    calls = []
    monkeypatch.setattr(V, "verify_prop2", lambda *a, **kw: calls.append(a))
    cfg = BASE.replace("jobs = prop2", "jobs = prop2, wilson")
    out = tmp_path / "wil"
    rc = main(["run", write(tmp_path, cfg, "wil.cfg"), "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("domain, root", [("1 2 3", "7"), ("1 2", "0"),
                                          ("1 2 3", "2")])
def test_wilson_bad_root_exits_2(tmp_path, domain, root):
    """The root must be a vertex of the graph and the domain every other
    vertex, where the erased cycles live."""
    out = tmp_path / "wil"
    rc = main(["verify", "wilson", "--graph", "cycle:4", "--domain", domain,
               "--root", root, "--l-max", "8", "--mode", "mc", "--samples",
               "2000", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert not (out / "report.json").exists()


def test_wilson_domain_refused_before_any_job_runs(tmp_path, monkeypatch):
    import loopsoup.verify as V
    calls = []
    monkeypatch.setattr(V, "verify_prop2", lambda *a, **kw: calls.append(a))
    cfg = BASE.replace("jobs = prop2", "jobs = prop2, wilson\nroot = 0")
    out = tmp_path / "wil"
    rc = main(["run", write(tmp_path, cfg, "wil.cfg"), "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert not (out / "report.json").exists()


def test_prop5_without_removed_edges_refused_before_any_job_runs(
        tmp_path, monkeypatch):
    import loopsoup.verify as V
    calls = []
    monkeypatch.setattr(V, "verify_prop2", lambda *a, **kw: calls.append(a))
    cfg = BASE.replace("jobs = prop2", "jobs = prop2, prop5")
    out = tmp_path / "p5"
    rc = main(["run", write(tmp_path, cfg, "p5.cfg"), "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert not (out / "report.json").exists()
    rc = main(["verify", "prop5", "--graph", "complete:5", "--domain",
               "1 2 3", "--seed", "0", "--out", str(out)])
    assert rc == 2


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_removed_edge_leaving_the_domain_exits_2(tmp_path, capsys, mode):
    # edge 1-4 leaves the domain: the soup never jumps across it
    out = tmp_path / "p5"
    rc = main(["verify", "prop5", "--graph", "complete:5", "--domain", "1 2 3",
               "--removed-edges", "1-4", "--mode", mode, "--samples", "2000",
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert "removed edges must join domain vertices" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_removed_edge_off_the_graph_refused_before_any_job_runs(
        tmp_path, monkeypatch, capsys):
    # vertices 1 and 3 of the 5-cycle share no edge to remove
    import loopsoup.verify as V

    def prop2(*a, **kw):
        raise AssertionError("prop2 ran before the removed edges were read")
    monkeypatch.setattr(V, "verify_prop2", prop2)
    cfg = BASE.replace("complete:5", "cycle:5").replace(
        "jobs = prop2", "jobs = prop2, prop5\nremoved_edges = 1-3")
    out = tmp_path / "p5"
    rc = main(["run", write(tmp_path, cfg, "p5.cfg"), "--out", str(out)])
    assert rc == 2
    assert "no unoriented edge between 1 and 3" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("job, args", [
    ("wilson", ["--graph", "cycle:4", "--root", "0"]),
    ("lejan", ["--graph", "complete:5"])])
def test_samples_below_one_exits_2(tmp_path, capsys, job, args):
    # no sample means no statistic: refused, not divided by
    out = tmp_path / job
    rc = main(["verify", job, *args, "--domain", "1 2 3", "--mode", "mc",
               "--samples", "0", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert "samples must be at least 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_lejan_away_from_half_exits_2(tmp_path, capsys):
    # the isomorphism holds at alpha = 1/2 only; the default alpha is 1
    out = tmp_path / "lj"
    rc = main(["verify", "lejan", "--graph", "complete:5", "--domain", "1 2 3",
               "--l-max", "8", "--samples", "20000", "--seed", "0",
               "--out", str(out)])
    assert rc == 2
    assert "alpha = 1/2" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_random_currents_without_inner_edges_exits_2(tmp_path):
    # vertices 1 and 3 of the 5-cycle share no edge: no current to test
    out = tmp_path / "rc"
    rc = main(["verify", "random-currents", "--graph", "cycle:5", "--domain",
               "1 3", "--samples", "2000", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert not (out / "report.json").exists()


def test_ct_excursions_without_skeletons_exits_2(tmp_path, capsys):
    # a lone vertex of the 5-cycle has no edge inside the domain, so no
    # excursion skeleton joins the sites: nothing to test
    out = tmp_path / "ct"
    rc = main(["verify", "ct-excursions", "--graph", "cycle:5", "--domain",
               "1", "--samples", "200", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert "no excursion skeleton" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_sample_soup_on_one_vertex(tmp_path):
    # the bridge-length law runs from the lone vertex to itself: every
    # bridge is the empty one
    cfg = "graph = cycle:5\ndomain = 1\nseed = 0\nsamples = 200\n" \
          "jobs = sample-soup\n"
    out = tmp_path / "one"
    assert main(["run", write(tmp_path, cfg, "one.cfg"), "--out", str(out)]) == 0
    assert (out / "bridge_length_hist.csv").read_text().split() == \
        ["length,count", "0,200"]


def test_empty_marked_set_exits_2(tmp_path):
    # an empty second set can never be crossed
    out = tmp_path / "empty"
    rc = main(["verify", "prop1bis", "--graph", "complete:5", "--domain",
               "1 2 3", "--f1", "1", "--mode", "mc", "--samples", "2000",
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert not (out / "report.json").exists()


def test_overlapping_marked_sets_refused_before_any_job_runs(
        tmp_path, monkeypatch, capsys):
    import loopsoup.verify as V
    calls = []
    for name in ("verify_prop2", "verify_prop1bis_3bis"):
        monkeypatch.setattr(V, name, lambda *a, **kw: calls.append(a))
    cfg = BASE.replace("jobs = prop2", "jobs = prop2, prop1bis") + "f3 = 2\n"
    out = tmp_path / "overlap"
    rc = main(["run", write(tmp_path, cfg, "overlap.cfg"), "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert "disjoint" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_overlapping_markov_sets_refused_before_any_job_runs(
        tmp_path, monkeypatch, capsys):
    """f1 and f2 sharing a vertex leave no boundary between them, so a
    correct law would fail every cell: the occupation-markov config is
    refused before any job runs.  An empty f2 (the rest of the domain) and
    disjoint sets are accepted."""
    import loopsoup.verify as V

    def markov(f1, f2, out):
        return main(["verify", "occupation-markov", "--graph", "grid:2x3",
                     "--domain", "0 1 2 3 4", "--f1", f1, "--f2", f2,
                     "--seed", "0", "--out", str(out)])

    calls = []
    monkeypatch.setattr(V, "verify_occupation_markov",
                        lambda *a, **kw: calls.append(a))
    out = tmp_path / "overlap"
    assert markov("0 1", "1 2 3 4", out) == 2
    assert calls == []
    assert "disjoint" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert config_from_dict({"graph": "grid:2x3", "domain": "0 1 2 3 4",
                             "jobs": "occupation-markov", "seed": "0",
                             "f1": "0 1", "f2": ""}).f2 == ()
    # vertex 1 separates f1 = {0} from f2 = {2, 3, 4}: all three checks pass
    monkeypatch.undo()
    out = tmp_path / "apart"
    assert markov("0", "2 3 4", out) == 0
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert len(reports) == 3 and all(r["verdict"] == "pass" for r in reports)


def test_malformed_class_budget_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOOPSOUP_CLASS_BUDGET", "abc")
    rc = main(["enumerate", "--graph", "complete:5", "--domain", "1 2 3",
               "--seed", "0", "--out", str(tmp_path / "enum")])
    assert rc == 2
    assert "LOOPSOUP_CLASS_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize("prop, extra", [
    ("prop1", []), ("prop2", []), ("prop5", ["--removed-edges", "1-2"]),
    ("prop1bis", []), ("prop3bis", [])])
def test_exact_check_without_targets_exits_2(tmp_path, prop, extra):
    # K5 has no loop of one step, so there is nothing to condition on
    out = tmp_path / prop
    rc = main(["verify", prop, "--graph", "complete:5", "--domain", "1 2 3",
               "--f1", "1", "--f2", "2", "--l-max", "1", "--seed", "0",
               "--out", str(out), *extra])
    assert rc == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("prop", ["prop1", "prop1bis"])
def test_mc_check_without_touching_class_exits_2(tmp_path, capsys, prop):
    # F1 and F2 lie 4 steps apart, so no loop of at most 4 steps meets both:
    # refused before any soup is drawn, as exact mode refuses it
    out = tmp_path / prop
    rc = main(["verify", prop, "--graph", "path:6", "--domain", "0 1 2 3 4",
               "--f1", "0", "--f2", "4", "--l-max", "4", "--mode", "mc",
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert "no catalog class meets the cut" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flag, value", [("--alpha", "0"), ("--alpha", "-1"),
                                         ("--c", "0")])
def test_nonpositive_intensity_exits_2(tmp_path, capsys, flag, value):
    # at alpha = 0 every Poisson weight vanishes; a negative one is no law
    out = tmp_path / "intensity"
    rc = main(["verify", "prop1", "--graph", "complete:5", "--domain", "1 2 3",
               "--f1", "1", "--f2", "2", "--seed", "0", flag, value,
               "--out", str(out)])
    assert rc == 2
    assert "must be positive" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_exact_check_takes_the_intensity_as_written(tmp_path):
    # alpha = 1/100 is checked at 1/100, not at a rational near 0.01; the
    # check fails away from alpha = 1, and the config records the float
    out = tmp_path / "q"
    rc = main(["verify", "prop1", "--graph", "complete:5", "--domain", "1 2 3",
               "--f1", "1", "--f2", "2", "--l-max", "6", "--seed", "0",
               "--alpha", "1/100", "--out", str(out)])
    bundle = json.loads((out / "report.json").read_text())
    assert rc == 1
    assert bundle["reports"][0]["details"]["intensity"] == "1/100"
    assert bundle["config"]["alpha"] == 0.01


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    rc = main(["run", missing, "--out", str(tmp_path / "none")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.cfg" in err
    assert not (tmp_path / "none").exists()


def test_missing_graph_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "no.graph")
    rc = main(["enumerate", "--graph", f"file:{missing}", "--domain", "1 2",
               "--seed", "0", "--out", str(tmp_path / "none")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no.graph" in err


def test_conditioned_poisson_giving_up_exits_2(tmp_path, capsys):
    # on a path of 15 sites the even-degree oracle of random currents still
    # rejects some rows after its last round of rejection
    cfg = ("graph = cycle:16\ndomain = " + " ".join(map(str, range(1, 16)))
           + "\njobs = random-currents\nl_max = 6\nsamples = 200\n"
           "mode = mc\nseed = 0\n")
    out = tmp_path / "rc"
    rc = main(["run", write(tmp_path, cfg, "rc.cfg"), "--out", str(out)])
    assert rc == 2
    assert "rows still rejected" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_console_entry_point(tmp_path):
    r = subprocess.run([sys.executable, "-m", "loopsoup.cli", "verify",
                        "prop1", "--graph", "complete:5", "--domain", "1 2 3",
                        "--f1", "1", "--f2", "2", "--l-max", "4",
                        "--seed", "1", "--out", str(tmp_path / "cli")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_job_seed_stability():
    assert job_seed(7, "prop1", 0) == job_seed(7, "prop1", 0)
    assert job_seed(7, "prop1", 0) != job_seed(7, "prop1", 1)
    assert job_seed(7, "prop1", 0) != job_seed(8, "prop1", 0)


def test_sample_soup_outputs(tmp_path):
    cfg = BASE.replace("jobs = prop2", "jobs = sample-soup")
    out = tmp_path / "s"
    rc = main(["run", write(tmp_path, cfg, "s.cfg"), "--out", str(out)])
    assert rc == 0
    for f in ("loop_length_spectrum.csv", "occupation_edge_hist.csv",
              "occupation_site_hist.csv", "bridge_length_hist.csv"):
        assert (out / f).exists()


def test_sample_soup_bridge_lengths_follow_the_exact_law(tmp_path):
    """golden_ct's sample-soup job, at its seed and size, draws bridges from
    its first domain vertex to its second; their length histogram fits the
    exact length law (the golden fixture pins the same bytes)."""
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "data",
                                    "golden_ct.cfg"))
    ws = build_workspace(cfg)
    run_job(ws, "sample-soup", cfg.jobs.index("sample-soup"), str(tmp_path))
    with open(tmp_path / "bridge_length_hist.csv") as fh:
        lengths = {int(n): int(c) for n, c in list(csv.reader(fh))[1:]}
    x, y = ws.domain.vertices[:2]
    green = green_function(ws.domain, exact=True)
    law = {}
    for b in enumerate_bridges(ws.domain, x, y, 12):
        law[b.n] = law.get(b.n, 0) + bridge_probability_exact(ws.domain, b,
                                                               green)
    _, _, p = chi2_gof(lengths, law, sum(lengths.values()))
    assert p > CHI2_SIGNIFICANCE


def test_verify_lejan_one_site(tmp_path):
    """On a one-site domain the site and all-sites points coincide: three
    points are tested, and the run passes."""
    out = tmp_path / "lejan1"
    rc = main(["verify", "lejan", "--graph", "complete:5", "--domain", "1",
               "--alpha", "1/2", "--seed", "0", "--samples", "20000",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    assert rep["prop"] == "lejan" and rep["details"]["points_tested"] == 3


@pytest.mark.parametrize("where, key, value", [
    ("file", "lmax", "4"), ("file", "mode", "exakt"), ("set", "mode", "exakt"),
    ("flag", "mode", "exakt"), ("set", "l_max", "abc"),
    ("set", "samples", "1e5"), ("set", "alpha", "1/0"),
    ("set", "removed_edges", "1"), ("set", "removed_edges", "1-2 2-1"),
    ("set", "domain", "1 x"), ("set", "g", "two"), ("set", "jobs", "")])
def test_bad_config_key_exits_2_naming_it(tmp_path, capsys, where, key, value):
    # an unknown key or a malformed value is refused before any job runs
    out = tmp_path / "bad"
    if where == "flag":
        rc = main(["verify", "prop1", "--graph", "complete:5", "--domain",
                   "1 2 3", "--f1", "1", "--f2", "2", "--seed", "0",
                   f"--{key}", value, "--out", str(out)])
    elif where == "set":
        rc = main(["run", write(tmp_path, BASE), "--set", f"{key}={value}",
                   "--out", str(out)])
    else:
        rc = main(["run", write(tmp_path, BASE + f"{key} = {value}\n"),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.cfg"))
    + glob.glob(os.path.join(os.path.dirname(__file__), "..", "perfbench",
                             "configs", "*.cfg"))))
def test_shipped_configs_parse(path):
    cfg = parse_config(path)
    assert cfg.jobs and cfg.mode in ("exact", "mc")


def test_occupation_job_builds_each_law_once(monkeypatch):
    """The untilted and tilted c-soup checks of the occupation-Markov job
    read one law: the job builds two laws (c-soup and oriented), not three.
    Its reports are the c-soup, oriented and tilted c-soup checks, as fresh
    calls of the verifier give them."""
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "data",
                                    "golden_occupation.cfg"))
    ws = build_workspace(cfg)
    built = []
    occupation_law = verify.occupation_law

    def counting(*args, **kwargs):
        built.append(args)
        return occupation_law(*args, **kwargs)

    monkeypatch.setattr(verify, "occupation_law", counting)
    reports = cli._job_occupation_markov(ws, cfg, 0)
    assert len(built) == 2
    part_u, part_o = (markov_edge_partition(ws, oriented)
                      for oriented in (False, True))
    untilted, tilted = verify.verify_occupation_markov(
        ws.domain, part_u, "c", cfg.c, tilt_edge_groups=part_u[2][:1])
    [oriented] = verify.verify_occupation_markov(
        ws.domain, part_o, "alpha", Fraction(1), cap=8)
    assert [r.to_json() for r in reports] == \
        [r.to_json() for r in (untilted, oriented, tilted)]
    assert tilted.details["tilted"] and not untilted.details["tilted"]
    assert tilted.details["cells_checked"] == \
        untilted.details["cells_checked"] > 0


TWO_VERTICES = """
vertices 2
edge 0 0 1 rev 1
edge 1 1 0 rev 0
edge 2 0 0 rev 3
edge 3 0 0 rev 2
edge 4 1 1 rev 5
edge 5 1 1 rev 4
"""


def test_graph_file_keeps_its_involution(tmp_path):
    # the self-edges are paired by the file, so each pair is one unoriented
    # self-loop; fixing every self-edge would give 23 unoriented classes
    path = write(tmp_path, TWO_VERTICES, "two.graph")
    cfg = config_from_dict({"graph": f"file:{path}", "domain": "0 1",
                            "jobs": "enumerate", "seed": "0", "l_max": "3"})
    ws = build_workspace(cfg)
    assert ws.unoriented.involution.mapping == {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    assert len(ws.catalog("unoriented").classes) == 13
    # padding up to degree 4 adds one stationary self-edge per vertex, fixed
    cfg = config_from_dict({"graph": f"file:{path}", "domain": "0",
                            "jobs": "enumerate", "seed": "0", "g": "4"})
    ws = build_workspace(cfg)
    assert ws.unoriented.involution.mapping == {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4,
                                     6: 6, 7: 7}


def test_runs_leave_no_catalog_garbage(tmp_path):
    """Catalogs, their classes and loopsoup's functions are in no reference
    cycle, so reference counting frees them: runs made with the cyclic
    collector off leave none of them for a collection to find (golden_ct
    draws Doob bridges, whose tables expand segments recursively).  An
    unoriented catalog holds its oriented source, a workspace keeps both,
    and it lists the oriented class objects themselves, except for the
    self-reversed classes, whose J doubles and mass halves."""
    data = os.path.join(os.path.dirname(__file__), "data")
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        for name in ("golden_catalog", "golden_mc", "golden_exact",
                     "golden_ct"):
            cfg = parse_config(os.path.join(data, f"{name}.cfg"))
            assert cli.run(cfg, str(tmp_path / name)) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        kept = [o for o in gc.garbage
                if isinstance(o, (LoopCatalog, LoopClass, Counter))
                or isinstance(o, types.FunctionType)
                and o.__module__.startswith("loopsoup")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not kept, sorted({type(o).__name__ for o in kept})
    ws = build_workspace(parse_config(os.path.join(data, "golden_catalog.cfg")))
    cat, ucat = ws.catalog("oriented"), ws.catalog("unoriented")
    assert ucat.counterpart() is cat
    assert ws.catalog("unoriented") is ucat
    inv = cat.unoriented_graph.involution
    for u in ucat.classes:
        c = cat.by_key[u.key]
        if necklace(inv.reverse_path(u.key))[0] != u.key:
            assert u is c
        else:
            assert u == (c.key, c.n, 2 * c.J, c.mass / 2)
