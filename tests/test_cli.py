import json
import os
import subprocess
import sys

import pytest

from loopsoup.cli import main
from loopsoup.config import (ConfigError, build_workspace, config_from_dict,
                             job_seed, parse_config)


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
    assert cfg.graph_spec == "complete:5"
    assert cfg.domain_vertices == (1, 2, 3)
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


def test_random_currents_without_inner_edges_exits_2(tmp_path):
    # vertices 1 and 3 of the 5-cycle share no edge: no current to test
    out = tmp_path / "rc"
    rc = main(["verify", "random-currents", "--graph", "cycle:5", "--domain",
               "1 3", "--samples", "2000", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert not (out / "report.json").exists()


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


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    rc = main(["run", missing, "--out", str(tmp_path / "none")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.cfg" in err
    assert not (tmp_path / "none").exists()


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


def test_verify_lejan_one_site(tmp_path):
    """A one-site domain takes the Wick moment on the diagonal pair and
    writes a report instead of ending in a traceback."""
    out = tmp_path / "lejan1"
    rc = main(["verify", "lejan", "--graph", "complete:5", "--domain", "1",
               "--alpha", "1/2", "--seed", "0", "--samples", "20000",
               "--out", str(out)])
    assert rc in (0, 1)
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    assert rep["prop"] == "lejan"
