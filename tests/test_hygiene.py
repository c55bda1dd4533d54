"""Checks on the source tree itself: what `import loopsoup` loads, where
imports stand, module-level imports that nothing reads, the names the
benchmark's tracer wraps, and the definitions the command line does not
reach."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy_and_preloads_numpy_random():
    """`import loopsoup, loopsoup.cli` loads no scipy module at all: the
    chi-square tail is computed in pure Python, and scipy's import costs
    most of the package's.  It does load numpy.random, so no random stream
    pays for that import inside a timed run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import loopsoup, loopsoup.cli, json, sys; "
         "print(json.dumps([sorted(m for m in sys.modules "
         "if m.partition('.')[0] == 'scipy'), 'numpy.random' in sys.modules]))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[], True]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in bound.items() if name not in read]


def test_no_unused_module_level_imports():
    """Every module-level import is read somewhere in its module; a package
    `__init__.py` re-exports its imports and is skipped."""
    files = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"]
    assert files
    assert [u for p in files for u in _unused_imports(p)] == []


# Functions under src/ that import inside their body: none.
LOCAL_IMPORTS = set()


def test_imports_stand_at_module_level():
    """No function under src/ imports."""
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, (ast.Import, ast.ImportFrom))
                    for n in ast.walk(fn)):
                found.add(f"{path.relative_to(ROOT)}:{fn.name}")
    assert found == LOCAL_IMPORTS


def test_traced_names_resolve():
    """Every `module.attr[.attr]` in the tracer's TRACED names an object of
    loopsoup, so renaming or deleting a traced function fails here.  The
    tracer's file is read, not imported."""
    path = ROOT / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    assert traced
    missing = []
    for name in traced:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"loopsoup.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


# Definitions under src/ that `cli.main` does not reach, each with what
# needs it.  Keep this exact: code that nothing on this list or the command
# line needs is deleted, not listed.
_BRIDGES = "the bridge-laws workload, criterion 9 and test_bridges"
UNREACHED_FROM_CLI = {
    "bridges.UnorderedBridgeFamily": _BRIDGES,
    "bridges.ZBridgeFamily": _BRIDGES,
    "bridges._check_bridge": _BRIDGES,
    "bridges._family_draw": _BRIDGES,
    "bridges.bridge_probability_exact": _BRIDGES,
    "bridges.sample_unordered_bridge": _BRIDGES + ", demo 03",
    "bridges.sample_z_bridge": _BRIDGES,
    "exact.side_bridge_law": "the benchmark's traced names; goes with its "
                             "entry there (ROADMAP item 1)",
    "exact._side_arrivals_departures": "exact.side_bridge_law",
    "excursions.hookup_loops": "excursions.reassemble, test_verify",
    "excursions.reassemble": "test_excursions, test_verify",
    "gff.sample_gff": "test_verify, demo 04",
    "graph.build_graph": "the bridge-laws workload, tests, conftest",
    "graph.write_graph_file": "test_graph's file round trip",
    "loops.canonicalize_oriented": "tests, demo 01",
    "loops.canonicalize_unoriented": "tests, demo 01",
    "loops.rho_mass": "test_loops, demo 01",
    "soups._chunk_rows": "soups._one_soup, test_soups, test_verify, "
                         "test_wilson",
    "soups._one_soup": "soups.sample_oriented_soup, sample_unoriented_soup",
    "soups.sample_oriented_soup": "test_excursions, test_interfaces, "
                                  "test_soups, test_wilson, demos 02, 03 and "
                                  "05, the benchmark's traced names",
    "soups.sample_unoriented_soup": "test_excursions, test_soups, the "
                                    "benchmark's traced names",
    "wilson.pop_cycles": "the one-soup case of wilson.popped_blocks: "
                         "test_wilson, demo 05, the benchmark's traced names",
    "wilson.wilson_ust": "the one-run case of wilson.wilson_blocks: "
                         "test_wilson, test_verify, demo 05, the benchmark's "
                         "traced names",
}


def _definitions() -> dict:
    """`module.name` -> the names it mentions, for every top-level function,
    class and module-level table under src/loopsoup (a class mentions what
    its methods mention)."""
    defs = {}
    for path in sorted((ROOT / "src" / "loopsoup").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            mentions = {n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute))}
            defs.update((f"{path.stem}.{name}", mentions) for name in names)
    return defs


def test_unreached_definitions_are_listed():
    """A definition reaches every definition of the package whose name it
    mentions, in any module.  What `cli.main` does not reach must be exactly
    UNREACHED_FROM_CLI: new unreached code and stale entries both fail."""
    defs = _definitions()
    by_name: dict = {}
    for qual in defs:
        by_name.setdefault(qual.partition(".")[2], []).append(qual)
    reached, todo = {"cli.main"}, ["cli.main"]
    while todo:
        for name in defs[todo.pop()]:
            new = set(by_name.get(name, ())) - reached
            reached |= new
            todo += new
    assert set(defs) - reached == set(UNREACHED_FROM_CLI)
