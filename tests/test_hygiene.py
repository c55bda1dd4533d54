"""Checks on the source tree itself: what `import loopsoup` loads, where
imports stand, module-level imports that nothing reads, and the names the
benchmark's tracer wraps."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_does_not_load_scipy_stats():
    """scipy.stats costs most of a second to import; only the lejan check
    needs it, and it imports it when run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import loopsoup, loopsoup.cli, sys; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


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


# The one import inside a function: scipy.stats, which only the lejan check
# needs (see test_import_does_not_load_scipy_stats).
LOCAL_IMPORTS = {"src/loopsoup/verify.py:verify_lejan"}


def test_imports_stand_at_module_level():
    """No function under src/ imports, except the lejan check's scipy.stats."""
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
