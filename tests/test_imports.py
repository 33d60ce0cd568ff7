"""Every name a module of rfe imports is used there (no linter is installed),
and only rfe.harness imports the thread modules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rfe"

# module -> names it imports on purpose without using them, each with its reason
ALLOWED = {
    # a benchmark tracer wraps rfe.harness.run_rfe by module global and reads
    # it without a fallback
    "harness": {"run_rfe"},
}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return set(imported) - used


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path) == ALLOWED.get(path.stem, set())


# thread_map in rfe.harness is the only code that builds a pool or reads threads
THREAD_MODULES = {"concurrent", "threading"}


def _top_level_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "harness"],
                         ids=lambda p: p.stem)
def test_only_harness_imports_thread_modules(path):
    assert _top_level_imports(path) & THREAD_MODULES == set()
