"""Checks a linter would make, since none is installed: every name a module
of rfe imports is used there, only rfe.harness imports the thread modules,
the rfe modules import each other without a cycle and the leaf modules import
none, every top-level name is defined in one module and read in src, and no
line runs past MAX_LINE; no module touches the C allocator; and the module
globals rfebench patches are bound."""

import ast
import graphlib
import importlib
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


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _rfe_imports(tree: ast.Module) -> set:
    """The rfe modules a module imports, at the top or inside a function."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rfe."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("rfe."))
    return names


IMPORT_GRAPH = {stem: _rfe_imports(tree) for stem, tree in TREES.items()}


def test_rfe_modules_import_each_other_without_a_cycle():
    # a cycle makes the import order decide which names exist yet
    list(graphlib.TopologicalSorter(IMPORT_GRAPH).static_order())


@pytest.mark.parametrize("stem", ["noise", "sampler"])
def test_leaf_modules_import_no_rfe_module(stem):
    # the models and the outcome sampler sit under every other layer
    assert IMPORT_GRAPH[stem] == set()


# numpy's complex dtypes, by the names a module can spell them
COMPLEX_DTYPES = {"complex", "complex64", "complex128", "complex256", "csingle", "cdouble",
                  "clongdouble", "complexfloating"}


def test_sampler_leaves_the_sum_buffer_to_the_estimator():
    # the sampler returns plain sums; rfe.estimator alone allocates the
    # complex buffer and decides where each time's sums go in it
    tree = TREES["sampler"]
    assert {word for node in ast.walk(tree) for word in _words(node)} & COMPLEX_DTYPES == set()
    parameters = {arg.arg for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                  for arg in (*node.args.args, *node.args.kwonlyargs)}
    assert parameters & {"out", "slots"} == set()


def _definitions(tree: ast.Module) -> set:
    """Names of the module's top-level functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names.update(elt.id for elt in elts if isinstance(elt, ast.Name))
    return names


def _read_names(tree: ast.Module) -> set:
    """Every name the module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _unread_definitions(private: bool) -> set:
    """module.name for each public (or private, dunders aside) top-level name
    that no module in src reads."""
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    return {f"{stem}.{name}" for stem, tree in TREES.items()
            for name in _definitions(tree) - read
            if name.startswith("_") == private and not name.startswith("__")}


def test_every_public_name_is_read_in_src():
    # a public name that only tests read is a helper the program does not need
    assert _unread_definitions(private=False) == set()


def test_every_private_name_is_read_in_src():
    # a private helper that nothing calls is left over from a rewrite
    assert _unread_definitions(private=True) == set()


def test_no_name_is_defined_in_two_modules():
    # a second definition can drift from the first; import the one instead
    owners = {}
    for stem, tree in TREES.items():
        for name in _definitions(tree):
            owners.setdefault(name, []).append(stem)
    assert {name: stems for name, stems in owners.items() if len(stems) > 1} == {}


MAX_LINE = 100


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_line_is_longer_than_max_line(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [number for number, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []


# Allocator settings act on the whole host process, so a library must not
# make them: speed is to come from rfe's own code, never from ctypes calls
# into libc or MALLOC_* variables.
ALLOCATOR_WORDS = ("mallopt", "MALLOC_")


def _words(node: ast.AST) -> list:
    """The module names a node imports, or the name, attribute or string it
    holds."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _allocator_uses(tree: ast.Module) -> list:
    """(line, word) for each ctypes import or use and each word that names
    an allocator setting."""
    return [(node.lineno, word) for node in ast.walk(tree) for word in _words(node)
            if word.split(".")[0] == "ctypes" or any(w in word for w in ALLOCATOR_WORDS)]


@pytest.mark.parametrize("stem", sorted(TREES))
def test_no_module_sets_the_allocator(stem):
    assert _allocator_uses(TREES[stem]) == []


def test_the_allocator_guard_sees_each_form():
    source = ("import ctypes\nfrom ctypes import CDLL\nimport importlib\n"
              "libc.mallopt(-3, 1)\nos.environ['MALLOC_ARENA_MAX'] = '1'\n"
              "importlib.import_module('ctypes')\n")
    assert [line for line, _ in _allocator_uses(ast.parse(source))] == [1, 2, 4, 5, 6]


# rfebench's AllocProbe patches run_rfe by module global in these three
# modules and reads it with no fallback, so a traced benchmark run (--trace 1)
# breaks if one of them stops binding the estimator's run_rfe
@pytest.mark.parametrize("module", ["rfe.estimator", "rfe.harness", "rfe.verify"])
def test_run_rfe_is_a_module_global(module):
    estimator = importlib.import_module("rfe.estimator")
    assert importlib.import_module(module).run_rfe is estimator.run_rfe
