"""No library or test module imports a name it never uses (`__init__`
re-exports), the library defines no top-level name that nothing in
src/, tests/ or bench/ refers to, and each library module imports only
the `hillwalk` modules of its layer; the CLI imports no mpmath."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hillwalk

MODULES = sorted(p for p in Path(hillwalk.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
REPO = Path(__file__).parents[1]


def _annotation_names(tree):
    """Names inside string annotations such as -> "GaussianRational"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            yield from (n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name if p in MODULES else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    assert sorted(imported - used) == []


def _top_level_names(tree):
    """The functions, classes and constants a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


@functools.lru_cache(maxsize=None)
def _references():
    """Every name read, every attribute, and every string that is an
    identifier (bench/tracer.py names the functions it wraps) in src/,
    tests/ and bench/.  An import is no reference: a re-export in
    `__init__` keeps nothing alive, and elsewhere an import is used by a
    name (test_no_unused_imports)."""
    paths = [path for top in ("src", "tests", "bench") for path in (REPO / top).rglob("*.py")]
    return frozenset(name for path in paths for name in _reads(path))


def _reads(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    dead = [name for name in _top_level_names(ast.parse(path.read_text()))
            if name not in _references() and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []


# the hillwalk modules each library module may import: spectra solves its
# reductions with the Schur-complement kernel and sums no walks, and
# criteria sums its weights straight from the walk engine, with no tails
LAYERS = {
    "__init__": {"beta", "criteria", "numerics", "potential", "spectra", "verify", "walks"},
    "__main__": {"cli"},
    "numerics": set(),
    "potential": {"numerics"},
    "walks": {"numerics", "potential"},
    "beta": {"numerics", "potential", "walks"},
    "spectra": {"numerics", "potential"},
    "criteria": {"numerics", "potential", "spectra", "walks"},
    "verify": {"beta", "numerics", "potential", "spectra", "walks"},
    "cli": {"beta", "criteria", "numerics", "potential", "spectra", "verify", "walks"},
}


def _hillwalk_imports(tree):
    """The hillwalk modules a module imports, relatively or by package name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            yield from [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hillwalk."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("hillwalk."))


@pytest.mark.parametrize("path", sorted(Path(hillwalk.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_module_layers(path):
    assert set(_hillwalk_imports(ast.parse(path.read_text()))) == LAYERS[path.stem]


def _stderr_of(child):
    """What a fresh interpreter running `child` with this hillwalk prints to stderr."""
    paths = [str(Path(hillwalk.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env).stderr


@pytest.mark.parametrize("args", [
    ["--preset", "thm31"],
    ["--preset", "crit-compare"],
    ["--potential", '{"a":"1","b":"1","R":1,"S":3}', "--delta", "explicit:5,8,11,14"],
], ids=["thm31", "crit-compare", "criterion1"])
def test_verdict_loads_no_numpy(args):
    """numpy is imported only where a truncation is assembled; no verdict
    path assembles one, the concordance's refinement and the first
    criterion's disc bound included."""
    child = ("import sys\nfrom hillwalk import cli\n"
             f"code = cli.main(['verdict', *{args!r}])\n"
             "print(code, 'numpy' in sys.modules, file=sys.stderr)")
    assert _stderr_of(child) == "0 False\n"


@pytest.mark.parametrize("code", [
    "from hillwalk import cli\nassert cli.main(['verdict', '--preset', 'thm5']) == 0",
    "from hillwalk import cli\nassert cli.main(['verdict', '--preset', 'prop20']) == 0",
    "import hillwalk\npot, _ = hillwalk.two_term(1, 1, 1, 1)\n"
    "hillwalk.eigenvalues(hillwalk.assemble(pot, 'per+', 32))",
], ids=["thm5", "prop20", "assemble"])
def test_mpmath_loads_only_where_a_number_is_refined(code):
    """mpmath is imported inside the functions that refine or render a
    number at arbitrary precision, so the exact verdicts and a hardware
    eigensolve never load it."""
    child = ("import contextlib, io, sys\nwith contextlib.redirect_stdout(io.StringIO()):\n"
             + "".join(f"    {line}\n" for line in code.splitlines())
             + "print('mpmath' in sys.modules, file=sys.stderr)")
    assert _stderr_of(child) == "False\n"


def test_cli_imports_no_mpmath():
    """The CLI prints exact values only through `numerics.printed`, so how a
    number becomes text is decided in one module."""
    tree = ast.parse((Path(hillwalk.__file__).parent / "cli.py").read_text())
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [m for m in modules if m.split(".")[0] == "mpmath"] == []
