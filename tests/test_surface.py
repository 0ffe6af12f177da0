"""Every public function, class and method of `slukit` has a caller in the
library or the benchmark, or a planned one, and every private name of
`slukit` has a reader in the library.

The scan parses `src/slukit/*.py` and `bench/*.py` and collects every
public `def` and `class` name in the library, methods included.  A name
counts as used where a `Name`, an `Attribute` or a `from ... import` in
either tree refers to it; tests do not count.  So a helper that only
tests reach fails here, and belongs in `tests/helpers.py` instead.

Two notes:
- It matches identifiers, not bindings, so a name that collides with a
  variable escapes: the benchmark's `wer` variable would have hidden an
  `alignment.wer` that nothing called.
- A change that adds library code for a later caller, such as ROADMAP
  item 1's CRF, lists its new names in `PLANNED` with the item that will
  call them, and the item that brings the caller takes them out.

The private check collects every `_name` (dunders and `_` itself aside)
that a `src/slukit` module binds at module level or in a class body: a
`def`, a `class` or an assignment.  Each must be read, as a `Name`, an
`Attribute` or a `from ... import`, by some `src/slukit` module; tests
and the benchmark do not count.  So a private helper kept alive only for
the tests that call it fails here.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "slukit").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# public names no library or benchmark code calls yet -> the ROADMAP item
# that brings their caller
PLANNED = {
    "write_outputs": "ROADMAP item 2",
    "read_outputs": "ROADMAP item 2",
    "to_json": "ROADMAP item 2",
    "consensus": "ROADMAP item 4",
    "calibration_bins": "ROADMAP item 4",
    "without": "ROADMAP item 5",
}


def _defined(tree):
    """Public def/class names of a module body, methods and nested classes included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
            if isinstance(node, ast.ClassDef):
                yield from _defined(node)


def _referred(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _scan():
    """(public names the library defines, names the library and benchmark refer to)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SRC + BENCH}
    defined = {name for path in SRC for name in _defined(trees[path])}
    referred = {name for tree in trees.values() for name in _referred(tree)}
    return defined, referred


def _private(name):
    return name.startswith("_") and name != "_" and not (
        name.startswith("__") and name.endswith("__"))


def _bound(body):
    """Names a module or class body binds by def, class or assignment, nested classes included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from _bound(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node.id if isinstance(node, ast.Name) else node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_library_name_has_a_reader_in_the_library():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SRC]
    bound = {name for tree in trees for name in _bound(tree.body) if _private(name)}
    read = {name for tree in trees for name in _read(tree)}
    assert bound, "the scan found no private names"
    unread = sorted(bound - read)
    assert not unread, f"private names that no src/slukit module reads: {unread}"


def test_every_public_library_name_has_a_caller():
    defined, referred = _scan()
    unused = sorted(defined - referred - PLANNED.keys())
    assert not unused, f"public names that nothing in src or bench calls: {unused}"


def test_planned_names_are_defined_and_still_waiting():
    defined, referred = _scan()
    assert PLANNED.keys() <= defined
    assert not PLANNED.keys() & referred, "a planned name has its caller: drop it from PLANNED"
