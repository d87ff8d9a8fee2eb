"""The sources parse as the oldest Python that ``pyproject.toml`` promises, which the
test machines need not have, the library still has every binding that the benchmark's
tracer replaces, every field it declares is read somewhere, every name it imports is
used, and it declares exactly the third-party modules it reads."""

from __future__ import annotations

import ast
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = tuple(int(x) for x in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
SOURCES = sorted((ROOT / "src" / "fatscreens").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def test_oldest_python_refuses_newer_syntax():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_oldest_python(path):
    ast.parse(path.read_text(), str(path), feature_version=OLDEST)


def _tracer() -> types.ModuleType:
    """``perfbench/tracer.py`` executed from its source, which is left as it is."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    return tracer


def test_tracer_bindings_resolve_and_restore():
    """Each function in ``perfbench/tracer.py``'s ``WRAPPED`` is one object at its home module
    and at every site that binds it, and ``install`` then ``uninstall`` restores every binding
    the tracer replaces.  The tracer is executed from its source, which is left as it is."""
    tracer = _tracer()
    bindings = [(site, name.split(".", 1)[1]) for name, sites in tracer.WRAPPED.items()
                for site in sites]
    bindings += [("holonomy", "mpmath"), ("geometry", "np")]

    def bound():
        return [getattr(tracer._module(site), attr) for site, attr in bindings]

    before = bound()
    for name, sites in tracer.WRAPPED.items():
        home, attr = name.split(".", 1)
        fn = getattr(tracer._module(home), attr)
        assert callable(fn) and all(getattr(tracer._module(s), attr) is fn for s in sites)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert all(now is not old for now, old in zip(bound(), before))
    finally:
        spans.uninstall()
    assert all(now is old for now, old in zip(bound(), before))


def _record_fields(tree: ast.Module):
    """(class, field) for each annotated field of a dataclass or ``NamedTuple`` class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                ast.unparse(n.func if isinstance(n, ast.Call) else n) in ("dataclass", "NamedTuple")
                for n in [*cls.decorator_list, *cls.bases]):
            yield from ((cls.name, stmt.target.id) for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))


def test_every_record_field_is_read():
    """A field that no ``.name`` read in the library, the tests or the benchmark loads is dead:
    it is stored and kept alive for nothing."""
    library = sorted((ROOT / "src" / "fatscreens").glob("*.py"))
    readers = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
    read = {node.attr for path in readers for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    declared = [(path.stem, *field) for path in library
                for field in _record_fields(ast.parse(path.read_text()))]
    assert declared
    assert [d for d in declared if d[2] not in read] == []


def _imported_names(tree: ast.Module):
    """The name that each import in a module binds, but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name) for a in node.names)


def test_every_import_is_used():
    """Each name a library module imports is read there as a name, or is a binding that
    ``perfbench/tracer.py``'s ``WRAPPED`` replaces at that module: a leftover import keeps code
    looking needed that nothing runs."""
    wrapped = {(site, name.split(".", 1)[1]) for name, sites in _tracer().WRAPPED.items()
               for site in sites}
    unused = []
    for path in sorted((ROOT / "src" / "fatscreens").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in _imported_names(tree)
                   if name not in names and (path.stem, name) not in wrapped]
    assert unused == []


def _third_party_reads(tree: ast.Module) -> set[str]:
    """Top-level modules outside the standard library bound by ``import X`` or
    ``X = _lazy_import("X")`` whose binding has an attribute read, or named by ``from X import``."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            read.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "_lazy_import"):
            bound.update((target.id, node.value.args[0].value.split(".")[0])
                         for target in node.targets)
    read |= {bound[node.value.id] for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in bound}
    return read - set(sys.stdlib_module_names)


def test_dependencies_are_the_third_party_modules_read():
    """``pyproject.toml``'s ``dependencies`` are exactly the third-party modules whose attributes
    the library reads: ``holonomy``'s ``mpmath``, which only the benchmark's tracer wraps, reads
    none, and the tests' oracle ``mpmath`` is in the ``test`` extra."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*)\]$", pyproject, re.M).group(1)
    read = set().union(*(_third_party_reads(ast.parse(path.read_text()))
                         for path in sorted((ROOT / "src" / "fatscreens").glob("*.py"))))
    assert read == set(re.findall(r'"([\w.-]+)', declared))


# Public library names that no command and no benchmark module reaches, each with what it
# waits for: a ROADMAP item that gives it a caller, or the tracer binding it serves until the
# tracer reads counters instead (item 1(b)).  The list may only shrink.
UNREACHED = {
    "fatgraph.SubFatgraph": "returned by the tracer-wrapped subgraph (item 1(b))",
    "fatgraph.subgraph": "tracer binding in screens (item 1(b))",
    "screens.relative_boundary": "tracer binding in screens (item 1(b))",
    "holonomy.holonomy": "tracer binding in holonomy (item 1(b))",
    "fatgraph.recurrent_witness_cycles": "recurrent --witness (item 19)",
    "fatgraph.WhiteheadMove": "Ptolemy flips of locate (item 12)",
    "fatgraph.whitehead_move": "Ptolemy flips of locate (item 12)",
    "fatgraph.transport_path": "curves carried through locate's flips (item 12)",
    "geometry.whitehead_transport": "Ptolemy flips of locate (item 12)",
    "fatgraph.canonical_form": "isomorphic cells of locate (item 12) and of top_cells (item 8)",
    "fatgraph.is_isomorphic": "isomorphic cells of locate (item 12)",
    "fatgraph.collapse_edge": "lower-dimensional cells (item 10)",
    "geometry.triangle_inequalities_hold": "refinement of lower-dimensional cells (item 10)",
    "geometry.CyclicPolygon": "refinement of lower-dimensional cells (item 10)",
    "geometry.cyclic_polygon": "refinement of lower-dimensional cells (item 10)",
    "geometry.Refinement": "refinement of lower-dimensional cells (item 10)",
    "geometry.refine_to_trivalent": "refinement of lower-dimensional cells (item 10)",
    "holonomy.one_left_turn_trace": "base case of decay rates (item 4)",
}


def _references(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node`` reads, but in type annotations."""
    names, todo = set(), [node]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        todo += [v for key, value in ast.iter_fields(n) if key not in ("annotation", "returns")
                 for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST)]
    return names


def test_unreached_public_names_are_allow_listed():
    """Each public top-level function or class of the library that no ``cli.py`` function, no
    module-level statement and no ``perfbench/*.py`` module reaches, by name and through the
    definitions it reaches in turn, is in ``UNREACHED``, and each entry there is unreached."""
    library = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "fatscreens").glob("*.py"))}
    defs, todo = {}, []
    for stem, tree in library.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            if stem == "cli" or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                todo += _references(node)     # module-level code runs on import
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        todo += _references(ast.parse(path.read_text()))
    reached = set()
    while todo:
        if (name := todo.pop()) in defs and name not in reached:
            reached.add(name)
            todo += set().union(*map(_references, defs[name]))
    unreached = {f"{stem}.{node.name}" for stem, tree in library.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_") and node.name not in reached}
    assert sorted(unreached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - unreached) == []
