"""No API that nothing calls: every function, class, method and dataclass or
NamedTuple field of ``src/cyclotest`` that nothing in ``src/`` or ``bench/``
reads is on an explicit list, each with the reason it stays; and no import
that its module does not read.

A module-level name counts as read where it is loaded as a name or an
attribute, a method or field only where it is loaded as an attribute, and
either where a string constant spells it (``getattr``, and the names that
``bench/`` wraps or patches).  Reads match by name alone, so a method is read
when any method of that name is.  Its own definition, reads inside that
definition and keyword arguments do not count.  Dunder methods are called by
Python itself and are not listed.  The package root re-exports nothing: a
re-export is an API that nothing calls, so the modules are the only API.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cyclotest"

# name -> why it stays although nothing in src/ or bench/ reads it
UNREFERENCED = {
    "contracts.Verdict.mismatches": "a failing run's expected against actual (ROADMAP item 6)",
    "dsl.parse_expression": "the tests' round-trip reference for printed conditions",
    "interp.DecisionRecord.conditions": "the condition vector, which coverage unpacks by "
                                        "position; the tests read it by name",
    "reduction.PiecemealPart.case_ids": "the test cases inside a part, which the tests check",
}


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its annotated class attributes are fields."""
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)


def _definitions(path: Path, tree: ast.Module):
    """(qualified name, name, node, is a member) of each module-level function
    and class, each method, and each field of a record class."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (module, node.name), node.name, node, False
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                yield "%s.%s.%s" % (module, node.name, item.name), item.name, item, True
            elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                  and _is_record(node)):
                yield ("%s.%s.%s" % (module, node.name, item.target.id), item.target.id, item,
                       True)


def _reads(tree: ast.Module):
    """(name, line, whether it can read a member: an attribute or a string)
    of each read in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno, True


def unreferenced_names() -> set:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))}
    definitions = [(path, definition) for path, tree in trees.items()
                   if path.parent == PACKAGE for definition in _definitions(path, tree)]
    # per file, the line spans of the definitions of each name
    spans: dict = {}
    for path, (_, name, node, _) in definitions:
        spans.setdefault((path, name), []).append((node.lineno, node.end_lineno))
    read = {(name, as_member) for path, tree in trees.items()
            for name, line, as_member in _reads(tree)
            if not any(lo <= line <= hi for lo, hi in spans.get((path, name), ()))}
    return {qualified for _, (qualified, name, _, member) in definitions
            if (name, True) not in read and (member or (name, False) not in read)}


def test_every_unreferenced_name_is_listed_with_a_reason():
    found = unreferenced_names()
    assert sorted(found - set(UNREFERENCED)) == [], "read by nothing in src/ or bench/"
    assert sorted(set(UNREFERENCED) - found) == [], "read now: drop it from UNREFERENCED"
    assert all(UNREFERENCED.values())


def test_package_root_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, "the package root imports or defines nothing"


def test_every_import_is_used():
    # each name that an import binds in src/cyclotest or tests/ is loaded
    # somewhere in its module; ``from __future__`` only sets compiler flags
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += ["%s:%d %s" % (path.relative_to(ROOT), node.lineno, bound)
                           for bound in (alias.asname or alias.name.partition(".")[0]
                                         for alias in node.names)
                           if bound not in loaded]
    assert unused == []
