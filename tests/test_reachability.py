"""Every public name in src/cmpoly is reached by the program, its exports,
the benchmark in perfbench/ or the console script: a name that only tests
call is dead code and is deleted, unless listed in ALLOWED.  Every private
helper is referred to somewhere in src, and every name a src module imports
is used in that module.

A reference is read off the AST, so a word in a docstring or a comment
reaches nothing: a name, an attribute, an imported name, a string of
`__all__`, and, in perfbench/, which names the functions it traces by
string, a string of dotted identifiers such as "Inequality.evaluate"."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cmpoly").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
# a console script of pyproject.toml, such as cmpoly = "cmpoly.cli:main"
SCRIPT = re.compile(r'^\w+ = "[\w.]+:(\w+)"$', re.M)

ALLOWED = {}


def is_all(node):
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets)


def references(path, dotted_strings=False):
    """The names the module at path refers to, one per reference."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif is_all(node):
            yield from (elt.value for elt in node.value.elts)
        elif (dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and all(part.isidentifier() for part in node.value.split("."))):
            yield from node.value.split(".")


def defined_names():
    """(name, references in src) of every top-level def and class in src
    and every method of those classes."""
    src = {}
    for path in SOURCES:
        for name in references(path):
            src[name] = src.get(name, 0) + 1
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else ())]:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield node.name, src.get(node.name, 0)


def test_every_public_name_is_reached():
    outside = set(SCRIPT.findall((ROOT / "pyproject.toml").read_text()))
    outside.update(name for path in PERFBENCH for name in references(path, dotted_strings=True))
    unreached = {name for name, uses in defined_names()
                 if not name.startswith("_") and not uses and name not in outside}
    assert sorted(unreached) == sorted(ALLOWED)


def test_no_docstring_reaches_a_name():
    """The word "endpoints" stands in src docstrings, but no code refers to
    it, so it is no reference."""
    assert "endpoints" in "\n".join(path.read_text() for path in SOURCES)
    assert "endpoints" not in {name for path in SOURCES for name in references(path)}


def test_every_private_helper_is_named_in_src():
    private = [(name, uses) for name, uses in defined_names()
               if name.startswith("_") and not name.startswith("__")]
    assert private
    assert [name for name, uses in private if not uses] == []


def test_no_unused_import_in_src():
    """Each name a src module imports is read in it as a name, or, in
    __init__.py, exported through __all__; __future__ imports are exempt."""
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {elt.value for node in ast.walk(tree) if is_all(node) for elt in node.value.elts}
        assert imported, path.name
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []
