"""Every public name in src/cmpoly is reached by the program, its exports,
the benchmark in perfbench/ or the console script: a name that only tests
call is dead code and is deleted, unless listed in ALLOWED.  Every private
helper is named somewhere in src besides its own def line, and every name a
src module imports is used in that module."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cmpoly").glob("*.py"))
OUTSIDE = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "pyproject.toml"]

ALLOWED = {}


def defined_names():
    """(name, uses in src beyond its def line) of every top-level def and
    class in src and every method of those classes."""
    src = "\n".join(path.read_text() for path in SOURCES)
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        for top in ast.parse(text).body:
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else ())]:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    word = re.compile(rf"\b{node.name}\b")
                    own = len(word.findall(lines[node.lineno - 1]))
                    yield node.name, len(word.findall(src)) - own


def test_every_public_name_is_reached():
    outside = "\n".join(path.read_text() for path in OUTSIDE)
    unreached = {name for name, uses in defined_names()
                 if not name.startswith("_") and not uses
                 and not re.search(rf"\b{name}\b", outside)}
    assert sorted(unreached) == sorted(ALLOWED)


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
        used |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        assert imported, path.name
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []
