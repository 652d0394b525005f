"""Every public name in src/cmpoly is reached by the program, its exports,
the benchmark in perfbench/ or the console script: a name that only tests
call is dead code and is deleted, unless listed in ALLOWED.  Every private
helper is named somewhere in src besides its own def line."""

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
