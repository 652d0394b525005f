"""Every public name in src/cmpoly is reached by the program, its exports,
the benchmark in perfbench/ or the console script: a name that only tests
call is dead code and is deleted, unless listed in ALLOWED."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cmpoly").glob("*.py"))
OUTSIDE = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "pyproject.toml"]

ALLOWED = {
    "class_histogram": "acceptance criterion 1 counts the j26 facet classes with it",
    "root_gap_report": "acceptance criterion 9 reads root bounds; ROADMAP item 2 extends it",
}


def test_every_public_name_is_reached():
    src = "\n".join(path.read_text() for path in SOURCES)
    outside = "\n".join(path.read_text() for path in OUTSIDE)
    unreached = set()
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        for top in ast.parse(text).body:
            # top-level defs and classes, and the methods of those classes
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else ())]:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        or node.name.startswith("_"):
                    continue
                word = re.compile(rf"\b{node.name}\b")
                own = len(word.findall(lines[node.lineno - 1]))
                if len(word.findall(src)) == own and not word.search(outside):
                    unreached.add(node.name)
    assert sorted(unreached) == sorted(ALLOWED)
