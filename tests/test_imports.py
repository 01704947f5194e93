"""Every imported name is used: a lint for unused imports on stdlib ``ast``.

The package's ``__init__.py`` is left out, since it imports to re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "bimodcat").glob("*.py"))
           if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """(line, name) of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_lint_finds_an_unused_import():
    assert unused_imports("import os\nimport json\njson.dumps(1)\n") == [
        (1, "os")]
    assert unused_imports("from a.b import c as d, e\ne()\n") == [(1, "d")]
    assert unused_imports("import numpy.linalg\nnumpy.linalg.norm\n") == []


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
