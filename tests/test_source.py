"""Checks on the source of the qlevy package itself, read with the stdlib ast."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qlevy"


def unused_imports(source):
    """(line, name) of each name a module imports and never reads.

    A name counts as read if it appears as an identifier anywhere in the
    module; `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: int = os.path.sep\n")
    assert unused_imports(source) == [(3, "regex"), (4, "field")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
