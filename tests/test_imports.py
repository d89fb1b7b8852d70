"""Every name a relmon module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule: each source file is
parsed with ast, and an imported name counts as used when the module loads
it anywhere, in an annotation or in a string annotation included, so an
import under ``if TYPE_CHECKING:`` that only annotations read is kept.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relmon"


def imported_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each name an import in tree binds, __future__ aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def annotations(tree: ast.AST) -> list[ast.expr]:
    """Every annotation in tree: of arguments, returns and annotated names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            out.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            out.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name tree loads, with the names in its string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= loaded_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = loaded_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_the_scan_finds_an_unused_import_and_keeps_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Iterator, Sequence\n"
        "from .rel import FinRel, bits\n"
        "if TYPE_CHECKING:\n"
        "    from .monoid import RelMonoid, LaxMorphism\n"
        "def f(rows: Sequence[int]) -> 'Iterator[RelMonoid]':\n"
        "    x: FinRel\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("bits", 4), ("LaxMorphism", 6)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
