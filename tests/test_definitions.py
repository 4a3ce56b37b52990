"""Guard against dead code: every module-level definition in the package is used.

A ``def`` or ``class`` at module level in ``src/crashtrace`` must be named,
as a name or an attribute, somewhere in ``src/`` or ``tests/`` besides its
own definition line. Imports do not count, so deleting the last caller of a
helper also flags the helper when its import is left behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crashtrace"


def test_every_module_level_definition_is_used():
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent == PACKAGE:
            defined += [
                (path.name, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []
