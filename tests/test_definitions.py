"""Guard against dead code: every module-level definition in the package is used.

A ``def``, ``class`` or assigned constant at module level in
``src/crashtrace`` must be named, as a name or an attribute, somewhere in
``src/`` or ``tests/`` besides its own definition line; dunder names such as
``__version__`` are exempt. Imports and assignments do not count as uses, so
deleting the last caller of a helper also flags the helper when its import is
left behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crashtrace"


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def test_every_module_level_definition_is_used():
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent == PACKAGE:
            defined += [(path.name, name) for node in tree.body for name in _defined_names(node)
                        if not (name.startswith("__") and name.endswith("__"))]
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []
