"""Guards on the package's shape: no dead code, and checks that raise their own exclusions.

Dead code: a ``def``, ``class`` or assigned constant at module level in
``src/crashtrace`` must be named, as a name or an attribute, somewhere in
``src/`` or ``tests/`` besides its own definition line; dunder names such as
``__version__`` are exempt. Imports and assignments do not count as uses, so
deleting the last caller of a helper also flags the helper when its import is
left behind.

Unused imports: every name a ``src/crashtrace`` module imports must be read in
that module, unless its import line carries ``# noqa: F401`` (a name kept for
code that patches or reads it from outside). ``from __future__`` is exempt.
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


def test_every_imported_name_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unread.append(f"{path.name}:{alias.lineno}: {name}")
    assert unread == []


def test_reconstruct_raises_only_the_replay_verdicts():
    """A check that ends a case raises its exclusion itself; ``_reconstruct``
    only calls the checks, and raises the two verdicts it reads from the
    replay score."""
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_reconstruct"]
    raised = [ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for node in ast.walk(body) if isinstance(node, ast.Raise)]
    assert raised == ["errors.FailedToCollide", "errors.ValidationFailed"]
