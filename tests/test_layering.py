"""Modules use each other only through public names, and check their
conditions with statements that ``python -O`` keeps."""

import ast
from pathlib import Path

import redukto

PACKAGE = Path(redukto.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        local = node.level > 0 or (node.module or "").startswith("redukto")
        for alias in node.names:
            if local and alias.name.startswith("_"):
                found.append("%s:%d imports %s" % (path.name, node.lineno, alias.name))
    return found


def test_no_module_imports_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offences = [line for path in modules for line in _private_imports(path)]
    assert offences == []


def _asserts(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        "%s:%d asserts" % (path.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def test_no_module_asserts():
    offences = [line for path in sorted(PACKAGE.glob("*.py")) for line in _asserts(path)]
    assert offences == []
