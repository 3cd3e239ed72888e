"""The package runs on one thread: no module imports a thread or process
pool, so every run does its floating-point work in one order and repeats
bit for bit."""

import ast
from pathlib import Path

import flatpwa

PACKAGE = Path(flatpwa.__file__).parent
CONCURRENT = ("concurrent.futures", "threading", "multiprocessing")


def _imported_modules(path):
    """Every module one file imports, as (line, dotted name) pairs; ``from a
    import b`` yields both ``a`` and ``a.b``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_no_module_imports_a_pool():
    hits = [f"{path.relative_to(PACKAGE)}:{line} {name}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for line, name in _imported_modules(path)
            if any(name == c or name.startswith(c + ".") for c in CONCURRENT)]
    assert not hits, f"thread or process pools imported: {hits}"
