"""Every numeric threshold lives in ``Tolerances`` and is read from
``DEFAULT``: every field there is read by the package (a field nothing reads
is a setting that does nothing), and no function or record takes its own."""

import ast
from dataclasses import fields
from pathlib import Path

import flatpwa
from flatpwa.tolerances import Tolerances

PACKAGE = Path(flatpwa.__file__).parent


def _attributes_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_tolerance_is_read():
    read = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name != "tolerances.py":
            read |= _attributes_read(path)
    unread = [f.name for f in fields(Tolerances) if f.name not in read]
    assert not unread, f"Tolerances fields read nowhere in the package: {unread}"


def _tolerance_knobs(path):
    """Parameters named ``tol``/``tol_feas`` and fields annotated
    ``Tolerances`` in one module, as (line, name) pairs."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg in ("tol", "tol_feas"):
            hits.append((node.lineno, node.arg))
        elif isinstance(node, ast.AnnAssign) and "Tolerances" in ast.unparse(node.annotation):
            hits.append((node.lineno, ast.unparse(node.target)))
    return hits


def test_no_tolerance_is_passed_around():
    # the package judges feasible, empty and optimal by DEFAULT alone: a
    # per-call record would let a QP be factored under one set of
    # thresholds and solved under another
    hits = [f"{path.relative_to(PACKAGE)}:{line} {name}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for line, name in _tolerance_knobs(path)]
    assert not hits, f"tolerances taken as parameters or fields: {hits}"
