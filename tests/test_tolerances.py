"""Every numeric threshold lives in ``Tolerances``, and every field there is
read by the package: a field nothing reads is a setting that does nothing."""

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
