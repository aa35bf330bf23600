"""Internal invariants raise real errors: `python -O` strips `assert`."""

from __future__ import annotations

import ast
from pathlib import Path

import zipk0


def test_library_has_no_assert_statements():
    package = Path(zipk0.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
