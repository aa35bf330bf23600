"""No library module imports an underscore name from a sibling module: a
name that two modules share is public, and a helper that another module
needs belongs to what its owner exposes.  The one underscore module that is
imported is `_record`, for its public decorator `record`."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zipk0"
SHARED_PRIVATE_MODULES = {"_record"}


def test_no_underscore_name_is_imported_from_a_sibling():
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if not (node.level or module.split(".")[0] == "zipk0"):
                continue  # the standard library's names are not ours
            leaf = module.rsplit(".", 1)[-1]
            if leaf.startswith("_") and leaf not in SHARED_PRIVATE_MODULES:
                crossings.append(f"{path.name}:{node.lineno} {module}")
            crossings += [
                f"{path.name}:{node.lineno} {module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and alias.name not in SHARED_PRIVATE_MODULES
            ]
    assert crossings == []
