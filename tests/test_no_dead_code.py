"""Every public function of the library is referenced by the library or the
benchmark: a name that `src/` and `perfbench/` never use is dead code, or, if
only tests call it, a test oracle that belongs in `tests/oracles.py`."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_function_is_referenced():
    defined = {}
    for path in sorted((ROOT / "src" / "zipk0").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    used = set()
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
    assert sorted(f"{loc} {name}" for name, loc in defined.items() if name not in used) == []
