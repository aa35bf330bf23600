"""Every public function and class of the library is referenced by the
library or the benchmark: a name that `src/` and `perfbench/` never use is
dead code, or, if only tests call it, a test oracle that belongs in
`tests/oracles.py`, and a class kept only for tests is a wrapper.  So is
a private function or class that nothing there uses but its own body.  Every
field of a library value class is read there too: a field that nothing reads
is dead weight on every instance.  And every default of a public parameter or
value-class field is overridden by some call there: a value nothing overrides
is a constant."""

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
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
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


def test_every_private_function_and_class_is_referenced():
    defined = []  # (name, file, first line, last line)
    for path in sorted((ROOT / "src" / "zipk0").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined.append((node.name, path, node.lineno, node.end_lineno))
    used = []  # (name, file, line)
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.append((node.id, path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    used.append((node.attr, path, node.lineno))
                elif isinstance(node, ast.alias):
                    used.append((node.name.rsplit(".", 1)[-1], path, node.lineno))
    unused = [
        f"{path.name}:{first} {name}"
        for name, path, first, last in defined
        if not any(n == name and not (p == path and first <= line <= last) for n, p, line in used)
    ]
    assert sorted(unused) == []


def test_every_record_field_is_read():
    fields = {}
    for path in sorted((ROOT / "src" / "zipk0").glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef) and _is_value_class(cls):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        fields[f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"] = node.target.id
    read = set()
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    assert sorted(loc for loc, name in fields.items() if name not in read) == []


def _is_value_class(node: ast.ClassDef) -> bool:
    """Decorated with `record`, the library's frozen value classes, or with
    `dataclass`: either way the constructor takes the annotated fields."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id in ("record", "dataclass"):
            return True
    return False


def _defaulted_knobs():
    """(callable name, position, parameter name, location) of every defaulted
    parameter of a public function or method, and of every defaulted field of
    a library value class (whose constructor is called by the class name)."""
    knobs = []
    for path in sorted((ROOT / "src" / "zipk0").glob("*.py")):
        tree = _parse(path)
        defs = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [(node, 1) for node in cls.body if isinstance(node, ast.FunctionDef)]
            if _is_value_class(cls):
                fields = [node for node in cls.body
                          if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
                for pos, node in enumerate(fields):
                    if node.value is not None:
                        knobs.append((cls.name, pos, node.target.id, f"{path.name}:{node.lineno}"))
        for node, skip in defs:
            if node.name.startswith("_"):
                continue
            params = (node.args.posonlyargs + node.args.args)[skip:]
            first = len(params) - len(node.args.defaults)
            for pos, arg in enumerate(params[first:], start=first):
                knobs.append((node.name, pos, arg.arg, f"{path.name}:{node.lineno}"))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    knobs.append((node.name, len(params), arg.arg, f"{path.name}:{node.lineno}"))
    return knobs


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter or field that no call in `src/` or `perfbench/`
    sets has one value in use: it belongs in a module constant, which a test
    that needs another value can monkeypatch."""
    keywords = set()
    positional = {}
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if starred else len(node.args)
                positional[name] = max(positional.get(name, 0), count)
                for kw in node.keywords:
                    keywords.add((name, kw.arg))  # kw.arg is None for **kwargs
    unset = [
        f"{loc} {name}.{param}"
        for name, pos, param, loc in _defaulted_knobs()
        if pos >= positional.get(name, 0)
        and (name, param) not in keywords and (name, None) not in keywords
    ]
    assert sorted(unset) == []
