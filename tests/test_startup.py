"""Start-up diet: `import zipk0.cli` loads none of the standard-library
modules that the library's value classes and rounding once pulled in."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = {"dataclasses", "inspect", "fractions", "decimal"}


def _loaded_modules(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


def test_cli_import_loads_no_avoided_module():
    added = _loaded_modules("import zipk0.cli") - _loaded_modules("")
    assert "zipk0.cli" in added
    assert sorted(AVOIDED & added) == []
