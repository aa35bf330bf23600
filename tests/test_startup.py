"""Start-up diet: `import zipk0.cli` loads none of the standard-library
modules that the library's value classes and rounding once pulled in, and
a job loads the cross-checks (zipk0.checks) only when it runs one."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (None, False),
        (["validate", "--group", "SL2"], False),
        (["k0", "--group", "SL2", "--mu", "1", "--p", "3"], False),
        (["k0", "--group", "SL2", "--mu", "1", "--p", "3", "--checks", "hecke"], True),
    ],
    ids=["import", "validate", "k0", "k0 hecke"],
)
def test_checks_load_only_for_a_check(tmp_path, argv, loaded):
    code = "import zipk0.cli"
    if argv is not None:
        argv = [*argv, "--out", str(tmp_path / "report.json")]
        code += f"\nassert zipk0.cli.main({argv!r}) == 0"
    assert ("zipk0.checks" in _loaded_modules(code)) is loaded
