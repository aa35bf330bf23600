"""Start-up diet: `import zipk0.cli`, `validate` and `k0` load none of the
standard-library modules that the library's value classes, rounding and
command-line parsing once pulled in, the package root loads no submodule,
`validate` loads no module of the Groebner pipeline, and a job loads the
cross-checks (zipk0.checks) only when it runs one."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = {"dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext"}


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
    "argv",
    [["validate", "--group", "SL2"], ["k0", "--group", "SL2", "--mu", "1", "--p", "3"]],
    ids=["validate", "k0"],
)
def test_a_command_loads_no_avoided_module(tmp_path, argv):
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    loaded = _loaded_modules(f"import zipk0.cli\nassert zipk0.cli.main({argv!r}) == 0")
    assert sorted(AVOIDED & (loaded - _loaded_modules(""))) == []


ROOT_DATUM_LAYER = {"zipk0", "zipk0._record", "zipk0.caps", "zipk0.cli", "zipk0.lattice",
                    "zipk0.rootdata"}
PIPELINE = {"zipk0.groebner", "zipk0.grpalg", "zipk0.invariants", "zipk0.zipk"}


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (None, {"zipk0"}),
        (["validate", "--group", "SL2"], ROOT_DATUM_LAYER),
        (["k0", "--group", "SL2", "--mu", "1", "--p", "3"], ROOT_DATUM_LAYER | PIPELINE),
    ],
    ids=["package", "validate", "k0"],
)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, argv, loaded):
    # The package root imports no submodule, validate compiles no module of
    # the Groebner pipeline, and k0 without checks compiles no cross-check.
    code = "import zipk0"
    if argv is not None:
        argv = [*argv, "--out", str(tmp_path / "report.json")]
        code = f"import zipk0.cli\nassert zipk0.cli.main({argv!r}) == 0"
    assert {m for m in _loaded_modules(code) if m.split(".")[0] == "zipk0"} == loaded


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
