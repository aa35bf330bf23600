"""The benchmark's traced path: perfbench/tracer.py runs one CLI job in a fresh
process with every layer wrapped, and its report must be the one the
unwrapped CLI prints."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from zipk0.cli import main

ROOT = Path(__file__).resolve().parents[1]
ARGV = ["k0", "--group", "SL3", "--mu", "1,2", "--p", "3",
        "--checks", "kunneth,theta,hecke,steinberg"]


def _layers() -> tuple[str, ...]:
    """The tracer's LAYERS, read from its source: importing it would write a
    bytecode cache under perfbench/."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")


def test_traced_job_reports_what_the_cli_prints(capsys):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), "0", *ARGV],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    assert main(ARGV) == traced["exit"] == 0
    assert traced["report"] == capsys.readouterr().out
    assert {span[0].split(".")[0] for span in traced["spans"]} >= set(_layers())
