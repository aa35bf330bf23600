"""The process entry point: `python -m zipk0.cli` and the `zipk0` script both
run cli.console_entry, which ends the process with os._exit after flushing.
A job run that way writes the same stdout, stderr and --out file bytes, and
exits with the same code, as cli.main in-process; a report that cannot be
written ends in one `output error` line and exit 2."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zipk0.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
MODULE = ["-m", "zipk0.cli"]
# Development mode with every warning an error: a command that imports the
# pipeline as it runs must not write a compile-time warning into its stderr.
DEV_MODULE = ["-X", "dev", "-W", "error", *MODULE]
SCRIPT = ["-c", "from zipk0.cli import console_entry; console_entry()"]  # as the installed script

# (argv, exit code): JSON and text reports, a parse error, a validation
# failure, a resource cap with its partial report, an unknown flag and help.
JOBS = [
    (["k0", "--group", "SL3", "--mu", "1,0", "--p", "3"], 0),
    (["k0", "--group", "GL2", "--mu", "1,0", "--p", "3", "--checks", "kunneth,hecke",
      "--format", "text"], 0),
    (["k0", "--group", "SL2", "--mu", "1,0", "--p", "3"], 2),
    (["validate", "--group", "PGL2"], 3),
    (["k0", "--group", "SL2", "--mu", "1", "--p", "5", "--max-degree", "3"], 4),
    (["k0", "--group", "SL2", "--bogus", "1"], 2),
    (["k0", "--help"], 0),
]


def _process(launcher, argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *launcher, *argv], env=env, timeout=60, **kwargs)


def _in_process(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,code", JOBS, ids=[" ".join(j[0]) for j in JOBS])
def test_process_matches_in_process(capsys, argv, code):
    done = _process(MODULE, argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == _in_process(capsys, argv)
    assert done.returncode == code


@pytest.mark.parametrize("argv,code", JOBS, ids=[" ".join(j[0]) for j in JOBS])
def test_dev_mode_process_matches_in_process(capsys, argv, code):
    done = _process(DEV_MODULE, argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == _in_process(capsys, argv)
    assert done.returncode == code


@pytest.mark.parametrize("argv,code", [JOBS[1], JOBS[4]], ids=["text", "resource-cap"])
def test_out_file_matches_in_process(capsys, tmp_path, argv, code):
    here, there = tmp_path / "in-process", tmp_path / "process"
    assert _in_process(capsys, [*argv, "--out", str(here)])[:2] == (code, "")
    done = _process(MODULE, [*argv, "--out", str(there)], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (code, "")
    assert there.read_bytes() == here.read_bytes() != b""


def test_script_entry_matches_module(capsys):
    argv, code = JOBS[0]
    done = _process(SCRIPT, argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == _in_process(capsys, argv)
    assert done.returncode == code


def test_missing_out_directory_is_an_output_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    argv = ["k0", "--group", "SL2", "--mu", "1", "--p", "3", "--out", str(target)]
    code, out, err = _in_process(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(target) in err
    done = _process(MODULE, argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)


def test_closed_stdout_is_an_output_error():
    # The reader has gone before the job writes: the write or the final
    # flush fails with EPIPE, which is reported once.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for launcher in (MODULE, SCRIPT):
            done = _process(launcher, ["validate", "--group", "SL2"], stdout=write_end,
                            stderr=subprocess.PIPE, text=True)
            assert done.returncode == 2
            assert done.stderr == "output error: [Errno 32] Broken pipe\n"
    finally:
        os.close(write_end)


class _BrokenStream(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [JOBS[0][0], JOBS[4][0]], ids=["report", "partial report"])
def test_failed_stdout_write_in_process(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _BrokenStream())
    code = main(argv)
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "output error: [Errno 32] Broken pipe\n"
