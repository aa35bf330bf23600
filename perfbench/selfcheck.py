"""Self-check of the benchmark's own gates; not part of the test suite.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It exits nonzero unless all three hold:
  1. the mod-l torsion oracle refutes Sp4 mu=0 p=3 and accepts SL2 mu=1 p=3;
  2. the closed-form rank gate accepts SL3 mu=(1,0) p=3, whose rank is 54;
  3. a traced `checks` job records calls to zipk.compute_k0_torus,
     groebner.strong_groebner and lattice.smith_normal_form, so no layer's
     wrapper was bypassed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from gates import mod_l_dimension, report_failures, torsion_failures
from ladder import CHECKS_ALL, Job, closed_form_rank
from tracer import add_job_spans

HERE = Path(__file__).resolve().parent


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok: {what}")


def k0_report(job: Job) -> bytes:
    from zipk0.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(job.argv())
    if code != 0:
        raise SystemExit(f"selfcheck FAILED: {job.name} exited {code}")
    return out.getvalue().encode()


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "zipk0" / "cli.py").is_file():
        print("selfcheck.py: run it from the root of a zipk0 checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    sp4 = json.loads(k0_report(Job("Sp4", (0, 0), 3, ())))
    expect(torsion_failures(sp4) != [], "torsion oracle refutes Sp4 mu=0,0 p=3")
    sl2 = json.loads(k0_report(Job("SL2", (1,), 3, ())))
    expect(torsion_failures(sl2) == [], "torsion oracle accepts SL2 mu=1 p=3")
    # The report is torsion-free, so the oracle has no prime to test; its
    # dimension count must still give the rank modulo any prime.
    relations, names = sl2["presentation"]["relations"], sl2["presentation"]["variables"]
    rank = sl2["module"]["rank"]
    expect(all(mod_l_dimension(relations, names, ell, rank) == rank for ell in (2, 3)),
           "mod-l dimension of SL2 mu=1 p=3 equals its rank for l = 2, 3")

    sl3 = Job("SL3", (1, 0), 3, ())
    report = k0_report(sl3)
    rank = json.loads(report)["module"]["rank"]
    expect(closed_form_rank("SL3", 3, json.loads(report)["levi"]["weyl_order"]) == 54
           and rank == 54 and report_failures(sl3, 0, report) == [],
           "closed-form rank gate accepts SL3 mu=1,0 p=3 at rank 54")

    job = Job("SL2", (1,), 5, CHECKS_ALL)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), "0", *job.argv()],
                          capture_output=True, env=env, timeout=120, check=False)
    traced = json.loads(proc.stdout)
    acc: defaultdict = defaultdict(float)
    add_job_spans(acc, traced["spans"])
    for name in ("zipk.compute_k0_torus", "groebner.strong_groebner", "lattice.smith_normal_form"):
        expect(acc[f"{name}.calls"] > 0, f"traced {job.name} records {name} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
