"""Ladder benchmark for the `zipk0` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 40 --trace 0

Each pass runs the workload's jobs (see ladder.py) one at a time, each as a
fresh `python -m zipk0.cli` process: a closed loop with one client and one
job in flight.  Passes repeat while the next one is expected to end within
--seconds, with at least two so that report bytes can be compared.  A pass's
time is the sum of its jobs' process wall times, as spawn.py measures them.

--trace 0 reports the end-to-end metrics (medians over passes).
--trace 1 alternates an untraced pass with a traced one (tracer.py) and
reports the per-layer metrics of the traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from gates import report_failures, torsion_failures
from ladder import EXCLUDED, KNOWN_TORSION_DEFECTS, WORKLOADS, Job, make_jobs
from tracer import add_job_spans, finish_pass

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2            # untraced passes; their report bytes are compared
SETUP_REPEATS = 11        # setup samples, one before each of the first jobs
JOB_CAP_S = 60.0          # a job over this wall time is killed and fails
RUN_DEADLINE_S = 150.0    # no job starts after this; the run must end in 180 s
ORACLE_DEADLINE_S = 170.0 # the torsion oracle stops here

END_TO_END_UNITS = {
    "ladder_s": "s",
    "ladder_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "torsion_ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "cli.main.total_s": "s",
    "cli.render_json.self_s": "s",
    "rootdata.self_s": "s",
    "rootdata.weyl_enumerate.calls": "count",
    "rootdata.dominant_hilbert_basis.calls": "count",
    "grpalg.self_s": "s",
    "grpalg.orbit_sum.calls": "count",
    "grpalg.hecke_invariants_window.self_s": "s",
    "invariants.express_invariant.calls": "count",
    "invariants.express_invariant.self_s": "s",
    "invariants.invariant_ring.calls": "count",
    "invariants.steinberg_freeness_check.self_s": "s",
    "groebner.strong_groebner.calls": "count",
    "groebner.strong_groebner.self_s": "s",
    "groebner.strong_groebner.basis_out": "count",
    "groebner.strong_groebner.distinct_frac": "frac",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.completion_s": "s",
    "groebner.normal_form.membership_s": "s",
    "groebner.eliminate.self_s": "s",
    "groebner.quotient_z_module.self_s": "s",
    "lattice.smith_normal_form.calls": "count",
    "lattice.smith_normal_form.self_s": "s",
    "lattice.solve_linear_diophantine.calls": "count",
    "lattice.self_s": "s",
    "zipk.levi_presentation_ring.total_s": "s",
    "zipk.compute_k0.calls": "count",
    "zipk.compute_k0_torus.calls": "count",
    "zipk.compute_k0_torus.total_s": "s",
    "zipk.kunneth_rank_check.total_s": "s",
    "zipk.theta_map_check.total_s": "s",
    "zipk.hecke_check.total_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "frac",
}


@dataclass
class ProcResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_process(argv: list[str], env: dict, cap_s: float) -> ProcResult:
    """Run one process through spawn.py, which reports its wall time, CPU
    time and peak RSS; kill it at the cap (exit code -9)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py"), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + cap_s - time.perf_counter()
                if remaining <= 0 and not killed:
                    os.killpg(proc.pid, signal.SIGKILL)
                    killed = True
                for key, _ in sel.select(None if killed else remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        # Interrupted: take the job down with us before re-raising.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    proc.wait()
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    err, sep, line = err.rpartition(b"\nspawn ")
    if not sep:  # killed at the cap, or the launcher itself failed
        code = -signal.SIGKILL if killed else proc.returncode or 1
        return ProcResult(code, out, err + line, time.perf_counter() - start, 0.0, 0.0)
    code, wall, cpu, maxrss_kib = line.split()
    return ProcResult(int(code), out, err, float(wall), float(cpu), int(maxrss_kib) / 1024.0)


class Ladder:
    """One benchmark run: the jobs, the environment and the gate results."""

    def __init__(self, workload: str, seed: int, src: Path, setup_samples: int):
        self.jobs = make_jobs(workload, seed)
        self.setup_samples = setup_samples
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_DEADLINE_S
        self.first_report: dict[Job, bytes] = {}
        self.failures: dict[Job, list[str]] = defaultdict(list)
        self.attempts: dict[Job, int] = defaultdict(int)
        self.fails: dict[Job, int] = defaultdict(int)
        self.job_walls: dict[Job, list[float]] = defaultdict(list)
        self.setups: list[float] = []

    def fail(self, job: Job, reasons: list[str]) -> None:
        self.fails[job] += 1
        self.failures[job].extend(r for r in reasons if r not in self.failures[job])

    def cap(self) -> float:
        return max(min(JOB_CAP_S, self.deadline - time.perf_counter()), 0.0)

    def cli(self, args: list[str]) -> ProcResult:
        return run_process([sys.executable, "-m", "zipk0.cli", *args], self.env, self.cap())

    def record(self, job: Job, exit_code: int, report: bytes) -> None:
        self.attempts[job] += 1
        reasons = report_failures(job, exit_code, report)
        if exit_code == 0:
            first = self.first_report.setdefault(job, report)
            if first != report:
                reasons.append("report bytes differ between passes")
        if reasons:
            self.fail(job, reasons)

    def skip(self, job: Job) -> None:
        self.attempts[job] += 1
        self.fail(job, ["not started: run deadline reached"])

    def untraced_pass(self) -> dict:
        """One pass; setup samples are interleaved with the jobs so that they
        span the run rather than one moment of it."""
        runs = []
        for job in self.jobs:
            if time.perf_counter() >= self.deadline:
                self.skip(job)
                continue
            if len(self.setups) < self.setup_samples:
                self.setups.append(self.cli(["validate", "--group", "SL2"]).wall_s)
            res = self.cli(job.argv())
            self.record(job, res.exit_code, res.stdout)
            self.job_walls[job].append(res.wall_s)
            runs.append(res)
        return {
            "ladder_s": sum(r.wall_s for r in runs),
            "ladder_cpu_s": sum(r.cpu_s for r in runs),
            "peak_rss_mb": max((r.maxrss_mb for r in runs), default=0.0),
        }

    def slowest_job_s(self) -> float:
        """The slowest job's median wall time over the passes."""
        return max((statistics.median(walls) for walls in self.job_walls.values()), default=0.0)

    def traced_pass(self) -> dict:
        acc: defaultdict = defaultdict(float)
        for i, job in enumerate(self.jobs):
            if time.perf_counter() >= self.deadline:
                self.skip(job)
                continue
            res = run_process([sys.executable, str(HERE / "tracer.py"), str(i), *job.argv()],
                              self.env, self.cap())
            try:
                traced = json.loads(res.stdout)
            except ValueError:
                self.record(job, res.exit_code or 1, b"")
                continue
            self.record(job, traced["exit"], traced["report"].encode())
            add_job_spans(acc, traced["spans"])
            acc["traced_wall_s"] += res.wall_s
        finish_pass(acc)
        return acc

    def run_passes(self, seconds: float, one_pass, min_passes: int) -> list[dict]:
        """Repeat `one_pass` while the next is expected to end within `seconds`."""
        start = time.perf_counter()
        passes = []
        while time.perf_counter() < self.deadline:
            t0 = time.perf_counter()
            passes.append(one_pass())
            last = time.perf_counter() - t0
            if len(passes) >= min_passes and time.perf_counter() - start + last > seconds:
                break
        return passes

    def torsion_oracle(self) -> list[tuple[Job, list[str]]]:
        """Mod-l check of each job's reported torsion, outside the timed
        passes and before the oracle deadline.  Returns the refuted jobs."""
        def on_alarm(signum, frame):
            raise TimeoutError("torsion oracle stopped at the run deadline")

        refuted = []
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL,
                         max(self.start + ORACLE_DEADLINE_S - time.perf_counter(), 0.001))
        try:
            for job, report in self.first_report.items():
                try:
                    reasons = torsion_failures(json.loads(report))
                except Exception as exc:  # the deadline, a malformed report or a program error
                    reasons = [f"torsion oracle raised {type(exc).__name__}: {exc}"]
                if reasons:
                    refuted.append((job, reasons))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return refuted


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    q = 100 * (n - 10) // n
    return q, sorted(values)[max(math.ceil(q * n / 100) - 1, 0)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that run_process stops the running job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = Path.cwd() / "src"
    if not (src / "zipk0" / "cli.py").is_file():
        print("run.py: no src/zipk0 in the working directory; run it from the "
              "root of a zipk0 checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    ladder = Ladder(args.workload, args.seed, src, SETUP_REPEATS if args.trace == 0 else 0)
    print(f"workload {args.workload}, seed {args.seed}: {len(ladder.jobs)} jobs, "
          f"one at a time, each a fresh process")
    for what, why in EXCLUDED:
        print(f"excluded: {what} ({why})")

    # Compile the bytecode once, so every measured process starts alike.
    warm = ladder.cli(["validate", "--group", "SL2"])
    if warm.exit_code != 0:
        print(f"run.py: `zipk0 validate` failed: {warm.stderr.decode(errors='replace')}",
              file=sys.stderr)
        return 2

    metrics: dict[str, float] = {}
    if args.trace == 0:
        passes = ladder.run_passes(args.seconds, ladder.untraced_pass, MIN_PASSES)
        for key in ("ladder_s", "ladder_cpu_s", "peak_rss_mb"):
            metrics[key] = median_of(passes, key)
        metrics["setup_s"] = statistics.median(ladder.setups)
        print(f"passes: {len(passes)}; medians over passes, setup_s over {len(ladder.setups)} "
              f"processes interleaved with the jobs")
        # Reported but not in the result: one job samples too little time to
        # hold the 0.25 bound on a shared host (see README).
        print(f"slowest_job_s = {ladder.slowest_job_s():.6g} s (not gated)")
        tail = tail_percentile([p["ladder_s"] for p in passes])
        if tail:
            print(f"ladder_s p{tail[0]}: {tail[1]:.4f} s")
        units = END_TO_END_UNITS
    else:
        untraced: list[dict] = []
        traced: list[dict] = []

        def pair() -> dict:
            untraced.append(ladder.untraced_pass())
            traced.append(ladder.traced_pass())
            return traced[-1]

        # One pair suffices: the traced report is compared with the untraced one.
        ladder.run_passes(args.seconds, pair, 1)
        for key in PER_LAYER_UNITS:
            if key != "trace_overhead_frac":
                metrics[key] = median_of(traced, key)
        metrics["trace_overhead_frac"] = (
            metrics["traced_wall_s"] / median_of(untraced, "ladder_s") - 1.0
        )
        print(f"passes: {len(traced)} traced, {len(untraced)} untraced; medians over passes")
        units = PER_LAYER_UNITS

    refuted = ladder.torsion_oracle()
    for job, reasons in refuted:
        if (job.group, job.mu, job.p) in KNOWN_TORSION_DEFECTS:
            print(f"KNOWN DEFECT {job.name}: {'; '.join(reasons)}")
        else:
            # A wrong report is wrong on every run of the job.
            ladder.fails[job] = ladder.attempts[job]
            ladder.failures[job].extend(reasons)
    if args.trace == 0:
        metrics["torsion_ok_frac"] = 1.0 - len(refuted) / len(ladder.jobs)
    for job, reasons in ladder.failures.items():
        print(f"FAIL {job.name}: {'; '.join(reasons)}")

    attempted = sum(ladder.attempts.values())
    failed = sum(ladder.fails.values())
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
