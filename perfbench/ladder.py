"""The job ladder: which `zipk0` CLI jobs each workload runs, and why.

A workload is a fixed list of (group, mu, p, checks) cases.  The seed only
chooses a positive multiple k in {1, 2, 3} of each nonzero mu and the order
of the jobs.  The centraliser of k*mu is the centraliser of mu, so the Levi,
the Groebner basis and therefore the work are the same for every seed; only
the echoed job and the order change.  BENCHMARK.json records why each
workload was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CHECKS_ALL = ("kunneth", "theta", "hecke", "steinberg")

# Cases per workload: (group, mu, p).  Seconds in the comments are single
# runs at the commit that introduced the benchmark, one process at a time.
WORKLOADS: dict[str, dict] = {
    "quotient": {
        "checks": (),
        "cases": [
            ("SL3", (1, 0), 3),        # 0.5 s
            ("SL3", (1, 0), 5),        # 2.0 s
            ("GL2", (1, 0), 7),        # 0.6 s
            ("GL2", (1, 0), 11),       # 2.9 s
            ("GL3", (2, 1, 0), 2),     # 4.5 s
            ("GL3", (1, 0, 0), 5),     # 0.4 s
            ("Sp4", (1, 1), 5),        # 0.4 s
            ("Sp4", (2, 1), 3),        # 0.1 s
            ("SL4", (1, 1, 0), 2),     # 1.4 s
            ("SL2", (1,), 11),         # 0.01 s
        ],
    },
    "levi": {
        "checks": (),
        "cases": [
            ("GL3", (0, 0, 0), 2),     # 2.8 s
            ("GL3", (0, 0, 0), 5),     # 2.9 s
            ("SL4", (0, 0, 0), 2),     # 1.4 s
            ("SL4", (0, 0, 0), 5),     # 1.5 s
            ("SL3", (0, 0), 5),        # 0.04 s
            # The three Sp4 mu=0 jobs carry the known torsion defect.
            ("Sp4", (0, 0), 3),        # 0.04 s
            ("Sp4", (0, 0), 5),        # 0.03 s
            ("Sp4", (0, 0), 7),        # 0.6 s
            ("GL2", (0, 0), 7),        # 0.03 s
        ],
    },
    "checks": {
        "checks": CHECKS_ALL,
        "cases": [
            ("SL3", (1, 2), 3),        # 2.7 s
            ("SL3", (1, 2), 5),        # 5.0 s
            ("Sp4", (1, 0), 3),        # 2.4 s
            ("GL2", (1, 0), 3),        # 0.9 s
            ("A1xA1", (1, 0), 3),      # 0.6 s
            ("SL2", (1,), 5),          # 0.2 s
        ],
    },
}

# Reports the mod-l oracle refutes at the commit that introduced the
# benchmark (ROADMAP: wrong torsion in quotient_z_module).  They count
# against torsion_ok_frac rather than as failed jobs, so that a torsion fix
# shows as a higher torsion_ok_frac on `levi`.
KNOWN_TORSION_DEFECTS = {("Sp4", (0, 0), 3), ("Sp4", (0, 0), 5), ("Sp4", (0, 0), 7)}

# Left out of every workload until the CLI has a work budget that exits 4
# (ROADMAP direction 5); each would hang or swamp a pass.
EXCLUDED = [
    ("k0-torus --group GL3 --p 2", "no result after 100 s"),
    ("k0-torus --group SL4 --p 2", "no result after 120 s"),
    ("k0 --group GL3 --checks steinberg", "steinberg spanning solves run over 60 s"),
    ("k0 --group SL4 --mu 0,1,0", "about 30 s, enough to swamp a pass"),
    ("k0 --group SL4 --mu 0,0,1", "about 30 s, enough to swamp a pass"),
]

# Independent data for the closed-form rank p^s (p-1)^z |W| / |W_L|:
# group -> (rank, semisimple rank s, Weyl group order |W|).
GROUP_DATA = {
    "SL2": (1, 1, 2),
    "SL3": (2, 2, 6),
    "SL4": (3, 3, 24),
    "GL2": (2, 1, 2),
    "GL3": (3, 2, 6),
    "Sp4": (2, 2, 8),
    "A1xA1": (2, 2, 4),
}


@dataclass(frozen=True)
class Job:
    group: str
    mu: tuple[int, ...]
    p: int
    checks: tuple[str, ...]

    @property
    def name(self) -> str:
        mu = ",".join(str(x) for x in self.mu)
        name = f"{self.group} mu={mu} p={self.p}"
        return name + (f" checks={','.join(self.checks)}" if self.checks else "")

    def argv(self) -> list[str]:
        """The CLI flags for this job, and nothing else."""
        out = ["k0", "--group", self.group, "--mu", ",".join(str(x) for x in self.mu),
               "--p", str(self.p)]
        if self.checks:
            out += ["--checks", ",".join(self.checks)]
        return out


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed: scaled nonzero mu, shuffled order."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    jobs = []
    for group, mu, p in spec["cases"]:
        k = rng.choice((1, 2, 3)) if any(mu) else 1
        jobs.append(Job(group, tuple(k * x for x in mu), p, spec["checks"]))
    rng.shuffle(jobs)
    return jobs


def closed_form_rank(group: str, p: int, levi_weyl_order: int) -> int:
    """p^s (p-1)^z |W| / |W_L| for an untwisted datum, z = rank - s."""
    rank, s, weyl_order = GROUP_DATA[group]
    return p ** s * (p - 1) ** (rank - s) * weyl_order // levi_weyl_order
