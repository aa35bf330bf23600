"""Report-bytes guard: fast CLI jobs run in-process, and the sha256 of their
stdout and stderr and their exit codes must equal the recorded values.

The jobs cover the report fields that the lattice layer feeds: `validate`'s
`fundamental_group`, theta's `invariant_directions` and the generator weights
in `k0` with every check, `hecke-check`, and an explicit datum.  A change that
moves a report on purpose records the new digests here and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from zipk0.cli import main

CHECKS = "kunneth,theta,hecke,steinberg"
GL2_DATUM = json.dumps({"rank": 2, "roots": [[1, -1], [-1, 1]], "coroots": [[1, -1], [-1, 1]],
                        "simple_roots": [[1, -1]]})
EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr)
RECORDED = [
    (("validate", "--group", "SL3"),
     0, "7a20e0650c89d9df99116c374926e6d00f2731b1d69994908dbf631ef4e95864",
     EMPTY),
    (("validate", "--group", "GL3"),
     0, "22de50e22669976f3e6788e0c20d63b9e8edd30ad17d8d49da2d421e53aae95f",
     EMPTY),
    (("validate", "--group", "Gm^2"),
     0, "ad574c3565d072d064d34505fdc9f8b0889672a3c0ac95c7fbc20a7a422916b1",
     EMPTY),
    (("validate", "--group", "PGL2"),
     3, EMPTY,
     "064c6e196f5b571ceb124fed73244dceb9a9b0e344c1403d7cd2fa8d6719842c"),
    (("k0", "--group", "SL3", "--mu", "1,0", "--p", "2", "--checks", CHECKS),
     0, "7c01420b8a3ba957d4250ced0241498bb0964c411285c6bc1e3892db0a4ed793",
     EMPTY),
    (("k0", "--group", "GL2", "--mu", "0,0", "--p", "3", "--checks", CHECKS),
     0, "75560599b6d6a4a9f8e8c947968a91f5ca47535baa8f18dc5e2876ff051fc425",
     EMPTY),
    (("k0", "--group", "Gm^2", "--mu", "0,0", "--p", "2", "--checks", CHECKS),
     0, "930e691a216ac00b7806b31cfc8cefad21f57078b525712f25d2c32bc1776edb",
     EMPTY),
    (("k0", "--group", "SL2", "--mu", "1", "--p", "3", "--checks", CHECKS),
     0, "8f1551825e4326c4a10cd71cd431a3c6538c5c5be39b2d0a1133f966ff0a03a3",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "1,0", "--p", "3"),
     0, "7ba7c2a54736e7bcfe9ef35bb9f35957cbb8415117ed49e4ad21f720ad27c8ff",
     EMPTY),
    (("hecke-check", "--group", "Sp4"),
     0, "844de21a4bce5576fe7666832634d5aa728cc2604c69b373e10fdc5709e6d711",
     EMPTY),
    (("hecke-check", "--group", "GL3", "--window", "1"),
     0, "3a9b99d2e92960df8f1e52d6866e20fa91054891369b057996c48e80871d60d3",
     EMPTY),
    (("k0", "--group", GL2_DATUM, "--mu", "1,0", "--p", "3"),
     0, "c5c899f5211b1fa174ad1dd4742355a29c5d5d76ca5bad6d6a1ee327296ab60c",
     EMPTY),
    (("k0-torus", "--group", "GL2", "--p", "2"),
     0, "cf9dd4dcb8a5879157c05242481532c36289756e960a3b2971862209bb374876",
     EMPTY),
]


def _job_id(argv) -> str:
    return " ".join("DATUM" if a == GL2_DATUM else a for a in argv)


@pytest.mark.parametrize("argv,code,out_sha,err_sha", RECORDED, ids=[_job_id(r[0]) for r in RECORDED])
def test_report_bytes_unchanged(capsys, argv, code, out_sha, err_sha):
    got = main(list(argv))
    captured = capsys.readouterr()
    assert got == code
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha
