"""Report-bytes guard: fast CLI jobs run in-process, and the sha256 of their
stdout and stderr and their exit codes must equal the recorded values.

The jobs cover the report fields that the lattice layer feeds: `validate`'s
`fundamental_group`, theta's `invariant_directions` and the generator weights
in `k0` with every check, the Hecke check on Sp4 and GL3, and an explicit
datum; the check sections are pinned in text as well as JSON.  The ten
`quotient` and nine `levi` benchmark jobs of seed 1, the GL2 torus quotient
(k0 at the coroot sum), three heavier completions (SL4 at a regular mu, Sp4
at p=11, SL4 at mu=(1,0,0)) and a unitary GL3 job cover the Groebner
engine's bases and quotient modules, and a twisted SL3 job pins the Kunneth
and theta checks under a twist.  A change that moves a report on purpose
records the new digests here and says why.
The Levi's positive roots are G's positive roots among its roots, so the
Levi's simple roots and generator weights of SL3 and SL4 at mu = 0 and of
SL4 at mu = (3,3,0) and (1,0,0) are those of that positive system.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from zipk0.cli import main

CHECKS = "kunneth,theta,hecke,steinberg"
GL2_DATUM = json.dumps({"rank": 2, "roots": [[1, -1], [-1, 1]], "coroots": [[1, -1], [-1, 1]],
                        "simple_roots": [[1, -1]]})
U3_TWIST = "[[0,0,-1],[0,-1,0],[-1,0,0]]"
SWAP_TWIST = "[[0,1],[1,0]]"
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
    # Steinberg's candidates are listed by v = w^-1 over the Weyl group's
    # elements, so on SL3 the two 3-cycles' weights trade places.
    (("k0", "--group", "SL3", "--mu", "1,0", "--p", "2", "--checks", CHECKS),
     0, "2daf0367ded5f03a1efb2eec00c0fcec681a439e5945b248f200282e1fd539c6",
     EMPTY),
    (("k0", "--group", "GL2", "--mu", "0,0", "--p", "3", "--checks", CHECKS),
     0, "c751bb242f5cea06e2cb35499e5f0fada87c1649020eaaf01018e4e99cde6dae",
     EMPTY),
    (("k0", "--group", "Gm^2", "--mu", "0,0", "--p", "2", "--checks", CHECKS),
     0, "6ff3afba2d3d35f6e9faae9d91fd7c90270d61574df57e7d3e87d9f0a4ee7213",
     EMPTY),
    (("k0", "--group", "SL2", "--mu", "1", "--p", "3", "--checks", CHECKS),
     0, "01073743d47668280630a884636390a09064864bd6fb88ace071bc93735c0e55",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "1,0", "--p", "3"),
     0, "7ba7c2a54736e7bcfe9ef35bb9f35957cbb8415117ed49e4ad21f720ad27c8ff",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "1,0", "--p", "3", "--checks", "hecke"),
     0, "a568f3dcc360788913499889a8892f7d15d0c3220142cdb49cb25a348ab7bf5c",
     EMPTY),
    (("k0", "--group", "GL3", "--mu", "0,0,0", "--p", "2", "--window", "1", "--checks", "hecke"),
     0, "dae70094ee59c3caeac6f324573de5348a2302c4b1569b4775f3f61218ad7ef4",
     EMPTY),
    (("k0", "--group", GL2_DATUM, "--mu", "1,0", "--p", "3"),
     0, "c5c899f5211b1fa174ad1dd4742355a29c5d5d76ca5bad6d6a1ee327296ab60c",
     EMPTY),
    # R(T)/IR(T) is compute_k0 at the coroot sum: variables y1..y4 on the
    # weights -e1, -e2, e2, e1.
    (("k0", "--group", "GL2", "--mu", "1,-1", "--p", "2"),
     0, "ae7f7383aa063cd1c841e09f4bf37781810fe22837cb2dd5bda24fe9c91be166",
     EMPTY),
    # Every check's section in text.
    (("k0", "--group", "SL3", "--mu", "1,0", "--p", "2", "--checks", CHECKS, "--format", "text"),
     0, "12b86aab419a86c4d745f6f193ec72ece71eb77888f88d2b457cb874fa89ab1b",
     EMPTY),
    # The `quotient` ladder, seed 1.
    (("k0", "--group", "GL3", "--mu", "2,1,0", "--p", "2"),
     0, "8e0edacb783f5eaa1d3e98141eba309425f4d9c8d935af2734198f4175e9d96b",
     EMPTY),
    (("k0", "--group", "SL4", "--mu", "3,3,0", "--p", "2"),
     0, "ecf06b05cd5f43a037964cc78de755a45c03213c5e9ab25b52da0f55d7d32a2a",
     EMPTY),
    (("k0", "--group", "GL2", "--mu", "1,0", "--p", "7"),
     0, "6974016a3fc18b2ca4b891d603d786564b549a53d0710eda8cfb550eb65c6cb6",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "2,2", "--p", "5"),
     0, "41f040dfa59447707271f13201413d2d87a4c3a087f554eb140aa695ca4c5f08",
     EMPTY),
    (("k0", "--group", "GL3", "--mu", "2,0,0", "--p", "5"),
     0, "ff53c126466d2f72dd72cee5a0907034cb4eb5cf6e43ef42a345d9762c6aa4a0",
     EMPTY),
    (("k0", "--group", "SL2", "--mu", "2", "--p", "11"),
     0, "78af457e9d8aab41f5ad9f3b0617e2c9fd87d44d4f44d1ea1b54709b564bdb8f",
     EMPTY),
    (("k0", "--group", "SL3", "--mu", "1,0", "--p", "3"),
     0, "7f57ad1decf0585b93b014486fc318b7746b6fc9f156a0e6665dadf21673fb6a",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "4,2", "--p", "3"),
     0, "53c5372ca8d619cd74acdd8a69bc1ebb8970e7de4a9111f6caa766832fdf8940",
     EMPTY),
    (("k0", "--group", "SL3", "--mu", "3,0", "--p", "5"),
     0, "586e646abcb04ae01636ec29c5a6e89715386ef530310479fb4fc8317c4e72db",
     EMPTY),
    (("k0", "--group", "GL2", "--mu", "2,0", "--p", "11"),
     0, "a229735781f03451997113fdc308728149d85de2aa977ee631794d1cb86b60e5",
     EMPTY),
    # The `levi` ladder, seed 1.
    (("k0", "--group", "Sp4", "--mu", "0,0", "--p", "3"),
     0, "e9115a2fe81c65da0f8a621e45b3893af85799cfefa55e464ef5d680b6c5fa7e",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "0,0", "--p", "5"),
     0, "42fb6b37fef1f5f3064efbd572cbddbf1873e9abb9abde7b0cdff80e8ed57949",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "0,0", "--p", "7"),
     0, "5fe9b42ea85715b48efe98587deefedc7c99f07de74fa88587f5f08b73b55ab8",
     EMPTY),
    (("k0", "--group", "SL3", "--mu", "0,0", "--p", "5"),
     0, "38a4c36d2dbc153e7a39f656790856435ed619b19ecacc527a458414679fedac",
     EMPTY),
    (("k0", "--group", "SL4", "--mu", "0,0,0", "--p", "5"),
     0, "7eec1179f24f42f7803117c373841314184b4632148b3dc26a96e06916c07fff",
     EMPTY),
    (("k0", "--group", "GL3", "--mu", "0,0,0", "--p", "2"),
     0, "4ea5a7889788d4493b2de1a90ea4f2926da05dd0b12da245f9307bc638d70b45",
     EMPTY),
    (("k0", "--group", "GL2", "--mu", "0,0", "--p", "7"),
     0, "697704626ba80469d9153192e79e79437082de71860315d5d47d4a5b57f206df",
     EMPTY),
    (("k0", "--group", "GL3", "--mu", "0,0,0", "--p", "5"),
     0, "d0f80890e1abfda6cd4060228f49f8b4bde1b562ba71ce27c0fd323f43f8acb2",
     EMPTY),
    (("k0", "--group", "SL4", "--mu", "0,0,0", "--p", "2"),
     0, "44171669959c1b4cee67882e9330d515718f6f0c7a08ed68de0bf2a3eec82bb4",
     EMPTY),
    # Heavy completions outside the ladders, and one twisted job: unitary GL3,
    # whose Frobenius is p times tau = -w0.
    (("k0", "--group", "SL4", "--mu", "1,3,7", "--p", "2"),
     0, "90f11a7d3228acc1aead884fc98ea9af704763b2b97d613ac45f291503507b30",
     EMPTY),
    (("k0", "--group", "Sp4", "--mu", "0,0", "--p", "11"),
     0, "3dd15e8e7b4d1dbb8294c682f83a4cc3250de85594d76f132a4c84e763cabcb1",
     EMPTY),
    (("k0", "--group", "SL4", "--mu", "1,0,0", "--p", "5"),
     0, "741c3fceb65a60c9f20d6e3a2c2d2c50b5ede1793256d6d2690a4fceca09303f",
     EMPTY),
    (("k0", "--group", "GL3", "--mu", "2,1,0", "--p", "2", "--twist", U3_TWIST),
     0, "ea48ed0b63c4501d7f47262de952437613877f2023bd1219f55fdb155cbaa5d5",
     EMPTY),
    # The Kunneth and theta checks under a twist: SL3 with the diagram swap,
    # whose theta samples apply the twisted Frobenius to single characters.
    (("k0", "--group", "SL3", "--mu=1,2", "--p", "3", "--twist", SWAP_TWIST,
      "--checks", "kunneth,theta"),
     0, "80b58032c4d70a09e5b2b8e0f53ac0007625d553e531d6e0614ae5e6a55a096f",
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
