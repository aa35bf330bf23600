from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zipk0.cli import COMMANDS, OPTIONS, main, render_text
from zipk0.caps import DEFAULT_MAX_DEGREE
from zipk0.rootdata import levi_from_cocharacter, make_root_datum, preset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_sl3_ok(capsys):
    code, out, _ = run(capsys, "validate", "--group", "SL3")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["valid"] is True
    assert report["fundamental_group"] == [1, 1]


def test_validate_pgl2_rejected(capsys):
    code, out, err = run(capsys, "validate", "--group", "PGL2")
    assert code == 3
    assert "Z/2" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--group", '{"rank": 0}', "--twist", "[]"],
    ["k0", "--group", '{"rank": 0, "twist": []}', "--p", "3"],
    ["k0", "--group", '{"rank": 0, "twist": []}', "--mu", "", "--p", "3"],
])
def test_rank_0_with_the_empty_twist_exits_0(capsys, argv):
    # The empty twist of the trivial group is the identity, of determinant 1,
    # and the empty --mu is its cocharacter.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["job"]["twist"] == []


def test_empty_checks_run_no_check(capsys):
    # A wholly empty --checks is the empty list; an empty entry in a longer
    # list is refused (MALFORMED).
    code, out, err = run(capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "2", "--checks", "")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["job"]["checks"] == [] and rep["checks"] == {}


def test_validate_factors_no_huge_pivot():
    # The coroot lattice of this datum has the Hermite pivot N = 10^30 + 57
    # and no torsion; trial division of N once ran past a 20 s kill.  The
    # subprocess bounds the wait.
    n = 10**30 + 57
    datum = {"rank": 2, "roots": [[0, 1], [0, -1]], "coroots": [[n, 2], [-n, -2]],
             "simple_roots": [[0, 1]]}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "zipk0.cli", "validate", "--group",
                           json.dumps(datum)], env=env, capture_output=True, text=True,
                          timeout=20)
    assert time.perf_counter() - start < 2
    assert done.returncode == 0
    assert json.loads(done.stdout)["fundamental_group"] == [1, 0]


def sl2_times_torus(rank: int) -> dict:
    """SL2 x G_m^(rank-1): one root pair on e1, with coroots +-e1, so the
    lineality lattice has rank rank-1."""
    e1 = [1] + [0] * (rank - 1)
    return {"rank": rank, "roots": [[2 * x for x in e1], [-2 * x for x in e1]],
            "coroots": [e1, [-x for x in e1]], "simple_roots": [[2 * x for x in e1]]}


def test_a_large_centre_is_answered(capsys):
    # The fundamental-weight lift rounds once along each of the 11 lineality
    # rows; a search over a box of 5^11 points would take about 20 minutes.
    datum = json.dumps(sl2_times_torus(12))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "zipk0.cli", "validate", "--group", datum],
                          env=env, capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, "validate", "--group", datum)
    assert done.returncode == 0
    # The closed form p^s (p - 1)^z |W| / |W_L| at mu = 0: 2 * 1^11.
    code, out, _ = run(capsys, "k0", "--group", datum, "--p", "2")
    assert code == 0
    assert json.loads(out)["module"]["rank"] == 2


def test_a_small_centre_keeps_its_lift(capsys):
    datum = sl2_times_torus(4)
    code, out, _ = run(capsys, "validate", "--group", json.dumps(datum))
    assert code == 0
    assert json.loads(out)["fundamental_group"] == [1, 0, 0, 0]
    rd = make_root_datum(4, datum["roots"], datum["coroots"], datum["simple_roots"])
    assert rd.weight_lift[1] == ((1, 0, 0, 0),)


def test_malformed_vector_length(capsys):
    code, _, err = run(capsys, "k0", "--group", "SL2", "--mu", "1,0", "--p", "3")
    assert code == 2
    assert "length" in err


def test_unknown_preset(capsys):
    code, _, err = run(capsys, "validate", "--group", "E8")
    assert code == 2
    assert err == ("parse error: unknown preset 'E8'; available: "
                   "SL2, SL3, SL4, GL2, GL3, Sp4, PGL2, Gm, Gm^2, A1xA1\n")


def test_nonprime_p_rejected(capsys):
    code, _, err = run(capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "4")
    assert code == 3
    assert "prime" in err


def test_validate_and_k0_share_the_primality_gate(capsys):
    validated = run(capsys, "validate", "--group", "SL3", "--p", "4")
    computed = run(capsys, "k0", "--group", "SL3", "--p", "4")
    assert validated == computed == (3, "", "validation error: p = 4 is not prime\n")


@pytest.mark.parametrize(
    "flags,job",
    [
        (["--window", "abc"], {}),
        (["--max-degree", "abc"], {}),
        (["--window", "-1"], {}),
        ([], {"window": "abc"}),
        ([], {"max_degree": "abc"}),
        ([], {"window": -1}),
        # Non-integers are refused, not truncated.
        (["--mu", "[1.5]"], {}),
        (["--mu", "[true]"], {}),
        ([], {"mu": [True]}),
        ([], {"p": 3.7}),
        ([], {"p": True}),
        ([], {"window": 1.5}),
        ([], {"max_degree": 2.5}),
        (["--twist", "[[1.5]]"], {}),
        ([], {"group": {"rank": 1.5, "roots": [[2], [-2]], "coroots": [[1], [-1]],
                        "simple_roots": [[2]]}}),
        # A negative degree cap is a parse error, not a cap exceeded.
        (["--max-degree", "-5"], {}),
        ([], {"max_degree": -1}),
    ],
)
def test_bad_integer_options_exit_2(capsys, tmp_path, flags, job):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"group": "SL2", "mu": [1], "p": 3, **job}))
    code, out, err = run(capsys, "k0", str(job_file), *flags)
    assert code == 2
    assert out == ""
    assert "parse error" in err


@pytest.mark.parametrize(
    "job",
    [
        {"checks": 5},
        {"checks": [1]},
        {"checks": {"kunneth": True}},
        # A mapping's keys and a string row's characters are not entries:
        # these ran SL2 at mu = (1) and SL3 with the diagram swap.
        {"mu": {"1": 5}},
        {"group": "SL3", "mu": [0, 0], "twist": ["01", "10"]},
        {"group": "SL3", "mu": [0, 0], "twist": {"01": 0, "10": 0}},
        {"module": "Z/2"},
        {"out": ["x"]},
        # An integer is not a file descriptor to write to.
        {"out": 1},
        {"out": 7},
    ],
)
def test_job_file_field_types_exit_2(capsys, tmp_path, job):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"group": "SL2", "mu": [1], "p": 3, **job}))
    code, out, err = run(capsys, "k0", str(job_file))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")


NOT_UTF8 = b'\xff\xfe{"group": "SL2"}'
NOT_A_ROOT = '{"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simple_roots": [[4]]}'
# GL2's roots and coroots as an explicit group, with the given further keys.
GL2_WITH = '{"rank": 2, "roots": [[1, -1], [-1, 1]], "coroots": [[1, -1], [-1, 1]], %s}'
A1XA1_SWAP = json.dumps({"rank": 2, "roots": [[2, 0], [-2, 0], [0, 2], [0, -2]],
                         "coroots": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                         "simple_roots": [[2, 0], [0, 2]], "twist": [[0, 1], [1, 0]]})

# (id, argv, job files to write, exit code, text the stderr line contains).
# In argv, {tmp} is the directory that holds the job files.
MALFORMED = [
    ("k0 non-UTF-8 file", ["k0", "{tmp}/job.json"], {"job.json": NOT_UTF8}, 2, "is not UTF-8"),
    ("validate non-UTF-8 file", ["validate", "{tmp}/job.json"], {"job.json": NOT_UTF8}, 2,
     "is not UTF-8"),
    ("negative rank", ["validate", "--group", '{"rank": -1}'], {}, 2,
     "rank must be at least 0, got -1"),
    ("array job file", ["k0", "{tmp}/job.json"], {"job.json": b"[1, 2]"}, 2,
     "must contain an object"),
    ("directory job file", ["k0", "{tmp}"], {}, 2, "cannot read job file"),
    ("infinite rank", ["validate", "--group", '{"rank": 1e400}'], {}, 2, "cannot parse rank"),
    ("NaN mu", ["k0", "--group", "SL2", "--mu", "[NaN]"], {}, 2, "cannot parse cocharacter"),
    ("NaN twist", ["k0", "--group", "SL2", "--twist", "[[NaN]]"], {}, 2, "cannot parse twist"),
    ("scalar twist", ["k0", "--group", "SL2", "--twist", "3"], {}, 2, "cannot parse twist"),
    ("twist of wrong shape", ["k0", "--group", "SL2", "--twist", "[[1,0]]"], {}, 3,
     "twist has wrong shape"),
    ("fewer coroots than roots", ["validate", "--group",
      '{"rank": 1, "roots": [[2], [-2]], "coroots": [[1]], "simple_roots": [[2]]}'],
     {}, 3, "roots and coroots must be paired"),
    # A simple root must be one of the roots: a root-datum fault like the
    # others, named for itself.
    ("validate simple root not a root", ["validate", "--group", NOT_A_ROOT], {}, 3,
     "simple-root-not-a-root: simple root (4,) is not a root"),
    ("k0 simple root not a root", ["k0", "--group", NOT_A_ROOT, "--mu", "0", "--p", "3"], {}, 3,
     "simple-root-not-a-root: simple root (4,) is not a root"),
    ("validate simple root not a root, prime 2", ["validate", "--group", NOT_A_ROOT, "--p", "2"],
     {}, 3, "simple-root-not-a-root: simple root (4,) is not a root"),
    # It is found when the datum is built, after every field has parsed.
    ("simple root not a root, bad prime", ["validate", "--group", NOT_A_ROOT, "--p", "x"], {}, 2,
     "cannot parse prime from 'x'"),
    ("invalid JSON job file", ["k0", "{tmp}/job.json"], {"job.json": b'{"group": '}, 2,
     "invalid JSON in"),
    ("invalid TOML job file", ["k0", "{tmp}/job.toml"], {"job.toml": b"group = "}, 2,
     "invalid TOML in"),
    ("explicit group without rank", ["validate", "--group", '{"roots": []}'], {}, 2,
     "explicit group is missing fields"),
    # An explicit group takes only its five keys: a misspelt twist ran split
    # GL2, a misspelt simple_roots failed validation, and a name was ignored.
    ("explicit group with a misspelt twist",
     ["k0", "--group", GL2_WITH % '"simple_roots": [[1, -1]], "twsit": [[0, 1], [1, 0]]',
      "--mu", "1,0", "--p", "3"], {}, 2, "parse error: unknown explicit group keys: ['twsit']"),
    ("explicit group with a misspelt simple_roots",
     ["k0", "--group", GL2_WITH % '"simple_root": [[1, -1]]', "--mu", "1,0", "--p", "3"], {}, 2,
     "parse error: unknown explicit group keys: ['simple_root']"),
    ("explicit group with a name",
     ["k0", "--group", GL2_WITH % '"simple_roots": [[1, -1]], "name": "GL2"',
      "--mu", "1,0", "--p", "3"], {}, 2, "parse error: unknown explicit group keys: ['name']"),
    ("group neither name nor object", ["k0", "{tmp}/job.json"], {"job.json": b'{"group": 5}'}, 2,
     "group must be a preset name or an object, got 5"),
    ("unknown check", ["k0", "--group", "SL2", "--checks", "kunneth,bogus"], {}, 2,
     "unknown checks ['bogus']"),
    # An empty entry in the comma list is an empty name, not a skipped one.
    ("empty inner check entry", ["k0", "--group", "SL2", "--mu", "1", "--p", "2",
                                 "--checks", "kunneth,,theta"], {}, 2, "unknown checks ['']"),
    ("empty trailing check entry", ["k0", "--group", "SL2", "--checks", "kunneth,"], {}, 2,
     "unknown checks ['']"),
    ("empty leading check entry", ["k0", "--group", "SL2", "--checks", ",theta"], {}, 2,
     "unknown checks ['']"),
    # --twist replaces the explicit datum's own twist, the swap, which is valid.
    ("twist flag over the datum's twist", ["validate", "--group", A1XA1_SWAP,
                                           "--twist", "[[1,1],[0,1]]"], {}, 3,
     "twist is not of finite (small) order"),
    # Retired inputs: the Hecke check runs as `k0 --checks hecke`, the torus
    # quotient as `k0` at a regular cocharacter, and the torsion-module demo
    # is gone.
    ("hecke-check command", ["hecke-check", "--group", "SL2"], {}, 2,
     "unknown command 'hecke-check'"),
    ("k0-torus command", ["k0-torus", "--group", "SL2", "--p", "3"], {}, 2,
     "unknown command 'k0-torus'; commands: validate, k0"),
    ("demo-counterexample command", ["demo-counterexample", "--module", "Z/2"], {}, 2,
     "unknown command 'demo-counterexample'"),
    ("module option", ["k0", "--group", "SL2", "--module", "Z/2"], {}, 2,
     "unknown option --module"),
    ("counterexample check", ["k0", "--group", "SL2", "--checks", "counterexample"], {}, 2,
     "unknown checks ['counterexample']"),
    ("module job file key", ["k0", "{tmp}/job.json"],
     {"job.json": b'{"group": "SL2", "module": "Z/2"}'}, 2, "unknown job file keys: ['module']"),
    ("twist not JSON", ["k0", "--group", "SL2", "--twist", "[[1,"], {}, 2,
     "parse error: cannot parse twist: Expecting value"),
    ("explicit vector of wrong length", ["validate", "--group",
      '{"rank": 2, "roots": [[1, -1, 0], [-1, 1, 0]], "coroots": [[1, -1], [-1, 1]], '
      '"simple_roots": [[1, -1]]}'], {}, 2, "vector [1, -1, 0] does not have length rank=2"),
    # A mapping's keys are not vectors: this validated as SL2.
    ("explicit roots as a mapping", ["validate", "--group",
      '{"rank": 1, "roots": {"2": 0, "-2": 0}, "coroots": [[1], [-1]], "simple_roots": [[2]]}'],
     {}, 2, "cannot parse roots from {'2': 0, '-2': 0}"),
    # An option that the command would echo and ignore is refused.
    ("validate mu", ["validate", "--group", "SL2", "--mu", "1"], {}, 2,
     "validate does not read mu"),
    ("validate checks", ["validate", "--group", "SL2", "--checks", "kunneth"], {}, 2,
     "validate does not read checks"),
    ("validate window", ["validate", "--group", "SL2", "--window", "2"], {}, 2,
     "validate does not read window"),
    ("validate max_degree", ["validate", "--group", "SL2", "--max-degree", "5"], {}, 2,
     "validate does not read max_degree"),
    ("validate cocharacter key", ["validate", "{tmp}/job.json"],
     {"job.json": b'{"group": "SL2", "cocharacter": [1]}'}, 2, "validate does not read mu"),
    ("validate job file keys", ["validate", "{tmp}/job.json"],
     {"job.json": b'{"group": "SL2", "checks": ["hecke"], "window": 2, "max_degree": 5}'}, 2,
     "validate does not read checks, window, max_degree"),
    ("k0 window without hecke", ["k0", "--group", "SL2", "--mu", "1", "--checks", "kunneth",
                                 "--window", "2"], {}, 2, "window is read only by the hecke check"),
    # An empty entry of a comma vector is refused, not dropped: these ran mu = (1, 2).
    ("empty inner mu entry", ["k0", "--group", "SL3", "--mu", "1,,2"], {}, 2,
     "cannot parse cocharacter from ['1', '', '2']"),
    ("empty trailing mu entry", ["k0", "--group", "SL3", "--mu", "1,2,"], {}, 2,
     "cannot parse cocharacter from ['1', '2', '']"),
    ("empty leading mu entry", ["k0", "--group", "SL3", "--mu", ",1,2"], {}, 2,
     "cannot parse cocharacter from ['', '1', '2']"),
    ("k0 window key without checks", ["k0", "{tmp}/job.json"],
     {"job.json": b'{"group": "SL2", "mu": [1], "window": 2}'}, 2,
     "window is read only by the hecke check"),
]


@pytest.mark.parametrize("argv,files,code,text", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_keeps_the_exit_code_contract(capsys, tmp_path, argv, files, code, text):
    # Exit 2 or 3 with one stderr line, never a traceback (exit 1).
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    got, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    prefix = "parse error: " if code == 2 else "validation error: "
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1
    assert text in err and "Traceback" not in err


def test_non_utf8_job_file_exits_2_as_a_process(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_bytes(NOT_UTF8)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "zipk0.cli", "k0", str(job)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, "k0", str(job))
    assert done.returncode == 2 and done.stderr.startswith("parse error: ")


ALL_CHECKS = "kunneth,theta,hecke,steinberg"


def count_completions(capsys, monkeypatch, *argv):
    """The exit code of a job and its number of strong_groebner calls, all
    of which run in zipk: the answer's, and the torus quotient's when the
    job's Levi has roots."""
    import zipk0.zipk

    seen = []
    real = zipk0.zipk.strong_groebner

    def counting(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(zipk0.zipk, "strong_groebner", counting)
    code, _, _ = run(capsys, *argv)
    return code, len(seen)


@pytest.mark.parametrize("checks,calls", [
    ([], 1), (["--checks", "kunneth,theta"], 2), (["--checks", ALL_CHECKS], 2),
])
def test_one_groebner_run_per_answer(capsys, monkeypatch, checks, calls):
    assert count_completions(
        capsys, monkeypatch, "k0", "--group", "SL3", "--mu", "1,2", "--p", "2", *checks
    ) == (0, calls)


@pytest.mark.parametrize("group,mu", [("GL2", "1,0"), ("SL2", "1")])
def test_a_job_whose_levi_is_t_completes_once(capsys, monkeypatch, group, mu):
    # The Levi of a regular mu is T, so the answer is the torus quotient.
    assert count_completions(
        capsys, monkeypatch, "k0", "--group", group, "--mu", mu, "--p", "3",
        "--checks", ALL_CHECKS,
    ) == (0, 1)


def test_pair_pruning_bounds_reductions(capsys, monkeypatch):
    # GL3 at mu = (2,1,0), p = 2 takes 1032 strong reductions with every
    # pair reduced, 329 with the product criterion and the update-only chain
    # criterion, and 199 with the Gebauer-Moeller update; the bound fails if
    # the pruning is lost.
    import zipk0.groebner

    calls = []
    real = zipk0.groebner._reduce

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(zipk0.groebner, "_reduce", counting)
    code, _, _ = run(capsys, "k0", "--group", "GL3", "--mu", "2,1,0", "--p", "2")
    assert code == 0
    assert len(calls) <= 400


def test_one_weyl_group_per_job(capsys, monkeypatch):
    # An all-checks job computes each root datum's Weyl group, positive roots
    # and weight lift once: G's, the Levi's and T's, three each.  At a central
    # mu the Levi is G itself, so there are two each, G's and T's.  The
    # simply-connectedness gate runs in the weight lift, which needs the
    # fundamental group only to name the torsion of a failing datum.
    import zipk0.rootdata as rootdata

    g = preset("SL3")
    torus = levi_from_cocharacter(g, g.coroot_sum)
    counted = ("weyl_enumerate", "positive_root_indices", "fundamental_weight_lift",
               "fundamental_group")
    calls = {name: [] for name in counted}

    def counting(name):
        real = getattr(rootdata, name)

        def wrapper(rd):
            calls[name].append(rd)
            return real(rd)

        return wrapper

    for name in counted:
        monkeypatch.setattr(rootdata, name, counting(name))
    for mu, datums in (("1,2", [g, levi_from_cocharacter(g, (1, 2)), torus]),
                       ("0,0", [g, torus])):
        for name in counted:
            calls[name].clear()
        code, _, _ = run(capsys, "k0", "--group", "SL3", "--mu", mu, "--p", "2",
                         "--checks", "kunneth,theta,hecke,steinberg")
        assert code == 0
        for name in counted[:3]:
            assert sorted(calls[name], key=repr) == sorted(datums, key=repr), (mu, name)
        assert calls["fundamental_group"] == []


def test_presentation_and_frobenius_generators_built_once(capsys, monkeypatch):
    # A root datum presents its own invariant ring, so the coordinate map is
    # built once per datum, the Levi's and, for theta, T's, and G's orbit
    # sums once per job; at a central mu the Levi is G's datum, so they
    # present R(L) too.  The Frobenius generators are built once per job:
    # theta's torus quotient at the coroot sum takes the job's.  SL4 at
    # mu = 0 builds G's 3 orbit sums.  SL3 at mu = 0 builds G's 2 (kunneth
    # reads the torus rank in closed form); at mu = (1, 2) with theta it
    # builds G's 2, L's 3 and T's 4.  Sp4 at mu = (1, 0) builds G's 2, L's 3
    # and T's 4.
    from functools import cached_property

    import zipk0.grpalg
    from zipk0.rootdata import RootDatum
    from zipk0.zipk import CocharacterDatum

    builds = {}
    for cls, name in ((RootDatum, "coordinates"), (CocharacterDatum, "frobenius_gens")):
        def counting(self, real=vars(cls)[name].func, name=name):
            builds[name] += 1
            return real(self)

        prop = cached_property(counting)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)

    def orbit_sum(weyl, weight, real=zipk0.grpalg.orbit_sum):
        builds["orbit_sum"] += 1
        return real(weyl, weight)

    monkeypatch.setattr(zipk0.grpalg, "orbit_sum", orbit_sum)
    jobs = [
        (("SL3", "1,2", "3", "kunneth,theta"), 2, 9),
        (("SL4", "0,0,0", "2", ""), 1, 3),
        (("SL3", "0,0", "2", "kunneth"), 1, 2),
        (("Sp4", "1,0", "3", "kunneth,theta"), 2, 9),
    ]
    for (group, mu, p, checks), coordinates, orbit_sums in jobs:
        builds.update(coordinates=0, frobenius_gens=0, orbit_sum=0)
        code, _, _ = run(capsys, "k0", "--group", group, "--mu", mu, "--p", p,
                         "--checks", checks)
        assert code == 0
        assert builds == {"coordinates": coordinates, "frobenius_gens": 1,
                          "orbit_sum": orbit_sums}, group


@pytest.mark.parametrize("mu", ["0,0", "1,0", "1,2"])
def test_a_kunneth_job_runs_one_completion(capsys, monkeypatch, mu):
    # The Kunneth check reads the torus rank in closed form: the job's own
    # answer is its only completion, whatever the Levi.
    import zipk0.zipk

    calls = []

    def strong_groebner(*args, real=zipk0.zipk.strong_groebner, **kwargs):
        calls.append(mu)
        return real(*args, **kwargs)

    monkeypatch.setattr(zipk0.zipk, "strong_groebner", strong_groebner)
    code, out, _ = run(capsys, "k0", "--group", "SL3", "--mu", mu, "--p", "2",
                       "--checks", "kunneth")
    assert code == 0 and json.loads(out)["checks"]["kunneth"]["status"] == "PASS"
    assert calls == [mu]


@pytest.mark.parametrize("argv", [
    ("--group", "SL3", "--mu", "1,2", "--p", "2", "--checks", ALL_CHECKS),
    ("--group", "GL3", "--mu", "2,1,0", "--p", "2"),
])
def test_only_the_weight_lift_solves(capsys, monkeypatch, argv):
    # Positive roots and generator combinations are read off the root datum;
    # the integral fundamental weights are the only Diophantine solves.
    import zipk0.checks  # noqa: F401  (load every module that could hold the solve)

    callers = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "solve_linear_diophantine", None)
        if name.startswith("zipk0") and real is not None:
            def counting(*args, real=real):
                callers.append(sys._getframe(1).f_code.co_name)
                return real(*args)

            monkeypatch.setattr(module, "solve_linear_diophantine", counting)
    code, _, _ = run(capsys, "k0", *argv)
    assert code == 0
    assert callers and set(callers) == {"fundamental_weight_lift"}


def test_k0_sl2_report_values(capsys):
    code, out, _ = run(capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["module"]["rank"] == 6
    assert rep["module"]["torsion"] == []
    assert rep["module"]["finite"] is True
    assert rep["levi"]["weyl_order"] == 1
    assert rep["presentation"]["variables"] == ["y1", "y2"]
    assert rep["flags"]["one_nonzero"] is True


def test_negative_first_mu_entry(capsys):
    # argparse reads "--mu -1,2" as a missing value followed by an option;
    # the attached and the bracketed forms pass the same cocharacter.
    code, _, err = run(capsys, "k0", "--group", "SL3", "--mu", "-1,2", "--p", "3")
    assert code == 2 and "--mu: expected one argument" in err
    code, out, _ = run(capsys, "k0", "--group", "SL3", "--mu=-1,2", "--p", "3")
    assert code == 0
    assert json.loads(out)["job"]["mu"] == [-1, 2]
    assert run(capsys, "k0", "--group", "SL3", "--mu", "[-1,2]", "--p", "3") == (0, out, "")


def test_k0_torus_gm_rank(capsys):
    # K0 of the torus Gm: every cocharacter is regular, so L = T and the
    # quotient is R(T)/IR(T).
    code, out, _ = run(capsys, "k0", "--group", "Gm", "--p", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["module"]["rank"] == 4
    # One variable per generator weight of R(T), -e1 then e1.
    assert rep["groebner"]["variables"] == ["y1", "y2"]
    assert rep["groebner"]["basis"] == ["y1*y2 - 1", "y1^2 - y2^2", "y2^3 - y1"]


def test_k0_sl3_kunneth_pass(capsys):
    code, out, _ = run(
        capsys, "k0", "--group", "SL3", "--mu", "1,2", "--p", "2", "--checks", "kunneth"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["kunneth"]["status"] == "PASS"
    assert rep["checks"]["kunneth"]["torus_rank"] == 2 * rep["checks"]["kunneth"]["levi_rank"]


def test_determinism_byte_identical(capsys):
    args = ("k0", "--group", "SL3", "--mu", "1,2", "--p", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "args",
    [
        ("k0", "--group", "SL2", "--mu", "1", "--p", "2"),
        # GL2 at mu = 0 has the theta invariant direction (1, 1), so every
        # list of vectors in the check sections is nonempty.
        ("k0", "--group", "GL2", "--mu", "0,0", "--p", "3", "--checks", ALL_CHECKS),
    ],
    ids=["k0-plain", "k0-all-checks"],
)
def test_json_roundtrip_to_text(capsys, args):
    # A tuple in a report section renders as (1, 2) in text but as [1, 2] in
    # JSON, so the two renderings would differ.
    code, json_out, _ = run(capsys, *args)
    assert code == 0
    code, text_out, _ = run(capsys, *args, "--format", "text")
    assert code == 0
    # Re-reading the JSON report and re-rendering text gives identical text.
    assert render_text(json.loads(json_out)) == text_out


def test_job_file_json_with_override(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": "SL2", "mu": [1], "p": 2}))
    code, out, _ = run(capsys, "k0", str(job))
    assert code == 0
    assert json.loads(out)["module"]["rank"] == 4
    # Flag overrides the file.
    code, out, _ = run(capsys, "k0", str(job), "--p", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["module"]["rank"] == 6
    assert rep["job"]["p"] == 3


def test_job_file_toml(capsys, tmp_path):
    job = tmp_path / "job.toml"
    job.write_text('group = "Gm"\nmu = [0]\np = 5\n')
    code, out, _ = run(capsys, "k0", str(job))
    assert code == 0
    assert json.loads(out)["module"]["rank"] == 4


def test_job_file_unknown_key(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": "SL2", "prime": 3}))
    code, _, err = run(capsys, "k0", str(job))
    assert code == 2
    assert "unknown job file keys" in err


def test_explicit_group_inline(capsys):
    datum = {
        "rank": 1,
        "roots": [[2], [-2]],
        "coroots": [[1], [-1]],
        "simple_roots": [[2]],
    }
    code, out, _ = run(capsys, "k0", "--group", json.dumps(datum), "--mu", "1", "--p", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["module"]["rank"] == 6
    assert rep["job"]["group"]["rank"] == 1


def test_huge_prime_is_decided_at_once():
    # 10^18 + 3 is prime; trial division once ran past a 10 s kill on it.
    # The subprocess bounds the wait.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "zipk0.cli", "validate", "--group", "SL2",
                           "--p", "1000000000000000003"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 0
    assert json.loads(done.stdout)["valid"] is True


@pytest.mark.parametrize("command", [["validate"], ["k0", "--mu", "1"]])
def test_prime_at_the_primality_bound_exits_4(capsys, command):
    from zipk0.lattice import MILLER_RABIN_BOUND
    code, out, err = run(capsys, *command, "--group", "SL2", "--p", str(MILLER_RABIN_BOUND))
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "resource-cap"
    assert f"at or above {MILLER_RABIN_BOUND}" in rep["detail"]
    assert "resource cap" in err


@pytest.mark.parametrize("p", ["100003", "1000000000000000003"])
@pytest.mark.parametrize("command", [["k0", "--mu", "1"]])
def test_frobenius_degree_over_the_cap_exits_4_at_once(capsys, command, p):
    # SL2's Frobenius relation has degree p in the Levi's variables.  Its
    # expression stops at the degree cap, before it builds a chain of about p
    # generator products.
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--group", "SL2", "--p", p)
    assert time.perf_counter() - start < 2
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "resource-cap"
    assert f"degree {p} exceeds cap {DEFAULT_MAX_DEGREE}" in rep["detail"]
    assert "resource cap" in err


def test_hecke_check_command(capsys):
    # `k0 --checks hecke` is the command that runs the Hecke check.
    code, out, _ = run(capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "2",
                       "--checks", "hecke", "--window", "6")
    assert code == 0
    rep = json.loads(out)["checks"]
    assert rep["hecke"]["all_equal"] is True
    assert rep["hecke"]["hecke_rank"] == 7


def test_resource_cap_exit_code(capsys):
    code, out, err = run(
        capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "5", "--max-degree", "3"
    )
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "resource-cap"
    assert "partial" in rep["note"]
    assert "resource cap" in err


def test_weyl_size_cap_exits_4(capsys, monkeypatch):
    from zipk0 import rootdata
    monkeypatch.setattr(rootdata, "WEYL_SIZE_CAP", 5)
    code, out, err = run(capsys, "k0", "--group", "SL3", "--mu", "1,0", "--p", "3")
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "resource-cap"
    assert "partial" in rep["note"]
    assert "cap 5" in rep["detail"]
    assert "resource cap" in err


def test_hecke_window_cap_exits_4(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "2",
                         "--checks", "hecke", "--window", "10000")
    assert time.perf_counter() - start < 5
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "resource-cap"
    assert rep["job"]["window"] == 10000
    assert "window 10000" in rep["detail"] and "20001 monomials" in rep["detail"]
    assert "resource cap" in err


@pytest.mark.parametrize("window,code", [(3, 0), (4, 4)])
def test_k0_hecke_window_cap(capsys, monkeypatch, window, code):
    # SL3's window 3 box holds 7^2 = 49 monomials: at the cap, it runs.
    import zipk0.checks
    monkeypatch.setattr(zipk0.checks, "HECKE_WINDOW_CAP", 49)
    got, out, _ = run(capsys, "k0", "--group", "SL3", "--mu", "1,2", "--p", "2",
                      "--checks", "hecke", "--window", str(window))
    assert got == code
    rep = json.loads(out)
    if code == 0:
        assert rep["checks"]["hecke"]["all_equal"] is True
    else:
        assert rep["error"] == "resource-cap"
        assert "81 monomials" in rep["detail"]


def test_resource_cap_on_a_generator(capsys):
    # SL2 at mu = 0, p = 3 has the one-element basis y1^3 - 4*y1: a cap below
    # its degree must stop the job although no pair is ever reduced.
    code, out, err = run(
        capsys, "k0", "--group", "SL2", "--mu", "0", "--p", "3", "--max-degree", "0"
    )
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "resource-cap"
    assert "partial" in rep["note"]
    assert "exceeds cap 0" in rep["detail"]
    assert "resource cap" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["module"]["rank"] == 4


def test_steinberg_check_via_cli(capsys):
    code, out, _ = run(
        capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "2", "--checks", "steinberg"
    )
    assert code == 0
    rep = json.loads(out)
    st = rep["checks"]["steinberg"]
    assert st["independent"] is True
    assert st["spanning_ok"] is True
    assert "Steinberg" in st["note"] and "simply connected" in st["note"]


def test_steinberg_check_gl3_via_cli(capsys):
    # GL3's |W| = 6: one 6 x 6 determinant modulo a prime; spanning is Steinberg's theorem.
    code, out, _ = run(
        capsys, "k0", "--group", "GL3", "--mu", "1,0,0", "--p", "5", "--checks", "steinberg"
    )
    assert code == 0
    st = json.loads(out)["checks"]["steinberg"]
    assert st["independent"] is True
    assert st["spanning_ok"] is True


def test_twisted_preset_via_flag(capsys):
    code, out, _ = run(
        capsys,
        "k0", "--group", "A1xA1", "--mu", "0,0", "--p", "2",
        "--twist", "[[0,1],[1,0]]", "--checks", "kunneth",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["flags"]["experimental_twist"] is True
    assert rep["checks"]["kunneth"]["status"] == "PASS"
    assert rep["job"]["twist"] == [[0, 1], [1, 0]]


def test_invalid_twist_rejected(capsys):
    code, _, err = run(
        capsys,
        "validate", "--group", "A1xA1", "--twist", "[[1,1],[0,1]]",
    )
    assert code == 3
    assert "twist" in err


def test_explicit_group_in_toml_job(capsys, tmp_path):
    job = tmp_path / "job.toml"
    job.write_text(
        "\n".join(
            [
                "mu = [1]",
                "p = 3",
                "[group]",
                "rank = 1",
                "roots = [[2], [-2]]",
                "coroots = [[1], [-1]]",
                "simple_roots = [[2]]",
            ]
        )
    )
    code, out, _ = run(capsys, "k0", str(job))
    assert code == 0
    assert json.loads(out)["module"]["rank"] == 6


@pytest.mark.parametrize("text", ['{"group": "SL2", "mu": [1], "p": 3}',
                                  'group = "SL2"\nmu = [1]\np = 3\n'], ids=["JSON", "TOML"])
def test_a_job_file_without_suffix_is_read_as_json_else_toml(capsys, tmp_path, text):
    (tmp_path / "job").write_text(text)
    flags = run(capsys, "k0", "--group", "SL2", "--mu", "1", "--p", "3")
    assert run(capsys, "k0", str(tmp_path / "job")) == flags
    assert flags[0] == 0


def test_cocharacter_key_alias(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": "SL2", "cocharacter": [1], "p": 2}))
    code, out, _ = run(capsys, "k0", str(job))
    assert code == 0
    assert json.loads(out)["job"]["mu"] == [1]


@pytest.mark.parametrize("key", [*OPTIONS, "cocharacter"])
def test_a_null_job_file_value_counts_as_absent(capsys, tmp_path, key):
    # A null "cocharacter" must not override "mu" with the zero cocharacter.
    absent = {k: v for k, v in {"group": "SL2", "mu": [1], "p": 3}.items() if k != key}
    outcomes = []
    for job in (absent, {**absent, key: None}):
        (tmp_path / "job.json").write_text(json.dumps(job))
        outcomes.append(run(capsys, "k0", str(tmp_path / "job.json")))
    assert outcomes[1] == outcomes[0]


def test_text_format_from_job_file(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": "Gm", "p": 3, "format": "text"}))
    code, out, _ = run(capsys, "k0", str(job))
    assert code == 0
    assert "command: k0" in out.splitlines()


# Command lines that are not COMMAND [JOB_FILE] and options with values.
MALFORMED_ARGV = [
    ("unknown flag", ["k0", "--group", "SL2", "--bogus", "1"]),
    ("unknown command", ["bogus", "--group", "SL2"]),
    ("no command", []),
    ("second positional", ["k0", "job.json", "other.json"]),
    ("format TEXT", ["k0", "--group", "SL2", "--format", "TEXT"]),
    ("trailing mu", ["k0", "--group", "SL2", "--mu"]),
    ("negative mu list", ["k0", "--group", "SL3", "--mu", "-1,2", "--p", "3"]),
]


@pytest.mark.parametrize("argv", [case[1] for case in MALFORMED_ARGV],
                         ids=[case[0] for case in MALFORMED_ARGV])
def test_malformed_command_line_is_one_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# One value per option for a k0 job that reads them all.
FLAG_VALUES = {"group": "GL2", "mu": "1,0", "p": "3", "checks": "hecke", "window": "2",
               "format": "text", "max_degree": "20", "twist": "[[0,-1],[-1,0]]"}


@pytest.mark.parametrize("key", OPTIONS)
def test_attached_value_equals_separate_value(capsys, tmp_path, key):
    values = {**FLAG_VALUES, "out": str(tmp_path / "report")}
    outcomes = []
    for attached in (False, True):
        argv = ["k0"]
        for k, v in values.items():
            flag = "--" + k.replace("_", "-")
            argv += [f"{flag}={v}"] if attached and k == key else [flag, v]
        outcomes.append((*run(capsys, *argv), (tmp_path / "report").read_bytes()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:3] == (0, "", "") and b"hecke:" in outcomes[0][3]


def test_a_repeated_flag_keeps_its_last_value(capsys):
    expected = run(capsys, "validate", "--group", "SL3", "--p", "3")
    assert expected[0] == 0
    assert run(capsys, "validate", "--group", "SL2", "--group=SL3", "--p", "4", "--p", "3") == expected
    assert run(capsys, "validate", "--group=SL2", "--p=4", "--group", "SL3", "--p=3") == expected


@pytest.mark.parametrize("argv", [["--help"], ["k0", "-h"]], ids=["--help", "k0 -h"])
def test_help_names_every_command_and_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert all(name in out for name in COMMANDS)
    assert all("--" + key.replace("_", "-") in out for key in OPTIONS)
