"""Command-line surface: declarative job files, deterministic reports.

Commands: validate, k0.
A job is described by a JSON or TOML file plus flag overrides; reports are
emitted as JSON (schema 1) or as a text rendering of the same data.  Exit
codes: 0 ok, 2 parse or output error, 3 validation failure, 4 resource cap.
Each command imports the layers it runs when it runs: `validate` needs only
the root datum and the lattice, the Groebner pipeline (zipk0.zipk and what
it imports) loads for k0, and the cross-checks (zipk0.checks) only for a k0
job that runs them.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ._record import record
from .caps import DEFAULT_MAX_DEGREE, ResourceCapError
from .lattice import require_prime
from .rootdata import (
    PRESET_NAMES,
    RootDatum,
    RootDatumError,
    fundamental_group,
    make_root_datum,
    pairing,
    preset,
    validate,
)

if TYPE_CHECKING:
    from .zipk import CocharacterDatum, KZeroPresentation

SCHEMA_VERSION = 1
VALID_CHECKS = ("kunneth", "theta", "hecke", "steinberg")
DEFAULT_WINDOW = 3  # exponent box radius of the Hecke check when the job sets none

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_OUTPUT = 2  # the report could not be written
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4

# The options, each written --name VALUE or --name=VALUE with "_" as "-", and
# the keys a job file may set besides "cocharacter", the alias of "mu".
OPTIONS = {
    "group": f"preset ({', '.join(PRESET_NAMES)}) or inline JSON datum",
    "mu": 'cocharacter, e.g. 1,0 or [1,0]; a negative first entry as --mu=-1,2 or --mu "[-1,2]"',
    "p": "prime",
    "checks": f"comma list from {','.join(VALID_CHECKS)}",
    "window": f"exponent box radius of the hecke check (default {DEFAULT_WINDOW})",
    "format": "report format, json or text (default json)",
    "out": "write the report to this path instead of stdout",
    "max_degree": f"Groebner degree cap (default {DEFAULT_MAX_DEGREE})",
    "twist": "finite-order unimodular matrix as JSON rows",
}


class JobParseError(ValueError):
    pass


@record
class JobSpec:
    """Resolved job: group datum plus pipeline parameters."""

    group: Any                 # the preset's name, or the explicit datum as given
    rd: RootDatum
    mu: tuple[int, ...]
    p: int
    checks: tuple[str, ...]
    window: Optional[int]      # None: the job sets none
    fmt: str
    out: Optional[str]
    max_degree: int

    def echo(self) -> dict:
        twist = self.rd.twist
        return {
            "group": self.group,
            "mu": list(self.mu),
            "p": self.p,
            "checks": sorted(self.checks),
            "window": self.window,
            "max_degree": self.max_degree,
            "twist": [list(r) for r in twist] if twist is not None else None,
        }


def _parse_int_vector(value: Any, what: str) -> tuple[int, ...]:
    if isinstance(value, str):
        value = value.strip()
        if value.startswith("["):
            value = json.loads(value)
        else:
            value = value.split(",") if value else []  # an empty entry is refused
    try:
        if isinstance(value, dict):  # iterating it would read its keys
            raise TypeError(value)
        return tuple(_parse_int(v, what) for v in value)
    except (TypeError, ValueError) as exc:
        raise JobParseError(f"cannot parse {what} from {value!r}") from exc


def _parse_int(value: Any, what: str, minimum: Optional[int] = None) -> int:
    try:  # an int or a string of one: a bool or a float is refused, not truncated
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError(value)
        n = int(value)
    except (TypeError, ValueError) as exc:
        raise JobParseError(f"cannot parse {what} from {value!r}") from exc
    if minimum is not None and n < minimum:
        raise JobParseError(f"{what} must be at least {minimum}, got {n}")
    return n


def _parse_matrix(value: Any, what: str) -> tuple[tuple[int, ...], ...]:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise JobParseError(f"cannot parse {what}: {exc}") from exc
    try:  # neither a mapping's keys nor a string row's characters are entries
        if isinstance(value, dict) or not all(isinstance(row, list) for row in value):
            raise TypeError(value)
        return tuple(tuple(_parse_int(x, what) for x in row) for row in value)
    except (TypeError, ValueError) as exc:
        raise JobParseError(f"cannot parse {what} from {value!r}") from exc


def _load_job_file(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise JobParseError(f"cannot read job file {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise JobParseError(f"job file {path} is not UTF-8: {exc}") from exc
    if path.endswith(".toml"):
        return _parse_toml(text, path)
    if path.endswith(".json"):
        return _parse_json(text, path)
    try:
        return _parse_json(text, path)
    except JobParseError:
        return _parse_toml(text, path)


def _parse_json(text: str, path: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise JobParseError(f"job file {path} must contain an object")
    return data


def _parse_toml(text: str, path: str) -> dict:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError as exc:  # pragma: no cover
            raise JobParseError("TOML support requires Python 3.11+ or tomli") from exc
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise JobParseError(f"invalid TOML in {path}: {exc}") from exc


def _build_group(
    spec_value: Any, twist_override: Any
) -> tuple[Any, int, Callable[[], RootDatum]]:
    """Preset name or explicit {rank, roots, coroots, simple_roots, twist}, as
    (the preset's name or the explicit dict, its rank, its root datum's
    builder, which may raise RootDatumError and which load_job calls last)."""
    if isinstance(spec_value, str) and spec_value.strip().startswith("{"):
        spec_value = json.loads(spec_value)
    if isinstance(spec_value, dict):
        unknown = set(spec_value) - {"rank", "roots", "coroots", "simple_roots", "twist"}
        if unknown:
            raise JobParseError(f"unknown explicit group keys: {sorted(unknown)}")
        try:
            rank = _parse_int(spec_value["rank"], "rank", minimum=0)
            roots = _parse_matrix(spec_value.get("roots", []), "roots")
            coroots = _parse_matrix(spec_value.get("coroots", []), "coroots")
            simples = _parse_matrix(spec_value.get("simple_roots", []), "simple roots")
        except (KeyError, TypeError) as exc:
            raise JobParseError(f"explicit group is missing fields: {exc}") from exc
        twist = spec_value.get("twist")
        if twist_override is not None:
            twist = twist_override
        tw = _parse_matrix(twist, "twist") if twist is not None else None
        for vec in list(roots) + list(coroots) + list(simples):
            if len(vec) != rank:
                raise JobParseError(f"vector {list(vec)} does not have length rank={rank}")
        return spec_value, rank, lambda: make_root_datum(
            rank, roots, coroots, simples, tw, name="explicit"
        )
    if not isinstance(spec_value, str):
        raise JobParseError(f"group must be a preset name or an object, got {spec_value!r}")
    name = spec_value.strip()
    try:
        rd = preset(name)
    except KeyError as exc:  # str() of a KeyError would quote the message
        raise JobParseError(exc.args[0]) from exc
    if twist_override is not None:
        tw = _parse_matrix(twist_override, "twist")
        rd = RootDatum(rd.rank, rd.roots, rd.coroots, rd.simple_indices, tw, rd.name)
    return rd.name, rd.rank, lambda: rd


def load_job(args: dict) -> JobSpec:
    """The job of parse_argv's args: the job file's keys, less those whose value
    is null, then the options given as flags over them.  Its root datum has
    passed validate: a datum that fails raises RootDatumError."""
    data: dict = _load_job_file(args["job_file"]) if args["job_file"] else {}
    unknown = set(data) - set(OPTIONS) - {"cocharacter"}
    if unknown:
        raise JobParseError(f"unknown job file keys: {sorted(unknown)}")
    values = {k: v for k, v in data.items() if v is not None}
    if "cocharacter" in values:  # the job file's alias of "mu", which wins over it
        values["mu"] = values.pop("cocharacter")
    values.update(args)

    group_value = values.get("group")
    if group_value is None:
        raise JobParseError("no group given (preset name or explicit datum)")
    group, rank, build_datum = _build_group(group_value, values.get("twist"))

    mu_value = values.get("mu")
    mu = _parse_int_vector(mu_value, "cocharacter") if mu_value is not None else (0,) * rank
    if len(mu) != rank:
        raise JobParseError(
            f"cocharacter {list(mu)} has length {len(mu)}, expected rank {rank}"
        )

    p = _parse_int(values.get("p", 2), "prime")

    checks_value = values.get("checks", [])
    if isinstance(checks_value, str):  # an empty entry is an empty name, refused below
        checks_value = checks_value.split(",") if checks_value.strip() else []
    if not isinstance(checks_value, list) or not all(isinstance(c, str) for c in checks_value):
        raise JobParseError(f"checks must be a list of names or a comma list, got {checks_value!r}")
    checks = tuple(sorted({c.strip() for c in checks_value}))
    bad = [c for c in checks if c not in VALID_CHECKS]
    if bad:
        raise JobParseError(f"unknown checks {bad}; valid: {list(VALID_CHECKS)}")

    window_value = values.get("window")
    window = _parse_int(window_value, "window", minimum=0) if window_value is not None else None
    # An option that the command would echo but never read is refused.
    if args["command"] == "validate":
        unread = [k for k in ("mu", "checks", "window", "max_degree") if k in values]
        if unread:
            raise JobParseError(f"validate does not read {', '.join(unread)}")
    elif window is not None and "hecke" not in checks:
        raise JobParseError("window is read only by the hecke check")

    fmt = values.get("format", "json")
    if fmt not in ("json", "text"):
        raise JobParseError(f"format must be json or text, got {fmt!r}")

    max_degree = _parse_int(values.get("max_degree", DEFAULT_MAX_DEGREE), "max_degree", minimum=0)
    out = values.get("out")
    if out is not None and not isinstance(out, str):
        raise JobParseError(f"out must be a path, got {out!r}")
    rd = build_datum()  # last, so that every parse error takes precedence
    validate(rd)
    return JobSpec(group, rd, mu, p, checks, window, fmt, out, max_degree)


# ---------------------------------------------------------------------------
# Report construction


def _vec(v) -> list:
    return [int(x) for x in v]


def _module_dict(report) -> dict:
    return {
        "finite": True,  # K0 is module-finite; schema 1 keeps this key and note
        "rank": report.rank,
        "torsion": list(report.torsion),
        "bound": report.bound,
        "standard_monomials": [list(m) for m in report.standard_monomials],
        "note": "",
    }


def _levi_dict(datum: CocharacterDatum, kz: KZeroPresentation) -> dict:
    """The Levi's roots and Weyl order, and the roots of the parabolics
    P^- (<alpha, mu> <= 0) and P^+ (<alpha, mu> >= 0)."""
    rd = datum.rd
    levi = kz.levi
    heights = [pairing(a, datum.mu) for a in rd.roots]
    return {
        "roots": [_vec(r) for r in levi.roots],
        "simple_roots": [_vec(r) for r in levi.simple_roots],
        "weyl_order": len(levi.weyl),
        "parabolic_nonpositive": [_vec(a) for a, h in zip(rd.roots, heights) if h <= 0],
        "parabolic_nonnegative": [_vec(a) for a, h in zip(rd.roots, heights) if h >= 0],
    }


def _run_checks(job: JobSpec, datum: CocharacterDatum, kz: KZeroPresentation) -> dict:
    if not job.checks:
        return {}
    from .checks import check_sections

    window = job.window if job.window is not None else DEFAULT_WINDOW
    return check_sections(job.checks, datum, kz, job.max_degree, window)


def cmd_validate(job: JobSpec) -> dict:
    job.rd.weight_lift  # the simply-connectedness gate, as in k0
    require_prime(job.p)  # the primality gate, as in k0
    return {
        "schema": SCHEMA_VERSION,
        "command": "validate",
        "job": job.echo(),
        "valid": True,
        "fundamental_group": fundamental_group(job.rd),
        "derived_simply_connected": True,
    }


def cmd_k0(job: JobSpec) -> dict:
    from .groebner import poly_to_string
    from .zipk import CocharacterDatum, compute_k0

    datum = CocharacterDatum(job.rd, job.mu, job.p)
    kz = compute_k0(datum, job.max_degree)
    spec = kz.groebner.spec
    syzygies = [poly_to_string(r, spec) for r in kz.syzygy_relations]
    frobenius = [poly_to_string(r, spec) for r in kz.frobenius_relations]
    report = {
        "schema": SCHEMA_VERSION,
        "command": "k0",
        "job": job.echo(),
        "levi": _levi_dict(datum, kz),
        "presentation": {
            "variables": list(spec.names),
            "generator_weights": [_vec(w) for w in kz.levi.generator_weights],
            "relations": syzygies + frobenius,
            "syzygy_relations": syzygies,
            "frobenius_relations": frobenius,
        },
        "groebner": {
            "variables": list(spec.names),
            "basis": kz.groebner.to_strings(),
        },
        "module": _module_dict(kz.module_report),
        "flags": {
            "experimental_twist": job.rd.twist is not None,
            "one_nonzero": kz.module_report.rank > 0 or bool(kz.module_report.torsion),
        },
        "checks": _run_checks(job, datum, kz),
    }
    return report


# ---------------------------------------------------------------------------
# Rendering


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines: list[str] = []

    def walk(value, prefix: str):
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)) and v and not _is_flat_list(v):
                    lines.append(f"{prefix}{k}:")
                    walk(v, prefix + "  ")
                else:
                    lines.append(f"{prefix}{k}: {_flat(v)}")
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (dict, list)) and item and not _is_flat_list(item):
                    lines.append(f"{prefix}-")
                    walk(item, prefix + "  ")
                else:
                    lines.append(f"{prefix}- {_flat(item)}")

    def _is_flat_list(v):
        return isinstance(v, list) and all(
            not isinstance(x, (dict, list)) or x == [] for x in v
        )

    def _flat(v):
        if isinstance(v, list):
            return "[" + ", ".join(str(_flat(x)) for x in v) + "]"
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    walk(report, "")
    return "\n".join(lines) + "\n"


def emit(report: dict, job: JobSpec) -> None:
    """Write the report to the job's --out file, else to stdout and flush it;
    a failed write raises OSError."""
    text = render_json(report) if job.fmt == "json" else render_text(report)
    if job.out:
        with open(job.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _output_error(exc: OSError) -> int:
    print(f"output error: {exc}", file=sys.stderr)
    return EXIT_OUTPUT


# ---------------------------------------------------------------------------
# Entry point


COMMANDS = {
    "validate": cmd_validate,
    "k0": cmd_k0,
}


def parse_argv(argv: Sequence[str]) -> dict:
    """The command line `COMMAND [JOB_FILE]` with options written --name VALUE
    or --name=VALUE, as a dict of the command, the job file (or None) and each
    option given.  A repeated option keeps its last value, and a separate value
    may start with "-" only as a negative integer.  A malformed line raises
    JobParseError."""
    if not argv or argv[0] not in COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise JobParseError(f"{given}; commands: {', '.join(COMMANDS)}")
    flags = {"--" + key.replace("_", "-"): key for key in OPTIONS}
    args: dict = {"command": argv[0], "job_file": None}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if args["job_file"] is not None:
                raise JobParseError(f"unexpected argument {token!r}")
            args["job_file"] = token
            continue
        flag, attached, value = token.partition("=")
        if flag not in flags:
            raise JobParseError(f"unknown option {flag}")
        if not attached:
            value = next(tokens, "-")  # at the end, as if an option followed
            if value.startswith("-") and not value[1:].isdecimal():
                raise JobParseError(f"argument {flag}: expected one argument")
        args[flags[flag]] = value
    return args


def _help_text() -> str:
    import textwrap

    options = [("-h, --help", "print this help and exit")] + [
        (f"--{key.replace('_', '-')} {key.upper()}", text) for key, text in OPTIONS.items()
    ]
    return """usage: zipk0 COMMAND [JOB_FILE] [--option VALUE | --option=VALUE ...]

Exact presentations of the Grothendieck ring of a stack of G-zips: R(L)/IR(L)
from a root datum, cocharacter and prime.

commands:
  validate  check the root datum axioms and the simply-connectedness gate
  k0        compute the presentation of R(L)/IR(L) with optional cross-checks

JOB_FILE is a JSON or TOML job description whose keys are the options below
(max_degree for --max-degree; "cocharacter" is an alias of "mu").  A flag
overrides the file.

options:
""" + "".join(
        textwrap.fill(text, 79, initial_indent=f"  {name:<25} ", subsequent_indent=" " * 28) + "\n"
        for name, text in options
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help_text())
        return EXIT_OK
    try:
        args = parse_argv(argv)
        job = load_job(args)
    except (JobParseError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RootDatumError as exc:  # from make_root_datum or validate
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    capped = None
    try:
        report = COMMANDS[args["command"]](job)
    # RootDatumError and SimplyConnectedHypothesisError are ValueErrors.
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        capped = exc
        report = {
            "schema": SCHEMA_VERSION,
            "command": args["command"],
            "job": job.echo(),
            "error": "resource-cap",
            "detail": str(exc),
            "note": "partial report: computation aborted at the configured cap",
        }
    try:
        emit(report, job)
    except OSError as exc:
        return _output_error(exc)
    if capped is not None:
        print(f"resource cap: {capped}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def console_entry() -> None:
    """The process entry point (`python -m zipk0.cli` and the `zipk0`
    script): run main(), flush the standard streams and end the process with
    main's code, skipping the interpreter's teardown of a finished job."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_OUTPUT:  # else main has reported this failed write
            code = _output_error(exc)
    try:
        sys.stderr.flush()
    except OSError:
        code = EXIT_OUTPUT
    os._exit(code)


if __name__ == "__main__":
    console_entry()
