"""Correctness gates applied to every job report of the ladder.

A job fails when it exits nonzero or is killed at the cap, when its rank
differs from the closed form, when a cross-check verdict is not the expected
one, when its report bytes differ between passes, or when the mod-l
dimension count refutes its reported torsion.
"""

from __future__ import annotations

import json

from ladder import Job, closed_form_rank


def report_failures(job: Job, exit_code: int, stdout: bytes) -> list[str]:
    """Reasons the job's own run is wrong; empty when it passes."""
    if exit_code != 0:
        if exit_code < 0:
            return [f"killed by signal {-exit_code} (wall cap)"]
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
        module = report["module"]
        want = closed_form_rank(job.group, job.p, report["levi"]["weyl_order"])
        checks = report["checks"]
    except (ValueError, KeyError, TypeError):
        return ["output is not a k0 report"]
    reasons = []
    if not module.get("finite") or module.get("rank") != want:
        reasons.append(f"rank {module.get('rank')} (finite={module.get('finite')}), closed form {want}")
    verdict = {name: checks.get(name, {}) for name in job.checks}
    if "kunneth" in verdict and verdict["kunneth"].get("status") != "PASS":
        reasons.append(f"kunneth {verdict['kunneth'].get('status')}")
    if "theta" in verdict and verdict["theta"].get("all_invariant_pass") is not True:
        reasons.append("theta all_invariant_pass is not true")
    if "hecke" in verdict and verdict["hecke"].get("all_equal") is not True:
        reasons.append("hecke all_equal is not true")
    if "steinberg" in verdict:
        st = verdict["steinberg"]
        if st.get("independent") is not True or st.get("spanning_ok") is not True:
            reasons.append(f"steinberg independent={st.get('independent')} "
                           f"spanning_ok={st.get('spanning_ok')}")
    return reasons


def parse_poly(text: str, names: list[str]) -> dict[tuple[int, ...], int]:
    """Inverse of `zipk0.groebner.poly_to_string` on the given variables."""
    index = {name: i for i, name in enumerate(names)}
    poly: dict[tuple[int, ...], int] = {}
    if text == "0":
        return poly
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff = 1
        exps = [0] * len(names)
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e) if e else 1
        mono = tuple(exps)
        poly[mono] = poly.get(mono, 0) + sign * coeff
    return {m: c for m, c in poly.items() if c}


def _prime_factors(n: int) -> set[int]:
    out = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _degree_monomials(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _degree_monomials(n - 1, total - first):
            yield (first,) + rest


def mod_l_dimension(relations: list[str], names: list[str], ell: int, limit: int) -> int:
    """dim over F_l of Z[names]/(relations, l), from a strong basis over Z;
    limit + 1 when it exceeds `limit`.

    Modulo l the quotient is a vector space on the monomials outside the
    ideal of unit-coefficient leading monomials.  That set is closed under
    division, so the count stops at the first degree without such a monomial.
    """
    from zipk0.groebner import PolyRingSpec, strong_groebner

    n = len(names)
    gens = [parse_poly(r, names) for r in relations]
    gens.append({(0,) * n: ell})
    gb = strong_groebner(gens, PolyRingSpec(tuple(names)))
    unit_lms = [m for m, c in gb.leading_terms() if abs(c) == 1]
    count = 0
    total = 0
    while count <= limit:
        level = sum(1 for m in _degree_monomials(n, total)
                    if not any(_divides(u, m) for u in unit_lms))
        if level == 0:
            return count
        count += level
        total += 1
    return limit + 1


def torsion_failures(report: dict) -> list[str]:
    """Mod-l oracle: for each prime l dividing a reported invariant factor,
    dim_{F_l}(M / l M) must equal rank + #{factors divisible by l}."""
    module = report["module"]
    torsion = module["torsion"]
    primes = sorted(set().union(*(_prime_factors(d) for d in torsion)))
    names = report["presentation"]["variables"]
    relations = report["presentation"]["relations"]
    reasons = []
    for ell in primes:
        want = module["rank"] + sum(1 for d in torsion if d % ell == 0)
        got = mod_l_dimension(relations, names, ell, want)
        if got != want:
            dim = f"over {want}" if got > want else str(got)
            reasons.append(f"torsion {tuple(torsion)}: dim over F_{ell} is {dim}, report implies {want}")
    return reasons
