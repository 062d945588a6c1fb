"""Inputs, ops and correctness oracles of the benchmark workloads.

Inputs are drawn from the seed before anything is timed; the program sees
only surface expressions and lemma ids.  Each op returns what its oracle
needs, and the oracle returns a list of problems (empty when the op is
correct).

  cli-cold     the seven atoms, one census sum per cost stratum, and T # T,
               each in a fresh ``ktsurf invariant`` process
  census-warm  a seeded sample of the census, all in one process
  lemmas-cap4  two lemma ids drawn from edp1-edp7, then mainlemma2, at
               bridge cap 4, in one process
"""

from __future__ import annotations

import hashlib
import itertools
import random

from ktsurf import invariants, lemmas, trisection

WORKLOADS = ("cli-cold", "census-warm", "lemmas-cap4")

CENSUS_MAX_BRIDGE = 12
CENSUS_MAX_TORI = 3
CENSUS_SAMPLE = 240
SMOKE_CENSUS_SAMPLE = 12

# Cold cost of a census sum is set by which searched atoms (K02, K11, K20,
# T) it contains: each distinct one costs a block search, the two-bridge
# atoms cost almost nothing.  cli-cold draws one sum per stratum, so every
# seed pays the same block searches with different expressions.
SEARCHED_ATOMS = ("K02", "K11", "K20", "T")
CLI_STRATA = (("T",), ("K11", "T"), ("K02", "K20"), ())
SMOKE_CLI_ATOMS = ("U", "P+")
SKIPPED_EXPRESSION = "T # T"
SKIP_NOTE = "search skipped"

LEMMA_BRIDGE_CAP = 4
SMOKE_LEMMA_BRIDGE_CAP = 3
FINAL_LEMMA = "mainlemma2"

# Bound before any tracer is installed, so the oracle never shows in a trace.
_format_certificate = invariants.format_certificate
_parse_certificate = invariants.parse_certificate
_verify_certificate = invariants.verify_certificate


def bridge_numbers() -> dict[str, int]:
    return {a: trisection.standard(a).b for a in trisection.ATOMS}


def torus_count(expr: str) -> int:
    return trisection.parse_expression(expr).torus_count()


def census_population() -> list[str]:
    """Distant sums of at least two atoms with b <= 12 and at most 3 tori,
    in the order of scripts/census.py."""
    bridges = bridge_numbers()
    atoms = sorted(bridges)
    out = []
    for size in range(2, CENSUS_MAX_BRIDGE // min(bridges.values()) + 1):
        for combo in itertools.combinations_with_replacement(atoms, size):
            expr = " + ".join(combo)
            if (sum(bridges[a] for a in combo) <= CENSUS_MAX_BRIDGE
                    and torus_count(expr) <= CENSUS_MAX_TORI):
                out.append(expr)
    return out


def _stratum(expr: str) -> tuple[str, ...]:
    atoms = trisection.parse_expression(expr).atoms()
    return tuple(sorted(set(atoms) & set(SEARCHED_ATOMS)))


def _sum_item(expr: str, bridges: dict[str, int]) -> dict:
    atoms = trisection.parse_expression(expr).atoms()
    return {"label": expr, "tori": torus_count(expr),
            "bridge": sum(bridges[a] for a in atoms), "exit": 0}


def make_inputs(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The ops of one pass, each a dict with at least a `label`."""
    rng = random.Random(f"{workload}/{seed}")
    bridges = bridge_numbers()
    if workload == "cli-cold":
        population = census_population()
        atoms = SMOKE_CLI_ATOMS if smoke else trisection.ATOMS
        strata = ((),) if smoke else CLI_STRATA
        items = [_sum_item(a, bridges) for a in atoms]
        for stratum in strata:
            members = [e for e in population if _stratum(e) == stratum]
            items.append(_sum_item(rng.choice(members), bridges))
        items.append({"label": SKIPPED_EXPRESSION, "exit": 2})
        return items
    if workload == "census-warm":
        population = census_population()
        if smoke:
            population = [e for e in population if not _stratum(e)]
            size = SMOKE_CENSUS_SAMPLE
        else:
            size = CENSUS_SAMPLE
        return [_sum_item(e, bridges) for e in rng.sample(population, size)]
    if workload == "lemmas-cap4":
        cap = SMOKE_LEMMA_BRIDGE_CAP if smoke else LEMMA_BRIDGE_CAP
        edp = [i for i in lemmas.LEMMA_IDS if i.startswith("edp")]
        ids = rng.sample(edp, 2) + [FINAL_LEMMA]
        return [{"label": i, "cap": cap} for i in ids]
    raise ValueError(f"unknown workload {workload!r}")


# -- ops and oracles ----------------------------------------------------------

def census_op(item: dict):
    """Produce, check, print, parse and re-check one certificate."""
    spine = trisection.spine_of_expression(item["label"])
    cert = invariants.kt_bounds(spine)
    check = invariants.verify_certificate(cert)
    text = invariants.format_certificate(cert)
    again = invariants.parse_certificate(text)
    recheck = invariants.verify_certificate(again)
    return spine, cert, check.ok, text, again, recheck.ok


def census_text(result) -> str:
    return result[3]


def _exact_problems(item: dict, cert) -> list[str]:
    want = 3 * item["tori"]
    if cert.exact and cert.l_upper == cert.lstar_upper == cert.lower == want:
        return []
    return [f"expected exact L = L* = lower = {want}, got L<={cert.l_upper} "
            f"L*<={cert.lstar_upper} lower={cert.lower} exact={cert.exact}"]


def _reprint_problems(text: str, again) -> list[str]:
    problems = []
    if _format_certificate(again) != text:
        problems.append("reprinted certificate differs from the original")
    if not _verify_certificate(again).ok:
        problems.append("parsed certificate fails verification")
    return problems


def check_census(item: dict, result) -> list[str]:
    spine, cert, ok, text, again, reok = result
    problems = _exact_problems(item, cert)
    if spine.b != item["bridge"]:
        problems.append(f"bridge number {spine.b} != {item['bridge']}")
    if not ok:
        problems.append("certificate fails verification")
    if not reok:
        problems.append("parsed certificate fails re-verification")
    return problems + _reprint_problems(text, again)


def check_cli(item: dict, code: int, out: str) -> list[str]:
    """Oracle for one `ktsurf invariant` process and its standard output."""
    if code != item["exit"]:
        return [f"exit code {code}, expected {item['exit']}"]
    text, marker, verdict = out.partition("verification: ")
    if not marker or verdict.strip() != "ok":
        return ["output does not end with 'verification: ok'"]
    cert = _parse_certificate(text)
    problems = _reprint_problems(text, cert)
    if item["exit"] == 0:
        problems += _exact_problems(item, cert)
    else:
        if cert.exact:
            problems.append("expected bounds only")
        if not any(SKIP_NOTE in note for note in cert.notes):
            problems.append(f"missing the {SKIP_NOTE!r} note")
    return problems


def lemma_op(item: dict):
    return lemmas.verify_lemma(item["label"], item["cap"])


def check_lemma(item: dict, reports) -> list[str]:
    if not reports:
        return ["no instances checked"]
    return [r.summary() for r in reports if not r.ok]


def lemma_text(reports) -> str:
    return "\n".join(r.summary() for r in reports)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()
