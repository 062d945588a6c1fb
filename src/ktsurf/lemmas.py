"""Executable verifiers for the structural facts behind the lower bound.

Each verifier turns one structural statement about efficient defining pairs
into a concrete check over generated instances (standard spines and small
distant sums).  A failing clause always carries a reproducible payload in
text syntax.  The verifier ids:

  edp1        cardinalities and partner structure of defining pairs
  edp2        unshared curves enclose evenly many punctures
  edp3        children of a one-side-compressing curve are cut-reducing;
              children of a reducing curve are c-reducing
  edp4        cut-reducing shared curves: block profile and children types
  edp5        compressing unshared curves: block profile and children types
  edp6        reducing shared curves have c-reducing children
  edp7        the outermost boundary triple is reducing/cut-reducing with at
              most one compressing member
  mainlemma2  torus witnesses sit in every shared part and move along every
              realized cross path, forcing each cross distance >= n(F)

Children of a curve c in a pants decomposition are the boundary components
of the pair of pants just inside c: the maximal decomposition curves nested
in c plus the punctures of c not covered by them; there are always exactly
two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .curves import Curve, arc_intersection, enclosed_punctures, format_curve
from .pants import DEFAULT_NODE_BUDGET, DEFAULT_TWIST_BUDGET, PantsDecomposition
from .tangles import (BridgeSplitUnlink, CheckReport, check_edp_structure,
                      check_parity, efficient_defining_pairs, is_compressing,
                      is_cut_reducing, is_reducing)
from .trisection import Spine, spine_of_expression, standard
from .invariants import CROSS_ROLES, kt_bounds

LEMMA_IDS = ("edp1", "edp2", "edp3", "edp4", "edp5", "edp6", "edp7",
             "mainlemma2")


class LemmaError(ValueError):
    """Unknown lemma id or unusable configuration."""


@dataclass
class LemmaReport:
    """Outcome of one lemma verifier on one instance."""

    lemma: str
    instance: str
    report: CheckReport = field(default_factory=lambda: CheckReport(""))

    @property
    def ok(self) -> bool:
        return self.report.ok

    def summary(self) -> str:
        verdict = "pass" if self.ok else "FAIL"
        out = f"[{self.lemma}] {self.instance}: {verdict}"
        if not self.ok:
            out += "\n  " + "\n  ".join(self.report.failures[:8])
        return out


def _instances(bridge_cap: int) -> list[tuple[str, Spine]]:
    """Deterministic spine instances with bridge number within the cap.

    The doubly-pointed sphere spine is excluded: its pairwise unions are not
    unlinks (no doubly-pointed sphere spine has them; the two projective
    plane spines are the only honest ones at bridge number two), so the
    defining-pair lemmas do not apply to it.
    """
    spines = {a: standard(a) for a in ("P+", "P-", "K20", "K11", "K02", "T")}
    out = [(a, s) for a, s in spines.items() if s.b <= bridge_cap]
    for a, b in itertools.combinations_with_replacement(spines, 2):
        if spines[a].b + spines[b].b <= bridge_cap:
            expr = f"{a} + {b}"
            out.append((expr, spine_of_expression(expr)))
    return out


def _pairs_of(spine: Spine, twist_budget: int, node_budget: int):
    """Efficient defining pairs of every pairwise unlink, with labels."""
    for i in (1, 2, 3):
        u = spine.unlink(i)
        if u.n > 8:
            continue
        for kind in ("pants", "dual"):
            for k, pair in enumerate(efficient_defining_pairs(
                    u, kind, twist_budget, node_budget)):
                yield f"unlink {i} {kind} pair {k}", u, pair


def children_of(p: PantsDecomposition, c: Curve):
    """Curve and puncture boundary components of the pants just inside c."""
    inside = enclosed_punctures(c)
    nested = [d for d in p.curves
              if d != c and enclosed_punctures(d) < inside]
    maximal = [d for d in nested
               if not any(enclosed_punctures(d) < enclosed_punctures(e)
                          for e in nested if e != d)]
    covered = set()
    for d in maximal:
        covered |= enclosed_punctures(d)
    punctures = sorted(inside - covered)
    return maximal, punctures


def _block_profile(spine: Spine, c: Curve):
    """Per distant summand: how much of it the curve encloses.  An opaque
    spine is one block."""
    if spine.meta is None:
        ranges = [range(spine.n)]
    else:
        ranges = [block for _, block in spine.meta.blocks()]
    inside = enclosed_punctures(c)
    return [(len(inside & set(rng)), len(rng)) for rng in ranges]


def _classify(c: Curve, u: BridgeSplitUnlink) -> str:
    up = arc_intersection(c, u.upper.arcs)
    down = arc_intersection(c, u.lower.arcs)
    if up == 0 and down == 0:
        return "reducing"
    if up == 1 and down == 1:
        return "cut-reducing"
    if min(up, down) == 0:
        return "compressing-one-side"
    if min(up, down) == 1:
        return "cut-one-side"
    return "inefficient"


# -- individual verifiers ---------------------------------------------------------


def _verify_edp1(label, spine, u, pair) -> CheckReport:
    return check_edp_structure(pair, u)


def _verify_edp2(label, spine, u, pair) -> CheckReport:
    return check_parity(pair)


def _verify_edp3(label, spine, u, pair) -> CheckReport:
    rep = CheckReport(subject=f"edp3 on {label}")
    for p, tangle in ((pair.p_plus, u.upper), (pair.p_minus, u.lower)):
        for c in p.curves:
            if not is_compressing(c, tangle):
                continue
            curves, punctures = children_of(p, c)
            if is_reducing(c, u):
                for d in curves:
                    rep.record("reducing-children",
                               is_reducing(d, u) or is_cut_reducing(d, u),
                               f"{format_curve(d)} inside reducing "
                               f"{format_curve(c)} is {_classify(d, u)}")
            elif _classify(c, u) == "compressing-one-side":
                for d in curves:
                    rep.record("one-side-children", is_cut_reducing(d, u),
                               f"{format_curve(d)} inside one-side "
                               f"{format_curve(c)} is {_classify(d, u)}")
    return rep


def _odd_partial_profile(profile) -> bool:
    partial_sizes = [k for k, size in profile if 0 < k < size]
    fulls_ok = all(k == 0 or k == size or 0 < k < size for k, size in profile)
    return (fulls_ok and len(partial_sizes) == 1
            and partial_sizes[0] % 2 == 1 and partial_sizes[0] <= 5)


def _even_partial_profile(profile) -> bool:
    partial_sizes = [k for k, size in profile if 0 < k < size]
    return (len(partial_sizes) <= 1
            and all(k % 2 == 0 and k <= 4 for k in partial_sizes))


def _verify_edp4(label, spine, u, pair) -> CheckReport:
    rep = CheckReport(subject=f"edp4 on {label}")
    for c in pair.psi:
        if not is_cut_reducing(c, u):
            continue
        profile = _block_profile(spine, c)
        rep.record("odd-block-profile", _odd_partial_profile(profile),
                   f"{format_curve(c)} has profile {profile}")
        curves, punctures = children_of(pair.p_plus, c)
        sizes = [len(enclosed_punctures(d)) for d in curves] + [1] * len(punctures)
        odd = [x for x in sizes if x % 2]
        rep.record("children-split", len(odd) == 1,
                   f"{format_curve(c)} children sizes {sizes}")
        for d in curves:
            if len(enclosed_punctures(d)) % 2 == 1:
                rep.record("odd-child-cut-reducing", is_cut_reducing(d, u),
                           f"{format_curve(d)} is {_classify(d, u)}")
                rep.record("odd-child-same-block",
                           _odd_partial_profile(_block_profile(spine, d)),
                           format_curve(d))
            else:
                rep.record("even-child-structure",
                           _even_partial_profile(_block_profile(spine, d)),
                           format_curve(d))
    return rep


def _verify_edp5(label, spine, u, pair) -> CheckReport:
    rep = CheckReport(subject=f"edp5 on {label}")
    sides = ((pair.g_plus, pair.p_plus, u.upper),
             (pair.g_minus, pair.p_minus, u.lower))
    for g, p, tangle in sides:
        for c in g:
            if not is_compressing(c, tangle):
                continue
            profile = _block_profile(spine, c)
            rep.record("even-block-profile",
                       _even_partial_profile(profile)
                       and any(0 < k < size for k, size in profile),
                       f"{format_curve(c)} has profile {profile}")
            curves, punctures = children_of(p, c)
            for d in curves:
                rep.record("children-cut",
                           len(enclosed_punctures(d)) % 2 == 1,
                           f"{format_curve(d)} inside {format_curve(c)}")
    return rep


def _verify_edp6(label, spine, u, pair) -> CheckReport:
    rep = CheckReport(subject=f"edp6 on {label}")
    for c in pair.psi:
        if not is_reducing(c, u):
            continue
        curves, punctures = children_of(pair.p_plus, c)
        for d in curves:
            rep.record("reducing-psi-children",
                       is_reducing(d, u) or is_cut_reducing(d, u),
                       f"{format_curve(d)} inside {format_curve(c)} "
                       f"is {_classify(d, u)}")
    return rep


def _verify_edp7(label, spine, u, pair) -> CheckReport:
    rep = CheckReport(subject=f"edp7 on {label}")
    for side_name, p in (("plus", pair.p_plus), ("minus", pair.p_minus)):
        maximal = [c for c in p.curves
                   if not any(enclosed_punctures(c) < enclosed_punctures(d)
                              for d in p.curves if d != c)]
        covered = set()
        for c in maximal:
            covered |= enclosed_punctures(c)
        # Punctures outside every maximal curve close off with their own
        # neighbourhood circles; the basepoint puncture is always one.
        stray = set(range(u.n)) - covered
        rep.record("triple-size", len(maximal) + len(stray) == 3,
                   f"{side_name}: {len(maximal)} curves + {len(stray)} punctures")
        kinds = [_classify(c, u) for c in maximal]
        rep.record("triple-kinds",
                   all(k in ("reducing", "cut-reducing",
                             "compressing-one-side") for k in kinds),
                   f"{side_name}: {kinds}")
        rep.record("one-compressing",
                   sum(k == "compressing-one-side" for k in kinds) <= 1,
                   f"{side_name}: {kinds}")
        case = ("Case1" if all(k == "reducing" for k in kinds)
                else "Case2" if all(k in ("reducing", "cut-reducing")
                                    for k in kinds)
                else "Case3")
        rep.record(f"{side_name}-case-known", case in ("Case1", "Case2", "Case3"),
                   case)
    return rep


def _verify_mainlemma2(spine_label: str, spine: Spine, twist_budget: int,
                       node_budget: int) -> CheckReport:
    rep = CheckReport(subject=f"mainlemma2 on {spine_label}")
    n_tori = spine.meta.torus_count() if spine.meta is not None else 0
    if n_tori == 0:
        rep.record("applicable", True, "no torus summands; vacuous")
        return rep
    cert = kt_bounds(spine, twist_budget, node_budget)
    torus_blocks = [(l, set(block))
                    for l, (part, block) in enumerate(spine.meta.blocks())
                    if part.op == "atom" and part.name == "T"]
    kc = cert.dual if cert.dual.pairs else cert.pants
    if not kc.pairs:
        rep.record("certificate", False, "no realized certificate to check")
        return rep
    witnesses: dict[tuple[int, int], Curve] = {}
    for i in (1, 2, 3):
        u = spine.unlink(i)
        psi = kc.pairs[i].psi
        for l, block in torus_blocks:
            found = [c for c in psi
                     if is_cut_reducing(c, u)
                     and len(enclosed_punctures(c) & block) == 3]
            rep.record("witness-in-psi", bool(found),
                       f"unlink {i}, summand {l}")
            if found:
                witnesses[(i, l)] = sorted(found)[0]
    for tangle_label, (i, j) in CROSS_ROLES.items():
        a = kc.pairs[i].p_plus
        b = kc.pairs[j].p_minus
        shared = {c.key for c in a.shared_with(b)}
        moved = 0
        for l, _ in torus_blocks:
            w = witnesses.get((i, l))
            if w is not None and w.key not in shared:
                moved += 1
        rep.record("witness-moved", moved >= n_tori,
                   f"tangle {tangle_label}: only {moved} of {n_tori} moved")
        value = kc.cross[tangle_label].value
        rep.record("cross-at-least-n", value is not None and value >= n_tori,
                   f"tangle {tangle_label}: cross {value} < {n_tori}")
    return rep


def verify_lemma(lemma_id: str, bridge_cap: int = 4,
                 twist_budget: int = DEFAULT_TWIST_BUDGET,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> list[LemmaReport]:
    """Run one lemma verifier over the generated instance suite."""
    if lemma_id not in LEMMA_IDS:
        raise LemmaError(f"unknown lemma id {lemma_id!r}; "
                         f"expected one of {', '.join(LEMMA_IDS)}")
    reports: list[LemmaReport] = []
    if lemma_id == "mainlemma2":
        for label, spine in _instances(bridge_cap):
            if (spine.meta.torus_count() if spine.meta else 0) == 0:
                continue
            rep = _verify_mainlemma2(label, spine, twist_budget, node_budget)
            reports.append(LemmaReport(lemma_id, label, rep))
        if not reports and bridge_cap >= 3:
            rep = _verify_mainlemma2("T", standard("T"), twist_budget,
                                     node_budget)
            reports.append(LemmaReport(lemma_id, "T", rep))
        return reports
    checker = {"edp1": _verify_edp1, "edp2": _verify_edp2,
               "edp3": _verify_edp3, "edp4": _verify_edp4,
               "edp5": _verify_edp5, "edp6": _verify_edp6,
               "edp7": _verify_edp7}[lemma_id]
    for spine_label, spine in _instances(bridge_cap):
        for pair_label, u, pair in _pairs_of(spine, twist_budget, node_budget):
            rep = checker(f"{spine_label} {pair_label}", spine, u, pair)
            reports.append(LemmaReport(lemma_id, f"{spine_label} {pair_label}",
                                       rep))
    return reports


def verify_all(bridge_cap: int = 4, twist_budget: int = DEFAULT_TWIST_BUDGET,
               node_budget: int = DEFAULT_NODE_BUDGET) -> list[LemmaReport]:
    out = []
    for lemma_id in LEMMA_IDS:
        out.extend(verify_lemma(lemma_id, bridge_cap, twist_budget,
                                node_budget))
    return out
