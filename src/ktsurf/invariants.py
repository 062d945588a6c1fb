"""Upper and certified lower bounds for the two Kirby-Thompson invariants.

For a spine with pairwise unlinks U_1, U_2, U_3 the invariant picks, for each
unlink, an efficient defining pair, and charges the three cross distances
between the two decompositions attached to the same tangle:

    tangle 12 appears in U_1 (plus side) and U_2 (minus side),
    tangle 23 in U_2 (plus) and U_3 (minus),
    tangle 31 in U_3 (plus) and U_1 (minus);

the invariant is the minimal possible sum of the three cross distances, with
pants-complex distances for the plain invariant and dual-complex distances
for the starred one.  The doubly-pointed sphere spine is defined to be zero.

Upper bounds come from two routes:

  * a direct search over efficient defining pairs (small spheres), and
  * a compositional certificate for distant sums: junction curves around the
    block boundaries are compressing or cut for every tangle, so block
    certificates embed side by side and cross paths concatenate.

Blocks sit where `SurfaceExpr.blocks` in :mod:`ktsurf.trisection` puts them;
the composed certificates and the torus witnesses both read that layout.

Lower bounds are certificates by construction: each torus summand plants a
cut-reducing curve enclosing three of its punctures inside the shared part
of every efficient defining pair, and such a curve must move along every
realized cross path, else the torus block would admit a common c-reducing
curve for all three of its tangles and be reducible or stabilized.  This
gives three per torus summand; everything else gets the trivial zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .curves import Curve, PuncturedSphere, enclosed_punctures, round_curve
from .pants import (DEFAULT_NODE_BUDGET, DEFAULT_TWIST_BUDGET, DistanceResult,
                    PantsDecomposition, format_pants, interior_pool,
                    parse_pants)
from .tangles import (CheckReport, EfficientPair, efficient_defining_pairs,
                      enumerate_efficient, is_cut_reducing, is_efficient,
                      pair_distance)
from .trisection import (Spine, parse_spine, format_spine,
                         spine_of_expression, standard)

MAX_SEARCH_PUNCTURES = 8

# tangle label -> (unlink where it is the plus side, unlink where minus side)
CROSS_ROLES = {"12": (1, 2), "23": (2, 3), "31": (3, 1)}
TANGLE_OF_UNLINK_PLUS = {1: "12", 2: "23", 3: "31"}
TANGLE_OF_UNLINK_MINUS = {1: "31", 2: "12", 3: "23"}


class InvariantError(ValueError):
    """Invariant computation cannot proceed on this input."""


@dataclass
class KindCertificate:
    """Chosen pairs and realized cross paths for one distance kind."""

    kind: str
    pairs: dict[int, EfficientPair] = field(default_factory=dict)
    cross: dict[str, DistanceResult] = field(default_factory=dict)
    total: int | None = None
    note: str = ""


@dataclass
class KTCertificate:
    """Full record of one invariant computation."""

    spine: Spine
    pants: KindCertificate
    dual: KindCertificate
    lower: int = 0
    justification: str = "trivial-zero"
    twist_budget: int = DEFAULT_TWIST_BUDGET
    node_budget: int = DEFAULT_NODE_BUDGET
    notes: list[str] = field(default_factory=list)

    @property
    def l_upper(self) -> int | None:
        return self.pants.total

    @property
    def lstar_upper(self) -> int | None:
        return self.dual.total

    @property
    def exact(self) -> bool:
        return (self.l_upper is not None and self.lstar_upper is not None
                and self.l_upper == self.lstar_upper == self.lower)


# -- searched certificates ------------------------------------------------------

def _searched_kind(s: Spine, kind: str, twist_budget: int, node_budget: int,
                   pool=None, stop_at: int | None = None,
                   cap: int = 48) -> KindCertificate:
    """Minimise the cross-distance sum over efficient defining pairs."""
    out = KindCertificate(kind=kind)
    edps = {}
    for i in (1, 2, 3):
        found = efficient_defining_pairs(s.unlink(i), kind, twist_budget,
                                         node_budget, pool)
        if not found:
            out.note = (f"no efficient defining pairs for unlink {i} "
                        f"within twist budget {twist_budget}")
            return out
        found = sorted(found, key=lambda e: (e.p_plus.key, e.p_minus.key))
        edps[i] = found[:cap]
    cross_cache: dict = {}

    def cross(a, b):
        key = (a.key, b.key)
        if key not in cross_cache:
            cross_cache[key] = pair_distance(a, b, kind, twist_budget,
                                             node_budget, pool)
        return cross_cache[key]

    best = None
    best_choice = None
    for e1, e2, e3 in itertools.product(edps[1], edps[2], edps[3]):
        picks = {1: e1, 2: e2, 3: e3}
        total = 0
        results = {}
        feasible = True
        for label, (i, j) in CROSS_ROLES.items():
            r = cross(picks[i].p_plus, picks[j].p_minus)
            if r.value is None:
                feasible = False
                break
            results[label] = r
            total += r.value
            if best is not None and total >= best:
                feasible = False
                break
        if not feasible:
            continue
        if best is None or total < best:
            best = total
            best_choice = (picks, results)
            if stop_at is not None and best <= stop_at:
                break
    if best_choice is None:
        out.note = "all cross searches exhausted their budgets"
        return out
    out.pairs, out.cross = best_choice
    out.total = best
    return out


# -- composed certificates -------------------------------------------------------

@lru_cache(maxsize=None)
def _block_certificate(expr_text: str, kind: str, twist_budget: int,
                       node_budget: int) -> KindCertificate:
    """Standalone certificate of one distant summand, computed over the
    translation-safe interior pool.

    The budget is raised until the certificate meets the summand's own lower
    bound (the interior pool is slightly poorer than the free one, so the
    optimum can need one extra twist); the best certificate found is kept.
    """
    block = spine_of_expression(expr_text)
    if block.n > MAX_SEARCH_PUNCTURES:
        raise InvariantError(
            f"summand {expr_text!r} needs a {block.n}-punctured search")
    target = kt_lower(block)[0]
    best = None
    for budget in range(twist_budget, max(twist_budget, 4) + 1):
        pool = interior_pool(block.sphere, budget)
        cert = _searched_kind(block, kind, budget, node_budget, pool=pool,
                              stop_at=target)
        if cert.total is not None and (best is None or best.total is None
                                       or cert.total < best.total):
            best = cert
        if best is not None and best.total == target:
            return best
    if best is None or best.total is None:
        raise InvariantError(
            f"no interior certificate for summand {expr_text!r}")
    return best


def _embed_curve(c: Curve, offset: int, sphere: PuncturedSphere) -> Curve:
    """Translate an interior-pool curve of a block into the sum sphere.

    Rounds not containing the block's first puncture shift literally; rounds
    containing it extend over everything to the left, which is the class cut
    off by the junction curves.  Interior twist words shift with the block.
    """
    i, j = c.base
    word = tuple((g + offset, sg) for g, sg in c.word)
    if i == 0:
        base = (0, offset + j)
    else:
        base = (offset + i, offset + j)
    return Curve(sphere, word, base)


def _junction_curves(sphere: PuncturedSphere, offsets: list[int]) -> list[Curve]:
    """Three shared curves per junction: everything-before minus the last
    prior puncture, everything-before, and everything-before plus the next
    block's first puncture.  Each meets every shadow system at most once."""
    out = []
    for b in offsets[1:]:
        out.append(round_curve(sphere, 0, b - 2))
        out.append(round_curve(sphere, 0, b - 1))
        out.append(round_curve(sphere, 0, b))
    return out


def _composed_kind(s: Spine, kind: str, twist_budget: int,
                   node_budget: int) -> KindCertificate:
    """Certificate for a distant sum assembled from block certificates."""
    layout = s.meta.blocks()
    certs = [_block_certificate(str(part), kind, twist_budget, node_budget)
             for part, _ in layout]
    offsets = [block.start for _, block in layout]
    blocks = range(len(layout))
    sphere = s.sphere
    base = tuple(_junction_curves(sphere, offsets))

    def assemble(side_of_block):
        curves = list(base)
        for l in blocks:
            curves.extend(_embed_curve(c, offsets[l], sphere)
                          for c in side_of_block(l).curves)
        return PantsDecomposition(sphere, curves)

    def compose_path(block_paths):
        """Walk the blocks in order, replaying each block path while the
        other blocks hold their current decompositions."""
        state = [[_embed_curve(c, offsets[l], sphere)
                  for c in block_paths[l][0].curves]
                 for l in blocks]

        def snapshot():
            curves = list(base)
            for part in state:
                curves.extend(part)
            return PantsDecomposition(sphere, curves)

        path = [snapshot()]
        for l in blocks:
            for vertex in block_paths[l][1:]:
                state[l] = [_embed_curve(c, offsets[l], sphere)
                            for c in vertex.curves]
                path.append(snapshot())
        return path

    out = KindCertificate(kind=kind)
    pairs = {}
    for i in (1, 2, 3):
        plus = assemble(lambda l: certs[l].pairs[i].p_plus)
        minus = assemble(lambda l: certs[l].pairs[i].p_minus)
        path = compose_path([certs[l].pairs[i].realized.path
                             for l in blocks])
        if path[0] != plus or path[-1] != minus:
            raise InvariantError(
                f"composed within path for unlink {i} misses its endpoints")
        res = DistanceResult(kind=kind, value=len(path) - 1, path=path)
        pairs[i] = EfficientPair(plus, minus, kind, res)
    cross = {}
    total = 0
    for label, (i, j) in CROSS_ROLES.items():
        start = pairs[i].p_plus
        goal = pairs[j].p_minus
        path = compose_path([certs[l].cross[label].path
                             for l in blocks])
        if path[0] != start or path[-1] != goal:
            raise InvariantError(
                f"composed cross path for tangle {label} misses its target")
        res = DistanceResult(kind=kind, value=len(path) - 1, path=path)
        cross[label] = res
        total += res.value
    out.pairs = pairs
    out.cross = cross
    out.total = total
    return out


# -- invariant entry points --------------------------------------------------------

@lru_cache(maxsize=None)
def _u_signature_curves() -> tuple:
    u = standard("U")
    return tuple(enumerate_efficient(t, 4)[0].curves[0].key for t in u.tangles)


def is_u_spine(s: Spine) -> bool:
    """Recognise the doubly-pointed unknotted-sphere spine."""
    if s.n != 4:
        return False
    try:
        sig = tuple(enumerate_efficient(t, 4)[0].curves[0].key
                    for t in s.tangles)
    except IndexError:
        return False
    return sig == _u_signature_curves()


def kt_lower(s: Spine) -> tuple[int, str]:
    """Certified lower bound: three per distant torus summand, else zero."""
    if s.meta is None:
        return 0, "trivial-zero"
    n_tori = s.meta.torus_count()
    if n_tori > 0:
        return 3 * n_tori, "torus-count"
    return 0, "trivial-zero"


def _compute_kind(s: Spine, kind: str, twist_budget: int, node_budget: int,
                  stop_at: int | None, notes: list[str]) -> KindCertificate:
    if s.meta is not None and s.meta.op == "+":
        try:
            return _composed_kind(s, kind, twist_budget, node_budget)
        except InvariantError as exc:
            notes.append(f"composition failed ({exc}); falling back to search")
    if s.n <= MAX_SEARCH_PUNCTURES:
        return _searched_kind(s, kind, twist_budget, node_budget,
                              stop_at=stop_at)
    out = KindCertificate(kind=kind)
    out.note = (f"search skipped: {s.n} punctures exceeds the "
                f"{MAX_SEARCH_PUNCTURES}-puncture search ceiling")
    return out


def kt_upper(s: Spine, twist_budget: int = DEFAULT_TWIST_BUDGET,
             node_budget: int = DEFAULT_NODE_BUDGET) -> KTCertificate:
    """Best upper-bound certificate found within the budgets."""
    notes: list[str] = []
    if is_u_spine(s):
        pants = KindCertificate(kind="pants", total=0,
                                note="doubly-pointed sphere spine: zero by definition")
        dual = KindCertificate(kind="dual", total=0, note=pants.note)
        return KTCertificate(s, pants, dual, twist_budget=twist_budget,
                             node_budget=node_budget, notes=notes)
    stop_at = kt_lower(s)[0]
    pants = _compute_kind(s, "pants", twist_budget, node_budget, stop_at, notes)
    if pants.total is not None and pants.total == stop_at:
        # The pants certificate meets the certified lower bound, which holds
        # for the dual distance as well; pants moves are dual moves, so the
        # same certificate is optimal for both kinds.
        dual = KindCertificate(kind="dual", pairs=pants.pairs,
                               cross=pants.cross, total=pants.total,
                               note="reusing the pants certificate")
    else:
        dual = _compute_kind(s, "dual", twist_budget, node_budget, stop_at,
                             notes)
    if pants.total is not None and (dual.total is None
                                    or dual.total > pants.total):
        # A pants certificate is in particular a dual certificate.
        dual = KindCertificate(kind="dual", pairs=pants.pairs,
                               cross=pants.cross, total=pants.total,
                               note="reusing the pants certificate")
    for kc in (pants, dual):
        if kc.note:
            notes.append(f"{kc.kind}: {kc.note}")
    return KTCertificate(s, pants, dual, twist_budget=twist_budget,
                         node_budget=node_budget, notes=notes)


def kt_bounds(s: Spine, twist_budget: int = DEFAULT_TWIST_BUDGET,
              node_budget: int = DEFAULT_NODE_BUDGET) -> KTCertificate:
    """Upper and lower bounds together; exact when they coincide."""
    cert = kt_upper(s, twist_budget, node_budget)
    cert.lower, cert.justification = kt_lower(s)
    return cert


# -- torus witnesses ----------------------------------------------------------------

@lru_cache(maxsize=None)
def _standard_torus_gammas() -> tuple[Curve, Curve, Curve]:
    """Per unlink of the standard torus spine: an interior-pool cut-reducing
    curve enclosing exactly three punctures."""
    t = standard("T")
    out = []
    for i in (1, 2, 3):
        u = t.unlink(i)
        found = [c for c in interior_pool(t.sphere, 3)
                 if len(enclosed_punctures(c)) == 3 and is_cut_reducing(c, u)]
        if not found:
            raise InvariantError(f"no torus cut-reducer for unlink {i}")
        out.append(sorted(found)[0])
    return tuple(out)


def find_torus_cut_reducers(s: Spine) -> dict[tuple[int, int], Curve]:
    """For each torus summand (by position) and each unlink, a cut-reducing
    curve enclosing exactly three punctures of that summand.

    Keys are (unlink index, summand index).  Raises on opaque spines; a
    metadata spine without torus summands yields an empty mapping.
    """
    if s.meta is None:
        raise InvariantError("metadata-missing: opaque spines carry no "
                             "certified torus structure")
    out: dict[tuple[int, int], Curve] = {}
    gammas = _standard_torus_gammas()
    for l, (part, block) in enumerate(s.meta.blocks()):
        if part.op != "atom" or part.name != "T":
            continue
        cum = block.start
        for i in (1, 2, 3):
            g = gammas[i - 1]
            shifted = Curve(s.sphere,
                            tuple((gen + cum, sg) for gen, sg in g.word),
                            (g.base[0] + cum, g.base[1] + cum))
            u = s.unlink(i)
            if not is_cut_reducing(shifted, u):
                raise InvariantError(
                    f"translated torus witness fails for unlink {i}")
            if len(enclosed_punctures(shifted) & set(block)) != 3:
                raise InvariantError("translated torus witness does not "
                                     "enclose three summand punctures")
            out[(i, l)] = shifted
    return out


# -- certificate verification ---------------------------------------------------------

def _path_joins(r: DistanceResult, start: PantsDecomposition,
                goal: PantsDecomposition) -> bool:
    """r is a verified path from start to goal."""
    return r.verify_path() and r.path[0] == start and r.path[-1] == goal


def verify_certificate(cert: KTCertificate) -> CheckReport:
    """Re-check every claim of a certificate from scratch, every vertex
    of every path included (the parser checks syntax only)."""
    rep = CheckReport(subject="kt-certificate")
    s = cert.spine
    for kc in (cert.pants, cert.dual):
        if kc.total is None:
            rep.record(f"{kc.kind}-bounded", True)
            continue
        if not kc.pairs:
            # Definitional zero for the doubly-pointed sphere.
            rep.record(f"{kc.kind}-zero", kc.total == 0, kc.note)
            continue
        missing = ([f"unlink {i}" for i in (1, 2, 3) if i not in kc.pairs]
                   + [f"cross {t}" for t in CROSS_ROLES if t not in kc.cross])
        if missing:
            rep.record(f"{kc.kind}-blocks", False,
                       "missing " + ", ".join(missing))
            continue
        total = 0
        for i in (1, 2, 3):
            pair = kc.pairs[i]
            u = s.unlink(i)
            rep.record(f"{kc.kind}-efficient",
                       is_efficient(pair.p_plus, u.upper)
                       and is_efficient(pair.p_minus, u.lower),
                       f"unlink {i}")
            rep.record(f"{kc.kind}-within-path",
                       _path_joins(pair.realized, pair.p_plus, pair.p_minus),
                       f"unlink {i}")
        for label, (i, j) in CROSS_ROLES.items():
            r = kc.cross[label]
            ok = _path_joins(r, kc.pairs[i].p_plus, kc.pairs[j].p_minus)
            rep.record(f"{kc.kind}-cross-path", ok, f"tangle {label}")
            total += r.value if r.value is not None else 0
        rep.record(f"{kc.kind}-total", total == kc.total,
                   f"recomputed {total} != {kc.total}")
    if cert.l_upper is not None and cert.lstar_upper is not None:
        rep.record("dual<=pants", cert.lstar_upper <= cert.l_upper)
    for upper in (cert.l_upper, cert.lstar_upper):
        if upper is not None:
            rep.record("lower<=upper", cert.lower <= upper,
                       f"lower {cert.lower} > upper {upper}")
    return rep


# -- serialization -----------------------------------------------------------------

def format_certificate(cert: KTCertificate) -> str:
    s = cert.spine
    lines = ["kt-certificate"]
    lines.append("spine {")
    lines.extend("  " + ln for ln in format_spine(s).strip().splitlines())
    lines.append("}")
    lines.append(f"budgets: twist={cert.twist_budget} nodes={cert.node_budget}")
    lines.append(f"lower: {cert.lower} ({cert.justification})")
    for kc in (cert.pants, cert.dual):
        total = "unknown-above-budget" if kc.total is None else str(kc.total)
        lines.append(f"kind {kc.kind}: total {total}")
        if kc.note:
            lines.append(f"  note: {kc.note}")
        for i in sorted(kc.pairs):
            pair = kc.pairs[i]
            lines.append(f"  unlink {i} within {pair.realized.value}")
            lines.append(f"    plus: {format_pants(pair.p_plus)}")
            lines.append(f"    minus: {format_pants(pair.p_minus)}")
            for vertex in pair.realized.path:
                lines.append(f"    within-path: {format_pants(vertex)}")
        for label in sorted(kc.cross):
            r = kc.cross[label]
            lines.append(f"  cross {label} length {r.value}")
            for vertex in r.path:
                lines.append(f"    cross-path: {format_pants(vertex)}")
    for note in cert.notes:
        lines.append(f"note: {note}")
    verdict = "exact" if cert.exact else "bounds-only"
    l_text = "?" if cert.l_upper is None else str(cert.l_upper)
    ls_text = "?" if cert.lstar_upper is None else str(cert.lstar_upper)
    lines.append(f"result: L<={l_text} L*<={ls_text} lower={cert.lower} "
                 f"[{verdict}]")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> KTCertificate:
    """Read a certificate; syntax only, validity is for the verifier."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    if not lines or lines[0] != "kt-certificate":
        raise InvariantError("not a kt-certificate block")
    if len(lines) < 2 or lines[1].strip() != "spine {":
        raise InvariantError("missing spine block")
    k = next((k for k in range(2, len(lines)) if lines[k].strip() == "}"),
             None)
    if k is None:
        raise InvariantError("truncated certificate: unterminated spine block")
    spine = parse_spine("\n".join(ln.strip() for ln in lines[2:k]))
    if len(lines) < k + 3:
        raise InvariantError("truncated certificate: missing budgets or "
                             "lower bound")
    try:
        budgets = lines[k + 1].split()
        twist = int(budgets[1].split("=")[1])
        nodes = int(budgets[2].split("=")[1])
        lower_parts = lines[k + 2].split()
        lower = int(lower_parts[1])
        justification = lower_parts[2].strip("()")
    except (IndexError, ValueError):
        raise InvariantError("malformed budgets or lower-bound line") from None
    k += 3
    kinds = {}
    sphere = spine.sphere
    current = None
    pair_ctx = None
    cross_ctx = None
    notes = []
    for ln in lines[k:]:
        t = ln.strip()
        try:
            if t.startswith("kind "):
                name, total_text = t[5:].split(": total ")
                total = (None if total_text == "unknown-above-budget"
                         else int(total_text))
                current = KindCertificate(kind=name, total=total)
                kinds[name] = current
                pair_ctx = cross_ctx = None
            elif t.startswith("note: "):
                if ln.startswith("  ") and current is not None:
                    current.note = t[len("note: "):]
                else:
                    notes.append(t[len("note: "):])
            elif t.startswith("unlink "):
                parts = t.split()
                pair_ctx = {"i": int(parts[1]), "within": int(parts[3]),
                            "plus": None}
                cross_ctx = None
            elif t.startswith("plus: "):
                pair_ctx["plus"] = parse_pants(sphere, t[len("plus: "):])
            elif t.startswith("minus: "):
                minus = parse_pants(sphere, t[len("minus: "):])
                res = DistanceResult(kind=current.kind,
                                     value=pair_ctx["within"])
                current.pairs[pair_ctx["i"]] = EfficientPair(
                    pair_ctx["plus"], minus, current.kind, res)
            elif t.startswith("within-path: "):
                pair = current.pairs[pair_ctx["i"]]
                pair.realized.path.append(
                    parse_pants(sphere, t[len("within-path: "):]))
            elif t.startswith("cross "):
                parts = t.split()
                cross_ctx = parts[1]
                value = None if parts[3] == "None" else int(parts[3])
                current.cross[cross_ctx] = DistanceResult(kind=current.kind,
                                                          value=value)
                pair_ctx = None
            elif t.startswith("cross-path: "):
                current.cross[cross_ctx].path.append(
                    parse_pants(sphere, t[len("cross-path: "):]))
            elif t.startswith("result:"):
                break
        except (AttributeError, IndexError, KeyError, TypeError):
            raise InvariantError(
                f"malformed or misplaced certificate line {t!r}") from None
    cert = KTCertificate(spine, kinds.get("pants", KindCertificate("pants")),
                         kinds.get("dual", KindCertificate("dual")),
                         lower=lower, justification=justification,
                         twist_budget=twist, node_budget=nodes, notes=notes)
    return cert
