"""Trivial tangles in the shadow model and efficient pants decompositions.

A trivial b-tangle in a ball is recorded by its b bridge-disk shadows: an
embedded arc system on the 2b-punctured sphere matching all punctures.  The
standard computable reformulation of the disk conditions reads intersection
numbers off the shadows:

  * a curve is *compressing* for the tangle iff it can be made disjoint from
    the shadows (the strands isotope onto the sphere along the shadows, so
    the curve bounds a disk behind them);
  * a curve is *cut* iff its minimal intersection with the shadows is one
    (the disk it bounds meets the tangle in a single point).

Two tangles over the same sphere glue to a bridge-split unlink; reducing and
cut-reducing curves are those compressing (resp. cut) on both sides.  A pants
decomposition is *efficient* for a tangle when every curve is compressing or
cut; a pair of efficient decompositions for the two sides realising the
minimal distance is an *efficient defining pair* of the unlink, the object
the invariant machinery optimises over.

Enumeration is budget-bounded: candidate curves carry twist words of bounded
length, so minima are certified only when a matching lower bound holds (each
elementary move changes one curve, so a pair sharing k curves has distance at
least (n-3) - k).

Pairs are scored on the pool index of :mod:`ktsurf.pants`: a decomposition
is the bitmask of its curves' pool ids, so the shared count of a pair is the
popcount of an AND.  The pool's rows take every intersection number from
``geometric_intersection`` and their other entries from the puncture-set
rule of :mod:`ktsurf.pants`.  Defining pairs are memoized per (upper arcs,
lower arcs, kind, budgets, pool); callers receive a fresh list each time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .curves import (ArcSystem, Curve, PuncturedSphere, arc_intersection,
                     enclosed_punctures, format_arcs, format_curve,
                     geometric_intersection, parse_arcs)
from .pants import (DEFAULT_NODE_BUDGET, DEFAULT_TWIST_BUDGET, DistanceResult,
                    CurvePool, PantsDecomposition, curve_pool, distance_upper)


class TangleError(ValueError):
    """Invalid tangle or unlink data."""


class ShadowTangle:
    """A trivial b-tangle presented by bridge-disk shadows."""

    __slots__ = ("sphere", "arcs")

    def __init__(self, arcs: ArcSystem):
        n = arcs.n
        if n % 2:
            raise TangleError("shadow tangles need an even puncture count")
        if 2 * len(arcs.reference) != n:
            raise TangleError(
                f"need a perfect matching: {len(arcs.reference)} arcs on "
                f"{n} punctures")
        self.sphere = arcs.sphere
        self.arcs = arcs

    @property
    def n(self) -> int:
        return self.sphere.n

    @property
    def b(self) -> int:
        return self.n // 2

    @property
    def pairs(self):
        return self.arcs.pairs

    def __eq__(self, other) -> bool:
        return isinstance(other, ShadowTangle) and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash(self.arcs)

    def __repr__(self) -> str:
        return f"ShadowTangle({format_arcs(self.arcs)!r})"

    def __str__(self) -> str:
        return format_arcs(self.arcs)


def component_count(t1: ShadowTangle, t2: ShadowTangle) -> int:
    """Number of link components of the union of two tangles.

    Components correspond to cycles of the 2-regular multigraph on the
    punctures whose edges are the two perfect matchings.
    """
    if t1.n != t2.n:
        raise TangleError("tangles on different spheres")
    nxt1 = _matching_map(t1.pairs)
    nxt2 = _matching_map(t2.pairs)
    seen = set()
    cycles = 0
    for start in range(t1.n):
        if start in seen:
            continue
        cycles += 1
        x = start
        use_first = True
        while True:
            seen.add(x)
            x = (nxt1 if use_first else nxt2)[x]
            use_first = not use_first
            if x == start and use_first:
                break
            seen.add(x)
    return cycles


def _matching_map(pairs) -> dict[int, int]:
    out = {}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


class BridgeSplitUnlink:
    """A bridge splitting of an unlink into two trivial tangles."""

    __slots__ = ("sphere", "upper", "lower")

    def __init__(self, upper: ShadowTangle, lower: ShadowTangle):
        if upper.n != lower.n:
            raise TangleError("tangles on different spheres")
        self.sphere = upper.sphere
        self.upper = upper
        self.lower = lower

    @property
    def n(self) -> int:
        return self.sphere.n

    @property
    def b(self) -> int:
        return self.n // 2

    @property
    def c(self) -> int:
        return component_count(self.upper, self.lower)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BridgeSplitUnlink)
                and self.upper == other.upper and self.lower == other.lower)

    def __hash__(self) -> int:
        return hash((self.upper, self.lower))

    def __repr__(self) -> str:
        return (f"BridgeSplitUnlink(upper={str(self.upper)!r}, "
                f"lower={str(self.lower)!r})")


# -- curve classification ------------------------------------------------------

def is_compressing(c: Curve, t: ShadowTangle) -> bool:
    return arc_intersection(c, t.arcs) == 0


def is_cut(c: Curve, t: ShadowTangle) -> bool:
    return arc_intersection(c, t.arcs) == 1


def is_reducing(c: Curve, u: BridgeSplitUnlink) -> bool:
    return is_compressing(c, u.upper) and is_compressing(c, u.lower)


def is_cut_reducing(c: Curve, u: BridgeSplitUnlink) -> bool:
    return is_cut(c, u.upper) and is_cut(c, u.lower)


def is_c_reducing(c: Curve, u: BridgeSplitUnlink) -> bool:
    """Reducing or cut-reducing."""
    return is_reducing(c, u) or is_cut_reducing(c, u)


def is_efficient(p: PantsDecomposition, t: ShadowTangle) -> bool:
    """Every curve of the decomposition is compressing or cut for t."""
    return all(arc_intersection(c, t.arcs) <= 1 for c in p.curves)


# -- enumeration ----------------------------------------------------------------

def efficient_curves(t: ShadowTangle,
                     twist_budget: int = DEFAULT_TWIST_BUDGET,
                     pool: tuple[Curve, ...] | None = None) -> tuple[Curve, ...]:
    """Budget-bounded pool of curves compressing or cut for the tangle."""
    return _efficient_curves_cached(t.arcs, twist_budget, pool)


@lru_cache(maxsize=None)
def _efficient_curves_cached(arcs: ArcSystem, twist_budget: int,
                             pool: tuple[Curve, ...] | None = None):
    if pool is None:
        pool = curve_pool(arcs.sphere, twist_budget)
    return tuple(c for c in pool if arc_intersection(c, arcs) <= 1)


def enumerate_efficient(t: ShadowTangle,
                        twist_budget: int = DEFAULT_TWIST_BUDGET,
                        pool: tuple[Curve, ...] | None = None,
                        ) -> tuple[PantsDecomposition, ...]:
    """All efficient pants decompositions with curves from the budget pool.

    Nonempty at every budget: nested round families adapted to the matching
    always qualify, and round curves are in the pool at budget zero.
    """
    return _enumerate_efficient_cached(t.arcs, twist_budget, pool)


@lru_cache(maxsize=None)
def _enumerate_efficient_cached(arcs: ArcSystem, twist_budget: int,
                                pool: tuple[Curve, ...] | None = None):
    t = ShadowTangle(arcs)
    pool = efficient_curves(t, twist_budget, pool)
    n = t.n
    want = n - 3
    compatible = {c.key: set() for c in pool}
    for a, b in itertools.combinations(pool, 2):
        if geometric_intersection(a, b) == 0:
            compatible[a.key].add(b.key)
            compatible[b.key].add(a.key)
    out = []

    def extend(chosen, start):
        if len(chosen) == want:
            out.append(PantsDecomposition(t.sphere, list(chosen)))
            return
        for k in range(start, len(pool)):
            c = pool[k]
            if all(c.key in compatible[d.key] for d in chosen):
                chosen.append(c)
                extend(chosen, k + 1)
                chosen.pop()

    extend([], 0)
    return tuple(sorted(out))


# -- efficient defining pairs ---------------------------------------------------

@dataclass
class EfficientPair:
    """A pair of efficient decompositions realising a (budgeted) minimum.

    psi is the shared curve set, g_plus/g_minus the unshared parts; the
    realized distance comes with its search result, whose `exact` flag
    certifies minimality of the path length for this pair.
    """

    p_plus: PantsDecomposition
    p_minus: PantsDecomposition
    kind: str
    realized: DistanceResult

    @property
    def psi(self) -> tuple[Curve, ...]:
        return self.p_plus.shared_with(self.p_minus)

    @property
    def g_plus(self) -> tuple[Curve, ...]:
        shared = {c.key for c in self.psi}
        return tuple(c for c in self.p_plus.curves if c.key not in shared)

    @property
    def g_minus(self) -> tuple[Curve, ...]:
        shared = {c.key for c in self.psi}
        return tuple(c for c in self.p_minus.curves if c.key not in shared)

    @property
    def realized_distance(self) -> int:
        return self.realized.value

    @property
    def exact(self) -> bool:
        return self.realized.exact

    def __repr__(self) -> str:
        return (f"EfficientPair(d={self.realized_distance}, kind={self.kind}, "
                f"|psi|={len(self.psi)})")


def pair_distance(p: PantsDecomposition, q: PantsDecomposition, kind: str,
                  twist_budget: int = DEFAULT_TWIST_BUDGET,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  pool: tuple[Curve, ...] | None = None) -> DistanceResult:
    """Distance search tuned for efficient pairs.

    First tries the search restricted to vertices containing the shared
    curves; a path there matching the trivial lower bound is exact, and the
    restriction keeps the explored region tiny.  Falls back to the
    unrestricted budgeted search otherwise.
    """
    shared = p.shared_with(q)
    res = distance_upper(p, q, kind=kind, twist_budget=twist_budget,
                         node_budget=node_budget, hold=shared, pool=pool)
    if res.exact:
        return res
    full = distance_upper(p, q, kind=kind, twist_budget=twist_budget,
                          node_budget=node_budget, pool=pool)
    if full.value is not None and (res.value is None or full.value < res.value):
        return full
    return res


def efficient_defining_pairs(u: BridgeSplitUnlink, kind: str = "pants",
                             twist_budget: int = DEFAULT_TWIST_BUDGET,
                             node_budget: int = DEFAULT_NODE_BUDGET,
                             pool: tuple[Curve, ...] | None = None,
                             ) -> list[EfficientPair]:
    """Pairs minimising the (budgeted) distance over efficient products.

    Pairs are scanned in order of the trivial lower bound, ties broken by
    the keys of the two decompositions; once some pair realises a value,
    pairs whose lower bound already exceeds it cannot do better and are
    skipped.  Results are memoized; the returned list is the caller's own.
    """
    return list(_efficient_defining_pairs_cached(
        u.upper.arcs, u.lower.arcs, kind, twist_budget, node_budget, pool))


@lru_cache(maxsize=None)
def _efficient_defining_pairs_cached(upper: ArcSystem, lower: ArcSystem,
                                     kind: str, twist_budget: int,
                                     node_budget: int,
                                     pool: tuple[Curve, ...] | None
                                     ) -> tuple[EfficientPair, ...]:
    ups = enumerate_efficient(ShadowTangle(upper), twist_budget, pool)
    downs = enumerate_efficient(ShadowTangle(lower), twist_budget, pool)
    if not ups or not downs:
        return ()
    index = CurvePool(curve_pool(upper.sphere, twist_budget)
                      if pool is None else pool)
    want = upper.n - 3
    # buckets[lower] lists the pairs with that trivial lower bound; ups and
    # downs are sorted by key, so filling in row order keeps each bucket in
    # (p.key, q.key) order.
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(want + 1)]
    down_masks = [index.mask(q.curves) for q in downs]
    for a, p in enumerate(ups):
        mp = index.mask(p.curves)
        for b, mq in enumerate(down_masks):
            buckets[want - (mp & mq).bit_count()].append((a, b))
    best = None
    found: list[EfficientPair] = []
    for lower, bucket in enumerate(buckets):
        if best is not None and lower > best:
            break
        for a, b in bucket:
            p, q = ups[a], downs[b]
            r = pair_distance(p, q, kind, twist_budget, node_budget, pool)
            if r.value is None:
                continue
            if best is None or r.value < best:
                best = r.value
                found = [EfficientPair(p, q, kind, r)]
            elif r.value == best:
                found.append(EfficientPair(p, q, kind, r))
    return tuple(found)


# -- structure checks -----------------------------------------------------------

@dataclass
class CheckReport:
    """Pass/fail record of named clauses with failure payloads."""

    subject: str
    clauses: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def record(self, clause: str, ok: bool, payload: str = "") -> None:
        self.clauses[clause] = self.clauses.get(clause, True) and ok
        if not ok:
            self.failures.append(f"{clause}: {payload}")

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())

    def summary(self) -> str:
        mark = lambda v: "pass" if v else "FAIL"
        body = ", ".join(f"{k}={mark(v)}" for k, v in sorted(self.clauses.items()))
        return f"{self.subject}: {body}"


def check_edp_structure(pair: EfficientPair, u: BridgeSplitUnlink) -> CheckReport:
    """Structural facts about efficient defining pairs.

    Checks the cardinalities |g+| = |g-| = b - c and |psi| = b + c - 3, that
    unshared curves from opposite sides meet at most twice, that every
    unshared curve has exactly one partner met exactly twice, and (when a
    realizing path is present) that each unshared curve is replaced exactly
    once along it.
    """
    rep = CheckReport(subject=f"edp structure of {pair!r}")
    b, c = u.b, u.c
    gp, gm, psi = pair.g_plus, pair.g_minus, pair.psi
    rep.record("sizes", len(gp) == len(gm) == b - c and len(psi) == b + c - 3,
               f"|g+|={len(gp)} |g-|={len(gm)} |psi|={len(psi)} b={b} c={c}")
    for x in gp:
        partners = 0
        for y in gm:
            i = geometric_intersection(x, y)
            rep.record("pairwise<=2", i <= 2,
                       f"i={i} for {format_curve(x)} vs {format_curve(y)}")
            if i == 2:
                partners += 1
        rep.record("unique-partner", partners == 1,
                   f"{format_curve(x)} has {partners} partners met twice")
    path = pair.realized.path
    if pair.realized.value is not None and path:
        removed = []
        added = []
        for a, b2 in zip(path, path[1:]):
            akeys = {cv.key for cv in a.curves}
            bkeys = {cv.key for cv in b2.curves}
            removed.extend(sorted(akeys - bkeys))
            added.extend(sorted(bkeys - akeys))
        rep.record("moved-once",
                   sorted(removed) == sorted(cv.key for cv in gp)
                   and sorted(added) == sorted(cv.key for cv in gm),
                   "path does not replace each unshared curve exactly once")
    return rep


def check_parity(pair: EfficientPair) -> CheckReport:
    """Unshared curves of a defining pair enclose evenly many punctures."""
    rep = CheckReport(subject=f"parity of {pair!r}")
    for cv in pair.g_plus + pair.g_minus:
        k = len(enclosed_punctures(cv))
        rep.record("even", k % 2 == 0,
                   f"{format_curve(cv)} encloses {k} punctures")
    return rep


# -- text format -----------------------------------------------------------------

def format_unlink(u: BridgeSplitUnlink) -> str:
    return (f"punctures {u.n}\n"
            f"tangle +: {format_arcs(u.upper.arcs)}\n"
            f"tangle -: {format_arcs(u.lower.arcs)}\n")


def parse_unlink(text: str) -> BridgeSplitUnlink:
    sphere = None
    tangles: dict[str, ShadowTangle] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("punctures"):
            sphere = PuncturedSphere(int(line.split()[1]))
        elif line.startswith("tangle"):
            if sphere is None:
                raise TangleError("tangle line before punctures header")
            label, _, rest = line[len("tangle"):].partition(":")
            tangles[label.strip()] = ShadowTangle(parse_arcs(sphere, rest.strip()))
        else:
            raise TangleError(f"unrecognised line {line!r}")
    if sphere is None or len(tangles) != 2:
        raise TangleError("unlink needs a punctures header and two tangles")
    up, down = list(tangles.values())
    return BridgeSplitUnlink(up, down)
