"""Pants decompositions and bounded-budget distance search.

A pants decomposition of the n-punctured sphere is a set of n-3 disjoint,
pairwise non-isotopic essential curves.  Replacing one curve by another that
meets it exactly twice is an elementary move (edge of the pants complex);
allowing any intersection number >= 2 gives the dual curve complex, whose
distance can only be smaller.

A :class:`PantsDecomposition` is a plain sorted value; searches and the
syntax-only :func:`parse_pants` build it unchecked.  Validity is checked by
:func:`validate_pants` for one decomposition and by
:meth:`DistanceResult.verify_path` for a path: its first vertex in full,
then each edge, and an edge from a valid vertex reaches a valid one.

Both complexes are infinite and locally infinite, so searches are budgeted:
candidate replacement curves are generated from round curves by twist words
of bounded length, and breadth-first search stops after a node budget.  A
returned value is therefore an upper bound; it is exact when it matches an
independent lower bound (the trivial one here is the number of curves of the
target missing from the source, since each move replaces a single curve).

Candidate curves live in a :class:`CurvePool`: a tuple of curves that also
owns a ``key -> id`` index, a ``side -> ids`` index of the punctures each
curve encloses and, per curve that a search has asked about, bitmask rows
over the pool ids (disjoint from it, meeting it exactly twice).  Rows are
filled lazily.  Every intersection number in them still comes from
:func:`~ktsurf.curves.geometric_intersection`; the other entries come from
the puncture-set rule: curves whose enclosed sets A, B are not nested
(A <= B, B <= A or A & B empty) cannot be disjoint, since a curve lies in
one side of a curve it misses, and nested curves cannot meet exactly twice,
since two curves in minimal position meeting twice cut the sphere into four
bigons, each holding a puncture, so A & B, A - B and B - A are all nonempty.
A neighbour search first drops the ids that the rule alone rules out, then
filters by disjointness from the kept curves, and asks about the replaced
curve only on the survivors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .curves import (Curve, PuncturedSphere, apply_half_twist,
                     enclosed_punctures, format_curve, geometric_intersection,
                     parse_curve, round_curve)

DEFAULT_TWIST_BUDGET = 3
DEFAULT_NODE_BUDGET = 10 ** 6


class PantsError(ValueError):
    """Invalid pants decomposition."""


class PantsDecomposition:
    """Sorted curves; a vertex of both complexes once checked valid."""

    __slots__ = ("sphere", "curves", "_key")

    def __init__(self, sphere: PuncturedSphere, curves: Iterable[Curve]):
        self.sphere = sphere
        self.curves = tuple(sorted(curves))
        self._key = tuple(c.key for c in self.curves)

    @property
    def n(self) -> int:
        return self.sphere.n

    @property
    def key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, PantsDecomposition) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "PantsDecomposition") -> bool:
        return self._key < other._key

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)

    def __repr__(self) -> str:
        return f"PantsDecomposition({format_pants(self)!r})"

    def __str__(self) -> str:
        return format_pants(self)

    def shared_with(self, other: "PantsDecomposition") -> tuple[Curve, ...]:
        mine = {c.key: c for c in self.curves}
        return tuple(c for c in other.curves if c.key in mine)


def validate_pants(sphere: PuncturedSphere, curves: Iterable[Curve]) -> PantsDecomposition:
    """Check count, disjointness and non-isotopy; return the canonical vertex."""
    p = PantsDecomposition(sphere, curves)
    curves = p.curves
    n = sphere.n
    for c in curves:
        if c.n != n:
            raise PantsError(f"curve {format_curve(c)} lives on n={c.n}, not {n}")
    for a, b in itertools.combinations(curves, 2):
        if a == b:
            raise PantsError(f"duplicate isotopy class: {format_curve(a)}")
    want = n - 3
    if len(curves) != want:
        raise PantsError(
            f"a pants decomposition of the {n}-punctured sphere needs "
            f"{want} curves, got {len(curves)}")
    for a, b in itertools.combinations(curves, 2):
        i = geometric_intersection(a, b)
        if i != 0:
            raise PantsError(
                f"curves intersect ({i} points): {format_curve(a)} "
                f"and {format_curve(b)}")
    return p


def is_pants_edge(p: PantsDecomposition, q: PantsDecomposition) -> bool:
    """Elementary move: n-4 shared classes, remaining pair meeting twice."""
    return _edge_kind(p, q) == 2


def is_dual_edge(p: PantsDecomposition, q: PantsDecomposition) -> bool:
    """Dual-complex move: n-4 shared classes, remaining pair meeting >= 2."""
    return _edge_kind(p, q) >= 2


def _edge_kind(p: PantsDecomposition, q: PantsDecomposition) -> int:
    """0 if not an edge of either complex, else the intersection number of
    the unique differing pair.  From a valid p an edge reaches a valid q:
    same count, and the incoming curve misses the rest of q."""
    if p.n != q.n or len(p) != len(q) or p == q:
        return 0
    pk = {c.key for c in p.curves}
    qk = {c.key for c in q.curves}
    p_only = [c for c in p.curves if c.key not in qk]
    q_only = [c for c in q.curves if c.key not in pk]
    if len(p_only) != 1 or len(q_only) != 1:
        return 0
    new = q_only[0]
    if any(geometric_intersection(new, c) != 0
           for c in q.curves if c is not new):
        return 0
    return geometric_intersection(p_only[0], new)


def is_edge(p: PantsDecomposition, q: PantsDecomposition, kind: str) -> bool:
    if kind == "pants":
        return is_pants_edge(p, q)
    if kind == "dual":
        return is_dual_edge(p, q)
    raise PantsError(f"unknown edge kind {kind!r}")


class CurvePool(tuple):
    """A tuple of curves with ``key -> id`` and ``side -> ids`` indexes and
    lazy rows.

    The id of a curve is its position in the tuple (the built pools are
    sorted); its side is the bitmask of its enclosed punctures.  For any
    curve c, in the pool or not, the pool keeps one row of bitmasks over
    the ids, ``[known0, zero, known2, two]``: the ids for which "disjoint
    from c?" is decided and those among them that are, and the same for
    "meeting c exactly twice?".  A new row is decided by the puncture-set
    rule (see the module docstring) on every id, for one question or the
    other; a query then calls :func:`~ktsurf.curves.geometric_intersection`
    once per id it still needs, which decides both questions.  Pools are
    built once per parameter set and compare like tuples; the hash is
    computed once.  Building a pool from a pool returns it, rows and all.
    """

    def __new__(cls, curves: Iterable[Curve]):
        if isinstance(curves, CurvePool):
            return curves
        self = super().__new__(cls, curves)
        self.ids = {c.key: k for k, c in enumerate(self)}
        self.full = (1 << len(self)) - 1
        self._sides: dict[int, int] = {}
        for k, c in enumerate(self):
            side = _side(c)
            self._sides[side] = self._sides.get(side, 0) | 1 << k
        self._rows: dict = {}
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    def mask(self, curves: Iterable[Curve]) -> int:
        """Bitmask of the pool ids of those curves that are in the pool."""
        out = 0
        for c in curves:
            k = self.ids.get(c.key)
            if k is not None:
                out |= 1 << k
        return out

    def _row(self, c: Curve, among: int, question: int) -> list[int]:
        """Row of c with `question` (0: disjoint? 2: twice?) decided at
        least on the ids of `among`.  A new row starts from the
        puncture-set rule: nested ids are not twice, the others not
        disjoint."""
        row = self._rows.get(c.key)
        if row is None:
            a = _side(c)
            nested = 0
            for b, ids in self._sides.items():
                if not (a & b and a & ~b and b & ~a):
                    nested |= ids
            row = self._rows[c.key] = [self.full ^ nested, 0, nested, 0]
        todo = among & ~row[question]
        if todo:
            known0, zero, known2, two = row
            for k in _ids_of(todo):
                i = geometric_intersection(self[k], c)
                if i == 0:
                    zero |= 1 << k
                elif i == 2:
                    two |= 1 << k
            row[:] = known0 | todo, zero, known2 | todo, two
        return row

    def _possible(self, c: Curve, question: int) -> int:
        """Ids whose answer to `question` about c is yes or not yet known."""
        known, yes = self._row(c, 0, question)[question:question + 2]
        return ~known | yes

    def _meeting(self, c: Curve, among: int, kind: str) -> int:
        """Those ids of `among` whose curves meet c twice (pants) or at
        least twice (dual)."""
        if kind == "pants":
            return among & self._row(c, among, 2)[3]
        return among & ~self._row(c, among, 0)[1]

    def _disjoint(self, c: Curve, among: int) -> int:
        """Those ids of `among` whose curves miss c."""
        return among & self._row(c, among, 0)[1]


def _side(c: Curve) -> int:
    """Bitmask of the punctures c encloses."""
    return sum(1 << k for k in enclosed_punctures(c))


def _ids_of(mask: int):
    """Set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _build_pool(n: int, twist_budget: int, generators: tuple[int, ...],
                rounds: tuple[tuple[int, int], ...]) -> CurvePool:
    """Images of the round curves around the given intervals under twist
    words of length at most `twist_budget` in the given generators.

    Words grow one letter per level, each level's new curves in sorted
    order, and the first word reaching a class is the one kept, so the
    recipes printed in certificates depend only on the parameters.
    """
    sphere = PuncturedSphere(n)
    seen: dict = {}
    frontier: list[Curve] = []
    for i, j in rounds:
        c = round_curve(sphere, i, j)
        if c.key not in seen:
            seen[c.key] = c
            frontier.append(c)
    frontier.sort()
    for _ in range(twist_budget):
        nxt = []
        for c in frontier:
            for g in generators:
                for s in (1, -1):
                    d = apply_half_twist(c, g, s)
                    if d.key not in seen:
                        seen[d.key] = d
                        nxt.append(d)
        nxt.sort()
        frontier = nxt
    return CurvePool(sorted(seen.values()))


def _rounds(n: int, last: int) -> tuple[tuple[int, int], ...]:
    """Essential round intervals i..j with j <= last."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, last + 1)
                 if 2 <= j - i + 1 <= n - 2)


def curve_pool(sphere: PuncturedSphere, twist_budget: int = DEFAULT_TWIST_BUDGET
               ) -> CurvePool:
    """All curves reachable from round curves by at most `twist_budget`
    half twists, one representative per isotopy class, sorted."""
    n = sphere.n
    return _build_pool(n, twist_budget, tuple(range(n - 1)),
                       _rounds(n, n - 1))


def interior_pool(sphere: PuncturedSphere,
                  twist_budget: int = DEFAULT_TWIST_BUDGET) -> CurvePool:
    """Curves generated from rounds missing the last puncture by twists
    never touching the first or last puncture; safe to translate into a
    larger sphere."""
    n = sphere.n
    return _build_pool(n, twist_budget, tuple(range(1, n - 2)),
                       _rounds(n, n - 2))


def neighbor_candidates(p: PantsDecomposition, index: int,
                        twist_budget: int = DEFAULT_TWIST_BUDGET,
                        kind: str = "pants",
                        extra: Sequence[Curve] = (),
                        pool: Sequence[Curve] | None = None) -> list[PantsDecomposition]:
    """Decompositions obtained by replacing curve `index` along an edge.

    Candidates come from the bounded twist-word pool (plus any `extra`
    curves); results are deduplicated and sorted for deterministic search.
    An explicit `pool` replaces the default twist-word pool.  Pool curves
    are read off the pool's rows: after the ids that the puncture-set rule
    rules out are dropped, those missing each remaining curve in turn,
    then, among the survivors, those meeting the replaced curve twice (at
    least twice for the dual kind).
    """
    if pool is None:
        pool = curve_pool(p.sphere, twist_budget)
    pool = CurvePool(pool)
    old = p.curves[index]
    rest = [c for k, c in enumerate(p.curves) if k != index]
    found = pool.full & ~pool.mask(p.curves)
    for c in rest:
        found &= pool._possible(c, 0)
    if kind == "pants":
        found &= pool._possible(old, 2)
    for c in rest:
        found = pool._disjoint(c, found)
    found = pool._meeting(old, found, kind)
    keys = {c.key for c in p.curves}
    cands = [pool[k] for k in _ids_of(found)]
    for cand in extra:
        if cand.key in keys or cand.key in pool.ids:
            continue
        i_old = geometric_intersection(cand, old)
        if i_old == 2 or (kind != "pants" and i_old > 2):
            if all(geometric_intersection(cand, c) == 0 for c in rest):
                cands.append(cand)
    out = {}
    for cand in cands:
        q = PantsDecomposition(p.sphere, rest + [cand])
        out[q.key] = q
    return sorted(out.values())


@dataclass
class DistanceResult:
    """Outcome of a budgeted shortest-path search between two vertices.

    `value` is None when the budget was exhausted first; then `floor` is the
    number of complete levels explored, so the true distance exceeds it.
    """

    kind: str
    value: int | None
    path: list[PantsDecomposition] = field(default_factory=list)
    floor: int = 0
    nodes_expanded: int = 0

    @property
    def trivial_lower(self) -> int:
        """The always-valid lower bound |q \\ p| between the ends p, q of
        the path; 0 without a path."""
        if not self.path:
            return 0
        p, q = self.path[0], self.path[-1]
        return (q.n - 3) - len(p.shared_with(q))

    @property
    def exact(self) -> bool:
        return self.value is not None and self.value <= self.trivial_lower

    def verify_path(self) -> bool:
        """`value` edges of this kind from a valid first vertex."""
        if (self.value is None or not self.path
                or len(self.path) != self.value + 1):
            return False
        try:
            validate_pants(self.path[0].sphere, self.path[0].curves)
        except PantsError:
            return False
        return all(is_edge(a, b, self.kind)
                   for a, b in zip(self.path, self.path[1:]))


def distance_upper(p: PantsDecomposition, q: PantsDecomposition,
                   kind: str = "pants",
                   twist_budget: int = DEFAULT_TWIST_BUDGET,
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   hold: Sequence[Curve] = (),
                   pool: Sequence[Curve] | None = None) -> DistanceResult:
    """Budgeted breadth-first distance search from p to q.

    Deterministic: the frontier is expanded in sorted order level by level.
    Curves of both endpoints are always admitted as candidates, so distance-1
    pairs are recognised at any budget.  On the 4-punctured sphere the search
    runs over the slope index instead of a twist-word pool, and the resulting
    path is re-verified edge by edge with the diagram machinery.
    """
    if p.n != q.n:
        raise PantsError("decompositions on different spheres")
    res = DistanceResult(kind=kind, value=None)
    if p == q:
        res.value = 0
        res.path = [p]
        return res
    if p.n == 4:
        return _distance_four(p, q, kind, twist_budget, node_budget, res)
    hold_keys = {c.key for c in hold}
    extra = tuple(sorted(set(p.curves) | set(q.curves)))
    parent: dict = {p.key: None}
    nodes = {p.key: p}
    frontier = [p]
    depth = 0
    expanded = 0
    while frontier and expanded < node_budget:
        depth += 1
        nxt = []
        for node in frontier:
            expanded += 1
            if expanded > node_budget:
                break
            for index in range(len(node.curves)):
                if node.curves[index].key in hold_keys:
                    continue
                for nb in neighbor_candidates(node, index, twist_budget,
                                              kind, extra, pool):
                    if nb.key in parent:
                        continue
                    parent[nb.key] = node.key
                    nodes[nb.key] = nb
                    if nb == q:
                        res.value = depth
                        res.nodes_expanded = expanded
                        res.path = _unwind(parent, nodes, nb.key)
                        return res
                    nxt.append(nb)
        res.floor = depth
        frontier = sorted(nxt)
    res.nodes_expanded = expanded
    return res


def _unwind(parent, nodes, key) -> list[PantsDecomposition]:
    path = []
    while key is not None:
        path.append(nodes[key])
        key = parent[key]
    return path[::-1]


def _distance_four(p: PantsDecomposition, q: PantsDecomposition, kind: str,
                   twist_budget: int, node_budget: int,
                   res: DistanceResult) -> DistanceResult:
    """Exact search on the 4-punctured sphere through the slope index.

    Vertices are slopes; pants edges are unimodular slope pairs.  The found
    path is materialised as curves and every edge is re-checked with the
    diagram intersection machinery, so the slope index only guides the
    search and never vouches for the result.
    """
    from . import farey

    a = farey.slope_of_curve(p.curves[0])
    b = farey.slope_of_curve(q.curves[0])
    if kind == "dual":
        # Any two distinct essential curves here meet at least twice, so the
        # dual complex is a complete graph.
        res.value = 1
        res.path = [p, q]
        if not is_dual_edge(p, q):  # pragma: no cover - safety net
            raise PantsError("slope index produced a bad dual edge")
        return res
    height = max(6, 3 * twist_budget)
    height = max(height, 2 * (abs(a[0]) + a[1]), 2 * (abs(b[0]) + b[1]))
    parent: dict = {a: None}
    frontier = [a]
    expanded = 0
    found = False
    while frontier and not found and expanded < node_budget:
        nxt = []
        for u in sorted(frontier):
            expanded += 1
            for w in farey.farey_neighbors_in_box(u, height):
                if w in parent:
                    continue
                parent[w] = u
                if w == b:
                    found = True
                    break
                nxt.append(w)
            if found:
                break
        frontier = nxt
        res.floor += 1
    res.nodes_expanded = expanded
    if not found:
        return res
    chain = []
    s = b
    while s is not None:
        chain.append(s)
        s = parent[s]
    chain.reverse()
    path = [p]
    for s in chain[1:-1]:
        path.append(PantsDecomposition(
            p.sphere, [farey.curve_of_slope(p.sphere, *s)]))
    path.append(q)
    for x, y in zip(path, path[1:]):
        if not is_edge(x, y, kind):  # honest re-verification
            raise PantsError("slope index produced a non-edge in the path")
    res.value = len(path) - 1
    res.path = path
    return res


# -- text syntax --------------------------------------------------------------

def format_pants(p: PantsDecomposition) -> str:
    inner = "; ".join(format_curve(c) for c in p.curves)
    return "pants { " + inner + " }"


def parse_pants(sphere: PuncturedSphere, text: str) -> PantsDecomposition:
    text = text.strip()
    if not (text.startswith("pants") and "{" in text and text.endswith("}")):
        raise PantsError(f"bad pants literal {text!r}")
    body = text[text.index("{") + 1:-1].strip()
    parts = [s for s in (x.strip() for x in body.split(";")) if s]
    return PantsDecomposition(sphere, [parse_curve(sphere, s) for s in parts])
