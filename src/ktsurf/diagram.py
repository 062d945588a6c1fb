"""Exact combinatorial model for simple closed curves on a punctured sphere.

The sphere carries n punctures p_0, ..., p_{n-1} placed on a fixed circle
(the "axis").  The circle is divided into n open segments

    S_k = the gap between p_{k-1 mod n} and p_k,

so S_0 is the gap between the last puncture and p_0.  The two complementary
faces of the circle are unpunctured disks, called U (upper) and L (lower).

A curve transverse to the circle is recorded by its *diagram*:

  * the cyclic sequence of segments it crosses, in curve order,
  * the left-to-right rank of each crossing within its segment,
  * the face (U or L) of the arc between consecutive crossings.

Arcs strictly alternate between the faces, and inside a face an arc is a
chord of an unpunctured disk, hence determined by its endpoints.  A diagram
with no empty bigon against the circle (no chord with both endpoints adjacent
on one segment) is *reduced*; reduced diagrams are unique in their isotopy
class, so equality of reduced diagrams decides isotopy on the sphere exactly.

Half twists that swap adjacent punctures act by an explicit surgery: dragging
one puncture past the other through a face hooks every chord that separates
the moving puncture from its destination, leaving those chords looped around
the new position.  Everything is integer combinatorics; no numerics anywhere.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

UPPER = 0
LOWER = 1


class DiagramError(Exception):
    """Raised when diagram data is structurally invalid."""


def _crossing_key(seg: int, rank: int) -> tuple[int, int, int]:
    """Total-order key of a crossing point on the circle (odd slots)."""
    return (seg, 1, 2 * rank + 1)


def _puncture_key(p: int) -> tuple[int, int, int]:
    """Key of puncture p, which sits between S_p and S_{p+1}."""
    return (p, 2, 0)


def _in_cyclic(x, a, b) -> bool:
    """True if key x lies in the open cyclic interval (a, b)."""
    if a < b:
        return a < x < b
    return x > a or x < b


def _chords_cross(a, b, c, d) -> bool:
    """Whether chords {a,b} and {c,d} of one disk face must intersect."""
    return _in_cyclic(c, a, b) != _in_cyclic(d, a, b)


class Diagram:
    """Reduced canonical diagram of one simple closed curve.

    Instances are immutable and hashable; two diagrams compare equal exactly
    when the curves are isotopic on the punctured sphere.
    """

    __slots__ = ("n", "word", "ranks", "side0", "_key", "_hash")

    def __init__(self, n: int, word: Sequence[int], ranks: Sequence[int],
                 side0: int, _check: bool = False):
        if n < 3:
            raise DiagramError("need at least 3 punctures")
        if len(word) != len(ranks):
            raise DiagramError("word/ranks length mismatch")
        if len(word) % 2:
            raise DiagramError("odd number of crossings")
        if word and (min(word) < 0 or max(word) >= n):
            raise DiagramError("segment index out of range")
        word, ranks, side0 = _reduce(n, word, ranks, side0)
        word, ranks, side0 = _canonical_rotation(word, ranks, side0)
        self.n = n
        self.word = tuple(word)
        self.ranks = tuple(ranks)
        self.side0 = side0
        self._key = (n, side0, self.word, self.ranks)
        self._hash = hash(self._key)
        if _check:
            self.check_embedded()

    # -- basic structure ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagram) and self._key == other._key

    def __lt__(self, other: "Diagram") -> bool:
        return self._key < other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Diagram(n={self.n}, word={self.word}, ranks={self.ranks}, side0={self.side0})"

    @property
    def key(self):
        return self._key

    def arc_side(self, i: int) -> int:
        """Face of the arc from crossing i to crossing i+1 (cyclically)."""
        return self.side0 ^ (i & 1)

    def seg_counts(self) -> list[int]:
        return list(map(self.word.count, range(self.n)))

    def chords(self, face: int) -> list[tuple[int, int]]:
        """Arcs lying in the given face, as pairs of crossing indices."""
        m = len(self.word)
        return [(i, (i + 1) % m) for i in range(m) if self.arc_side(i) == face]

    def crossing_keys(self) -> list[tuple[int, int, int]]:
        return [_crossing_key(s, r) for s, r in zip(self.word, self.ranks)]

    def check_embedded(self) -> None:
        """Verify per-segment ranks and pairwise disjointness of face chords.

        With contiguous ranks a crossing's place on the circle is its
        segment's offset plus its rank.  Cutting the circle before S_0 makes
        it a line, on which the chords of one face are pairwise disjoint
        exactly when their endpoints nest like brackets: a stack check.
        """
        word, m = self.word, len(self.word)
        place = _places(self.n, word, self.ranks)
        if place is None:
            for s in sorted(set(word)):
                rs = [r for t, r in zip(word, self.ranks) if t == s]
                if sorted(rs) != list(range(len(rs))):
                    raise DiagramError(
                        f"ranks on segment {s} not contiguous: {rs}")
        for face in (UPPER, LOWER):
            # Arc i, the chord from crossing i to crossing i + 1, lies in
            # this face when i has this parity.
            parity = face ^ self.side0
            chord_at = [0] * m
            for i in range(parity, m, 2):
                chord_at[place[i]] = i
                chord_at[place[(i + 1) % m]] = i
            opened = [False] * m
            stack: list[int] = []
            for i in chord_at:
                if not opened[i]:
                    opened[i] = True
                    stack.append(i)
                elif stack[-1] == i:
                    stack.pop()
                else:
                    i, j = sorted((i, stack[-1]))
                    raise DiagramError(f"face {face} chords {(i, (i + 1) % m)} "
                                       f"and {(j, (j + 1) % m)} cross")

    # -- topological readings ----------------------------------------------

    def enclosed_punctures(self) -> frozenset[int]:
        """Punctures on the side of the curve away from p_{n-1}.

        Convention: the distinguished outside region is the one containing
        puncture n-1 (equivalently, a basepoint hugging it), so the result
        never contains n-1 and is empty only for the empty diagram.
        """
        counts = self.seg_counts()
        out = []
        parity = 0
        for k in range(self.n - 2, -1, -1):
            parity ^= counts[k + 1] & 1
            if parity:
                out.append(k)
        return frozenset(out)

    def mirror(self) -> "Diagram":
        """Reflect through the circle: swap the two faces."""
        return Diagram(self.n, self.word, self.ranks, self.side0 ^ 1)

    # -- intersection counts -------------------------------------------------

    def intersect_round(self, i: int, j: int) -> int:
        """Minimal intersection number with the round curve around p_i..p_j.

        The round curve crosses the circle once in S_i and once in
        S_{(j+1) mod n}; its position within those segments is free, so the
        count is minimised over both placements.  A chord of this diagram in
        either face crosses the same-face chord of the round curve exactly
        when its endpoints straddle the round curve's crossing points, so the
        count is a sum of straddle indicators, maintained incrementally while
        the two placements sweep over their segments.
        """
        n = self.n
        ga, gb = i % n, (j + 1) % n
        if ga == gb:
            raise DiagramError("round curve gaps coincide")
        word, m = self.word, len(self.word)
        if m == 0:
            return 0
        counts = self.seg_counts()
        lo_a, lo_b = sum(counts[:ga]), sum(counts[:gb])
        place = _places(n, word, self.ranks)
        at = [0] * m                 # crossing at each place on the circle
        for k, x in enumerate(place):
            at[x] = k
        # Start with both crossings of the round curve before rank 0 of
        # their segments: inside are the places from lo_a up to lo_b.
        if lo_a < lo_b:
            inside = [lo_a <= x < lo_b for x in place]
        else:
            inside = [x >= lo_a or x < lo_b for x in place]
        total = sum(inside[k - 1] != inside[k] for k in range(m))
        best = total
        # Serpentine sweep over the placement grid; moving a crossing point
        # of the round curve past crossing k flips the two arcs at k.
        forward = True
        for ta in range(counts[ga] + 1):
            steps = [at[lo_a + ta - 1]] if ta else []
            rng = range(counts[gb]) if forward else range(counts[gb] - 1, -1, -1)
            steps += [at[lo_b + tb] for tb in rng]
            for k in steps:
                me = inside[k]
                total += ((1 if inside[k - 1] == me else -1)
                          + (1 if inside[k + 1 if k + 1 < m else 0] == me
                             else -1))
                inside[k] = not me
                if total < best:
                    best = total
            forward = not forward
        return best

    def intersect_lower_chords(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Total minimal intersection with disjoint lower-face chords whose
        endpoints are punctures (the reference drawing of an arc system)."""
        keys = self.crossing_keys()
        lower = [(keys[a], keys[b]) for a, b in self.chords(LOWER)]
        total = 0
        for pa, pb in pairs:
            ka, kb = _puncture_key(pa % self.n), _puncture_key(pb % self.n)
            for a, b in lower:
                if _chords_cross(a, b, ka, kb):
                    total += 1
        return total

    # -- mapping classes -----------------------------------------------------

    def drag(self, s: int, face: int) -> "Diagram":
        """Drag puncture p_{s+1} through `face` to just before p_s.

        This realises one half twist swapping the adjacent punctures at
        positions s and s+1: through the lower face the clockwise one under
        our drawing convention, through the upper face its inverse.  The two
        faces play symmetric roles, so one surgery serves both.
        """
        n = self.n
        s %= n
        gap = (s + 1) % n            # segment between p_s and p_{s+1}
        merged = (s + 2) % n         # S_{s+1} and S_{s+2} merge here
        m = len(self.word)
        if m == 0:
            return self

        word, ranks = self.word, self.ranks
        counts = self.seg_counts()

        # Chords hooked by the drag: arcs of the face with exactly one end in
        # the gap between the swapped punctures.
        dragged = []
        for ci in range(face ^ self.side0, m, 2):
            cj = ci + 1 if ci + 1 < m else 0
            if (word[ci] == gap) != (word[cj] == gap):
                dragged.append((ci, cj))

        if len(dragged) > 1:
            keys = self.crossing_keys()
            a_key = _puncture_key((s + 1) % n)

            def separates(x, y):
                xa, xb = keys[x[0]], keys[x[1]]
                ya, yb = keys[y[0]], keys[y[1]]
                side = _in_cyclic(a_key, xa, xb)
                return (_in_cyclic(ya, xa, xb) != side
                        and _in_cyclic(yb, xa, xb) != side)

            def cmp(x, y):
                if separates(x, y):
                    return -1
                if separates(y, x):
                    return 1
                return 0

            # First chord met by the moving puncture wraps innermost.
            dragged.sort(key=functools.cmp_to_key(cmp))
        order = {ci: t for t, (ci, _) in enumerate(dragged)}

        total = len(dragged)
        new_word: list[int] = []
        new_ranks: list[int] = []
        shift = counts[gap]
        for idx in range(m):
            seg, rank = word[idx], ranks[idx]
            if seg == gap:
                new_word.append(merged)
                new_ranks.append(rank)
            elif seg == merged:
                new_word.append(merged)
                new_ranks.append(shift + rank)
            else:
                new_word.append(seg)
                new_ranks.append(rank)
            hooked = order.get(idx)
            if hooked is None:
                continue
            # Replacement path: q -F- w_R -F'- w_L -F- r, with q the gap end
            # and F' the other face.
            w_l = counts[s] + total - 1 - hooked
            if seg == gap:
                new_word += (gap, s)
                new_ranks += (hooked, w_l)
            else:
                new_word += (s, gap)
                new_ranks += (w_l, hooked)

        # The arc after crossing 0 keeps its face: when it is hooked it lies
        # in `face`, and so does the first arc of its replacement path.
        return Diagram(n, new_word, new_ranks, self.side0, _check=True)

    def half_twist(self, i: int, sign: int) -> "Diagram":
        """Apply the half twist swapping punctures i and i+1.

        Positive twists drag through the upper face, negative through the
        lower; the two are mutually inverse.
        """
        if sign not in (1, -1):
            raise DiagramError("sign must be +1 or -1")
        return self.drag(i, LOWER if sign < 0 else UPPER)

    def apply_word(self, letters: Sequence[tuple[int, int]]) -> "Diagram":
        """Apply a twist word; the last letter acts first (composition order)."""
        d = self
        for gen, sign in reversed(letters):
            d = d.half_twist(gen, sign)
        return d


def round_diagram(n: int, i: int, j: int) -> Diagram:
    """Diagram of the convex curve enclosing the consecutive block p_i..p_j."""
    ga, gb = i % n, (j + 1) % n
    if ga == gb:
        raise DiagramError("round curve must exclude at least one gap")
    return Diagram(n, [ga, gb], [0, 0], UPPER)


def _places(n: int, word: Sequence[int], ranks: Sequence[int]):
    """Place of each crossing on the circle (segment offset plus rank), or
    None when the ranks of some segment are not exactly 0, 1, 2, ...

    With all ranks non-negative, the places form a permutation of
    0..m-1 exactly when the ranks are contiguous: the crossings of the
    segments from s on must then fill the places from s's offset on.
    """
    offset = list(itertools.accumulate(map(word.count, range(n)), initial=0))
    place = [offset[s] + r for s, r in zip(word, ranks)]
    if place and (min(ranks) < 0 or sorted(place) != list(range(len(place)))):
        return None
    return place


def _reduce(n: int, word: Sequence[int], ranks: Sequence[int], side0: int):
    """Remove empty bigons against the circle until none remain.

    A cancellable pair is two crossings adjacent along the curve, on the same
    segment, with no other crossing between them on that segment: the arc
    between them cuts an empty bigon off the circle.  Reduced diagrams are
    unique in their isotopy class, so the order of cancellations does not
    matter.

    Ranks are renumbered once, up front, into places on the circle.
    Crossings then sit on two doubly linked cyclic lists, one along the curve
    and one per segment in place order.  Cancelling a pair creates at most
    two new candidate pairs: its two curve neighbours, and its two segment
    neighbours, so a worklist finds every cancellation in linear time.  Each
    crossing carries the side of the arc *after* it; deleting a pair merges
    three arcs into one with the surviving side.  Returns contiguous ranks.
    """
    m = len(word)
    if m == 0:
        return [], [], 0
    place = _places(n, word, ranks)
    if place is None:
        order = sorted(range(m), key=lambda k: (word[k], ranks[k]))
        place = [0] * m
        for x, k in enumerate(order):
            place[k] = x
        ranks = _ranks_of(word, place)
    # Crossings i-1 and i are cancellable when they share a segment and
    # their places differ by one.
    work = [i - 1 for i in range(m)
            if word[i] == word[i - 1] and abs(place[i] - place[i - 1]) == 1]
    if not work:
        return word, ranks, side0
    at = [0] * m
    for k, x in enumerate(place):
        at[x] = k
    up = [-1] * m                  # next crossing on the segment
    down = [-1] * m
    for x in range(m - 1):
        a, b = at[x], at[x + 1]
        if word[a] == word[b]:
            up[a] = b
            down[b] = a
    nxt = list(range(1, m)) + [0]  # along the curve
    prv = [m - 1] + list(range(m - 1))
    alive = [True] * m
    left = m
    while work:
        x = work.pop() % m
        y = nxt[x]
        if not alive[x] or (up[x] != y and down[x] != y):
            continue
        if left == 2:
            return [], [], 0
        alive[x] = alive[y] = False
        left -= 2
        before, after = prv[x], nxt[y]
        nxt[before] = after
        prv[after] = before
        lo, hi = (x, y) if up[x] == y else (y, x)
        below, above = down[lo], up[hi]
        if below >= 0:
            up[below] = above
        if above >= 0:
            down[above] = below
        work.append(before)
        if below >= 0 and above >= 0:
            work.append(below)
            work.append(above)
    start = alive.index(True)
    survivors = []
    x = start
    while True:
        survivors.append(x)
        x = nxt[x]
        if x == start:
            break
    out_word = [word[x] for x in survivors]
    out_ranks = _ranks_of(out_word, [place[x] for x in survivors])
    return out_word, out_ranks, side0 ^ (start & 1)


def _ranks_of(word: Sequence[int], place: Sequence[int]) -> list[int]:
    """Contiguous per-segment ranks in the order of the given places."""
    ranks = [0] * len(word)
    seen: dict[int, int] = {}
    for k in sorted(range(len(word)), key=place.__getitem__):
        s = word[k]
        ranks[k] = seen.get(s, 0)
        seen[s] = ranks[k] + 1
    return ranks


def _least_rotation(seq: list[int]) -> int:
    """Start of the lexicographically least rotation of `seq`.

    Booth's algorithm (K. S. Booth, Lexicographically least circular
    substrings, Inform. Process. Lett. 10(4), 1980): a failure function over
    the doubled sequence, linear time.
    """
    n = len(seq)
    s = seq + seq
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if i == -1 and sj != s[k]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % n


def _canonical_rotation(word: list[int], ranks: list[int], side0: int):
    """Pick the lexicographically least rotation/reflection of the sequence.

    Candidates compare by the side of their first arc, then by their
    (segment, rank) sequence.  Sides alternate and the length is even, so
    the least candidate starts with an upper arc: a rotation by an offset of
    one parity in the given direction, or of the other parity in the
    reflected one.  Coding each aligned pair of crossings as one integer
    turns the search in each direction into one least-rotation problem.
    """
    m = len(word)
    if m == 0:
        return word, ranks, 0
    seq = [s * m + r for s, r in zip(word, ranks)]
    width = max(seq) + 1
    best = None
    for base, parity in ((seq, side0), ([seq[0]] + seq[:0:-1], side0 ^ 1)):
        aligned = base[parity:] + base[:parity]
        pairs = [aligned[k] * width + aligned[k + 1] for k in range(0, m, 2)]
        start = parity + 2 * _least_rotation(pairs)
        cand = base[start:] + base[:start]
        if best is None or cand < best:
            best = cand
    return [c // m for c in best], [c % m for c in best], UPPER
