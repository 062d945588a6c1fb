"""Curves and embedded arc systems on a punctured sphere.

Public value types:

  * :class:`PuncturedSphere` -- n punctures on the reference circle, n >= 4.
  * :class:`Curve` -- an essential simple closed curve, stored as a reduced
    normal-form diagram plus a construction recipe (a half-twist word applied
    to a round curve).  Equality is isotopy on the sphere.
  * :class:`ArcSystem` -- disjoint embedded arcs matching punctures pairwise,
    stored as a half-twist word applied to a non-crossing reference matching
    drawn in the lower face.  The single-word construction keeps the
    representatives embedded and pairwise disjoint for free.

Intersection numbers are computed exactly: a curve is carried back to round
position by the inverse of its recipe word, where minimal position against
round curves and reference arc systems is read off the diagram.

Text syntax (round-tripping with the printers):

  curve       ::=  word "*" "rc(" i ".." j ")"
  arc system  ::=  word "*" "arcs" "(" a "," b ")" ...
  word        ::=  "e"  |  letter ("." letter)*
  letter      ::=  "s" k  |  "s" k "^-1"

so for example ``s1^-1.s2 * rc(0..1)`` and ``e * arcs (0,1)(2,3)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .diagram import Diagram, round_diagram, _puncture_key, _chords_cross

Letter = tuple[int, int]
Word = tuple[Letter, ...]


class CurveError(ValueError):
    """Invalid curve, arc system, or sphere data."""


@dataclass(frozen=True, order=True)
class PuncturedSphere:
    """The 2-sphere with n >= 4 labelled punctures on the reference circle."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise CurveError(f"need at least 4 punctures, got {self.n}")

    def __str__(self) -> str:
        return f"S^2 with {self.n} punctures"


def _check_same_sphere(a, b) -> None:
    if a.n != b.n:
        raise CurveError(f"sphere mismatch: {a.n} vs {b.n} punctures")


def inverse_word(word: Sequence[Letter]) -> Word:
    return tuple((g, -s) for g, s in reversed(word))


def word_permutation(n: int, word: Sequence[Letter]) -> list[int]:
    """Puncture permutation of a twist word: image[p] = where p is sent."""
    perm = list(range(n))
    for g, _ in reversed(word):
        perm[g], perm[g + 1] = perm[g + 1], perm[g]
    # perm built by position updates: perm[pos] = original puncture there.
    image = [0] * n
    for pos, orig in enumerate(perm):
        image[orig] = pos
    return image


class Curve:
    """Essential simple closed curve; equality and hashing mean isotopy."""

    __slots__ = ("sphere", "diagram", "word", "base")

    def __init__(self, sphere: PuncturedSphere, word: Sequence[Letter],
                 base: tuple[int, int], diagram: Diagram | None = None):
        n = sphere.n
        i, j = base
        if not (0 <= i <= j <= n - 1):
            raise CurveError(f"bad round interval {i}..{j}")
        if not (2 <= j - i + 1 <= n - 2):
            raise CurveError(
                f"inessential range {i}..{j}: a round curve must enclose "
                f"between 2 and {n - 2} of the {n} punctures")
        word = tuple((int(g), int(s)) for g, s in word)
        for g, s in word:
            if not 0 <= g <= n - 2:
                raise CurveError(f"generator index s{g} out of range for n={n}")
            if s not in (1, -1):
                raise CurveError("twist sign must be +1 or -1")
        self.sphere = sphere
        self.word = word
        self.base = (i, j)
        if diagram is None:
            diagram = round_diagram(n, i, j).apply_word(word)
        self.diagram = diagram

    @property
    def n(self) -> int:
        return self.sphere.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, Curve) and self.n == other.n
                and self.diagram == other.diagram)

    def __hash__(self) -> int:
        return hash((self.n, self.diagram))

    def __lt__(self, other: "Curve") -> bool:
        return self.diagram.key < other.diagram.key

    def __repr__(self) -> str:
        return f"Curve({format_curve(self)!r}, n={self.n})"

    def __str__(self) -> str:
        return format_curve(self)

    @property
    def key(self):
        return self.diagram.key


def round_curve(sphere: PuncturedSphere, i: int, j: int) -> Curve:
    """The canonical curve enclosing exactly the block p_i, ..., p_j."""
    return Curve(sphere, (), (i, j))


def apply_half_twist(c: Curve, i: int, sign: int = 1) -> Curve:
    """Image of c under the half twist swapping punctures i and i+1."""
    if not 0 <= i <= c.n - 2:
        raise CurveError(f"generator index {i} out of range for n={c.n}")
    if sign not in (1, -1):
        raise CurveError("twist sign must be +1 or -1")
    return Curve(c.sphere, ((i, sign),) + c.word, c.base,
                 diagram=c.diagram.half_twist(i, sign))


def apply_word(c: Curve, word: Sequence[Letter]) -> Curve:
    out = c
    for g, s in reversed(tuple(word)):
        out = apply_half_twist(out, g, s)
    return out


def enclosed_punctures(c: Curve) -> frozenset[int]:
    """Punctures on the side of c away from the basepoint.

    The distinguished outside is the region adjacent to the last puncture
    p_{n-1}, so the result always omits n-1 and has size in [2, n-2].
    """
    return c.diagram.enclosed_punctures()


_INT_CACHE: dict = {}
_ARC_CACHE: dict = {}


@lru_cache(maxsize=512)
def _carried(d: Diagram, word: Word) -> Diagram:
    """``d.apply_word(inverse_word(word))`` for a non-empty `word`: its
    letters undone, first letter first.

    A search carries one curve back by the recipe words of many pool
    curves, which share their leading letters, so recent images, and with
    them the images after each prefix, are kept and reused.
    """
    g, s = word[-1]
    if len(word) > 1:
        d = _carried(d, word[:-1])
    return d.half_twist(g, -s)


def geometric_intersection(c1: Curve, c2: Curve) -> int:
    """Minimal intersection number of two curves on the sphere.

    Carries both curves back by the inverse recipe of c1, reducing to minimal
    position of a diagram against a round curve.
    """
    _check_same_sphere(c1, c2)
    if c1.diagram == c2.diagram:
        return 0
    if len(c1.word) > len(c2.word):
        c1, c2 = c2, c1
    ck = (c1.diagram.key, c2.diagram.key)
    hit = _INT_CACHE.get(ck)
    if hit is not None:
        return hit
    moved = _carried(c2.diagram, c1.word) if c1.word else c2.diagram
    out = moved.intersect_round(*c1.base)
    _INT_CACHE[ck] = out
    _INT_CACHE[(ck[1], ck[0])] = out
    return out


class ArcSystem:
    """Disjoint embedded arcs pairing distinct punctures.

    The reference matching is drawn with each arc a chord of the lower face,
    which is possible exactly when the pairs are non-crossing in the circular
    order; the routing word then moves the whole system at once.
    """

    __slots__ = ("sphere", "reference", "word", "_pairs")

    def __init__(self, sphere: PuncturedSphere,
                 reference: Iterable[tuple[int, int]],
                 word: Sequence[Letter] = ()):
        n = sphere.n
        ref = []
        seen: set[int] = set()
        for a, b in reference:
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise CurveError(f"bad arc endpoints ({a},{b})")
            if a in seen or b in seen:
                raise CurveError(f"puncture reused in matching at ({a},{b})")
            seen.update((a, b))
            ref.append((min(a, b), max(a, b)))
        ref.sort()
        for x in range(len(ref)):
            for y in range(x + 1, len(ref)):
                a, b = ref[x]
                c, d = ref[y]
                if _chords_cross(_puncture_key(a), _puncture_key(b),
                                 _puncture_key(c), _puncture_key(d)):
                    raise CurveError(
                        f"reference pairs {ref[x]} and {ref[y]} interleave; "
                        "route the system with a twist word instead")
        word = tuple((int(g), int(s)) for g, s in word)
        for g, s in word:
            if not 0 <= g <= n - 2 or s not in (1, -1):
                raise CurveError(f"bad routing letter ({g},{s})")
        self.sphere = sphere
        self.reference = tuple(ref)
        self.word = word
        image = word_permutation(n, word)
        self._pairs = tuple(sorted(tuple(sorted((image[a], image[b])))
                                   for a, b in ref))

    @property
    def n(self) -> int:
        return self.sphere.n

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Endpoint pairs of the routed arcs."""
        return self._pairs

    def __eq__(self, other) -> bool:
        return (isinstance(other, ArcSystem) and self.n == other.n
                and self.reference == other.reference and self.word == other.word)

    def __hash__(self) -> int:
        return hash((self.n, self.reference, self.word))

    def __repr__(self) -> str:
        return f"ArcSystem({format_arcs(self)!r}, n={self.n})"

    def __str__(self) -> str:
        return format_arcs(self)


def arc_intersection(c: Curve, arcs: ArcSystem) -> int:
    """Minimal total intersection of a curve with the routed arc system."""
    _check_same_sphere(c, arcs)
    ck = (c.diagram.key, arcs.reference, arcs.word)
    hit = _ARC_CACHE.get(ck)
    if hit is not None:
        return hit
    moved = c.diagram.apply_word(inverse_word(arcs.word))
    out = moved.intersect_lower_chords(arcs.reference)
    _ARC_CACHE[ck] = out
    return out


# -- text syntax -------------------------------------------------------------

_LETTER_RE = re.compile(r"^s(\d+)(?:\^(-1))?$")
_RC_RE = re.compile(r"^rc\(\s*(\d+)\s*\.\.\s*(\d+)\s*\)$")
_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def format_word(word: Sequence[Letter]) -> str:
    if not word:
        return "e"
    return ".".join(f"s{g}" if s > 0 else f"s{g}^-1" for g, s in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "e":
        return ()
    letters = []
    for tok in text.split("."):
        m = _LETTER_RE.match(tok.strip())
        if not m:
            raise CurveError(f"bad twist letter {tok!r}")
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    return tuple(letters)


def format_curve(c: Curve) -> str:
    i, j = c.base
    return f"{format_word(c.word)} * rc({i}..{j})"


def parse_curve(sphere: PuncturedSphere, text: str) -> Curve:
    parts = text.split("*")
    if len(parts) != 2:
        raise CurveError(f"curve literal must be 'word * rc(i..j)': {text!r}")
    word = parse_word(parts[0])
    m = _RC_RE.match(parts[1].strip())
    if not m:
        raise CurveError(f"bad round-curve part in {text!r}")
    return Curve(sphere, word, (int(m.group(1)), int(m.group(2))))


def format_arcs(a: ArcSystem) -> str:
    pairs = "".join(f"({x},{y})" for x, y in a.reference)
    return f"{format_word(a.word)} * arcs {pairs}"


def parse_arcs(sphere: PuncturedSphere, text: str) -> ArcSystem:
    parts = text.split("*")
    if len(parts) != 2:
        raise CurveError(f"arc literal must be 'word * arcs (a,b)...': {text!r}")
    word = parse_word(parts[0])
    body = parts[1].strip()
    if not body.startswith("arcs"):
        raise CurveError(f"missing 'arcs' keyword in {text!r}")
    pairs = [(int(a), int(b)) for a, b in _PAIR_RE.findall(body[4:])]
    if not pairs:
        raise CurveError(f"no arc pairs in {text!r}")
    return ArcSystem(sphere, pairs, word)
