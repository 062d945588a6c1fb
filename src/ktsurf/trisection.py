"""Spines of bridge trisections and the standard surface constructors.

A spine is a triple of trivial tangles t12, t23, t31 on one 2b-punctured
sphere; the three pairwise unions are bridge-split unlinks with component
counts c1, c2, c3 (for the unions t12+t31, t23+t12, t31+t23 respectively).
The spine determines the trisected surface because disks glue along unlinks
uniquely.

Seven standard spines are built in:

  name   b   (c1,c2,c3)   description
  U      2   (1,1,1)      unknotted 2-sphere (the doubly-pointed model)
  P+     2   (1,1,1)      unknotted projective plane, normal Euler +2
  P-     2   (1,1,1)      unknotted projective plane, normal Euler -2
  K20    3   (1,1,1)      unknotted Klein bottle P+ # P+
  K11    3   (1,1,1)      unknotted Klein bottle P+ # P-
  K02    3   (1,1,1)      unknotted Klein bottle P- # P-
  T      3   (1,1,1)      unknotted torus

All are digitized into the shadow model with two validations replacing pixel
fidelity: the component counts and bridge numbers match, and the reducibility
witness search comes back empty where it should (the torus spine admits no
common c-reducing curve within the default budget, while every distant sum
exhibits its separating curve at budget zero).

Composite surfaces are expressions over the atoms with `+` for the distant
sum and `#` for the connected sum, `#` binding tighter.

The distant-sum layout is owned here: `SurfaceExpr.blocks` places each
distant summand on its own consecutive block of 2b punctures, left to
right, with b read by `SurfaceExpr.bridge` from the standard spines.  Block
certificates, torus witnesses and the lemma verifiers' block profiles all
use these ranges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .curves import (ArcSystem, Curve, PuncturedSphere, format_arcs,
                     parse_arcs, parse_word)
from .pants import curve_pool, DEFAULT_TWIST_BUDGET
from .tangles import (BridgeSplitUnlink, CheckReport, ShadowTangle,
                      is_c_reducing)

ATOMS = ("U", "P+", "P-", "K20", "K11", "K02", "T")


class SpineError(ValueError):
    """Invalid spine data or expression."""


# -- surface expressions -------------------------------------------------------

@dataclass(frozen=True)
class SurfaceExpr:
    """Expression tree over the standard atoms; op is 'atom', '+' or '#'."""

    op: str
    name: str = ""
    parts: tuple["SurfaceExpr", ...] = ()

    def __str__(self) -> str:
        if self.op == "atom":
            return self.name
        sep = f" {self.op} "
        rendered = []
        for p in self.parts:
            s = str(p)
            if self.op == "#" and p.op == "+":
                s = f"({s})"
            rendered.append(s)
        return sep.join(rendered)

    def atoms(self) -> list[str]:
        if self.op == "atom":
            return [self.name]
        out = []
        for p in self.parts:
            out.extend(p.atoms())
        return out

    def torus_count(self) -> int:
        """Number of torus atoms joined at the distant-sum level.

        Tori hidden under a connected sum are not counted: the lower-bound
        machinery only certifies distant summands.
        """
        if self.op == "atom":
            return 1 if self.name == "T" else 0
        if self.op == "+":
            return sum(p.torus_count() for p in self.parts)
        return 0

    def distant_parts(self) -> tuple["SurfaceExpr", ...]:
        return self.parts if self.op == "+" else (self,)

    def bridge(self) -> int:
        """Bridge number: an atom's is its standard spine's, a distant sum
        adds them, a connected sum loses one per join."""
        if self.op == "atom":
            return standard(self.name).b
        total = sum(p.bridge() for p in self.parts)
        return total if self.op == "+" else total - (len(self.parts) - 1)

    def blocks(self) -> tuple[tuple["SurfaceExpr", range], ...]:
        """Each distant summand with its punctures: consecutive blocks,
        twice the bridge number wide, left to right."""
        out = []
        start = 0
        for part in self.distant_parts():
            end = start + 2 * part.bridge()
            out.append((part, range(start, end)))
            start = end
        return tuple(out)


def atom(name: str) -> SurfaceExpr:
    if name not in ATOMS:
        raise SpineError(f"unknown standard surface {name!r}")
    return SurfaceExpr("atom", name=name)


_TOKEN_RE = re.compile(r"\s*(P\+|P-|K20|K11|K02|U|T|\+|#|\(|\))")


def parse_expression(text: str) -> SurfaceExpr:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SpineError(f"bad token at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    out, rest = _parse_sum(tokens, 0)
    if rest != len(tokens):
        raise SpineError(f"trailing tokens in expression {text!r}")
    return out


def _parse_sum(tokens, k):
    part, k = _parse_join(tokens, k)
    parts = [part]
    while k < len(tokens) and tokens[k] == "+":
        part, k = _parse_join(tokens, k + 1)
        parts.append(part)
    if len(parts) == 1:
        return parts[0], k
    flat = []
    for p in parts:
        flat.extend(p.parts if p.op == "+" else (p,))
    return SurfaceExpr("+", parts=tuple(flat)), k


def _parse_join(tokens, k):
    part, k = _parse_atom(tokens, k)
    parts = [part]
    while k < len(tokens) and tokens[k] == "#":
        part, k = _parse_atom(tokens, k + 1)
        parts.append(part)
    if len(parts) == 1:
        return parts[0], k
    flat = []
    for p in parts:
        flat.extend(p.parts if p.op == "#" else (p,))
    return SurfaceExpr("#", parts=tuple(flat)), k


def _parse_atom(tokens, k):
    if k >= len(tokens):
        raise SpineError("unexpected end of expression")
    tok = tokens[k]
    if tok == "(":
        inner, k = _parse_sum(tokens, k + 1)
        if k >= len(tokens) or tokens[k] != ")":
            raise SpineError("missing closing parenthesis")
        return inner, k + 1
    if tok in ATOMS:
        return atom(tok), k + 1
    raise SpineError(f"expected an atom, got {tok!r}")


# -- spines ---------------------------------------------------------------------

class Spine:
    """Three trivial tangles on a shared bridge sphere."""

    __slots__ = ("sphere", "t12", "t23", "t31", "meta")

    def __init__(self, t12: ShadowTangle, t23: ShadowTangle, t31: ShadowTangle,
                 meta: SurfaceExpr | None = None):
        if not (t12.n == t23.n == t31.n):
            raise SpineError("tangles on different spheres")
        self.sphere = t12.sphere
        self.t12 = t12
        self.t23 = t23
        self.t31 = t31
        self.meta = meta

    @property
    def n(self) -> int:
        return self.sphere.n

    @property
    def b(self) -> int:
        return self.n // 2

    @property
    def tangles(self) -> tuple[ShadowTangle, ShadowTangle, ShadowTangle]:
        return (self.t12, self.t23, self.t31)

    def unlink(self, i: int) -> BridgeSplitUnlink:
        """The i-th pairwise union (i in 1..3), upper tangle listed first."""
        if i == 1:
            return BridgeSplitUnlink(self.t12, self.t31)
        if i == 2:
            return BridgeSplitUnlink(self.t23, self.t12)
        if i == 3:
            return BridgeSplitUnlink(self.t31, self.t23)
        raise SpineError(f"unlink index {i} not in 1..3")

    @property
    def c(self) -> tuple[int, int, int]:
        return tuple(self.unlink(i).c for i in (1, 2, 3))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Spine) and self.t12 == other.t12
                and self.t23 == other.t23 and self.t31 == other.t31)

    def __hash__(self) -> int:
        return hash((self.t12, self.t23, self.t31))

    def __repr__(self) -> str:
        tag = f" meta={self.meta}" if self.meta else ""
        return f"Spine(b={self.b}, c={self.c}{tag})"


def validate_spine(s: Spine) -> CheckReport:
    """Structural checks; unlink-ness of the unions is by construction for
    generator-built spines and flagged as assumed otherwise."""
    rep = CheckReport(subject=f"spine b={s.b}")
    rep.record("shared-sphere", s.t12.n == s.t23.n == s.t31.n)
    rep.record("bridge-number", s.b >= 2, f"b={s.b}")
    for i in (1, 2, 3):
        ci = s.unlink(i).c
        rep.record("component-range", 1 <= ci <= s.b, f"c_{i}={ci}")
    if s.meta is None:
        rep.record("unlink-assumption",
                   True, "")
        rep.failures.append(
            "note: unions assumed to be unlinks (opaque spine, no metadata)")
    else:
        atoms_ok = all(a in ATOMS for a in s.meta.atoms())
        rep.record("metadata-atoms", atoms_ok, str(s.meta))
        rep.record("metadata-bridge", s.meta.bridge() == s.b,
                   f"expected b={s.meta.bridge()}, have {s.b}")
    return rep


# -- sums -----------------------------------------------------------------------

def _shift_word(word, offset):
    return tuple((g + offset, s) for g, s in word)


def distant_sum(s1: Spine, s2: Spine) -> Spine:
    """Place the second spine to the right of the first."""
    n1 = s1.n
    tangles = []
    for a, b in zip(s1.tangles, s2.tangles):
        ref = list(a.arcs.reference) + [(x + n1, y + n1)
                                        for x, y in b.arcs.reference]
        word = a.arcs.word + _shift_word(b.arcs.word, n1)
        tangles.append(ShadowTangle(
            ArcSystem(PuncturedSphere(n1 + s2.n), ref, word)))
    meta = None
    if s1.meta is not None and s2.meta is not None:
        meta = SurfaceExpr("+", parts=(s1.meta.distant_parts()
                                       + s2.meta.distant_parts()))
    return Spine(*tangles, meta=meta)


def connected_sum(s1: Spine, s2: Spine) -> Spine:
    """Glue the rightmost puncture of s1 to the leftmost of s2.

    Per tangle, the glued punctures are identified and erased, concatenating
    the two arcs that ended there.  Routing words must not touch the glue
    punctures; the built-in spines satisfy this.
    """
    n1, n2 = s1.n, s2.n
    glue1, glue2 = n1 - 1, 0
    tangles = []
    for a, b in zip(s1.tangles, s2.tangles):
        for g, _ in a.arcs.word:
            if g >= n1 - 2:
                raise SpineError(
                    "left spine's routing touches its last puncture; "
                    "re-route before taking a connected sum")
        for g, _ in b.arcs.word:
            if g == 0:
                raise SpineError(
                    "right spine's routing touches its first puncture; "
                    "re-route before taking a connected sum")
        shift = n1 - 2  # block2 puncture k >= 1 lands at n1 - 2 + k
        left_end = None
        right_end = None
        ref = []
        for x, y in a.arcs.reference:
            if y == glue1:
                left_end = x
            elif x == glue1:
                left_end = y
            else:
                ref.append((x, y))
        for x, y in b.arcs.reference:
            if x == glue2:
                right_end = y + shift
            elif y == glue2:
                right_end = x + shift
            else:
                ref.append((x + shift, y + shift))
        ref.append((left_end, right_end))
        word = a.arcs.word + _shift_word(b.arcs.word, shift)
        tangles.append(ShadowTangle(
            ArcSystem(PuncturedSphere(n1 + n2 - 2), ref, word)))
    meta = None
    if s1.meta is not None and s2.meta is not None:
        left = s1.meta.parts if s1.meta.op == "#" else (s1.meta,)
        right = s2.meta.parts if s2.meta.op == "#" else (s2.meta,)
        meta = SurfaceExpr("#", parts=left + right)
    return Spine(*tangles, meta=meta)


# -- standard spines -------------------------------------------------------------

# Routing words for the third tangle of the 2-bridge spines.  All three share
# the matchings {(0,1),(2,3)}, {(1,2),(3,0)}, {(0,2),(1,3)}; the twisting of
# the third tangle tells them apart.
_TWO_BRIDGE_WORDS = {"P+": "s1", "P-": "s1^-1", "U": "s1.s1.s1"}

# Routing word of the third torus tangle (pairing {(0,3),(1,4),(2,5)}),
# fixed by the digitization search in scripts/digitize_torus.py.
_TORUS_WORD = "s2.s1.s3"


@lru_cache(maxsize=None)
def standard(kind: str) -> Spine:
    """The built-in spine of one standard surface."""
    if kind not in ATOMS:
        raise SpineError(f"unknown standard surface {kind!r}; "
                         f"expected one of {', '.join(ATOMS)}")
    if kind in ("U", "P+", "P-"):
        sph = PuncturedSphere(4)
        t12 = ShadowTangle(ArcSystem(sph, [(0, 1), (2, 3)]))
        t23 = ShadowTangle(ArcSystem(sph, [(1, 2), (3, 0)]))
        t31 = ShadowTangle(ArcSystem(sph, [(0, 1), (2, 3)],
                                     parse_word(_TWO_BRIDGE_WORDS[kind])))
        return Spine(t12, t23, t31, meta=atom(kind))
    if kind == "K20":
        s = connected_sum(standard("P+"), standard("P+"))
    elif kind == "K11":
        s = connected_sum(standard("P+"), standard("P-"))
    elif kind == "K02":
        s = connected_sum(standard("P-"), standard("P-"))
    else:  # torus
        sph = PuncturedSphere(6)
        t12 = ShadowTangle(ArcSystem(sph, [(0, 1), (2, 3), (4, 5)]))
        t23 = ShadowTangle(ArcSystem(sph, [(1, 2), (3, 4), (5, 0)]))
        t31 = ShadowTangle(ArcSystem(sph, [(0, 1), (2, 3), (4, 5)],
                                     parse_word(_TORUS_WORD)))
        return Spine(t12, t23, t31, meta=atom("T"))
    return Spine(s.t12, s.t23, s.t31, meta=atom(kind))


def spine_of_expression(e: SurfaceExpr | str) -> Spine:
    """Evaluate an expression to its composite spine."""
    if isinstance(e, str):
        e = parse_expression(e)
    if e.op == "atom":
        return standard(e.name)
    parts = [spine_of_expression(p) for p in e.parts]
    out = parts[0]
    for p in parts[1:]:
        out = distant_sum(out, p) if e.op == "+" else connected_sum(out, p)
    return out


# -- reducibility witness ---------------------------------------------------------

def c_reducing_witness(s: Spine,
                       twist_budget: int = DEFAULT_TWIST_BUDGET) -> Curve | None:
    """A single curve that is c-reducing for all three pairwise unlinks.

    Existence means the trisection is reducible or stabilized.  Absence is
    certified only up to the twist budget of the candidate pool.
    """
    if s.b < 2:
        raise SpineError("witness search needs b >= 2")
    unlinks = [s.unlink(i) for i in (1, 2, 3)]
    for c in curve_pool(s.sphere, twist_budget):
        if all(is_c_reducing(c, u) for u in unlinks):
            return c
    return None


# -- file format -------------------------------------------------------------------

def format_spine(s: Spine) -> str:
    lines = [f"punctures {s.n}",
             f"tangle 12: {format_arcs(s.t12.arcs)}",
             f"tangle 23: {format_arcs(s.t23.arcs)}",
             f"tangle 31: {format_arcs(s.t31.arcs)}"]
    if s.meta is not None:
        lines.append(f"meta: {s.meta}")
    return "\n".join(lines) + "\n"


def parse_spine(text: str) -> Spine:
    sphere = None
    tangles: dict[str, ShadowTangle] = {}
    meta = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("punctures"):
            sphere = PuncturedSphere(int(line.split()[1]))
        elif line.startswith("tangle"):
            if sphere is None:
                raise SpineError("tangle line before punctures header")
            label, _, rest = line[len("tangle"):].partition(":")
            label = label.strip()
            if label not in ("12", "23", "31"):
                raise SpineError(f"tangle label must be 12, 23 or 31: {label!r}")
            tangles[label] = ShadowTangle(parse_arcs(sphere, rest.strip()))
        elif line.startswith("meta:"):
            meta = parse_expression(line[len("meta:"):].strip())
        else:
            raise SpineError(f"unrecognised line {line!r}")
    if sphere is None or set(tangles) != {"12", "23", "31"}:
        raise SpineError("spine needs punctures header and tangles 12, 23, 31")
    return Spine(tangles["12"], tangles["23"], tangles["31"], meta=meta)
