"""Independent distance oracle for the 4-punctured sphere.

Pants decompositions of the 4-punctured sphere are single curves, and curves
are classified by slopes p/q in Q u {oo}: two slopes span an edge of the
pants complex exactly when |ps - qr| = 1 (the Farey graph).  Distances in the
Farey graph are computed by a continued-fraction style reduction, entirely
independent of the diagram search machinery, so the two can cross-check each
other.

Slope conventions: the round curve around p0, p1 has slope 0/1, the round
curve around p1, p2 has slope 1/0, and the positive half twist around
punctures 1, 2 applied to slope 0/1 gives slope 1/1.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .curves import (Curve, CurveError, PuncturedSphere, apply_half_twist,
                     geometric_intersection, round_curve)

Slope = tuple[int, int]

INFINITY: Slope = (1, 0)


def normalize_slope(p: int, q: int) -> Slope:
    if p == 0 and q == 0:
        raise CurveError("slope 0/0 is not a curve")
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def is_farey_edge(a: Slope, b: Slope) -> bool:
    return abs(a[0] * b[1] - a[1] * b[0]) == 1


def slope_of_curve(c: Curve) -> Slope:
    """Slope of a curve on the 4-punctured sphere.

    Determined by its intersection numbers with the three reference curves:
    i(p/q, r/s) = 2|ps - qr|.
    """
    if c.n != 4:
        raise CurveError("slopes are defined on the 4-punctured sphere only")
    sph = c.sphere
    c0 = round_curve(sph, 0, 1)       # slope 0/1
    cinf = round_curve(sph, 1, 2)     # slope 1/0
    cone = apply_half_twist(round_curve(sph, 0, 1), 1, +1)  # slope 1/1
    ap = geometric_intersection(c, c0) // 2       # |p|
    aq = geometric_intersection(c, cinf) // 2     # |q|
    ad = geometric_intersection(c, cone) // 2     # |p - q|
    if aq == 0:
        return INFINITY
    if ap == 0:
        return (0, 1)
    sign = 1 if ad == abs(ap - aq) else -1
    if ad not in (abs(ap - aq), ap + aq):
        raise CurveError(f"inconsistent slope data {(ap, aq, ad)}")
    return normalize_slope(sign * ap, aq)


def _moebius_of_letter(g: int, s: int) -> tuple[int, int, int, int]:
    """Integer matrix (up to sign) of one half twist acting on slopes.

    Calibrated against the diagram engine by evaluating the twist on the
    three reference curves and solving the three-point Moebius problem.
    """
    sph = PuncturedSphere(4)
    refs = [round_curve(sph, 1, 2),                       # 1/0
            round_curve(sph, 0, 1),                       # 0/1
            apply_half_twist(round_curve(sph, 0, 1), 1, +1)]  # 1/1
    u, v, w = (slope_of_curve(apply_half_twist(c, g, s)) for c in refs)
    alpha = v[1] * w[0] - v[0] * w[1]
    beta = w[1] * u[0] - w[0] * u[1]
    a, c = alpha * u[0], alpha * u[1]
    b, d = beta * v[0], beta * v[1]
    g0 = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    if g0 == 0:
        raise CurveError("degenerate Moebius calibration")
    a, b, c, d = a // g0, b // g0, c // g0, d // g0
    if abs(a * d - b * c) != 1:
        raise CurveError(f"calibration of s{g}^{s} is not in PGL2(Z)")
    return a, b, c, d


@lru_cache(maxsize=None)
def _elementary_letters() -> dict[str, tuple[int, int]]:
    """Letters realising the four parabolic moves T+-, B+- on slopes.

    T+/-: p -> p +/- q (fixing 1/0);  B+/-: q -> q +/- p (fixing 0/1).
    """
    targets = {"T+": (1, 1, 0, 1), "T-": (1, -1, 0, 1),
               "B+": (1, 0, 1, 1), "B-": (1, 0, -1, 1)}
    table: dict[str, tuple[int, int]] = {}
    for g in range(3):
        for s in (1, -1):
            m = _moebius_of_letter(g, s)
            mneg = tuple(-x for x in m)
            for name, t in targets.items():
                if name not in table and (m == t or mneg == t):
                    table[name] = (g, s)
    missing = set(targets) - set(table)
    if missing:
        raise CurveError(f"could not calibrate parabolic moves {missing}")
    return table


def curve_of_slope(sphere: PuncturedSphere, p: int, q: int) -> Curve:
    """A curve realising slope p/q, built from an explicit twist word.

    Runs the Euclidean algorithm on (p, q) with the calibrated parabolic
    letters, so the construction is exact for every slope.
    """
    if sphere.n != 4:
        raise CurveError("slopes are defined on the 4-punctured sphere only")
    p, q = normalize_slope(p, q)
    if (p, q) == INFINITY:
        return round_curve(sphere, 1, 2)
    table = _elementary_letters()
    inv = {"T+": "T-", "T-": "T+", "B+": "B-", "B-": "B+"}
    moves: list[str] = []
    pp, qq = p, q
    while (pp, qq) != (0, 1):
        if abs(pp) >= qq:
            name = "T-" if pp > 0 else "T+"
            pp += qq if name == "T+" else -qq
        else:
            name = "B-" if pp > 0 else "B+"
            qq += pp if name == "B+" else -pp
        moves.append(name)
    word = tuple(table[inv[name]] for name in moves)
    return Curve(sphere, word, (0, 1))


@lru_cache(maxsize=None)
def _dist_to_infinity(p: int, q: int) -> int:
    """Distance from slope oo to p/q in the Farey graph."""
    p, q = normalize_slope(p, q)
    if q == 0:
        return 0
    if q == 1:
        return 1
    best = None
    base = p // q
    for n in (base - 1, base, base + 1, base + 2):
        r = p - n * q
        if abs(r) >= q:
            continue
        # Moebius map sending n -> oo: (p, q) -> (q, p - n q).
        d = 1 + _dist_to_infinity(q, r)
        if best is None or d < best:
            best = d
    return best


def farey_distance_slopes(a: Slope, b: Slope) -> int:
    a = normalize_slope(*a)
    b = normalize_slope(*b)
    if a == b:
        return 0
    # Move a to oo by an integer Moebius map, then reduce.
    p, q = a
    # Find u, v with p v - q u = 1.
    g, x, y = _xgcd(p, q)
    v, u = x, -y
    r, s = b
    rp = v * r - u * s
    sp = -q * r + p * s
    return _dist_to_infinity(rp, sp)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def farey_distance(c1: Curve, c2: Curve) -> int:
    """Exact pants distance between single-curve decompositions on n = 4."""
    if c1.n != 4 or c2.n != 4:
        raise CurveError("farey_distance needs the 4-punctured sphere")
    return farey_distance_slopes(slope_of_curve(c1), slope_of_curve(c2))


def farey_neighbors_in_box(u: Slope, height: int) -> list[Slope]:
    """All Farey neighbours of u with |numerator|, denominator <= height.

    Solutions of |p s - q r| = 1 form two arithmetic progressions
    (r0 + t p, s0 + t q); both are walked through the box.
    """
    p, q = normalize_slope(*u)
    g, x, y = _xgcd(p, q)
    # p * s0 - q * r0 = 1 with s0 = x, r0 = -y.
    out = set()
    for sign in (1, -1):
        r0, s0 = -sign * y, sign * x
        bound = (2 * height + abs(r0) + abs(s0)) // max(1, min(abs(p), q) or 1) + 2
        for t in range(-bound, bound + 1):
            r, s = r0 + t * p, s0 + t * q
            if r == 0 and s == 0:
                continue
            w = normalize_slope(r, s)
            if abs(w[0]) <= height and w[1] <= height:
                out.add(w)
    return sorted(out)


def farey_distance_bfs(a: Slope, b: Slope, den_bound: int = 64) -> int:
    """Brute-force BFS over the Farey graph restricted to a height box.

    Used as an independent check of farey_distance in the test-suite.
    """
    from collections import deque

    a = normalize_slope(*a)
    b = normalize_slope(*b)
    if a == b:
        return 0
    seen = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            return seen[u]
        for w in farey_neighbors_in_box(u, den_bound):
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    raise CurveError("target not reached inside the height box")
