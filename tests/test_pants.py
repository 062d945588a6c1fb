"""Pants complex layer and the Farey oracle for the 4-punctured sphere."""

import hashlib
import itertools
import math
import random

import pytest

from ktsurf.curves import (PuncturedSphere, apply_half_twist, apply_word,
                           enclosed_punctures, format_curve,
                           geometric_intersection, round_curve)
from ktsurf.farey import (curve_of_slope, farey_distance, farey_distance_bfs,
                          farey_distance_slopes, is_farey_edge,
                          normalize_slope, slope_of_curve)
from ktsurf.pants import (CurvePool, DistanceResult, PantsError,
                          PantsDecomposition, curve_pool, distance_upper,
                          format_pants, interior_pool, is_dual_edge,
                          is_pants_edge, neighbor_candidates, parse_pants,
                          validate_pants)

S4 = PuncturedSphere(4)
S6 = PuncturedSphere(6)
S8 = PuncturedSphere(8)


def small_slopes(max_den):
    out = [(1, 0)]
    for q in range(1, max_den + 1):
        for p in range(-max_den, max_den + 1):
            if math.gcd(abs(p), q) == 1:
                out.append((p, q))
    return out


def test_slope_round_trip():
    for p, q in small_slopes(7):
        c = curve_of_slope(S4, p, q)
        assert slope_of_curve(c) == normalize_slope(p, q)


def test_reference_slopes():
    assert slope_of_curve(round_curve(S4, 0, 1)) == (0, 1)
    assert slope_of_curve(round_curve(S4, 1, 2)) == (1, 0)
    assert slope_of_curve(round_curve(S4, 2, 3)) == (0, 1)
    assert slope_of_curve(apply_half_twist(round_curve(S4, 0, 1), 1, +1)) == (1, 1)


def test_intersection_matches_determinant():
    slopes = small_slopes(4)
    rng = random.Random(2)
    for _ in range(40):
        a = rng.choice(slopes)
        b = rng.choice(slopes)
        ca, cb = curve_of_slope(S4, *a), curve_of_slope(S4, *b)
        det = abs(a[0] * b[1] - a[1] * b[0])
        assert geometric_intersection(ca, cb) == 2 * det


def test_farey_distance_against_bfs():
    slopes = small_slopes(5)
    rng = random.Random(6)
    pairs = [(rng.choice(slopes), rng.choice(slopes)) for _ in range(60)]
    pairs += [((0, 1), (1, 0)), ((1, 2), (2, 5)), ((1, 0), (5, 13))]
    for a, b in pairs:
        assert farey_distance_slopes(a, b) == farey_distance_bfs(a, b, den_bound=48)


def test_farey_distance_examples():
    c0 = round_curve(S4, 0, 1)
    c1 = round_curve(S4, 1, 2)
    assert farey_distance(c0, c0) == 0
    assert farey_distance(c0, c1) == 1
    assert farey_distance(c0, curve_of_slope(S4, 2, 5)) == \
        farey_distance_bfs((0, 1), (2, 5))


def test_validate_pants_examples():
    good = validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 0, 2),
                               round_curve(S6, 0, 3)])
    assert len(good) == 3
    with pytest.raises(PantsError, match="intersect"):
        validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 1, 2),
                            round_curve(S6, 0, 3)])
    with pytest.raises(PantsError, match="duplicate"):
        validate_pants(S4, [round_curve(S4, 0, 1), round_curve(S4, 2, 3)])
    with pytest.raises(PantsError, match="needs"):
        validate_pants(S6, [round_curve(S6, 0, 1)])


def test_edges():
    p = validate_pants(S4, [round_curve(S4, 0, 1)])
    q = validate_pants(S4, [round_curve(S4, 1, 2)])
    assert is_pants_edge(p, q)
    assert is_dual_edge(p, q)
    assert not is_pants_edge(p, p)
    assert not is_dual_edge(p, p)
    far = validate_pants(S4, [curve_of_slope(S4, 2, 1)])
    assert geometric_intersection(p.curves[0], far.curves[0]) == 4
    assert is_dual_edge(p, far) and not is_pants_edge(p, far)


def test_edges_differing_twice():
    p = validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 0, 2),
                            round_curve(S6, 0, 3)])
    q = validate_pants(S6, [round_curve(S6, 1, 2), round_curve(S6, 1, 3),
                            round_curve(S6, 0, 3)])
    assert not is_pants_edge(p, q) and not is_dual_edge(p, q)


def test_neighbor_candidates():
    p = validate_pants(S4, [round_curve(S4, 0, 1)])
    nbrs0 = neighbor_candidates(p, 0, twist_budget=0)
    assert validate_pants(S4, [round_curve(S4, 1, 2)]) in nbrs0
    nbrs1 = neighbor_candidates(p, 0, twist_budget=1)
    nbrs2 = neighbor_candidates(p, 0, twist_budget=2)
    assert set(nbrs0) <= set(nbrs1) <= set(nbrs2)
    for q in nbrs1:
        assert is_pants_edge(p, q)


def test_pool_builder_keeps_curve_order():
    # Sizes and printed recipes of the pools as built before the two pool
    # builders were folded into one.
    cases = [
        (curve_pool(S8, 3), 1408,
         "be6fd66990dba194be15f62208d9aa18f406805a962591ebd9ea6f36414570e1"),
        (interior_pool(S6, 3), 193,
         "f0bd18977ebc43705e08031e266af161957cbb06ec9e0ebca099784ed76b3a99"),
        (interior_pool(S6, 4), 573,
         "6f726d4b13dfdd2c5870879c6873f3e702b0201e1044d55be835edb72880fb8e"),
    ]
    for pool, size, digest in cases:
        assert isinstance(pool, CurvePool) and len(pool) == size
        assert list(pool) == sorted(pool)
        text = "\n".join(format_curve(c) for c in pool)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert all(pool.ids[c.key] == k for k, c in enumerate(pool))
    assert curve_pool(S8, 3) is curve_pool(S8, 3)


def _scan_candidates(p, index, pool, kind, extra):
    """Reference: test every pool and extra curve against the decomposition
    with geometric_intersection, one candidate at a time."""
    old = p.curves[index]
    rest = [c for k, c in enumerate(p.curves) if k != index]
    skip = {c.key for c in p.curves}
    out = {}
    for cand in itertools.chain(pool, extra):
        if cand.key in skip:
            continue
        i_old = geometric_intersection(cand, old)
        if (i_old != 2) if kind == "pants" else (i_old < 2):
            continue
        if any(geometric_intersection(cand, c) != 0 for c in rest):
            continue
        q = PantsDecomposition(p.sphere, rest + [cand])
        out[q.key] = q
    return sorted(out.values())


def _random_decomposition(rng, sphere, pool, steps):
    """Nested rounds moved by a random twist word, then a random walk."""
    n = sphere.n
    word = [(rng.randrange(n - 1), rng.choice((1, -1))) for _ in range(2)]
    p = validate_pants(sphere, [apply_word(round_curve(sphere, 0, k), word)
                                for k in range(1, n - 2)])
    for _ in range(steps):
        nbrs = _scan_candidates(p, rng.randrange(n - 3), pool, "dual", ())
        if nbrs:
            p = rng.choice(nbrs)
    return p


@pytest.mark.parametrize("sphere,count", [(S6, 3), (S8, 2)])
def test_indexed_neighbors_match_scan(sphere, count):
    rng = random.Random(41 + sphere.n)
    big = curve_pool(sphere, 3)
    for _ in range(count):
        p = _random_decomposition(rng, sphere, big, steps=2)
        other = _random_decomposition(rng, sphere, big, steps=1)
        # Extra curves as distance_upper passes them, plus neighbours from
        # the larger pool, which the smaller pool lacks.
        near = {c for q in _scan_candidates(p, 0, big, "dual", ())
                for c in q.curves}
        extra = tuple(sorted(set(p.curves) | set(other.curves) | near))
        for budget in (1, 3):
            pool = curve_pool(sphere, budget)
            assert budget == 3 or any(c.key not in pool.ids for c in extra)
            for ex in ((), extra):
                for kind in ("pants", "dual"):
                    for index in range(len(p)):
                        want = _scan_candidates(p, index, pool, kind, ex)
                        got = neighbor_candidates(p, index, budget, kind, ex)
                        assert got == want
                        assert [q.key for q in got] == [q.key for q in want]
                        for explicit in (CurvePool(tuple(pool)), tuple(pool)):
                            assert neighbor_candidates(
                                p, index, budget, kind, ex, explicit) == want


def _nested(a, b):
    return a <= b or b <= a or not a & b


def test_puncture_set_rule():
    # Disjoint curves have nested enclosed sets; curves meeting twice do not.
    def check(c, d):
        i = geometric_intersection(c, d)
        if _nested(enclosed_punctures(c), enclosed_punctures(d)):
            assert i != 2, (format_curve(c), format_curve(d))
        else:
            assert i != 0, (format_curve(c), format_curve(d))

    for c, d in itertools.combinations(curve_pool(PuncturedSphere(5)), 2):
        check(c, d)
    pool = curve_pool(S8)
    rng = random.Random(2024)
    for _ in range(2000):
        check(*rng.sample(pool, 2))


def test_neighbor_search_asks_fewer_intersections_than_a_row(monkeypatch):
    import ktsurf.pants as pants

    calls = []

    def counted(c, d):
        calls.append(1)
        return geometric_intersection(c, d)

    monkeypatch.setattr(pants, "geometric_intersection", counted)
    pool = CurvePool(tuple(curve_pool(S8)))
    p = validate_pants(S8, [round_curve(S8, 0, k) for k in range(1, 6)])
    want = _scan_candidates(p, 2, pool, "pants", ())
    calls.clear()
    assert neighbor_candidates(p, 2, pool=pool) == want
    # The replaced curve's full row alone would cost len(pool) calls.
    assert 0 < len(calls) < len(pool) // 4


def test_distance_zero_and_one():
    p = validate_pants(S4, [round_curve(S4, 0, 1)])
    q = validate_pants(S4, [round_curve(S4, 1, 2)])
    assert distance_upper(p, p).value == 0
    r = distance_upper(p, q)
    assert r.value == 1 and r.exact and r.verify_path()


def test_distance_matches_farey():
    rng = random.Random(17)
    slopes = small_slopes(5)
    for _ in range(12):
        a, b = rng.choice(slopes), rng.choice(slopes)
        p = validate_pants(S4, [curve_of_slope(S4, *a)])
        q = validate_pants(S4, [curve_of_slope(S4, *b)])
        want = farey_distance_slopes(a, b)
        got = distance_upper(p, q, twist_budget=6, node_budget=200000)
        assert got.value == want
        assert got.verify_path()
        sym = distance_upper(q, p, twist_budget=6, node_budget=200000)
        assert sym.value == want


def test_dual_distance_not_longer():
    rng = random.Random(19)
    slopes = small_slopes(4)
    for _ in range(8):
        a, b = rng.choice(slopes), rng.choice(slopes)
        p = validate_pants(S4, [curve_of_slope(S4, *a)])
        q = validate_pants(S4, [curve_of_slope(S4, *b)])
        dp = distance_upper(p, q, kind="pants", twist_budget=5)
        dd = distance_upper(p, q, kind="dual", twist_budget=5)
        if dp.value is not None and dd.value is not None:
            assert dd.value <= dp.value


def test_pants_text_round_trip():
    p = validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 0, 2),
                            round_curve(S6, 0, 3)])
    text = format_pants(p)
    assert parse_pants(S6, text) == p
    assert format_pants(parse_pants(S6, text)) == text


def test_pants_edge_implies_dual_edge():
    rng = random.Random(29)
    slopes = small_slopes(3)
    for _ in range(15):
        a, b = rng.choice(slopes), rng.choice(slopes)
        p = validate_pants(S4, [curve_of_slope(S4, *a)])
        q = validate_pants(S4, [curve_of_slope(S4, *b)])
        if is_pants_edge(p, q):
            assert is_dual_edge(p, q)


def test_triangle_inequality():
    rng = random.Random(37)
    slopes = small_slopes(4)
    for _ in range(12):
        a, b, c = (rng.choice(slopes) for _ in range(3))
        dab = farey_distance_slopes(a, b)
        dbc = farey_distance_slopes(b, c)
        dac = farey_distance_slopes(a, c)
        assert dac <= dab + dbc


def test_edge_needs_equal_counts_and_a_disjoint_incoming_curve():
    S7 = PuncturedSphere(7)
    a, b, c, d = (round_curve(S7, 0, j) for j in (1, 2, 3, 4))
    new = round_curve(S7, 4, 5)
    p = validate_pants(S7, [a, b, c, d])
    assert is_pants_edge(p, PantsDecomposition(S7, [a, b, c, new]))
    # The same move with a shared curve listed twice is not an edge.
    assert not is_pants_edge(p, PantsDecomposition(S7, [a, a, b, c, new]))
    # Nor is one whose incoming curve meets a kept curve.
    crossing = round_curve(S7, 1, 3)
    assert geometric_intersection(crossing, b) == 2
    assert geometric_intersection(crossing, a) == 2
    assert not is_dual_edge(p, PantsDecomposition(S7, [a, crossing, c, d]))


def test_verify_path_validates_the_first_vertex():
    bad = PantsDecomposition(S6, [round_curve(S6, 0, 1), round_curve(S6, 1, 2),
                                  round_curve(S6, 0, 3)])
    assert not DistanceResult("pants", 0, [bad]).verify_path()
    good = validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 0, 2),
                               round_curve(S6, 0, 3)])
    assert DistanceResult("pants", 0, [good]).verify_path()
    assert not DistanceResult("pants", 0, []).verify_path()
