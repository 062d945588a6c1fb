"""Tangle classification, efficient decompositions, defining pairs."""

import random

import pytest

from ktsurf.curves import (ArcSystem, PuncturedSphere, apply_half_twist,
                           enclosed_punctures, parse_word, round_curve)
from ktsurf.pants import interior_pool, validate_pants
from ktsurf.tangles import (BridgeSplitUnlink, ShadowTangle, TangleError,
                            check_edp_structure, check_parity,
                            component_count, efficient_defining_pairs,
                            enumerate_efficient, format_unlink, is_c_reducing,
                            is_compressing, is_cut, is_cut_reducing,
                            is_efficient, is_reducing, pair_distance,
                            parse_unlink)
from ktsurf.trisection import spine_of_expression, standard

S4 = PuncturedSphere(4)
S6 = PuncturedSphere(6)
S8 = PuncturedSphere(8)


def tangle(sphere, pairs, word=""):
    return ShadowTangle(ArcSystem(sphere, pairs, parse_word(word) if word else ()))


def test_component_count():
    t_a = tangle(S4, [(0, 1), (2, 3)])
    t_b = tangle(S4, [(1, 2), (3, 0)])
    assert component_count(t_a, t_b) == 1
    assert component_count(t_a, t_a) == 2
    t1 = tangle(S6, [(0, 1), (2, 3), (4, 5)])
    t2 = tangle(S6, [(1, 2), (3, 4), (5, 0)])
    assert component_count(t1, t2) == 1
    assert component_count(t1, t1) == 3


def test_compressing_and_cut():
    t = tangle(S6, [(0, 1), (2, 3), (4, 5)])
    assert is_compressing(round_curve(S6, 0, 1), t)
    assert not is_compressing(round_curve(S6, 0, 2), t)
    assert is_cut(round_curve(S6, 0, 2), t)
    assert is_compressing(round_curve(S6, 0, 3), t)
    assert not is_cut(round_curve(S6, 0, 1), t)


def test_parity_of_classification():
    # Compressing curves enclose evenly many punctures, cut curves oddly many.
    rng = random.Random(31)
    for n, pairs in [(4, [(0, 1), (2, 3)]), (6, [(0, 1), (2, 3), (4, 5)]),
                     (8, [(0, 1), (2, 3), (4, 5), (6, 7)])]:
        sph = PuncturedSphere(n)
        t = tangle(sph, pairs)
        for _ in range(40):
            c = round_curve(sph, 0, 1)
            for _ in range(rng.randrange(6)):
                c = apply_half_twist(c, rng.randrange(n - 1), rng.choice((1, -1)))
            k = len(enclosed_punctures(c))
            if is_compressing(c, t):
                assert k % 2 == 0
            if is_cut(c, t):
                assert k % 2 == 1


def test_reducing_classification():
    # Distant sum of two 2-bridge unknots: the separating curve reduces.
    up = tangle(S8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    down = tangle(S8, [(1, 2), (3, 0), (5, 6), (7, 4)])
    u = BridgeSplitUnlink(up, down)
    assert u.b == 4 and u.c == 2
    sep = round_curve(S8, 0, 3)
    assert is_reducing(sep, u)
    assert is_c_reducing(sep, u)
    # 3-bridge unknot: small round curves cut both sides.
    u3 = BridgeSplitUnlink(tangle(S6, [(0, 1), (2, 3), (4, 5)]),
                           tangle(S6, [(1, 2), (3, 4), (5, 0)]))
    assert u3.c == 1
    assert is_cut_reducing(round_curve(S6, 0, 2), u3)
    assert not is_reducing(round_curve(S6, 0, 2), u3)
    # Compressing above, cut below: neither reducing nor cut-reducing.
    u2 = BridgeSplitUnlink(tangle(S4, [(0, 1), (2, 3)]),
                           tangle(S4, [(1, 2), (3, 0)]))
    c = round_curve(S4, 0, 1)
    assert not is_reducing(c, u2) and not is_cut_reducing(c, u2)


def test_is_efficient():
    t = tangle(S6, [(0, 1), (2, 3), (4, 5)])
    nested = validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 0, 2),
                                 round_curve(S6, 0, 3)])
    assert is_efficient(nested, t)
    p4 = validate_pants(S4, [round_curve(S4, 0, 1)])
    assert is_efficient(p4, tangle(S4, [(0, 1), (2, 3)]))
    bad = validate_pants(S6, [round_curve(S6, 1, 2), round_curve(S6, 1, 3),
                              round_curve(S6, 1, 4)])
    assert not is_efficient(bad, t)  # rc(1..2) meets the shadows twice


def test_enumerate_efficient_b2():
    # Two disjoint shadow arcs leave an annulus: exactly one efficient curve.
    t = tangle(S4, [(0, 1), (2, 3)])
    found = enumerate_efficient(t, twist_budget=2)
    assert len(found) == 1
    assert found[0] == validate_pants(S4, [round_curve(S4, 0, 1)])
    # Monotone in the budget, nonempty at budget zero.
    assert len(enumerate_efficient(t, twist_budget=0)) == 1
    t6 = tangle(S6, [(0, 1), (2, 3), (4, 5)])
    e0 = set(enumerate_efficient(t6, twist_budget=0))
    e1 = set(enumerate_efficient(t6, twist_budget=1))
    assert e0 and e0 <= e1


def test_efficient_defining_pair_two_bridge_unknot():
    u = BridgeSplitUnlink(tangle(S4, [(0, 1), (2, 3)]),
                          tangle(S4, [(1, 2), (3, 0)]))
    assert u.b == 2 and u.c == 1
    pairs = efficient_defining_pairs(u, kind="pants", twist_budget=2)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.realized_distance == 1 == u.b - u.c
    assert pair.exact
    assert pair.p_plus == validate_pants(S4, [round_curve(S4, 0, 1)])
    assert pair.p_minus == validate_pants(S4, [round_curve(S4, 1, 2)])
    rep = check_edp_structure(pair, u)
    assert rep.ok, rep.failures
    assert check_parity(pair).ok
    # Dual kind gives the same minimal pair with the same distance here.
    dual = efficient_defining_pairs(u, kind="dual", twist_budget=2)
    assert dual[0].realized_distance == u.b - u.c


def test_efficient_defining_pair_two_component_unlink():
    u = BridgeSplitUnlink(tangle(S4, [(0, 1), (2, 3)]),
                          tangle(S4, [(0, 1), (2, 3)]))
    assert u.c == 2
    pairs = efficient_defining_pairs(u, kind="pants", twist_budget=1)
    assert pairs[0].realized_distance == 0
    assert pairs[0].p_plus == pairs[0].p_minus
    rep = check_edp_structure(pairs[0], u)
    assert rep.ok, rep.failures


def _sorted_triples_pairs(u, kind, twist_budget, pool=None):
    """Reference: score every pair with shared_with, sort all the triples,
    then scan them in order."""
    ups = enumerate_efficient(u.upper, twist_budget, pool)
    downs = enumerate_efficient(u.lower, twist_budget, pool)
    scored = [((u.n - 3) - len(p.shared_with(q)), p, q)
              for p in ups for q in downs]
    scored.sort(key=lambda t: (t[0], t[1].key, t[2].key))
    best, found = None, []
    for lower, p, q in scored:
        if best is not None and lower > best:
            break
        r = pair_distance(p, q, kind, twist_budget, 10 ** 6, pool)
        if r.value is None:
            continue
        if best is None or r.value < best:
            best, found = r.value, [(p, q, r.value)]
        elif r.value == best:
            found.append((p, q, r.value))
    return found


@pytest.mark.parametrize("name,budget,interior", [
    ("P+", 2, False), ("T", 2, False), ("K11", 2, False), ("T", 3, True),
    ("P+ + P-", 2, False)])
def test_defining_pairs_match_sorted_reference(name, budget, interior):
    spine = spine_of_expression(name)
    pool = interior_pool(spine.sphere, budget) if interior else None
    for i in (1, 2, 3):
        u = spine.unlink(i)
        for kind in ("pants", "dual"):
            got = efficient_defining_pairs(u, kind, budget, pool=pool)
            want = _sorted_triples_pairs(u, kind, budget, pool)
            assert got
            assert [(e.p_plus, e.p_minus, e.realized_distance) for e in got] \
                == want


def test_defining_pairs_result_is_the_callers_own():
    u = standard("T").unlink(2)
    first = efficient_defining_pairs(u, "pants", 2)
    snapshot = list(first)
    first.reverse()
    first.append(first[0])
    first.sort(key=lambda e: e.p_minus.key)
    again = efficient_defining_pairs(u, "pants", 2)
    assert again == snapshot and again is not first


def test_edp_structure_negative_control():
    u = BridgeSplitUnlink(tangle(S4, [(0, 1), (2, 3)]),
                          tangle(S4, [(1, 2), (3, 0)]))
    pair = efficient_defining_pairs(u, kind="pants", twist_budget=2)[0]
    # Corrupt the pair: pretend both sides are the same decomposition, so the
    # cardinalities clause must fail (psi too big, g empty).
    from ktsurf.tangles import EfficientPair
    from ktsurf.pants import distance_upper
    broken = EfficientPair(pair.p_plus, pair.p_plus, "pants",
                           distance_upper(pair.p_plus, pair.p_plus))
    rep = check_edp_structure(broken, u)
    assert not rep.ok


def test_parity_negative_control():
    # A pair whose unshared curve encloses an odd set must fail the parity
    # check; build one artificially on the 3-bridge unknot sphere.
    from ktsurf.tangles import EfficientPair
    from ktsurf.pants import distance_upper
    p = validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 0, 2),
                            round_curve(S6, 0, 3)])
    q = validate_pants(S6, [round_curve(S6, 0, 1), round_curve(S6, 2, 3),
                            round_curve(S6, 0, 3)])
    fake = EfficientPair(p, q, "pants", distance_upper(p, q, twist_budget=1))
    # The unshared curve rc(0..2) encloses three punctures.
    assert not check_parity(fake).ok


def test_unlink_text_round_trip():
    u = BridgeSplitUnlink(tangle(S6, [(0, 1), (2, 3), (4, 5)]),
                          tangle(S6, [(1, 2), (3, 4), (5, 0)]))
    text = format_unlink(u)
    v = parse_unlink(text)
    assert v == u
    assert format_unlink(v) == text


def test_tangle_validation():
    with pytest.raises(TangleError):
        ShadowTangle(ArcSystem(S6, [(0, 1), (2, 3)]))  # not perfect


def test_component_count_properties():
    import itertools
    rng = random.Random(41)
    sph = S6
    matchings = [[(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 0)],
                 [(0, 5), (1, 4), (2, 3)], [(0, 3), (1, 2), (4, 5)]]
    tangles = [tangle(sph, m) for m in matchings]
    for t1, t2 in itertools.product(tangles, repeat=2):
        c = component_count(t1, t2)
        assert 1 <= c <= 3
        assert c == component_count(t2, t1)
        if set(t1.pairs) == set(t2.pairs):
            assert c == 3
        else:
            assert c < 3
