"""Core engine checks: normal forms, twists, intersection counts."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktsurf.diagram import Diagram, DiagramError, round_diagram


def apply_letters(d, letters):
    return d.apply_word(letters)


def test_round_basic():
    d = round_diagram(6, 0, 2)
    assert len(d) == 2
    assert d.enclosed_punctures() == {0, 1, 2}
    assert d == round_diagram(6, 0, 2)


def test_round_complement_is_same_curve():
    # On the sphere the block {2,3} of 4 punctures is enclosed by the same
    # curve as the block {0,1}.
    assert round_diagram(4, 2, 3) == round_diagram(4, 0, 1)
    assert round_diagram(4, 2, 3).enclosed_punctures() == {0, 1}
    assert round_diagram(6, 2, 5) == round_diagram(6, 0, 1)


def test_enclosed_middle_block():
    assert round_diagram(6, 1, 3).enclosed_punctures() == {1, 2, 3}


def test_twist_fixes_enclosed_round():
    d = round_diagram(6, 0, 1)
    assert d.half_twist(0, +1) == d
    assert d.half_twist(0, -1) == d
    d2 = round_diagram(6, 1, 2)
    assert d2.half_twist(1, +1) == d2


def test_twist_swaps_labels():
    d = round_diagram(4, 0, 1)
    for sign in (+1, -1):
        e = d.half_twist(1, sign)
        assert e.enclosed_punctures() == {0, 2}
        assert e != d


def test_twist_invertible():
    rng = random.Random(7)
    for n in (4, 5, 6, 8):
        for _ in range(25):
            d = _random_curve(rng, n, depth=4)
            i = rng.randrange(n - 1)
            assert d.half_twist(i, +1).half_twist(i, -1) == d
            assert d.half_twist(i, -1).half_twist(i, +1) == d


def test_braid_relations():
    rng = random.Random(11)
    for n in (4, 6):
        for _ in range(15):
            d = _random_curve(rng, n, depth=3)
            for i in range(n - 2):
                lhs = d.half_twist(i, 1).half_twist(i + 1, 1).half_twist(i, 1)
                rhs = d.half_twist(i + 1, 1).half_twist(i, 1).half_twist(i + 1, 1)
                assert lhs == rhs
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    assert (d.half_twist(i, 1).half_twist(j, 1)
                            == d.half_twist(j, 1).half_twist(i, 1))


def test_full_twist_trivial_on_sphere():
    # The Dehn twist about a curve enclosing all punctures but one bounds a
    # once-punctured disk, so it acts trivially.
    rng = random.Random(3)
    n = 4
    delta = []
    for a in range(n - 1):
        for b in range(n - 2, a - 1, -1):
            delta.append((b, 1))
    word = delta + delta  # full twist
    for _ in range(10):
        d = _random_curve(rng, n, depth=3)
        assert apply_letters(d, word) == d


def test_intersect_round_pairs():
    # Disjoint and nested round curves: zero.
    assert round_diagram(6, 0, 1).intersect_round(3, 4) == 0
    assert round_diagram(6, 0, 1).intersect_round(0, 2) == 0
    assert round_diagram(6, 0, 2).intersect_round(0, 1) == 0
    # Overlapping blocks: two.
    assert round_diagram(4, 1, 2).intersect_round(0, 1) == 2
    assert round_diagram(6, 1, 3).intersect_round(0, 2) == 2
    # Self: zero.
    for (i, j) in [(0, 1), (1, 2), (0, 2)]:
        assert round_diagram(6, i, j).intersect_round(i, j) == 0
    # Complement block is the same curve.
    assert round_diagram(6, 1, 2).intersect_round(3, 0) == 0


def test_twisted_curve_meets_round():
    d = round_diagram(4, 0, 1).half_twist(1, +1)
    assert d.intersect_round(0, 1) == 2
    assert d.intersect_round(1, 2) == 2


def test_mirror_involution():
    rng = random.Random(5)
    for _ in range(20):
        d = _random_curve(rng, 6, depth=4)
        assert d.mirror().mirror() == d


def test_embedded_check_rejects_crossing_face_chords():
    # Upper chords 0->1 and 2->3 join S_0 to S_2 and S_1 to S_3: interleaved.
    with pytest.raises(DiagramError, match="cross"):
        Diagram(6, [0, 2, 1, 3], [0, 0, 0, 0], 0, _check=True)
    # The same data are accepted without the check.
    assert len(Diagram(6, [0, 2, 1, 3], [0, 0, 0, 0], 0)) == 4


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_form_ignores_rotation_and_reflection(data):
    n = data.draw(st.sampled_from([4, 5, 6, 8]))
    d = _curve_from_draw(data, n)
    word, ranks, m = list(d.word), list(d.ranks), len(d)
    r = data.draw(st.integers(0, max(m - 1, 0)))
    rotated = Diagram(n, word[r:] + word[:r], ranks[r:] + ranks[:r],
                      d.side0 ^ (r & 1))
    assert rotated == d and rotated.key == d.key
    if m:
        # Read backwards, the arc after crossing 0 is the one before it.
        reflected = Diagram(n, word[:1] + word[:0:-1], ranks[:1] + ranks[:0:-1],
                            d.side0 ^ 1)
        assert reflected == d and reflected.key == d.key


def test_embedded_check_passes_for_generated():
    rng = random.Random(13)
    for n in (4, 6, 8):
        for _ in range(20):
            d = _random_curve(rng, n, depth=5)
            d.check_embedded()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enclosed_count_in_range(data):
    n = data.draw(st.sampled_from([4, 6, 8]))
    d = _curve_from_draw(data, n)
    k = len(d.enclosed_punctures())
    assert 2 <= k <= n - 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_twist_permutes_enclosed(data):
    n = data.draw(st.sampled_from([4, 6]))
    d = _curve_from_draw(data, n)
    i = data.draw(st.integers(0, n - 2))
    sign = data.draw(st.sampled_from([1, -1]))
    before = d.enclosed_punctures()
    swapped = {_swap(p, i, i + 1) for p in before}
    after = d.half_twist(i, sign).enclosed_punctures()
    # The image curve separates the swapped set from its complement; the
    # reported side is whichever misses puncture n-1.
    assert after in (swapped, frozenset(range(n)) - swapped)


def _swap(p, a, b):
    if p == a:
        return b
    if p == b:
        return a
    return p


def _random_curve(rng, n, depth):
    i = rng.randrange(n - 1)
    j = rng.randrange(i + 1, min(n - 1, i + n - 3) + 1)
    if j - i + 1 > n - 2:
        j = i + 1
    d = round_diagram(n, i, j)
    for _ in range(depth):
        d = d.half_twist(rng.randrange(n - 1), rng.choice((1, -1)))
    return d


def _curve_from_draw(data, n):
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, min(n - 2 + i - 1, n - 1)))
    if j - i + 1 > n - 2:
        j = i + 1
    d = round_diagram(n, i, j)
    depth = data.draw(st.integers(0, 5))
    for _ in range(depth):
        gen = data.draw(st.integers(0, n - 2))
        sign = data.draw(st.sampled_from([1, -1]))
        d = d.half_twist(gen, sign)
    return d
