"""Standard spines, sums, witness search, expression grammar, file format."""

import itertools

import pytest

from ktsurf.curves import enclosed_punctures, round_curve
from ktsurf.tangles import is_c_reducing, is_cut_reducing, is_reducing
from ktsurf.trisection import (ATOMS, SpineError, c_reducing_witness,
                               connected_sum, distant_sum, format_spine,
                               parse_expression, parse_spine, spine_of_expression,
                               standard, validate_spine)


def test_standard_parameters():
    expected_b = {"U": 2, "P+": 2, "P-": 2, "K20": 3, "K11": 3, "K02": 3, "T": 3}
    for name in ATOMS:
        s = standard(name)
        assert s.b == expected_b[name], name
        assert s.c == (1, 1, 1), name
        assert validate_spine(s).ok


def test_standard_spines_distinct():
    spines = [standard(name) for name in ATOMS]
    assert len({hash(s) for s in spines}) == len(ATOMS)


def test_u_matchings_match_reference():
    s = standard("U")
    assert s.t12.pairs == ((0, 1), (2, 3))
    assert s.t23.pairs == ((0, 3), (1, 2))
    assert s.t31.pairs == ((0, 2), (1, 3))


def test_distant_sum_arithmetic():
    t = standard("T")
    s = distant_sum(t, t)
    assert s.b == 2 * t.b
    assert s.c == (2, 2, 2)
    assert str(s.meta) == "T + T"
    # Associativity up to relabelling: canonical flat metadata and tangles.
    a = distant_sum(distant_sum(standard("U"), standard("P+")), standard("T"))
    b = distant_sum(standard("U"), distant_sum(standard("P+"), standard("T")))
    assert a == b and str(a.meta) == str(b.meta) == "U + P+ + T"


def test_distant_sum_separating_curve_reduces():
    s = distant_sum(standard("P+"), standard("T"))
    sep = round_curve(s.sphere, 0, 3)
    for i in (1, 2, 3):
        assert is_reducing(sep, s.unlink(i))


def test_connected_sum_arithmetic():
    s = connected_sum(standard("P+"), standard("P-"))
    assert s.b == 3
    assert s.c == (1, 1, 1)
    assert s == standard("K11")
    u = connected_sum(standard("K20"), standard("U"))
    assert u.b == standard("K20").b + 2 - 1
    assert u.c == (1, 1, 1)


def test_witness_on_distant_sums():
    for expr in ["U + U", "P+ + T", "T + T"]:
        s = spine_of_expression(expr)
        w = c_reducing_witness(s, twist_budget=0)
        assert w is not None
        assert all(is_c_reducing(w, s.unlink(i)) for i in (1, 2, 3))


def test_witness_absent_on_torus_and_planes():
    for name in ("T", "P+", "P-", "U"):
        assert c_reducing_witness(standard(name), twist_budget=2) is None


def test_witness_on_klein_bottles():
    # Klein bottles are connected sums, hence reducible: a common c-reducing
    # curve exists (the glue-point curve enclosing the first three punctures).
    for name in ("K20", "K11", "K02"):
        s = standard(name)
        w = c_reducing_witness(s, twist_budget=1)
        assert w is not None
        assert all(is_cut_reducing(w, s.unlink(i)) for i in (1, 2, 3))


def test_torus_unlinks_have_three_puncture_cut_reducers():
    s = standard("T")
    from ktsurf.pants import curve_pool
    for i in (1, 2, 3):
        u = s.unlink(i)
        found = [c for c in curve_pool(s.sphere, 2)
                 if len(enclosed_punctures(c)) == 3 and is_cut_reducing(c, u)]
        assert found, f"no 3-puncture cut-reducing curve for unlink {i}"


def test_expression_grammar():
    e = parse_expression("T + P+ # P- + U")
    assert str(e) == "T + P+ # P- + U"
    assert e.op == "+" and len(e.parts) == 3
    assert e.torus_count() == 1
    assert parse_expression("(T + U) # P+").op == "#"
    with pytest.raises(SpineError):
        parse_expression("T + + U")
    with pytest.raises(SpineError):
        parse_expression("Q")


def test_torus_count_ignores_connected_tori():
    assert parse_expression("T + T + K11").torus_count() == 2
    assert parse_expression("T # T").torus_count() == 0
    assert parse_expression("T # T + T").torus_count() == 1


def test_spine_file_round_trip():
    for expr in ["T", "P+ + K11", "T # P+"]:
        s = spine_of_expression(expr)
        text = format_spine(s)
        t = parse_spine(text)
        assert t == s
        assert format_spine(t).splitlines()[:4] == text.splitlines()[:4]


def test_validate_spine_reports():
    s = standard("T")
    rep = validate_spine(s)
    assert rep.ok
    from ktsurf.curves import ArcSystem, PuncturedSphere
    from ktsurf.tangles import ShadowTangle
    from ktsurf.trisection import Spine
    with pytest.raises(SpineError):
        Spine(s.t12, s.t23,
              ShadowTangle(ArcSystem(PuncturedSphere(4), [(0, 1), (2, 3)])))


def test_identical_tangles_give_component_count_b():
    from ktsurf.curves import ArcSystem, PuncturedSphere
    from ktsurf.tangles import ShadowTangle
    from ktsurf.trisection import Spine
    sph = PuncturedSphere(4)
    t = ShadowTangle(ArcSystem(sph, [(0, 1), (2, 3)]))
    s = Spine(t, t, t)
    assert validate_spine(s).ok
    assert s.c == (2, 2, 2)


def _census(max_bridge=12, max_tori=3):
    """Distant sums of at least two atoms with b <= 12 and <= 3 tori."""
    b = {a: standard(a).b for a in ATOMS}
    for size in range(2, max_bridge // 2 + 1):
        for combo in itertools.combinations_with_replacement(sorted(ATOMS),
                                                             size):
            if (sum(b[a] for a in combo) <= max_bridge
                    and combo.count("T") <= max_tori):
                yield " + ".join(combo)


def test_blocks_tile_the_census_sums():
    exprs = list(_census())
    assert len(exprs) == 530
    for text in exprs + ["T", "K20 # T", "T # T + P+ + K11"]:
        e = parse_expression(text)
        spine = spine_of_expression(e)
        blocks = e.blocks()
        assert tuple(part for part, _ in blocks) == e.distant_parts(), text
        assert [k for _, r in blocks for k in r] == list(range(spine.n)), text
        for part, r in blocks:
            assert len(r) == 2 * spine_of_expression(part).b, text


def test_bridge_reads_the_standard_spines():
    for text in list(ATOMS) + ["K20 + T", "T # T", "P+ # P- + T # K02"]:
        e = parse_expression(text)
        assert e.bridge() == spine_of_expression(e).b, text
