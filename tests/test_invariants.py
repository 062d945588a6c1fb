"""Invariant machinery: certificates, composition, torus witnesses."""

import hashlib

import pytest

from ktsurf.curves import (apply_half_twist, enclosed_punctures,
                           format_curve, geometric_intersection)
from ktsurf.invariants import (InvariantError, find_torus_cut_reducers,
                               format_certificate, is_u_spine, kt_bounds,
                               kt_lower, kt_upper, parse_certificate,
                               verify_certificate)
from ktsurf.pants import format_pants, is_pants_edge
from ktsurf.tangles import is_cut_reducing
from ktsurf.trisection import (Spine, spine_of_expression, standard)


def test_standard_non_torus_values():
    for name in ("U", "P+", "P-", "K20", "K11", "K02"):
        cert = kt_bounds(standard(name))
        assert cert.l_upper == cert.lstar_upper == 0, name
        assert cert.exact
        assert verify_certificate(cert).ok


def test_torus_value_and_structure():
    cert = kt_bounds(standard("T"))
    assert cert.l_upper == cert.lstar_upper == 3
    assert cert.lower == 3 and cert.justification == "torus-count"
    assert cert.exact
    # Three cross paths of length one.
    assert sorted(r.value for r in cert.pants.cross.values()) == [1, 1, 1]
    assert verify_certificate(cert).ok


def test_u_spine_recognition_and_short_circuit():
    assert is_u_spine(standard("U"))
    assert not is_u_spine(standard("P+"))
    assert not is_u_spine(standard("T"))
    cert = kt_upper(standard("U"))
    assert cert.l_upper == 0 and cert.lstar_upper == 0
    assert "definition" in cert.pants.note


def test_kt_lower_tags():
    assert kt_lower(spine_of_expression("T + T + P+")) == (6, "torus-count")
    assert kt_lower(spine_of_expression("U + K11")) == (0, "trivial-zero")
    opaque = Spine(*standard("T").tangles)
    assert kt_lower(opaque) == (0, "trivial-zero")


def test_distant_sum_exactness():
    for expr, want in [("T + P+", 3), ("T + T", 6), ("K20 + K02", 0)]:
        cert = kt_bounds(spine_of_expression(expr))
        assert cert.exact and cert.l_upper == want, expr
        assert verify_certificate(cert).ok, expr


def test_opaque_spine_is_bounds_only_unless_zero():
    opaque = Spine(*standard("T").tangles)
    cert = kt_bounds(opaque)
    assert cert.lower == 0
    assert cert.l_upper == 3
    assert not cert.exact


def test_kind_note_round_trip():
    # An indented kind note starting with "composition" stays with its kind.
    cert = kt_bounds(standard("P+"))
    cert.pants.note = "composition of blocks"
    text = format_certificate(cert)
    again = parse_certificate(text)
    assert again.pants.note == "composition of blocks"
    assert again.notes == cert.notes
    assert format_certificate(again) == text


def test_verifier_rejects_lower_above_upper():
    text = format_certificate(kt_bounds(standard("T")))
    forged = text.replace("lower: 3 (torus-count)", "lower: 9 (torus-count)")
    assert forged != text
    rep = verify_certificate(parse_certificate(forged))
    assert not rep.ok
    assert rep.clauses["lower<=upper"] is False
    assert verify_certificate(parse_certificate(text)).clauses["lower<=upper"]


def test_verifier_checks_within_paths_against_their_ends():
    # Swap the pants within paths of unlinks 1 and 2: every step is still an
    # edge, but neither path joins the pair it is listed under.
    lines = format_certificate(kt_bounds(standard("T"))).splitlines()
    within = [k for k, ln in enumerate(lines) if "within-path:" in ln][:6]
    for a, b in zip(within[:3], within[3:]):
        lines[a], lines[b] = lines[b], lines[a]
    rep = verify_certificate(parse_certificate("\n".join(lines) + "\n"))
    assert rep.clauses["pants-within-path"] is False
    assert rep.clauses["dual-within-path"]


def test_bad_path_vertex_parses_then_fails_verification():
    # A torus certificate whose interior cross-path vertex swaps its
    # incoming curve for one that still meets the outgoing curve twice but
    # also meets a kept curve: the parser reads it, the verifier rejects
    # the path.
    cert = kt_bounds(spine_of_expression("T + T"))
    path = cert.pants.cross["12"].path
    assert len(path) == 3
    vertex = path[1]
    (old,) = [c for c in path[0].curves if c not in vertex.curves]
    kept = [c for c in vertex.curves if c in path[0].curves]
    bad = next(d for g in range(vertex.n - 1)
               for d in [apply_half_twist(old, g)]
               if d not in vertex.curves
               and geometric_intersection(d, old) == 2
               and any(geometric_intersection(d, k) for k in kept))
    forged = sorted(kept + [bad])
    lines = format_certificate(cert).splitlines()
    at = lines.index("  cross 12 length 2") + 2
    assert lines[at] == f"    cross-path: {format_pants(vertex)}"
    lines[at] = ("    cross-path: pants { "
                 + "; ".join(format_curve(c) for c in forged) + " }")
    parsed = parse_certificate("\n".join(lines) + "\n")
    start, middle = parsed.pants.cross["12"].path[:2]
    assert list(middle.curves) == forged
    assert not is_pants_edge(start, middle)
    rep = verify_certificate(parsed)
    assert rep.clauses["pants-cross-path"] is False
    assert rep.clauses["dual-cross-path"]


def test_connected_sum_upper_only():
    # Tori joined by a connected sum carry no certified lower bound.
    s = spine_of_expression("T # T")
    assert kt_lower(s) == (0, "trivial-zero")


def test_find_torus_cut_reducers():
    s = standard("T")
    gammas = find_torus_cut_reducers(s)
    assert set(gammas) == {(1, 0), (2, 0), (3, 0)}
    for (i, _), g in gammas.items():
        assert is_cut_reducing(g, s.unlink(i))
        assert len(enclosed_punctures(g)) == 3

    two = find_torus_cut_reducers(spine_of_expression("T + T"))
    assert len(two) == 6
    blocks = {l for (_, l) in two}
    assert blocks == {0, 1}
    for (i, l), g in two.items():
        block = set(range(6 * l, 6 * l + 6))
        assert len(enclosed_punctures(g) & block) == 3

    assert find_torus_cut_reducers(standard("P+")) == {}
    with pytest.raises(InvariantError, match="metadata-missing"):
        find_torus_cut_reducers(Spine(*standard("T").tangles))


def test_certificate_round_trip():
    for expr in ("P+", "T", "T + P+"):
        cert = kt_bounds(spine_of_expression(expr))
        text = format_certificate(cert)
        parsed = parse_certificate(text)
        assert parsed.lower == cert.lower
        assert parsed.justification == cert.justification
        assert parsed.l_upper == cert.l_upper
        assert parsed.lstar_upper == cert.lstar_upper
        assert parsed.spine == cert.spine
        for kind in ("pants", "dual"):
            a = getattr(parsed, kind)
            b = getattr(cert, kind)
            assert set(a.pairs) == set(b.pairs)
            for i in a.pairs:
                assert a.pairs[i].p_plus == b.pairs[i].p_plus
                assert a.pairs[i].p_minus == b.pairs[i].p_minus
                assert a.pairs[i].realized.path == b.pairs[i].realized.path
            for label in a.cross:
                assert a.cross[label].value == b.cross[label].value
                assert a.cross[label].path == b.cross[label].path
        assert format_certificate(parsed) == text
        # A parsed certificate re-verifies from scratch.
        assert verify_certificate(parsed).ok


def test_verification_catches_corruption():
    cert = kt_bounds(standard("T"))
    cert.pants.total = 2  # forge a better bound
    rep = verify_certificate(cert)
    assert not rep.ok


def test_dual_not_above_pants():
    for expr in ("P+", "K20", "T", "T + P+"):
        cert = kt_bounds(spine_of_expression(expr))
        assert cert.lstar_upper <= cert.l_upper


# sha256 of format_certificate(kt_bounds(...)) for the seven atoms, one
# distant sum per searched-atom stratum, and a connected sum beyond the
# search ceiling.  Certificates are deterministic, so these pin the search,
# the composition and the printer byte for byte.
GOLDEN_CERTIFICATES = {
    "U": "867526c1bdc09a8bac1541d7e7df8f51c250eec7e48a0848ece9dbba8995d5d8",
    "P+": "802b60c219653b613d5d708a03fcd683584489e70e55090e8753043505bf2a3c",
    "P-": "a0bc1e06c1c05dbddd9bea8113e562d4b46026b25004ffcb4d8593536b9dead3",
    "K20": "46ccb980fc248b00a4d74ea71f8b508e5973096777604fc7e639fc7b15d496ec",
    "K11": "81e2b63ed8e9775a6d673911ef0ae642dca35bfe4095ba24be014ac74011f02e",
    "K02": "211a9400e11b2907558fe63faf6674ae886f1fc8e8a4a8a05a4bd40880de25dd",
    "T": "2600856c6afaf4b30661d534c00638455c199355ef948091bf28552c8dcce03b",
    "P+ + P+ + P- + T":
        "11883a8bf3dd14a5d7b0d6dbc6944ea6f2f80504ee0fd7e3b356ac5398a8472b",
    "K11 + T + U":
        "6516273140cce1011be3381f4a88ec530b8952fa097debbf5b79d3378b8acd5b",
    "K02 + K20":
        "983e0e4ae921ccaa09e789e9d4f7f4768b42b8cb859115b2673e80c41705ec7a",
    "P+ + P+ + P+ + P-":
        "cbe2ff08fe8bb6b6c4f2b081571a8e59a203875df1b55988972011b1b35d6d23",
    "T # T": "9cbcfb9de4fb4d7976c767f97d3263c45e9d1d7295eb1bcae3c1631f02e4085b",
}


@pytest.mark.parametrize("expr", sorted(GOLDEN_CERTIFICATES))
def test_certificate_bytes_are_golden(expr):
    text = format_certificate(kt_bounds(spine_of_expression(expr)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_CERTIFICATES[expr]


@pytest.mark.parametrize("keep", [1, 2, 3, 5, 8, 9])
def test_truncated_certificate_is_an_invariant_error(keep):
    text = format_certificate(kt_bounds(standard("P+")))
    head = "\n".join(text.splitlines()[:keep]) + "\n"
    with pytest.raises(InvariantError):
        parse_certificate(head)


@pytest.mark.parametrize("header", ["unlink", "cross", "kind"])
def test_line_outside_its_block_is_an_invariant_error(header):
    text = format_certificate(kt_bounds(standard("P+")))
    kept = [ln for ln in text.splitlines()
            if not ln.strip().startswith(header + " ")]
    with pytest.raises(InvariantError, match="misplaced"):
        parse_certificate("\n".join(kept) + "\n")


@pytest.mark.parametrize("header", ["unlink 2 within 1", "cross 23 length 0"])
def test_missing_block_is_a_failed_clause(header):
    # The block's other lines fold into the block before it, so the text
    # parses; the first kind then lacks the block.
    lines = format_certificate(kt_bounds(standard("P+"))).splitlines()
    lines.remove("  " + header)
    rep = verify_certificate(parse_certificate("\n".join(lines) + "\n"))
    block = " ".join(header.split()[:2])
    assert not rep.ok
    assert rep.failures == [f"pants-blocks: missing {block}"]
