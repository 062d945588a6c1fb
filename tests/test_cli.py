"""Command-line interface: exit codes, formats, determinism."""

import argparse
import subprocess
import sys

import pytest

from ktsurf.cli import build_parser, main


def run_cli(args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_invariant_exact_exit_zero():
    code, out = run_cli(["invariant", "T"])
    assert code == 0
    assert "result: L<=3 L*<=3 lower=3 [exact]" in out


def test_invariant_sum():
    code, out = run_cli(["invariant", "P+ + K11", "--format", "structured"])
    assert code == 0
    assert "L-upper\t0" in out and "exact\ttrue" in out


def test_invariant_bounds_only_exit_two(tmp_path):
    # An opaque spine (no metadata) with a nonzero upper bound.
    from ktsurf.trisection import standard, format_spine, Spine
    s = Spine(*standard("T").tangles)
    f = tmp_path / "opaque.spine"
    f.write_text(format_spine(s))
    code, out = run_cli(["invariant", "--spine", str(f)])
    assert code == 2
    assert "[bounds-only]" in out


def test_invariant_parse_error_exit_one(capsys):
    code, _ = run_cli(["invariant", "Q + T"])
    assert code == 1


def test_distance_and_unknown():
    code, out = run_cli(["distance", "pants { e * rc(0..1) }",
                         "pants { e * rc(0..1) }", "--punctures", "4"])
    assert code == 0 and "distance 0" in out
    code, out = run_cli(["distance", "pants { e * rc(0..1) }",
                         "pants { e * rc(1..2) }", "--punctures", "4",
                         "--kind", "dual"])
    assert code == 0 and "distance 1 (dual)" in out


def test_verify_single_lemma():
    code, out = run_cli(["verify", "edp2", "--bridge-cap", "2"])
    assert code == 0
    assert "edp2:" in out


def test_render_deterministic(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code, _ = run_cli(["render", "T", "-o", str(out)])
        assert code == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"<svg")
    code, _ = run_cli(["render", "--curves", "e * rc(0..1)", "s1 * rc(0..2)",
                       "--punctures", "6", "-o", str(tmp_path / "c.svg")])
    assert code == 0


def test_render_invalid_no_file(tmp_path):
    target = tmp_path / "bad.svg"
    code, _ = run_cli(["render", "T + Q", "-o", str(target)])
    assert code == 1
    assert not target.exists()


def test_validate(tmp_path):
    code, out = run_cli(["validate", "T + T"])
    assert code == 0
    assert "common c-reducing curve" in out


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ktsurf.cli", "invariant", "U"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[exact]" in proc.stdout


def test_structured_output_reproducible():
    code1, out1 = run_cli(["invariant", "K20", "--format", "structured"])
    code2, out2 = run_cli(["invariant", "K20", "--format", "structured"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_subcommands_take_only_the_flags_they_read():
    shared = {"--twist-budget", "--node-budget", "--bridge-cap", "--format"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: shared & {o for a in p._actions for o in a.option_strings}
           for name, p in sub.choices.items()}
    assert got == {
        "invariant": {"--twist-budget", "--node-budget", "--format"},
        "verify": shared,
        "distance": {"--twist-budget", "--node-budget"},
        "render": set(),
        "validate": {"--twist-budget"},
    }
    assert sum(map(len, got.values())) == 10


@pytest.mark.parametrize("args,env", [
    (["invariant", "P+", "--twist-budget", "-1"], {}),
    (["invariant", "P+"], {"KT_NODE_BUDGET": "0"}),
    (["verify", "edp1", "--bridge-cap", "0"], {}),
    (["invariant", "P+"], {"KT_TWIST_BUDGET": "three"}),
    (["verify", "edp1"], {"KT_BRIDGE_CAP": "x"}),
])
def test_bad_budget_is_a_clean_error(args, env, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _ = run_cli(args)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_override_is_read_only_by_the_subcommands_taking_it(monkeypatch,
                                                            capsys):
    monkeypatch.setenv("KT_BRIDGE_CAP", "x")
    code, out = run_cli(["invariant", "P+"])
    assert code == 0 and "verification: ok" in out
    assert capsys.readouterr().err == ""


def test_distance_rejects_an_invalid_literal(capsys):
    code, _ = run_cli(["distance", "pants { e * rc(0..1); e * rc(1..2) }",
                       "pants { e * rc(0..1) }", "--punctures", "4"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
