"""Command-line front end.

Subcommands:

  invariant   compute both invariants of a surface expression or spine file
  verify      run the structural lemma suites
  distance    distance between two pants decompositions
  render      SVG picture of a spine or curves
  validate    structural checks of a spine file

Budgets come from flags or the environment (KT_TWIST_BUDGET, KT_NODE_BUDGET,
KT_BRIDGE_CAP); flags win.  Each subcommand takes only the budget and format
flags it reads, and reads only their environment overrides.  Exit codes: 0
for success/exact, 2 for bounds-only results, 1 for input errors or failing
suites.
"""

from __future__ import annotations

import argparse
import os
import sys

from .curves import CurveError, PuncturedSphere, parse_curve
from .pants import (DEFAULT_NODE_BUDGET, DEFAULT_TWIST_BUDGET, PantsError,
                    distance_upper, format_pants, parse_pants, validate_pants)
from .tangles import TangleError
from .trisection import (Spine, SpineError, c_reducing_witness, format_spine,
                         parse_expression, parse_spine, spine_of_expression,
                         validate_spine)
from .invariants import (InvariantError, format_certificate, kt_bounds,
                         verify_certificate)


# budget flag -> (environment override, default)
_BUDGET_FLAGS = {
    "--twist-budget": ("KT_TWIST_BUDGET", DEFAULT_TWIST_BUDGET),
    "--node-budget": ("KT_NODE_BUDGET", DEFAULT_NODE_BUDGET),
    "--bridge-cap": ("KT_BRIDGE_CAP", 4),
}


def _add_budget_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register those budget flags that the subcommand reads."""
    for flag in flags:
        p.add_argument(flag, type=int)


def _resolve_budgets(args) -> None:
    """Fill the budget flags the subcommand reads but was not given from
    their environment override or default, then range-check them."""
    for flag, (env, default) in _BUDGET_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest, 0) is None:
            setattr(args, dest, int(os.environ.get(env) or default))
    if (getattr(args, "twist_budget", 0) < 0
            or getattr(args, "node_budget", 1) <= 0
            or getattr(args, "bridge_cap", 1) <= 0):
        raise ValueError("budgets must be positive")


def _load_spine(args) -> Spine:
    if args.spine:
        with open(args.spine, encoding="utf-8") as fh:
            return parse_spine(fh.read())
    if args.expression == "-":
        return parse_spine(sys.stdin.read())
    return spine_of_expression(parse_expression(args.expression))


def cmd_invariant(args) -> int:
    spine = _load_spine(args)
    cert = kt_bounds(spine, args.twist_budget, args.node_budget)
    check = verify_certificate(cert)
    if args.format == "structured":
        meta = str(spine.meta) if spine.meta else "opaque"
        print(f"meta\t{meta}")
        print(f"bridge\t{spine.b}")
        print(f"components\t{spine.c[0]},{spine.c[1]},{spine.c[2]}")
        l_text = "?" if cert.l_upper is None else cert.l_upper
        ls_text = "?" if cert.lstar_upper is None else cert.lstar_upper
        print(f"L-upper\t{l_text}")
        print(f"Lstar-upper\t{ls_text}")
        print(f"lower\t{cert.lower}\t{cert.justification}")
        print(f"exact\t{str(cert.exact).lower()}")
        print(f"verified\t{str(check.ok).lower()}")
    else:
        print(format_certificate(cert), end="")
        print(f"verification: {'ok' if check.ok else 'FAILED'}")
    if not check.ok:
        for f in check.failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0 if cert.exact else 2


def cmd_verify(args) -> int:
    from .lemmas import LEMMA_IDS, verify_lemma

    ids = LEMMA_IDS if args.lemma == "all" else (args.lemma,)
    failing = 0
    total = 0
    for lemma in ids:
        reports = verify_lemma(lemma, args.bridge_cap, args.twist_budget,
                               args.node_budget)
        ok = sum(r.ok for r in reports)
        total += len(reports)
        failing += len(reports) - ok
        if args.format == "structured":
            print(f"lemma\t{lemma}\t{ok}\t{len(reports)}")
        else:
            print(f"{lemma}: {ok}/{len(reports)} instances pass")
        for r in reports:
            if not r.ok:
                print(r.summary())
    if args.format == "text":
        print(f"total: {total - failing}/{total} pass")
    return 0 if failing == 0 else 1


def cmd_distance(args) -> int:
    sphere = PuncturedSphere(args.punctures)
    p = validate_pants(sphere, parse_pants(sphere, args.first))
    q = validate_pants(sphere, parse_pants(sphere, args.second))
    res = distance_upper(p, q, kind=args.kind,
                         twist_budget=args.twist_budget,
                         node_budget=args.node_budget)
    if res.value is None:
        print(f"unknown (> {res.floor} within budget)")
        return 2
    print(f"distance {res.value} ({args.kind})")
    for vertex in res.path:
        print(f"  {format_pants(vertex)}")
    ok = res.verify_path()
    print(f"path verification: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_render(args) -> int:
    from .render import render_curves, render_spine

    if args.curves:
        sphere = PuncturedSphere(args.punctures)
        curves = [parse_curve(sphere, text) for text in args.curves]
        svg = render_curves(curves)
    else:
        svg = render_spine(_load_spine(args))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return 0


def cmd_validate(args) -> int:
    spine = _load_spine(args)
    rep = validate_spine(spine)
    print(rep.summary())
    for note in rep.failures:
        print(f"  {note}")
    witness = c_reducing_witness(spine, twist_budget=args.twist_budget)
    if witness is not None:
        print(f"common c-reducing curve: {witness}")
    else:
        print("no common c-reducing curve within budget")
    print(format_spine(spine), end="")
    return 0 if rep.ok else 1


def _lemma_choice(text: str) -> str:
    """Lemma id argument; the verifiers load only when one is asked for."""
    from .lemmas import LEMMA_IDS

    if text != "all" and text not in LEMMA_IDS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from "
            f"{', '.join(LEMMA_IDS + ('all',))})")
    return text


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ktsurf",
        description="Kirby-Thompson invariants of bridge-trisected surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="compute L and L* bounds")
    p.add_argument("expression", nargs="?", default="-",
                   help="surface expression, or - for a spine on stdin")
    p.add_argument("--spine", help="spine file to load instead")
    _add_budget_flags(p, "--twist-budget", "--node-budget")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("verify", help="run lemma suites")
    p.add_argument("lemma", type=_lemma_choice, help="a lemma id, or all")
    _add_budget_flags(p, "--twist-budget", "--node-budget", "--bridge-cap")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distance", help="pants/dual distance search")
    p.add_argument("first", help="pants literal")
    p.add_argument("second", help="pants literal")
    p.add_argument("--punctures", type=int, required=True)
    p.add_argument("--kind", choices=("pants", "dual"), default="pants")
    _add_budget_flags(p, "--twist-budget", "--node-budget")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("render", help="emit an SVG picture")
    p.add_argument("expression", nargs="?", default="-")
    p.add_argument("--spine")
    p.add_argument("--curves", nargs="*",
                   help="curve literals to draw instead of a spine")
    p.add_argument("--punctures", type=int, default=6,
                   help="sphere size for --curves")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("validate", help="check a spine file")
    p.add_argument("expression", nargs="?", default="-")
    p.add_argument("--spine")
    _add_budget_flags(p, "--twist-budget")
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _resolve_budgets(args)
        return args.func(args)
    except (CurveError, PantsError, TangleError, SpineError, InvariantError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
