#!/usr/bin/env python3
"""Census of all distant sums of standard surfaces within a bridge budget.

Checks the additivity statement L = L* = 3 n(F) across every multiset of the
seven generators with at least two summands, total bridge number within the
budget, and at most the given number of torus summands.

Usage:  python3 scripts/census.py [max_bridge=12] [max_tori=3]
"""

import itertools
import sys
import time

from ktsurf.invariants import kt_bounds, verify_certificate
from ktsurf.trisection import ATOMS, spine_of_expression, standard


def expressions(max_bridge, max_tori):
    bridges = {a: standard(a).b for a in ATOMS}
    atoms = sorted(bridges)
    for size in range(2, max_bridge // 2 + 1):
        for combo in itertools.combinations_with_replacement(atoms, size):
            b = sum(bridges[a] for a in combo)
            tori = sum(a == "T" for a in combo)
            if b <= max_bridge and tori <= max_tori:
                yield " + ".join(combo)


def main():
    max_bridge = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    max_tori = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    t0 = time.time()
    count = 0
    bad = 0
    for expr in expressions(max_bridge, max_tori):
        spine = spine_of_expression(expr)
        cert = kt_bounds(spine)
        want = 3 * spine.meta.torus_count()
        good = (cert.exact and cert.l_upper == cert.lstar_upper == want
                and verify_certificate(cert).ok)
        count += 1
        if not good:
            bad += 1
            print(f"MISMATCH {expr}: L={cert.l_upper} L*={cert.lstar_upper} "
                  f"want {want} exact={cert.exact}")
    verdict = "all exact 3n(F)" if bad == 0 else f"{bad} MISMATCHES"
    print(f"census: {count} distant sums with b <= {max_bridge}, "
          f"n(F) <= {max_tori}: {verdict} ({time.time() - t0:.0f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
