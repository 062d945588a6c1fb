"""The package namespace: what `import ktsurf` loads, and lazy names."""

import subprocess
import sys

LAZY_MODULES = ("ktsurf.farey", "ktsurf.invariants", "ktsurf.lemmas")

PROBE = f"""
import sys
import ktsurf
lazy = {LAZY_MODULES!r}
assert not [m for m in lazy if m in sys.modules], sorted(sys.modules)
for atom in ktsurf.trisection.ATOMS:
    ktsurf.standard(atom)
assert not [m for m in lazy if m in sys.modules], sorted(sys.modules)
for name in ktsurf._LAZY_HOME:
    value = getattr(ktsurf, name)
    home = sys.modules["ktsurf." + ktsurf._LAZY_HOME[name]]
    assert value is getattr(home, name), name
    assert name not in vars(ktsurf), name
    assert name in dir(ktsurf), name
from ktsurf import kt_bounds, LEMMA_IDS, farey_distance, invariants
assert kt_bounds is invariants.kt_bounds
print("ok")
"""


def test_import_defers_invariants_lemmas_and_farey():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_unknown_name_is_an_attribute_error():
    import ktsurf
    try:
        ktsurf.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("expected AttributeError")
