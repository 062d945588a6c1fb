"""The package namespace: what `import ktsurf` loads, and lazy names."""

import ast
import subprocess
import sys
from pathlib import Path

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


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        else:
            continue
        for name in names:
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {ln}: {name}" for name, ln in imported.items()
            if name not in used]


def test_modules_use_every_name_they_import():
    # The package namespace re-exports by design, so __init__ is exempt.
    import ktsurf
    package = Path(ktsurf.__file__).parent
    unused = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unused[path.name] = found
    assert not unused, unused
