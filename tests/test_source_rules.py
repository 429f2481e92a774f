"""Source-level rules for the library package.

Failures must use the documented error types of ``ratiocut.errors``: an
``assert`` disappears under ``python -O`` and a bare ``RuntimeError`` is not
part of the documented interface.

Every Laplacian spectrum comes from ``eigen``: no module other than
``eigen.py`` calls ``sym_eig``; the others ask ``eigen`` for the quantity
(``lambda2``, ``fiedler``, ``eigenmap``) they need.

Every small threshold lives in ``Tolerances``: no module other than
``tolerances.py`` spells out a float literal with ``0 < |x| < 1e-3``.
"""
import ast
from pathlib import Path

import ratiocut as rc

PACKAGE = Path(rc.__file__).parent


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                found.append(f"{path.name}:{node.lineno}: raise RuntimeError")
    return found


def test_no_assert_or_bare_runtime_error():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    violations = [v for path in sources for v in _violations(path)]
    assert violations == []


def test_rule_detects_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x):\n    assert x\n    raise RuntimeError('no')\n")
    assert _violations(bad) == ["bad.py:2: assert", "bad.py:3: raise RuntimeError"]


def _sym_eig_calls(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "sym_eig":
                found.append(f"{path.name}:{node.lineno}: sym_eig call")
    return found


def test_only_eigen_calls_sym_eig():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "eigen.py"]
    assert sources
    calls = [c for path in sources for c in _sym_eig_calls(path)]
    assert calls == []


def test_spectrum_rule_detects_direct_and_qualified_calls(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .eigen import sym_eig\n"
        "from . import eigen\n"
        "def f(l):\n"
        "    values, _ = sym_eig(l)\n"
        "    return eigen.sym_eig(l)\n"
    )
    assert _sym_eig_calls(bad) == ["bad.py:4: sym_eig call", "bad.py:5: sym_eig call"]


def _small_float_literals(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-3:
            found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    return found


def test_small_float_literals_live_in_tolerances():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"]
    assert sources
    literals = [lit for path in sources for lit in _small_float_literals(path)]
    assert literals == []


def test_tolerance_rule_detects_small_literals(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(x):\n"
        "    if x < 1e-12:\n"
        "        return -2.5e-4\n"
        "    return x * 0.001 + 0.0 + 5 + 1e-3j\n"
    )
    assert _small_float_literals(bad) == ["bad.py:2: 1e-12", "bad.py:3: 0.00025"]
