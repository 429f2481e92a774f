"""Source-level rules for the library package.

Failures must use the documented error types of ``ratiocut.errors``: an
``assert`` disappears under ``python -O`` and a bare ``RuntimeError`` is not
part of the documented interface.

Every Laplacian spectrum comes from ``eigen``: no module other than
``eigen.py`` calls an eigensolver (``eigh``, ``eigvalsh``) directly; the
others ask ``eigen`` for the quantity (``lambda2``, ``fiedler``,
``eigenmap``, ``block_lambda2s``) they need, so every solve passes its
residual check. Inside ``eigen.py`` one checked solve makes the only
``eigh`` call. ``sym_eig``, a public solver door that has been deleted,
stays on the list, so no module can bring back a second route.

Every count, size, index and seed is checked by one integer rule: only
``graphs._is_int`` tests for a non-bool integer (``fileio.canonical_json``'s
type dispatch aside).

Every small threshold lives in ``Tolerances``: no module other than
``tolerances.py`` spells out a float literal with ``0 < |x| < 1e-3``.

Every module-level regular expression compiles on Python 3.10, the oldest
supported version: no possessive repeat (``*+``, ``++``, ``?+``, ``{m,n}+``)
and no atomic group (``(?>...)``), which ``re`` accepts only from 3.11.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

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


# sym_eig is deleted; it stays here so that a call to it fails the rule
SPECTRUM_CALLS = {"sym_eig", "eigh", "eigvalsh"}


def _spectrum_calls(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SPECTRUM_CALLS:
                found.append(f"{path.name}:{node.lineno}: {name} call")
    return found


def test_only_eigen_calls_sym_eig():
    # nor any other eigensolver (SPECTRUM_CALLS)
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "eigen.py"]
    assert sources
    calls = [c for path in sources for c in _spectrum_calls(path)]
    assert calls == []


def test_eigen_solves_by_one_checked_route():
    # inside eigen.py only _checked_eigh calls eigh, and nothing calls
    # sym_eig, the deleted door for matrices from outside the library
    assert [c.split(": ")[1] for c in _spectrum_calls(PACKAGE / "eigen.py")] == ["eigh call"]


def test_spectrum_rule_detects_direct_and_qualified_calls(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "from .eigen import sym_eig\n"
        "from . import eigen\n"
        "def f(l):\n"
        "    values, _ = sym_eig(l)\n"
        "    values, _ = np.linalg.eigh(l)\n"
        "    values = eigvalsh(l)\n"
        "    return eigen.sym_eig(l)\n"
    )
    assert _spectrum_calls(bad) == ["bad.py:6: sym_eig call", "bad.py:7: eigh call",
                                    "bad.py:8: eigvalsh call", "bad.py:9: sym_eig call"]


def _bool_tests(path: Path) -> list[str]:
    """Functions of ``path`` that call ``isinstance`` with ``bool`` or
    ``np.bool_`` among the types: each spells the non-bool integer test."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                        and len(node.args) == 2
                        and {getattr(t, "id", getattr(t, "attr", None)) for t in ast.walk(node.args[1])}
                        & {"bool", "bool_"}):
                    found.append(f"{path.name}:{fn.name}")
    return found


def test_non_bool_integer_test_is_spelled_once():
    tests = sorted({t for path in sorted(PACKAGE.glob("*.py")) for t in _bool_tests(path)})
    assert tests == ["fileio.py:canonical_json", "graphs.py:_is_int"]


def test_bool_rule_detects_both_spellings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "def f(x):\n"
        "    return isinstance(x, bool)\n"
        "def g(x):\n"
        "    return isinstance(x, (int, np.bool_))\n"
        "def h(x):\n"
        "    return isinstance(x, int)\n"
    )
    assert _bool_tests(bad) == ["bad.py:f", "bad.py:g"]


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


def _post_310_regex_ops(pattern: str) -> list[str]:
    """Opcodes of ``pattern`` that Python 3.10's ``re`` does not know."""
    parser = pytest.importorskip("re._parser")  # 3.11+; on 3.10 such a pattern fails to compile
    newer = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}

    def ops(node):
        if isinstance(node, parser.SubPattern):
            for op, arg in node:
                yield str(op)
                yield from ops(arg)
        elif isinstance(node, (tuple, list)):
            for item in node:
                yield from ops(item)

    return [op for op in ops(parser.parse(pattern)) if op in newer]


def test_module_regexes_compile_on_python_310():
    # __main__ is skipped: importing it runs the command line
    modules = [rc] + [importlib.import_module(f"ratiocut.{path.stem}")
                      for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("__")]
    patterns = [(f"{m.__name__}.{name}", value) for m in modules
                for name, value in vars(m).items() if isinstance(value, re.Pattern)]
    assert patterns  # the scan reaches the readers' patterns
    found = [f"{name}: {op}" for name, p in patterns for op in _post_310_regex_ops(p.pattern)]
    assert found == []


def test_regex_rule_detects_possessive_repeats_and_atomic_groups():
    assert _post_310_regex_ops(r"(?:[0-9]+ )*+x") == ["POSSESSIVE_REPEAT"]
    assert _post_310_regex_ops(r"a++|b?+|c{2,3}+") == ["POSSESSIVE_REPEAT"] * 3
    assert _post_310_regex_ops(r"(?>ab|a)c") == ["ATOMIC_GROUP"]
    assert _post_310_regex_ops(r"[+*]\++(?:0|[1-9][0-9]{0,17}) [+-]?") == []
