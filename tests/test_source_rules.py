"""Source-level rules for the library package.

Failures must use the documented error types of ``ratiocut.errors``: an
``assert`` disappears under ``python -O`` and a bare ``RuntimeError`` is not
part of the documented interface.
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
