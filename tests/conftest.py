import pytest

import ratiocut as rc


@pytest.fixture(scope="session")
def unbalanced():
    """The 603-vertex three-cluster instance (sizes 3, 300, 300)."""
    return rc.gen_unbalanced_example()


@pytest.fixture()
def report(capsys):
    """Print a pass/fail verdict that survives pytest's output capture."""

    def _report(name: str, ok: bool, detail: str = ""):
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report
