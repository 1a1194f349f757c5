"""The repository's pytest configuration."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_after():
        pass
    """
)


def test_failing_property_test_leaves_the_session_running(tmp_path):
    """Under ``filterwarnings = error`` a failing ``@given`` test is reported
    as a failure (exit 1), not an internal error (exit 3), and the tests after
    it still run."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "1 failed, 1 passed" in report
