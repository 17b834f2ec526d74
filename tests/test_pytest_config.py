"""The repository's pytest configuration, exercised on a throwaway test file."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_every_integer_is_negative(n):
    assert n < 0
"""


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    # When a property fails, hypothesis's pytest plugin may import modules that
    # warn on import; under filterwarnings = ["error"] such a warning used to
    # end the whole pytest run with an INTERNALERROR instead of a failure report.
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_failing_property.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout[-2000:]
    assert done.returncode == 1, done.stdout[-2000:]
    assert "1 failed" in done.stdout
