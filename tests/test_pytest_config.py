"""The repository's pytest configuration reports a failing property test as a
failure.  `filterwarnings = ["error"]` turns every warning into an error, and
hypothesis imports more modules to print a failing example, so a warning on
that import must not end the session in an INTERNALERROR that loses every
later result."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st

@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 0
'''


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.returncode == 1
    assert "1 failed" in out.stdout
