"""The test session's own configuration (``pyproject.toml``).

Every warning is an error, but a failing Hypothesis property must still
leave the rest of the session running: Hypothesis imports libcst to write
the failing example's patch, and libcst's import-time DeprecationWarning,
as an error, ended the session with INTERNALERROR and hid every later test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_property_does_not_end_the_session(tmp_path):
    (tmp_path / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 10\n")
    (tmp_path / "test_b.py").write_text("def test_after():\n    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
