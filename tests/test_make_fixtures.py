"""scripts/make_fixtures.py's flags."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "0", "--horizon must be >= 1, got 0"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
], ids=["horizon-zero", "seed-negative"])
def test_bad_flag_is_one_usage_error(tmp_path, flag, value, message):
    """A flag the fixtures cannot be made with is rejected before anything
    is written, with one usage error line rather than a traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_fixtures.py"),
                           "--out", str(tmp_path / "fixtures"), flag, value],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines()[-1] == f"make_fixtures.py: error: {message}"
    assert list(tmp_path.iterdir()) == []
