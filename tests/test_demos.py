"""Every narrative demo runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphcurv

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    src = Path(graphcurv.__file__).resolve().parent.parent
    path_entries = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
