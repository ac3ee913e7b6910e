"""Each demo script, and each python block of the README, runs to
completion from a scratch working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, script):
    run_python([str(script)], tmp_path)


def test_readme_python_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```",
                        (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert blocks
    for code in blocks:
        run_python(["-c", code], tmp_path)
