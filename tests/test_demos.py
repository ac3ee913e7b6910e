"""Each demo script, and each python block of the README, runs to
completion from a scratch working directory, with numpy's RuntimeWarnings
as errors; each `leaderlab` command of the README parses with the CLI's own
parser."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from leaderlab import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           *args], cwd=cwd, env=env,
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


def test_readme_commands_parse():
    # parsed, not run: a renamed or removed flag fails here
    blocks = re.findall(r"^```bash\n(.*?)^```",
                        (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("leaderlab ")]
    assert len(commands) >= 8
    ap = cli._build_parser()
    for argv in commands:
        try:
            ap.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
