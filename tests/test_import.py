"""`import leaderlab` loads numpy and no scipy module, since each adds
start-up time to every process. Of the commands only `verify` loads
`scipy.special`, for the generalized-Gaussian normalizer and incomplete gamma
tails; `generate`, `analyze`, `estimate` and `test` never import scipy's
special functions (the normal CDF is `core._erfc`, a numpy port). The MRW
log-field worker thread starts on the first MRW draw, and the CSV worker
processes only for two files or more on two usable CPUs or more; each loads
`concurrent.futures` then, so neither the import nor a one-file fBm
`generate` loads it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from leaderlab import cli

ROOT = Path(__file__).resolve().parent.parent


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


def test_import_leaves_heavy_scipy_unloaded():
    code = ("import sys, leaderlab; print(','.join(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    assert _run(code) == ""


# whether concurrent.futures is loaded, and the names of the live threads
# that are the log-field worker's
_WORKER = ("import sys, threading; print('concurrent.futures' in sys.modules,"
           " [t.name for t in threading.enumerate()"
           " if t.name.startswith('leaderlab-synth')])")


def test_import_starts_no_worker():
    assert _run("import leaderlab; " + _WORKER) == "False []"


def test_fbm_generate_starts_no_worker(tmp_path):
    code = ("import sys; from leaderlab import cli; rc = cli.main(sys.argv[1:]);"
            f" {_WORKER}; sys.exit(rc)")
    assert _run(code, *COMMANDS["generate"][0], "-o", tmp_path) == "False []"


@pytest.fixture(scope="module")
def fbm_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fbm")
    assert cli.main(["generate", "--process", "fbm", "--H", "0.7", "--n",
                     "1024", "--seed", "1", "--ensemble", "2", "-o",
                     str(out)]) == 0
    return out


# (command line, whether it loads scipy.special); DIR is the fBm ensemble,
# SIG one signal of it
COMMANDS = {
    "generate": (["generate", "--process", "fbm", "--H", "0.7", "--n", "256",
                  "--seed", "1"], False),
    "analyze": (["analyze", "--input", "SIG", "--jmax", "5"], False),
    "estimate": (["estimate", "--inputs", "DIR", "--method", "bootstrap",
                  "--B", "9", "--seed", "1"], False),
    "test-shapiro": (["test", "--input", "DIR", "--which", "shapiro",
                      "--scale", "4", "--seed", "1"], False),
    "test-logconcave": (["test", "--input", "DIR", "--which", "logconcave",
                         "--scale", "4", "--B", "9", "--seed", "1"], False),
    "verify": (["verify", "--alpha", "1", "--ggbeta", "2"], True),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_scipy_special_only_for_verify(name, fbm_dir, tmp_path):
    argv, loads = COMMANDS[name]
    sig = sorted(fbm_dir.glob("*.csv"))[0]
    argv = [str(fbm_dir) if a == "DIR" else str(sig) if a == "SIG" else a
            for a in argv] + ["-o", str(tmp_path / "out")]
    code = ("import sys; from leaderlab import cli; rc = cli.main(sys.argv[1:]);"
            " print('scipy.special' in sys.modules); sys.exit(rc)")
    assert _run(code, *argv) == str(loads)
