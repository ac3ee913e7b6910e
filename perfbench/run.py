"""leaderlab benchmark: three seeded workloads, end-to-end and layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble|disttest|cli_batch \
        --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one caller; see workloads.py):
  ensemble   100 MRW realizations -> dwt -> leaders -> scale selection ->
             c1/c2 -> bootstrap, all in memory (synth, wavelet, cumulants)
  disttest   Shapiro-Wilk, log-concave MLE and the permutation test on
             log-leaders at three scales and on a Cauchy sample (stattests)
  cli_batch  generate, estimate, test, verify and replay through
             leaderlab.cli.main on CSV files (core, cli, rwstail)

With --trace 0 the run reports the end-to-end metrics: set-up time (median
of three fresh interpreters importing leaderlab and building the basis),
wall_cal, and the peak RSS of the process that ran only the workload.
wall_cal is the median over passes of a pass's wall time divided by the
mean time of a fixed calibration kernel (calibrate.py) run at both ends of
the pass and about once a second between its operations.  The shared
host's speed drifts by up to 20% within seconds; the ratio cancels most of
that drift.  The raw median wall time of a pass, which leaves out the
kernel runs, is printed too and is the per-layer metric wall_s.  The first
pass of every run is a warm-up and is not timed.  With --trace 1 the run
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Every pass is checked; the
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  Spans of a traced run are written to
.perfbench/spans_<workload>_seed<seed>.json.

The metric names and units are those BENCHMARK.json lists.  Seed 1, the
default, is also compared with perfbench/reference.json, which
`python3 perfbench/worker.py --root . --workload NAME --write-reference`
regenerates.  The program is imported from src/ of the checkout; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("ensemble", "disttest", "cli_batch")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0

# workload-level timings; in a traced run they come from its untraced passes
STAGES = ("analysis_s", "realizations_per_s", "cmd_generate_s",
          "cmd_estimate_s", "cmd_test_s", "cmd_verify_s", "cmd_replay_s")

# counts derived from argument and result sizes, not measured, and the
# rates whose base they are
COMPUTED = {"wavelet.dwt_mults", "wavelet.dwt_coefs", "stattests.pairs",
            "rwstail.mc_draws", "cumulants.select_fits", "core.read_bytes",
            "core.write_bytes"}
RATE_BASE = {
    "wavelet.dwt_ns_per_coef": "wavelet.dwt_s / wavelet.dwt_coefs",
    "stattests.ns_per_pair":
        "self time of logconcavity_test / stattests.pairs",
    "rwstail.ns_per_draw": "rwstail.mc_s / rwstail.mc_draws",
    "core.read_MBps": "core.read_bytes / core.read_signal_s",
    "core.write_MBps": "core.write_bytes / core.write_signal_s",
    "realizations_per_s": "realizations per pass / wall_s of the pass",
    "wall_cal": "wall_s of a pass / mean calibration kernel time in and "
                "around it",
    "trace_overhead_frac": "median traced wall_s / median untraced wall_s - 1",
}


class RunError(Exception):
    pass


def _run_child(args: list[str], env: dict, deadline: float
               ) -> tuple[float | None, str]:
    """Run the worker; return (seconds until its first line, its stdout).
    The child is killed and reaped if it outlives `deadline`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--root", str(ROOT),
                             *args], stdout=subprocess.PIPE, env=env,
                            cwd=ROOT)
    buf, first_line_at = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise RunError("worker exceeded the time limit")
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            if first_line_at is None and b"\n" in buf:
                first_line_at = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return first_line_at, buf.decode()


def _environment(workload: str, seed: int) -> dict:
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "leaderlab").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "git_commit": commit,
            "source_sha256": src.hexdigest(),
            "LEADERLAB_THREADS_outside": os.environ.get("LEADERLAB_THREADS")}


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "leaderlab" / "__init__.py").is_file():
        print(f"no leaderlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BENCHMARK.json names every metric a run reports, with its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    deadline = time.perf_counter() + TIME_LIMIT_S
    # measure the program's default: LEADERLAB_THREADS unset
    env = {k: v for k, v in os.environ.items() if k != "LEADERLAB_THREADS"}
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(_run_child(common + ["--setup-only"], env,
                                        deadline)[0])
        ready_at, out = _run_child(
            common + ["--seconds", str(args.seconds), "--trace",
                      str(args.trace)], env, deadline)
        setup.append(ready_at)
        result = json.loads(out.strip().splitlines()[-1])
    except (RunError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    # the first pass is the warm-up: checked and counted, but not timed
    untraced = [p for p in passes[1:] if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env_record = dict(_environment(args.workload, args.seed),
                      **result["environment"])

    print(f"leaderlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    checks: dict[str, list] = {}
    for p in passes:
        for name, ok, detail in p["checks"]:
            checks.setdefault(name, []).append((ok, detail))
    for name, runs in checks.items():
        bad = [d for ok, d in runs if not ok]
        print(f"check {'FAIL' if bad else 'PASS'} {args.workload}.{name}: "
              f"{(bad or [runs[0][1]])[0]} ({len(runs) - len(bad)}/"
              f"{len(runs)} passes)")
    for p in passes:
        for err in p["errors"]:
            print(f"error: {err}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} failed of "
          f"{attempted} attempted: realizations, tests, CLI commands and "
          f"checks over {len(passes)} passes)")

    walls = [p["wall_s"] for p in untraced]
    cals = [p["wall_s"] / p["calib_s"] for p in untraced]
    stage = {}
    for p in untraced:
        if "realizations" in p["stages"]:
            p["stages"]["realizations_per_s"] = (p["stages"]["realizations"]
                                                 / p["wall_s"])
        for k, v in p["stages"].items():
            stage.setdefault(k, []).append(v)
    print("pass walls " + " ".join(
        f"{p['wall_s']:.4g}{'T' if p['traced'] else ''}" for p in passes))
    stage["wall_s"] = walls
    stage["calib_s"] = [p["calib_s"] for p in untraced]
    units["calib_s"] = "s"
    for k in ("wall_s", "calib_s") + STAGES:
        vals = stage.get(k)
        if vals:
            print(f"stage {k} {_median(vals):.6g} {units[k]} "
                  f"({_spread(vals)} untraced passes)")

    if args.trace:
        values = result["layers"]
        gen_calls = values.pop("synth.gen_ms_samples")
        values.update((k, _median(stage.get(k, []))) for k in STAGES)
        values["wall_s"] = _median(walls)
        notes = {k: "(computed)" for k in COMPUTED}
        notes.update((k, f"(= {base})") for k, base in RATE_BASE.items())
        notes["synth.gen_ms_p50"] = notes["synth.gen_ms_p90"] = \
            f"(over {gen_calls} traced calls)"
    else:
        values = {"setup_s": _median(setup), "wall_cal": _median(cals),
                  "peak_rss_mb": result["peak_rss_mb"]}
        notes = {"setup_s": f"({_spread(setup)} fresh interpreters)",
                 "wall_cal": f"({_spread(cals)} passes; "
                             f"= {RATE_BASE['wall_cal']})",
                 "peak_rss_mb": "(ru_maxrss of the workload process)"}
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"BENCHMARK.json lists metrics this run does not measure: "
              f"{missing}", file=sys.stderr)
        return 1
    for m in listed:
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']} "
              f"{notes.get(m['name'], '')}".rstrip())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
