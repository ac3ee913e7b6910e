"""One workload in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N
        --seconds S --trace 0|1 [--setup-only | --write-reference]

The first line on stdout is "ready", printed once leaderlab is imported from
ROOT/src and the db3 basis is built; run.py times set-up up to that line.
With --setup-only the worker then exits.  Otherwise it runs an untraced
warm-up pass, then timed passes (with --trace 1 traced and untraced ones
alternating) for S seconds in all: a pass is started only if the median
pass so far would end within S, and there are at least two passes (three
with --trace 1).  It times the calibration kernel of calibrate.py before
the first pass, after each pass and, at most once per CALIB_INTERVAL_S,
between the operations of a pass; a pass's wall time leaves out the kernel
runs inside it, and its calib_s is the mean kernel time over the runs
inside it and at its two ends.  It checks every pass and prints one JSON
line with the passes, the checks, the peak RSS and, when traced, the
per-layer metrics.
--write-reference stores one pass's outputs for the default seed in
reference.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
CALIB_INTERVAL_S = 1.0


def _import_leaderlab(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import leaderlab
    if Path(leaderlab.__file__).resolve().parent != src / "leaderlab":
        raise SystemExit(f"leaderlab imported from {leaderlab.__file__}, "
                         f"not from {src}")


def _openblas_threads() -> int | None:
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "lib*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np
    import scipy
    simd = getattr(np, "__config__", None)
    simd = getattr(simd, "CONFIG", {}).get("SIMD Extensions", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas_threads": _openblas_threads(),
            "numpy_simd_found": simd.get("found"),
            "LEADERLAB_THREADS": os.environ.get("LEADERLAB_THREADS")}


class Calibration:
    """Runs of the calibration kernel, kept until `take` hands them over.
    Called as a pass's ticker, it runs the kernel if CALIB_INTERVAL_S have
    gone since its last run."""

    def __init__(self, probe):
        self.probe = probe
        self.times: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def __call__(self):
        if time.perf_counter() - self.last >= CALIB_INTERVAL_S:
            self.run()

    def run(self):
        t0 = time.perf_counter()
        self.times.append(self.probe())
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def take(self) -> tuple[list[float], float]:
        """The kernel times since the last take, and the seconds they
        cost in all."""
        out = self.times, self.spent
        self.times, self.spent = [], 0.0
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    _import_leaderlab(root)
    from leaderlab import wavelet
    basis = wavelet.basis_from_name("db3")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import calibrate
    import workloads
    from tracing import Tracer, write_spans
    run = workloads.WORKLOADS[args.workload]
    workdir = root / ".perfbench" / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    if args.write_reference:
        p = run(DEFAULT_SEED, basis, workdir)
        if p.failed or p.outputs is None:
            raise SystemExit(f"reference pass failed: {p.errors}")
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref["seed"] = DEFAULT_SEED
        ref[args.workload] = p.outputs
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        return 0

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    tracer = Tracer() if args.trace else None
    passes, rounds = [], []
    min_passes = 3 if tracer is not None else 2
    deadline = time.perf_counter() + args.seconds
    calibrate.probe()  # the kernel's own first-call costs
    cal = Calibration(calibrate.probe)
    cal.run()
    before, _ = cal.take()
    while True:
        round_t0 = time.perf_counter()
        # traced runs: pass 0 warms up untraced, then traced and untraced
        # passes alternate, so the overhead ratio compares like with like
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.run_id = len(passes)
            tracer.install()
        t0 = time.perf_counter()
        try:
            p = run(args.seed, basis, workdir, cal)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        inside, spent = cal.take()
        wall -= spent
        cal.run()
        after, _ = cal.take()
        checks = workloads.check(args.workload, p.outputs, reference)
        passes.append({"traced": traced, "wall_s": wall,
                       "calib_s": statistics.fmean(before + inside + after),
                       "stages": p.stages,
                       "attempted": p.attempted + len(checks),
                       "failed": p.failed + sum(not ok for _, ok, _ in checks),
                       "checks": checks, "errors": p.errors[:5]})
        before = after
        # stop when the next pass would likely end past the deadline, so a
        # run lasts about S seconds whatever the length of a pass
        rounds.append(time.perf_counter() - round_t0)
        if (len(passes) >= min_passes and time.perf_counter()
                + statistics.median(rounds) > deadline):
            break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"passes": passes, "environment": _environment(),
              "peak_rss_mb": peak_kib * 1024 / 1e6}
    if tracer is not None:
        traced_ids = [i for i, q in enumerate(passes) if q["traced"]]
        result["layers"] = tracer.layer_metrics(traced_ids)
        untraced = [q["wall_s"] for q in passes[1:] if not q["traced"]]
        result["layers"]["trace_overhead_frac"] = statistics.median(
            passes[i]["wall_s"] for i in traced_ids) / statistics.median(
            untraced) - 1.0
        write_spans(root / ".perfbench" /
                    f"spans_{args.workload}_seed{args.seed}.json", tracer,
                    {"workload": args.workload, "seed": args.seed,
                     "passes": passes})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
