"""The three benchmark workloads, one pass each, and their correctness checks.

Every call into leaderlab goes through a module attribute (``synth.gen_mrw``,
``wavelet.dwt``, ``cli.main`` ...), so that the tracer in ``tracing.py`` sees it
when it replaces those attributes with timed wrappers.

A pass returns a ``Pass``: the outputs that are checked, the operations it
attempted and failed, and the stage timings of that pass (for ``ensemble``
also its realization count, the base of realizations_per_s).  A pass calls
``Pass.tick`` between its operations, outside every stage timer; the worker
uses it to time its calibration kernel during long passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from leaderlab import cli, core, cumulants, stattests, synth, wavelet

SIG_LEN = 1 << 15

# ensemble: the paper's multifractal-recovery study (MRW, c1 = H + beta^2/2,
# c2 = -beta^2)
ENS_N = 100
ENS_H, ENS_BETA = 0.6, 0.1
ENS_JMAX = 11
ENS_BOOT_B = 100
ENS_C1, ENS_C2 = ENS_H + ENS_BETA ** 2 / 2, -ENS_BETA ** 2

# disttest: log-leaders of one MRW realization at three scales (n ~ 1018,
# 506, 250) plus a Cauchy sample, which the tests must reject
DT_H, DT_BETA = 0.6, 0.05
DT_SCALES = (5, 6, 7)
DT_CAUCHY_N = 500
DT_B = 99

# cli_batch: the whole CLI on CSV files
CLI_ENSEMBLE = 32


@dataclass
class Pass:
    outputs: dict | None
    ticker: Callable[[], None] | None = None
    attempted: int = 0
    failed: int = 0
    stages: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def tick(self):
        """Mark a boundary between operations."""
        if self.ticker is not None:
            self.ticker()

    def op(self, fn, *args, **kwargs):
        """Run one counted operation; see `run`."""
        self.attempted += 1
        return self.run(fn, *args, **kwargs)

    def run(self, fn, *args, **kwargs):
        """Run a step of an operation already counted: a LeaderLabError marks
        it failed and returns None, any other exception is a bug."""
        try:
            return fn(*args, **kwargs)
        except core.LeaderLabError as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def _ci(est) -> list[float]:
    return [est.estimate, est.stderr, est.lower, est.upper]


def _analyse(sig, basis, j_max: int):
    pyr = wavelet.dwt(sig, basis, j_max)
    return pyr, wavelet.compute_leaders(pyr, "three_leader")


def ensemble(seed: int, basis, workdir: Path, ticker=None) -> Pass:
    root = core.RngSpec(seed)
    p = Pass(outputs=None, ticker=ticker)
    signals = []
    for i in range(ENS_N):
        p.tick()
        signals.append(p.op(synth.gen_mrw, ENS_H, ENS_BETA, SIG_LEN, SIG_LEN,
                            root.substream(i)))
    t0 = time.perf_counter()
    analysed = [p.run(_analyse, sig, basis, ENS_JMAX)
                for sig in signals if sig is not None]
    pyramids = [a[0] for a in analysed if a is not None]
    leaders = [a[1] for a in analysed if a is not None]
    # the estimation chain is checked, not counted: a failure leaves no
    # outputs and so fails every check of the pass
    try:
        j_range = cumulants.select_scale_range(
            pyramids, cumulants.estimation_scale_candidates(ENS_JMAX))
        est = cumulants.estimate_c1_c2(leaders, j_range)
        n = est.n_realizations
        boot_c1 = cumulants.bootstrap_percentile(
            est.c1_samples, np.mean, B=ENS_BOOT_B,
            rng=root.substream(ENS_N + 1))
        boot_c2 = cumulants.bootstrap_percentile(
            est.c2_samples, lambda s: s.sum() / (n - 1), B=ENS_BOOT_B,
            rng=root.substream(ENS_N + 2))
    except core.LeaderLabError as exc:
        p.errors.append(f"{type(exc).__name__}: {exc}")
        return p
    p.stages["analysis_s"] = time.perf_counter() - t0
    p.stages["realizations"] = ENS_N
    p.outputs = {"j_range": list(est.j_range), "N": n,
                 "c1": _ci(est.c1), "c2": _ci(est.c2),
                 "c1_boot": _ci(boot_c1), "c2_boot": _ci(boot_c2)}
    return p


def disttest(seed: int, basis, workdir: Path, ticker=None) -> Pass:
    root = core.RngSpec(seed)
    p = Pass(outputs=None, ticker=ticker)
    samples = {}
    sig = p.op(synth.gen_mrw, DT_H, DT_BETA, SIG_LEN, SIG_LEN,
               root.substream(0))
    analysed = None if sig is None else p.run(_analyse, sig, basis,
                                                max(DT_SCALES))
    if analysed is not None:
        for j in DT_SCALES:
            samples[f"j{j}"] = np.log(analysed[1].clean_values(j))
    samples["cauchy"] = root.substream(1).generator(0).standard_cauchy(
        DT_CAUCHY_N)
    out = {}
    for k, name in enumerate([f"j{j}" for j in DT_SCALES] + ["cauchy"]):
        if name not in samples:
            p.attempted += 3
            p.failed += 3
            continue
        x = samples[name]
        rng = root.substream(2 + k)
        p.tick()
        sw = p.op(stattests.shapiro_wilk, x, rng=rng)
        p.tick()
        mle = p.op(stattests.fit_logconcave_mle, x)
        p.tick()
        lc = p.op(stattests.logconcavity_test, x, B=DT_B, rng=rng)
        out[name] = {
            "n": int(x.size),
            "shapiro": None if sw is None else
            {"W": sw.statistic, "p": sw.p_value,
             "rejected": bool(sw.rejected)},
            "mle": None if mle is None else
            {"knots": int(mle.knots.size), "mass": mle.total_mass(),
             "objective": mle.objective_path[-1]},
            "logconcave": None if lc is None else
            {"T": lc.statistic, "threshold": lc.details["threshold"],
             "rejected": bool(lc.rejected)},
        }
    p.outputs = out
    return p


def _digest_tree(top: Path) -> dict:
    """sha256 of every output file under `top` except the manifests, whose
    timestamps differ between runs."""
    return {str(f.relative_to(top)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(top.rglob("*"))
            if f.is_file() and f.name != "manifest.json"}


def cli_batch(seed: int, basis, workdir: Path, ticker=None) -> Pass:
    p = Pass(outputs=None, ticker=ticker)
    tmp = Path(tempfile.mkdtemp(prefix="cli_batch_", dir=workdir))
    try:
        s = str(seed)
        commands = [
            ("generate", ["generate", "--process", "fbm", "--H", "0.7",
                          "--n", str(SIG_LEN), "--ensemble", str(CLI_ENSEMBLE),
                          "--seed", s, "-o", str(tmp / "gen")]),
            ("estimate", ["estimate", "--inputs", str(tmp / "gen"),
                          "--scales", "auto", "--method", "bootstrap",
                          "--B", "100", "--seed", s, "-o", str(tmp / "est")]),
            ("test", ["test", "--input", str(tmp / "gen"), "--which",
                      "shapiro", "--scale", "4,5,6", "--seed", s,
                      "-o", str(tmp / "test")]),
            ("verify", ["verify", "--alpha", "1", "--ggbeta", "2",
                        "--mc-paths", "5000", "--seed", s,
                        "-o", str(tmp / "verify")]),
            ("replay", ["replay", str(tmp / "est" / "manifest.json"),
                        "-o", str(tmp / "replay")]),
        ]
        codes = {}
        for name, argv in commands:
            p.tick()
            t0 = time.perf_counter()
            code = p.op(cli.main, argv)
            p.stages[f"cmd_{name}_s"] = time.perf_counter() - t0
            codes[name] = -1 if code is None else code
            if code is not None and code != 0:
                p.failed += 1
                p.errors.append(f"{name} exited with code {code}")
        est = tmp / "est" / "estimate.json"
        rep = tmp / "replay" / "estimate.json"
        verify_json = tmp / "verify" / "tailbounds.json"
        p.outputs = {
            "exit_codes": codes,
            "replay_identical": est.is_file() and rep.is_file()
            and est.read_bytes() == rep.read_bytes(),
            "verify_checks_passed": verify_json.is_file() and bool(
                json.loads(verify_json.read_text())["checks_passed"]),
            "sha256": _digest_tree(tmp),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return p


WORKLOADS = {"ensemble": ensemble, "disttest": disttest,
             "cli_batch": cli_batch}


# ---------------------------------------------------------------------------
# correctness checks

# keys whose values must match the reference exactly, not to 1e-9
_EXACT_KEYS = {"j_range", "N", "n", "rejected", "threshold", "T", "knots",
               "exit_codes", "sha256", "replay_identical",
               "verify_checks_passed"}
REL_TOL = 1e-9


def _diff(a, b, path: str, exact: bool) -> str | None:
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        for k in sorted(a):
            d = _diff(a[k], b[k], f"{path}.{k}", exact or k in _EXACT_KEYS)
            if d:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = _diff(x, y, f"{path}[{i}]", exact)
            if d:
                return d
        return None
    if (isinstance(a, float) and isinstance(b, float) and not exact
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)):
        return None
    if type(a) is type(b) and a == b:
        return None
    return f"{path}: {a!r} != reference {b!r}"


def _paper_checks(workload: str, out: dict) -> list[tuple[str, bool, str]]:
    if workload == "ensemble":
        c1, c2 = out["c1"][0], out["c2"][0]
        return [("c1_recovered", abs(c1 - ENS_C1) <= 0.05,
                 f"c1={c1:.5f}, |c1-{ENS_C1:g}| <= 0.05"),
                ("c2_recovered", abs(c2 - ENS_C2) <= 0.01,
                 f"c2={c2:.5f}, |c2-({ENS_C2:g})| <= 0.01")]
    if workload == "disttest":
        cauchy = out.get("cauchy") or {}
        lc = cauchy.get("logconcave") or {}
        sw = cauchy.get("shapiro") or {}
        dev = [abs(v["mle"]["mass"] - 1.0) if v["mle"] else math.inf
               for v in out.values()]
        return [("cauchy_rejected_logconcave", lc.get("rejected") is True,
                 f"T={lc.get('T')} threshold={lc.get('threshold')}"),
                ("cauchy_rejected_shapiro", sw.get("rejected") is True,
                 f"p={sw.get('p')}"),
                ("mle_mass_one", len(dev) == 4 and max(dev) <= 1e-6,
                 f"max |mass-1| = {max(dev):.2e} over {len(dev)} samples")]
    codes = out["exit_codes"]
    return [("exit_codes_zero", all(c == 0 for c in codes.values()),
             json.dumps(codes)),
            ("replay_identical", out["replay_identical"],
             "replayed estimate.json byte-identical"),
            ("verify_checks_passed", out["verify_checks_passed"],
             "tailbounds.json checks_passed")]


def check(workload: str, outputs: dict | None,
          reference: dict | None) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every check of one pass; `reference` is
    the stored output of the default seed, or None for other seeds."""
    if outputs is None:
        return [("outputs_present", False, "the pass produced no outputs")]
    checks = _paper_checks(workload, outputs)
    if reference is not None:
        d = _diff(outputs, reference, workload, False)
        checks.append(("matches_reference", d is None,
                       d or "default seed equals stored reference"))
    return checks
