"""In-memory spans around leaderlab's public layer functions.

`Tracer.install` replaces each function in `TRACED` with a timed wrapper
wherever a leaderlab module holds it, so the names that `leaderlab.cli`,
`leaderlab.cumulants` and `leaderlab.stattests` import are wrapped too, and
calls between functions of one module are seen because they resolve through
the module's globals.  `uninstall` puts the originals back.  No file of the
library changes.

A span is (name, start, end, parent, run_id); run_id numbers the workload
pass the span belongs to.  Counts of work done are taken at the same
boundaries from each call's arguments and result; they are computed from
array sizes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("core", "synth", "wavelet", "cumulants", "stattests", "rwstail",
          "cli")

TRACED = {
    "core": ("read_signal", "write_signal"),
    "synth": ("generate", "gen_fbm", "gen_mrw"),
    "wavelet": ("dwt", "compute_leaders", "hmin_regression"),
    "cumulants": ("select_scale_range", "estimate_c1_c2",
                  "bootstrap_percentile"),
    "stattests": ("shapiro_wilk", "fit_logconcave_mle", "logconcavity_test"),
    "rwstail": ("verify_tail_rates", "leader_cdf_monte_carlo"),
    "cli": ("main",),
}


def _size(path: Path) -> int:
    return path.stat().st_size if path.is_file() else 0


def _dwt_counts(a, r):
    n, filt, j_max = len(a["signal"]), a["basis"].length, a["j_max"]
    # each level runs both filters over its input: filt * (2 * n_out) mults
    return {"wavelet.dwt_mults": filt * sum(n >> j for j in range(j_max)),
            "wavelet.dwt_coefs": n - (n >> j_max)}


def _read_counts(a, r):
    path = Path(a["path"])
    return {"core.read_bytes": _size(path)
            + _size(path.with_suffix(path.suffix + ".json"))}


# per traced function: counts derived from (bound arguments, result)
COUNTERS = {
    "core.read_signal": _read_counts,
    "core.write_signal": lambda a, r: {
        "core.write_bytes": sum(_size(Path(p)) for p in r)},
    "wavelet.dwt": _dwt_counts,
    "cumulants.select_scale_range": lambda a, r: {
        "cumulants.select_fits": len(a["pyramids"]) * len(a["candidates"])},
    "stattests.shapiro_wilk": lambda a, r: {
        "stattests.rejections": int(r.rejected)},
    "stattests.fit_logconcave_mle": lambda a, r: {
        "stattests.mle_knots": int(r.knots.size),
        "stattests.mle_steps": len(r.objective_path)},
    "stattests.logconcavity_test": lambda a, r: {
        "stattests.rejections": int(r.rejected),
        "stattests.replicates": r.B,
        "stattests.pairs": (r.B + 1) * (2 * r.n) ** 2},
    "rwstail.leader_cdf_monte_carlo": lambda a, r: {
        "rwstail.mc_draws": r.n_paths * (r.depth + 1)},
}


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run_id]
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)
        name_of = _cli_span_name if name == "cli.main" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_of(args, kwargs) if name_of else name,
                    time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs).arguments
                for key, val in counter(bound, result).items():
                    self.counts[self.run_id][key] += val
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "leaderlab" or k.startswith("leaderlab.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"leaderlab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run_id": r}
                for n, s, e, p, r in self.spans]

    # -- per-layer metrics ---------------------------------------------------

    def _pass_metrics(self, run_id: int) -> dict:
        idx = [i for i, s in enumerate(self.spans) if s[4] == run_id]
        dur = {i: self.spans[i][2] - self.spans[i][1] for i in idx}
        child = defaultdict(float)
        for i in idx:
            if self.spans[i][3] >= 0:
                child[self.spans[i][3]] += dur[i]
        total, calls, self_by_name = (defaultdict(float), defaultdict(int),
                                      defaultdict(float))
        for i in idx:
            name = self.spans[i][0]
            total[name] += dur[i]
            calls[name] += 1
            self_by_name[name] += dur[i] - child[i]
        c = self.counts[run_id]

        def rate(num, den):
            return num / den if den > 0 else 0.0

        gen_s = total["synth.gen_fbm"] + total["synth.gen_mrw"]
        test_dwt = sum(1 for i in idx if self.spans[i][0] == "wavelet.dwt"
                       and self._under(i, "cli.test"))
        m = {
            "synth.gen_s": gen_s,
            "synth.gen_calls": calls["synth.gen_fbm"] + calls["synth.gen_mrw"],
            "wavelet.dwt_s": total["wavelet.dwt"],
            "wavelet.dwt_calls": calls["wavelet.dwt"],
            "wavelet.dwt_coefs": c["wavelet.dwt_coefs"],
            "wavelet.dwt_ns_per_coef": rate(1e9 * total["wavelet.dwt"],
                                            c["wavelet.dwt_coefs"]),
            "wavelet.dwt_mults": c["wavelet.dwt_mults"],
            "wavelet.leaders_s": total["wavelet.compute_leaders"],
            "wavelet.leaders_calls": calls["wavelet.compute_leaders"],
            "cumulants.select_s": total["cumulants.select_scale_range"],
            "cumulants.select_fits": c["cumulants.select_fits"],
            "cumulants.estimate_s": total["cumulants.estimate_c1_c2"],
            "cumulants.bootstrap_s": total["cumulants.bootstrap_percentile"],
            "stattests.logconcave_s": total["stattests.logconcavity_test"],
            "stattests.replicates": c["stattests.replicates"],
            "stattests.pairs": c["stattests.pairs"],
            # the permutation kernel: the test's time outside its MLE fit
            "stattests.ns_per_pair": rate(
                1e9 * self_by_name["stattests.logconcavity_test"],
                c["stattests.pairs"]),
            "stattests.rejections": c["stattests.rejections"],
            "stattests.shapiro_s": total["stattests.shapiro_wilk"],
            "stattests.mle_s": total["stattests.fit_logconcave_mle"],
            "stattests.mle_knots": c["stattests.mle_knots"],
            "stattests.mle_steps": c["stattests.mle_steps"],
            "rwstail.verify_s": total["rwstail.verify_tail_rates"],
            "rwstail.mc_s": total["rwstail.leader_cdf_monte_carlo"],
            "rwstail.mc_draws": c["rwstail.mc_draws"],
            "rwstail.ns_per_draw": rate(
                1e9 * total["rwstail.leader_cdf_monte_carlo"],
                c["rwstail.mc_draws"]),
            "core.read_signal_s": total["core.read_signal"],
            "core.read_signal_calls": calls["core.read_signal"],
            "core.read_bytes": c["core.read_bytes"],
            "core.read_MBps": rate(c["core.read_bytes"] / 1e6,
                                   total["core.read_signal"]),
            "core.write_signal_s": total["core.write_signal"],
            "core.write_signal_calls": calls["core.write_signal"],
            "core.write_bytes": c["core.write_bytes"],
            "core.write_MBps": rate(c["core.write_bytes"] / 1e6,
                                    total["core.write_signal"]),
            "cli.test_dwt_calls": test_dwt,
        }
        for cmd in ("generate", "estimate", "test", "verify", "replay"):
            m[f"cli.{cmd}_self_s"] = self_by_name[f"cli.{cmd}"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items()
                                       if k.split(".")[0] == layer)
        return m

    def _under(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def layer_metrics(self, run_ids: list[int]) -> dict:
        """Median over the traced passes of each per-pass layer metric, plus
        the per-call generation time pooled over all of them."""
        per_pass = [self._pass_metrics(r) for r in run_ids]
        out = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
        gen_ms = [1e3 * (s[2] - s[1]) for s in self.spans
                  if s[0] in ("synth.gen_fbm", "synth.gen_mrw")
                  and s[4] in run_ids]
        out["synth.gen_ms_p50"] = _percentile(gen_ms, 50)
        out["synth.gen_ms_p90"] = _percentile(gen_ms, 90)
        out["synth.gen_ms_samples"] = len(gen_ms)
        return out


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def write_spans(path: Path, tracer: Tracer, extra: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(extra, spans=tracer.dump())) + "\n",
                    encoding="utf-8")
