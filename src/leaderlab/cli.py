"""Command-line frontend.

Subcommands: generate, analyze, estimate, test, verify, replay.  Every run
writes its outputs plus a manifest.json recording the command, parameters,
seed, tool version and output list; `leaderlab replay manifest.json -o DIR`
re-executes the recorded run and reproduces every output byte-for-byte
(only manifest timestamps differ).

Exit codes: 0 success, 2 usage error, 3 data or regime error,
4 nonconvergence.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (DataError, NonConvergenceError, RegimeError, RngSpec,
                   Signal, read_signal, write_signal)
from .cumulants import (bootstrap_percentile, estimate_c1_c2,
                        estimation_scale_candidates, select_scale_range,
                        write_estimation_outputs)
from .rwstail import RwsModel, verify_tail_rates
from .stattests import logconcavity_test, qq_data, shapiro_wilk
from .synth import ProcessSpec, generate
from .wavelet import (basis_from_name, compute_leaders, dwt, fits_levels,
                      max_levels, pyramid_to_json, scaling_function,
                      structure_functions, legendre_spectrum)


class UsageError(Exception):
    pass


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(outdir: Path, command: str, params: dict, seed,
                    outputs: list[str], started: str) -> str:
    doc = {"command": command, "params": params,
           "seed": seed.to_dict() if isinstance(seed, RngSpec) else seed,
           "tool_version": __version__,
           "started_at": started, "finished_at": _now(),
           "outputs": sorted(str(Path(o).name) for o in outputs)}
    path = outdir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def _parse_range(spec: str) -> np.ndarray:
    """Parse 'a:step:b' or a comma list into a float array."""
    out: list[float] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values = [float(x) for x in part.split(":")]
        except ValueError:
            values = []
        if len(values) not in (1, 3) or not all(map(math.isfinite, values)):
            raise UsageError(f"grid part {part!r} must be a finite number "
                             "or start:step:stop")
        if len(values) == 1:
            out.append(values[0])
            continue
        a, step, b = values
        if step <= 0:
            raise UsageError("range step must be > 0")
        k = int(math.floor((b - a) / step + 1e-9)) + 1
        out.extend(a + step * i for i in range(max(k, 0)))
    if not out:
        raise UsageError(f"empty grid spec {spec!r}")
    return np.array(out)


def _parse_scale_pair(spec: str) -> tuple[int, int]:
    try:
        j1, j2 = (int(b) for b in spec.split(":"))
    except ValueError:
        raise UsageError(f"scale range {spec!r} must be j1:j2 levels") from None
    if j2 <= j1:
        raise UsageError("scale range needs j1 < j2")
    return j1, j2


_PROCESS_PARAM_KEYS = ("H", "beta", "L", "mu", "T", "rmin", "sigma2", "w",
                       "alpha", "ggbeta", "J", "intensity", "nvanish")


def _validate_process_params(kind: str, n: int, p: dict) -> None:
    if n < 2:
        raise UsageError("--n must be >= 2")
    if kind == "fbm":
        h = p.get("H")
        if h is None or not 0.0 < h < 1.0:
            raise UsageError("fbm requires --H strictly inside (0, 1)")
    elif kind == "mrw":
        h = p.get("H")
        if h is None or not 0.0 < h < 1.0:
            raise UsageError("mrw requires --H strictly inside (0, 1)")
        if p.get("beta", 0.05) < 0:
            raise UsageError("mrw requires --beta >= 0")
        if p.get("L", n) < n:
            raise UsageError("mrw requires integral scale --L >= n")
    elif kind == "cmc":
        if p.get("mu", 0.37) <= 0:
            raise UsageError("cmc requires --mu > 0")
    elif kind in ("cpc-ln", "cpc-lp"):
        if not 0.0 < p.get("rmin", 0.02) <= 1.0:
            raise UsageError("cpc requires --rmin in (0, 1]")
        if p.get("T", 100.0) <= 0:
            raise UsageError("cpc requires --T > 0")
    elif kind == "rws":
        if p.get("alpha", 1.0) <= 0 or p.get("ggbeta", 2.0) <= 0:
            raise UsageError("rws requires --alpha > 0 and --ggbeta > 0")
    else:
        raise UsageError(f"unknown process {kind!r}")


def run_generate(params: dict, outdir: Path) -> list[str]:
    kind = params["process"]
    n = int(params["n"])
    proc_params = {k: params[k] for k in _PROCESS_PARAM_KEYS
                   if params.get(k) is not None}
    _validate_process_params(kind, n, proc_params)
    seed = RngSpec(int(params["seed"]))
    ensemble = int(params.get("ensemble", 1))
    if ensemble < 1:
        raise UsageError("--ensemble must be >= 1")

    outputs: list[str] = []
    for i in range(ensemble):
        spec = ProcessSpec(kind=kind, n=n, params=proc_params,
                           rng=seed.substream(i))
        name = outdir / (f"signal_{i:04d}.csv" if ensemble > 1
                         else "signal.csv")
        outputs.extend(write_signal(generate(spec), name,
                                    sidecar=spec.to_dict()))
    return outputs


def _load_signals(path_spec: str) -> list[tuple[str, Signal]]:
    p = Path(path_spec)
    if p.is_dir():
        files = sorted(f for f in p.iterdir()
                       if f.suffix == ".csv" and f.is_file())
        if not files:
            raise DataError(f"no CSV signals in directory {p}")
        return [(f.stem, read_signal(f)) for f in files]
    return [(p.stem, read_signal(p))]


def _truncate_for_levels(sig: Signal, j_max: int) -> Signal:
    block = 1 << j_max
    usable = (len(sig) // block) * block
    if usable < block:
        raise DataError(f"signal of length {len(sig)} too short for "
                        f"{j_max} levels")
    if usable == len(sig):
        return sig
    return Signal(sig.samples[:usable], t0=sig.t0, dt=sig.dt, label=sig.label)


def run_analyze(params: dict, outdir: Path) -> list[str]:
    sig = read_signal(params["input"])
    basis = basis_from_name(params.get("wavelet", "db3"))
    j_max = int(params["jmax"])
    variant = {("1"): "one_leader", ("3"): "three_leader"}[
        str(params.get("variant", "3"))]
    sig = _truncate_for_levels(sig, j_max)
    pyramid = dwt(sig, basis, j_max)
    leaders = compute_leaders(pyramid, variant)
    q_grid = _parse_range(params.get("q", "-5:0.5:5"))
    scales = (_parse_scale_pair(params["scales"])
              if params.get("scales") else (1, j_max))
    table = structure_functions(leaders, q_grid)
    zeta = scaling_function(table, scales)
    h_grid = np.round(np.arange(-0.2, 1.6001, 0.02), 10)
    spectrum = legendre_spectrum({q: f.slope for q, f in zeta.items()}, h_grid)

    pyramid_to_json(leaders, outdir / "leaders.json")
    outputs = [str(outdir / "leaders.json")]
    outputs.append(table.to_csv(outdir / "structure.csv"))
    zeta_lines = ["q,zeta,intercept,r2"]
    for q in sorted(zeta):
        f = zeta[q]
        zeta_lines.append(f"{q:.17g},{f.slope:.17g},{f.intercept:.17g},"
                          f"{f.r_squared:.17g}")
    (outdir / "zeta.csv").write_text("\n".join(zeta_lines) + "\n",
                                     encoding="utf-8")
    outputs.append(str(outdir / "zeta.csv"))
    leg_lines = ["h,L"]
    for h in sorted(spectrum):
        leg_lines.append(f"{h:.17g},{spectrum[h]:.17g}")
    (outdir / "legendre.csv").write_text("\n".join(leg_lines) + "\n",
                                         encoding="utf-8")
    outputs.append(str(outdir / "legendre.csv"))
    for j in leaders.levels:
        ell = leaders.clean_values(j)
        if ell.size < 2 or np.any(ell <= 0):
            continue
        pairs = qq_data(np.log(ell))
        qq_lines = ["theoretical,empirical"]
        qq_lines += [f"{a:.17g},{b:.17g}" for a, b in pairs]
        path = outdir / f"qq_j{j}.csv"
        path.write_text("\n".join(qq_lines) + "\n", encoding="utf-8")
        outputs.append(str(path))
    return outputs


def run_estimate(params: dict, outdir: Path) -> list[str]:
    named = _load_signals(params["inputs"])
    if len(named) < 2:
        raise DataError("estimation requires at least 2 realizations")
    basis = basis_from_name(params.get("wavelet", "db3"))
    variant = {("1"): "one_leader", ("3"): "three_leader"}[
        str(params.get("variant", "3"))]
    alpha = float(params.get("alpha", 0.05))
    method = params.get("method", "clt")
    if method not in ("clt", "bootstrap"):
        raise UsageError("--method must be clt or bootstrap")

    j_max = params.get("jmax")
    if j_max is None:
        j_max = min(max_levels(len(sig), basis) for _, sig in named)
    j_max = int(j_max)
    if j_max < 3:
        raise DataError("signals too short for a 3-scale analysis")

    pyramids = [dwt(_truncate_for_levels(sig, j_max), basis, j_max)
                for _, sig in named]
    leaders = [compute_leaders(pyr, variant) for pyr in pyramids]

    scales_flag = params.get("scales", "auto")
    if scales_flag == "auto":
        candidates = estimation_scale_candidates(j_max)
        j_range = select_scale_range(pyramids, candidates)
    else:
        j_range = _parse_scale_pair(scales_flag)

    result = estimate_c1_c2(leaders, j_range, alpha=alpha)
    seed = RngSpec(int(params["seed"])) if params.get("seed") is not None \
        else None
    if method == "bootstrap":
        if seed is None:
            raise UsageError("--method bootstrap requires --seed")
        b_reps = int(params.get("B", 100))
        n_real = result.n_realizations
        boot_c1 = bootstrap_percentile(result.c1_samples, np.mean, B=b_reps,
                                       level=1 - alpha, rng=seed.substream(1))
        boot_c2 = bootstrap_percentile(
            result.c2_samples, lambda s: s.sum() / (n_real - 1), B=b_reps,
            level=1 - alpha, rng=seed.substream(2))
        result.c1, result.c2 = boot_c1, boot_c2
    extra = {"method": method, "variant": variant, "wavelet": basis.name,
             "scales_mode": scales_flag}
    return write_estimation_outputs(result, outdir / "estimate.json",
                                    outdir / "estimate.csv", seed=seed,
                                    extra=extra)


def run_test(params: dict, outdir: Path) -> list[str]:
    named = _load_signals(params["input"])
    which = params["which"]
    if which not in ("shapiro", "logconcave"):
        raise UsageError("--which must be shapiro or logconcave")
    spec = str(params.get("scale", "4,5,6"))
    try:
        scales = [int(s) for s in spec.split(",")]
    except ValueError:
        raise UsageError(f"--scale {spec!r} must be a comma list of "
                         "integer levels") from None
    if min(scales) < 1:
        raise UsageError("--scale levels must be >= 1")
    alpha = float(params.get("alpha", 0.05))
    b_reps = int(params.get("B", 99))
    reps = int(params.get("reps", 1))
    if reps < 1:
        raise UsageError("--reps must be >= 1")
    seed = RngSpec(int(params["seed"]))
    basis = basis_from_name(params.get("wavelet", "db3"))
    variant = {("1"): "one_leader", ("3"): "three_leader"}[
        str(params.get("variant", "3"))]
    j_max = max(scales)
    for name, sig in named:
        if not fits_levels(len(sig), basis, j_max):
            raise UsageError(f"--scale {j_max} is deeper than {name} of "
                             f"{len(sig)} samples allows")

    # substreams are numbered in (signal, scale, rep) order; replayed
    # tests.csv bytes depend on that numbering
    rows = []
    idx = 0
    for name, sig in named:
        leaders = compute_leaders(
            dwt(_truncate_for_levels(sig, j_max), basis, j_max), variant)
        for j in scales:
            ell = leaders.clean_values(j)
            if ell.size == 0 or np.any(ell <= 0):
                raise DataError(f"no usable leaders in {name} at scale {j}")
            logs = np.log(ell)
            for _ in range(reps):
                rng = seed.substream(idx)
                idx += 1
                if which == "shapiro":
                    rep_out = shapiro_wilk(logs, alpha=alpha, rng=rng)
                    p_or_t, thr = rep_out.p_value, alpha
                else:
                    rep_out = logconcavity_test(logs, B=b_reps, alpha=alpha,
                                                rng=rng)
                    p_or_t, thr = (rep_out.statistic,
                                   rep_out.details["threshold"])
                rows.append((name, j, rep_out.name, rep_out.statistic,
                             p_or_t, thr, rep_out.rejected))

    lines = ["signal,scale,test,statistic,p_or_T,threshold,rejected"]
    for name, j, tname, stat, p_or_t, thr, rej in rows:
        lines.append(f"{name},{j},{tname},{stat:.17g},{p_or_t:.17g},"
                     f"{thr:.17g},{int(rej)}")
    (outdir / "tests.csv").write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")
    agg_lines = ["source,scale,n_runs,prop_rejected"]
    for j in scales:
        sub = [r for r in rows if r[1] == j]
        prop = sum(r[6] for r in sub) / len(sub)
        agg_lines.append(f"{Path(params['input']).name},{j},{len(sub)},"
                         f"{prop:.17g}")
    (outdir / "tests_aggregate.csv").write_text("\n".join(agg_lines) + "\n",
                                                encoding="utf-8")
    return [str(outdir / "tests.csv"), str(outdir / "tests_aggregate.csv")]


def run_verify(params: dict, outdir: Path) -> list[str]:
    model = RwsModel(alpha=float(params["alpha"]),
                     beta=float(params["ggbeta"]))
    if params.get("A_grid"):
        grid = _parse_range(params["A_grid"])
    else:
        small = [2.0 ** (-k) for k in range(9, 3, -1)]
        grid = np.array(small + [7.1, 8.0, 10.0])
    mc_paths = int(params.get("mc_paths", 0))
    rng = None
    if mc_paths > 0:
        if params.get("seed") is None:
            raise UsageError("--mc-paths > 0 requires --seed")
        rng = RngSpec(int(params["seed"]))
    report = verify_tail_rates(model, grid, tol=float(params.get("tol", 1e-12)),
                               mc_paths=mc_paths, rng=rng,
                               json_path=outdir / "tailbounds.json",
                               csv_path=outdir / "tailbounds.csv")
    if not report.checks_passed:
        raise RegimeError("tail verification failed: "
                          f"slope_ok={report.slope_ok}, "
                          f"large_dominates={report.large_dominates}")
    return [str(outdir / "tailbounds.json"), str(outdir / "tailbounds.csv")]


_RUNNERS = {"generate": run_generate, "analyze": run_analyze,
            "estimate": run_estimate, "test": run_test, "verify": run_verify}

_RANDOMIZED = {"generate", "test"}


def _dispatch(command: str, params: dict, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    started = _now()
    if command in _RANDOMIZED and params.get("seed") is None:
        raise UsageError(f"{command} is randomized and requires --seed")
    outputs = _RUNNERS[command](params, outdir)
    _write_manifest(outdir, command, params,
                    RngSpec(int(params["seed"])) if params.get("seed")
                    is not None else None, outputs, started)
    return 0


def run_replay(manifest_path: str, outdir: Path) -> int:
    p = Path(manifest_path)
    if not p.exists():
        raise DataError(f"no manifest at {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
        command, params = doc["command"], doc["params"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"malformed manifest {p}: {exc!r}") from exc
    if not (isinstance(command, str) and command in _RUNNERS
            and isinstance(params, dict)):
        raise DataError(f"manifest {p} holds no runnable command: "
                        f"{command!r}")
    return _dispatch(command, params, outdir)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="leaderlab",
        description="Wavelet-leader multifractal analysis toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize process realizations")
    g.add_argument("--process", required=True,
                   choices=["fbm", "mrw", "cmc", "cpc-ln", "cpc-lp", "rws"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--ensemble", type=int, default=1)
    for key, typ in (("H", float), ("beta", float), ("L", int), ("mu", float),
                     ("T", float), ("rmin", float), ("sigma2", float),
                     ("w", float), ("alpha", float), ("ggbeta", float),
                     ("J", int), ("intensity", float), ("nvanish", int)):
        g.add_argument(f"--{key}", type=typ, default=None)
    g.add_argument("-o", "--outdir", required=True)

    a = sub.add_parser("analyze", help="leader pyramid and spectra of a signal")
    a.add_argument("--input", required=True)
    a.add_argument("--wavelet", default="db3")
    a.add_argument("--jmax", type=int, required=True)
    a.add_argument("--variant", choices=["1", "3"], default="3")
    a.add_argument("--q", default="-5:0.5:5")
    a.add_argument("--scales", default=None)
    a.add_argument("-o", "--outdir", required=True)

    e = sub.add_parser("estimate", help="estimate c1/c2 over an ensemble")
    e.add_argument("--inputs", required=True)
    e.add_argument("--scales", default="auto")
    e.add_argument("--alpha", type=float, default=0.05)
    e.add_argument("--method", choices=["clt", "bootstrap"], default="clt")
    e.add_argument("--B", type=int, default=100)
    e.add_argument("--wavelet", default="db3")
    e.add_argument("--jmax", type=int, default=None)
    e.add_argument("--variant", choices=["1", "3"], default="3")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("-o", "--outdir", required=True)

    t = sub.add_parser("test", help="distribution tests on log-leaders")
    t.add_argument("--input", required=True)
    t.add_argument("--which", choices=["shapiro", "logconcave"], required=True)
    t.add_argument("--scale", default="4,5,6")
    t.add_argument("--B", type=int, default=99)
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--reps", type=int, default=1)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--wavelet", default="db3")
    t.add_argument("--variant", choices=["1", "3"], default="3")
    t.add_argument("-o", "--outdir", required=True)

    v = sub.add_parser("verify", help="leader tail-bound verification")
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--ggbeta", type=float, required=True)
    v.add_argument("--A-grid", dest="A_grid", default=None)
    v.add_argument("--mc-paths", dest="mc_paths", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-12)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("-o", "--outdir", required=True)

    r = sub.add_parser("replay", help="re-run a recorded manifest")
    r.add_argument("manifest")
    r.add_argument("-o", "--outdir", required=True)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    params = {k: v for k, v in vars(ns).items()
              if k not in ("command", "outdir", "manifest") and v is not None}
    try:
        if ns.command == "replay":
            return run_replay(ns.manifest, Path(ns.outdir))
        return _dispatch(ns.command, params, Path(ns.outdir))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
