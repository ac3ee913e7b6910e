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
                   Signal, check_level, read_signal, write_csv, write_json,
                   write_signal)
from .cumulants import (_c2_statistic, bootstrap_percentile, estimate_c1_c2,
                        estimation_scale_candidates, select_scale_range,
                        write_estimation_outputs)
from .rwstail import RwsModel, verify_tail_rates
from .stattests import logconcavity_test, qq_data, shapiro_wilk
from .synth import ProcessSpec, generate
from .wavelet import (basis_from_name, compute_leaders, dwt, fits_levels,
                      pyramid_to_json, scaling_function, structure_functions,
                      legendre_spectrum)


class UsageError(Exception):
    pass


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(outdir: Path, command: str, params: dict, seed,
                    outputs: list[str], started: str) -> str:
    doc = {"command": command,
           "params": {k: v for k, v in params.items() if v is not None},
           "seed": seed.to_dict() if isinstance(seed, RngSpec) else seed,
           "tool_version": __version__,
           "started_at": started, "finished_at": _now(),
           "outputs": sorted(str(Path(o).name) for o in outputs)}
    return write_json(outdir / "manifest.json", doc)


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


def run_generate(params: dict, outdir: Path) -> list[str]:
    seed = RngSpec(params["seed"])
    ensemble = params["ensemble"]
    if ensemble < 1:
        raise UsageError("--ensemble must be >= 1")
    proc_params = {k: v for k, v in params.items() if v is not None
                   and k not in ("process", "n", "seed", "ensemble")}

    outputs: list[str] = []
    for i in range(ensemble):
        spec = ProcessSpec(kind=params["process"], n=params["n"],
                           params=proc_params, rng=seed.substream(i))
        try:
            sig = generate(spec)
        except DataError as exc:
            # synth names the bad parameter first, as its flag is named
            raise UsageError(f"--{exc}") from None
        name = outdir / (f"signal_{i:04d}.csv" if ensemble > 1
                         else "signal.csv")
        outputs.extend(write_signal(sig, name, sidecar=spec.to_dict()))
    return outputs


def _alpha_flag(params: dict) -> float:
    """--alpha; a value the library's level rule refuses is a usage error."""
    try:
        check_level("--alpha", params["alpha"])
    except DataError as exc:
        raise UsageError(str(exc)) from None
    return params["alpha"]


def _load_signals(path_spec: str) -> list[tuple[str, Signal]]:
    p = Path(path_spec)
    if p.is_dir():
        files = sorted(f for f in p.iterdir()
                       if f.suffix == ".csv" and f.is_file())
        if not files:
            raise DataError(f"no CSV signals in directory {p}")
        return [(f.stem, read_signal(f)) for f in files]
    return [(p.stem, read_signal(p))]


def _basis_variant(params: dict):
    """The wavelet basis and leader variant that --wavelet/--variant name."""
    return (basis_from_name(params["wavelet"]),
            {"1": "one_leader", "3": "three_leader"}[params["variant"]])


def _deepest_level(n: int, basis) -> int:
    """The deepest level `fits_levels` allows n samples (0 if none)."""
    return max((j for j in range(1, n.bit_length())
                if fits_levels(n, basis, j)), default=0)


def _dwt_leaders(name: str, sig: Signal, basis, variant: str, j_max: int,
                 flag: str):
    """The DWT of `sig`, truncated to a multiple of 2^j_max, and its
    leaders.  A j_max the signal cannot reach is a usage error of `flag`."""
    deepest = _deepest_level(len(sig), basis)
    if not 1 <= j_max <= deepest:
        raise UsageError(f"{flag} {j_max} is outside the levels 1..{deepest} "
                         f"that {basis.name} allows on {name} of {len(sig)} "
                         "samples")
    usable = len(sig) >> j_max << j_max
    if usable < len(sig):
        sig = Signal(sig.samples[:usable], t0=sig.t0, dt=sig.dt,
                     label=sig.label)
    pyramid = dwt(sig, basis, j_max)
    return pyramid, compute_leaders(pyramid, variant)


def run_analyze(params: dict, outdir: Path) -> list[str]:
    sig = read_signal(params["input"])
    basis, variant = _basis_variant(params)
    j_max = params["jmax"]
    _, leaders = _dwt_leaders(Path(params["input"]).name, sig, basis, variant,
                              j_max, "--jmax")
    q_grid = _parse_range(params["q"])
    scales = (_parse_scale_pair(params["scales"])
              if params["scales"] else (1, j_max))
    table = structure_functions(leaders, q_grid)
    zeta = scaling_function(table, scales)
    h_grid = np.round(np.arange(-0.2, 1.6001, 0.02), 10)
    spectrum = legendre_spectrum({q: f.slope for q, f in zeta.items()}, h_grid)

    pyramid_to_json(leaders, outdir / "leaders.json")
    outputs = [str(outdir / "leaders.json")]
    outputs.append(table.to_csv(outdir / "structure.csv"))
    outputs.append(write_csv(
        outdir / "zeta.csv", ["q", "zeta", "intercept", "r2"],
        [(q, zeta[q].slope, zeta[q].intercept, zeta[q].r_squared)
         for q in sorted(zeta)]))
    outputs.append(write_csv(outdir / "legendre.csv", ["h", "L"],
                             [(h, spectrum[h]) for h in sorted(spectrum)]))
    for j in leaders.levels:
        ell = leaders.clean_values(j)
        if ell.size < 2 or np.any(ell <= 0):
            continue
        outputs.append(write_csv(outdir / f"qq_j{j}.csv",
                                 ["theoretical", "empirical"],
                                 qq_data(np.log(ell)).tolist()))
    return outputs


def run_estimate(params: dict, outdir: Path) -> list[str]:
    alpha, method = _alpha_flag(params), params["method"]
    named = _load_signals(params["inputs"])
    if len(named) < 2:
        raise DataError("estimation requires at least 2 realizations")
    basis, variant = _basis_variant(params)

    j_max = params["jmax"]
    if j_max is None:
        j_max = min(_deepest_level(len(sig), basis) for _, sig in named)
    # estimation_scale_candidates is empty below 4 levels; an explicit
    # j1:j2 range needs 3
    scales_flag = params["scales"]
    need = 4 if scales_flag == "auto" else 3
    if j_max < need:
        raise UsageError(f"--scales {scales_flag} needs --jmax >= {need}, "
                         f"and --jmax or the shortest signal gives {j_max}")
    pyramids, leaders = zip(*(_dwt_leaders(name, sig, basis, variant, j_max,
                                           "--jmax") for name, sig in named))

    if scales_flag == "auto":
        candidates = estimation_scale_candidates(j_max)
        j_range = select_scale_range(pyramids, candidates)
    else:
        j_range = _parse_scale_pair(scales_flag)

    result = estimate_c1_c2(leaders, j_range, alpha=alpha)
    seed = RngSpec(params["seed"]) if params["seed"] is not None else None
    if method == "bootstrap":
        if seed is None:
            raise UsageError("--method bootstrap requires --seed")
        b_reps = params["B"]
        boot_c1 = bootstrap_percentile(result.c1_samples, np.mean, B=b_reps,
                                       level=1 - alpha, rng=seed.substream(1))
        boot_c2 = bootstrap_percentile(result.c2_samples, _c2_statistic,
                                       B=b_reps, level=1 - alpha,
                                       rng=seed.substream(2))
        result.c1, result.c2 = boot_c1, boot_c2
    extra = {"method": method, "variant": variant, "wavelet": basis.name,
             "scales_mode": scales_flag}
    return write_estimation_outputs(result, outdir / "estimate.json",
                                    outdir / "estimate.csv", seed=seed,
                                    extra=extra)


def run_test(params: dict, outdir: Path) -> list[str]:
    named = _load_signals(params["input"])
    which = params["which"]
    spec = params["scale"]
    try:
        scales = [int(s) for s in spec.split(",")]
    except ValueError:
        raise UsageError(f"--scale {spec!r} must be a comma list of "
                         "integer levels") from None
    if min(scales) < 1:
        raise UsageError("--scale levels must be >= 1")
    alpha, b_reps, reps = _alpha_flag(params), params["B"], params["reps"]
    if reps < 1:
        raise UsageError("--reps must be >= 1")
    seed = RngSpec(params["seed"])
    basis, variant = _basis_variant(params)
    j_max = max(scales)

    # substreams are numbered in (signal, scale, rep) order; replayed
    # tests.csv bytes depend on that numbering
    rows = []
    idx = 0
    for name, sig in named:
        _, leaders = _dwt_leaders(name, sig, basis, variant, j_max, "--scale")
        for j in scales:
            ell = leaders.clean_values(j)
            if ell.size == 0 or np.any(ell <= 0):
                raise DataError(f"no usable leaders in {name} at scale {j}")
            logs = np.log(ell)
            rep_out = None
            for _ in range(reps):
                rng = seed.substream(idx)
                idx += 1
                if which == "shapiro":
                    # a report that drew no subsample used no random
                    # numbers, so a further rep would only repeat it
                    if rep_out is None or rep_out.details["subsampled"]:
                        rep_out = shapiro_wilk(logs, alpha=alpha, rng=rng)
                    p_or_t, thr = rep_out.p_value, alpha
                else:
                    rep_out = logconcavity_test(logs, B=b_reps, alpha=alpha,
                                                rng=rng)
                    p_or_t, thr = (rep_out.statistic,
                                   rep_out.details["threshold"])
                rows.append((name, j, rep_out.name, rep_out.statistic,
                             p_or_t, thr, int(rep_out.rejected)))

    source = Path(params["input"]).name
    aggregate = []
    for j in scales:
        sub = [r for r in rows if r[1] == j]
        aggregate.append((source, j, len(sub),
                          sum(r[6] for r in sub) / len(sub)))
    return [write_csv(outdir / "tests.csv",
                      ["signal", "scale", "test", "statistic", "p_or_T",
                       "threshold", "rejected"], rows),
            write_csv(outdir / "tests_aggregate.csv",
                      ["source", "scale", "n_runs", "prop_rejected"],
                      aggregate)]


def run_verify(params: dict, outdir: Path) -> list[str]:
    model = RwsModel(alpha=params["alpha"], beta=params["ggbeta"])
    if params["A_grid"]:
        grid = _parse_range(params["A_grid"])
    else:
        small = [2.0 ** (-k) for k in range(9, 3, -1)]
        grid = np.array(small + [7.1, 8.0, 10.0])
    mc_paths = params["mc_paths"]
    if not params["tol"] > 0:
        raise UsageError(f"--tol must be > 0, got {params['tol']!r}")
    if mc_paths < 0:
        raise UsageError(f"--mc-paths must be >= 0, got {mc_paths}")
    rng = None
    if mc_paths > 0:
        if params["seed"] is None:
            raise UsageError("--mc-paths > 0 requires --seed")
        rng = RngSpec(params["seed"])
    report = verify_tail_rates(model, grid, tol=params["tol"],
                               mc_paths=mc_paths, rng=rng)
    # written before the check, so a failed run leaves its evidence
    outputs = [report.to_json(outdir / "tailbounds.json"),
               report.to_csv(outdir / "tailbounds.csv")]
    if not report.checks_passed:
        raise RegimeError("tail verification failed: "
                          f"slope_ok={report.slope_ok}, "
                          f"large_dominates={report.large_dominates}")
    return outputs


_RUNNERS = {"generate": run_generate, "analyze": run_analyze,
            "estimate": run_estimate, "test": run_test, "verify": run_verify}

_RANDOMIZED = {"generate", "test"}


def _dispatch(command: str, params: dict, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    started = _now()
    seed = params.get("seed")      # analyze takes no --seed
    if command in _RANDOMIZED and seed is None:
        raise UsageError(f"{command} is randomized and requires --seed")
    outputs = _RUNNERS[command](params, outdir)
    _write_manifest(outdir, command, params,
                    None if seed is None else RngSpec(seed), outputs, started)
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
    return _dispatch(command, _manifest_params(command, params, p), outdir)


def _manifest_params(command: str, params: dict, path: Path) -> dict:
    """Check recorded params as the command's own flags would: each value
    goes through its flag's type (from its text, as argparse reads it) and
    choices, every required flag must be present, an absent optional flag
    takes its default, and a param that names no flag is dropped."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    out = {}
    for action in sub.choices[command]._actions:
        key, value = action.dest, params.get(action.dest)
        if key == "outdir" or action.default == argparse.SUPPRESS:
            continue
        if value is None:
            if action.required:
                raise DataError(f"manifest {path}: {command} needs "
                                f"param {key!r}")
            out[key] = action.default
            continue
        typ = action.type or str
        bad = DataError(f"manifest {path}: param {key!r} = {value!r} is "
                        f"not a valid {typ.__name__}")
        if not isinstance(value, str) and typ is str:
            raise bad
        try:
            out[key] = typ(str(value))
        except ValueError:
            raise bad from None
        if action.choices is not None and out[key] not in action.choices:
            raise DataError(f"manifest {path}: param {key!r} = {value!r} "
                            f"is not one of {list(action.choices)}")
    return out


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
              if k not in ("command", "outdir", "manifest")}
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
