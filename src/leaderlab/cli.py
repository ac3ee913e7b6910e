"""Command-line frontend.

Subcommands: generate, analyze, estimate, test, verify, replay.  Every run
writes its outputs plus a manifest.json recording the command, parameters,
seed, tool version and output list; `leaderlab replay manifest.json -o DIR`
parses the recorded params with the command's own flags, as `--flag=value`
tokens, and re-executes the run, reproducing every output byte-for-byte
(only manifest timestamps differ).  A value the flags refuse is a data
error, `error: manifest PATH: <argparse's reason>`.

Exit codes: 0 success, 2 usage error, 3 data or regime error,
4 nonconvergence.  Every parameter rule, in this module and in the library,
is a `core.require` that raises a `ParamError` naming the parameter, by the
flag's dest where a flag sets it.  `main` alone maps that name to its flag:
a bad argv value is a usage error naming the flag (exit 2), and the same
value read from a replayed manifest is a data error (exit 3).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (DataError, NonConvergenceError, ParamError, RegimeError,
                   RngSpec, Signal, _check_replicates, _map_files,
                   _signal_format, check_count, check_level, check_rng,
                   read_signal, require, write_csv, write_json, write_signal)
from .cumulants import (_c2_statistic, bootstrap_percentile, estimate_c1_c2,
                        estimation_scale_candidates, select_scale_range,
                        write_estimation_outputs)
from .rwstail import RwsModel, verify_tail_rates
from .stattests import logconcavity_test, qq_data, shapiro_wilk
from .synth import ProcessSpec, generate
from .wavelet import (basis_from_name, compute_leaders, deepest_level, dwt,
                      pyramid_to_json, scaling_function, structure_functions,
                      legendre_spectrum)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(outdir: Path, command: str, params: dict, seed,
                    outputs: list[str], started: str) -> str:
    doc = {"command": command,
           "params": {k: v for k, v in params.items() if v is not None},
           "seed": None if seed is None else seed.to_dict(),
           "tool_version": __version__,
           "started_at": started, "finished_at": _now(),
           "outputs": sorted(str(Path(o).name) for o in outputs)}
    return write_json(outdir / "manifest.json", doc)


# the points a --q or --A-grid grid may hold, counted before the grid is
# built, so that a tiny step cannot ask for an unbounded list
_MAX_GRID_POINTS = 10_000


def _parse_range(spec: str, name: str) -> np.ndarray:
    """Parse the 'a:step:b' or comma list `spec` that sets `name` into a
    float array of 1 to _MAX_GRID_POINTS points."""
    rule = f"hold 1 to {_MAX_GRID_POINTS} grid points"
    out: list[float] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values = [float(x) for x in part.split(":")]
        except ValueError:
            values = []
        require(len(values) in (1, 3) and all(map(math.isfinite, values)),
                name, "be finite numbers or start:step:stop ranges", part)
        if len(values) == 1:
            out.append(values[0])
            continue
        a, step, b = values
        require(step > 0, name, "have steps > 0", part)
        span = (b - a) / step + 1e-9
        require(len(out) + span < _MAX_GRID_POINTS, name, rule, spec)
        out.extend(a + step * i for i in range(max(math.floor(span) + 1, 0)))
    require(0 < len(out) <= _MAX_GRID_POINTS, name, rule, spec)
    return np.array(out)


def _parse_scale_pair(spec: str, j_max: int) -> tuple[int, int]:
    """Parse --scales 'j1:j2', levels with 1 <= j1 < j2 <= j_max."""
    try:
        j1, j2 = (int(b) for b in spec.split(":"))
    except ValueError:
        j1 = j2 = 0
    require(1 <= j1 < j2 <= j_max, "scales",
            f"be levels j1:j2 with 1 <= j1 < j2 <= {j_max}", spec)
    return j1, j2


def run_generate(params: dict, seed, outdir: Path) -> list[str]:
    ensemble = params["ensemble"]
    check_count("ensemble", ensemble)
    proc_params = {k: v for k, v in params.items() if v is not None
                   and k not in ("process", "n", "seed", "ensemble")}

    def members():
        # every member is drawn here, in order; only its file is written on
        # a worker process
        for i in range(ensemble):
            spec = ProcessSpec(kind=params["process"], n=params["n"],
                               params=proc_params, rng=seed.substream(i))
            sig = generate(spec)
            # the shared time axis, made before the workers fork
            _signal_format(sig.t0, sig.dt, len(sig))
            name = outdir / (f"signal_{i:04d}.csv" if ensemble > 1
                             else "signal.csv")
            yield name, sig, spec.to_dict()

    written = _map_files(lambda name, sig, sidecar: write_signal(
        sig, name, sidecar=sidecar), members(), ensemble)
    return [path for paths in written for path in paths]


def _load_signals(path_spec: str) -> list[tuple[str, Signal]]:
    """(stem, signal) of the CSV file `path_spec`, or of each `.csv` file
    of the directory `path_spec` in sorted order.  A directory's files are
    read on worker processes (`core._map_files`), with the signals and the
    first error of reading them in order."""
    p = Path(path_spec)
    if p.is_dir():
        files = sorted(f for f in p.iterdir()
                       if f.suffix == ".csv" and f.is_file())
        if not files:
            raise DataError(f"no CSV signals in directory {p}")
        signals = _map_files(read_signal, [(f,) for f in files], len(files))
        return [(f.stem, sig) for f, sig in zip(files, signals)]
    return [(p.stem, read_signal(p))]


def _basis_variant(params: dict):
    """The wavelet basis and leader variant that --wavelet/--variant name."""
    return (basis_from_name(params["wavelet"]),
            {"1": "one_leader", "3": "three_leader"}[params["variant"]])


def _dwt_leaders(label: str, sig: Signal, basis, variant: str, j_max: int,
                 name: str):
    """The DWT of `sig`, truncated to a multiple of 2^j_max, and its
    leaders; `name` is the parameter that set j_max."""
    deepest = deepest_level(len(sig), basis)
    require(1 <= j_max <= deepest, name,
            f"lie in 1..{deepest}, the levels {basis.name} allows on {label} "
            f"of {len(sig)} samples", j_max)
    usable = len(sig) >> j_max << j_max
    if usable < len(sig):
        sig = Signal(sig.samples[:usable], t0=sig.t0, dt=sig.dt,
                     label=sig.label)
    pyramid = dwt(sig, basis, j_max)
    return pyramid, compute_leaders(pyramid, variant)


def run_analyze(params: dict, seed, outdir: Path) -> list[str]:
    basis, variant = _basis_variant(params)
    j_max = params["jmax"]
    q_grid = _parse_range(params["q"], "q")
    scales = (_parse_scale_pair(params["scales"], j_max)
              if params["scales"] else (1, j_max))
    sig = read_signal(params["input"])
    _, leaders = _dwt_leaders(Path(params["input"]).name, sig, basis, variant,
                              j_max, "jmax")
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


def run_estimate(params: dict, seed, outdir: Path) -> list[str]:
    alpha, method, b_reps = params["alpha"], params["method"], params["B"]
    check_level("alpha", alpha)
    if method == "bootstrap":
        check_rng("seed", seed, "method bootstrap")
        _check_replicates(b_reps)
    named = _load_signals(params["inputs"])
    if len(named) < 2:
        raise DataError("estimation requires at least 2 realizations")
    basis, variant = _basis_variant(params)

    j_max = params["jmax"]
    if j_max is None:
        j_max = min(deepest_level(len(sig), basis) for _, sig in named)
    # estimation_scale_candidates is empty below 4 levels; an explicit
    # j1:j2 range needs 3
    scales_flag = params["scales"]
    need = 4 if scales_flag == "auto" else 3
    require(j_max >= need, "jmax",
            f"be >= {need} for scales {scales_flag}; unset, it is the "
            "deepest level of the shortest signal", j_max)
    j_range = (None if scales_flag == "auto"
               else _parse_scale_pair(scales_flag, j_max))
    pyramids, leaders = zip(*(_dwt_leaders(name, sig, basis, variant, j_max,
                                           "jmax") for name, sig in named))
    if j_range is None:
        j_range = select_scale_range(pyramids,
                                     estimation_scale_candidates(j_max))

    result = estimate_c1_c2(leaders, j_range, alpha=alpha)
    if method == "bootstrap":
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


def run_test(params: dict, seed, outdir: Path) -> list[str]:
    which, spec = params["which"], params["scale"]
    try:
        scales = [int(s) for s in spec.split(",")]
    except ValueError:
        scales = [0]
    require(min(scales) >= 1 and len(set(scales)) == len(scales), "scale",
            "be a comma list of distinct integer levels >= 1", spec)
    alpha, b_reps, reps = params["alpha"], params["B"], params["reps"]
    check_level("alpha", alpha)
    check_count("reps", reps)
    if which == "logconcave":
        _check_replicates(b_reps)
    basis, variant = _basis_variant(params)
    named = _load_signals(params["input"])
    j_max = max(scales)

    # substreams are numbered in (signal, scale, rep) order; replayed
    # tests.csv bytes depend on that numbering
    rows = []
    idx = 0
    for name, sig in named:
        _, leaders = _dwt_leaders(name, sig, basis, variant, j_max, "scale")
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


def run_verify(params: dict, seed, outdir: Path) -> list[str]:
    model = RwsModel(alpha=params["alpha"], beta=params["ggbeta"])
    if params["A_grid"]:
        grid = _parse_range(params["A_grid"], "A_grid")
    else:
        small = [2.0 ** (-k) for k in range(9, 3, -1)]
        grid = np.array(small + [7.1, 8.0, 10.0])
    report = verify_tail_rates(model, grid, tol=params["tol"],
                               mc_paths=params["mc_paths"], rng=seed)
    # written before the check, so a failed run leaves its evidence
    outputs = [report.to_json(outdir / "tailbounds.json"),
               report.to_csv(outdir / "tailbounds.csv")]
    if not report.checks_passed:
        raise RegimeError("tail verification failed: "
                          f"slope_ok={report.slope_ok}, "
                          f"large_dominates={report.large_dominates}")
    return outputs


# runner(params, the run's RngSpec or None, outdir) -> output paths
_RUNNERS = {"generate": run_generate, "analyze": run_analyze,
            "estimate": run_estimate, "test": run_test, "verify": run_verify}


def _dispatch(command: str, params: dict, outdir: Path) -> int:
    """Build the run's one RngSpec before any work, then run `command`.  A
    run that fails, other than by a regime error, removes the files it
    added to `outdir`, so that no output is left without its manifest."""
    seed = None if params.get("seed") is None else RngSpec(params["seed"])
    outdir.mkdir(parents=True, exist_ok=True)
    before = set(outdir.iterdir())
    started = _now()
    try:
        outputs = _RUNNERS[command](params, seed, outdir)
        _write_manifest(outdir, command, params, seed, outputs, started)
    except RegimeError:
        raise   # verify's failed checks keep their evidence
    except Exception:
        for path in set(outdir.iterdir()) - before:
            if path.is_file():
                path.unlink()
        raise
    return 0


def run_replay(ap, manifest_path: str, outdir: str) -> argparse.Namespace:
    """The run in `manifest_path`, parsed as the argv `COMMAND --flag=value
    ... --outdir=OUTDIR` with a token for each param that names an option
    of the command; a value the flags refuse is a DataError."""
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
    tokens = [command]
    for key, action in _flags(ap, command).items():
        value, flag = params.get(key), action.option_strings[-1]
        if value is None:
            continue
        # argv is text: a JSON number passes where the flag converts text
        if not (isinstance(value, str) or action.type
                and type(value) in (int, float)):
            raise DataError(f"manifest {p}: argument {flag}: invalid value: "
                            f"{json.dumps(value)}")
        tokens.append(f"{flag}={value}")
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return ap.parse_args([*tokens, f"--outdir={outdir}"])
    except SystemExit:
        reason = err.getvalue().splitlines()[-1].partition(": error: ")[2]
        raise DataError(f"manifest {p}: {reason}") from None


def _flags(ap, command: str) -> dict[str, argparse.Action]:
    """The options of `command`'s parser that take a value, by dest."""
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions
            if isinstance(a, argparse._StoreAction) and a.option_strings}


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
    replay = ns.command == "replay"
    try:
        if replay:
            ns = run_replay(ap, ns.manifest, ns.outdir)
        params = {k: v for k, v in vars(ns).items()
                  if k not in ("command", "outdir")}
        for key, value in params.items():
            # argparse of Python 3.11 reads an option value `--` as []
            require(value not in ([], "--"), key, "not be --", "--")
        return _dispatch(ns.command, params, Path(ns.outdir))
    except ParamError as exc:
        # a replayed manifest's parameter is data, not a misused flag
        action = None if replay else _flags(ap, ns.command).get(exc.name)
        if action is None:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"usage error: {action.option_strings[-1]} must {exc.rule}, "
              f"got {exc.value!r}", file=sys.stderr)
        return 2
    except (DataError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:   # the readers raise DataError: this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
