"""Shared primitives: signals, RNG streams, regression, normal quantiles, CSV I/O."""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np


class LeaderLabError(Exception):
    """Base class for all errors raised by this package."""


class DataError(LeaderLabError):
    """Invalid or degenerate input data."""


class RegimeError(LeaderLabError):
    """A parameter lies outside the validity region of the requested result."""


class NonConvergenceError(LeaderLabError):
    """An iterative routine failed to reach its tolerance."""


class ParamError(DataError):
    """A parameter breaks its rule; `name` is the dest of the flag that sets
    it (`A_grid` for `--A-grid`), so a frontend can name the flag."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name} must {rule}, got {value!r}")
        self.name, self.rule, self.value = name, rule, value

    def __reduce__(self):
        # pickled from a worker process, it is rebuilt from its parts
        return type(self), (self.name, self.rule, self.value)


def require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ParamError unless `ok`: `value` of `name` must `rule`."""
    if not ok:
        raise ParamError(name, rule, value)


def check_level(name: str, value) -> None:
    """Refuse a significance or confidence level outside 0 < value < 1
    (NaN fails)."""
    require(0.0 < value < 1.0, name, "lie in (0, 1)", value)


def check_count(name: str, value) -> None:
    """Refuse a count (of draws, paths, realizations ...) that is not an
    integer >= 1; a replicate count B has its own cap, `_check_replicates`."""
    require(isinstance(value, Integral) and value >= 1, name,
            "be an integer >= 1", value)


# most replicates a bootstrap or permutation test may draw; both hold all B
# replicates in memory at once (8 MB of bootstrap statistics at the cap)
_MAX_REPLICATES = 10 ** 6


def _check_replicates(B) -> None:
    """Refuse a replicate count B that is not an integer in
    [1, _MAX_REPLICATES]."""
    require(isinstance(B, Integral) and 1 <= B <= _MAX_REPLICATES, "B",
            f"be an integer in [1, {_MAX_REPLICATES}]", B)


def check_rng(name: str, rng, use: str) -> None:
    """Refuse a missing RngSpec where `use` draws random numbers."""
    require(rng is not None, name, f"be given for {use}", rng)


def check_sample(samples, min_size: int) -> np.ndarray:
    """The sample as a float 1-d array of at least `min_size` values, all
    finite; anything else is a DataError, not a ParamError, since a sample
    is data and its values do not belong in the message."""
    try:
        x = np.asarray(samples, dtype=float)
    except (TypeError, ValueError):
        raise DataError("sample is not an array of numbers") from None
    if x.ndim != 1:
        raise DataError(f"expected a 1-d sample, got {x.ndim} dimensions")
    if x.size < min_size:
        raise DataError(f"need at least {min_size} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DataError("sample contains NaN or Inf")
    return x


@dataclass(frozen=True)
class RngSpec:
    """Deterministic random stream identifier.

    The same (seed, stream_id) always reproduces the same draws; distinct
    stream_ids index statistically independent streams of the same seed.
    Streams are backed by the counter-based Philox generator, so parallel
    realizations are reproducible regardless of scheduling.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        require(0 <= int(self.seed) < 2 ** 64, "seed",
                "lie in [0, 2^64)", self.seed)
        require(int(self.stream_id) >= 0, "stream_id", "be >= 0",
                self.stream_id)

    def generator(self, *path: int) -> np.random.Generator:
        """Generator for this stream; extra path integers derive substreams."""
        ss = np.random.SeedSequence(entropy=int(self.seed),
                                    spawn_key=(int(self.stream_id), *map(int, path)))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, offset: int) -> "RngSpec":
        return RngSpec(self.seed, self.stream_id + int(offset))

    def to_dict(self) -> dict:
        return {"seed": int(self.seed), "stream_id": int(self.stream_id)}


@dataclass
class Signal:
    """A uniformly sampled real time series.

    Parameters
    ----------
    samples : ndarray
        Signal values, at least 2, all finite.
    t0 : float
        Time of the first sample (arbitrary units).
    dt : float
        Sampling step, > 0.
    label : str
        Free-form description, carried through outputs.
    """

    samples: np.ndarray
    t0: float = 0.0
    dt: float = 1.0
    label: str = ""

    def __post_init__(self):
        self.samples = check_sample(self.samples, 2)
        require(self.dt > 0, "dt", "be > 0", self.dt)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return _sample_times(self.t0, self.dt, self.samples.size)


def _sample_times(t0, dt, n: int) -> np.ndarray:
    return t0 + dt * np.arange(n)


@dataclass
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float


def linfit(x, y) -> RegressionFit:
    """Ordinary least squares fit of y on x.

    Returns slope, intercept and R^2 = 1 - SS_res/SS_tot, clipped to
    [0, 1]; where SS_tot is 0, R^2 is 1 for negligible residuals and 0
    otherwise.  A constant y whose mean rounds has a tiny SS_tot > 0, so
    its R^2 may read anything in [0, 1].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("x and y must be 1-d arrays of the same length")
    return RegressionFit(*(float(a[0]) for a in _linfit_rows(x, y[None])))


def _linfit_rows(x: np.ndarray, y: np.ndarray):
    """`linfit` of every row of `y` (shape (N, k)) on the one `x` (k,):
    arrays of N slopes, intercepts and R^2.  Sums run along each row, so
    every row reads the bits that a 1-d `linfit` of it reads."""
    if x.size < 2:
        raise DataError("need at least 2 points")
    y = np.ascontiguousarray(y)
    xm = x.mean()
    dx = x - xm
    sxx = np.sum(dx ** 2)
    if sxx == 0.0:
        raise DataError("x is constant; slope undefined")
    ym = y.mean(axis=-1)
    dy = y - ym[:, None]
    sxy = np.sum(dx * dy, axis=-1)
    with np.errstate(all="ignore"):   # as silent as float division
        slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (intercept[:, None] + slope[:, None] * x)
    ss_res = np.sum(resid ** 2, axis=-1)
    ss_tot = np.sum(dy ** 2, axis=-1)
    pos = ss_tot > 0.0
    r2 = np.empty_like(ss_tot)
    with np.errstate(all="ignore"):
        r2[pos] = np.clip(1.0 - ss_res[pos] / ss_tot[pos], 0.0, 1.0)
    # SS_tot = 0 (or NaN): a perfect fit, unless the residuals say otherwise
    flat = ~pos
    r2[flat] = ss_res[flat] <= 1e-28 * np.fmax(
        1.0, np.sum(y[flat] ** 2, axis=-1))
    return slope, intercept, r2


# Acklam's rational approximation to the normal quantile (relative error
# below 1.15e-9), then one Newton step on the CDF. The step is limited by the
# rounding of the CDF, about 1e-16 / pdf(x) near p = 1: the error against
# scipy.special.ndtri is below 1e-14 for 1e-308 <= p <= 1 - 1e-3, below
# 1e-11 up to 1 - 1e-6, and 8.4e-9 at p = 1 - 2.8e-14 (subnormal p: 0.03).
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


# Cephes ndtr.c (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the routine scipy.special.erfc runs for floats: erf as
# x T(x^2)/U(x^2) below |x| = 1, erfc as exp(-x^2) P(|x|)/Q(|x|) below 8 and
# exp(-x^2) R(|x|)/S(|x|) above, 0 or 2 once x^2 > MAXLOG. The denominators
# carry the leading 1 that Cephes' p1evl implies; np.polyval then runs
# Cephes' Horner steps (its first step, 0 x + c0, is exact for finite x).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _erfc(x):
    """erfc, bit for bit the Cephes routine of `scipy.special.erfc`: the
    same coefficients, branches and order of operations. exp(-x^2) is
    libm's `math.exp`, point by point, because numpy's vectorized `np.exp`
    may differ from it in the last bit."""
    x = np.asarray(x, dtype=float)
    v = x.ravel()
    a = np.abs(v)
    with np.errstate(over="ignore"):
        sq = v * v
    out = np.where(v < 0.0, 2.0, 0.0)   # erfc where x^2 > MAXLOG
    out[np.isnan(v)] = np.nan
    small = a < 1.0
    if small.any():
        s, z = v[small], sq[small]
        out[small] = 1.0 - s * np.polyval(_ERF_T, z) / np.polyval(_ERF_U, z)
    for m, num, den in (((a >= 1.0) & (a < 8.0), _ERFC_P, _ERFC_Q),
                        ((a >= 8.0) & (sq <= _MAXLOG), _ERFC_R, _ERFC_S)):
        if m.any():
            s, am = v[m], a[m]
            e = np.fromiter(map(math.exp, (-sq[m]).tolist()), float, s.size)
            y = e * np.polyval(num, am) / np.polyval(den, am)
            out[m] = np.where(s < 0.0, 2.0 - y, y)
    return out.reshape(x.shape)


def normal_cdf(x):
    """Standard normal CDF as 0.5 erfc(-x / sqrt 2); equal bit for bit to
    that expression with `scipy.special.erfc`."""
    x = np.asarray(x, dtype=float)
    return 0.5 * _erfc(-x / math.sqrt(2.0))


def standard_normal_quantile(p):
    """Inverse standard normal CDF, absolute error below 1e-11 for p from
    1e-308 to 1 - 1e-6, below 1e-8 up to the largest float below 1, and
    below 1e-7 for subnormal p.

    Accepts a scalar or array of probabilities in the open interval (0, 1).
    """
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    require(np.all((p_arr > 0.0) & (p_arr < 1.0)), "p",
            "lie strictly inside (0, 1)", p)

    plow = 0.02425
    x = np.empty_like(p_arr)

    lo = p_arr < plow
    hi = p_arr > 1.0 - plow
    mid = ~(lo | hi)
    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(p_arr[lo]))
        x[lo] = np.polyval(_ACK_C, q) / (np.polyval(_ACK_D, q) * q + 1.0)
    if np.any(hi):
        q = np.sqrt(-2.0 * np.log(1.0 - p_arr[hi]))
        x[hi] = -np.polyval(_ACK_C, q) / (np.polyval(_ACK_D, q) * q + 1.0)
    if np.any(mid):
        q = p_arr[mid] - 0.5
        r = q * q
        x[mid] = (np.polyval(_ACK_A, r) * q
                  / (np.polyval(_ACK_B, r) * r + 1.0))

    # one Newton refinement on the CDF, skipped where the density is
    # subnormal (p below about 1e-308): there it would divide subnormal
    # differences by a subnormal density, and the start is nearer
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    step = pdf >= np.finfo(float).tiny
    x[step] -= (normal_cdf(x[step]) - p_arr[step]) / pdf[step]
    return float(x[0]) if scalar else x


def write_csv(path, header, rows) -> str:
    """Write a table as CSV: a header line, then one line per row, with `\\n`
    endings in UTF-8.  Floats are written at 17 significant digits, so they
    read back exactly; None is an empty cell; anything else goes through
    `str`, quoted as RFC 4180 has it when it holds `,`, `"`, CR or LF.
    Every row must have one cell per header name.
    """
    width = len(header)
    cells = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row {row!r} does not have {width} cells")
        cells.extend(row)
    # an all-float column stays numeric for one %-format of the whole
    # table; any other column is made text cell by cell
    specs = []
    for i in range(width):
        col = cells[i::width]
        if all(isinstance(v, float) for v in col):
            specs.append("%.17g")
            continue
        specs.append("%s")
        cells[i::width] = ["" if v is None else "%.17g" % v
                           if isinstance(v, float) else _csv_text(str(v))
                           for v in col]
    body = (",".join(specs) + "\n") * (len(cells) // width) % tuple(cells)
    Path(path).write_text(",".join(header) + "\n" + body, encoding="utf-8")
    return str(path)


def _csv_text(text: str) -> str:
    quote = any(c in text for c in ',"\r\n')
    return '"%s"' % text.replace('"', '""') if quote else text


def write_json(path, doc) -> str:
    """Write `doc` as JSON indented 2 with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return str(path)


def write_signal(signal: Signal, path, sidecar: dict | None = None) -> list[str]:
    """Write a signal as `t,value` CSV; optional JSON sidecar with metadata.

    The file is one `%`-format of the samples, made from `Signal.times` once
    per (t0, dt, n) and kept for the next call, since every member of an
    ensemble shares its time axis; a worker process forked after the first
    call inherits the format.  Returns the list of paths written.
    """
    path = Path(path)
    path.write_text(_signal_format(signal.t0, signal.dt, len(signal))
                    % tuple(signal.samples.tolist()), encoding="utf-8")
    written = [str(path)]
    if sidecar is not None:
        meta = {"label": signal.label, "t0": signal.t0, "dt": signal.dt}
        meta.update(sidecar)
        written.append(write_json(path.with_suffix(path.suffix + ".json"),
                                  meta))
    return written


@functools.lru_cache(maxsize=1)
def _signal_format(t0, dt, n: int) -> str:
    """The `t,value` CSV of the time axis (t0, dt, n), as `write_csv` writes
    it, with a `%.17g` slot for each value."""
    return "t,value\n" + "".join("%.17g,%%.17g\n" % t for t in
                                  _sample_times(t0, dt, n).tolist())


def read_signal(path) -> Signal:
    """Read a `t,value` CSV or a headerless file whose first column holds
    the samples (dt = 1).  Cells are parsed by `np.loadtxt`; blank lines
    are skipped, `#` is not a comment and extra columns are ignored.  A `t`
    column must be evenly spaced, to within the rounding of its times; it
    sets t0, and dt where the sidecar's dt (1 without one) strays from it.

    The file's first two non-blank lines give the header.  numpy then
    reads a regular `.csv` file from its path, in chunks in C.  Any other
    file, and one numpy refuses, goes the text route: numpy reads the open
    file's remaining non-blank lines, one by one in Python.  Both routes
    accept the same files and read the same bits.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such signal file: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            # numpy skips empty lines but not lines of blanks
            lines = filter(str.strip, fh)
            head = list(itertools.islice(lines, 2))
            if not head:
                raise DataError(f"empty signal file: {path}")
            label = path.stem
            t0, dt = 0.0, 1.0

            side = path.with_suffix(path.suffix + ".json")
            if side.exists():
                try:
                    meta = json.loads(side.read_text(encoding="utf-8"))
                    label = meta.get("label", label)
                    t0 = float(meta.get("t0", t0))
                    dt = float(meta.get("dt", dt))
                except (OSError, ValueError, TypeError,
                        AttributeError) as exc:
                    raise DataError(f"malformed sidecar {side}: {exc}") from exc

            header = "".join(head[0].split()).lower().startswith("t,value")
            if header and len(head) < 2:
                raise DataError(f"no data rows under the header in {path}")
            cells = dict(delimiter=",", comments=None, ndmin=2,
                         encoding="utf-8", usecols=(0, 1) if header else 0)
            data = None
            # numpy unpacks a path named `.gz`, `.bz2`, `.xz` or `.lzma`,
            # and a pipe cannot be read twice.  From the path, numpy refuses
            # a line of blanks, a header under blank lines and a byte that
            # is not UTF-8, each of which the lines below settle.
            if path.suffix.lower() == ".csv" and path.is_file():
                with contextlib.suppress(ValueError):
                    data = np.loadtxt(path, skiprows=int(header), **cells)
            if data is None:
                data = np.loadtxt(itertools.chain(head[int(header):], lines),
                                  **cells)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read signal file {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"malformed CSV in {path}: {exc}") from exc
    if header and data.shape[0] >= 2:
        # evenly spaced: every time within 1e-9 of the span, plus 8 ulps of
        # the largest time for the rounding of `%.17g` times, of the line
        # from the first time to the last; a time that is not finite fails
        t, n = data[:, 0], data.shape[0]
        with np.errstate(all="ignore"):
            tol = 1e-9 * abs(t[-1] - t[0]) + 8 * np.spacing(np.abs(t).max())
            even = np.abs(t - np.linspace(t[0], t[-1], n)) <= tol
        if not even.all():
            raise DataError(f"the t column of {path} is not evenly spaced")
        # dt: the sidecar's, else the first step, else the mean step,
        # whichever first leads from the first time to the last
        for dt in (dt, t[1] - t[0], (t[-1] - t[0]) / (n - 1)):
            if abs(t[0] + dt * (n - 1) - t[-1]) <= tol:
                break
        t0, dt = float(t[0]), float(dt)
    return Signal(np.ascontiguousarray(data[:, -1]), t0=t0, dt=dt, label=label)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)


def _map_files(fn, jobs, count: int) -> list:
    """`[fn(*job) for job in jobs]`, the calls made on worker processes
    forked from this one, one per usable CPU and at most one per job.

    `jobs` yields `count` argument tuples, each led by the file its call
    reads or writes.  They are drawn here, in order, at most two per worker
    ahead of the results, so a lazy `jobs` is never held whole.  Results
    come in job order, and the first job in that order to fail raises its
    own exception, as the loop does, once the calls under way have ended
    and the rest are dropped.  A worker that dies is a DataError naming the
    first file in order whose call had not finished.  With one worker, or
    without `fork`, the loop runs in this process.
    """
    workers = min(_usable_cpus(), count)
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results, pending = [], collections.deque()

    def collect():
        results.append(pending[0][1].result())
        pending.popleft()

    # forked, the workers inherit `fn` and need not pickle it
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_set_worker_fn, initargs=(fn,))
    try:
        try:
            for job in jobs:
                pending.append((job[0], pool.submit(_call_worker_fn, *job)))
                if len(pending) >= 2 * workers:
                    collect()
        finally:
            # in job order: a failed call raises again, and its error comes
            # before that of drawing a later job
            while pending:
                collect()
    except BrokenProcessPool:
        path = pending[0][0] if pending else job[0]
        raise DataError(f"a worker process died before it finished {path}"
                        ) from None
    finally:
        pool.shutdown(cancel_futures=True)
    return results


_worker_fn = None


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(*args):
    return _worker_fn(*args)
