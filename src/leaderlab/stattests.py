"""Distributional tests for log-leaders: Shapiro-Wilk normality testing,
normal QQ-plot data, the univariate log-concave maximum-likelihood density
estimator with exact sampling, and the permutation test of log-concavity
built on the ball-discrepancy statistic.

The tests treat their input as an i.i.d. sample.  Log-leaders within a scale
are dependent in general; the procedures here are applied to them as-is,
which is the standard practice this package reproduces, and the caveat is
deliberately not corrected for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DataError, NonConvergenceError, RngSpec,
                   _check_replicates, check_count, check_level, check_rng,
                   check_sample, normal_cdf, standard_normal_quantile)

__all__ = [
    "TestReport", "shapiro_wilk", "qq_data", "LogConcaveMLE",
    "fit_logconcave_mle", "sample_from_mle", "interval_discrepancy",
    "logconcavity_test",
]

_TOL_CONCAVITY = 1e-9   # largest kink a fitted log-concave MLE may show
_MAX_OUTER = 200        # active-set passes of the MLE
_MAX_INNER = 200        # Newton steps per active-set pass


@dataclass
class TestReport:
    """Outcome of one hypothesis test run."""

    name: str
    statistic: float
    p_value: float | None
    rejected: bool
    n: int
    B: int | None = None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston's AS R94 approximation, valid for 3 <= n <= 5000)

_SW_C1 = (-2.706056, 4.434685, -2.07119, -0.147981, 0.221157, 0.0)
_SW_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_SW_C3 = (-0.0006714, 0.025054, -0.39978, 0.544)
_SW_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_SW_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_SW_C6 = (0.0030302, -0.082676, -0.4803)


def _sw_coefficients(n: int) -> np.ndarray:
    """Expected-normal-order-statistic weights with Royston's end corrections."""
    if n == 3:
        return np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    m = standard_normal_quantile((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    ssq = float(np.sum(m * m))
    rsn = 1.0 / math.sqrt(n)
    a_top = float(np.polyval(_SW_C1, rsn)) + m[-1] / math.sqrt(ssq)
    a = np.empty(n)
    if n > 5:
        a_top2 = float(np.polyval(_SW_C2, rsn)) + m[-2] / math.sqrt(ssq)
        fac = math.sqrt((ssq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2)
                        / (1.0 - 2.0 * a_top ** 2 - 2.0 * a_top2 ** 2))
        a[2:n - 2] = m[2:n - 2] / fac
        a[-1], a[-2] = a_top, a_top2
        a[0], a[1] = -a_top, -a_top2
    else:
        fac = math.sqrt((ssq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_top ** 2))
        a[1:n - 1] = m[1:n - 1] / fac
        a[-1] = a_top
        a[0] = -a_top
    return a


def _sw_pvalue(w: float, n: int) -> float:
    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return min(max(p, 0.0), 1.0)
    w1 = max(1.0 - w, 1e-300)
    if n <= 11:
        gamma = 0.459 * n - 2.273
        y = math.log(w1)
        if y >= gamma:
            return 1e-99
        y = -math.log(gamma - y)
        mu = float(np.polyval(_SW_C3, float(n)))
        sigma = math.exp(np.polyval(_SW_C4, float(n)))
    else:
        y = math.log(w1)
        ln_n = math.log(n)
        mu = float(np.polyval(_SW_C5, ln_n))
        sigma = math.exp(np.polyval(_SW_C6, ln_n))
    z = (y - mu) / sigma
    return float(1.0 - normal_cdf(z))


def shapiro_wilk(samples, alpha: float = 0.05,
                 rng: RngSpec | None = None) -> TestReport:
    """Shapiro-Wilk normality test.

    Samples larger than 5000 (the validity limit of the approximation) are
    first subsampled without replacement to 5000 using `rng`; the report
    records whether that happened.
    """
    check_level("alpha", alpha)
    x = check_sample(samples, 3)
    n0 = x.size
    subsampled = False
    if n0 > 5000:
        check_rng("rng", rng, "subsampling above 5000 points")
        idx = rng.generator(0).choice(n0, size=5000, replace=False)
        x = x[idx]
        subsampled = True
    x = np.sort(x)
    n = x.size
    if x[-1] - x[0] <= 0.0:
        raise DataError("constant sample: W undefined")
    a = _sw_coefficients(n)
    num = float(np.dot(a, x)) ** 2
    den = float(np.sum((x - x.mean()) ** 2))
    w = min(num / den, 1.0)
    p = _sw_pvalue(w, n)
    return TestReport(name="shapiro_wilk", statistic=w, p_value=p,
                      rejected=p < alpha, n=n,
                      details={"subsampled": subsampled, "n_original": n0})


def qq_data(samples) -> np.ndarray:
    """Pairs (standard normal quantile at (i-0.5)/n, order statistic x_(i))
    for plotting the sample against the normal reference; the input is used
    as-is, so standardize beforehand when a unit reference line is wanted."""
    x = np.sort(check_sample(samples, 2))
    theo = standard_normal_quantile((np.arange(1, x.size + 1) - 0.5) / x.size)
    return np.column_stack([theo, x])


# ---------------------------------------------------------------------------
# Log-concave maximum likelihood (active-set Newton on knot values)

def _exp_segment_integrals(a, b):
    """I0, I1, I2 = int_0^1 u^p exp((1-u) a + u b) du for p = 0, 1, 2.

    Closed forms with series fallbacks near a = b, accurate to ~1e-13
    relative throughout.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    small = np.abs(d) < 1e-3
    ds = np.where(small, d, 0.0)
    ea = np.exp(a)
    i0_s = ea * (1.0 + ds / 2 + ds ** 2 / 6 + ds ** 3 / 24 + ds ** 4 / 120)
    i1_s = ea * (0.5 + ds / 3 + ds ** 2 / 8 + ds ** 3 / 30 + ds ** 4 / 144)
    i2_s = ea * (1.0 / 3 + ds / 4 + ds ** 2 / 10 + ds ** 3 / 36 + ds ** 4 / 168)
    dl = np.where(small, 1.0, d)
    eb = np.exp(b)
    i0_l = (eb - ea) / dl
    i1_l = (eb * (dl - 1.0) + ea) / dl ** 2
    i2_l = (eb * (dl ** 2 - 2.0 * dl + 2.0) - 2.0 * ea) / dl ** 3
    return (np.where(small, i0_s, i0_l), np.where(small, i1_s, i1_l),
            np.where(small, i2_s, i2_l))


@dataclass
class LogConcaveMLE:
    """Piecewise-linear concave log-density with knots at order statistics."""

    knots: np.ndarray
    log_density_at_knots: np.ndarray
    n: int
    objective_path: list = field(default_factory=list)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def log_pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.knots, self.log_density_at_knots)
        lo, hi = self.domain
        return np.where((x < lo) | (x > hi), -np.inf, out)

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def segment_masses(self) -> np.ndarray:
        lengths = np.diff(self.knots)
        i0, _, _ = _exp_segment_integrals(self.log_density_at_knots[:-1],
                                          self.log_density_at_knots[1:])
        return lengths * i0

    def total_mass(self) -> float:
        return float(np.sum(self.segment_masses()))

    def mean(self) -> float:
        lengths = np.diff(self.knots)
        a = self.log_density_at_knots[:-1]
        b = self.log_density_at_knots[1:]
        i0, i1, _ = _exp_segment_integrals(a, b)
        return float(np.sum(self.knots[:-1] * lengths * i0 + lengths ** 2 * i1))


class _MLEProblem:
    """State for the active-set solver on distinct points y with weights w."""

    def __init__(self, y: np.ndarray, w: np.ndarray):
        self.y = y
        self.w = w
        self.m = y.size

    def data_weights(self, knots_idx: np.ndarray) -> np.ndarray:
        """Weight each knot receives from the linear-interpolation data term."""
        yk = self.y[knots_idx]
        seg = np.clip(np.searchsorted(yk, self.y, side="right") - 1, 0,
                      yk.size - 2)
        theta = (self.y - yk[seg]) / (yk[seg + 1] - yk[seg])
        aw = np.zeros(yk.size)
        np.add.at(aw, seg, self.w * (1.0 - theta))
        np.add.at(aw, seg + 1, self.w * theta)
        return aw

    def objective(self, knots_idx: np.ndarray, v: np.ndarray,
                  aw: np.ndarray) -> float:
        yk = self.y[knots_idx]
        lengths = np.diff(yk)
        i0, _, _ = _exp_segment_integrals(v[:-1], v[1:])
        return float(np.dot(aw, v) - np.sum(lengths * i0))

    def grad_hess(self, knots_idx: np.ndarray, v: np.ndarray,
                  aw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the objective and Hessian of the integral term."""
        yk = self.y[knots_idx]
        k = yk.size
        lengths = np.diff(yk)
        i0, i1, i2 = _exp_segment_integrals(v[:-1], v[1:])
        grad = aw.copy()
        grad[:-1] -= lengths * (i0 - i1)
        grad[1:] -= lengths * i1
        hess = np.zeros((k, k))
        d_pp = lengths * (i0 - 2.0 * i1 + i2)
        d_qq = lengths * i2
        d_pq = lengths * (i1 - i2)
        idx = np.arange(k - 1)
        hess[idx, idx] += d_pp
        hess[idx + 1, idx + 1] += d_qq
        hess[idx, idx + 1] += d_pq
        hess[idx + 1, idx] += d_pq
        return grad, hess


def _kinks(yk: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Right-slope minus left-slope at interior knots (feasible when <= 0)."""
    slopes = np.diff(v) / np.diff(yk)
    return slopes[1:] - slopes[:-1]


def _constraint_multipliers(prob: "_MLEProblem", knots_idx: np.ndarray,
                            v: np.ndarray) -> np.ndarray:
    """Multipliers of the straightness constraints at non-knot points.

    In full coordinates the objective gradient is g_j = w_j - (integral of
    the local hat function against exp(phi)), and stationarity reads
    g_j = (lam_{j+1}-lam_j)/h_j - (lam_j-lam_{j-1})/h_{j-1} with lam = 0 at
    knots, a per-segment Dirichlet problem solved by double cumulative
    summation.  Entries at knot positions are returned as 0.
    """
    y, w = prob.y, prob.w
    m = y.size
    v_full = np.interp(y, y[knots_idx], v)
    h = np.diff(y)
    i0, i1, _ = _exp_segment_integrals(v_full[:-1], v_full[1:])
    # hat integral at j: rising part over [j-1, j] plus falling part over [j, j+1]
    rise = h * i1                       # weight toward the right end of a segment
    fall = h * (i0 - i1)                # weight toward the left end
    tent = np.zeros(m)
    tent[1:] += rise
    tent[:-1] += fall
    g = w - tent
    lam = np.zeros(m)
    for a, b in zip(knots_idx, knots_idx[1:]):
        if b - a < 2:
            continue
        idx = np.arange(a + 1, b)
        big_g = np.cumsum(g[idx])
        hh = h[a:b]                     # h_a .. h_{b-1}
        # lam slope u_j = u_a + G_j;  sum h_j u_j = lam_b - lam_a = 0
        u0 = -(float(np.dot(hh[1:], big_g))) / float(np.sum(hh))
        u = np.concatenate([[u0], u0 + big_g])
        lam[idx] = np.cumsum(hh[:-1] * u[:-1])
    return lam


def fit_logconcave_mle(samples) -> LogConcaveMLE:
    """Maximum-likelihood log-concave density of a univariate sample.

    Maximizes (1/n) sum_i phi(X_i) - integral exp(phi) over concave phi; the
    optimum is piecewise linear with knots among the order statistics, found
    by an active-set method: Newton steps over the values at the current
    knots, dropping a knot whenever its concavity constraint becomes active
    and inserting the point with the largest positive bending derivative.
    The objective never decreases across iterations, and the fitted density
    integrates to one up to solver tolerance.

    The last fit is kept, keyed on the exact float64 bytes of the sample, so
    fitting the same sample again (as `logconcavity_test` does after a fit)
    returns it without a second solve.  Each call returns a new model with
    its own arrays and path; a refused sample is refused on every call.
    """
    x = check_sample(samples, 2)
    # the sample is 1-d here, so its bytes fix its shape too
    knots, values, path = _last_fit(x.tobytes())
    return LogConcaveMLE(knots=knots.copy(),
                         log_density_at_knots=values.copy(), n=x.size,
                         objective_path=list(path))


@functools.lru_cache(maxsize=1)
def _last_fit(data: bytes) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Knots, log-density values and objective path of the fit of the sample
    whose float64 bytes are `data`, kept read-only for the next call; a
    raised error is not kept."""
    model = _active_set(np.frombuffer(data))
    model.knots.flags.writeable = False
    model.log_density_at_knots.flags.writeable = False
    return (model.knots, model.log_density_at_knots,
            tuple(model.objective_path))


def _active_set(x: np.ndarray) -> LogConcaveMLE:
    """The active-set solve of `fit_logconcave_mle` on a finite 1-d sample."""
    n = x.size
    y, counts = np.unique(x, return_counts=True)
    if y.size < 2:
        raise DataError("all samples identical: no density to fit")
    w = counts.astype(float) / n
    prob = _MLEProblem(y, w)
    m = y.size

    knots = np.array([0, m - 1])
    v = np.full(2, -math.log(y[-1] - y[0]))
    aw = prob.data_weights(knots)
    path: list[float] = [prob.objective(knots, v, aw)]

    for _outer in range(_MAX_OUTER):
        # inner solve over the current knot set; terminates when Newton can
        # no longer raise the objective (optimality is judged by the outer
        # multiplier scan, not by the coordinate gradient, whose scale blows
        # up on the tiny segments between adjacent order statistics)
        stall = 0
        for _inner in range(_MAX_INNER):
            grad, hess = prob.grad_hess(knots, v, aw)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * max(np.trace(hess), 1.0)
                step = np.linalg.solve(hess + ridge * np.eye(hess.shape[0]),
                                       grad)
            gnorm = float(np.max(np.abs(grad)))
            if gnorm < 1e-11:
                break
            yk = prob.y[knots]
            kink0 = _kinks(yk, v)
            kink_d = _kinks(yk, v + step) - kink0
            with np.errstate(divide="ignore", invalid="ignore"):
                bounds = np.where(kink_d > 0, -kink0 / kink_d, np.inf)
            t_max = float(np.min(bounds)) if bounds.size else math.inf
            if t_max < 1e-13:
                # a constraint is already active: drop that knot, no step
                blocked = int(np.argmin(bounds)) + 1
                knots = np.delete(knots, blocked)
                v = np.delete(v, blocked)
                aw = prob.data_weights(knots)
                continue
            t = min(1.0, t_max)
            f0 = prob.objective(knots, v, aw)
            f_new = -math.inf
            for _ in range(60):
                f_new = prob.objective(knots, v + t * step, aw)
                if f_new >= f0:
                    break
                t *= 0.5
            if f_new < f0:
                break  # no ascent representable in float: inner is done
            v = v + t * step
            hit_boundary = t_max <= 1.0 and t == t_max
            path.append(f_new)
            if hit_boundary:
                yk = prob.y[knots]
                kinks = _kinks(yk, v)
                drop = np.where(kinks > -1e-15)[0] + 1
                if drop.size:
                    knots = np.delete(knots, drop)
                    v = np.delete(v, drop)
                    aw = prob.data_weights(knots)
                continue
            if f_new - f0 < 1e-13 * max(1.0, abs(f0)):
                stall += 1
                if stall >= 2:
                    break
            else:
                stall = 0

        # exact renormalization: shifting phi by -log(mass) is the optimal
        # constant adjustment, so it never decreases the objective and pins
        # the total mass to 1 up to rounding
        yk = prob.y[knots]
        mass = float(np.sum(np.diff(yk)
                            * _exp_segment_integrals(v[:-1], v[1:])[0]))
        if mass > 0 and abs(mass - 1.0) > 1e-15:
            v = v - math.log(mass)
            path.append(prob.objective(knots, v, aw))

        # KKT scan: Lagrange multipliers of the active (no-kink) constraints;
        # a negative multiplier marks a point where a downward bend raises
        # the objective, so that point becomes a knot
        best_i, best_score = -1, -_TOL_CONCAVITY
        lam = _constraint_multipliers(prob, knots, v)
        worst = int(np.argmin(lam))
        if lam[worst] < best_score:
            best_i, best_score = worst, float(lam[worst])
        if best_i < 0:
            break
        pos = int(np.searchsorted(knots, best_i))
        yk = prob.y[knots]
        seg = pos - 1
        frac = (prob.y[best_i] - yk[seg]) / (yk[seg + 1] - yk[seg])
        v_new = v[seg] + frac * (v[seg + 1] - v[seg])
        knots = np.insert(knots, pos, best_i)
        v = np.insert(v, pos, v_new)
        aw = prob.data_weights(knots)
    else:
        raise NonConvergenceError(
            f"active set did not settle after {_MAX_OUTER} passes "
            f"(last insertion score {best_score:.3e})")

    model = LogConcaveMLE(knots=prob.y[knots], log_density_at_knots=v, n=n,
                          objective_path=path)
    mass = model.total_mass()
    if abs(mass - 1.0) > 1e-6:
        raise NonConvergenceError(
            f"fitted density mass {mass} deviates from 1 beyond tolerance")
    kinks = _kinks(model.knots, model.log_density_at_knots)
    if kinks.size and float(np.max(kinks)) > _TOL_CONCAVITY:
        raise NonConvergenceError(
            f"concavity violated by {float(np.max(kinks)):.3e}")
    return model


def _sample_from_mle(model: LogConcaveMLE, n: int,
                     gen: np.random.Generator) -> np.ndarray:
    masses = model.segment_masses()
    probs = masses / masses.sum()
    seg = gen.choice(probs.size, size=n, p=probs)
    u = gen.random(n)
    yk = model.knots
    v = model.log_density_at_knots
    lengths = np.diff(yk)
    slopes = np.diff(v) / lengths
    s = slopes[seg]
    ln = lengths[seg]
    flat = np.abs(s * ln) < 1e-12
    with np.errstate(over="ignore"):
        inv = np.where(flat, u * ln,
                       np.log1p(u * np.expm1(np.where(flat, 0.0, s * ln)))
                       / np.where(flat, 1.0, s))
    return yk[seg] + inv


def sample_from_mle(model: LogConcaveMLE, n: int, rng: RngSpec) -> np.ndarray:
    """Exact draws from a fitted log-concave density: segment selection by
    closed-form masses, then inversion of the exponential-linear CDF."""
    check_count("n", n)
    return _sample_from_mle(model, n, rng.generator(0))


# ---------------------------------------------------------------------------
# Ball-discrepancy statistic and the permutation test of log-concavity

_CHUNK_ELEMENTS = 2 ** 18
# bytes that the bitmap, label rows and prefix sums of one pooled sample may
# take: level 2 of a 2^15-sample signal (m ~ 16380, a 268 MB bitmap) fits,
# level 1 (m ~ 32760, 1.07 GB) does not.  The bitmap alone keeps m below
# 2^15 (at most 23168 at one row), so a prefix sum of m labels of +-1 fits
# int16, whose gathers halve the statistic's time at m ~ 2000
_POOL_BYTES = 2 ** 29


def _ball_geometry(z: np.ndarray) -> np.ndarray:
    """Bitmap of the distinct balls around the sorted, finite pooled sample
    `z`.

    A ball around center i stops growing only where a tie group of equal
    distances is complete, and it then holds exactly the points within that
    distance: on the sorted sample, a contiguous index interval [L, R].  The
    result `balls` has shape (m, m + 1) and balls[L, R + 1] is True iff some
    ball is [L, R]; the bitmap drops the balls that several centers share.

    On the sorted sample the distances z[i] - z[L - 1] to the left and
    z[R + 1] - z[i] to the right of a ball [L, R] around i never decrease
    as the ball grows, so taking the nearer of the two, one point per step,
    adds the points in order of distance.  Every center grows its ball in
    lockstep: after step s each ball holds s + 1 points, and it is recorded
    when the next point is strictly farther than the last one added, so
    the order within a tie group does not matter.  The ball of the whole
    sample is recorded at the end: past it lie only sentinels, whose
    distance may tie with one that overflowed to inf.

    The m - 1 steps each work on arrays of length m, so the memory beyond
    the m (m + 1) bytes of the bitmap is O(m).
    """
    m = z.size
    balls = np.zeros((m, m + 1), dtype=bool)
    flat = balls.reshape(-1)
    # ball [hi - s, hi] after step s; its left neighbour is zq[hi + m - s],
    # read through a view that starts at index m - s of zq, and its right
    # one zq[hi + m + 2].  The m + 1 left sentinels lie at distance +inf,
    # the right one at NaN: `dr <= dl` is then False at the right end and
    # True at the left end, even beside a distance that overflowed to inf,
    # so a sentinel is never taken
    zq = np.concatenate([np.full(m + 1, -np.inf), z, [np.nan]])
    right_of = zq[m + 2:]
    hi = np.arange(m)
    last = np.zeros(m)
    nxt = np.empty(m)
    complete = np.empty(m, dtype=bool)
    step_right = np.empty(m, dtype=bool)
    cell = np.empty(m, dtype=np.intp)
    with np.errstate(over="ignore"):
        dl = z - zq[m:2 * m]
        dr = right_of - z
        for s in range(m - 1):
            np.fmin(dl, dr, out=nxt)
            np.greater(nxt, last, out=complete)
            # flat index of balls[hi - s, hi + 1]; an incomplete ball goes
            # to balls[0, 0], which no ball uses
            np.multiply(hi, m + 2, out=cell)
            cell += 1 - s * (m + 1)
            cell *= complete
            flat[cell] = True
            np.less_equal(dr, dl, out=step_right)
            hi += step_right
            np.subtract(z, zq[m - s - 1:][hi], out=dl)
            np.subtract(right_of[hi], z, out=dr)
            last, nxt = nxt, last
    balls[0, 0] = False
    balls[0, m] = True
    return balls


def _batch_interval_stat(balls: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Max over the balls of |sum of labels inside the ball|, for each row
    of `labels` (integer +-1 per pooled point).

    With P the prefix sums of a label row, the sum over the ball [L, R] is
    P[R + 1] - P[L], so all k rows are done at once on a (m + 1, k) int16
    prefix array, which `_POOL_BYTES` keeps from overflowing.  Memory beyond
    the bitmap: that array (2 bytes per entry), the indices of the balls in
    one block of about `_CHUNK_ELEMENTS` bitmap entries (16 bytes per ball),
    and two gathers of at most `_CHUNK_ELEMENTS` prefix entries each,
    whatever k is.

    `_CHUNK_ELEMENTS` is 2^18 so that an int16 gather (512 KB) stays in a
    core's L2 cache while it is subtracted, taken absolute and maxed.  Over
    blocks of 2^14 to 2^23 entries, at k = 100 on a 2-core Xeon with 2 MB
    of L2 per core, the statistic was fastest from 2^17 to 2^19 at
    m = 2036 and m = 1012; 8,000,000 entries (16 MB gathers) took 1.3 and
    1.7 times as long, and 2^14 entries 1.35 times.
    """
    m = balls.shape[0]
    cols = labels.shape[0]
    prefix = np.zeros((m + 1, cols), dtype=np.int16)
    np.cumsum(labels.T, axis=0, dtype=np.int16, out=prefix[1:])
    best = np.zeros(cols, dtype=np.int16)
    rows = max(1, _CHUNK_ELEMENTS // (m + 1))
    per = max(1, _CHUNK_ELEMENTS // cols)
    for start in range(0, m, rows):
        lo, hi = np.nonzero(balls[start:start + rows])
        lo += start
        for a in range(0, lo.size, per):
            diff = prefix[hi[a:a + per]]
            diff -= prefix[lo[a:a + per]]
            np.abs(diff, out=diff)
            np.maximum(best, diff.max(axis=0), out=best)
        # free this block's indices and gather before the next block's
        lo = hi = diff = None
    return best.astype(np.int64)


def _check_pool(n: int, rows: int) -> None:
    """Refuse, before anything of their size is allocated, two samples of
    n points whose pool's bitmap, `rows` label rows and prefix sums would
    take more than `_POOL_BYTES`."""
    m = 2 * n
    need = m * (m + 1) + rows * m + (m + 1) * rows * 2
    if need > _POOL_BYTES:
        raise DataError(
            f"samples of n = {n} points pool to {m}, whose ball bitmap, "
            f"{rows} label rows and prefix sums take {need} bytes, above the "
            f"budget of {_POOL_BYTES} bytes")


def _pooled_balls(x: np.ndarray, xstar: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool two samples of equal size n as x then xstar: the bitmap of
    `_ball_geometry` on the sorted pool, the labels +1 (x) and -1 (xstar)
    in pool order, and the stable order that sorts the pool."""
    z = np.concatenate([x, xstar])
    labels = np.repeat(np.array([1, -1], dtype=np.int8), x.size)
    idx = np.argsort(z, kind="stable")
    return _ball_geometry(z[idx]), labels, idx


def interval_discrepancy(x, xstar) -> float:
    """T = sup over r > 0 and centers in the pooled sample of
    |P_n - P*_n| of the open interval (center - r, center + r)."""
    x = check_sample(x, 1)
    xs = check_sample(xstar, 1)
    if x.size != xs.size:
        raise DataError("samples must be of equal size")
    _check_pool(x.size, 1)
    balls, labels, idx = _pooled_balls(x, xs)
    return float(_batch_interval_stat(balls, labels[idx][None, :])[0]) / x.size


def logconcavity_test(samples, B: int = 99, alpha: float = 0.05,
                      rng: RngSpec | None = None) -> TestReport:
    """Permutation test of the hypothesis that the sample density is
    log-concave.

    Fits the log-concave MLE, draws a starred sample of the same size from
    it, computes the ball discrepancy T between the two samples, then builds
    B replicate statistics by randomly relabeling the pooled values.  The
    hypothesis is rejected when T exceeds the ceil((B+1)(1-alpha))-th order
    statistic of the replicates.  `details` holds that threshold, the knot
    count of the MLE and `n_balls`, the number of distinct balls (index
    intervals of the pooled sample) over which T and the replicates are
    maximized.

    B is at most `core._MAX_REPLICATES`, and a sample whose pool's bitmap,
    B + 1 label rows and prefix sums would take more than `_POOL_BYTES`
    (2n up to about 23000 at B = 99) is refused before the fit.
    """
    x = check_sample(samples, 2)
    _check_replicates(B)
    check_rng("rng", rng, "the permutation test")
    check_level("alpha", alpha)
    n = x.size
    _check_pool(n, B + 1)
    model = fit_logconcave_mle(x)
    xstar = _sample_from_mle(model, n, rng.generator(1))
    balls, base, idx = _pooled_balls(x, xstar)

    gen_perm = rng.generator(2)
    labels = np.empty((B + 1, 2 * n), dtype=np.int8)
    labels[0] = base[idx]
    for b in range(1, B + 1):
        labels[b] = gen_perm.permutation(base)
    t_all = _batch_interval_stat(balls, labels)
    t_obs = float(t_all[0]) / n
    t_star = np.sort(t_all[1:]) / n

    rank = math.ceil((B + 1) * (1.0 - alpha))
    if rank > B:
        threshold = math.inf
    else:
        threshold = float(t_star[rank - 1])
    return TestReport(name="logconcave_permutation", statistic=t_obs,
                      p_value=None, rejected=t_obs > threshold, n=n, B=B,
                      details={"threshold": threshold,
                               "n_knots": int(model.knots.size),
                               "n_balls": int(np.count_nonzero(balls))})
