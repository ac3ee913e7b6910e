import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad
from scipy.special import gammainccinv

from leaderlab import stattests
from leaderlab.core import (DataError, NonConvergenceError, RegressionFit,
                            RngSpec)
from leaderlab.synth import GenGaussianParams
from leaderlab.wavelet import (CoefficientPyramid, LeaderPyramid,
                               hmin_regression)

# the same examples on every run, whatever the .hypothesis/ database holds
settings.register_profile("leaderlab", derandomize=True, deadline=None)
settings.load_profile("leaderlab")


@pytest.fixture
def rng():
    return RngSpec(123456789)


def build_pyramid(arrays):
    """Pyramid from a list of arrays ordered finest (level 1) to coarsest."""
    coeffs = {j + 1: np.asarray(a, dtype=float) for j, a in enumerate(arrays)}
    return CoefficientPyramid(coeffs=coeffs)


def brute_force_leaders(pyramid, variant):
    """Enumerate every dyadic inclusion: the level-j cube at position k
    covers fine-level cells [k 2^(j-1), (k+1) 2^(j-1)) in level-1 units."""
    levels = pyramid.levels
    out = {}
    for j in levels:
        n_j = pyramid.n_at(j)
        one = np.zeros(n_j)
        for k in range(n_j):
            best = 0.0
            lo_fine = k * 2 ** (j - 1)
            hi_fine = (k + 1) * 2 ** (j - 1)
            for jp in levels:
                if jp > j:
                    continue
                scale = 2 ** (jp - 1)
                for kp in range(pyramid.n_at(jp)):
                    if kp * scale >= lo_fine and (kp + 1) * scale <= hi_fine:
                        best = max(best, abs(pyramid.coeffs[jp][kp]))
            one[k] = best
        out[j] = one
    if variant == "one_leader":
        return out
    three = {}
    for j in levels:
        arr = out[j]
        three[j] = np.maximum(np.maximum(np.roll(arr, 1), arr),
                              np.roll(arr, -1))
    return three


def naive_periodic_dwt(samples, lo, hi, j_max):
    """Scalar-level periodic filter bank, L1-normalized, for oracle use.

    Returns the details per level and the coarsest approximation; taps are
    summed in filter order, as `dwt` sums them, so the bits agree."""
    approx = np.asarray(samples, dtype=float).copy()
    out = {}
    for j in range(1, j_max + 1):
        m = approx.size
        half = m // 2
        det = np.zeros(half)
        app = np.zeros(half)
        for k in range(half):
            acc_d = 0.0
            acc_a = 0.0
            for t in range(len(lo)):
                acc_d += hi[t] * approx[(2 * k + t) % m]
                acc_a += lo[t] * approx[(2 * k + t) % m]
            det[k] = acc_d
            app[k] = acc_a
        out[j] = det * 2.0 ** (-j / 2.0)
        approx = app
    return out, approx


def naive_periodic_idwt(coeffs, approx, lo, hi):
    """Scalar-level periodic synthesis, coarsest level first, for oracle use.

    out[i] sums, over the taps m with i - m even in filter order, lo[m] times
    the approximation then hi[m] times the detail at (i - m) / 2 modulo the
    level length, as `idwt` sums them."""
    out = np.asarray(approx, dtype=float)
    for j in sorted(coeffs, reverse=True):
        det = np.asarray(coeffs[j], dtype=float) * 2.0 ** (j / 2.0)
        h = out.size
        nxt = np.zeros(2 * h)
        for i in range(2 * h):
            acc = 0.0
            for m in range(len(lo)):
                if (i - m) % 2 == 0:
                    k = ((i - m) // 2) % h
                    acc += lo[m] * out[k]
                    acc += hi[m] * det[k]
            nxt[i] = acc
        out = nxt
    return out


def footprint_valid(n, filt_len, j_max):
    """Wrap masks of a length-n periodic DWT by enumeration: a coefficient
    is clean when every sample it reads, through every finer level, is read
    without wrapping.  A wrapped read stands for the out-of-range sample n."""
    reads = [{t} for t in range(n)]
    out = {}
    for j in range(1, j_max + 1):
        size = len(reads)
        reads = [set().union(*(reads[2 * k + m] if 2 * k + m < size else {n}
                               for m in range(filt_len)))
                 for k in range(size // 2)]
        out[j] = np.array([max(r) < n for r in reads])
    return out


def cone_valid(coef_valid, variant):
    """Leader wrap masks by enumeration from per-level coefficient masks
    (level 1 finest): a leader is clean when every coefficient in its cone,
    the level-j cube and every finer cube inside it, is clean; a
    three_leader also needs the cones of its two periodic neighbours.
    With the masks of `footprint_valid` these are the masks of a DWT."""
    out = {}
    for j in sorted(coef_valid):
        size = coef_valid[j].size
        cone = [all(coef_valid[jp][kp] for jp in range(1, j + 1)
                    for kp in range(k << (j - jp), (k + 1) << (j - jp)))
                for k in range(size)]
        if variant == "three_leader":
            cone = [cone[k - 1] and cone[k] and cone[(k + 1) % size]
                    for k in range(size)]
        out[j] = np.array(cone, dtype=bool)
    return out


def naive_circulant_gaussian(acov, n, gen):
    """Circulant-embedding sample of length n from lags 0..m of `acov`,
    built as a complex vector, for oracle use; it reads the stream as the
    generators do."""
    m = acov.size - 1
    eig = np.clip(np.fft.fft(np.concatenate([acov, acov[-2:0:-1]])).real,
                  0.0, None)
    z = np.zeros(2 * m, dtype=complex)
    z[0] = gen.standard_normal()
    z[m] = gen.standard_normal()
    uv = gen.standard_normal((m - 1, 2))
    z[1:m] = (uv[:, 0] + 1j * uv[:, 1]) / np.sqrt(2.0)
    z[m + 1:] = np.conj(z[1:m][::-1])
    return (np.sqrt(2.0 * m) * np.fft.ifft(np.sqrt(eig) * z).real)[:n]


def inverse_cdf_leader_cdf_monte_carlo(model, A, J, n_paths, rng):
    """Empirical P(leader <= A) over depth-J trees, each level maximum drawn
    by inverse CDF at u^(1/2^j), for oracle use; it reads the stream as
    `leader_cdf_monte_carlo` does and returns the estimate."""
    gen = rng.generator(0)
    inv_beta = 1.0 / model.beta
    best = np.full(n_paths, -np.inf)
    for j in range(J + 1):
        u = gen.random(n_paths)
        # tail prob of the level max: 1 - u^(1/2^j), computed stably
        t = -np.expm1(np.log(u) / 2.0 ** j)
        level_max = gammainccinv(inv_beta, t) ** inv_beta
        best = np.maximum(best, 2.0 ** (-model.alpha * j) * level_max)
    return float(np.mean(best <= A))


def gg_tail_by_quadrature(x, beta):
    """One-sided generalized-Gaussian tail kappa int_x^inf e^(-t^beta) dt by
    adaptive quadrature, for oracle use; it asserts the absolute error
    certificate below 1e-12."""
    gg = GenGaussianParams(beta)
    val, err = quad(lambda t: math.exp(-t ** beta), x, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    assert gg.kappa * err <= 1e-12
    return gg.kappa * val


def argsort_ball_geometry(z):
    """Bitmap of the distinct balls around the sorted sample z, as
    `_ball_geometry` returns it, by sorting every center's distances, for
    oracle use: at each position where the sorted distances strictly
    increase, and at the last, the ball is [running min, running max] of
    the order."""
    d = np.abs(np.subtract.outer(z, z))
    order = np.argsort(d, axis=1)
    ds = np.take_along_axis(d, order, axis=1)
    stops = np.empty(ds.shape, dtype=bool)
    np.greater(ds[:, 1:], ds[:, :-1], out=stops[:, :-1])
    stops[:, -1] = True
    left = np.minimum.accumulate(order, axis=1)
    right = np.maximum.accumulate(order, axis=1) + 1
    balls = np.zeros((z.size, z.size + 1), dtype=bool)
    balls[left, right * stops] = True   # inside a tie group: column 0
    balls[:, 0] = False
    return balls


def scalar_linfit(x, y):
    """OLS of the 1-d y on x with the sums of a 1-d array and the scalar
    steps in Python floats, for oracle use: `linfit` before it fitted
    rows in batches."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    ym = y.mean()
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot > 0.0:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    else:
        r2 = 1.0 if ss_res <= 1e-28 * max(1.0, float(np.sum(y ** 2))) else 0.0
    return RegressionFit(slope=slope, intercept=intercept, r_squared=r2)


def tap_loop_dwt(signal, basis, j_max):
    """`dwt` as one strided slice of the wrapped input per tap, each tap's
    product a new array, for oracle use: the filter bank before it read
    even and odd phases."""
    lo, hi, filt_len = basis.filter_lo, basis.filter_hi, basis.length
    coeffs, clean = {}, {}
    approx = signal.samples.astype(float)
    n_clean = len(signal)
    for j in range(1, j_max + 1):
        m_len = approx.size
        ext = np.concatenate((approx, approx[:filt_len - 1]))
        detail = np.zeros(m_len // 2)
        approx = np.zeros(m_len // 2)
        for m in range(filt_len):
            window = ext[m:m + m_len:2]
            detail += hi[m] * window
            approx += lo[m] * window
        n_clean = max((n_clean - filt_len) // 2 + 1, 0)
        coeffs[j] = detail * 2.0 ** (-j / 2.0)
        clean[j] = slice(0, n_clean)
    return CoefficientPyramid(coeffs=coeffs, clean=clean)


def roll_leaders(pyramid, variant):
    """`compute_leaders` with the three-leader neighbours as two `np.roll`
    copies, for oracle use."""
    leaders, clean, sv = {}, {}, None
    for j in pyramid.levels:
        mag = np.abs(pyramid.coeffs[j])
        coef = pyramid.clean[j]
        if sv is None:
            sv = mag.copy()
            lo, hi = coef.start, coef.stop
        else:
            sv = np.maximum(mag, np.maximum(sv[0::2], sv[1::2]))
            lo, hi = max(coef.start, -(-lo // 2)), min(coef.stop, hi // 2)
        if variant == "one_leader":
            leaders[j] = sv.copy()
            clean[j] = slice(lo, hi) if hi > lo else slice(0, 0)
        else:
            leaders[j] = np.maximum(np.maximum(np.roll(sv, 1), sv),
                                    np.roll(sv, -1))
            whole = lo == 0 and hi == sv.size
            clean[j] = (slice(lo, hi) if whole else slice(lo + 1, hi - 1)
                        if hi - 1 > lo + 1 else slice(0, 0))
    return LeaderPyramid(leaders=leaders, variant=variant, clean=clean)


def loop_scale_winners(pyramids, candidates):
    """Per pyramid, the index of the first candidate of highest
    `hmin_regression` R^2 (-1 where none fits) and that R^2, one fit at a
    time, for oracle use."""
    best, best_r2 = [], []
    for pyr in pyramids:
        win, win_r2 = -1, -np.inf
        for ci, cand in enumerate(candidates):
            try:
                r2 = hmin_regression(pyr, cand).r_squared
            except DataError:
                continue
            if r2 > win_r2:
                win, win_r2 = ci, r2
        best.append(win)
        best_r2.append(win_r2)
    return np.array(best), np.array(best_r2)


class _ReferenceMLEProblem:
    """State for the active-set solver on distinct points y with weights w,
    for `reference_active_set`."""

    def __init__(self, y: np.ndarray, w: np.ndarray):
        self.y = y
        self.w = w
        self.m = y.size

    def data_weights(self, knots_idx: np.ndarray) -> np.ndarray:
        """Weight each knot receives from the linear-interpolation data
        term."""
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
        i0, _, _ = stattests._exp_segment_integrals(v[:-1], v[1:])
        return float(np.dot(aw, v) - np.sum(lengths * i0))

    def grad_hess(self, knots_idx: np.ndarray, v: np.ndarray,
                  aw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the objective and Hessian of the integral term."""
        yk = self.y[knots_idx]
        k = yk.size
        lengths = np.diff(yk)
        i0, i1, i2 = stattests._exp_segment_integrals(v[:-1], v[1:])
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


def _reference_multipliers(prob, knots_idx, v):
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
    i0, i1, _ = stattests._exp_segment_integrals(v_full[:-1], v_full[1:])
    # hat integral at j: rising part over [j-1, j] plus falling part over
    # [j, j+1]; the rise weighs toward the right end of a segment, the fall
    # toward the left end
    rise = h * i1
    fall = h * (i0 - i1)
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


def reference_active_set(x):
    """`stattests._active_set` with its solver state in a class, for oracle
    use: the solve before each iterate's segment integrals were computed
    once (the gradient and the line search's f0 each computed their own)."""
    n = x.size
    y, counts = np.unique(x, return_counts=True)
    if y.size < 2:
        raise DataError("all samples identical: no density to fit")
    w = counts.astype(float) / n
    prob = _ReferenceMLEProblem(y, w)
    m = y.size

    knots = np.array([0, m - 1])
    v = np.full(2, -math.log(y[-1] - y[0]))
    aw = prob.data_weights(knots)
    path: list[float] = [prob.objective(knots, v, aw)]

    for _outer in range(stattests._MAX_OUTER):
        # inner solve over the current knot set; terminates when Newton can
        # no longer raise the objective (optimality is judged by the outer
        # multiplier scan, not by the coordinate gradient, whose scale blows
        # up on the tiny segments between adjacent order statistics)
        stall = 0
        for _inner in range(stattests._MAX_INNER):
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
            kink0 = stattests._kinks(yk, v)
            kink_d = stattests._kinks(yk, v + step) - kink0
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
                kinks = stattests._kinks(yk, v)
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
        mass = float(np.sum(
            np.diff(yk) * stattests._exp_segment_integrals(v[:-1], v[1:])[0]))
        if mass > 0 and abs(mass - 1.0) > 1e-15:
            v = v - math.log(mass)
            path.append(prob.objective(knots, v, aw))

        # KKT scan: Lagrange multipliers of the active (no-kink) constraints;
        # a negative multiplier marks a point where a downward bend raises
        # the objective, so that point becomes a knot
        best_i, best_score = -1, -stattests._TOL_CONCAVITY
        lam = _reference_multipliers(prob, knots, v)
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
            f"active set did not settle after {stattests._MAX_OUTER} passes "
            f"(last insertion score {best_score:.3e})")

    model = stattests.LogConcaveMLE(knots=prob.y[knots],
                                    log_density_at_knots=v, n=n,
                                    objective_path=path)
    mass = model.total_mass()
    if abs(mass - 1.0) > 1e-6:
        raise NonConvergenceError(
            f"fitted density mass {mass} deviates from 1 beyond tolerance")
    kinks = stattests._kinks(model.knots, model.log_density_at_knots)
    if kinks.size and float(np.max(kinks)) > stattests._TOL_CONCAVITY:
        raise NonConvergenceError(
            f"concavity violated by {float(np.max(kinks)):.3e}")
    return model
