"""Leader-distribution analysis for random wavelet series with independent
generalized-Gaussian coefficients: the exact truncated-product CDF of the
top-level leader, Monte Carlo cross-checks, explicit small/large tail-bound
envelopes with their constants, and Mills-ratio bounds for exponential-power
tails.

Model: coefficients at dyadic depth d >= 0 are 2^(-alpha d) X_{d,k} with
X i.i.d. of density kappa_beta exp(-|x|^beta); the top leader is the
supremum of |coefficient| over the whole tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral

import numpy as np

from .core import (NonConvergenceError, RegimeError, RngSpec, check_rng,
                   linfit, require, write_csv, write_json)
from .synth import GenGaussianParams, check_shape

LN2 = math.log(2.0)

# envelope rate constants are only defined for alpha above this threshold
SMALL_A_ALPHA_MIN = math.log(1.13 * math.pi) / math.log(4.0)

_MAX_DEPTH = 200        # levels the exact product may take to converge
_I_CAP = 200            # last level l_beta may take
_MC_DEPTH = 18          # tree depth of the Monte Carlo cross-check
_TIE_RTOL = 1e-12       # relative shortfall of a large-A bound that ties
# most Monte Carlo paths: each holds 10 bytes at once (a float64 draw, the
# running bool and a level's bool comparison), 100 MB at the cap
_MAX_PATHS = 10 ** 7


def _pow2(e: float) -> float:
    """2^e, and inf past the float range, where Python's power raises."""
    return 2.0 ** e if e < 1024.0 else math.inf


def _gg_incomplete_gamma(gamma_fn, x, beta: float):
    """`gamma_fn` (regularized lower or upper incomplete gamma) at
    (1/beta, x^beta), for x >= 0 (NaN refused) and beta > 0; a float for a
    scalar x."""
    x_arr = np.asarray(x, dtype=float)
    require(np.all(x_arr >= 0), "x", "be >= 0", x)
    check_shape(beta)
    # x^beta past the float range is inf, where gamma_fn is 0 or 1
    with np.errstate(over="ignore"):
        out = gamma_fn(1.0 / beta, x_arr ** beta)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def gg_cdf(x, beta: float):
    """P(|X| <= x) for the generalized Gaussian: regularized lower
    incomplete gamma at (1/beta, x^beta)."""
    from scipy.special import gammainc   # kept off `import leaderlab`
    return _gg_incomplete_gamma(gammainc, x, beta)


def gg_two_sided_tail(x, beta: float):
    """P(|X| > x), the complement of gg_cdf."""
    from scipy.special import gammaincc   # kept off `import leaderlab`
    return _gg_incomplete_gamma(gammaincc, x, beta)


@dataclass(frozen=True)
class RwsModel:
    alpha: float
    beta: float
    gg: GenGaussianParams = field(init=False)

    def __post_init__(self):
        require(0 < self.alpha < math.inf, "alpha", "be finite and > 0",
                self.alpha)
        require(0 < self.beta < math.inf, "ggbeta", "be finite and > 0",
                self.beta)
        object.__setattr__(self, "gg", GenGaussianParams(self.beta))


def a_threshold(model: RwsModel) -> float:
    """Smallest A above which the Mills approximation of the per-level tail
    is accurate to 1% (the 0.99/1.01 calibration point)."""
    beta = model.beta
    if beta > 1.0:
        return (99.0 * (beta - 1.0) / beta) ** (1.0 / beta)
    if beta < 1.0:
        try:
            return (101.0 * (1.0 - beta) / beta) ** (1.0 / beta)
        except OverflowError:
            # below beta ~ 0.0126 the threshold passes the float range, and
            # no A lies above it
            return math.inf
    # 2^alpha / (2^alpha - 1), which rounds to 1 from alpha = 54 on; expm1
    # keeps 2^alpha - 1 above 0 at an alpha so small that 2^alpha rounds to 1
    return 1.0 + 1.0 / math.expm1(min(model.alpha, 64.0) * LN2)


def _check_A(A) -> None:
    require(A > 0, "A", "be > 0", A)


def _check_paths(name: str, n_paths, least: int) -> None:
    require(isinstance(n_paths, Integral) and least <= n_paths <= _MAX_PATHS,
            name, f"be an integer in [{least}, {_MAX_PATHS}]", n_paths)


def _level_tail(model: RwsModel, A: float, j: int) -> float:
    """P(|X| > 2^(alpha j) A): one depth-j coefficient exceeds A."""
    with np.errstate(over="ignore"):
        return gg_two_sided_tail(_pow2(model.alpha * j) * A, model.beta)


def _log_cdf_walk(model: RwsModel, A, tols) -> list[float]:
    """`leader_log_cdf_exact` at each of the decreasing `tols` from one walk:
    the running total where a walk of its own would stop for that tol."""
    A = np.float64(A)   # so that a power past the float range is inf
    totals: list[float] = []
    total = 0.0
    tail = _level_tail(model, A, 0)
    for j in range(_MAX_DEPTH + 1):
        if tail >= 1.0:
            return totals + [-math.inf] * (len(tols) - len(totals))
        total += 2.0 ** j * math.log1p(-tail)
        next_tail = _level_tail(model, A, j + 1)
        # once the ratio of consecutive weighted tails is certified <= 1/2,
        # the remainder is below twice the next term; far out both powers
        # are inf, and the gap, larger still, is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            gap = (_pow2(model.alpha * (j + 1)) * A) ** model.beta \
                - (_pow2(model.alpha * j) * A) ** model.beta
        if gap >= math.log(4.0) or math.isnan(gap):
            remainder = 2.0 * 2.0 ** (j + 1) * next_tail / max(1.0 - next_tail,
                                                               0.5)
            while remainder < tols[len(totals)]:
                totals.append(total)
                if len(totals) == len(tols):
                    return totals
        tail = next_tail
    raise NonConvergenceError(
        f"leader CDF product does not certify convergence within "
        f"{_MAX_DEPTH} levels (alpha={model.alpha}, A={A}); "
        "alpha is too small for the requested A")


def leader_log_cdf_exact(model: RwsModel, A: float,
                         tol: float = 1e-12) -> float:
    """log P(leader <= A) as the truncated product sum_j 2^j log F(2^(alpha j) A).

    Truncation stops once the remaining mass bound falls below `tol`; the
    stopping rule requires the per-level term ratio to be certifiably below
    1/2, and a NonConvergenceError reports alpha/A combinations for which
    that never happens within 200 levels.
    """
    _check_A(A)
    require(0 < tol < math.inf, "tol", "be finite and > 0", tol)
    return _log_cdf_walk(model, A, (tol,))[0]


def leader_cdf_exact(model: RwsModel, A: float, tol: float = 1e-12) -> float:
    return math.exp(leader_log_cdf_exact(model, A, tol))


@dataclass
class MonteCarloCdf:
    estimate: float
    stderr: float
    n_paths: int
    depth: int
    truncation_bias_bound: float


def leader_cdf_monte_carlo(model: RwsModel, A: float, J: int, n_paths: int,
                           rng: RngSpec) -> MonteCarloCdf:
    """Empirical P(leader <= A) over independent depth-J trees.

    A path lies below A iff, at every level j <= J, its uniform u_j is
    <= tau_j = F(2^(alpha j) A)^(2^j), the probability that all 2^j draws
    of level j stay below 2^(alpha j) A: tau_j is the exp of the j-th term
    of `leader_log_cdf_exact`.  The decisions equal those of sampling each
    level maximum by inverse CDF at u_j^(1/2^j), except where a draw lies
    within rounding of tau_j.
    The depth is capped at 24; the reported truncation bias bounds the
    probability that some level beyond J would exceed A.
    """
    _check_A(A)
    # 24 levels draw 16.7M finest-level coefficients
    require(isinstance(J, Integral) and 1 <= J <= 24, "J",
            "be an integer in [1, 24]", J)
    _check_paths("n_paths", n_paths, 1)
    check_rng("rng", rng, "the Monte Carlo")
    gen = rng.generator(0)
    below = np.ones(n_paths, dtype=bool)
    u = np.empty(n_paths)
    for j in range(J + 1):
        gen.random(out=u)   # the bits of gen.random(n_paths), in one buffer
        tail = _level_tail(model, A, j)
        tau = math.exp(2.0 ** j * math.log1p(-tail)) if tail < 1.0 else 0.0
        below &= u <= tau
    p_hat = float(np.mean(below))
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_paths)
    bias = 0.0
    for j in range(J + 1, J + 60):
        term = 2.0 ** j * _level_tail(model, A, j)
        bias += term
        if term < 1e-18:
            break
    return MonteCarloCdf(p_hat, stderr, n_paths, J, bias)


# ---------------------------------------------------------------------------
# the envelope constants

@functools.lru_cache
def _small_a_constants(model: RwsModel) -> tuple[int, float, float]:
    """(l_beta, c_(l_beta), Lambda) of the small-A envelope (alpha >
    SMALL_A_ALPHA_MIN): l_beta, the least l with the Mills approximation
    1%-accurate at 2^(alpha l) and (1 - 1/(4 i^2)) <= (1 - eps_i)^(2^(i+l+1))
    for every i >= l; c_l = prod_{j>=l} (1 - 1/(4 j^2)); and Lambda, the
    slack the tail product implies: prod_{i>=l_beta} (1 - eps_i)^(2^i) =
    c_l Lambda."""
    if not model.alpha > SMALL_A_ALPHA_MIN:
        raise RegimeError(
            f"small-A envelope needs alpha > {SMALL_A_ALPHA_MIN:.6f}; "
            f"got alpha={model.alpha}")

    def mills_eps(i: int) -> float:
        # two-sided Mills form of P(|X| > 2^(alpha i)); 0 below e^-700
        try:
            x = 2.0 ** (model.alpha * i)
            expo = x ** model.beta
        except OverflowError:
            return 0.0
        return 0.0 if expo > 700.0 else 2.0 * model.gg.kappa \
            * math.exp(-expo) / (model.beta * x ** (model.beta - 1.0))

    thr = a_threshold(model) if model.beta != 1.0 else 1.0
    # past _I_CAP (an infinite threshold too) no level is checked at all
    l_min = (max(1, math.ceil(min(math.log2(thr) / model.alpha, _I_CAP + 1)))
             if thr > 1.0 else 1)
    worst: dict[int, float] = {}
    for l_beta in range(l_min, _I_CAP + 1):
        for i in range(l_beta, _I_CAP + 1):
            eps = mills_eps(i)
            if eps == 0.0:
                break   # every deeper level holds as well
            if eps >= 1.0:
                worst[l_beta] = math.inf
                break
            lhs = math.log1p(-1.0 / (4.0 * i * i))
            rhs = 2.0 ** (i + l_beta + 1) * math.log1p(-eps)
            if lhs > rhs:
                worst[l_beta] = lhs - rhs
                break
        if l_beta not in worst:
            break
    else:
        raise RegimeError(
            "no level satisfies the tail-product inequality up to "
            f"i={_I_CAP}; worst residuals per candidate: "
            + (", ".join(f"l={l}: {r:.3e}" for l, r in list(worst.items())[:5])
               or f"none, the Mills approximation is 1%-accurate only past "
                  f"A_beta = {thr:.6g}"))
    j = np.arange(1, l_beta, dtype=float)
    head = float(np.exp(np.sum(np.log1p(-1.0 / (4.0 * j * j)))))
    c_l = (2.0 / math.pi) / head
    acc = 0.0
    for i in range(l_beta, l_beta + 200):
        eps = mills_eps(i)
        if eps == 0.0:
            break
        acc += 2.0 ** i * math.log1p(-eps)
    return l_beta, c_l, math.exp(acc) / c_l


@dataclass
class SmallABounds:
    lower: float
    upper: float
    rate: float
    constants: dict
    rate_interval: tuple[float, float]


def small_A_bounds(model: RwsModel, A: float) -> SmallABounds:
    """Envelope for P(leader <= A) at small A, up to the existential
    multiplicative constants of the bound.

    The envelope (2^alpha / A) exp(A^(-1/alpha) log(2 c_l kappa Lambda /
    2^(2 alpha))) is evaluated at the interval ends Lambda = 1 (lower) and
    Lambda = pi/2 (upper); `rate` is the log-decay coefficient at the
    interval midpoint and `rate_interval` its values at Lambda = pi/2 and
    Lambda = 1.  Useful for decay-rate verification only; absolute
    values carry unknown constants.
    """
    _check_A(A)
    l_beta, c_l, lam = _small_a_constants(model)
    if A > 2.0 ** (-model.alpha):
        raise RegimeError(f"small-A envelope needs A <= 2^-alpha = "
                          f"{2.0 ** (-model.alpha):.6g}; got A={A}")
    kappa = model.gg.kappa

    def rate(lmbda: float) -> float:
        return 2.0 * model.alpha * LN2 - math.log(2.0 * c_l * kappa * lmbda)

    A = np.float64(A)   # so that a power past the float range is inf

    def envelope(lmbda: float) -> float:
        # 0 once the exponential factor underflows, which it does wherever
        # 2^alpha / A passes the float range
        with np.errstate(over="ignore"):
            decay = math.exp(-(A ** (-1.0 / model.alpha) * rate(lmbda)))
        return _pow2(model.alpha) / A * decay if decay > 0.0 else 0.0

    constants = {"l_beta": l_beta, "c_lbeta": c_l, "kappa_beta": kappa,
                 "lambda_interval": (1.0, math.pi / 2.0),
                 "lambda_implied": lam, "A_beta": a_threshold(model)}
    return SmallABounds(envelope(1.0), envelope(math.pi / 2.0),
                        rate((1.0 + math.pi / 2.0) / 2.0), constants,
                        (rate(math.pi / 2.0), rate(1.0)))


def large_A_bound(model: RwsModel, A: float) -> float:
    """Explicit upper bound on P(leader > A) for A above the Mills
    calibration point A_beta.

    The union bound over levels, sum_j 2^j U(2^(alpha j) A), where U is the
    tail of one coefficient: exactly e^(-x) at beta = 1, and otherwise 1.01
    times the two-sided Mills form 2 kappa e^(-x^beta) / (beta x^(beta-1)),
    which bounds it past A_beta.  The ratio of consecutive terms,
    rho_j = 2^(1 + alpha (1 - beta))
            exp(-(2^(alpha beta) - 1) 2^(alpha beta j) A^beta),
    decreases in j for every alpha, beta > 0, so the sum is at most
    U(A) / (1 - rho_0), and the bound is refused only where rho_0 >= 1.
    """
    a_beta = a_threshold(model)
    if not A > a_beta:
        raise RegimeError(f"large-A bound needs A > A_beta = {a_beta:.6g}; "
                          f"got A={A}")
    alpha, beta = model.alpha, model.beta
    A = np.float64(A)   # so that a power past the float range is inf
    with np.errstate(over="ignore"):
        log_rho = (1.0 + alpha * (1.0 - beta)) * LN2 \
            - np.expm1(alpha * beta * LN2) * A ** beta
        slack = 1.0 if beta == 1.0 else 1.01
        lead = slack * 2.0 * model.gg.kappa * math.exp(-A ** beta) \
            / (beta * A ** (beta - 1.0))
    if not log_rho < 0.0:
        raise RegimeError("geometric factor diverges at this A")
    return lead / -math.expm1(log_rho)


def mills_bounds(x: float, beta: float) -> tuple[float, float, float]:
    """(lower, upper, exact) for the one-sided tail I(x) = kappa
    int_x^inf e^(-t^beta) dt.

    `exact` is the closed form P(|X| > x)/2, the regularized upper
    incomplete gamma at (1/beta, x^beta) halved; the bounds are the
    partial-integration envelopes, which collapse to the closed form
    e^(-x)/2 at beta = 1.  For beta < 1 the upper bound only exists once
    (1-beta)/(beta x^beta) < 1 and is +inf otherwise.  Where a bound
    leaves the float range it is 0 or +inf.
    """
    require(x > 0, "x", "be > 0", x)
    gg = GenGaussianParams(beta)
    exact = 0.5 * gg_two_sided_tail(x, beta)
    with np.errstate(over="ignore"):    # a power past the float range: inf
        x_beta = float(np.float64(x) ** beta)
        g_prime = beta * float(np.float64(x) ** (beta - 1.0))
    f_x = gg.kappa * math.exp(-x_beta)
    if beta >= 1.0:
        if x_beta == 0.0:
            # x^beta underflows only at x < 1, where g' m is (beta - 1)/x
            return (f_x / (g_prime + (beta - 1.0) / x),
                    f_x / g_prime if g_prime else math.inf, exact)
        m = (beta - 1.0) / (beta * x_beta)
        return f_x / (g_prime * (1.0 + m)), f_x / g_prime, exact
    m = (1.0 - beta) / (beta * x_beta)
    upper = f_x / (g_prime * (1.0 - m)) if m < 1.0 else math.inf
    return f_x / g_prime, upper, exact


# ---------------------------------------------------------------------------
# grid verification report

def _finite_or_null(obj):
    """`obj` as strict JSON: arrays and tuples as lists, numpy scalars as
    Python ones, and every non-finite float as None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


@dataclass
class TailBoundReport:
    alpha: float
    beta: float
    A_grid: np.ndarray
    log_cdf: np.ndarray
    exact_cdf: np.ndarray
    regime: list[str]
    lower_small: np.ndarray
    upper_small: np.ndarray
    upper_large: np.ndarray
    constants: dict
    slope: float | None
    slope_r2: float | None
    slope_target: float
    slope_ok: bool | None      # None when too few small points to judge
    rate_hat: np.ndarray
    rate_interval: tuple[float, float]
    rate_in_interval: list[bool]
    rate_in_interval_corrected: list[bool]
    large_dominates: list[bool]
    mc: list[MonteCarloCdf] | None = None

    @property
    def checks_passed(self) -> bool:
        slope_fine = self.slope_ok is not False
        return slope_fine and all(self.large_dominates)

    def to_dict(self) -> dict:
        """The report's fields, `mc` as `monte_carlo` (absent without a
        Monte Carlo run), and `checks_passed`, as strict JSON: every NaN or
        infinite number is null."""
        doc = asdict(self)
        mc = doc.pop("mc")
        if mc is not None:
            doc["monte_carlo"] = mc
        doc["checks_passed"] = self.checks_passed
        return _finite_or_null(doc)

    def to_json(self, path) -> str:
        return write_json(path, self.to_dict())

    def to_csv(self, path) -> str:
        """The grid table; a bound that does not apply at a point (NaN,
        null in the JSON) is an empty cell."""
        doc = self.to_dict()
        header = ["A", "exact_cdf", "lower_env", "upper_env", "upper_large"]
        cols = [doc[k] for k in ("A_grid", "exact_cdf", "lower_small",
                                 "upper_small", "upper_large")]
        if self.mc is not None:
            header += ["mc_cdf", "mc_stderr"]
            cols += [[r[k] for r in doc["monte_carlo"]]
                     for k in ("estimate", "stderr")]
        return write_csv(path, header, zip(*cols))


def verify_tail_rates(model: RwsModel, A_grid, tol: float = 1e-12,
                      mc_paths: int = 0, rng: RngSpec | None = None
                      ) -> TailBoundReport:
    """Exact leader CDF over a grid plus decay-rate and domination checks.

    Small-regime points (A <= 2^-alpha) feed a fit of log(-log P) against
    log A whose slope must sit near -1/alpha, and per-point empirical rate
    coefficients compared against the Lambda-interval envelope (membership
    is reported, with and without the A^(-1)-prefactor correction budget).
    Large-regime points (A > A_beta) must be dominated by the explicit
    bound: it must reach the tail -expm1 of the product truncated at `tol`
    times the level-0 tail (`log_cdf` keeps the absolute `tol`) less 1e-12
    of it, the margin for a rounding tie (at beta = 1 the two agree to
    first order, and their floats differ by up to 5.4e-14 relative).  Grid
    points in neither regime raise a RegimeError.  With `mc_paths` > 0 every
    point also gets a Monte Carlo estimate at J = 18.
    """
    require(0 < tol < math.inf, "tol", "be finite and > 0", tol)
    _check_paths("mc_paths", mc_paths, 0)
    if mc_paths > 0:
        check_rng("seed", rng, "mc_paths > 0")
    grid = np.sort(np.atleast_1d(np.asarray(A_grid, dtype=float)))
    require(grid.size > 0, "A_grid", "be non-empty", [])
    for a in grid:
        require(a > 0.0, "A_grid", "hold only values > 0", float(a))
    a_small_max = 2.0 ** (-model.alpha)
    a_beta = a_threshold(model)
    regime = ["small" if a <= a_small_max else "large" for a in grid]
    for a, r in zip(grid, regime):
        if r == "large" and not a > a_beta:
            raise RegimeError(
                f"A={a:.6g} lies in neither regime (small needs A <= "
                f"{a_small_max:.6g}, large needs A > {a_beta:.6g})")

    # one walk per point; a large one also truncates at `tol` of the level-0
    # tail: at the absolute `tol` a tail below it stops early and hides a
    # bound that misses deeper levels (the floor keeps that tol > 0)
    walks = [_log_cdf_walk(model, a, (tol,) if r == "small" else (
        tol, max(tol * _level_tail(model, a, 0), math.ulp(0.0))))
        for a, r in zip(grid, regime)]
    log_cdf = np.array([w[0] for w in walks])
    exact = np.exp(log_cdf)
    n = grid.size
    lower_small, upper_small, upper_large, rate_hat = np.full((4, n), np.nan)
    rate_in, rate_in_corr = [False] * n, [False] * n
    dominates = []

    small_idx = [i for i, r in enumerate(regime) if r == "small"]
    constants: dict = {"A_beta": a_beta}
    rate_lo = rate_hi = math.nan
    for i in small_idx:
        a = grid[i]
        sb = small_A_bounds(model, a)
        # the constants and the rate interval do not depend on A
        constants.update(sb.constants)
        rate_lo, rate_hi = sb.rate_interval
        lower_small[i], upper_small[i] = sb.lower, sb.upper
        with np.errstate(over="ignore"):
            prefactor = math.log(_pow2(model.alpha) / a)
        if prefactor == math.inf:   # 2^alpha / A past the float range
            prefactor = model.alpha * LN2 - math.log(a)
        if log_cdf[i] > -math.inf:   # a CDF that underflows has no rate
            rate_hat[i] = -(log_cdf[i] - prefactor) * a ** (1.0 / model.alpha)
        rate_in[i] = rate_lo <= rate_hat[i] <= rate_hi
        budget = abs(prefactor) * a ** (1.0 / model.alpha)
        rate_in_corr[i] = (rate_lo - budget) <= rate_hat[i] \
            <= (rate_hi + budget)

    slope = slope_r2 = slope_ok = None
    # a point whose exact CDF underflows to 0 has no log(-log P)
    fit_idx = [i for i in small_idx if np.isfinite(log_cdf[i])]
    if len(fit_idx) >= 2:
        fit = linfit(np.log(grid[fit_idx]), np.log(-log_cdf[fit_idx]))
        slope, slope_r2 = fit.slope, fit.r_squared
        # the asymptotic exponent needs some depth to show; with fewer than
        # four fitted points the fit is reported but not judged
        if len(fit_idx) >= 4:
            slope_ok = abs(slope - (-1.0 / model.alpha)) <= 0.1

    for i, r in enumerate(regime):
        if r == "large":
            upper_large[i] = large_A_bound(model, grid[i])
            tail = -math.expm1(walks[i][1])
            dominates.append(upper_large[i] >= tail * (1.0 - _TIE_RTOL))

    mc_results = None
    if mc_paths > 0:
        mc_results = [leader_cdf_monte_carlo(model, a, _MC_DEPTH, mc_paths,
                                             rng.substream(i))
                      for i, a in enumerate(grid)]

    return TailBoundReport(
        alpha=model.alpha, beta=model.beta, A_grid=grid, log_cdf=log_cdf,
        exact_cdf=exact, regime=regime, lower_small=lower_small,
        upper_small=upper_small, upper_large=upper_large, constants=constants,
        slope=slope, slope_r2=slope_r2, slope_target=-1.0 / model.alpha,
        slope_ok=slope_ok, rate_hat=rate_hat,
        rate_interval=(rate_lo, rate_hi), rate_in_interval=rate_in,
        rate_in_interval_corrected=rate_in_corr, large_dominates=dominates,
        mc=mc_results)
