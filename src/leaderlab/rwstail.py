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

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import gammainc, gammaincc

from .core import (DataError, NonConvergenceError, RegimeError, RngSpec,
                   linfit, write_csv, write_json)
from .synth import GenGaussianParams

LN2 = math.log(2.0)

# envelope rate constants are only defined for alpha above this threshold
SMALL_A_ALPHA_MIN = math.log(1.13 * math.pi) / math.log(4.0)

_MAX_DEPTH = 200        # levels the exact product may take to converge
_I_CAP = 200            # last level find_l_beta checks
_MC_DEPTH = 18          # tree depth of the Monte Carlo cross-check


def _gg_incomplete_gamma(gamma_fn, x, beta: float):
    """`gamma_fn` (regularized lower or upper incomplete gamma) at
    (1/beta, x^beta), for x >= 0 (NaN refused) and beta > 0; a float for a
    scalar x."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr >= 0):
        raise DataError("generalized Gaussian argument must be >= 0")
    if not beta > 0:
        raise DataError("beta must be > 0")
    out = gamma_fn(1.0 / beta, x_arr ** beta)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def gg_cdf(x, beta: float):
    """P(|X| <= x) for the generalized Gaussian: regularized lower
    incomplete gamma at (1/beta, x^beta)."""
    return _gg_incomplete_gamma(gammainc, x, beta)


def gg_two_sided_tail(x, beta: float):
    """P(|X| > x), the complement of gg_cdf."""
    return _gg_incomplete_gamma(gammaincc, x, beta)


@dataclass
class RwsModel:
    alpha: float
    beta: float
    gg: GenGaussianParams = field(init=False)

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise DataError("alpha and beta must be > 0")
        self.gg = GenGaussianParams(self.beta)

    def small_a_condition(self) -> bool:
        return self.alpha > SMALL_A_ALPHA_MIN

    def large_a_condition(self) -> bool:
        """Positivity of g_c at x_c = 2^c/log2 - c + log2(c log 2), c = alpha*beta,
        with g_c(x) = 2^(c x) - 2^c x - 1."""
        c = self.alpha * self.beta
        x_c = 2.0 ** c / LN2 - c + math.log2(c * LN2)
        return 2.0 ** (c * x_c) - 2.0 ** c * x_c - 1.0 > 0.0


def a_threshold(model: RwsModel) -> float:
    """Smallest A above which the Mills approximation of the per-level tail
    is accurate to 1% (the 0.99/1.01 calibration point)."""
    beta = model.beta
    if beta > 1.0:
        return (99.0 * (beta - 1.0) / beta) ** (1.0 / beta)
    if beta < 1.0:
        return (101.0 * (1.0 - beta) / beta) ** (1.0 / beta)
    pow_a = 2.0 ** model.alpha
    return pow_a / (pow_a - 1.0)


def _level_tail(model: RwsModel, A: float, j: int) -> float:
    """P(|X| > 2^(alpha j) A): one depth-j coefficient exceeds A."""
    return gg_two_sided_tail(2.0 ** (model.alpha * j) * A, model.beta)


def leader_log_cdf_exact(model: RwsModel, A: float,
                         tol: float = 1e-12) -> float:
    """log P(leader <= A) as the truncated product sum_j 2^j log F(2^(alpha j) A).

    Truncation stops once the remaining mass bound falls below `tol`; the
    stopping rule requires the per-level term ratio to be certifiably below
    1/2, and a NonConvergenceError reports alpha/A combinations for which
    that never happens within 200 levels.
    """
    if A <= 0:
        raise DataError("A must be > 0")
    if not tol > 0:
        raise DataError(f"tol must be > 0, got {tol!r}")
    total = 0.0
    tail = _level_tail(model, A, 0)
    for j in range(_MAX_DEPTH + 1):
        if tail >= 1.0:
            return -math.inf
        total += 2.0 ** j * math.log1p(-tail)
        next_tail = _level_tail(model, A, j + 1)
        # once the ratio of consecutive weighted tails is certified <= 1/2,
        # the remainder is below twice the next term
        gap = (2.0 ** (model.alpha * (j + 1)) * A) ** model.beta \
            - (2.0 ** (model.alpha * j) * A) ** model.beta
        if gap >= math.log(4.0):
            remainder = 2.0 * 2.0 ** (j + 1) * next_tail / max(1.0 - next_tail,
                                                               0.5)
            if remainder < tol:
                return total
        tail = next_tail
    raise NonConvergenceError(
        f"leader CDF product does not certify convergence within "
        f"{_MAX_DEPTH} levels (alpha={model.alpha}, A={A}); "
        "alpha is too small for the requested A")


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
    if A <= 0:
        raise DataError("A must be > 0")
    if J < 1:
        raise DataError("need J >= 1")
    if J > 24:
        raise DataError("depth capped at 24 (16.7M finest-level coefficients)")
    if n_paths < 1:
        raise DataError("need n_paths >= 1")
    gen = rng.generator(0)
    below = np.ones(n_paths, dtype=bool)
    for j in range(J + 1):
        u = gen.random(n_paths)
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

def c_l_constant(l: int) -> float:
    """c_l = prod_{j>=l} (1 - 1/(4 j^2)) = (2/pi) / prod_{j<l} (...)."""
    if l < 1:
        raise DataError("l must be >= 1")
    if l == 1:
        return 2.0 / math.pi
    j = np.arange(1, l, dtype=float)
    head = float(np.exp(np.sum(np.log1p(-1.0 / (4.0 * j * j)))))
    return (2.0 / math.pi) / head


def _mills_epsilon(model: RwsModel, i: float) -> float:
    """Two-sided Mills approximation of P(|X| > 2^(alpha i))."""
    x = 2.0 ** (model.alpha * i)
    expo = x ** model.beta
    if expo > 700.0:
        return 0.0
    return 2.0 * model.gg.kappa * math.exp(-expo) \
        / (model.beta * x ** (model.beta - 1.0))


def find_l_beta(model: RwsModel) -> int:
    """Smallest level l such that the Mills approximation is 1%-accurate at
    2^(alpha l) and the per-level product inequality
    (1 - 1/(4 i^2)) <= (1 - eps_i)^(2^(i+l+1)) holds for every i >= l."""
    thr = a_threshold(model) if model.beta != 1.0 else 1.0
    l_min = max(1, math.ceil(math.log2(thr) / model.alpha)) if thr > 1.0 else 1
    worst: dict[int, float] = {}
    for l in range(l_min, _I_CAP + 1):
        for i in range(l, _I_CAP + 1):
            eps = _mills_epsilon(model, i)
            if eps == 0.0:
                return l  # every deeper level holds as well
            if eps >= 1.0:
                worst[l] = math.inf
                break
            lhs = math.log1p(-1.0 / (4.0 * i * i))
            rhs = 2.0 ** (i + l + 1) * math.log1p(-eps)
            if lhs > rhs:
                worst[l] = lhs - rhs
                break
        else:
            return l
    raise RegimeError(
        "no level satisfies the tail-product inequality up to "
        f"i={_I_CAP}; worst residuals per candidate: "
        + ", ".join(f"l={l}: {r:.3e}" for l, r in list(worst.items())[:5]))


def implied_lambda(model: RwsModel, l_beta: int) -> float:
    """Point value of the envelope slack Lambda implied by the tail product:
    prod_{i>=l_beta} (1 - eps_i)^(2^i) = (c_l Lambda)^1."""
    acc = 0.0
    for i in range(l_beta, l_beta + 200):
        eps = _mills_epsilon(model, i)
        if eps == 0.0:
            break
        acc += 2.0 ** i * math.log1p(-eps)
    return math.exp(acc) / c_l_constant(l_beta)


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
    if not model.small_a_condition():
        raise RegimeError(
            f"small-A envelope needs alpha > {SMALL_A_ALPHA_MIN:.6f}; "
            f"got alpha={model.alpha}")
    if A > 2.0 ** (-model.alpha):
        raise RegimeError(f"small-A envelope needs A <= 2^-alpha = "
                          f"{2.0 ** (-model.alpha):.6g}; got A={A}")
    if A <= 0:
        raise DataError("A must be > 0")
    l_beta = find_l_beta(model)
    c_l = c_l_constant(l_beta)
    kappa = model.gg.kappa
    lam = implied_lambda(model, l_beta)

    def rate(lmbda: float) -> float:
        return 2.0 * model.alpha * LN2 - math.log(2.0 * c_l * kappa * lmbda)

    def envelope(lmbda: float) -> float:
        return (2.0 ** model.alpha / A) * math.exp(-(A ** (-1.0 / model.alpha)
                                                     * rate(lmbda)))

    constants = {"l_beta": l_beta, "c_lbeta": c_l, "kappa_beta": kappa,
                 "lambda_interval": (1.0, math.pi / 2.0),
                 "lambda_implied": lam, "A_beta": a_threshold(model)}
    return SmallABounds(envelope(1.0), envelope(math.pi / 2.0),
                        rate((1.0 + math.pi / 2.0) / 2.0), constants,
                        (rate(math.pi / 2.0), rate(1.0)))


def large_A_bound(model: RwsModel, A: float) -> float:
    """Explicit upper bound on P(leader > A) for A above the Mills
    calibration point A_beta.

    For beta != 1 this is 2 * 1.01 kappa e^(-A^beta) / (beta A^(beta-1))
    divided by the geometric-series factor; the factor 2 accounts for the
    two-sided tail of |X|.  For beta = 1 the per-level tail is exactly
    e^(-x) and the closed form e^(-A) / (1 - 2 e^(-2^alpha A)) applies.
    """
    a_beta = a_threshold(model)
    if not A > a_beta:
        raise RegimeError(f"large-A bound needs A > A_beta = {a_beta:.6g}; "
                          f"got A={A}")
    if model.beta == 1.0:
        rho = 2.0 * math.exp(-(2.0 ** model.alpha) * A)
        if rho >= 1.0:
            raise RegimeError("geometric factor diverges at this A")
        return math.exp(-A) / (1.0 - rho)
    if not model.large_a_condition():
        raise RegimeError(
            "large-A condition fails: g_c(x_c) <= 0 for c = alpha*beta = "
            f"{model.alpha * model.beta:.6g}")
    rho = 2.0 ** (1.0 - model.alpha * (model.beta - 1.0)) \
        * math.exp(-(2.0 ** (model.alpha * model.beta)) * A ** model.beta)
    if rho >= 1.0:
        raise RegimeError("geometric factor diverges at this A")
    lead = 2.0 * 1.01 * model.gg.kappa * math.exp(-A ** model.beta) \
        / (model.beta * A ** (model.beta - 1.0))
    return lead / (1.0 - rho)


def mills_bounds(x: float, beta: float) -> tuple[float, float, float]:
    """(lower, upper, exact) for the one-sided tail I(x) = kappa
    int_x^inf e^(-t^beta) dt.

    `exact` is the closed form P(|X| > x)/2, the regularized upper
    incomplete gamma at (1/beta, x^beta) halved; the bounds are the
    partial-integration envelopes, which collapse to the closed form
    e^(-x)/2 at beta = 1.  For beta < 1 the upper bound only exists once
    (1-beta)/(beta x^beta) < 1 and is +inf otherwise.
    """
    if not x > 0:
        raise DataError(f"x must be > 0, got {x!r}")
    gg = GenGaussianParams(beta)
    exact = 0.5 * gg_two_sided_tail(x, beta)
    f_x = gg.kappa * math.exp(-x ** beta)
    if beta == 1.0:
        closed = 0.5 * math.exp(-x)
        return closed, closed, exact
    g_prime = beta * x ** (beta - 1.0)
    if beta > 1.0:
        m = (beta - 1.0) / (beta * x ** beta)
        return f_x / (g_prime * (1.0 + m)), f_x / g_prime, exact
    m = (1.0 - beta) / (beta * x ** beta)
    upper = f_x / (g_prime * (1.0 - m)) if m < 1.0 else math.inf
    return f_x / g_prime, upper, exact


# ---------------------------------------------------------------------------
# grid verification report

def _finite_or_null(obj):
    """`obj` with every non-finite float in its dicts and lists as None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
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
        """The report as strict JSON: every NaN or infinite number is
        null."""
        def arr(a):
            return np.asarray(a, dtype=float).tolist()
        doc = {
            "alpha": self.alpha, "beta": self.beta,
            "A_grid": arr(self.A_grid), "log_cdf": arr(self.log_cdf),
            "exact_cdf": arr(self.exact_cdf), "regime": self.regime,
            "lower_small": arr(self.lower_small),
            "upper_small": arr(self.upper_small),
            "upper_large": arr(self.upper_large),
            "constants": {k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in self.constants.items()},
            "slope": self.slope, "slope_r2": self.slope_r2,
            "slope_target": self.slope_target, "slope_ok": self.slope_ok,
            "rate_hat": arr(self.rate_hat),
            "rate_interval": list(self.rate_interval),
            "rate_in_interval": [bool(b) for b in self.rate_in_interval],
            "rate_in_interval_corrected":
                [bool(b) for b in self.rate_in_interval_corrected],
            "large_dominates": [bool(b) for b in self.large_dominates],
            "checks_passed": self.checks_passed,
        }
        if self.mc is not None:
            doc["monte_carlo"] = [asdict(r) for r in self.mc]
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
    bound.  Grid points in neither regime raise a RegimeError.  With
    `mc_paths` > 0 every point also gets a Monte Carlo estimate at J = 18.
    """
    if mc_paths < 0:
        raise DataError(f"mc_paths must be >= 0, got {mc_paths!r}")
    grid = np.sort(np.atleast_1d(np.asarray(A_grid, dtype=float)))
    if grid.size == 0 or np.any(grid <= 0.0):
        raise DataError("A grid must be positive and non-empty")
    a_small_max = 2.0 ** (-model.alpha)
    a_beta = a_threshold(model)
    regime = []
    for a in grid:
        if a <= a_small_max:
            regime.append("small")
        elif a > a_beta:
            regime.append("large")
        else:
            raise RegimeError(
                f"A={a:.6g} lies in neither regime (small needs A <= "
                f"{a_small_max:.6g}, large needs A > {a_beta:.6g})")

    log_cdf = np.array([leader_log_cdf_exact(model, a, tol) for a in grid])
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
        prefactor = math.log(2.0 ** model.alpha / a)
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
            dominates.append(upper_large[i] >= 1.0 - exact[i])

    mc_results = None
    if mc_paths > 0:
        if rng is None:
            raise DataError("Monte Carlo cross-check requires an RngSpec")
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
