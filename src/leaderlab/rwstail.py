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
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammainccinv

from .core import (DataError, NonConvergenceError, RegimeError, RngSpec,
                   linfit, write_csv, write_json)
from .synth import GenGaussianParams

LN2 = math.log(2.0)

# envelope rate constants are only defined for alpha above this threshold
SMALL_A_ALPHA_MIN = math.log(1.13 * math.pi) / math.log(4.0)


def gg_cdf(x, beta: float):
    """P(|X| <= x) for the generalized Gaussian: regularized lower
    incomplete gamma at (1/beta, x^beta)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DataError("gg_cdf argument must be >= 0")
    if beta <= 0:
        raise DataError("beta must be > 0")
    out = gammainc(1.0 / beta, x_arr ** beta)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def gg_two_sided_tail(x, beta: float):
    """P(|X| > x), the complement of gg_cdf."""
    x_arr = np.asarray(x, dtype=float)
    out = gammaincc(1.0 / beta, x_arr ** beta)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


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


def leader_log_cdf_exact(model: RwsModel, A: float, tol: float = 1e-12,
                         max_depth: int = 200) -> float:
    """log P(leader <= A) as the truncated product sum_j 2^j log F(2^(alpha j) A).

    Truncation stops once the remaining mass bound falls below `tol`; the
    stopping rule requires the per-level term ratio to be certifiably below
    1/2, and a NonConvergenceError reports alpha/A combinations for which
    that never happens within `max_depth` levels.
    """
    if A <= 0:
        raise DataError("A must be > 0")
    if tol <= 0:
        raise DataError("tol must be > 0")
    total = 0.0
    j = 0
    while True:
        x = 2.0 ** (model.alpha * j) * A
        tail = gg_two_sided_tail(x, model.beta)
        if tail >= 1.0:
            return -math.inf
        total += 2.0 ** j * math.log1p(-tail)
        # once the ratio of consecutive weighted tails is certified <= 1/2,
        # the remainder is below twice the next term
        gap = (2.0 ** (model.alpha * (j + 1)) * A) ** model.beta - x ** model.beta
        if gap >= math.log(4.0):
            next_tail = gg_two_sided_tail(2.0 ** (model.alpha * (j + 1)) * A,
                                          model.beta)
            remainder = 2.0 * 2.0 ** (j + 1) * next_tail / max(1.0 - next_tail,
                                                               0.5)
            if remainder < tol:
                return total
        j += 1
        if j > max_depth:
            raise NonConvergenceError(
                f"leader CDF product does not certify convergence within "
                f"{max_depth} levels (alpha={model.alpha}, A={A}); "
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

    Per level the maximum of the 2^j i.i.d. |X| draws is sampled exactly by
    inverse CDF at u^(1/2^j), so the cost is one draw per level per path.
    The depth is capped at 24; the reported truncation bias bounds the
    probability that some level beyond J would exceed A.
    """
    if J < 1:
        raise DataError("need J >= 1")
    if J > 24:
        raise DataError("depth capped at 24 (16.7M finest-level coefficients)")
    if n_paths < 1:
        raise DataError("need n_paths >= 1")
    gen = rng.generator(0)
    inv_beta = 1.0 / model.beta
    best = np.full(n_paths, -np.inf)
    for j in range(J + 1):
        u = gen.random(n_paths)
        # tail prob of the level max: 1 - u^(1/2^j), computed stably
        t = -np.expm1(np.log(u) / 2.0 ** j)
        level_max = gammainccinv(inv_beta, t) ** inv_beta
        best = np.maximum(best, 2.0 ** (-model.alpha * j) * level_max)
    p_hat = float(np.mean(best <= A))
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_paths)
    bias = 0.0
    for j in range(J + 1, J + 60):
        term = 2.0 ** j * gg_two_sided_tail(2.0 ** (model.alpha * j) * A,
                                            model.beta)
        bias += term
        if term < 1e-18:
            break
    return MonteCarloCdf(p_hat, stderr, n_paths, J, bias)


# ---------------------------------------------------------------------------
# infinite products and the envelope constants

def partial_product_one_minus(l: int, j_stop: int) -> float:
    """prod_{j=l}^{j_stop} (1 - 1/(4 j^2)) by direct multiplication."""
    j = np.arange(l, j_stop + 1, dtype=float)
    return float(np.exp(np.sum(np.log1p(-1.0 / (4.0 * j * j)))))


def infinite_product_one_minus(l: int = 1, j_split: int = 100_000) -> float:
    """prod_{j>=l} (1 - 1/(4 j^2)): explicit product to j_split plus an
    analytic tail from the asymptotic expansion of sum_{j>J} j^-2k."""
    head = partial_product_one_minus(l, j_split)
    jj = float(j_split)
    s2 = 1.0 / jj - 1.0 / (2.0 * jj ** 2) + 1.0 / (6.0 * jj ** 3) \
        - 1.0 / (30.0 * jj ** 5)
    s4 = 1.0 / (3.0 * jj ** 3)
    tail_log = -(s2 / 4.0 + s4 / 32.0)
    return head * math.exp(tail_log)


def infinite_product_one_plus(j_split: int = 100_000) -> float:
    """prod_{j>=1} (1 + 1/(4 j (j+1))): explicit head plus the telescoping
    tail sum_{j>J} 1/(4 j (j+1)) = 1/(4(J+1))."""
    j = np.arange(1, j_split + 1, dtype=float)
    head = float(np.exp(np.sum(np.log1p(1.0 / (4.0 * j * (j + 1.0))))))
    jj = float(j_split)
    tail_log = 1.0 / (4.0 * (jj + 1.0)) - 1.0 / (96.0 * jj ** 3)
    return head * math.exp(tail_log)


def c_l_constant(l: int) -> float:
    """c_l = prod_{j>=l} (1 - 1/(4 j^2)) = (2/pi) / prod_{j<l} (...)."""
    if l < 1:
        raise DataError("l must be >= 1")
    if l == 1:
        return 2.0 / math.pi
    return (2.0 / math.pi) / partial_product_one_minus(1, l - 1)


def weighted_dyadic_sum(l: int) -> int:
    """sum_{j=0}^{l-1} 2^j (l - j) = 2^(l+1) - (l + 2), exactly."""
    if l < 1:
        raise DataError("l must be >= 1")
    return (1 << (l + 1)) - (l + 2)


def _mills_epsilon(model: RwsModel, i: float) -> float:
    """Two-sided Mills approximation of P(|X| > 2^(alpha i))."""
    x = 2.0 ** (model.alpha * i)
    expo = x ** model.beta
    if expo > 700.0:
        return 0.0
    return 2.0 * model.gg.kappa * math.exp(-expo) \
        / (model.beta * x ** (model.beta - 1.0))


def find_l_beta(model: RwsModel, i_cap: int = 200) -> int:
    """Smallest level l such that the Mills approximation is 1%-accurate at
    2^(alpha l) and the per-level product inequality
    (1 - 1/(4 i^2)) <= (1 - eps_i)^(2^(i+l+1)) holds for every i >= l."""
    thr = a_threshold(model) if model.beta != 1.0 else 1.0
    l_min = max(1, math.ceil(math.log2(thr) / model.alpha)) if thr > 1.0 else 1
    worst: dict[int, float] = {}
    for l in range(l_min, i_cap + 1):
        ok = True
        for i in range(l, i_cap + 1):
            eps = _mills_epsilon(model, i)
            lhs = math.log1p(-1.0 / (4.0 * i * i))
            if eps >= 1.0:
                ok = False
                worst[l] = math.inf
                break
            if eps == 0.0:
                break
            exponent = i + l + 1
            rhs = (2.0 ** exponent) * math.log1p(-eps) if exponent < 1000 \
                else -math.inf if eps > 0 else 0.0
            if lhs > rhs:
                ok = False
                worst[l] = lhs - rhs
                break
        if ok:
            return l
    raise RegimeError(
        "no level satisfies the tail-product inequality up to "
        f"i={i_cap}; worst residuals per candidate: "
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

    def __iter__(self):
        return iter((self.lower, self.upper, self.rate))


def small_A_bounds(model: RwsModel, A: float) -> SmallABounds:
    """Envelope for P(leader <= A) at small A, up to the existential
    multiplicative constants of the bound.

    The envelope (2^alpha / A) exp(A^(-1/alpha) log(2 c_l kappa Lambda /
    2^(2 alpha))) is evaluated at the interval ends Lambda = 1 (lower) and
    Lambda = pi/2 (upper); `rate` is the log-decay coefficient at the
    interval midpoint.  Useful for decay-rate verification only; absolute
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

    def envelope(lmbda: float) -> float:
        log_ratio = math.log(2.0 * c_l * kappa * lmbda) - 2.0 * model.alpha * LN2
        return (2.0 ** model.alpha / A) * math.exp(A ** (-1.0 / model.alpha)
                                                   * log_ratio)

    lam_mid = (1.0 + math.pi / 2.0) / 2.0
    rate = 2.0 * model.alpha * LN2 - math.log(2.0 * c_l * kappa * lam_mid)
    constants = {"l_beta": l_beta, "c_lbeta": c_l, "kappa_beta": kappa,
                 "lambda_interval": (1.0, math.pi / 2.0),
                 "lambda_implied": lam, "A_beta": a_threshold(model)}
    return SmallABounds(lower=envelope(1.0), upper=envelope(math.pi / 2.0),
                        rate=rate, constants=constants)


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

    `exact` comes from adaptive quadrature (absolute error certified below
    1e-12); the bounds are the partial-integration envelopes, which collapse
    to the closed form e^(-x)/2 at beta = 1.  For beta < 1 the upper bound
    only exists once (1-beta)/(beta x^beta) < 1 and is +inf otherwise.
    """
    if x <= 0:
        raise DataError("x must be > 0")
    gg = GenGaussianParams(beta)
    val, err = quad(lambda t: math.exp(-t ** beta), x, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    exact = gg.kappa * val
    if gg.kappa * err > 1e-12:
        raise NonConvergenceError(
            f"quadrature error {gg.kappa * err:.2e} exceeds 1e-12")
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
        def arr(a):
            return [None if (isinstance(v, float) and math.isnan(v)) else v
                    for v in np.asarray(a, dtype=float).tolist()]
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
            doc["monte_carlo"] = [{"estimate": r.estimate, "stderr": r.stderr,
                                   "n_paths": r.n_paths, "depth": r.depth,
                                   "truncation_bias_bound":
                                       r.truncation_bias_bound}
                                  for r in self.mc]
        return doc

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
                      mc_paths: int = 0, mc_depth: int = 18,
                      rng: RngSpec | None = None,
                      json_path=None, csv_path=None) -> TailBoundReport:
    """Exact leader CDF over a grid plus decay-rate and domination checks.

    Small-regime points (A <= 2^-alpha) feed a fit of log(-log P) against
    log A whose slope must sit near -1/alpha, and per-point empirical rate
    coefficients compared against the Lambda-interval envelope (membership
    is reported, with and without the A^(-1)-prefactor correction budget).
    Large-regime points (A > A_beta) must be dominated by the explicit
    bound.  Grid points in neither regime raise a RegimeError.
    """
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
    lower_small = np.full(n, np.nan)
    upper_small = np.full(n, np.nan)
    upper_large = np.full(n, np.nan)
    rate_hat = np.full(n, np.nan)
    rate_in = [False] * n
    rate_in_corr = [False] * n
    dominates = []

    small_idx = [i for i, r in enumerate(regime) if r == "small"]
    constants: dict = {"A_beta": a_beta}
    rate_lo = rate_hi = math.nan
    if small_idx:
        sb = small_A_bounds(model, grid[small_idx[0]])
        constants.update(sb.constants)
        c_l, kappa = sb.constants["c_lbeta"], sb.constants["kappa_beta"]
        rate_lo = 2.0 * model.alpha * LN2 \
            - math.log(2.0 * c_l * kappa * (math.pi / 2.0))
        rate_hi = 2.0 * model.alpha * LN2 - math.log(2.0 * c_l * kappa)
        for i in small_idx:
            a = grid[i]
            sb_i = small_A_bounds(model, a)
            lower_small[i], upper_small[i] = sb_i.lower, sb_i.upper
            prefactor = math.log(2.0 ** model.alpha / a)
            rate_hat[i] = -(log_cdf[i] - prefactor) * a ** (1.0 / model.alpha)
            rate_in[i] = rate_lo <= rate_hat[i] <= rate_hi
            budget = abs(prefactor) * a ** (1.0 / model.alpha)
            rate_in_corr[i] = (rate_lo - budget) <= rate_hat[i] \
                <= (rate_hi + budget)

    slope = slope_r2 = None
    slope_ok = None
    if len(small_idx) >= 2:
        xs = np.log(grid[small_idx])
        ys = np.log(-log_cdf[small_idx])
        fit = linfit(xs, ys)
        slope, slope_r2 = fit.slope, fit.r_squared
        # the asymptotic exponent needs some depth to show; with fewer than
        # four small-regime points the fit is reported but not judged
        if len(small_idx) >= 4:
            slope_ok = abs(slope - (-1.0 / model.alpha)) <= 0.1

    for i, r in enumerate(regime):
        if r == "large":
            upper_large[i] = large_A_bound(model, grid[i])
            dominates.append(upper_large[i] >= 1.0 - exact[i])

    mc_results = None
    if mc_paths > 0:
        if rng is None:
            raise DataError("Monte Carlo cross-check requires an RngSpec")
        mc_results = [leader_cdf_monte_carlo(model, a, mc_depth, mc_paths,
                                             rng.substream(i))
                      for i, a in enumerate(grid)]

    report = TailBoundReport(
        alpha=model.alpha, beta=model.beta, A_grid=grid, log_cdf=log_cdf,
        exact_cdf=exact, regime=regime, lower_small=lower_small,
        upper_small=upper_small, upper_large=upper_large, constants=constants,
        slope=slope, slope_r2=slope_r2, slope_target=-1.0 / model.alpha,
        slope_ok=slope_ok, rate_hat=rate_hat,
        rate_interval=(rate_lo, rate_hi), rate_in_interval=rate_in,
        rate_in_interval_corrected=rate_in_corr, large_dominates=dominates,
        mc=mc_results)
    if json_path is not None:
        report.to_json(json_path)
    if csv_path is not None:
        report.to_csv(csv_path)
    return report
