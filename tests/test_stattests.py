import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.optimize import minimize

from conftest import argsort_ball_geometry
from leaderlab import stattests
from leaderlab.core import (DataError, NonConvergenceError, RngSpec,
                            standard_normal_quantile)
from leaderlab.stattests import (LogConcaveMLE, _ball_geometry,
                                 _batch_interval_stat, fit_logconcave_mle,
                                 interval_discrepancy, logconcavity_test,
                                 qq_data, sample_from_mle, shapiro_wilk)


class TestShapiroWilk:
    def test_perfect_normal_scores(self):
        n = 50
        scores = standard_normal_quantile(
            (np.arange(1, n + 1) - 0.375) / (n + 0.25))
        rep = shapiro_wilk(scores)
        assert rep.statistic >= 0.99
        assert not rep.rejected

    def test_exponential_power(self):
        rejections = 0
        for i in range(100):
            x = RngSpec(700, i).generator().exponential(size=500)
            rep = shapiro_wilk(x, alpha=0.01)
            rejections += rep.p_value < 0.01
        assert rejections >= 95

    def test_level_calibration(self):
        # under the null the rejection rate sits at alpha
        rej = 0
        trials = 1000
        for i in range(trials):
            x = RngSpec(800, i).generator().standard_normal(1000)
            rej += shapiro_wilk(x).rejected
        assert rej / trials == pytest.approx(0.05, abs=0.02)

    def test_matches_reference_implementation(self):
        gen = np.random.default_rng(17)
        for n in (5, 12, 100, 1200):
            for maker in (gen.normal, gen.exponential, gen.uniform):
                x = maker(size=n)
                mine = shapiro_wilk(x)
                ref = scipy_stats.shapiro(x)
                assert mine.statistic == pytest.approx(ref.statistic,
                                                       abs=5e-5)
                assert mine.p_value == pytest.approx(ref.pvalue, abs=5e-4)

    def test_affine_invariance(self):
        x = RngSpec(900).generator().standard_normal(300)
        w0 = shapiro_wilk(x).statistic
        for a, b in [(3.0, -2.0), (0.01, 100.0)]:
            w = shapiro_wilk(a * x + b).statistic
            assert w == pytest.approx(w0, abs=1e-10)
        assert 0.0 < w0 <= 1.0

    def test_subsampling_above_limit(self):
        x = RngSpec(901).generator().standard_normal(6000)
        with pytest.raises(DataError):
            shapiro_wilk(x)  # needs an rng to subsample
        rep1 = shapiro_wilk(x, rng=RngSpec(5))
        rep2 = shapiro_wilk(x, rng=RngSpec(5))
        assert rep1.statistic == rep2.statistic
        assert rep1.n == 5000 and rep1.details["subsampled"]
        assert rep1.details["n_original"] == 6000

    def test_errors(self):
        with pytest.raises(DataError):
            shapiro_wilk(np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            shapiro_wilk(np.full(10, 3.0))


class TestQQData:
    def test_exact_scores_on_diagonal(self):
        n = 40
        scores = standard_normal_quantile((np.arange(1, n + 1) - 0.5) / n)
        pairs = qq_data(scores)
        assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) <= 1e-9

    def test_three_point_quantiles(self):
        pairs = qq_data(np.array([2.0, 1.0, 3.0]))
        expect = standard_normal_quantile(np.array([1, 3, 5]) / 6.0)
        assert pairs[:, 0] == pytest.approx(expect)
        assert np.array_equal(pairs[:, 1], [1.0, 2.0, 3.0])

    def test_monotone(self):
        pairs = qq_data(RngSpec(7).generator().normal(size=200))
        assert np.all(np.diff(pairs[:, 0]) > 0)
        assert np.all(np.diff(pairs[:, 1]) >= 0)


def _two_knot_oracle(samples):
    """Direct numerical maximization over two-knot log-linear densities."""
    lo, hi = float(np.min(samples)), float(np.max(samples))
    span = hi - lo

    def neg(v):
        a, b = v
        if abs(b - a) < 1e-12:
            integral = span * math.exp(a)
        else:
            integral = span * (math.exp(b) - math.exp(a)) / (b - a)
        phi = a + (samples - lo) / span * (b - a)
        return -(phi.mean() - integral)

    res = minimize(neg, [-math.log(span)] * 2, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    return res.x


def _loglik_and_grad(phi, y):
    """(1/n) sum phi(X_i) - integral exp(phi) for phi piecewise linear on the
    distinct, untied sample y, and its gradient in the values phi.

    Per segment, the integral of exp(phi) and the shares of it carried by the
    hat functions of its two ends are written in e^max(a, b) and e^-|b - a|,
    so that nothing overflows."""
    a, b = phi[:-1], phi[1:]
    t = np.abs(b - a)
    small = t < 1e-3
    ts = np.where(small, 1.0, t)
    scale = np.diff(y) * np.exp(np.maximum(a, b))
    total = scale * np.where(small, 1 - t / 2 + t ** 2 / 6 - t ** 3 / 24,
                             -np.expm1(-ts) / ts)
    # share of the end where phi is lower
    low = scale * np.where(small, 0.5 - t / 3 + t ** 2 / 8 - t ** 3 / 30,
                           (-np.expm1(-ts) - ts * np.exp(-ts)) / ts ** 2)
    left = np.where(a <= b, low, total - low)
    grad = np.full(y.size, 1.0 / y.size)
    grad[:-1] -= left
    grad[1:] -= total - left
    return float(np.mean(phi) - np.sum(total)), grad


def _constrained_optimizer_mle(y):
    """Values at every order statistic of the log-concave MLE, by SLSQP, and
    the largest violation of concavity among them.

    Maximizes the same objective as `fit_logconcave_mle` over all m values
    with m - 2 linear concavity constraints (each row normalized to unit
    length, without which SLSQP stalls on the short central segments),
    starting from the flat density on the sample range."""
    h = np.diff(y)
    m = y.size
    rows = np.arange(m - 2)
    concave = np.zeros((m - 2, m))    # slope increments, feasible when <= 0
    concave[rows, rows] = 1.0 / h[:-1]
    concave[rows, rows + 1] = -1.0 / h[:-1] - 1.0 / h[1:]
    concave[rows, rows + 2] = 1.0 / h[1:]
    concave /= np.linalg.norm(concave, axis=1)[:, None]

    def neg(phi):
        f, grad = _loglik_and_grad(phi, y)
        return -f, -grad

    res = minimize(neg, np.full(m, -math.log(y[-1] - y[0])), jac=True,
                   method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda p: -concave @ p,
                                 "jac": lambda p: -concave}],
                   options={"maxiter": 1000, "ftol": 1e-12})
    assert res.success, res.message
    return res.x, float(np.max(concave @ res.x))


class TestLogConcaveMLE:
    def test_two_points_uniform(self):
        model = fit_logconcave_mle(np.array([0.0, 1.0]))
        assert np.max(np.abs(model.log_density_at_knots)) <= 1e-4
        oracle = _two_knot_oracle(np.array([0.0, 1.0]))
        assert model.log_density_at_knots == pytest.approx(oracle, abs=1e-4)
        assert model.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_parabola(self):
        # Monte Carlo consistency: the average fitted log-density over a few
        # n=5000 draws tracks the true parabola within 0.1 on the central
        # 90% quantile range (single fits fluctuate around that scale)
        grid = np.linspace(standard_normal_quantile(0.05),
                           standard_normal_quantile(0.95), 61)
        fits = []
        for seed in range(6):
            x = RngSpec(1001, seed).generator().standard_normal(5000)
            model = fit_logconcave_mle(x)
            fits.append(model.log_pdf(grid))
        avg = np.mean(fits, axis=0)
        true = -0.5 * grid ** 2 - 0.5 * math.log(2 * math.pi)
        assert np.max(np.abs(avg - true)) <= 0.1

    def test_laplace_slopes(self):
        x = RngSpec(1002).generator().laplace(size=5000)
        model = fit_logconcave_mle(x)
        med = float(np.median(x))
        left = np.linspace(med - 3.0, med - 1.0, 25)
        right = np.linspace(med + 1.0, med + 3.0, 25)
        s_left = np.polyfit(left, model.log_pdf(left), 1)[0]
        s_right = np.polyfit(right, model.log_pdf(right), 1)[0]
        assert s_left == pytest.approx(1.0, abs=0.15)
        assert s_right == pytest.approx(-1.0, abs=0.15)

    def test_objective_monotone(self):
        x = RngSpec(1003).generator().exponential(size=400)
        model = fit_logconcave_mle(x)
        diffs = np.diff(model.objective_path)
        assert np.min(diffs) >= -1e-12

    @pytest.mark.parametrize("draw", [7, 29])
    def test_optimal_against_constrained_optimizer(self, draw):
        # the two n=200 Cauchy draws of the acceptance calibration table that
        # the permutation test does not reject: a generic solver over all
        # order statistics must not find a higher objective than the MLE
        x = RngSpec(520, draw).generator().standard_cauchy(size=200)
        y = np.sort(x)
        model = fit_logconcave_mle(x)
        phi, violation = _constrained_optimizer_mle(y)
        f_mle = _loglik_and_grad(model.log_pdf(y), y)[0]
        f_opt = _loglik_and_grad(phi, y)[0]
        assert violation <= 1e-9
        assert f_opt <= f_mle + 1e-9
        # the solver reached the optimum, so the bound above is not idle
        assert f_opt >= f_mle - 1e-9

    def test_concavity_and_mass_invariants(self):
        for seed in range(5):
            x = RngSpec(1100, seed).generator().normal(size=300)
            model = fit_logconcave_mle(x)
            slopes = np.diff(model.log_density_at_knots) / np.diff(model.knots)
            assert np.all(np.diff(slopes) <= 1e-9)
            assert model.total_mass() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=300)
    @given(x=st.one_of(
        # tiny samples of any finite values
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
        # many ties among a few values
        st.lists(st.integers(-3, 3), min_size=2, max_size=40),
        # heavy tails: Cauchy, Pareto(0.5) and Student t(1) draws
        st.builds(lambda seed, n, kind: getattr(
            RngSpec(seed).generator(), kind[0])(*kind[1:], size=n),
            st.integers(0, 2 ** 32 - 1), st.integers(5, 300),
            st.sampled_from([("standard_cauchy",), ("pareto", 0.5),
                             ("standard_t", 1)])),
    ).map(lambda v: np.asarray(v, dtype=float))
     .filter(lambda x: np.unique(x).size >= 2))
    def test_mass_one_and_concave_on_any_sample(self, x):
        model = fit_logconcave_mle(x)
        assert model.total_mass() == pytest.approx(1.0, abs=1e-9)
        slopes = np.diff(model.log_density_at_knots) / np.diff(model.knots)
        bend = np.diff(slopes)
        assert np.all(bend <= 1e-9 * np.maximum(1.0, np.abs(slopes[1:])))

    def test_affine_equivariance(self):
        x = RngSpec(1004).generator().normal(size=500)
        a, b = 2.5, -7.0
        m1 = fit_logconcave_mle(x)
        m2 = fit_logconcave_mle(a * x + b)
        grid = np.linspace(np.quantile(x, 0.1), np.quantile(x, 0.9), 30)
        lhs = m2.log_pdf(a * grid + b)
        rhs = m1.log_pdf(grid) - math.log(a)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_errors(self):
        with pytest.raises(DataError):
            fit_logconcave_mle(np.array([1.0]))
        with pytest.raises(DataError):
            fit_logconcave_mle(np.full(10, 2.0))
        with pytest.raises(DataError):
            fit_logconcave_mle(np.array([1.0, np.inf]))


def same_fit(a: LogConcaveMLE, b: LogConcaveMLE) -> bool:
    return (np.array_equal(a.knots, b.knots)
            and np.array_equal(a.log_density_at_knots, b.log_density_at_knots)
            and a.objective_path == b.objective_path and a.n == b.n)


class TestMLEMemo:
    """`fit_logconcave_mle` keeps its last fit: a repeated sample costs no
    second solve, and what it returns is the cold fit's, bit for bit."""

    @pytest.fixture
    def solves(self, monkeypatch):
        stattests._last_fit.cache_clear()
        calls = []
        solve = stattests._active_set

        def counted(x):
            calls.append(x.size)
            return solve(x)

        monkeypatch.setattr(stattests, "_active_set", counted)
        yield calls
        stattests._last_fit.cache_clear()

    def test_fit_then_test_solves_once(self, solves):
        x = RngSpec(2201).generator().standard_t(4, size=300)
        fit_logconcave_mle(x)
        rep = logconcavity_test(x, B=19, rng=RngSpec(2202))
        assert solves == [300]
        stattests._last_fit.cache_clear()
        assert logconcavity_test(x, B=19, rng=RngSpec(2202)) == rep
        assert solves == [300, 300]

    def test_fits_are_independent(self, solves):
        x = RngSpec(2203).generator().normal(size=200)
        first = fit_logconcave_mle(x)
        second = fit_logconcave_mle(x)
        assert solves == [200] and same_fit(first, second)
        assert not np.shares_memory(first.knots, second.knots)
        first.knots[:] = 0.0
        first.log_density_at_knots[:] = 0.0
        first.objective_path.append(1.0)
        assert same_fit(fit_logconcave_mle(x), second)
        knots, values, _ = stattests._last_fit(x.tobytes())
        assert not knots.flags.writeable and not values.flags.writeable

    def test_one_ulp_away_is_its_own_fit(self, solves):
        x = RngSpec(2204).generator().normal(size=200)
        near = x.copy()
        top = int(np.argmax(x))
        near[top] = np.nextafter(x[top], np.inf)
        fit_logconcave_mle(x)
        warm = fit_logconcave_mle(near)
        assert solves == [200, 200]
        # the largest point is always a knot
        assert warm.knots[-1] == near[top] != x[top]
        stattests._last_fit.cache_clear()
        assert same_fit(fit_logconcave_mle(near), warm)

    def test_refusals_are_not_kept(self, solves, monkeypatch):
        x = RngSpec(2205).generator().normal(size=100)
        # NaN is refused before the solve, a constant sample by it
        for bad, size in ((np.where(np.arange(100) == 7, np.nan, x), None),
                          (np.full(30, 2.0), 30)):
            for _ in range(2):
                with pytest.raises(DataError):
                    fit_logconcave_mle(bad)
            assert solves == ([] if size is None else [size, size])
        # one active-set pass does not settle: the fit raises every time
        passes = stattests._MAX_OUTER
        monkeypatch.setattr(stattests, "_MAX_OUTER", 1)
        for _ in range(2):
            with pytest.raises(NonConvergenceError):
                fit_logconcave_mle(x)
        assert solves == [30, 30, 100, 100]
        monkeypatch.setattr(stattests, "_MAX_OUTER", passes)
        fit = fit_logconcave_mle(x)
        stattests._last_fit.cache_clear()
        assert same_fit(fit_logconcave_mle(x), fit)


class TestSampleFromMLE:
    def test_uniform_model(self):
        model = fit_logconcave_mle(np.array([0.0, 1.0]))
        draws = sample_from_mle(model, 10_000, RngSpec(2001))
        d = scipy_stats.kstest(draws, "uniform").statistic
        assert d <= 0.02

    def test_single_segment_exponential_slope(self):
        # hand-built model: density proportional to e^(s x) on [0, 1]
        s = 2.0
        c = math.log(s / (math.exp(s) - 1.0))
        model = LogConcaveMLE(knots=np.array([0.0, 1.0]),
                              log_density_at_knots=np.array([c, c + s]), n=2)
        draws = sample_from_mle(model, 20_000, RngSpec(2002))

        def cdf(x):
            return (np.exp(s * x) - 1.0) / (math.exp(s) - 1.0)

        d = scipy_stats.kstest(draws, cdf).statistic
        assert d <= 0.015
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        # closed-form inversion on the replayed stream: segment picks, then u
        gen = RngSpec(2002).generator(0)
        gen.choice(1, size=draws.size, p=[1.0])
        u = gen.random(draws.size)
        assert np.allclose(draws, np.log1p(u * math.expm1(s)) / s,
                           rtol=0.0, atol=1e-12)

    def test_mean_matches_closed_form(self):
        x = RngSpec(2003).generator().normal(2.0, 1.5, size=2000)
        model = fit_logconcave_mle(x)
        draws = sample_from_mle(model, 50_000, RngSpec(2004))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - model.mean()) <= 3.0 * se


def brute_force_T(x, xs):
    n = len(x)
    pooled = np.concatenate([x, xs])
    best = 0.0
    for c in pooled:
        for d in np.unique(np.abs(pooled - c)):
            inx = int(np.sum(np.abs(x - c) <= d))
            ins = int(np.sum(np.abs(xs - c) <= d))
            best = max(best, abs(inx - ins) / n)
    return best


class TestIntervalDiscrepancy:
    def test_identical_samples(self):
        x = np.array([3.0, 1.0, 2.0])
        assert interval_discrepancy(x, x) == 0.0

    def test_separated_pairs(self):
        assert interval_discrepancy([0.0, 1.0], [2.0, 3.0]) == 1.0

    def test_affine_invariance(self):
        gen = RngSpec(3001).generator()
        x = gen.normal(size=25)
        xs = gen.normal(size=25) + 0.5
        t0 = interval_discrepancy(x, xs)
        for a, b in [(2.0, 3.0), (-1.5, 0.0), (0.01, -9.0)]:
            assert interval_discrepancy(a * x + b, a * xs + b) == t0

    @pytest.mark.parametrize("n", [2, 5, 17, 50])
    def test_matches_brute_force(self, n):
        gen = RngSpec(3002, n).generator()
        for trial in range(8):
            x = np.round(gen.normal(size=n), 2)
            xs = np.round(gen.normal(size=n) * 1.4, 2)
            assert interval_discrepancy(x, xs) == pytest.approx(
                brute_force_T(x, xs), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            interval_discrepancy([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(DataError, match="NaN or Inf"):
            interval_discrepancy([1.0, bad], [1.0, 2.0])
        with pytest.raises(DataError, match="NaN or Inf"):
            interval_discrepancy([1.0, 2.0], [bad, 2.0])


# multiples k * 0.1: on 11 points ties are frequent, and some computed
# distances that are equal in exact arithmetic differ in the last bit
COARSE_GRID = st.integers(-5, 5).map(lambda k: k * 0.1)


@given(pairs=st.lists(st.tuples(COARSE_GRID, COARSE_GRID), min_size=1,
                      max_size=12))
def test_interval_discrepancy_is_brute_force(pairs):
    x, xs = (np.array(v) for v in zip(*pairs))
    assert interval_discrepancy(x, xs) == brute_force_T(x, xs)


def brute_force_balls(z):
    """Distinct balls around the points of z, as (first, last) index pairs
    of the points each one holds."""
    balls = set()
    for c in z:
        dist = np.abs(z - c)
        for d in np.unique(dist):
            inside = np.flatnonzero(dist <= d)
            balls.add((int(inside[0]), int(inside[-1])))
    return balls


# pooled samples with exact ties, and multiples k * 0.1: around a center,
# the computed distances to the points k steps left and right are equal for
# some centers and k (4 * 0.1 - 3 * 0.1 == 5 * 0.1 - 4 * 0.1) and not for
# others (2 * 0.1 - 1 * 0.1 != 3 * 0.1 - 2 * 0.1)
TIED_SAMPLES = {
    "rounded": lambda gen, n: (np.round(gen.normal(size=n), 1),
                               np.round(gen.normal(size=n) * 1.4, 1)),
    "integers": lambda gen, n: (gen.integers(0, 6, n).astype(float),
                                gen.integers(0, 6, n).astype(float)),
    "tenths": lambda gen, n: tuple(np.split(
        gen.permutation(2 * n) * 0.1, 2)),
}


def pooled_rows(x, xs, n_rows, seed):
    """Sorted pooled sample, the labels of the (x, xs) split on it, and
    n_rows - 1 random relabelings."""
    n = len(x)
    z = np.concatenate([x, xs])
    base = np.concatenate([np.ones(n, dtype=np.int8),
                           -np.ones(n, dtype=np.int8)])
    idx = np.argsort(z, kind="stable")
    gen = RngSpec(seed).generator()
    labels = np.stack([base[idx]] + [gen.permutation(base)
                                     for _ in range(n_rows - 1)])
    return z[idx], labels


# pool values whose computed distances tie or overflow: the coarse grid, a
# few exact duplicates, points 1 + k eps a few ulps apart, and +-1e308 and
# +-5e307, whose distances across zero overflow to inf
POOL_VALUES = {
    "grid": COARSE_GRID,
    "duplicates": st.sampled_from([-2.5, 0.0, 1.0, 3.0]),
    "ulps": st.integers(0, 8).map(lambda k: 1.0 + k * np.finfo(float).eps),
    "overflow": st.sampled_from([-1e308, -5e307, 0.0, 5e307, 1e308]),
}
POOL_VALUES["mixed"] = st.one_of(*POOL_VALUES.values())


@st.composite
def sorted_pools(draw):
    """Two samples of 1-40 points of one POOL_VALUES kind, pooled and
    sorted."""
    side = st.lists(POOL_VALUES[draw(st.sampled_from(sorted(POOL_VALUES)))],
                    min_size=1, max_size=40)
    return np.sort(np.array(draw(side) + draw(side)))


@given(z=sorted_pools())
@example(z=np.array([-1e308, 1e308]))
@settings(max_examples=200)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_ball_geometry_is_brute_force(z):
    lo, hi = np.nonzero(_ball_geometry(z))
    assert set(zip(lo.tolist(), (hi - 1).tolist())) == brute_force_balls(z)


class TestBallKernel:
    @pytest.mark.parametrize("kind", sorted(TIED_SAMPLES))
    def test_geometry_matches_brute_force(self, kind):
        x, xs = TIED_SAMPLES[kind](RngSpec(3101).generator(), 30)
        z, _ = pooled_rows(x, xs, 1, 3102)
        lo, hi = np.nonzero(_ball_geometry(z))
        assert set(zip(lo.tolist(), (hi - 1).tolist())) == brute_force_balls(z)

    # the prefix sums are int16 on every pool that `_POOL_BYTES` admits
    @pytest.mark.parametrize("prefix", ["int16"])
    @pytest.mark.parametrize("kind", sorted(TIED_SAMPLES))
    def test_every_row_matches_brute_force(self, kind, prefix):
        n = 20
        x, xs = TIED_SAMPLES[kind](RngSpec(3103).generator(), n)
        z, labels = pooled_rows(x, xs, 6, 3104)
        t = _batch_interval_stat(_ball_geometry(z), labels)
        assert t.shape == (6,)
        for row, t_row in zip(labels, t):
            assert t_row == round(
                n * brute_force_T(z[row == 1], z[row == -1]))

    @pytest.mark.parametrize("kind", sorted(TIED_SAMPLES))
    def test_geometry_matches_argsort_kernel(self, kind):
        x, xs = TIED_SAMPLES[kind](RngSpec(3109).generator(), 500)
        z, _ = pooled_rows(x, xs, 1, 3110)
        assert np.array_equal(_ball_geometry(z), argsort_ball_geometry(z))

    @pytest.mark.parametrize("chunk", [7, "two_rows"])
    def test_chunks_cut_through_centers(self, monkeypatch, chunk):
        n = 60
        x, xs = TIED_SAMPLES["rounded"](RngSpec(3105).generator(), n)
        z, labels = pooled_rows(x, xs, 9, 3106)
        balls = _ball_geometry(z)
        t = _batch_interval_stat(balls, labels)
        sample = RngSpec(3107).generator().standard_t(4, size=n)
        rep = logconcavity_test(sample, B=19, rng=RngSpec(3108))
        # 7 elements: one bitmap row per block and one ball per gather; two
        # rows plus a few: gathers end inside the balls of one bitmap row
        monkeypatch.setattr(stattests, "_CHUNK_ELEMENTS",
                            7 if chunk == 7 else 2 * z.size + 5)
        assert np.array_equal(_batch_interval_stat(balls, labels), t)
        again = logconcavity_test(sample, B=19, rng=RngSpec(3108))
        assert again == rep

    def test_statistic_memory_is_bounded(self):
        # the prefix sums (0.4 MB here), one block of ball indices (16 bytes
        # per ball, 2.9 MB for the largest block of 2^18 bitmap entries
        # here) and two int16 gathers of 0.5 MB: 4.4 MB; a block kept alive
        # while the next one's indices are taken would pass 5 MB
        gen = RngSpec(3111).generator()
        n = 1018
        z, labels = pooled_rows(gen.normal(size=n), gen.normal(size=n), 100,
                                3112)
        balls = _ball_geometry(z)
        tracemalloc.start()
        try:
            _batch_interval_stat(balls, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    # (seed, n, draw, statistic, threshold, rejected), as computed by the
    # per-replicate cumulative-sum kernel this one replaced
    GOLDEN = [
        (4101, 60, "normal", 0.2, 0.26666666666666666, False),
        (4102, 250, "standard_t", 0.116, 0.14, False),
        (4103, 500, "standard_cauchy", 0.376, 0.11, True),
    ]

    @pytest.mark.parametrize("seed,n,draw,stat,threshold,rejected", GOLDEN)
    def test_golden_reports(self, seed, n, draw, stat, threshold, rejected):
        gen = RngSpec(seed).generator()
        x = (gen.standard_t(5, size=n) if draw == "standard_t"
             else getattr(gen, draw)(size=n))
        rep = logconcavity_test(x, B=99, alpha=0.05, rng=RngSpec(seed, 1))
        assert (rep.statistic, rep.details["threshold"], rep.rejected) == (
            stat, threshold, rejected)


class TestLogConcavityTest:
    def test_report_fields_and_threshold_rule(self):
        x = RngSpec(4001).generator().normal(size=120)
        rep = logconcavity_test(x, B=99, alpha=0.05, rng=RngSpec(4002))
        assert rep.name == "logconcave_permutation"
        assert rep.B == 99 and rep.n == 120
        assert rep.p_value is None
        assert rep.details["threshold"] >= 0.0
        assert rep.rejected == (rep.statistic > rep.details["threshold"])
        n_balls = rep.details["n_balls"]
        assert isinstance(n_balls, int) and 0 < n_balls <= (2 * 120) ** 2

    def test_tiny_b_never_rejects(self):
        # ceil((B+1)(1-alpha)) > B makes the threshold +inf
        x = RngSpec(4003).generator().normal(size=60)
        rep = logconcavity_test(x, B=1, alpha=0.05, rng=RngSpec(4004))
        assert not rep.rejected
        assert rep.details["threshold"] == math.inf

    def test_reproducible(self):
        x = RngSpec(4005).generator().normal(size=100)
        a = logconcavity_test(x, B=49, alpha=0.05, rng=RngSpec(4006))
        b = logconcavity_test(x, B=49, alpha=0.05, rng=RngSpec(4006))
        assert a.statistic == b.statistic
        assert a.details["threshold"] == b.details["threshold"]

    def test_rejects_bimodal(self):
        # far-separated normal mixture is decisively non-log-concave
        gen = RngSpec(4007).generator()
        x = np.concatenate([gen.normal(-6.0, 1.0, 150),
                            gen.normal(6.0, 1.0, 150)])
        rep = logconcavity_test(x, B=99, alpha=0.05, rng=RngSpec(4008))
        assert rep.rejected

    def test_requires_rng(self):
        with pytest.raises(DataError):
            logconcavity_test(np.arange(10.0), rng=None)


class TestPoolBudget:
    """A pool whose bitmap, label rows and prefix sums would exceed
    `_POOL_BYTES` is refused before the fit and before anything of its size
    is allocated."""

    # (n, B): level 1 of a 2^15-sample signal (a 1.07 GB bitmap), and a
    # disttest-sized sample whose 10^6 + 1 label rows alone take 2 GB
    @pytest.mark.parametrize("n,B", [(16380, 99), (1018, 10 ** 6)])
    def test_refused_before_the_fit(self, monkeypatch, n, B):
        def no_fit(x):
            raise AssertionError("fitted a refused sample")

        monkeypatch.setattr(stattests, "fit_logconcave_mle", no_fit)
        x = RngSpec(4201).generator().normal(size=n)
        tracemalloc.start()
        try:
            with pytest.raises(DataError) as info:
                logconcavity_test(x, B=B, rng=RngSpec(4202))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert f"n = {n} " in str(info.value)
        assert f"budget of {2 ** 29} bytes" in str(info.value)

    def test_interval_discrepancy_refused(self):
        x = np.arange(16380.0)
        with pytest.raises(DataError, match="n = 16380 "):
            interval_discrepancy(x, x + 0.5)

    def test_budget_keeps_the_pool_below_2_to_the_15(self):
        # the bitmap of m = 2^15 pooled points alone passes the budget, so
        # an int16 prefix sum of m labels cannot overflow
        with pytest.raises(DataError):
            stattests._check_pool(2 ** 14, 1)

    def test_level_two_of_a_long_signal_fits(self):
        # level 2 of a 2^15-sample signal keeps about 8190 leaders: B = 99
        # fits the budget, B = 9999 does not
        stattests._check_pool(8190, 100)
        with pytest.raises(DataError):
            stattests._check_pool(8190, 10000)
