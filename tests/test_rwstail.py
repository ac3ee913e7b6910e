import inspect
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import gg_tail_by_quadrature, inverse_cdf_leader_cdf_monte_carlo
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from leaderlab import rwstail
from leaderlab.core import DataError, NonConvergenceError, RegimeError, RngSpec
from leaderlab.rwstail import (RwsModel, a_threshold, gg_cdf,
                               gg_two_sided_tail, large_A_bound,
                               leader_cdf_exact, leader_cdf_monte_carlo,
                               leader_log_cdf_exact, mills_bounds,
                               small_A_bounds, verify_tail_rates)


class TestGgCdf:
    def test_zero(self):
        assert gg_cdf(0.0, 2.0) == 0.0

    def test_laplace_closed_form(self):
        # beta=1: P(|X| <= x) = 1 - e^-x
        for x in (0.3, 1.0, 4.0):
            assert gg_cdf(x, 1.0) == pytest.approx(1.0 - math.exp(-x),
                                                   rel=1e-12)

    def test_gaussian_by_quadrature(self):
        # oracle: numerical integration of the variance-1/2 density
        val, _ = quad(lambda t: math.exp(-t * t) / math.sqrt(math.pi),
                      -1.0, 1.0, epsabs=1e-14)
        assert gg_cdf(1.0, 2.0) == pytest.approx(val, abs=1e-12)
        assert gg_cdf(1.0, 2.0) == pytest.approx(0.8427007929497149, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DataError):
            gg_cdf(-0.5, 2.0)


class TestLeaderCdfExact:
    def test_large_a_limit(self):
        model = RwsModel(1.0, 2.0)
        assert leader_cdf_exact(model, 1e3) >= 1.0 - 1e-10

    def test_monotone_in_a(self):
        model = RwsModel(1.0, 2.0)
        assert leader_cdf_exact(model, 0.1) < leader_cdf_exact(model, 0.2)

    @pytest.mark.parametrize("a_val", [0.05, 0.25, 1.0])
    def test_matches_fixed_depth_product(self, a_val):
        model = RwsModel(1.0, 2.0)
        log_p = 0.0
        for j in range(41):
            f = gg_cdf(2.0 ** j * a_val, 2.0)
            log_p += 2.0 ** j * math.log(f)
        mine = leader_cdf_exact(model, a_val, tol=1e-12)
        assert mine == pytest.approx(math.exp(log_p), abs=1e-12)

    def test_tightening_tol(self):
        model = RwsModel(1.0, 2.0)
        loose = leader_cdf_exact(model, 0.4, tol=1e-6)
        tight = leader_cdf_exact(model, 0.4, tol=1e-14)
        assert abs(loose - tight) <= 1e-6

    def test_nonconvergence_for_tiny_alpha(self):
        model = RwsModel(0.005, 2.0)
        with pytest.raises(NonConvergenceError):
            leader_log_cdf_exact(model, 1e-4)

    def test_validation(self):
        model = RwsModel(1.0, 2.0)
        with pytest.raises(DataError):
            leader_cdf_exact(model, 0.0)
        with pytest.raises(DataError):
            leader_cdf_exact(model, 0.5, tol=0.0)


@given(alpha=st.floats(0.5, 3.0), beta=st.floats(0.5, 4.0),
       a_pair=st.lists(st.floats(1e-3, 50.0), min_size=2, max_size=2))
def test_log_cdf_nonpositive_and_nondecreasing(alpha, beta, a_pair):
    model = RwsModel(alpha, beta)
    a_lo, a_hi = sorted(a_pair)
    lo = leader_log_cdf_exact(model, a_lo)
    hi = leader_log_cdf_exact(model, a_hi)
    assert lo <= hi <= 0.0


CLI_GRID = [2.0 ** (-k) for k in range(9, 3, -1)] + [7.1, 8.0, 10.0]


class _FixedUniforms:
    """Stands in for an RngSpec whose stream hands out `rows`, one value
    per level, repeated over the paths, into the buffer passed as `out`."""

    def __init__(self, rows):
        self.rows = rows

    def generator(self, *path):
        rows = iter(self.rows)
        return SimpleNamespace(random=lambda out: out.fill(next(rows)))


class TestLeaderCdfMonteCarlo:
    def test_agrees_with_truncated_product(self):
        model = RwsModel(1.0, 2.0)
        res = leader_cdf_monte_carlo(model, 0.5, J=14, n_paths=100_000,
                                     rng=RngSpec(21))
        log_p = sum(2.0 ** j * math.log(gg_cdf(2.0 ** j * 0.5, 2.0))
                    for j in range(15))
        assert abs(res.estimate - math.exp(log_p)) <= 4.0 * res.stderr

    def test_tiny_a_is_zero(self):
        model = RwsModel(1.0, 2.0)
        res = leader_cdf_monte_carlo(model, 1e-12, J=4, n_paths=2000,
                                     rng=RngSpec(22))
        assert res.estimate == 0.0

    def test_depth_one_closed_form(self):
        model = RwsModel(1.0, 2.0)
        a_val = 0.8
        res = leader_cdf_monte_carlo(model, a_val, J=1, n_paths=200_000,
                                     rng=RngSpec(23))
        closed = gg_cdf(a_val, 2.0) * gg_cdf(2.0 * a_val, 2.0) ** 2
        assert abs(res.estimate - closed) <= 4.0 * res.stderr

    def test_validation(self):
        model = RwsModel(1.0, 2.0)
        with pytest.raises(DataError):
            leader_cdf_monte_carlo(model, 0.5, J=0, n_paths=10, rng=RngSpec(1))
        with pytest.raises(DataError):
            leader_cdf_monte_carlo(model, 0.5, J=30, n_paths=10, rng=RngSpec(1))
        for a_val in (0.0, -0.5):
            with pytest.raises(DataError):
                leader_cdf_monte_carlo(model, a_val, J=4, n_paths=10,
                                       rng=RngSpec(1))

    @pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (1.0, 1.0),
                                            (1.5, 0.7), (0.8, 3.0)])
    def test_same_estimates_as_inverse_cdf_oracle(self, alpha, beta):
        # the event count decides as the inverse-CDF draw of each level
        # maximum does, on the CLI's default grid and its depth
        model = RwsModel(alpha, beta)
        for seed in (3, 4):
            for i, a_val in enumerate(CLI_GRID):
                rng = RngSpec(seed).substream(i)
                mine = leader_cdf_monte_carlo(model, a_val, 18, 2000, rng)
                assert mine.estimate == inverse_cdf_leader_cdf_monte_carlo(
                    model, a_val, 18, 2000, rng), (seed, a_val)

    def test_ten_bytes_per_path(self):
        # one float64 buffer takes every level's draw, beside two bools
        model = RwsModel(1.0, 2.0)
        leader_cdf_monte_carlo(model, 0.5, 4, 10, RngSpec(5))  # imports
        tracemalloc.start()
        try:
            leader_cdf_monte_carlo(model, 0.5, 4, 10 ** 6, RngSpec(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11e6

    def test_draw_at_threshold_counts_as_below(self):
        # tau_j = exp(2^j log1p(-P(|X| > 2^(alpha j) A))), the exp of the
        # j-th term of the exact product; a draw equal to tau_j is below A
        # and the next float up is not
        model = RwsModel(1.0, 2.0)
        a_val, depth = 0.5, 4
        taus = [math.exp(2.0 ** j * math.log1p(-gg_two_sided_tail(
            2.0 ** j * a_val, 2.0))) for j in range(depth + 1)]
        at = leader_cdf_monte_carlo(model, a_val, depth, 3,
                                    _FixedUniforms(taus))
        assert at.estimate == 1.0
        for j in range(depth + 1):
            above = list(taus)
            above[j] = np.nextafter(taus[j], 2.0)
            res = leader_cdf_monte_carlo(model, a_val, depth, 3,
                                         _FixedUniforms(above))
            assert res.estimate == 0.0, j


def _envelope_constants(alpha, beta):
    """The model-only constants the small-A envelope reports."""
    return small_A_bounds(RwsModel(alpha, beta), 2.0 ** -alpha).constants


class TestConstants:
    def test_c_l2_closed_form(self):
        # l_beta = 3 at (1, 2): the product over j >= 3 equals 128/(45 pi)
        consts = _envelope_constants(1.0, 2.0)
        assert consts["l_beta"] == 3
        assert consts["c_lbeta"] == pytest.approx(128.0 / (45.0 * math.pi),
                                                  abs=1e-10)

    def test_c_l1_is_two_over_pi(self):
        # l_beta = 1 at (5, 2): the empty product over j < 1 leaves 2/pi
        # exactly
        consts = _envelope_constants(5.0, 2.0)
        assert consts["l_beta"] == 1
        assert consts["c_lbeta"] == 2.0 / math.pi

    def test_kappa_beta2(self):
        model = RwsModel(1.0, 2.0)
        assert model.gg.kappa == pytest.approx(1.0 / math.sqrt(math.pi),
                                               abs=1e-12)

    def test_l_beta_values(self):
        consts = _envelope_constants(1.0, 2.0)
        assert consts["l_beta"] == 3
        assert 1.0 < consts["lambda_implied"] < math.pi / 2.0

    def test_no_function_takes_a_level(self):
        # l_beta is derived from the model, never passed in
        for name, func in inspect.getmembers(rwstail, inspect.isfunction):
            params = inspect.signature(func).parameters
            assert not {"l", "l_beta"} & set(params), name


class TestSmallABounds:
    def test_worked_example_constants(self):
        model = RwsModel(1.0, 2.0)
        res = small_A_bounds(model, 0.25)
        assert res.constants["l_beta"] == 3
        assert res.constants["c_lbeta"] == pytest.approx(
            128.0 / (45.0 * math.pi), abs=1e-10)
        assert res.constants["kappa_beta"] == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-12)
        assert res.lower <= res.upper
        assert res.rate > 0.0

    @pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (1.5, 0.7)])
    def test_rate_interval_is_the_reported_one(self, alpha, beta):
        model = RwsModel(alpha, beta)
        report = verify_tail_rates(model, CLI_GRID[:6])
        lo, hi = report.rate_interval
        for a_val in CLI_GRID[:6]:
            res = small_A_bounds(model, a_val)
            assert res.rate_interval == (lo, hi)
            assert lo < res.rate < hi

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            small_A_bounds(RwsModel(0.5, 2.0), 0.1)  # alpha below threshold
        with pytest.raises(RegimeError):
            small_A_bounds(RwsModel(1.0, 2.0), 0.75)  # A above 2^-alpha


# (alpha, beta, A values): the worked example, then every pair of a grid
# that crosses beta = 1 and small alpha, at eight multiples of A_beta
DOMINATION_CASES = [pytest.param(1.0, 2.0, (a_val,), id=str(a_val))
                    for a_val in (7.1, 8.0, 10.0)] + [
    pytest.param(alpha, beta,
                 tuple(a_threshold(RwsModel(alpha, beta)) * k
                       for k in (1.001, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0, 5.0)),
                 id=f"alpha{alpha}-beta{beta}")
    for alpha in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
    for beta in (0.3, 0.5, 0.7, 0.9, 0.95, 1.0, 1.05, 1.1, 1.5, 2.0, 3.0,
                 5.0)]


class TestLargeABound:
    def test_a2_value(self):
        assert a_threshold(RwsModel(1.0, 2.0)) == pytest.approx(
            math.sqrt(99.0 / 2.0), abs=1e-12)

    def test_beta1_closed_form(self):
        # ratio 2 e^(-(2^alpha - 1) A) of the per-level union bound
        model = RwsModel(1.0, 1.0)
        bound = large_A_bound(model, 10.0)
        assert bound == pytest.approx(math.exp(-10.0)
                                      / (1.0 - 2.0 * math.exp(-10.0)),
                                      rel=1e-12)

    @pytest.mark.parametrize("alpha,beta,points", DOMINATION_CASES)
    def test_dominates_exact_tail(self, alpha, beta, points):
        model = RwsModel(alpha, beta)
        for a_val in points:
            # truncated far below the tail, so that the product keeps every
            # level the bound has to cover
            tol = max(1e-17 * gg_two_sided_tail(a_val, beta), 5e-324)
            tail = -math.expm1(leader_log_cdf_exact(model, a_val, tol))
            try:
                bound = large_A_bound(model, a_val)
            except RegimeError:
                # refused only where the series' first ratio reaches 1
                rho_0 = 2.0 ** (1.0 + alpha * (1.0 - beta)) * math.exp(
                    -(2.0 ** (alpha * beta) - 1.0) * a_val ** beta)
                assert rho_0 >= 1.0 - 1e-9, a_val
                continue
            # less 1e-12 of the tail: verify_tail_rates' rounding-tie rule
            assert bound >= tail * (1.0 - 1e-12), (a_val, bound, tail)

    @pytest.mark.parametrize("alpha,beta,points", DOMINATION_CASES)
    def test_dominance_tail_is_the_relative_tol_product(
            self, monkeypatch, alpha, beta, points):
        # the one walk of a large point gives the tail at `tol` of the
        # level-0 tail with the bits of a product of its own
        model = RwsModel(alpha, beta)
        walks = []
        walk = rwstail._log_cdf_walk

        def spy(*args):
            walks.append((args[2], walk(*args)))
            return walks[-1][1]
        monkeypatch.setattr(rwstail, "_log_cdf_walk", spy)
        for a_val in points:
            try:
                report = verify_tail_rates(model, [a_val])
            except RegimeError:   # a large-A bound refused after the walk
                report = None
            tols, (log_cdf, log_tail) = walks[-1]
            rel_tol = max(1e-12 * gg_two_sided_tail(a_val, beta), 5e-324)
            assert tols == (1e-12, rel_tol), a_val
            assert log_cdf == leader_log_cdf_exact(model, a_val), a_val
            assert -math.expm1(log_tail) == -math.expm1(
                leader_log_cdf_exact(model, a_val, rel_tol)), a_val
            if report is not None:
                assert report.log_cdf[0] == log_cdf

    def test_below_threshold_reports_a_beta(self):
        model = RwsModel(1.0, 2.0)
        with pytest.raises(RegimeError) as err:
            large_A_bound(model, 5.0)
        assert "7.03" in str(err.value)


@pytest.mark.parametrize("call", [
    lambda: mills_bounds(math.nan, 2.0),
    lambda: gg_two_sided_tail(-2.0, 2.0),
    lambda: gg_two_sided_tail(math.nan, 2.0),
    lambda: gg_two_sided_tail(np.array([1.0, -1.0]), 2.0),
    lambda: gg_two_sided_tail(1.0, 0.0),
    lambda: gg_two_sided_tail(1.0, -1.0),
    lambda: gg_cdf(math.nan, 2.0),
    lambda: gg_cdf(1.0, math.nan),
    lambda: leader_log_cdf_exact(RwsModel(1.0, 2.0), 0.5, tol=math.nan),
    lambda: verify_tail_rates(RwsModel(1.0, 2.0), [0.25], mc_paths=-3,
                              rng=RngSpec(1)),
], ids=["mills nan", "tail negative", "tail nan",
        "tail array with a negative", "tail beta 0", "tail beta -1",
        "cdf nan", "cdf beta nan", "log cdf tol nan", "mc_paths -3"])
def test_domain_refused(call):
    with pytest.raises(DataError):
        call()


class TestMills:
    def test_beta1_three_quantities_coincide(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            lower, upper, exact = mills_bounds(x, 1.0)
            assert lower == upper == pytest.approx(0.5 * math.exp(-x),
                                                   rel=1e-12)
            assert exact == pytest.approx(lower, abs=1e-12)
            assert abs(exact - gg_tail_by_quadrature(x, 1.0)) <= 1e-12

    def test_beta1_bounds_are_the_closed_form_bits(self):
        # the beta >= 1 envelopes reduce to e^(-x)/2 exactly at beta = 1
        grid = [*np.geomspace(5e-324, 1e300, 4001).tolist(),
                0.5, 1.0, 2.0, 5.0, 700.0, 745.0, 746.0]
        for x in grid:
            lower, upper, _ = mills_bounds(x, 1.0)
            closed = 0.5 * math.exp(-x)
            assert (lower, upper) == (closed, closed), x

    def test_beta2_printed_bounds(self):
        lower, upper, exact = mills_bounds(2.0, 2.0)
        ref_up = math.exp(-4.0) / (2.0 * math.sqrt(math.pi) * 2.0)
        assert upper == pytest.approx(ref_up, rel=1e-12)
        assert lower == pytest.approx(ref_up / (1.0 + 1.0 / 8.0), rel=1e-12)
        assert lower <= exact <= upper
        assert abs(exact - gg_tail_by_quadrature(2.0, 2.0)) <= 1e-12

    def test_heavy_tail_case(self):
        lower, upper, exact = mills_bounds(4.0, 0.5)
        assert lower <= exact <= upper
        assert np.isfinite(upper)
        assert abs(exact - gg_tail_by_quadrature(4.0, 0.5)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_sandwich_grid(self, beta, x):
        lower, upper, exact = mills_bounds(x, beta)
        assert lower <= exact * (1 + 1e-12)
        assert exact <= upper * (1 + 1e-12)
        assert abs(exact - gg_tail_by_quadrature(x, beta)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 3.0, 50.0])
    def test_float_range_ends(self, beta):
        # where x^beta leaves the float range, a bound is 0 or +inf
        for x in (5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e200, 1e300):
            lower, upper, exact = mills_bounds(x, beta)
            assert 0.0 <= lower <= exact * (1 + 1e-12), (x, lower, exact)
            assert exact <= upper * (1 + 1e-12), (x, exact, upper)

    def test_domain(self):
        with pytest.raises(DataError):
            mills_bounds(0.0, 2.0)

    def test_case1_envelope_beyond_a2(self):
        # past the 1%-accuracy point the tail sits within 1% of the Mills
        # form kappa e^(-x^2)/(2x); verified against the quadrature value
        a2 = a_threshold(RwsModel(1.0, 2.0))
        for x in (a2, 8.0, 10.0):
            lower, upper, exact = mills_bounds(x, 2.0)
            assert exact >= 0.99 * upper
            assert exact <= upper
            assert abs(exact - gg_tail_by_quadrature(x, 2.0)) <= 1e-12


class TestVerifyTailRates:
    def test_gaussian_example_report(self, tmp_path):
        model = RwsModel(1.0, 2.0)
        grid = [2.0 ** (-k) for k in range(9, 3, -1)] + [7.1, 8.0, 10.0]
        report = verify_tail_rates(model, grid)
        report.to_json(tmp_path / "tb.json")
        report.to_csv(tmp_path / "tb.csv")
        assert report.slope == pytest.approx(-1.0, abs=0.1)
        assert report.slope_ok
        assert all(report.large_dominates)
        assert report.checks_passed
        assert (tmp_path / "tb.json").exists()
        text = (tmp_path / "tb.csv").read_text()
        assert text.splitlines()[0] == "A,exact_cdf,lower_env,upper_env,upper_large"
        # exact CDF nondecreasing along the grid
        assert np.all(np.diff(report.exact_cdf) >= -1e-15)

    def test_domination_sees_deeper_levels(self, monkeypatch):
        # the tail 3.2e-26 lies far below the absolute tol; a bound of the
        # level-0 term alone misses the level-1 share (about 25%)
        monkeypatch.setattr(rwstail, "large_A_bound",
                            lambda model, a: gg_two_sided_tail(a, model.beta))
        report = verify_tail_rates(RwsModel(0.05, 1.0), [58.71])
        assert report.large_dominates == [False]

    @pytest.mark.parametrize("grid", [CLI_GRID, np.linspace(1e-3, 0.5, 2000)],
                             ids=["cli default", "2000 small points"])
    def test_one_small_a_derivation_per_run(self, grid):
        # l_beta, c_(l_beta) and Lambda depend on the model alone
        for _ in range(2):
            rwstail._small_a_constants.cache_clear()
            verify_tail_rates(RwsModel(1.0, 2.0), grid)
            assert rwstail._small_a_constants.cache_info().misses == 1

    def test_one_product_walk_per_point(self, monkeypatch):
        # 6 small and 3 large points: a large point's log CDF and dominance
        # tail come from the same walk
        model = RwsModel(1.0, 2.0)
        walks = []
        walk = rwstail._log_cdf_walk
        monkeypatch.setattr(rwstail, "_log_cdf_walk",
                            lambda *args: walks.append(args) or walk(*args))
        report = verify_tail_rates(model, CLI_GRID)
        assert len(walks) == len(CLI_GRID) == 9
        assert [len(args[2]) for args in walks] == [1] * 6 + [2] * 3
        monkeypatch.undo()
        assert report.log_cdf.tolist() == [leader_log_cdf_exact(model, a)
                                           for a in CLI_GRID]

    def test_regime_gap_raises(self):
        model = RwsModel(1.0, 2.0)
        with pytest.raises(RegimeError):
            verify_tail_rates(model, [1.0])  # neither small nor large

    def test_monte_carlo_consistency(self):
        # exact truncated product vs simulation across (A, model) combos
        combos = []
        for alpha, beta in [(1.0, 2.0), (1.2, 1.0), (1.0, 1.5), (1.5, 3.0)]:
            for a_val in (0.3, 0.5, 0.8, 1.2, 2.0):
                combos.append((alpha, beta, a_val))
        for i, (alpha, beta, a_val) in enumerate(combos):
            model = RwsModel(alpha, beta)
            mc = leader_cdf_monte_carlo(model, a_val, J=12, n_paths=20_000,
                                        rng=RngSpec(9100, i))
            log_p = sum(2.0 ** j * math.log(gg_cdf(2.0 ** (alpha * j) * a_val,
                                                   beta))
                        for j in range(13))
            exact = math.exp(log_p)
            assert abs(mc.estimate - exact) <= 4.0 * max(mc.stderr, 1e-4), \
                (alpha, beta, a_val)

    def test_mc_columns(self, tmp_path):
        model = RwsModel(1.0, 2.0)
        report = verify_tail_rates(model, [0.25, 0.5], mc_paths=5000,
                                   rng=RngSpec(77))
        report.to_csv(tmp_path / "tb.csv")
        assert report.mc is not None and len(report.mc) == 2
        header = (tmp_path / "tb.csv").read_text().splitlines()[0]
        assert header.endswith("mc_cdf,mc_stderr")
