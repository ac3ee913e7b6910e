import csv
import math
import os
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scalar_linfit
from leaderlab import core
from leaderlab.core import (DataError, ParamError, RngSpec, Signal, linfit,
                            normal_cdf, read_signal, require,
                            standard_normal_quantile, write_csv, write_signal)
from leaderlab.cumulants import (berry_esseen_bound, bootstrap_percentile,
                                 estimate_c1_c2)
from leaderlab.rwstail import (RwsModel, leader_cdf_monte_carlo,
                               leader_log_cdf_exact, mills_bounds,
                               small_A_bounds, verify_tail_rates)
from leaderlab.stattests import (fit_logconcave_mle, interval_discrepancy,
                                 logconcavity_test, qq_data, sample_from_mle,
                                 shapiro_wilk)
from leaderlab.synth import sample_gen_gaussian
from leaderlab.wavelet import LeaderPyramid, basis_from_name


class TestLinfit:
    def test_exact_line(self):
        fit = linfit([0, 1, 2], [1, 3, 5])
        assert fit.slope == pytest.approx(2.0, abs=1e-14)
        assert fit.intercept == pytest.approx(1.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_constant_y_perfect_fit_convention(self):
        fit = linfit([0.0, 1.0], [4.2, 4.2])
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.intercept == pytest.approx(4.2)
        assert fit.r_squared == 1.0

    def test_matches_normal_equations(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.1, 3.9, 6.2, 7.8])
        # independent 2x2 normal-equations solve
        n = x.size
        sx, sy = x.sum(), y.sum()
        sxx, sxy = (x * x).sum(), (x * y).sum()
        det = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / det
        intercept = (sy * sxx - sx * sxy) / det
        fit = linfit(x, y)
        assert fit.slope == pytest.approx(slope, rel=1e-13)
        assert fit.intercept == pytest.approx(intercept, rel=1e-13)

    def test_affine_equivariance(self):
        gen = np.random.default_rng(7)
        x = gen.normal(size=40)
        y = gen.normal(size=40)
        base = linfit(x, y)
        for a, b in [(2.5, -1.0), (-0.3, 7.0), (1e4, 1e-3)]:
            fit = linfit(x, a * y + b)
            assert fit.slope == pytest.approx(a * base.slope, rel=1e-12)
            assert fit.intercept == pytest.approx(a * base.intercept + b,
                                                  rel=1e-11, abs=1e-11)

    def test_errors(self):
        with pytest.raises(DataError):
            linfit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            linfit([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            linfit([1.0], [1.0])


def _fit_bits(fits):
    return np.array([[f.slope, f.intercept, f.r_squared]
                     for f in fits]).view(np.int64)


def _warning_texts(records):
    return {(w.category, str(w.message)) for w in records}


class TestLinfitRows:
    """`_linfit_rows` fits each row with the bits of the 1-d `linfit` and of
    the scalar form `linfit` had before it fitted rows in batches."""

    @pytest.mark.parametrize("k", range(2, 17))
    def test_rows_match_one_row_fits(self, k, recwarn):
        gen = np.random.default_rng(k)
        x = np.sort(gen.normal(size=k)) if k % 2 else np.arange(1.0, k + 1.0)
        y = gen.normal(size=(40, k)) * 10.0 ** gen.integers(-8, 9, (40, 1))
        y[0] = 4.0                  # constant: the SS_tot = 0 branch
        y[1] = 3.0 * x - 1.0
        y[2] = 0.0
        batch = np.column_stack(core._linfit_rows(x, y)).view(np.int64)
        assert np.array_equal(batch, _fit_bits(linfit(x, r) for r in y))
        assert np.array_equal(batch, _fit_bits(scalar_linfit(x, r) for r in y))
        assert [float(r2) for r2 in core._linfit_rows(x, y[:3])[2]] \
            == [1.0, 1.0, 1.0]
        assert not recwarn.list

    def test_infinite_rows_warn_as_one_row_fits(self, recwarn):
        # log2 of a structure function that overflowed or underflowed, as
        # `scaling_function` fits them; every call records its warnings
        warnings.simplefilter("always")
        x = np.arange(3.0, 9.0)
        y = np.tile(np.linspace(-2.0, 5.0, 6), (6, 1))
        y[0, 2] = np.inf
        y[1, :] = -np.inf
        y[2, 0], y[2, -1] = np.inf, -np.inf
        y[3, -1] = -np.inf
        one = _fit_bits(scalar_linfit(x, r) for r in y)
        expected = _warning_texts(recwarn.list)
        recwarn.clear()
        assert np.array_equal(_fit_bits(linfit(x, r) for r in y), one)
        assert _warning_texts(recwarn.list) == expected
        recwarn.clear()
        batch = np.column_stack(core._linfit_rows(x, y)).view(np.int64)
        assert np.array_equal(batch, one)
        assert _warning_texts(recwarn.list) == expected
        assert expected, "inf - inf warns"
        # the finite rows are untouched by the others
        assert np.array_equal(batch[4:], _fit_bits(
            scalar_linfit(x, r) for r in y[4:]))

    def test_constant_x_and_short_rows_refused(self):
        with pytest.raises(DataError):
            core._linfit_rows(np.ones(3), np.zeros((2, 3)))
        with pytest.raises(DataError):
            core._linfit_rows(np.ones(1), np.zeros((2, 1)))


def _erf_series(x):
    # high-precision erf by Taylor series with fsum (oracle only)
    terms = []
    term = x
    k = 0
    while abs(term) > 1e-22:
        terms.append(term / (2 * k + 1))
        k += 1
        term = term * (-x * x) / k
        if k > 300:
            break
    return 2.0 / math.sqrt(math.pi) * math.fsum(terms)


def _phi_series(x):
    return 0.5 * (1.0 + _erf_series(x / math.sqrt(2.0)))


class TestNormalQuantile:
    def test_median(self):
        assert standard_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        # invert Phi by bisection on the series CDF
        for p in (0.975, 0.6, 0.01, 0.999):
            lo, hi = -10.0, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if _phi_series(mid) < p:
                    lo = mid
                else:
                    hi = mid
            assert standard_normal_quantile(p) == pytest.approx(
                0.5 * (lo + hi), abs=1e-9)
        assert standard_normal_quantile(0.975) == pytest.approx(1.959964,
                                                                abs=1e-6)

    def test_phi_of_one_by_quadrature(self):
        # Simpson integration of the normal density over [0, 1]
        n = 2000
        xs = np.linspace(0.0, 1.0, n + 1)
        pdf = np.exp(-xs ** 2 / 2) / math.sqrt(2 * math.pi)
        simp = pdf[0] + pdf[-1] + 4 * pdf[1:-1:2].sum() + 2 * pdf[2:-1:2].sum()
        p = 0.5 + simp * (1.0 / n) / 3.0
        assert p == pytest.approx(0.841344746, abs=1e-9)
        assert standard_normal_quantile(p) == pytest.approx(1.0, abs=1e-8)

    def test_inverse_of_cdf_on_grid(self):
        p = np.linspace(1e-4, 1 - 1e-4, 1000)
        x = standard_normal_quantile(p)
        assert np.max(np.abs(normal_cdf(x) - p)) <= 1e-8

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(DataError):
                standard_normal_quantile(bad)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a) & np.isnan(b)
    return np.array_equal(np.where(nan, 0.0, a).view(np.int64),
                          np.where(nan, 0.0, b).view(np.int64))


class TestCephesErfc:
    """`core._erfc` ports the Cephes routine that `scipy.special.erfc` runs,
    so every output bit of the quantile and the Shapiro p-value holds."""

    @pytest.mark.filterwarnings("error")
    def test_bits_equal_scipy(self):
        from scipy.special import erfc
        root = math.sqrt(core._MAXLOG)
        edges = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf,
                 -math.inf, math.nan]
        for x in (1.0, 8.0, root):
            for s in (1.0, -1.0):
                edges += [s * x, s * math.nextafter(x, 0.0),
                          s * math.nextafter(x, math.inf)]
        x = np.concatenate([RngSpec(2201).generator().uniform(-40, 40, 10 ** 6),
                            edges])
        assert _same_bits(core._erfc(x), erfc(x))
        # the Shapiro p-value passes a 0-d array; shapes are kept
        assert all(_same_bits(core._erfc(e), erfc(e)) for e in edges)
        assert core._erfc(np.array(edges)[:, None]).shape == (len(edges), 1)

    @pytest.mark.filterwarnings("error")
    def test_quantile_bits_equal_scipy_route(self, monkeypatch):
        from scipy.special import erfc
        grids = [np.array([1 - a / 2 for a in (0.05, 0.1)])]
        for n in (3, 250, 2048, 5000):
            i = np.arange(1, n + 1)
            grids += [(i - 0.375) / (n + 0.25), (i - 0.5) / n]
        ported = [standard_normal_quantile(p) for p in grids]
        monkeypatch.setattr(core, "_erfc", erfc)
        for p, x in zip(grids, ported):
            assert _same_bits(x, standard_normal_quantile(p))

    @pytest.mark.filterwarnings("error")
    def test_quantile_near_ndtri_down_to_subnormal_p(self):
        from scipy.special import ndtri
        # the Newton step is skipped where the density is subnormal, as it
        # would divide subnormal differences there
        p = np.logspace(-323.3, -300, 800)
        assert np.max(np.abs(standard_normal_quantile(p) - ndtri(p))) < 1e-7
        # and still taken from p = 1e-308 on: the start alone is 4e-8 off
        p = np.logspace(-308, -1, 800)
        assert np.max(np.abs(standard_normal_quantile(p) - ndtri(p))) < 1e-11


_SAMPLE = [0.3, -1.2, 0.8, 2.1, -0.4, 1.7]
_LEADERS = [LeaderPyramid(leaders={j: np.exp(np.arange(1.0, 5.0) + k * j)
                                   for j in (1, 2, 3)}, variant="one_leader")
            for k in range(3)]
# each function that takes a significance or confidence level
LEVEL_CALLS = {
    "estimate_c1_c2": lambda a: estimate_c1_c2(_LEADERS, (1, 3), alpha=a),
    "bootstrap_percentile": lambda a: bootstrap_percentile(
        _SAMPLE, np.mean, B=5, level=a, rng=RngSpec(1)),
    "shapiro_wilk": lambda a: shapiro_wilk(_SAMPLE, alpha=a),
    "logconcavity_test": lambda a: logconcavity_test(
        _SAMPLE, B=5, alpha=a, rng=RngSpec(1)),
}


@pytest.mark.filterwarnings("ignore:N=3 < 30")
@pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.5, float("nan")])
@pytest.mark.parametrize("name", sorted(LEVEL_CALLS))
def test_level_outside_unit_interval_refused(name, value):
    with pytest.raises(DataError, match=r"(alpha|level) must lie in \(0, 1\)"):
        LEVEL_CALLS[name](value)
    LEVEL_CALLS[name](0.05)


def test_require_raises_param_error():
    require(True, "B", "be >= 1", 0)
    with pytest.raises(ParamError) as info:
        require(False, "B", "be >= 1", 0)
    exc = info.value
    assert isinstance(exc, DataError)
    assert (exc.name, exc.rule, exc.value) == ("B", "be >= 1", 0)
    assert str(exc) == "B must be >= 1, got 0"


def _error_classes(cls=core.LeaderLabError):
    return [cls] + [c for s in cls.__subclasses__() for c in _error_classes(s)]


# an error raised on a worker process reaches the caller pickled
@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    exc = (cls("dt", "be > 0", -1.0) if issubclass(cls, ParamError)
           else cls("no usable leaders"))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc)
    if isinstance(exc, ParamError):
        assert str(back) == "dt must be > 0, got -1.0"
        assert (back.name, back.rule, back.value) == ("dt", "be > 0", -1.0)


_MODEL = RwsModel(1.0, 2.0)
# each refusal of a parameter, by the flag's dest where a CLI flag sets it
# and by its own name otherwise, and the offending value it reports; a
# count must be an integer
PARAM_REFUSALS = {
    "seed -1": (lambda: RngSpec(-1), "seed", -1),
    "seed 2^64": (lambda: RngSpec(1 << 64), "seed", 1 << 64),
    "bootstrap B": (lambda: bootstrap_percentile(
        _SAMPLE, np.mean, B=0, rng=RngSpec(1)), "B", 0),
    "permutation B": (lambda: logconcavity_test(
        _SAMPLE, B=0, rng=RngSpec(1)), "B", 0),
    # above the cap of 10^6 replicates, refused before any allocation
    "bootstrap B 10^12": (lambda: bootstrap_percentile(
        _SAMPLE, np.mean, B=10 ** 12, rng=RngSpec(1)), "B", 10 ** 12),
    "permutation B 10^6 + 1": (lambda: logconcavity_test(
        _SAMPLE, B=10 ** 6 + 1, rng=RngSpec(1)), "B", 10 ** 6 + 1),
    "A grid": (lambda: verify_tail_rates(_MODEL, [0.01, -1.0, 8.0]),
               "A_grid", -1.0),
    "mc paths": (lambda: verify_tail_rates(_MODEL, [0.01], mc_paths=-3),
                 "mc_paths", -3),
    # above the cap of 10^7 paths, refused before any draw
    "mc paths 10^12": (lambda: verify_tail_rates(
        _MODEL, [0.01], mc_paths=10 ** 12, rng=RngSpec(1)), "mc_paths",
        10 ** 12),
    "mc n_paths 10^7 + 1": (lambda: leader_cdf_monte_carlo(
        _MODEL, 0.5, J=4, n_paths=10 ** 7 + 1, rng=RngSpec(1)), "n_paths",
        10 ** 7 + 1),
    "tol": (lambda: leader_log_cdf_exact(_MODEL, 0.01, tol=0.0), "tol", 0.0),
    "tol inf": (lambda: leader_log_cdf_exact(_MODEL, 0.01, tol=math.inf),
                "tol", math.inf),
    "wavelet": (lambda: basis_from_name("db11"), "wavelet", "db11"),
    # more digits than int() parses
    "wavelet 5000 digits": (lambda: basis_from_name("db" + "9" * 5000),
                            "wavelet", "db" + "9" * 5000),
    "alpha": (lambda: RwsModel(-1.0, 2.0), "alpha", -1.0),
    "alpha inf": (lambda: RwsModel(math.inf, 2.0), "alpha", math.inf),
    "alpha nan": (lambda: RwsModel(math.nan, 2.0), "alpha", math.nan),
    "ggbeta": (lambda: RwsModel(1.0, 0.0), "ggbeta", 0.0),
    "ggbeta nan": (lambda: RwsModel(1.0, math.nan), "ggbeta", math.nan),
    "gen gaussian beta nan": (lambda: sample_gen_gaussian(
        math.nan, 10, RngSpec(1)), "beta", math.nan),
    "gen gaussian beta inf": (lambda: sample_gen_gaussian(
        math.inf, 10, RngSpec(1)), "beta", math.inf),
    # |X| = G^1000 past the float range
    "gen gaussian beta 1e-3": (lambda: sample_gen_gaussian(
        1e-3, 5, RngSpec(1)), "beta", 1e-3),
    "mills beta inf": (lambda: mills_bounds(1.0, math.inf), "beta",
                       math.inf),
    "small A nan": (lambda: small_A_bounds(_MODEL, math.nan), "A", math.nan),
    "mc J nan": (lambda: leader_cdf_monte_carlo(
        _MODEL, 0.5, J=math.nan, n_paths=10, rng=RngSpec(1)), "J", math.nan),
    "mc n_paths 2.5": (lambda: leader_cdf_monte_carlo(
        _MODEL, 0.5, J=4, n_paths=2.5, rng=RngSpec(1)), "n_paths", 2.5),
    "bootstrap B 2.5": (lambda: bootstrap_percentile(
        _SAMPLE, np.mean, B=2.5, rng=RngSpec(1)), "B", 2.5),
    "mle draws 2.5": (lambda: sample_from_mle(
        fit_logconcave_mle(_SAMPLE), 2.5, RngSpec(1)), "n", 2.5),
    # above 2^24 draws, the cap on a realization, refused before any draw
    "gen gaussian n 2^24 + 1": (lambda: sample_gen_gaussian(
        2.0, 2 ** 24 + 1, RngSpec(1)), "n", 2 ** 24 + 1),
    "mle draws 2^24 + 1": (lambda: sample_from_mle(
        fit_logconcave_mle(_SAMPLE), 2 ** 24 + 1, RngSpec(1)), "n",
        2 ** 24 + 1),
}


@pytest.mark.parametrize("case", sorted(PARAM_REFUSALS))
def test_param_refused_by_name(case):
    call, name, value = PARAM_REFUSALS[case]
    with pytest.raises(ParamError) as info:
        call()
    # repr, so that NaN matches and -1 does not match -1.0
    assert (info.value.name, repr(info.value.value)) == (name, repr(value))


# each function that takes a sample, with the fewest values it accepts
_SAMPLE_CALLS = {
    "Signal": (Signal, 2),
    "shapiro_wilk": (shapiro_wilk, 3),
    "qq_data": (qq_data, 2),
    "fit_logconcave_mle": (fit_logconcave_mle, 2),
    "logconcavity_test": (lambda s: logconcavity_test(
        s, B=9, rng=RngSpec(1)), 2),
    "interval_discrepancy": (lambda s: interval_discrepancy(s, s), 1),
    "bootstrap_percentile": (lambda s: bootstrap_percentile(
        s, np.mean, B=10, rng=RngSpec(1)), 1),
    "berry_esseen_bound": (lambda s: berry_esseen_bound(s, 1.0), 1),
}
# samples that break the rule, built from the function's minimum size
_BAD_SAMPLES = {
    "2-d": lambda k: np.arange(12.0).reshape(3, 4),
    "0-d": lambda k: np.float64(1.5),
    "nan": lambda k: _SAMPLE[:-1] + [math.nan],
    "inf": lambda k: _SAMPLE[:-1] + [math.inf],
    "text": lambda k: ["a"] * len(_SAMPLE),
    "short": lambda k: _SAMPLE[:k - 1],
}
SAMPLE_REFUSALS = {
    f"{name} {bad}": (lambda call=call, k=k, make=make: call(make(k)))
    for name, (call, k) in _SAMPLE_CALLS.items()
    for bad, make in _BAD_SAMPLES.items()
}
SAMPLE_REFUSALS["interval_discrepancy unequal sizes"] = (
    lambda: interval_discrepancy(_SAMPLE, _SAMPLE[:-1]))


@pytest.mark.parametrize("case", sorted(SAMPLE_REFUSALS))
def test_sample_refused(case):
    with pytest.raises(DataError) as info:
        SAMPLE_REFUSALS[case]()
    # a sample is data: no parameter rule, and no values in the message
    assert not isinstance(info.value, ParamError)


class TestRngSpec:
    def test_reproducible_streams(self):
        a = RngSpec(987, 3).generator().standard_normal(64)
        b = RngSpec(987, 3).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSpec(987, 0).generator().standard_normal(64)
        b = RngSpec(987, 1).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    def test_substream_paths(self):
        a = RngSpec(1, 0).generator(5).standard_normal(8)
        b = RngSpec(1, 0).generator(6).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(DataError):
            RngSpec(-1)
        with pytest.raises(DataError):
            RngSpec(3, -2)


class TestSignalIO:
    def test_validation(self):
        with pytest.raises(DataError):
            Signal(np.array([1.0]))
        with pytest.raises(DataError):
            Signal(np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            Signal(np.array([1.0, 2.0]), dt=0.0)

    def test_csv_round_trip_bytes(self, tmp_path):
        sig = Signal(np.linspace(-1, 1, 33) ** 3, t0=2.0, dt=0.25, label="cubic")
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_signal(sig, p1, sidecar={"seed": 5})
        back = read_signal(p1)
        assert np.array_equal(back.samples, sig.samples)
        assert back.dt == sig.dt and back.t0 == sig.t0
        assert back.label == "cubic"
        write_signal(back, p2, sidecar={"seed": 5})
        assert p1.read_bytes() == p2.read_bytes()

    def test_headerless_single_column(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("1.5\n2.5\n-3.0\n", encoding="utf-8")
        sig = read_signal(p)
        assert np.array_equal(sig.samples, [1.5, 2.5, -3.0])
        assert sig.dt == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_signal(tmp_path / "nope.csv")

    @pytest.mark.parametrize("sidecar", ["{", "[1, 2]", '{"dt": "fast"}'])
    def test_malformed_sidecar(self, tmp_path, sidecar):
        p = tmp_path / "signal.csv"
        p.write_text("1.5\n2.5\n", encoding="utf-8")
        (tmp_path / "signal.csv.json").write_text(sidecar, encoding="utf-8")
        with pytest.raises(DataError, match="sidecar"):
            read_signal(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("t,value\n0,1.5\xe9\n".encode("latin-1"))
        with pytest.raises(DataError, match="cannot read"):
            read_signal(p)

    def test_not_utf8_past_the_head(self, tmp_path):
        # a bad byte past the first 64 KB, which the header read never meets
        p = tmp_path / "late.csv"
        rows = "".join("%d,%d\n" % (i, i) for i in range(10**4))
        p.write_bytes(("t,value\n" + rows).encode("utf-8") + b"0,\xff\n")
        assert p.stat().st_size > 2**16
        with pytest.raises(DataError, match="cannot read"):
            read_signal(p)

    def test_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_signal(tmp_path)

    def test_stale_sidecar_dt(self, tmp_path):
        # a sidecar dt the column does not follow gives way to the column
        p = tmp_path / "s.csv"
        p.write_text("t,value\n0,1.5\n0.5,2.5\n1,3.5\n", encoding="utf-8")
        (tmp_path / "s.csv.json").write_text('{"dt": 2}', encoding="utf-8")
        assert read_signal(p).dt == 0.5


# an evenly spaced grid far from 0, t = 1e6 + 1e-3 i, written as
# `write_signal` writes it: its steps differ by the rounding of the times
FAR_GRID = 1e6 + 1e-3 * np.arange(10**5)
FAR_GRID_TEXT = "t,value\n" + "".join(
    "%.17g,%d\n" % (t, i % 7) for i, t in enumerate(FAR_GRID.tolist()))

# (file text, samples the reader returns, or DataError); each outcome but
# the `1_0` and the two `t` spacing ones was recorded with the earlier
# per-row `float()` reader
READER_CASES = {
    "spaces_around_cells": ("t,value\n 0 , 1.5 \n\t1\t,\t2.5\t\n",
                            [1.5, 2.5]),
    "tab_in_header": ("t,\tvalue\n0,1.5\n1,2.5\n", [1.5, 2.5]),
    "crlf": ("t,value\r\n0,1.5\r\n1,2.5\r\n", [1.5, 2.5]),
    "blank_middle_lines": ("t,value\n0,1.5\n\n   \n1,2.5\n", [1.5, 2.5]),
    "leading_blank_lines": ("\n \nt,value\n0,1.5\n1,2.5\n", [1.5, 2.5]),
    "three_columns": ("t,value,x\n0,1.5,9\n1,2.5,9\n", [1.5, 2.5]),
    "ragged_short_row": ("t,value\n0,1.5\n1\n2,3.5\n", DataError),
    "ragged_long_row": ("t,value\n0,1.5\n1,2.5,7\n", [1.5, 2.5]),
    "headerless_two_columns": ("1.5,9\n2.5,x\n", [1.5, 2.5]),
    "headerless_ragged": ("1.5,9\n2.5\n", [1.5, 2.5]),
    "plus_exponent": ("t,value\n0,+1e3\n1,2\n", [1000.0, 2.0]),
    "inf": ("t,value\n0,inf\n1,2\n", DataError),
    "empty_cell": ("t,value\n0,\n1,2\n", DataError),
    "one_column_under_header": ("t,value\n1.5\n2.5\n", DataError),
    "header_only": ("t,value\n", DataError),
    "header_then_blanks": ("t,value\n\n  \n", DataError),
    "one_row": ("t,value\n0,1.5\n", DataError),
    "hash_line": ("t,value\n# note\n0,1.5\n1,2.5\n", DataError),
    "hash_line_headerless": ("# note\n1.5\n2.5\n", DataError),
    # Python's float() reads 1_0 as 10.0; the CSV reader does not
    "underscore_digits": ("t,value\n0,1_0\n1,2\n", DataError),
    "uneven_t": ("t,value\n0,1.5\n1,2.5\n5,3.5\n6,4.5\n", DataError),
    "fine_step_far_start": (FAR_GRID_TEXT,
                            [float(i % 7) for i in range(FAR_GRID.size)]),
    "short_grid_far_start": ("t,value\n" + "".join(
        "%.17g,%d\n" % (1e6 + 1e-3 * i, i) for i in range(10)),
        [float(i) for i in range(10)]),
}


class TestReadSignalInputs:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_outcome(self, tmp_path, case):
        text, expected = READER_CASES[case]
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode("utf-8"))
        if expected is DataError:
            with pytest.raises(DataError):
                read_signal(p)
        else:
            got = read_signal(p).samples
            assert got.tobytes() == np.array(expected).tobytes()


# clean files, which numpy reads from their path; with READER_CASES, each
# is read alike on the text route.  Both routes read CR, CRLF and LF line
# ends alike.
CLEAN_CASES = {
    "no_final_newline": ("t,value\n0,1.5\n1,2.5", [1.5, 2.5]),
    "final_newlines": ("t,value\n0,1.5\n1,2.5\n\n\n", [1.5, 2.5]),
    "clean_crlf": ("t,value\r\n0,1.5\r\n1,2.5", [1.5, 2.5]),
    "lone_cr": ("t,value\n0,1.5\r1,2.5\n", [1.5, 2.5]),
    "headerless_one_column": ("1.5\n2.5\n-3.0\n", [1.5, 2.5, -3.0]),
    "headerless_three_columns": ("1.5,9,8\n2.5,9,8\n", [1.5, 2.5]),
    "spaced_header": ("T, Value,x\n0,1.5,9\n1,2.5,9\n", [1.5, 2.5]),
    "non_ascii_header": ("t,value,größe\n0,1.5,9\n1,2.5,9\n", [1.5, 2.5]),
    "non_ascii_first_line": ("größe\n1.5\n2.5\n", DataError),
    "step_and_start": ("t,value\n-3.5,1.5\n-3.25,2.5\n-3,0\n",
                       [1.5, 2.5, 0.0]),
}
# files numpy refuses from their path, which the text route then reads
REFUSED_CASES = {
    "headerless_blank_middle_line": ("1.5\n \t \n2.5\n", [1.5, 2.5]),
    "form_feed_line": ("t,value\n0,1.5\n\f\n1,2.5\n", [1.5, 2.5]),
    "nbsp_line": ("t,value\n0,1.5\n\xa0\n1,2.5\n", [1.5, 2.5]),
    "empty_line_before_header": ("\nt,value\n0,1.5\n1,2.5\n", [1.5, 2.5]),
    "bad_cell_past_row_10000": ("t,value\n" + "".join(
        "%d,%d\n" % (i, i % 7) for i in range(10**4 + 1)) + "10001,x\n",
        DataError),
}
READ_CASES = {**READER_CASES, **CLEAN_CASES, **REFUSED_CASES}
# the READ_CASES numpy refuses from the path, so that each is parsed twice;
# the two with no data row under the header reach no parse at all
PATH_REFUSED = {*REFUSED_CASES, "blank_middle_lines", "leading_blank_lines",
                "empty_cell", "hash_line", "hash_line_headerless",
                "non_ascii_first_line", "one_column_under_header",
                "ragged_short_row", "underscore_digits"}
NO_DATA_ROW = {"header_only", "header_then_blanks"}


def _outcome(path):
    """(sample bytes, t0, dt) of the signal read, or DataError."""
    try:
        sig = read_signal(path)
    except DataError:
        return DataError
    return sig.samples.tobytes(), sig.t0, sig.dt


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """The first argument of every np.loadtxt call."""
    sources, real = [], np.loadtxt

    def spy(source, **kwargs):
        sources.append(source)
        return real(source, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


class TestReadRoutes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(READ_CASES))
    def test_both_routes_agree(self, tmp_path, monkeypatch, loadtxt_sources,
                               case):
        text, expected = READ_CASES[case]
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode("utf-8"))
        got = _outcome(p)
        # True for the path, False for the file's lines
        assert [s == p for s in loadtxt_sources] == (
            [] if case in NO_DATA_ROW else
            [True, False] if case in PATH_REFUSED else [True])
        loadtxt_sources.clear()
        spy = np.loadtxt

        def refuse_path(source, **kwargs):
            if source == p:
                raise ValueError("refused")
            return spy(source, **kwargs)

        monkeypatch.setattr(np, "loadtxt", refuse_path)
        assert _outcome(p) == got
        assert [s == p for s in loadtxt_sources] == (
            [] if case in NO_DATA_ROW else [False])
        if expected is DataError:
            assert got is DataError
        else:
            assert got[0] == np.array(expected).tobytes()

    @pytest.mark.parametrize("case", sorted(NO_DATA_ROW))
    def test_no_data_row_warns_nothing(self, tmp_path, loadtxt_sources,
                                       case):
        p = tmp_path / "s.csv"
        p.write_text(READ_CASES[case][0], encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="no data rows"):
                read_signal(p)
        assert caught == [] and loadtxt_sources == []

    def test_step_and_start_from_the_t_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(CLEAN_CASES["step_and_start"][0], encoding="utf-8")
        assert _outcome(p)[1:] == (-3.5, 0.25)

    def test_fine_step_far_from_zero(self, tmp_path):
        # the first step, 1e6 + 1e-3 - 1e6, is 1e-3 + 4.7e-11, which strays
        # from the last time by 4.7e-6; the mean step is closer
        p = tmp_path / "s.csv"
        p.write_text(FAR_GRID_TEXT, encoding="utf-8")
        assert _outcome(p)[1:] == (1e6, pytest.approx(1e-3, rel=1e-11))

    def test_compressed_name_read_as_text(self, tmp_path, loadtxt_sources):
        # numpy would unpack a .gz path it opens
        p = tmp_path / "s.gz"
        p.write_text("1.5\n2.5\n", encoding="utf-8")
        assert read_signal(p).samples.tolist() == [1.5, 2.5]
        assert loadtxt_sources != [p]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_read_once(self, tmp_path):
        # a .csv name for a pipe, which a second open would find drained
        r, w = os.pipe()
        try:
            os.write(w, b"t,value\n0,1.5\n1,2.5\n")
            os.close(w)
            link = tmp_path / "p.csv"
            link.symlink_to(f"/dev/fd/{r}")
            assert read_signal(link).samples.tolist() == [1.5, 2.5]
        finally:
            os.close(r)


class TestTimeColumn:
    @staticmethod
    def t_cells(path):
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        return [line.partition(",")[0] for line in lines]

    @pytest.mark.parametrize("t0,dt,n", [(0, 1 / 32768, 32768),
                                         (-3.5, 0.1, 1001), (2.0, 1 / 3, 2)])
    def test_cells_are_the_times(self, tmp_path, t0, dt, n):
        sig = Signal(np.zeros(n), t0=t0, dt=dt)
        write_signal(sig, tmp_path / "s.csv")
        assert self.t_cells(tmp_path / "s.csv") == [
            "%.17g" % t for t in sig.times.tolist()]

    def test_no_stale_column(self, tmp_path):
        axes = [(0.0, 0.5, 4), (0.0, 0.5, 5), (1.0, 0.5, 4), (0.0, 0.25, 4)]
        for t0, dt, n in axes * 2:
            sig = Signal(np.arange(n, dtype=float), t0=t0, dt=dt)
            write_signal(sig, tmp_path / "s.csv")
            assert self.t_cells(tmp_path / "s.csv") == [
                "%.17g" % t for t in sig.times.tolist()]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                  st.floats(allow_nan=False,
                                            allow_infinity=False)),
                        min_size=2, max_size=40),
       dt=st.floats(min_value=1e-6, max_value=1e6))
def test_write_read_round_trip_bits(tmp_path_factory, samples, dt):
    p = tmp_path_factory.mktemp("round") / "s.csv"
    sig = Signal(np.array(samples), t0=0.0, dt=dt)
    write_signal(sig, p)
    back = read_signal(p)
    assert back.samples.tobytes() == sig.samples.tobytes()
    assert back.t0 == 0.0 and back.dt == dt


@settings(max_examples=150, deadline=None)
@given(t0=st.floats(min_value=-1e9, max_value=1e9),
       dt=st.floats(min_value=1e-3, max_value=1e3),
       n=st.integers(min_value=2, max_value=60))
@example(t0=1e6, dt=1e-3, n=10)   # one ulp of 1e6 is 1e-8 of the span
def test_time_axis_round_trip(tmp_path_factory, t0, dt, n):
    # with a sidecar, t0 and dt come back exact; without one, t0 does and
    # dt to within the rounding of the times over the span
    d = tmp_path_factory.mktemp("axis")
    sig = Signal(np.zeros(n), t0=t0, dt=dt)
    write_signal(sig, d / "a.csv", sidecar={})
    write_signal(sig, d / "b.csv")
    a, b = read_signal(d / "a.csv"), read_signal(d / "b.csv")
    assert (a.t0, a.dt, b.t0) == (t0, dt, t0)
    big = np.spacing(max(abs(t0), abs(t0 + dt * (n - 1))))
    assert abs(b.dt - dt) <= 1e-9 * dt + 16 * big / (n - 1)


class TestWriteCsv:
    def test_text_cells_quoted_only_when_needed(self, tmp_path):
        p = tmp_path / "t.csv"
        names = ["a,b", 'say "hi"', "two\nlines", "cr\r", "plain"]
        write_csv(p, ["name", "k", "x"],
                  [(name, k, 0.5 * k) for k, name in enumerate(names)])
        with open(p, newline="", encoding="utf-8") as fh:
            back = list(csv.reader(fh))
        assert back[0] == ["name", "k", "x"]
        assert [len(r) for r in back] == [3] * 6
        assert [r[0] for r in back[1:]] == names
        text = p.read_text(encoding="utf-8")
        assert text.startswith('name,k,x\n"a,b",0,0\n"say ""hi""",1,0.5\n')
        assert text.endswith("\nplain,4,2\n")

    def test_only_the_cell_with_a_comma_quoted(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["name", "x"], [("a", 0.0), ("b,c", 1.0), ("d", 2.0)])
        assert p.read_text(encoding="utf-8") == 'name,x\na,0\n"b,c",1\nd,2\n'
