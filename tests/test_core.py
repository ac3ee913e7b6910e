import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaderlab.core import (DataError, RngSpec, Signal, linfit, normal_cdf,
                            read_signal, standard_normal_quantile,
                            write_csv, write_signal)
from leaderlab.cumulants import bootstrap_percentile, estimate_c1_c2
from leaderlab.stattests import logconcavity_test, shapiro_wilk
from leaderlab.wavelet import LeaderPyramid


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

    def test_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_signal(tmp_path)


# (file text, samples the reader returns, or DataError); each outcome but
# the `1_0` one was recorded with the earlier per-row `float()` reader
READER_CASES = {
    "spaces_around_cells": ("t,value\n 0 , 1.5 \n\t1\t,\t2.5\t\n",
                            [1.5, 2.5]),
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
