import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_leaders, build_pyramid, cone_valid,
                      footprint_valid, naive_periodic_dwt,
                      naive_periodic_idwt, roll_leaders, scalar_linfit,
                      tap_loop_dwt)
from leaderlab.core import DataError, RngSpec, Signal
from leaderlab.synth import gen_fbm, gen_mrw, gen_rws_pyramid
from leaderlab.wavelet import (DAUBECHIES_FILTERS, CoefficientPyramid,
                               LeaderPyramid, basis_from_name, compute_leaders,
                               daubechies_basis, dwt,
                               fits_levels, hmin_regression, idwt, legendre_spectrum,
                               pyramid_from_json, pyramid_to_json,
                               scaling_function, structure_functions)


class TestFilters:
    @pytest.mark.parametrize("order", sorted(DAUBECHIES_FILTERS))
    def test_qmf_invariants(self, order):
        basis = daubechies_basis(order)  # validate() runs inside
        assert basis.length == 2 * order
        assert abs(basis.filter_lo.sum() - math.sqrt(2)) < 1e-12
        # vanishing moments, relative to the absolute-sum scale
        m = np.arange(basis.length, dtype=float)
        for p in range(order):
            num = abs(np.sum(m ** p * basis.filter_hi))
            scale = max(np.sum(m ** p * np.abs(basis.filter_hi)), 1.0)
            assert num <= 1e-10 * scale

    def test_unknown_orders(self):
        with pytest.raises(DataError):
            daubechies_basis(11)
        with pytest.raises(DataError):
            basis_from_name("sym4")
        assert basis_from_name("db3").n_vanishing == 3


class TestDwt:
    def test_constant_signal_zero_details(self):
        basis = daubechies_basis(3)
        sig = Signal(np.full(256, 7.5))
        pyr = dwt(sig, basis, 4)
        for j in pyr.levels:
            assert np.max(np.abs(pyr.coeffs[j])) <= 1e-10 * 7.5

    def test_polynomial_annihilation_interior(self):
        # degree-2 polynomial, db3: all wrap-clean details vanish
        basis = daubechies_basis(3)
        t = np.arange(512, dtype=float)
        sig = Signal(0.25 * t * t - 3.0 * t + 11.0)
        pyr = dwt(sig, basis, 4)
        scale = float(np.max(np.abs(sig.samples)))
        for j in pyr.levels:
            interior = pyr.coeffs[j][pyr.valid_at(j)]
            assert np.max(np.abs(interior)) <= 1e-8 * scale

    @pytest.mark.parametrize("j_max", [1, 4, 6])
    @pytest.mark.parametrize("order", sorted(DAUBECHIES_FILTERS))
    def test_matches_naive_filter_bank(self, order, j_max):
        # same taps in the same order: the same bits, not just close
        basis = daubechies_basis(order)
        x = np.random.default_rng(42).normal(size=(basis.length + 3) << j_max)
        pyr = dwt(Signal(x), basis, j_max)
        ref, _ = naive_periodic_dwt(x, basis.filter_lo, basis.filter_hi, j_max)
        assert pyr.levels == list(range(1, j_max + 1))
        for j in pyr.levels:
            assert np.array_equal(pyr.coeffs[j], ref[j])

    @pytest.mark.parametrize("order", sorted(DAUBECHIES_FILTERS))
    def test_valid_is_the_footprint_prefix(self, order):
        basis = daubechies_basis(order)
        L = basis.length
        for n in (L << 3, (L + 1) << 3, (3 * L + 5) << 3):
            pyr = dwt(Signal(np.zeros(n)), basis, 3)
            ref = footprint_valid(n, L, 3)
            for j in pyr.levels:
                assert np.array_equal(pyr.valid_at(j), ref[j]), (n, j)

    @pytest.mark.parametrize("order", [1, 3, 10])
    def test_clean_coefficients_do_not_see_the_wrap(self, order):
        # a clean coefficient reads no sample past the end, so it keeps its
        # bits when the signal goes on with other samples; a wrapped one
        # reads the start of the signal instead and changes
        basis = daubechies_basis(order)
        gen = np.random.default_rng(order)
        x = gen.normal(size=basis.length << 4)
        short = dwt(Signal(x), basis, 4)
        long = dwt(Signal(np.concatenate((x, gen.normal(size=x.size)))),
                   basis, 4)
        for j in short.levels:
            head = long.coeffs[j][:short.n_at(j)]
            same = short.coeffs[j] == head
            assert np.array_equal(same, short.valid_at(j)), j

    def test_shift_covariance(self):
        basis = daubechies_basis(3)
        x = np.random.default_rng(3).normal(size=512)
        j_max = 4
        a = dwt(Signal(x), basis, j_max)
        b = dwt(Signal(np.roll(x, -(1 << j_max))), basis, j_max)
        for j in a.levels:
            rolled = np.roll(a.coeffs[j], -(1 << (j_max - j)))
            assert np.array_equal(rolled, b.coeffs[j])

    def test_round_trip_inverse(self):
        basis = daubechies_basis(4)
        x = np.random.default_rng(5).normal(size=256)
        pyr = dwt(Signal(x), basis, 3)
        _, approx = naive_periodic_dwt(x, basis.filter_lo, basis.filter_hi, 3)
        back = idwt(pyr, basis, approx=approx)
        assert np.max(np.abs(back - x)) <= 1e-10

    @pytest.mark.parametrize("order", sorted(DAUBECHIES_FILTERS))
    @settings(max_examples=30)
    @given(j_max=st.integers(1, 4), extra=st.integers(0, 9),
           seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-6, 1e6))
    def test_idwt_inverts_dwt(self, order, j_max, extra, seed, scale):
        # any depth and any length the filter allows at that depth
        basis = daubechies_basis(order)
        n = (basis.length + extra) << j_max
        x = scale * np.random.default_rng(seed).standard_normal(n)
        pyr = dwt(Signal(x), basis, j_max)
        _, approx = naive_periodic_dwt(x, basis.filter_lo, basis.filter_hi,
                                       j_max)
        back = idwt(pyr, basis, approx=approx)
        assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("order", sorted(DAUBECHIES_FILTERS))
    def test_idwt_matches_naive_synthesis(self, order):
        basis = daubechies_basis(order)
        lo, hi = basis.filter_lo, basis.filter_hi
        gen = np.random.default_rng(100 + order)
        for j_max in (1, 3):
            x = gen.normal(size=(basis.length + 1) << j_max)
            pyr = dwt(Signal(x), basis, j_max)
            approx = gen.normal(size=pyr.n_at(j_max))
            assert np.array_equal(idwt(pyr, basis, approx=approx),
                                  naive_periodic_idwt(pyr.coeffs, approx,
                                                      lo, hi))
        # random wavelet series: the coarsest levels hold fewer
        # coefficients than the filter has taps
        for J in (1, 3, 8):
            sig, pyr = gen_rws_pyramid(0.8, 1.5, basis, J, RngSpec(order, J))
            zeros = np.zeros(pyr.n_at(J + 1))
            assert np.array_equal(sig.samples,
                                  naive_periodic_idwt(pyr.coeffs, zeros,
                                                      lo, hi))

    def test_length_errors(self):
        basis = daubechies_basis(3)
        with pytest.raises(DataError):
            dwt(Signal(np.arange(100, dtype=float)), basis, 3)  # not divisible
        with pytest.raises(DataError):
            dwt(Signal(np.arange(32, dtype=float)), basis, 3)  # too short
        with pytest.raises(DataError):
            dwt(Signal(np.arange(64, dtype=float)), basis, 0)

    def test_idwt_needs_exact_halving(self):
        with pytest.raises(DataError, match="halving"):
            idwt(build_pyramid([np.ones(8), np.ones(3)]), daubechies_basis(3))

    @pytest.mark.parametrize("j_max", [1, 2, 3, 4])
    def test_fits_levels_is_the_depth_rule(self, j_max):
        # db3 has 6 taps: 2^j_max * 6 samples is the shortest length dwt
        # accepts, and fits_levels says so for it and for no shorter one
        basis = daubechies_basis(3)
        for n in range(1 << j_max, 10 << j_max, 1 << j_max):
            fits = fits_levels(n, basis, j_max)
            assert fits == (n >= 6 << j_max)
            if fits:
                dwt(Signal(np.zeros(n)), basis, j_max)
            else:
                with pytest.raises(DataError, match="too short"):
                    dwt(Signal(np.zeros(n)), basis, j_max)


class TestLeaders:
    def test_worked_example(self):
        # fine level [0.1, -0.9, 0.3, 0.2], coarse level [0.5, -0.25]
        pyr = build_pyramid([[0.1, -0.9, 0.3, 0.2], [0.5, -0.25]])
        one = compute_leaders(pyr, "one_leader")
        assert one.leaders[2][0] == pytest.approx(0.9)
        assert one.leaders[2][1] == pytest.approx(0.3)
        three = compute_leaders(pyr, "three_leader")
        # periodic wrap: neighbours of position 0 are {1, 0, 1}
        assert three.leaders[2][0] == pytest.approx(0.9)
        assert three.leaders[2][1] == pytest.approx(0.9)

    def test_all_zero(self):
        pyr = build_pyramid([np.zeros(8), np.zeros(4), np.zeros(2)])
        lead = compute_leaders(pyr, "one_leader")
        for j in lead.levels:
            assert np.all(lead.leaders[j] == 0.0)

    @pytest.mark.parametrize("variant", ["one_leader", "three_leader"])
    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    def test_bottom_up_equals_brute_force(self, variant, depth, rng):
        gen = rng.generator(depth)
        arrays = [gen.normal(size=1 << (depth - lvl)) for lvl in range(depth)]
        pyr = build_pyramid(arrays)
        fast = compute_leaders(pyr, variant)
        slow = brute_force_leaders(pyr, variant)
        for j in pyr.levels:
            assert np.array_equal(fast.leaders[j], slow[j])

    def test_domination_and_floor(self, rng):
        gen = rng.generator(77)
        pyr = build_pyramid([gen.normal(size=64), gen.normal(size=32),
                             gen.normal(size=16), gen.normal(size=8)])
        one = compute_leaders(pyr, "one_leader")
        three = compute_leaders(pyr, "three_leader")
        for j in pyr.levels:
            assert np.all(one.leaders[j] <= three.leaders[j])
            assert np.all(one.leaders[j] >= np.abs(pyr.coeffs[j]))

    @pytest.mark.parametrize("order", sorted(DAUBECHIES_FILTERS))
    def test_clean_slices_match_enumerated_cones(self, order):
        # every depth fits_levels allows; 1000 is truncated at each depth
        basis = daubechies_basis(order)
        for n in (256, 768, 1000):
            j_max = 1
            while fits_levels(n, basis, j_max):
                m = n - n % (1 << j_max)
                pyr = dwt(Signal(np.zeros(m)), basis, j_max)
                coef = footprint_valid(m, basis.length, j_max)
                for variant in ("one_leader", "three_leader"):
                    lead = compute_leaders(pyr, variant)
                    ref = cone_valid(coef, variant)
                    for j in lead.levels:
                        assert np.array_equal(lead.valid_at(j), ref[j]), \
                            (n, j_max, variant, j)
                j_max += 1

    @pytest.mark.parametrize("variant", ["one_leader", "three_leader"])
    def test_clean_slices_of_any_runs(self, variant):
        # a DWT's runs are prefixes; any run per level, empty and whole
        # ones included, follows the same cone rule
        gen = np.random.default_rng(77)
        for _ in range(300):
            depth, top = int(gen.integers(1, 6)), int(gen.integers(1, 6))
            coeffs, clean = {}, {}
            for j in range(1, depth + 1):
                size = top << (depth - j)
                lo, hi = sorted(int(v) for v in gen.integers(0, size + 1, 2))
                if gen.random() < 0.3:
                    lo, hi = 0, size
                coeffs[j] = np.ones(size)
                clean[j] = slice(lo, hi)
            pyr = CoefficientPyramid(coeffs=coeffs, clean=clean)
            lead = compute_leaders(pyr, variant)
            ref = cone_valid({j: pyr.valid_at(j) for j in pyr.levels},
                             variant)
            for j in lead.levels:
                assert np.array_equal(lead.valid_at(j), ref[j]), (clean, j)

    @settings(max_examples=200)
    @given(data=st.data(), depth=st.integers(1, 5), top=st.integers(1, 3),
           variant=st.sampled_from(["one_leader", "three_leader"]))
    def test_any_pyramid_is_brute_force(self, data, depth, top, variant):
        # any finite coefficients and one run per level, empty and whole
        # ones included: the values are the enumerated suprema, the runs
        # the enumerated clean cones
        coeffs, clean = {}, {}
        for j in range(1, depth + 1):
            size = top << (depth - j)
            coeffs[j] = np.array(data.draw(st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=size, max_size=size)))
            lo = data.draw(st.integers(0, size))
            clean[j] = slice(lo, data.draw(st.integers(lo, size)))
        pyr = CoefficientPyramid(coeffs=coeffs, clean=clean)
        lead = compute_leaders(pyr, variant)
        values = brute_force_leaders(pyr, variant)
        runs = cone_valid({j: pyr.valid_at(j) for j in pyr.levels}, variant)
        for j in pyr.levels:
            assert np.array_equal(lead.leaders[j], values[j])
            assert np.array_equal(lead.valid_at(j), runs[j])

    def test_shape_validation(self):
        with pytest.raises(DataError):
            compute_leaders(build_pyramid([np.ones(6), np.ones(2)]))
        with pytest.raises(DataError):
            compute_leaders(build_pyramid([np.ones(4)]), "five_leader")


class TestStructureFunctions:
    def test_unit_leaders(self):
        pyr = build_pyramid([[1.0, 1.0]])
        lead = compute_leaders(pyr, "one_leader")
        tab = structure_functions(lead, [-3.0, -1.0, 0.5, 2.0, 7.0])
        assert np.allclose(tab.s[0], 1.0)

    def test_direct_arithmetic(self):
        pyr = build_pyramid([[2.0, 4.0]])
        lead = compute_leaders(pyr, "one_leader")
        tab = structure_functions(lead, [2.0, -1.0])
        assert tab.s[0, 0] == pytest.approx(10.0)     # q = 2
        assert tab.s[0, 1] == pytest.approx(0.375)    # q = -1

    def test_zero_leader_negative_q(self):
        pyr = build_pyramid([[0.0, 1.0]])
        lead = compute_leaders(pyr, "one_leader")
        with pytest.raises(DataError):
            structure_functions(lead, [-1.0])
        structure_functions(lead, [1.0])  # fine for positive q

    def test_log_convexity_in_q(self, rng):
        gen = rng.generator(11)
        pyr = build_pyramid([np.abs(gen.normal(size=128)) + 0.05])
        lead = compute_leaders(pyr, "one_leader")
        q = np.linspace(-3, 3, 25)
        tab = structure_functions(lead, q)
        logs = np.log(tab.s[0])
        second = logs[2:] - 2 * logs[1:-1] + logs[:-2]
        assert np.all(second >= -1e-9)

    def test_appendix_inequalities_exact(self, rng):
        gen = rng.generator(13)
        arrays = [gen.normal(size=1 << (6 - lvl)) for lvl in range(6)]
        pyr = build_pyramid(arrays)
        one = compute_leaders(pyr, "one_leader")
        three = compute_leaders(pyr, "three_leader")
        qs_pos = [0.5, 1.0, 2.0, 5.0]
        qs_neg = [-0.5, -1.0, -2.0]
        # every array entry, wrapped or not: the inequalities are exact there
        def s(lead, j, q):
            return float(np.mean(lead.leaders[j] ** q))
        for q in qs_pos:
            for j in pyr.levels:
                assert s(three, j, q) <= 3.0 * s(one, j, q) * (1 + 1e-12)
        for q in qs_neg:
            for j in pyr.levels:
                if j - 2 in pyr.levels:
                    assert s(one, j, q) <= 4.0 * s(three, j - 2, q) * (1 + 1e-12)


class TestScalingFunction:
    def test_exact_power_law(self):
        # S(j, q) = scale^(0.7 q) with scale = 2^j
        arrays = [np.full(1 << (5 - lvl), 2.0 ** (0.7 * (lvl + 1)))
                  for lvl in range(5)]
        lead = compute_leaders(build_pyramid(arrays), "one_leader")
        tab = structure_functions(lead, [0.5, 1.0, 2.0])
        fits = scaling_function(tab, (1, 5))
        for q, fit in fits.items():
            assert fit.slope == pytest.approx(0.7 * q, abs=1e-9)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_scale_difference_quotient(self):
        lead = compute_leaders(build_pyramid([[2.0, 2.0], [3.0]]),
                               "one_leader")
        tab = structure_functions(lead, [1.0])
        fit = scaling_function(tab, (1, 2))[1.0]
        expected = math.log2(3.0) - math.log2(2.0)
        assert fit.slope == pytest.approx(expected, rel=1e-12)

    def test_insufficient_scales(self):
        lead = compute_leaders(build_pyramid([[1.0, 2.0]]), "one_leader")
        tab = structure_functions(lead, [1.0])
        with pytest.raises(DataError):
            scaling_function(tab, (1, 1))


class TestLegendre:
    def test_monofractal_line(self):
        h0 = 0.6
        qs = np.round(np.arange(-5, 5.0001, 0.1), 10)
        zeta = {float(q): h0 * float(q) for q in qs}
        hs = [h0 - 0.4, h0 - 0.2, h0, h0 + 0.2, h0 + 0.4]
        spec = legendre_spectrum(zeta, hs)
        assert spec[h0] == pytest.approx(1.0, abs=1e-12)
        assert spec[h0 - 0.4] == pytest.approx(1.0 - 0.4 * 5.0, abs=1e-9)
        assert spec[h0 + 0.4] == pytest.approx(1.0 - 0.4 * 5.0, abs=1e-9)

    def test_quadratic_expansion(self):
        c1, c2 = 0.605, -0.01
        qs = np.round(np.arange(-5, 5.0001, 0.05), 10)
        zeta = {float(q): c1 * q + c2 * q * q / 2.0 for q in qs}
        for h in (c1 - 0.04, c1, c1 + 0.03):
            got = legendre_spectrum(zeta, [h])[h]
            assert got == pytest.approx(1.0 + (h - c1) ** 2 / (2 * c2),
                                        abs=5e-4)

    def test_equals_brute_force_scan(self, rng):
        gen = rng.generator(5)
        qs = np.round(np.arange(-5, 5.0001, 0.1), 10)
        zeta = {float(q): 0.5 * q - 0.02 * q * q + 0.001 * float(gen.normal())
                for q in qs}
        hs = np.linspace(0.0, 1.0, 21)
        spec = legendre_spectrum(zeta, hs)
        for h in hs:
            brute = min(1.0 + q * h - z for q, z in zeta.items())
            assert spec[float(h)] == pytest.approx(min(brute, 1.0), abs=1e-12)

    def test_empty_infimum_marker(self):
        spec = legendre_spectrum({-1.0: math.nan, 1.0: math.nan}, [0.5])
        assert spec[0.5] == -math.inf


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def fbm_mrw_signals():
    """Five seeds each of fBm and MRW, at 2^15 samples and at 1000."""
    return [gen(n, RngSpec(seed, 17)) for n in (1 << 15, 1000)
            for seed in range(5)
            for gen in (lambda n, r: gen_fbm(0.7, n, r),
                        lambda n, r: gen_mrw(0.7, 0.05, n, n, r))]


class TestBitIdentity:
    """The phase-split filter bank and the one-buffer neighbour max give
    the bits of the tap loop and the `np.roll` leaders they replaced."""

    @pytest.mark.parametrize("order", (1, 3, 10))
    def test_dwt_matches_tap_loop(self, fbm_mrw_signals, order):
        basis = daubechies_basis(order)
        for sig in fbm_mrw_signals:
            j_max = max(j for j in range(1, 12)
                        if len(sig) % (1 << j) == 0
                        and fits_levels(len(sig), basis, j))
            got, ref = dwt(sig, basis, j_max), tap_loop_dwt(sig, basis, j_max)
            assert got.levels == ref.levels and got.clean == ref.clean
            for j in ref.levels:
                assert np.array_equal(_bits(got.coeffs[j]),
                                      _bits(ref.coeffs[j]))

    @pytest.mark.parametrize("variant", ["one_leader", "three_leader"])
    def test_leaders_match_roll(self, fbm_mrw_signals, variant):
        basis = daubechies_basis(3)
        for sig in fbm_mrw_signals:
            pyr = dwt(sig, basis, 11 if len(sig) == 1 << 15 else 3)
            got, ref = compute_leaders(pyr, variant), roll_leaders(pyr, variant)
            assert got.clean == ref.clean
            for j in ref.levels:
                assert np.array_equal(_bits(got.leaders[j]),
                                      _bits(ref.leaders[j]))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
    def test_neighbour_max_on_short_levels(self, size):
        pyr = build_pyramid([np.arange(1.0, 2 * size + 1.0)[::-1],
                             np.arange(size) - 0.5])
        got = compute_leaders(pyr, "three_leader")
        ref = roll_leaders(pyr, "three_leader")
        for j in ref.levels:
            assert np.array_equal(got.leaders[j], ref.leaders[j])

    def test_scaling_function_matches_each_q(self, fbm_mrw_signals, recwarn):
        # q = +-800 overflows and underflows S(j, q) to inf and 0, so that
        # rows of log2 S hold +-inf; every call records its warnings
        warnings.simplefilter("always")
        leaders = compute_leaders(dwt(fbm_mrw_signals[1], daubechies_basis(3),
                                      11))
        qs = [-800.0, -5.0, -1.0, 0.5, 1.0, 2.0, 5.0, 800.0]
        with np.errstate(over="ignore", divide="ignore"):
            table = structure_functions(leaders, qs)
        mask = (table.j_values >= 2) & (table.j_values <= 9)
        ref = [scalar_linfit(table.j_values[mask],
                             np.log2(table.s[mask, qi]))
               for qi in range(len(qs))]
        expected = {(w.category, str(w.message)) for w in recwarn.list}
        recwarn.clear()
        got = scaling_function(table, (2, 9))
        assert list(got) == qs
        for fit, r in zip(got.values(), ref):
            assert np.array_equal(
                _bits([fit.slope, fit.intercept, fit.r_squared]),
                _bits([r.slope, r.intercept, r.r_squared]))
        assert {(w.category, str(w.message)) for w in recwarn.list} \
            == expected
        assert expected and not np.all(np.isfinite(table.s))


class TestHmin:
    def test_exact_power_law(self):
        arrays = []
        for lvl in range(5):
            a = np.zeros(1 << (5 - lvl))
            a[0] = 2.0 ** (0.8 * (lvl + 1))
            arrays.append(a)
        pyr = build_pyramid(arrays)
        fit = hmin_regression(pyr, (1, 5))
        assert fit.slope == pytest.approx(0.8, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_point(self):
        pyr = build_pyramid([[1.0, -2.0], [8.0]])
        fit = hmin_regression(pyr, (1, 2))
        assert fit.slope == pytest.approx(math.log2(8) - math.log2(2))

    def test_fbm_ballpark(self):
        # per-realization sup regressions are noisy; the ensemble mean of the
        # best-R^2-range slope recovers the Hurst exponent within 0.1
        candidates = [(j1, j1 + w) for j1 in range(1, 12) for w in (3, 4, 5)
                      if j1 + w <= 11]
        slopes = []
        for seed in range(30):
            sig = gen_fbm(0.8, 1 << 15, RngSpec(4200, seed))
            pyr = dwt(sig, daubechies_basis(3), 11)
            best_r2, slope = -1.0, None
            for cand in candidates:
                fit = hmin_regression(pyr, cand)
                if fit.r_squared > best_r2:
                    best_r2, slope = fit.r_squared, fit.slope
            slopes.append(slope)
        assert 0.7 <= float(np.mean(slopes)) <= 0.9

    def test_zero_level_error(self):
        pyr = build_pyramid([np.zeros(4), np.ones(2)])
        with pytest.raises(DataError):
            hmin_regression(pyr, (1, 2))


class TestSerialization:
    def test_coefficient_pyramid_json(self, tmp_path):
        pyr = build_pyramid([[1.0, -2.0, 0.5, 3.0], [4.0, -5.0]])
        text = pyramid_to_json(pyr)
        doc = json.loads(text)
        assert doc["norm"] == "L1" and doc["boundary"] == "periodic"
        assert doc["j_min"] == 1 and doc["j_max"] == 2
        back = pyramid_from_json(text)
        for j in pyr.levels:
            assert np.array_equal(back.coeffs[j], pyr.coeffs[j])
        # a document without valid is clean everywhere
        del doc["valid"]
        assert pyramid_from_json(json.dumps(doc)).clean == pyr.clean

    def test_leader_pyramid_json_with_mask(self, tmp_path):
        sig = gen_fbm(0.5, 1024, RngSpec(1))
        pyr = dwt(sig, daubechies_basis(2), 5)
        lead = compute_leaders(pyr, "three_leader")
        path = tmp_path / "lead.json"
        pyramid_to_json(lead, path)
        back = pyramid_from_json(path)
        assert back.variant == "three_leader"
        for j in lead.levels:
            assert np.array_equal(back.leaders[j], lead.leaders[j])
            assert np.array_equal(back.valid_at(j), lead.valid_at(j))

    @pytest.mark.parametrize("variant", [None, "one_leader", "three_leader"])
    def test_clean_round_trip(self, variant):
        # 48 samples of db3 to depth 3 leave an empty three_leader level;
        # the three_leader runs of 992 samples are not prefixes
        basis = daubechies_basis(3)
        for n, j_max in ((48, 3), (992, 5)):
            x = np.random.default_rng(n).normal(size=n)
            pyr = dwt(Signal(x), basis, j_max)
            if variant is not None:
                pyr = compute_leaders(pyr, variant)
            back = pyramid_from_json(pyramid_to_json(pyr))
            assert type(back) is type(pyr)
            assert back.clean == pyr.clean
            assert pyramid_to_json(back) == pyramid_to_json(pyr)

    @settings(max_examples=200)
    @given(data=st.data(), depth=st.integers(1, 4), top=st.integers(1, 3),
           variant=st.sampled_from([None, "one_leader", "three_leader"]))
    def test_round_trip_of_any_runs(self, data, depth, top, variant):
        # one run per level, empty and whole ones included
        arrays, clean = {}, {}
        for j in range(1, depth + 1):
            size = top << (depth - j)
            arrays[j] = np.array(data.draw(st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=size, max_size=size)))
            kind = data.draw(st.sampled_from(["empty", "whole", "run"]))
            if kind == "run":
                lo = data.draw(st.integers(0, size - 1))
                clean[j] = slice(lo, data.draw(st.integers(lo + 1, size)))
            else:
                clean[j] = slice(0, size if kind == "whole" else 0)
        pyr = (CoefficientPyramid(coeffs=arrays, clean=clean)
               if variant is None else
               LeaderPyramid(leaders=arrays, variant=variant, clean=clean))
        back = pyramid_from_json(pyramid_to_json(pyr))
        assert type(back) is type(pyr)
        assert back.clean == clean
        assert getattr(back, "variant", None) == variant
        levels = back.coeffs if variant is None else back.leaders
        for j in arrays:
            assert np.array_equal(levels[j], arrays[j])

    def test_long_inline_document(self):
        pyr = build_pyramid([np.linspace(-1.0, 1.0, 8) / 3.0,
                             np.linspace(2.0, 3.0, 4) / 7.0, [0.1, -0.2]])
        text = pyramid_to_json(pyr)
        assert len(text) >= 256
        back = pyramid_from_json(text)
        for j in pyr.levels:
            assert np.array_equal(back.coeffs[j], pyr.coeffs[j])

    def test_path_as_str(self, tmp_path):
        pyr = build_pyramid([[1.0, -2.0], [3.0]])
        path = tmp_path / "pyr.json"
        pyramid_to_json(pyr, path)
        back = pyramid_from_json(str(path))
        assert np.array_equal(back.coeffs[2], pyr.coeffs[2])

    @pytest.mark.parametrize("text", [
        '{"scales": {"1": [1.0,', '{"j_min": 1}', '{"scales": [1.0]}',
        '{"scales": {"a": [1.0]}}',
        '{"scales": {"1": [1.0]}, "variant": "one_leader"}',
        # valid: not 0/1 flags, short, two runs, a level missing
        '{"scales": {"1": [1.0, 2.0]}, "valid": {"1": [7, "x"]}}',
        '{"scales": {"1": [1.0, 2.0]}, "valid": {"1": [1]}}',
        '{"scales": {"1": [1.0, 2.0, 3.0]}, "valid": {"1": [1, 0, 1]}}',
        '{"scales": {"1": [1.0, 2.0], "2": [3.0]}, "valid": {"1": [1, 1]}}',
        '{"scales": {"1": [1.0]}, "norm": "L2"}',
        '{"scales": {"1": [1.0]}, "boundary": "symmetric"}',
        '{"scales": {"1": [1.0, 2.0], "2": [3.0]}, "variant": "one_leader", '
        '"finest_level": 2}',
        # nested lists: 2-D levels whose leaders would be maxima over rows
        '{"scales": {"1": [[1.0, -2.0], [3.0, 4.0]], "2": [[5.0, 6.0]]}}',
        '{"scales": {"1": 1.0}}'])
    def test_malformed_document(self, text):
        with pytest.raises(DataError):
            pyramid_from_json(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            pyramid_from_json(tmp_path / "absent.json")
        with pytest.raises(DataError):
            pyramid_from_json("x" * 300)

    def test_structure_csv(self, tmp_path):
        lead = compute_leaders(build_pyramid([[2.0, 4.0]]), "one_leader")
        tab = structure_functions(lead, [1.0, 2.0])
        out = tmp_path / "s.csv"
        tab.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,q,S,logS"
        assert len(lines) == 3
