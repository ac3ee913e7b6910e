import math
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import build_pyramid, loop_scale_winners
from leaderlab.core import DataError, RngSpec, Signal, linfit
from leaderlab.cumulants import (_scale_winners, berry_esseen_bound,
                                 bootstrap_percentile, estimate_c1_c2,
                                 estimation_scale_candidates, fit_cm,
                                 log_cumulants_per_scale, select_scale_range)
from leaderlab.synth import gen_fbm, gen_mrw
from leaderlab.wavelet import (LeaderPyramid, compute_leaders,
                               daubechies_basis, dwt)

LN2 = math.log(2.0)


def leaders_from_arrays(arrays):
    return compute_leaders(build_pyramid(arrays), "one_leader")


def synthetic_leaders(values_per_level):
    """LeaderPyramid with the given arrays directly as leaders."""
    leaders = {j + 1: np.asarray(a, dtype=float)
               for j, a in enumerate(values_per_level)}
    return LeaderPyramid(leaders=leaders, variant="one_leader")


class TestPerScaleCumulants:
    def test_constant_e(self):
        lead = synthetic_leaders([np.full(8, math.e)])
        levels, mean, var = log_cumulants_per_scale(lead, (1, 1))
        assert levels.tolist() == [1]
        assert mean[0] == pytest.approx(1.0, abs=1e-14)
        assert var[0] == pytest.approx(0.0, abs=1e-14)

    def test_two_values(self):
        lead = synthetic_leaders([[math.e, math.e ** 3]])
        levels, mean, var = log_cumulants_per_scale(lead, (1, 1))
        assert mean[0] == pytest.approx(2.0, abs=1e-12)
        # population variance with divisor n_j, no Bessel correction
        assert var[0] == pytest.approx(1.0, abs=1e-12)

    def test_levels_in_order_inside_the_range(self):
        lead = synthetic_leaders([np.full(1 << (5 - j), math.e ** j)
                                  for j in range(5)])
        levels, mean, var = log_cumulants_per_scale(lead, (2, 4))
        assert levels.tolist() == [2, 3, 4]
        assert mean == pytest.approx([1.0, 2.0, 3.0], abs=1e-14)
        assert var.tolist() == [0.0] * 3

    def test_single_point_warns(self):
        lead = synthetic_leaders([[2.0, 3.0], [5.0]])
        with pytest.warns(UserWarning):
            levels, mean, var = log_cumulants_per_scale(lead, (2, 2))
        assert levels.tolist() == [2] and var[0] == 0.0

    def test_nonpositive_error(self):
        lead = synthetic_leaders([[1.0, 0.0]])
        with pytest.raises(DataError):
            log_cumulants_per_scale(lead, (1, 1))


class TestFitCm:
    def test_exact_affine_recovery(self):
        levels = np.arange(1, 7)
        c0, cm = fit_cm(levels, 0.2 + 0.7 * (levels * LN2))
        assert cm == pytest.approx(0.7, abs=1e-12)
        assert c0 == pytest.approx(0.2, abs=1e-12)

    def test_matches_linfit(self):
        values = np.random.default_rng(31).normal(size=7)
        c0, cm = fit_cm(np.arange(2, 9), values)
        ref = linfit(np.arange(2, 9, dtype=float) * LN2, values)
        assert cm == pytest.approx(ref.slope, rel=1e-12)
        assert c0 == pytest.approx(ref.intercept, rel=1e-12)

    def test_insufficient_scales(self):
        with pytest.raises(DataError):
            fit_cm(np.array([3]), np.array([1.0]))


class TestEstimateC1C2:
    def _ensemble(self, n_real=40, seed=50):
        out = []
        for i in range(n_real):
            gen = RngSpec(seed, i).generator()
            arrays = [np.exp(gen.normal(0.6 * j * LN2, 0.3,
                                        size=1 << (6 - j)))
                      for j in range(1, 6)]
            out.append(synthetic_leaders(arrays))
        return out

    def test_identical_realizations_degenerate_ci(self):
        one = self._ensemble(1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = estimate_c1_c2([one, one, one], (1, 5))
        assert res.c1.stderr == 0.0
        assert res.c1.lower == res.c1.upper == res.c1.estimate

    def test_prefactor_variants(self):
        ens = self._ensemble(35)
        res = estimate_c1_c2(ens, (1, 5))
        n = res.n_realizations
        assert res.c2.estimate == pytest.approx(
            res.c2_mean_variant * n / (n - 1), rel=1e-12)

    def test_scaling_equivariance(self):
        ens = self._ensemble(30)
        scaled = []
        lam = 7.3
        for lead in ens:
            scaled.append(LeaderPyramid(
                leaders={j: lam * a for j, a in lead.leaders.items()},
                variant=lead.variant))
        a = estimate_c1_c2(ens, (1, 5))
        b = estimate_c1_c2(scaled, (1, 5))
        assert b.c1.estimate == pytest.approx(a.c1.estimate, abs=1e-12)
        assert b.c2.estimate == pytest.approx(a.c2.estimate, abs=1e-12)

    def test_unbiasedness_mechanics(self):
        # per-scale means exactly affine in log scale recover the plant
        arrays = [np.full(1 << (6 - j), math.exp(0.1 + 0.45 * j * LN2))
                  for j in range(1, 6)]
        lead = synthetic_leaders(arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = estimate_c1_c2([lead, lead], (1, 5))
        assert res.c1.estimate == pytest.approx(0.45, abs=1e-12)

    def test_ci_width_shrinks_sqrt_n(self):
        # doubling N multiplies the width by ~1/sqrt(2), within MC noise
        gen = np.random.default_rng(8)
        ratios = []
        for _ in range(50):
            z = standard = gen.normal(size=80)
            s_small = z[:40].std(ddof=1) / math.sqrt(40)
            s_big = z.std(ddof=1) / math.sqrt(80)
            ratios.append(s_small / s_big)
        assert np.mean(ratios) == pytest.approx(math.sqrt(2), rel=0.1)

    def test_errors_and_warnings(self):
        ens = self._ensemble(5)
        with pytest.raises(DataError):
            estimate_c1_c2(ens[:1], (1, 5))
        with pytest.warns(UserWarning):
            estimate_c1_c2(ens, (1, 5))


class TestBerryEsseen:
    def test_constant_samples(self):
        assert berry_esseen_bound(np.full(10, 2.5), 0.3) == 0.0

    def test_two_point_arithmetic(self):
        v = 0.7
        bound = berry_esseen_bound(np.array([0.0, 1.0]), v)
        assert bound == pytest.approx(0.46 * 0.25 / (v ** 1.5 * 2 ** 1.5),
                                      rel=1e-12)

    def test_n_scaling(self):
        # doubling N with the third-moment sum held fixed shrinks by 2^(3/2)
        x = np.array([0.0, 1.0, 0.2, 0.8])
        base = berry_esseen_bound(x, 1.0)
        y = np.concatenate([x, x])
        y = x.mean() + (y - x.mean()) * 2.0 ** (-1.0 / 3.0)
        doubled = berry_esseen_bound(y, 1.0)
        assert doubled == pytest.approx(base / 2.0 ** 1.5, rel=1e-10)

    def test_errors(self):
        with pytest.raises(DataError):
            berry_esseen_bound(np.array([]), 1.0)
        with pytest.raises(DataError):
            berry_esseen_bound(np.array([1.0]), 0.0)


class TestBootstrap:
    def test_constant_data(self):
        res = bootstrap_percentile(np.full(20, 3.3), np.mean, B=50,
                                   level=0.95, rng=RngSpec(1))
        assert res.lower == res.upper == pytest.approx(3.3)

    def test_single_replicate_degenerate(self):
        res = bootstrap_percentile(np.arange(10.0), np.mean, B=1,
                                   level=0.95, rng=RngSpec(2))
        assert res.lower == res.upper

    def test_coverage_calibration(self):
        # mean of N(0,1), n=500, B=1000: empirical coverage of 0 over 200
        # trials within 95% +- 4%
        hits = 0
        trials = 200
        for i in range(trials):
            x = RngSpec(3000, i).generator().standard_normal(500)
            res = bootstrap_percentile(x, np.mean, B=1000, level=0.95,
                                       rng=RngSpec(4000, i))
            hits += res.lower <= 0.0 <= res.upper
        assert hits / trials == pytest.approx(0.95, abs=0.04)

    def test_requires_rng_and_b(self):
        with pytest.raises(DataError):
            bootstrap_percentile(np.arange(5.0), np.mean, B=0, rng=RngSpec(1))
        with pytest.raises(DataError):
            bootstrap_percentile(np.arange(5.0), np.mean, B=10, rng=None)


class TestScaleSelection:
    def _power_law_pyramid(self, seed, clean=(3, 7)):
        gen = RngSpec(seed).generator()
        arrays = []
        for j in range(1, 9):
            n_j = 1 << (10 - j)
            a = np.zeros(n_j)
            if clean[0] <= j <= clean[1]:
                a[0] = 2.0 ** (0.6 * j)
            else:
                a[0] = 2.0 ** (0.6 * j) * math.exp(2.0 * gen.normal())
            a[1:] = 1e-6
            arrays.append(a)
        return build_pyramid(arrays)

    def test_single_candidate(self):
        pyr = self._power_law_pyramid(1)
        assert select_scale_range([pyr], [(2, 6)]) == (2, 6)

    def test_constructed_fixture_selects_clean_range(self):
        pyrs = [self._power_law_pyramid(s) for s in range(12)]
        cands = [(1, 5), (2, 6), (3, 7), (4, 8), (3, 6), (4, 7)]
        assert select_scale_range(pyrs, cands) == (3, 7)

    def test_all_zero_level_skips_its_candidates(self):
        pyrs = [self._power_law_pyramid(s, clean=(1, 5)) for s in range(4)]
        assert select_scale_range(pyrs, [(1, 5), (4, 8)]) == (1, 5)
        for pyr in pyrs:
            pyr.coeffs[2] = np.zeros_like(pyr.coeffs[2])
        assert select_scale_range(pyrs, [(1, 5), (4, 8)]) == (4, 8)
        with pytest.raises(DataError):
            select_scale_range(pyrs, [(1, 5), (2, 6)])

    def test_candidate_width_validation(self):
        pyr = self._power_law_pyramid(2)
        with pytest.raises(DataError):
            select_scale_range([pyr], [(3, 4)])
        with pytest.raises(DataError):
            select_scale_range([pyr], [])

    def test_default_candidates(self):
        floored = estimation_scale_candidates(11)
        assert floored == [(4, 7), (4, 8), (4, 9), (5, 8), (5, 9), (5, 10),
                           (6, 9), (6, 10), (6, 11), (7, 10), (7, 11),
                           (8, 11)]
        assert estimation_scale_candidates(4) == [(1, 4)]
        shallow = estimation_scale_candidates(5)
        assert min(c[0] for c in shallow) == 2


def _modal(best, candidates):
    """The modal winner with the tie-break of `select_scale_range`."""
    votes = Counter(candidates[c] for c in best.tolist() if c >= 0)
    top = max(votes.values())
    return max((c for c, v in votes.items() if v == top),
               key=lambda c: (c[1] - c[0], c[0]))


def _assert_same_winners(pyramids, candidates):
    best, best_r2 = _scale_winners(pyramids, candidates)
    ref, ref_r2 = loop_scale_winners(pyramids, candidates)
    assert best.tolist() == ref.tolist()
    assert np.array_equal(best_r2.view(np.int64), ref_r2.view(np.int64))
    return best


class TestBatchedScaleSelection:
    """Every realization's winner and its R^2 have the bits of one
    `hmin_regression` fit per (realization, candidate)."""

    @pytest.mark.parametrize("process", ["fbm", "mrw"])
    @pytest.mark.parametrize("n,j_max", [(1 << 15, 11), (1000, 5)])
    def test_ensembles_match_loop(self, process, n, j_max):
        basis = daubechies_basis(3)
        pyramids = []
        for seed in range(6):
            rng = RngSpec(seed, 23)
            sig = (gen_fbm(0.7, n, rng) if process == "fbm"
                   else gen_mrw(0.7, 0.05, n, n, rng))
            # 1000 samples keep the first 992, a multiple of 2^5
            pyramids.append(dwt(Signal(sig.samples[:n >> j_max << j_max]),
                                basis, j_max))
        candidates = [(j1, j2) for j1 in range(1, j_max + 1)
                      for j2 in range(j1 + 2, j_max + 1)]
        best = _assert_same_winners(pyramids, candidates)
        assert select_scale_range(pyramids, candidates) \
            == _modal(best, candidates)

    def test_edge_pyramids_match_loop(self):
        gen = RngSpec(77).generator()
        pyramids = []
        for i in range(10):
            arrays = [np.abs(gen.normal(size=1 << (9 - j))) * 2.0 ** (0.6 * j)
                      for j in range(1, 9)]
            pyramids.append(build_pyramid(arrays))
        del pyramids[0].coeffs[3], pyramids[0].clean[3]   # missing level
        del pyramids[1].coeffs[8], pyramids[1].clean[8]   # missing top
        pyramids[2].clean[5] = slice(0, 0)                # empty clean run
        pyramids[3].coeffs[6] = np.zeros(8)               # zero sup
        pyramids[4].coeffs[2][0] = np.nan                 # NaN sup: R^2 0
        # a zero level 7 refuses every range holding it, but in pyramid 5
        for pyr in pyramids:
            pyr.coeffs[7] = np.zeros(4)
        pyramids[5].coeffs[7] = np.full(4, 3.0)
        candidates = [(1, 3), (1, 5), (2, 6), (3, 7), (4, 8), (3, 6), (9, 12),
                      (2, 4), (5, 8), (7, 9), (2, 6)]
        best = _assert_same_winners(pyramids, candidates)
        assert select_scale_range(pyramids, candidates) \
            == _modal(best, candidates)
        # the NaN sup's candidates fit with R^2 0, beaten by any other
        assert best[4] >= 0
        for cands in ([(9, 12)], [(6, 9)], [(9, 12), (7, 9)]):
            best = _assert_same_winners(pyramids[:5], cands)
            assert (best == -1).all()
            with pytest.raises(DataError):
                select_scale_range(pyramids[:5], cands)

    def test_no_pyramids(self):
        with pytest.raises(DataError):
            select_scale_range([], [(1, 4)])


class TestBootstrapVsClt:
    def test_interval_overlap_on_fbm(self):
        # both interval styles on the same small fBm ensembles overlap in
        # at least 95% of 50 trials
        from leaderlab.synth import gen_fbm
        from leaderlab.wavelet import daubechies_basis, dwt
        basis = daubechies_basis(3)
        overlaps = 0
        trials = 50
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in range(trials):
                leads = []
                for i in range(12):
                    sig = gen_fbm(0.6, 1 << 10, RngSpec(6000 + t, i))
                    leads.append(compute_leaders(dwt(sig, basis, 6),
                                                 "three_leader"))
                res = estimate_c1_c2(leads, (2, 6))
                boot = bootstrap_percentile(res.c1_samples, np.mean, B=100,
                                            level=0.95, rng=RngSpec(6500, t))
                overlaps += (res.c1.lower <= boot.upper
                             and boot.lower <= res.c1.upper)
        assert overlaps / trials >= 0.95
