"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
a single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to
see them live).  Every random quantity flows from seeds fixed below.
"""

import math
import time
import warnings

import numpy as np
import pytest

import leaderlab as ll
from conftest import (brute_force_leaders, build_pyramid, gg_tail_by_quadrature,
                      naive_periodic_dwt)
from leaderlab.cli import main as cli_main
from leaderlab.cumulants import (bootstrap_percentile, estimate_c1_c2,
                                 estimation_scale_candidates,
                                 select_scale_range)
from leaderlab.rwstail import (RwsModel, a_threshold, mills_bounds,
                               verify_tail_rates)
from leaderlab.stattests import (interval_discrepancy, logconcavity_test,
                                 shapiro_wilk)
from leaderlab.synth import sample_gen_gaussian

warnings.filterwarnings("ignore", category=UserWarning)

BASIS = ll.daubechies_basis(3)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} | {detail}")


def _leader_ensemble(kind: str, n_real: int, length: int, j_max: int,
                     seed: int, **params):
    pyramids, leaders = [], []
    for i in range(n_real):
        if kind == "fbm":
            sig = ll.gen_fbm(params["H"], length, ll.RngSpec(seed, i))
        else:
            sig = ll.gen_mrw(params["H"], params["beta"], length, length,
                             ll.RngSpec(seed, i))
        pyr = ll.dwt(sig, BASIS, j_max)
        pyramids.append(pyr)
        leaders.append(ll.compute_leaders(pyr, "three_leader"))
    return pyramids, leaders


class TestMonofractalRecovery:
    def test_fbm_c1_c2(self):
        t0 = time.time()
        pyramids, leaders = _leader_ensemble("fbm", 100, 1 << 15, 11,
                                             seed=101, H=0.7)
        j_range = select_scale_range(pyramids, estimation_scale_candidates(11))
        res = estimate_c1_c2(leaders, j_range)
        c1_ok = abs(res.c1.estimate - 0.7) <= 0.05
        ci_ok = res.c1.lower <= 0.7 <= res.c1.upper
        c2_ok = -0.015 <= res.c2.estimate <= 0.005
        elapsed = time.time() - t0
        ok = c1_ok and ci_ok and c2_ok
        report("monofractal recovery", ok,
               f"range={j_range} c1={res.c1.estimate:.4f} "
               f"CI=({res.c1.lower:.4f},{res.c1.upper:.4f}) "
               f"c2={res.c2.estimate:.5f} runtime={elapsed:.0f}s (target <120s)")
        assert c1_ok and ci_ok and c2_ok


class TestMultifractalRecovery:
    def test_mrw_c1_c2_and_width(self):
        pyramids, leaders = _leader_ensemble("mrw", 100, 1 << 15, 11,
                                             seed=202, H=0.6, beta=0.1)
        j_range = select_scale_range(pyramids, estimation_scale_candidates(11))
        res = estimate_c1_c2(leaders, j_range)
        boot = bootstrap_percentile(res.c1_samples, np.mean, B=100,
                                    level=0.95, rng=ll.RngSpec(203))
        c1_ok = abs(res.c1.estimate - 0.605) <= 0.05
        c2_ok = abs(res.c2.estimate - (-0.01)) <= 0.01
        width_ok = res.c1.width <= 1.5 * boot.width
        ok = c1_ok and c2_ok and width_ok
        report("multifractal recovery", ok,
               f"range={j_range} c1={res.c1.estimate:.4f} "
               f"c2={res.c2.estimate:.5f} cltW={res.c1.width:.5f} "
               f"bootW={boot.width:.5f}")
        assert c1_ok and c2_ok and width_ok


class TestNormalityRejection:
    def test_shapiro_on_log_leaders(self):
        rejections = 0
        for i in range(100):
            sig = ll.gen_fbm(0.4, 1 << 16, ll.RngSpec(303, i))
            lead = ll.compute_leaders(ll.dwt(sig, BASIS, 6), "three_leader")
            logs = np.log(lead.clean_values(4))
            rejections += shapiro_wilk(logs, alpha=0.05).rejected
        prop = rejections / 100
        ok = prop >= 0.7
        report("normality rejection", ok,
               f"Shapiro-Wilk rejection at j=4: {prop:.2f} (need >= 0.70)")
        assert ok


class TestLogConcavityRetention:
    def test_mrw_log_leaders(self):
        props = {4: 0, 5: 0, 6: 0}
        for i in range(100):
            sig = ll.gen_mrw(0.6, 0.05, 1 << 13, 1 << 13, ll.RngSpec(404, i))
            lead = ll.compute_leaders(ll.dwt(sig, BASIS, 6), "three_leader")
            for j in (4, 5, 6):
                logs = np.log(lead.clean_values(j))
                rep = logconcavity_test(logs, B=99, alpha=0.05,
                                        rng=ll.RngSpec(405, 3 * i + (j - 4)))
                props[j] += rep.rejected
        props = {j: v / 100 for j, v in props.items()}
        ok = all(p <= 0.10 for p in props.values())
        report("log-concavity retention", ok,
               f"rejections per scale: {props} (need <= 0.10 each)")
        assert ok


class TestCalibrationKnownDensities:
    def _rate(self, draw, n, seed):
        rej = 0
        for i in range(100):
            x = draw(ll.RngSpec(seed, i).generator(), i, n)
            rej += logconcavity_test(x, B=99, alpha=0.05,
                                     rng=ll.RngSpec(seed + 1, i)).rejected
        return rej / 100

    def test_table_of_known_densities(self):
        # Gates sit below the test's power, which was estimated on seeds the
        # table does not use (RngSpec(s, i) draws, RngSpec(s + 1, i) tests):
        # Cauchy n=200 0.984 +- 0.006 (s=9100, 500 draws), n=500 1.00
        # (s=9400, 100 draws); gg(0.5) n=200 0.62 +- 0.03 (s=9200, 300
        # draws), n=500 0.965 +- 0.013 (s=9300, 200 draws).  At n=200 the
        # test has too little power against gg(0.5) for a 0.80 gate, so that
        # row is scored at n=500.
        t0 = time.time()
        rows = {  # name: (draw, n, seed)
            "normal": (lambda g, i, n: g.normal(size=n), 200, 510),
            "cauchy": (lambda g, i, n: g.standard_cauchy(size=n), 200, 520),
            "pareto": (lambda g, i, n: g.pareto(1.0, size=n) + 1.0, 200, 530),
            "gg0.5": (lambda g, i, n: sample_gen_gaussian(0.5, n,
                                                          ll.RngSpec(545, i)),
                      500, 540),
            "lognormal": (lambda g, i, n: g.lognormal(size=n), 1000, 550),
        }
        rate = {name: self._rate(draw, n, seed)
                for name, (draw, n, seed) in rows.items()}
        elapsed = time.time() - t0
        checks = {
            "normal<=0.10": rate["normal"] <= 0.10,
            "cauchy>=0.95": rate["cauchy"] >= 0.95,
            "pareto==1.00": rate["pareto"] == 1.0,
            "gg(0.5)>=0.80": rate["gg0.5"] >= 0.80,
            "lognormal>=0.20": rate["lognormal"] >= 0.20,
        }
        detail = " ".join(f"{name}(n={rows[name][1]})={r:.2f}"
                          for name, r in rate.items())
        detail += f" runtime={elapsed:.0f}s (target <1800s)"
        failed = [k for k, v in checks.items() if not v]
        report("test calibration", not failed,
               detail + (" | " + ", ".join(failed) if failed else ""))
        assert elapsed < 1800
        assert not failed, f"calibration rows failed: {failed} ({detail})"


class TestAppendixEquivalence:
    def _signals(self):
        yield ll.gen_fbm(0.7, 1 << 12, ll.RngSpec(606, 0))
        yield ll.gen_mrw(0.6, 0.05, 1 << 12, 1 << 12, ll.RngSpec(606, 1))
        yield ll.gen_cmc_motion(0.37, 12, ll.RngSpec(606, 2))
        yield ll.gen_cpc_motion("ln", 50.0, 0.02, 1 << 12, ll.RngSpec(606, 3))
        yield ll.gen_rws(1.0, 2.0, BASIS, 9, ll.RngSpec(606, 4))

    def test_structure_inequalities_exact(self):
        qs_pos = [0.5, 1.0, 2.0, 5.0]
        qs_neg = [-0.5, -1.0, -2.0]
        worst = 0.0
        checked_neg = 0
        for sig in self._signals():
            pyr = ll.dwt(sig, BASIS, 6)
            one = ll.compute_leaders(pyr, "one_leader")
            three = ll.compute_leaders(pyr, "three_leader")
            # every array entry, wrapped or not: the inequalities are exact
            for j in pyr.levels:
                for q in qs_pos:
                    s1 = float(np.mean(one.leaders[j] ** q))
                    s3 = float(np.mean(three.leaders[j] ** q))
                    worst = max(worst, s3 / (3.0 * s1) - 1.0)
            # negative moments exist only on levels with strictly positive
            # leaders (compound Poisson motions are piecewise linear, so the
            # finest levels legitimately hold exact zeros)
            positive = [j for j in pyr.levels
                        if np.all(one.leaders[j] > 0.0)
                        and np.all(three.leaders[j] > 0.0)]
            for j in positive:
                if j - 2 not in positive:
                    continue
                for q in qs_neg:
                    s1 = float(np.mean(one.leaders[j] ** q))
                    s3 = float(np.mean(three.leaders[j - 2] ** q))
                    worst = max(worst, s1 / (4.0 * s3) - 1.0)
                    checked_neg += 1
        ok = worst <= 1e-12 and checked_neg > 0
        report("leader-variant inequalities", ok,
               f"worst relative margin {worst:.2e} over 5 process families "
               f"({checked_neg} negative-moment level pairs)")
        assert ok

    def test_zeta_agreement(self):
        qs = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
        sums = {"one_leader": {}, "three_leader": {}}
        for i in range(20):
            sig = ll.gen_fbm(0.7, 1 << 14, ll.RngSpec(607, i))
            pyr = ll.dwt(sig, BASIS, 9)
            for variant in sums:
                lead = ll.compute_leaders(pyr, variant)
                tab = ll.structure_functions(lead, qs)
                fits = ll.scaling_function(tab, (4, 9))
                for q, fit in fits.items():
                    sums[variant].setdefault(q, []).append(fit.slope)
        max_gap = max(abs(np.mean(sums["one_leader"][q])
                          - np.mean(sums["three_leader"][q])) for q in qs)
        zeta1 = float(np.mean(sums["three_leader"][1.0]))
        mono_ok = abs(zeta1 - 0.7) <= 0.05
        ok = max_gap <= 0.05 and mono_ok
        report("zeta variant agreement", ok,
               f"max |zeta_1 - zeta_3| over |q|<=2: {max_gap:.4f}; "
               f"zeta(1)={zeta1:.4f} (target 0.7 +- 0.05)")
        assert ok


class TestTailRateVerification:
    def test_gaussian_worked_example(self):
        model = RwsModel(1.0, 2.0)
        grid = [2.0 ** (-k) for k in range(9, 3, -1)] + [7.1, 8.0, 10.0]
        rep = verify_tail_rates(model, grid)
        slope_ok = abs(rep.slope - (-1.0)) <= 0.1
        c_l2_ok = abs(rep.constants["c_lbeta"]
                      - 128.0 / (45.0 * math.pi)) <= 1e-10
        kappa_ok = abs(rep.constants["kappa_beta"]
                       - 1.0 / math.sqrt(math.pi)) <= 1e-12
        a2_ok = abs(a_threshold(model) - math.sqrt(99.0 / 2.0)) <= 1e-12
        dom_ok = all(rep.large_dominates)
        ok = slope_ok and c_l2_ok and kappa_ok and a2_ok and dom_ok
        report("tail-rate verification", ok,
               f"slope={rep.slope:.3f} c_l2 err={abs(rep.constants['c_lbeta'] - 128 / (45 * math.pi)):.1e} "
               f"A2={a_threshold(model):.4f} dominates={dom_ok}")
        assert ok


class TestMillsSandwich:
    def test_grid(self):
        worst = -math.inf
        oracle_gap = 0.0
        for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
            for x in (0.5, 1.0, 2.0, 5.0):
                lower, upper, exact = mills_bounds(x, beta)
                worst = max(worst, lower - exact, exact - upper)
                oracle_gap = max(oracle_gap,
                                 abs(exact - gg_tail_by_quadrature(x, beta)))
        coincide = True
        for x in (0.5, 1.0, 2.0, 5.0):
            lower, upper, exact = mills_bounds(x, 1.0)
            closed = 0.5 * math.exp(-x)
            coincide &= (abs(lower - closed) <= 1e-12
                         and abs(upper - closed) <= 1e-12
                         and abs(exact - closed) <= 1e-12)
        ok = worst <= 1e-12 and coincide and oracle_gap <= 1e-12
        report("Mills sandwich", ok,
               f"worst violation {worst:.2e}; beta=1 coincide: {coincide}; "
               f"quadrature gap {oracle_gap:.2e}")
        assert ok


class TestOracleEquivalences:
    def test_all_oracles(self):
        gen = ll.RngSpec(701).generator()
        # leaders vs brute force on a 6-scale pyramid
        arrays = [gen.normal(size=1 << (6 - lvl)) for lvl in range(6)]
        pyr = build_pyramid(arrays)
        leaders_ok = True
        for variant in ("one_leader", "three_leader"):
            fast = ll.compute_leaders(pyr, variant)
            slow = brute_force_leaders(pyr, variant)
            for j in pyr.levels:
                leaders_ok &= bool(np.array_equal(fast.leaders[j], slow[j]))
        # permutation statistic vs O(m^2) enumeration at n=50
        x = gen.normal(size=50)
        xs = gen.normal(size=50) * 1.3 + 0.2
        pooled = np.concatenate([x, xs])
        best = 0.0
        for c in pooled:
            for d in np.unique(np.abs(pooled - c)):
                cnt = abs(int(np.sum(np.abs(x - c) <= d))
                          - int(np.sum(np.abs(xs - c) <= d)))
                best = max(best, cnt / 50)
        t_ok = interval_discrepancy(x, xs) == pytest.approx(best, abs=1e-15)
        # DWT vs naive filter bank on a length-256 input
        sig = gen.normal(size=256)
        mine = ll.dwt(ll.Signal(sig), BASIS, 4)
        ref, _ = naive_periodic_dwt(sig, BASIS.filter_lo, BASIS.filter_hi, 4)
        dwt_err = max(float(np.max(np.abs(mine.coeffs[j] - ref[j])))
                      for j in mine.levels)
        ok = leaders_ok and t_ok and dwt_err <= 1e-10
        report("oracle equivalences", ok,
               f"leaders exact: {leaders_ok}; T exact: {bool(t_ok)}; "
               f"dwt err {dwt_err:.1e}")
        assert ok


class TestReproducibility:
    def test_manifest_replay_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        code = cli_main(["generate", "--process", "mrw", "--H", "0.6",
                         "--beta", "0.05", "--L", "4096", "--n", "4096",
                         "--seed", "31", "--ensemble", "3",
                         "-o", str(first)])
        assert code == 0
        an1 = tmp_path / "an1"
        assert cli_main(["analyze", "--input", str(first / "signal_0000.csv"),
                         "--jmax", "8", "-o", str(an1)]) == 0
        replayed = tmp_path / "replayed"
        an2 = tmp_path / "an2"
        assert cli_main(["replay", str(first / "manifest.json"),
                         "-o", str(replayed)]) == 0
        assert cli_main(["replay", str(an1 / "manifest.json"),
                         "-o", str(an2)]) == 0

        def bytes_of(d):
            return {p.name: p.read_bytes() for p in sorted(d.iterdir())
                    if p.name != "manifest.json"}

        gen_ok = bytes_of(first) == bytes_of(replayed)
        an_ok = bytes_of(an1) == bytes_of(an2)
        ok = gen_ok and an_ok
        report("manifest reproducibility", ok,
               f"generate replay identical: {gen_ok}; "
               f"analyze replay identical: {an_ok}")
        assert ok
