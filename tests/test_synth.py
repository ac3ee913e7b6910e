import hashlib
import math
import os
import signal
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from conftest import naive_circulant_gaussian
from leaderlab import synth
from leaderlab.cli import main
from leaderlab.core import DataError, NonConvergenceError, RngSpec
from leaderlab.synth import (GenGaussianParams, ProcessSpec,
                             fgn_autocovariance, gen_cmc_motion,
                             gen_cpc_motion, gen_fbm, gen_mrw,
                             gen_rws_pyramid, generate,
                             mrw_log_field_autocovariance,
                             sample_gen_gaussian)
from leaderlab.wavelet import daubechies_basis, dwt

# sha256 of samples.tobytes(), recorded from the uncached
# generator with RngSpec(7, 3)
GOLDEN_FBM = {
    (0.1, 2):
        "5bc547eb6afbd2f186168a1163918a999ac829c392f065549d0ab1054b4832fe",
    (0.1, 1000):
        "a434fd79921686872f68822dedfac6728fc3429dd3ed405fa0909b99eb52adb8",
    (0.1, 4096):
        "72b02de53961086a7a37faf1ae9b75164fb4f83a7eb8eabd205f32fa026001f0",
    (0.1, 32768):
        "5a76f57ae3e576c01017d6fa6aa8539da22d2beefcabf87fa0db33276c2f899d",
    (0.5, 2):
        "2bac9175cc7ea33801c7cd5a551ca1a097da8b5e205c33690772cda9c15638ba",
    (0.5, 1000):
        "8b9267099a979790d9e5f4270d8286b81a83d2ce5c2edcbb5080efd04d022714",
    (0.5, 4096):
        "909c024d3822bc02fbb63e77447642b7faab37b803cbe628165f31470ae2fd4e",
    (0.5, 32768):
        "2c8c84d3f6169b9a110d69ae083edf54cadc4e5ca50d52d6b3d2da5aee77caf4",
    (0.7, 2):
        "328a9060675a8be9c2093679375486457eefca109815c084062c86d295e76441",
    (0.7, 1000):
        "346b9ed9f8827ddb083b804c747bf7f0b1bedd4226faacc3928ba99383404a32",
    (0.7, 4096):
        "47a0cf6db048e62ec2cbc946defee8f5a1155c675f16f34378d7aa6bd4e3e4a9",
    (0.7, 32768):
        "d2c8420f55b3b0d9e8df86fa941578b2d91588f17289239be69f920a2ae8d963",
    (0.95, 2):
        "e04cb26bc09d5783a5d71dce5fc391a1bbc6ba41383edbd6e47a0454bf62445d",
    (0.95, 1000):
        "0e85c1cf1d1a272bd435d978bd0abb449d3fc2877ec3f5a72c20de775eb5433a",
    (0.95, 4096):
        "06c71e6c31da54f45a016edbf682e7ddde3505e373713fa72efe0acec04ff78b",
    (0.95, 32768):
        "a34c399a3e779bf18725258834095da0da4c0259478fda92ddd0848e7e474bb8",
}
# H = 0.6, n = 4096; L is n or 3n + 1
GOLDEN_MRW = {
    (0.0, 4096):
        "c278927413d9e5b2422e3eb7bb60af7aeb95f4fd5b2a7844ed1b6eca84d6c0d2",
    (0.0, 12289):
        "c278927413d9e5b2422e3eb7bb60af7aeb95f4fd5b2a7844ed1b6eca84d6c0d2",
    (0.05, 4096):
        "6bb5cc66257965001f16fe44237f386726671d978470f058b5f1ef7cb10d14f2",
    (0.05, 12289):
        "06e2eae2f7f1da451d93ccae7bf7e83ee8ca4ab5eca920fda746150507ad54d2",
    (0.1, 4096):
        "dcb9255b63c141c6672413fb75e05eafbb607e29f5342fff96250d05a313ffd7",
    (0.1, 12289):
        "b16b90e1ed7ec409561fef365c1579dfe7aeb3882dd22654fbf9b3b1bb0680f7",
    (0.5, 4096):
        "bd76304759211f7113ed7f165da9925b47f03028c4d67a11c10efd432c23d040",
    (0.5, 12289):
        "c5aebc9d6a04896d337d02095c4d6dc54eba8baecddc5ecf2114fda42b033741",
}


class TestFbm:
    def test_brownian_case_iid_increments(self):
        n = 1 << 14
        sig = gen_fbm(0.5, n, RngSpec(2))
        inc = np.diff(np.concatenate([[0.0], sig.samples]))
        lag1 = float(np.mean(inc[1:] * inc[:-1]) / np.mean(inc * inc))
        assert abs(lag1) <= 3.0 / math.sqrt(n)

    def test_aggregated_variance_slope(self):
        # oracle: direct slope fit on log variance of k-lag increments
        n = 1 << 14
        sig = gen_fbm(0.7, n, RngSpec(3))
        ks = np.array([1, 2, 4, 8, 16, 32, 64])
        v = []
        for k in ks:
            d = sig.samples[k:] - sig.samples[:-k]
            v.append(np.mean(d * d))
        slope = np.polyfit(np.log(ks), np.log(v), 1)[0]
        assert slope == pytest.approx(1.4, abs=0.1)

    def test_defaults_from_study(self):
        for h in (0.4, 0.7):
            sig = gen_fbm(h, 512, RngSpec(4))
            assert len(sig) == 512

    def test_reproducible(self):
        a = gen_fbm(0.6, 256, RngSpec(9, 1))
        b = gen_fbm(0.6, 256, RngSpec(9, 1))
        assert np.array_equal(a.samples, b.samples)

    def test_fgn_autocovariance_ensemble(self):
        # empirical lag-k autocovariance within 5 standard errors of gamma(k)
        n, reps = 1 << 12, 200
        acc = np.zeros((reps, 11))
        for i in range(reps):
            sig = gen_fbm(0.7, n, RngSpec(1000, i))
            fgn = np.diff(np.concatenate([[0.0], sig.samples]))
            for k in range(11):
                acc[i, k] = np.mean(fgn[k:] * fgn[: n - k])
        gamma = fgn_autocovariance(0.7, 10)
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - gamma) <= 5.0 * se)

    def test_validation(self):
        with pytest.raises(DataError):
            gen_fbm(0.0, 64, RngSpec(1))
        with pytest.raises(DataError):
            gen_fbm(1.0, 64, RngSpec(1))
        with pytest.raises(DataError):
            gen_fbm(0.5, 1, RngSpec(1))


class TestMrw:
    def test_beta_zero_reduces_to_fbm(self):
        a = gen_fbm(0.6, 512, RngSpec(5, 2))
        b = gen_mrw(0.6, 0.0, 512, 512, RngSpec(5, 2))
        assert np.array_equal(a.samples, b.samples)

    def test_log_field_variance_at_zero_lag(self):
        beta, big_l = 0.05, 100_000
        cov = mrw_log_field_autocovariance(beta, big_l, 10)
        assert cov[0] == pytest.approx(beta ** 2 * math.log(big_l), abs=1e-10)

    def test_covariance_clipping(self):
        cov = mrw_log_field_autocovariance(0.1, 8, 20)
        assert np.all(cov[8:] == 0.0)
        assert np.all(cov >= 0.0)

    def test_study_defaults_run(self):
        sig = gen_mrw(0.6, 0.05, 4096, 4096, RngSpec(6))
        assert len(sig) == 4096

    def test_validation(self):
        with pytest.raises(DataError):
            gen_mrw(0.6, 0.05, 100, 200, RngSpec(1))  # L < n
        with pytest.raises(DataError):
            gen_mrw(0.6, -0.1, 256, 256, RngSpec(1))


def _sha(sig):
    return hashlib.sha256(sig.samples.tobytes()).hexdigest()


@pytest.fixture
def cold_cache():
    synth._circulant_sqrt_eig.cache_clear()
    yield synth._circulant_sqrt_eig
    synth._circulant_sqrt_eig.cache_clear()


def _fgn_indefinite_at(sizes, calls):
    """fGn autocovariance with lag 1 at twice lag 0 (an indefinite
    embedding) when `lags` is in `sizes`; records every size asked for."""
    exact = synth.fgn_autocovariance

    def kernel(h, lags):
        calls.append(lags)
        acov = exact(h, lags)
        if sizes is None or lags in sizes:
            acov[1] = 2.0 * acov[0]
        return acov
    return kernel


class TestCirculantEmbedding:
    @pytest.mark.parametrize("H,n", sorted(GOLDEN_FBM))
    def test_fbm_golden_bits(self, cold_cache, H, n):
        assert _sha(gen_fbm(H, n, RngSpec(7, 3))) == GOLDEN_FBM[H, n]

    @pytest.mark.parametrize("beta,L", sorted(GOLDEN_MRW))
    def test_mrw_golden_bits(self, cold_cache, beta, L):
        sig = gen_mrw(0.6, beta, L, 4096, RngSpec(7, 3))
        assert _sha(sig) == GOLDEN_MRW[beta, L]

    def test_warm_cache_same_bytes(self, cold_cache):
        cold = gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))
        assert cold_cache.cache_info().hits == 0
        warm = gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))
        assert cold_cache.cache_info().hits == 2
        assert cold.samples.tobytes() == warm.samples.tobytes()
        assert _sha(warm) == GOLDEN_MRW[0.1, 12289]

    def test_matches_complex_vector_oracle(self, cold_cache):
        for h, n in [(0.3, 5), (0.8, 777)]:
            want = naive_circulant_gaussian(fgn_autocovariance(h, n), n,
                                            RngSpec(4, 1).generator(0))
            got = gen_fbm(h, n, RngSpec(4, 1)).samples
            assert np.array_equal(got, np.cumsum(want))

    def test_cached_spectrum_is_read_only(self, cold_cache):
        gen_fbm(0.7, 64, RngSpec(1))
        sqrt_eig = cold_cache("fgn", (0.7,), 64)
        assert cold_cache.cache_info().hits == 1
        with pytest.raises(ValueError):
            sqrt_eig[0] = 1.0

    def test_both_draws_transform_in_place(self, cold_cache, monkeypatch):
        # numpy.fft takes `out` from numpy 2.0, the floor
        ifft, in_place = np.fft.ifft, []

        def recording(a, *args, out=None, **kwargs):
            in_place.append(out is a)
            return ifft(a, *args, out=out, **kwargs)
        monkeypatch.setattr(np.fft, "ifft", recording)
        sig = gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))
        assert in_place == [True, True]
        assert _sha(sig) == GOLDEN_MRW[0.1, 12289]

    def test_spectra_looked_up_on_the_caller_fgn_first(self, cold_cache,
                                                      monkeypatch):
        lookups = []

        def recording(kind, params, n):
            lookups.append((kind, threading.current_thread()))
            return cold_cache(kind, params, n)
        monkeypatch.setattr(synth, "_circulant_sqrt_eig", recording)
        gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))
        caller = threading.current_thread()
        assert lookups == [("fgn", caller), ("mrw", caller)]

    def test_doubling_when_indefinite_at_n(self, cold_cache, monkeypatch):
        n, calls = 300, []
        monkeypatch.setattr(synth, "fgn_autocovariance",
                            _fgn_indefinite_at({n}, calls))
        sig = gen_fbm(0.7, n, RngSpec(8, 2))
        assert calls == [n, 2 * n]
        assert len(sig) == n
        want = naive_circulant_gaussian(fgn_autocovariance(0.7, 2 * n), n,
                                        RngSpec(8, 2).generator(0))
        assert np.array_equal(sig.samples, np.cumsum(want))

    def test_indefinite_at_every_size(self, cold_cache, monkeypatch,
                                      tmp_path, capsys):
        n, calls = 64, []
        monkeypatch.setattr(synth, "fgn_autocovariance",
                            _fgn_indefinite_at(None, calls))
        with pytest.raises(NonConvergenceError,
                           match="after 3 doublings \\(final size 512\\)"):
            gen_fbm(0.7, n, RngSpec(1))
        assert calls == [64, 128, 256, 512]
        code = main(["generate", "--process", "fbm", "--H", "0.7", "--n",
                     str(n), "--seed", "1", "-o", str(tmp_path / "g")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("nonconvergence:") and "Traceback" not in err

    @pytest.mark.parametrize("beta", [1e200, 1.4e154, math.inf, math.nan])
    def test_non_finite_beta_rejected_before_synthesis(self, cold_cache,
                                                       beta):
        with pytest.raises(DataError, match="finite"):
            gen_mrw(0.6, beta, 256, 256, RngSpec(1))
        assert cold_cache.cache_info().currsize == 0


def _fill_threads(monkeypatch):
    """Patch `_circulant_fill` to record the thread of each call."""
    fill, threads = synth._circulant_fill, []

    def recording(z, sqrt_eig, gen):
        threads.append(threading.current_thread())
        fill(z, sqrt_eig, gen)
    monkeypatch.setattr(synth, "_circulant_fill", recording)
    return threads


class TestLogFieldWorker:
    def test_one_worker_for_every_draw(self, monkeypatch):
        threads = _fill_threads(monkeypatch)
        caller, want = threading.current_thread(), GOLDEN_MRW[0.1, 12289]
        counts = []
        for _ in range(20):
            assert _sha(gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))) == want
            counts.append(threading.active_count())
        assert counts == counts[:1] * 20
        # each call fills the fGn on the caller and the log field beside it
        assert threads.count(caller) == 20
        fields = {t for t in threads if t is not caller}
        assert len(fields) == 1 and threads.count(fields.pop()) == 20

    def test_failure_in_worker_reaches_caller(self, monkeypatch, capfd):
        want = GOLDEN_MRW[0.1, 12289]
        assert _sha(gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))) == want
        before = threading.active_count()
        failure, threads = RuntimeError("log field draw failed"), []

        class Failing:
            def standard_normal(self, *args, **kwargs):
                threads.append(threading.current_thread())
                raise failure
        generator = RngSpec.generator
        with monkeypatch.context() as patch:
            patch.setattr(RngSpec, "generator",
                          lambda self, *path: (Failing() if path == (1,)
                                               else generator(self, *path)))
            with pytest.raises(RuntimeError) as info:
                gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))
        assert info.value is failure
        assert threads and threads[0] is not threading.current_thread()
        assert threading.active_count() == before
        assert "Exception in thread" not in capfd.readouterr().err
        # the worker outlives the failure
        assert _sha(gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))) == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_starts_its_own_worker(self):
        want = GOLDEN_MRW[0.1, 12289]
        assert _sha(gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))) == want
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # a child waiting on the parent's worker would hang
                signal.alarm(10)
                sig = gen_mrw(0.6, 0.1, 12289, 4096, RngSpec(7, 3))
                code = 0 if _sha(sig) == want else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestCmc:
    def test_degenerate_cascade_is_ramp(self):
        # mu -> 0 with sigma2 forced to 0: every multiplier is exactly 1
        sig = gen_cmc_motion(0.0, 8, RngSpec(7), sigma2=0.0)
        n = 1 << 8
        expected = np.arange(1, n + 1) / n
        assert np.max(np.abs(sig.samples - expected)) <= 1e-12

    def test_multiplier_mean_one(self):
        # E[2^-U] = 1 under the mass-conservation link sigma2 = 2 mu / ln 2
        mu = 0.37
        sigma2 = 2.0 * mu / math.log(2.0)
        gen = RngSpec(8).generator()
        u = gen.normal(mu, math.sqrt(sigma2), size=1_000_000)
        w = np.exp2(-u)
        assert w.mean() == pytest.approx(1.0, abs=0.005)

    def test_cascade_mass(self):
        # E[A(1)] = 1; sample mean over 500 realizations within 5%
        total = 0.0
        for i in range(500):
            sig = gen_cmc_motion(0.37, 7, RngSpec(880, i))
            total += sig.samples[-1]
        assert total / 500 == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(DataError):
            gen_cmc_motion(-0.1, 4, RngSpec(1))
        with pytest.raises(DataError):
            gen_cmc_motion(0.37, 0, RngSpec(1))


class TestCpc:
    def test_empty_point_process_linear(self):
        sig = gen_cpc_motion("ln", 10.0, 0.05, 128, RngSpec(9), intensity=0.0)
        dt = 10.0 / 128
        expected = dt * np.arange(1, 129)
        assert np.max(np.abs(sig.samples - expected)) <= 1e-12

    def test_cone_point_count(self):
        # points in the full-resolution cone at t: Poisson with mean
        # integral of (1/r^2) over the cone = log(1/r_min)
        t_star, r_min, t_len = 5.0, 0.02, 10.0
        counts = []
        for i in range(200):
            gen = RngSpec(910, i).generator(0)
            span = t_len + 1.0
            n_pts = gen.poisson(span * (1.0 / r_min - 1.0))
            t_pts = gen.uniform(-0.5, t_len + 0.5, size=n_pts)
            u = gen.random(n_pts)
            r_pts = 1.0 / (1.0 / r_min - u * (1.0 / r_min - 1.0))
            counts.append(np.sum(np.abs(t_pts - t_star) <= r_pts / 2.0))
        mean = math.log(1 / r_min)
        observed = float(np.mean(counts))
        se = math.sqrt(mean / 200)
        assert abs(observed - mean) <= 3.0 * se

    def test_defaults_both_kinds(self):
        for kind in ("ln", "lp"):
            sig = gen_cpc_motion(kind, 100.0, 0.02, 1024, RngSpec(11))
            assert len(sig) == 1024
            assert np.all(np.diff(sig.samples) > 0)  # positive density

    def test_validation(self):
        with pytest.raises(DataError):
            gen_cpc_motion("xx", 10.0, 0.02, 64, RngSpec(1))
        with pytest.raises(DataError):
            gen_cpc_motion("ln", 10.0, 0.0, 64, RngSpec(1))
        with pytest.raises(DataError):
            gen_cpc_motion("ln", -1.0, 0.02, 64, RngSpec(1))


class TestRws:
    def test_large_alpha_damps_fine_scales(self):
        basis = daubechies_basis(3)
        sig, pyr = gen_rws_pyramid(10.0, 2.0, basis, 6, RngSpec(12))
        top = pyr.levels[-1]
        coarse_max = np.abs(pyr.coeffs[top]).max()
        for j in pyr.levels[:-1]:
            assert np.abs(pyr.coeffs[j]).max() <= 2.0 ** (-10) * max(
                coarse_max, np.abs(pyr.coeffs[top]).max() + 1.0)

    def test_round_trip_recovers_planted(self):
        basis = daubechies_basis(3)
        sig, planted = gen_rws_pyramid(1.0, 2.0, basis, 10, RngSpec(13))
        j_max = 8  # deepest level honoring the length >= 2^j * filter bound
        pyr = dwt(sig, basis, j_max)
        for j in range(1, j_max + 1):
            got = pyr.coeffs[j]
            want = planted.coeffs[j]
            denom = np.maximum(np.abs(want), 1e-12)
            assert np.max(np.abs(got - want) / denom) <= 1e-8

    def test_beta2_draw_variance(self):
        x = sample_gen_gaussian(2.0, 1_000_000, RngSpec(14))
        assert x.var() == pytest.approx(0.5, abs=0.005)


class TestGenGaussian:
    def test_laplace_mean_abs(self):
        x = sample_gen_gaussian(1.0, 1_000_000, RngSpec(15))
        assert np.mean(np.abs(x)) == pytest.approx(1.0, abs=0.01)

    def test_ecdf_matches_incomplete_gamma(self):
        beta, n = 1.5, 40_000
        x = np.abs(sample_gen_gaussian(beta, n, RngSpec(16)))
        xs = np.sort(x)
        ecdf = np.arange(1, n + 1) / n
        cdf = gammainc(1.0 / beta, xs ** beta)
        assert np.max(np.abs(ecdf - cdf)) <= 2.0 / math.sqrt(n)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_density_normalization(self, beta):
        gg = GenGaussianParams(beta)
        val, _ = quad(gg.pdf, 0.0, np.inf, limit=400)
        assert 2.0 * val == pytest.approx(1.0, abs=1e-8)
        assert 0.0 < gg.kappa < 0.565

    def test_validation(self):
        with pytest.raises(DataError):
            sample_gen_gaussian(0.0, 10, RngSpec(1))
        with pytest.raises(DataError):
            GenGaussianParams(-1.0)


class TestProcessSpec:
    def test_generate_dispatch_reproducible(self):
        for kind, params in [("fbm", {"H": 0.7}),
                             ("mrw", {"H": 0.6, "beta": 0.05, "L": 512}),
                             ("cmc", {"mu": 0.37, "J": 9}),
                             ("cpc-ln", {"T": 20.0, "rmin": 0.05}),
                             ("cpc-lp", {"T": 20.0, "rmin": 0.05, "w": 1.5}),
                             ("rws", {"alpha": 1.0, "ggbeta": 2.0, "J": 8})]:
            spec = ProcessSpec(kind=kind, n=512, params=params,
                               rng=RngSpec(77, 4))
            a = generate(spec)
            b = generate(spec)
            assert np.array_equal(a.samples, b.samples), kind
            assert len(a) == 512, kind

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            generate(ProcessSpec("levy", 128, {}, RngSpec(1)))
