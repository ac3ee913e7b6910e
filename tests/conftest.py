import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad
from scipy.special import gammainccinv

from leaderlab.core import RngSpec
from leaderlab.synth import GenGaussianParams
from leaderlab.wavelet import CoefficientPyramid

# the same examples on every run, whatever the .hypothesis/ database holds
settings.register_profile("leaderlab", derandomize=True, deadline=None)
settings.load_profile("leaderlab")


@pytest.fixture
def rng():
    return RngSpec(123456789)


def build_pyramid(arrays):
    """Pyramid from a list of arrays ordered finest (level 1) to coarsest."""
    coeffs = {j + 1: np.asarray(a, dtype=float) for j, a in enumerate(arrays)}
    return CoefficientPyramid(coeffs=coeffs)


def brute_force_leaders(pyramid, variant):
    """Enumerate every dyadic inclusion: the level-j cube at position k
    covers fine-level cells [k 2^(j-1), (k+1) 2^(j-1)) in level-1 units."""
    levels = pyramid.levels
    out = {}
    for j in levels:
        n_j = pyramid.n_at(j)
        one = np.zeros(n_j)
        for k in range(n_j):
            best = 0.0
            lo_fine = k * 2 ** (j - 1)
            hi_fine = (k + 1) * 2 ** (j - 1)
            for jp in levels:
                if jp > j:
                    continue
                scale = 2 ** (jp - 1)
                for kp in range(pyramid.n_at(jp)):
                    if kp * scale >= lo_fine and (kp + 1) * scale <= hi_fine:
                        best = max(best, abs(pyramid.coeffs[jp][kp]))
            one[k] = best
        out[j] = one
    if variant == "one_leader":
        return out
    three = {}
    for j in levels:
        arr = out[j]
        three[j] = np.maximum(np.maximum(np.roll(arr, 1), arr),
                              np.roll(arr, -1))
    return three


def naive_periodic_dwt(samples, lo, hi, j_max):
    """Scalar-level periodic filter bank, L1-normalized, for oracle use.

    Returns the details per level and the coarsest approximation; taps are
    summed in filter order, as `dwt` sums them, so the bits agree."""
    approx = np.asarray(samples, dtype=float).copy()
    out = {}
    for j in range(1, j_max + 1):
        m = approx.size
        half = m // 2
        det = np.zeros(half)
        app = np.zeros(half)
        for k in range(half):
            acc_d = 0.0
            acc_a = 0.0
            for t in range(len(lo)):
                acc_d += hi[t] * approx[(2 * k + t) % m]
                acc_a += lo[t] * approx[(2 * k + t) % m]
            det[k] = acc_d
            app[k] = acc_a
        out[j] = det * 2.0 ** (-j / 2.0)
        approx = app
    return out, approx


def naive_periodic_idwt(coeffs, approx, lo, hi):
    """Scalar-level periodic synthesis, coarsest level first, for oracle use.

    out[i] sums, over the taps m with i - m even in filter order, lo[m] times
    the approximation then hi[m] times the detail at (i - m) / 2 modulo the
    level length, as `idwt` sums them."""
    out = np.asarray(approx, dtype=float)
    for j in sorted(coeffs, reverse=True):
        det = np.asarray(coeffs[j], dtype=float) * 2.0 ** (j / 2.0)
        h = out.size
        nxt = np.zeros(2 * h)
        for i in range(2 * h):
            acc = 0.0
            for m in range(len(lo)):
                if (i - m) % 2 == 0:
                    k = ((i - m) // 2) % h
                    acc += lo[m] * out[k]
                    acc += hi[m] * det[k]
            nxt[i] = acc
        out = nxt
    return out


def footprint_valid(n, filt_len, j_max):
    """Wrap masks of a length-n periodic DWT by enumeration: a coefficient
    is clean when every sample it reads, through every finer level, is read
    without wrapping.  A wrapped read stands for the out-of-range sample n."""
    reads = [{t} for t in range(n)]
    out = {}
    for j in range(1, j_max + 1):
        size = len(reads)
        reads = [set().union(*(reads[2 * k + m] if 2 * k + m < size else {n}
                               for m in range(filt_len)))
                 for k in range(size // 2)]
        out[j] = np.array([max(r) < n for r in reads])
    return out


def cone_valid(coef_valid, variant):
    """Leader wrap masks by enumeration from per-level coefficient masks
    (level 1 finest): a leader is clean when every coefficient in its cone,
    the level-j cube and every finer cube inside it, is clean; a
    three_leader also needs the cones of its two periodic neighbours.
    With the masks of `footprint_valid` these are the masks of a DWT."""
    out = {}
    for j in sorted(coef_valid):
        size = coef_valid[j].size
        cone = [all(coef_valid[jp][kp] for jp in range(1, j + 1)
                    for kp in range(k << (j - jp), (k + 1) << (j - jp)))
                for k in range(size)]
        if variant == "three_leader":
            cone = [cone[k - 1] and cone[k] and cone[(k + 1) % size]
                    for k in range(size)]
        out[j] = np.array(cone, dtype=bool)
    return out


def naive_circulant_gaussian(acov, n, gen):
    """Circulant-embedding sample of length n from lags 0..m of `acov`,
    built as a complex vector, for oracle use; it reads the stream as the
    generators do."""
    m = acov.size - 1
    eig = np.clip(np.fft.fft(np.concatenate([acov, acov[-2:0:-1]])).real,
                  0.0, None)
    z = np.zeros(2 * m, dtype=complex)
    z[0] = gen.standard_normal()
    z[m] = gen.standard_normal()
    uv = gen.standard_normal((m - 1, 2))
    z[1:m] = (uv[:, 0] + 1j * uv[:, 1]) / np.sqrt(2.0)
    z[m + 1:] = np.conj(z[1:m][::-1])
    return (np.sqrt(2.0 * m) * np.fft.ifft(np.sqrt(eig) * z).real)[:n]


def inverse_cdf_leader_cdf_monte_carlo(model, A, J, n_paths, rng):
    """Empirical P(leader <= A) over depth-J trees, each level maximum drawn
    by inverse CDF at u^(1/2^j), for oracle use; it reads the stream as
    `leader_cdf_monte_carlo` does and returns the estimate."""
    gen = rng.generator(0)
    inv_beta = 1.0 / model.beta
    best = np.full(n_paths, -np.inf)
    for j in range(J + 1):
        u = gen.random(n_paths)
        # tail prob of the level max: 1 - u^(1/2^j), computed stably
        t = -np.expm1(np.log(u) / 2.0 ** j)
        level_max = gammainccinv(inv_beta, t) ** inv_beta
        best = np.maximum(best, 2.0 ** (-model.alpha * j) * level_max)
    return float(np.mean(best <= A))


def gg_tail_by_quadrature(x, beta):
    """One-sided generalized-Gaussian tail kappa int_x^inf e^(-t^beta) dt by
    adaptive quadrature, for oracle use; it asserts the absolute error
    certificate below 1e-12."""
    gg = GenGaussianParams(beta)
    val, err = quad(lambda t: math.exp(-t ** beta), x, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    assert gg.kappa * err <= 1e-12
    return gg.kappa * val
