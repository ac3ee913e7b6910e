"""Generators for the stochastic process families used throughout:
fractional Brownian motion, multifractal random walk, the log-normal dyadic
cascade, compound Poisson cascades, and random wavelet series with
generalized-Gaussian coefficients.

All generators are exact-in-distribution Gaussian synthesizers where a
Gaussian structure exists (circulant embedding, no wavelet-domain
approximations), and every draw flows through an RngSpec stream so that a
ProcessSpec reproduces bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .core import DataError, NonConvergenceError, RngSpec, Signal
from .wavelet import CoefficientPyramid, WaveletBasis, idwt


@dataclass(frozen=True)
class GenGaussianParams:
    """Shape and normalizing constant of the generalized Gaussian density
    kappa_beta * exp(-|x|^beta); Laplace at beta=1, N(0, 1/2) at beta=2."""

    beta: float
    kappa: float = field(init=False)

    def __post_init__(self):
        if not self.beta > 0:
            raise DataError("generalized Gaussian shape beta must be > 0")
        kappa = self.beta / (2.0 * math.exp(gammaln(1.0 / self.beta)))
        object.__setattr__(self, "kappa", kappa)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.kappa * np.exp(-np.abs(x) ** self.beta)


@dataclass
class ProcessSpec:
    """Full description of one synthetic realization request."""

    kind: str                 # fbm | mrw | cmc | cpc-ln | cpc-lp | rws
    n: int
    params: dict
    rng: RngSpec

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": int(self.n),
                "params": dict(self.params), "rng": self.rng.to_dict()}


def _circulant_gaussian(acov: np.ndarray, n: int,
                        gen: np.random.Generator) -> np.ndarray:
    """Exact stationary Gaussian sample by circulant embedding.

    `acov` must provide autocovariances for lags 0..M where M >= n.  Raises
    NonConvergenceError when the embedding is indefinite;
    `_sample_with_retries` then retries at doubled size.
    """
    m = acov.size - 1
    if m < n:
        raise DataError("autocovariance array shorter than requested output")
    c = np.concatenate([acov, acov[-2:0:-1]])
    eig = np.fft.fft(c).real
    tol = 1e-8 * max(eig.max(), 1.0)
    if eig.min() < -tol:
        raise NonConvergenceError("indefinite circulant embedding")
    eig = np.clip(eig, 0.0, None)
    two_m = 2 * m
    z = np.zeros(two_m, dtype=complex)
    z[0] = gen.standard_normal()
    z[m] = gen.standard_normal()
    uv = gen.standard_normal((m - 1, 2))
    z[1:m] = (uv[:, 0] + 1j * uv[:, 1]) / math.sqrt(2.0)
    z[m + 1:] = np.conj(z[1:m][::-1])
    x = math.sqrt(two_m) * np.fft.ifft(np.sqrt(eig) * z).real
    return x[:n]


def _sample_with_retries(acov_fn, n: int, gen: np.random.Generator,
                         max_doublings: int = 3) -> np.ndarray:
    m = n
    for attempt in range(max_doublings + 1):
        try:
            return _circulant_gaussian(acov_fn(m), n, gen)
        except NonConvergenceError:
            if attempt == max_doublings:
                raise NonConvergenceError(
                    f"circulant embedding still indefinite after "
                    f"{max_doublings} doublings (final size {m})")
            m *= 2
    raise AssertionError("unreachable")


def fgn_autocovariance(h: float, lags: int) -> np.ndarray:
    """gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H)/2 for k = 0..lags."""
    k = np.arange(lags + 1, dtype=float)
    return 0.5 * (np.abs(k + 1) ** (2 * h) - 2 * np.abs(k) ** (2 * h)
                  + np.abs(k - 1) ** (2 * h))


def gen_fbm(H: float, n: int, rng: RngSpec) -> Signal:
    """Fractional Brownian motion of length n on the unit interval.

    The increments are exact fractional Gaussian noise with Hurst exponent H,
    produced by circulant embedding; the path is their cumulative sum.
    """
    if not 0.0 < H < 1.0:
        raise DataError("Hurst exponent must lie in (0, 1)")
    if n < 2:
        raise DataError("need n >= 2")
    gen = rng.generator(0)
    fgn = _sample_with_retries(lambda m: fgn_autocovariance(H, m), n, gen)
    return Signal(np.cumsum(fgn), t0=0.0, dt=1.0 / n, label=f"fbm(H={H:g})")


def mrw_log_field_autocovariance(beta: float, L: int, lags: int) -> np.ndarray:
    """cov(k) = beta^2 log(L/(k+1)) for k+1 <= L, clipped to 0 beyond."""
    k = np.arange(lags + 1, dtype=float)
    cov = beta ** 2 * np.log(L / (k + 1.0))
    cov[k + 1.0 > L] = 0.0
    return np.maximum(cov, 0.0)


def gen_mrw(H: float, beta: float, L: int, n: int, rng: RngSpec) -> Signal:
    """Multifractal random walk: fGn increments modulated by exp of an
    independent log-correlated centered Gaussian field.

    With beta = 0 the field is identically zero and the path coincides with
    gen_fbm at the same RngSpec.  The log-cumulants are c1 = H + beta^2/2 and
    c2 = -beta^2.
    """
    if not 0.0 < H < 1.0:
        raise DataError("Hurst exponent must lie in (0, 1)")
    if beta < 0:
        raise DataError("beta must be >= 0")
    if L < n:
        raise DataError("integral scale L must be >= signal length n")
    gen_g = rng.generator(0)
    fgn = _sample_with_retries(lambda m: fgn_autocovariance(H, m), n, gen_g)
    if beta == 0.0:
        w = np.zeros(n)
    else:
        gen_w = rng.generator(1)
        w = _sample_with_retries(
            lambda m: mrw_log_field_autocovariance(beta, L, m), n, gen_w)
    return Signal(np.cumsum(fgn * np.exp(w)), t0=0.0, dt=1.0 / n,
                  label=f"mrw(H={H:g},beta={beta:g},L={L})")


def gen_cmc_motion(mu: float, J: int, rng: RngSpec,
                   sigma2: float | None = None) -> Signal:
    """Motion of the log-normal dyadic multiplicative cascade at depth J.

    Multipliers are W = 2^-U with U ~ N(mu, sigma2); mass conservation
    (E[W] = 1) fixes sigma2 = 2 mu / ln 2, which is the default.  The output
    is the cumulative integral of the cascade density on 2^J cells.
    """
    if mu <= 0 and (sigma2 is None or sigma2 > 0):
        raise DataError("mu must be > 0 (or pass sigma2 explicitly)")
    if J < 1:
        raise DataError("need J >= 1")
    if sigma2 is None:
        sigma2 = 2.0 * mu / math.log(2.0)
    if sigma2 < 0:
        raise DataError("sigma2 must be >= 0")
    gen = rng.generator(0)
    n = 1 << J
    log2_q = np.zeros(n)
    for level in range(1, J + 1):
        u = gen.normal(mu, math.sqrt(sigma2), size=1 << level)
        log2_q -= np.repeat(u, n >> level)
    q = np.exp2(log2_q)
    a = np.cumsum(q) / n
    return Signal(a, t0=0.0, dt=1.0 / n, label=f"cmc(mu={mu:g},J={J})")


def cpc_cone_mass(r_min: float, intensity: float = 1.0) -> float:
    """Expected Poisson point count in the cone of influence at full
    resolution: integral of (intensity/r^2) dt dr over the cone."""
    return intensity * math.log(1.0 / r_min)


def gen_cpc_motion(kind: str, T: float, r_min: float, n: int, rng: RngSpec,
                   mu: float | None = None, sigma2: float = 0.2,
                   w: float = 1.5, intensity: float = 1.0) -> Signal:
    """Compound Poisson cascade motion on [0, T], sampled at n points.

    Points (t_i, r_i) are Poisson with intensity (intensity/r^2) dt dr on
    [-1/2, T+1/2] x [r_min, 1]; each point multiplies the density by W_i over
    the cone |t - t_i| <= r_i/2.  kind 'ln' draws W = exp(N(mu, sigma2)) with
    mu defaulting to -sigma2/2 (E[W] = 1); kind 'lp' uses the constant w.
    The density is normalized to unit empirical mean before integration, so
    an empty point set yields exactly linear motion.
    """
    if kind not in ("ln", "lp"):
        raise DataError("cpc kind must be 'ln' or 'lp'")
    if not (0.0 < r_min <= 1.0):
        raise DataError("r_min must lie in (0, 1]")
    if T <= 0:
        raise DataError("T must be > 0")
    if n < 2:
        raise DataError("need n >= 2")
    gen = rng.generator(0)
    span = T + 1.0
    total_mass = intensity * span * (1.0 / r_min - 1.0)
    n_points = int(gen.poisson(total_mass))
    dt = T / n
    grid = dt * np.arange(n)
    bump = np.zeros(n + 1)
    if n_points > 0:
        t_pts = gen.uniform(-0.5, T + 0.5, size=n_points)
        u = gen.random(n_points)
        r_pts = 1.0 / (1.0 / r_min - u * (1.0 / r_min - 1.0))
        if kind == "ln":
            mu_eff = -sigma2 / 2.0 if mu is None else mu
            log_w = gen.normal(mu_eff, math.sqrt(sigma2), size=n_points)
        else:
            log_w = np.full(n_points, math.log(w))
        lo = np.searchsorted(grid, t_pts - r_pts / 2.0, side="left")
        hi = np.searchsorted(grid, t_pts + r_pts / 2.0, side="right")
        np.add.at(bump, np.clip(lo, 0, n), log_w)
        np.add.at(bump, np.clip(hi, 0, n), -log_w)
    log_q = np.cumsum(bump[:n])
    q = np.exp(log_q)
    q /= q.mean()
    a = np.cumsum(q) * dt
    return Signal(a, t0=0.0, dt=dt,
                  label=f"cpc-{kind}(T={T:g},rmin={r_min:g})")


def _gg_draws(beta: float, size: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.gamma(1.0 / beta, 1.0, size=size)
    mag = g ** (1.0 / beta)
    sign = np.where(gen.random(size) < 0.5, -1.0, 1.0)
    return mag * sign


def sample_gen_gaussian(beta: float, n: int, rng: RngSpec) -> np.ndarray:
    """i.i.d. draws from the generalized Gaussian density kappa e^-|x|^beta,
    via |X| = G^(1/beta) with G ~ Gamma(1/beta, 1) and a random sign."""
    if beta <= 0:
        raise DataError("beta must be > 0")
    if n < 1:
        raise DataError("need n >= 1")
    return _gg_draws(beta, n, rng.generator(0))


def gen_rws_pyramid(alpha: float, beta: float, basis: WaveletBasis, J: int,
                    rng: RngSpec) -> tuple[Signal, CoefficientPyramid]:
    """Random wavelet series and the coefficient pyramid planted into it.

    Coefficients at dyadic depth d = 0..J (2^d positions at depth d) are
    2^(-alpha d) X with X i.i.d. generalized Gaussian of shape beta; depth d
    maps to pyramid level J + 1 - d of the length-2^(J+1) output.  The
    coarsest approximation is left at zero.  Synthesis inverts the same
    periodic L1-normalized transform used for analysis, so a round trip
    through `dwt` returns the planted values.
    """
    if alpha <= 0 or beta <= 0:
        raise DataError("alpha and beta must be > 0")
    if J < 1:
        raise DataError("need J >= 1")
    gen = rng.generator(0)
    coeffs: dict[int, np.ndarray] = {}
    for depth in range(J + 1):
        x = _gg_draws(beta, 1 << depth, gen)
        coeffs[J + 1 - depth] = 2.0 ** (-alpha * depth) * x
    pyramid = CoefficientPyramid(coeffs=coeffs)
    samples = idwt(pyramid, basis)
    n = samples.size
    sig = Signal(samples, t0=0.0, dt=1.0 / n,
                 label=f"rws(alpha={alpha:g},beta={beta:g},J={J})")
    return sig, pyramid


def gen_rws(alpha: float, beta: float, basis: WaveletBasis, J: int,
            rng: RngSpec) -> Signal:
    return gen_rws_pyramid(alpha, beta, basis, J, rng)[0]


def generate(spec: ProcessSpec) -> Signal:
    """Dispatch a ProcessSpec to the matching generator."""
    kind = spec.kind
    p = dict(spec.params)
    if kind == "fbm":
        return gen_fbm(float(p.get("H", 0.7)), spec.n, spec.rng)
    if kind == "mrw":
        return gen_mrw(float(p.get("H", 0.6)), float(p.get("beta", 0.05)),
                       int(p.get("L", spec.n)), spec.n, spec.rng)
    if kind == "cmc":
        j = int(p.get("J", max(1, round(math.log2(spec.n)))))
        sig = gen_cmc_motion(float(p.get("mu", 0.37)), j, spec.rng,
                             sigma2=p.get("sigma2"))
        if len(sig) < spec.n:
            raise DataError(f"cascade depth J={j} yields only {len(sig)} samples")
        return Signal(sig.samples[: spec.n], t0=sig.t0, dt=sig.dt,
                      label=sig.label) if len(sig) > spec.n else sig
    if kind in ("cpc-ln", "cpc-lp"):
        return gen_cpc_motion(kind.split("-")[1], float(p.get("T", 100.0)),
                              float(p.get("rmin", 0.02)), spec.n, spec.rng,
                              mu=p.get("mu"), sigma2=float(p.get("sigma2", 0.2)),
                              w=float(p.get("w", 1.5)),
                              intensity=float(p.get("intensity", 1.0)))
    if kind == "rws":
        from .wavelet import daubechies_basis
        j = int(p.get("J", max(1, round(math.log2(spec.n)) - 1)))
        basis = daubechies_basis(int(p.get("nvanish", 3)))
        return gen_rws(float(p.get("alpha", 1.0)), float(p.get("ggbeta", 2.0)),
                       basis, j, spec.rng)
    raise DataError(f"unknown process kind {kind!r}")
