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

import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import NonConvergenceError, RngSpec, Signal, check_count, require
from .wavelet import (DAUBECHIES_FILTERS, CoefficientPyramid, WaveletBasis,
                      daubechies_basis, idwt)

# so that synthesis cannot exhaust memory, a realization (and a cascade or
# wavelet series before truncation) holds at most 2^24 samples, and a
# compound Poisson cascade expects at most 10^6 points (about 50 bytes each).
# A parameter is refused under its `ProcessSpec.params` key (r_min as rmin,
# the rws shape as ggbeta).
_MAX_LOG2_N = 24
_MAX_CPC_POINTS = 1e6


def check_draw_count(n) -> None:
    """Refuse n i.i.d. draws, held at once, outside [1, 2^24]."""
    check_count("n", n)
    require(n <= 1 << _MAX_LOG2_N, "n", f"be at most 2^{_MAX_LOG2_N}", n)


def check_shape(beta) -> None:
    """Refuse a generalized Gaussian shape beta that is not finite and > 0
    (NaN fails); at inf the normalizing constant is NaN."""
    require(0 < beta < math.inf, "beta", "be finite and > 0", beta)


@dataclass(frozen=True)
class GenGaussianParams:
    """Shape and normalizing constant of the generalized Gaussian density
    kappa_beta * exp(-|x|^beta); Laplace at beta=1, N(0, 1/2) at beta=2."""

    beta: float
    kappa: float = field(init=False)

    def __post_init__(self):
        from scipy.special import gammaln   # kept off `import leaderlab`
        check_shape(self.beta)
        log_gamma = gammaln(1.0 / self.beta)
        try:
            kappa = self.beta / (2.0 * math.exp(log_gamma))
        except OverflowError:
            # Gamma(1/beta) passes the float range below beta ~ 0.0058,
            # where kappa is below 1e-308: taken in log form, it may be 0
            kappa = math.exp(math.log(self.beta / 2.0) - log_gamma)
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


@functools.lru_cache(maxsize=4)
def _circulant_sqrt_eig(kind: str, params: tuple, n: int) -> np.ndarray:
    """sqrt of the eigenvalues of the circulant embedding of the `kind`
    autocovariance ("fgn": params (H,); "mrw": (beta, L)) over lags 0..m,
    with m = n doubled until it is nonnegative definite.  It does not depend
    on the stream: cached and read-only; an MRW parameter set takes two."""
    for doublings in range(4):
        m = n << doublings
        acov = (fgn_autocovariance(*params, m) if kind == "fgn"
                else mrw_log_field_autocovariance(*params, m))
        eig = np.fft.fft(np.concatenate([acov, acov[-2:0:-1]])).real
        if not eig.min() < -1e-8 * max(eig.max(), 1.0):
            sqrt_eig = np.sqrt(np.clip(eig, 0.0, None))
            sqrt_eig.setflags(write=False)
            return sqrt_eig
    raise NonConvergenceError("circulant embedding still indefinite after "
                              f"3 doublings (final size {m})")


def _circulant_fill(z: np.ndarray, sqrt_eig: np.ndarray,
                    gen: np.random.Generator) -> None:
    """Draw a circulant embedding sample (Wood & Chan 1994) into z, a
    complex buffer of sqrt_eig's size 2m, and inverse-transform it in
    place.  The stream fills z[0], z[m], then the real and imaginary parts
    of z[1:m]; z[m+1:] is their conjugate mirror.  It allocates nothing the
    size of the transform, so a worker thread that runs it leaves no large
    block in its own malloc arena."""
    two_m = sqrt_eig.size
    m = two_m // 2
    zf = z.view(np.float64).reshape(two_m, 2)
    zf[0] = gen.standard_normal(), 0.0
    zf[m] = gen.standard_normal(), 0.0
    # numpy divides complex by real as (a + b*0) * (1/s): the same bits
    gen.standard_normal(out=zf[1:m])
    zf[1:m] *= 1.0 / math.sqrt(2.0)
    zf[m + 1:] = zf[m - 1:0:-1]
    np.negative(zf[m + 1:, 1], out=zf[m + 1:, 1])
    z *= sqrt_eig
    np.fft.ifft(z, out=z)


def _circulant_sample(z: np.ndarray, n: int) -> np.ndarray:
    """The exact stationary Gaussian sample of length n in a buffer that
    `_circulant_fill` has filled."""
    return math.sqrt(z.size) * z.real[:n]


def _circulant_draw(sqrt_eig: np.ndarray, n: int,
                    gen: np.random.Generator) -> np.ndarray:
    z = np.empty(sqrt_eig.size, dtype=complex)
    _circulant_fill(z, sqrt_eig, gen)
    return _circulant_sample(z, n)


@functools.lru_cache(maxsize=1)
def _log_field_worker():
    """The one thread that draws MRW log fields, started on the first draw
    and kept for the process."""
    from concurrent.futures import ThreadPoolExecutor  # off the import path
    return ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="leaderlab-synth")


if hasattr(os, "register_at_fork"):
    # a forked child has no copy of the parent's thread: it starts its own
    os.register_at_fork(after_in_child=_log_field_worker.cache_clear)


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
    require(0.0 < H < 1.0, "H", "lie strictly inside (0, 1)", H)
    require(n >= 2, "n", "be >= 2", n)
    fgn = _circulant_draw(_circulant_sqrt_eig("fgn", (float(H),), n), n,
                          rng.generator(0))
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

    The log-cumulants are c1 = H + beta^2/2 and c2 = -beta^2.  The log
    field is drawn on one worker thread, started on the first draw and kept
    for the process (a forked child starts its own), while the caller draws
    the fGn; each reads its own substream, so the samples are the bits of
    drawing them one after the other.  At beta = 0 the field is exactly 0,
    and the path is gen_fbm's at the same RngSpec.
    """
    require(0.0 < H < 1.0, "H", "lie strictly inside (0, 1)", H)
    require(beta >= 0 and math.isfinite(beta * beta), "beta",
            "be >= 0 and finite, with a finite square", beta)
    require(n >= 2, "n", "be >= 2", n)
    require(n <= L <= sys.float_info.max, "L", "lie in [n, largest float]", L)
    # both spectra are looked up here, fGn first; pocketfft releases the
    # GIL, so the field's transform overlaps the fGn's draw
    fgn_eig = _circulant_sqrt_eig("fgn", (float(H),), n)
    w_eig = _circulant_sqrt_eig("mrw", (float(beta), L), n)
    zw = np.empty(w_eig.size, dtype=complex)
    drawn = _log_field_worker().submit(_circulant_fill, zw, w_eig,
                                       rng.generator(1))
    try:
        fgn = _circulant_draw(fgn_eig, n, rng.generator(0))
    finally:
        drawn.result()
    w = _circulant_sample(zw, n)
    # an overflowing path is rejected below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        path = np.cumsum(fgn * np.exp(w))
    # a cumulative sum is finite everywhere iff its last value is
    require(math.isfinite(path[-1]), "beta", "keep the path finite", beta)
    return Signal(path, t0=0.0, dt=1.0 / n,
                  label=f"mrw(H={H:g},beta={beta:g},L={L})")


def gen_cmc_motion(mu: float, J: int, rng: RngSpec,
                   sigma2: float | None = None) -> Signal:
    """Motion of the log-normal dyadic multiplicative cascade at depth J.

    Multipliers are W = 2^-U with U ~ N(mu, sigma2); mass conservation
    (E[W] = 1) fixes sigma2 = 2 mu / ln 2, which is the default.  The output
    is the cumulative integral of the cascade density on 2^J cells.
    """
    require(math.isfinite(mu) and (mu > 0 or sigma2 == 0), "mu",
            "be finite, and > 0 unless sigma2 = 0 is passed", mu)
    require(1 <= J <= _MAX_LOG2_N, "J", f"lie in [1, {_MAX_LOG2_N}]", J)
    if sigma2 is None:
        sigma2 = 2.0 * mu / math.log(2.0)
    require(0 <= sigma2 < math.inf, "sigma2", "be finite and >= 0", sigma2)
    gen = rng.generator(0)
    n = 1 << J
    log2_q = np.zeros(n)
    for level in range(1, J + 1):
        u = gen.normal(mu, math.sqrt(sigma2), size=1 << level)
        log2_q -= np.repeat(u, n >> level)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.cumsum(np.exp2(log2_q)) / n
    require(math.isfinite(a[-1]), "sigma2", "keep the path finite", sigma2)
    return Signal(a, t0=0.0, dt=1.0 / n, label=f"cmc(mu={mu:g},J={J})")


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
    require(kind in ("ln", "lp"), "kind", "be 'ln' or 'lp'", kind)
    require(n >= 2, "n", "be >= 2", n)
    require(0.0 < r_min <= 1.0, "rmin", "lie in (0, 1]", r_min)
    require(math.isfinite(T) and T / n > 0, "T", "be finite and > 0", T)
    require(0 <= intensity < math.inf, "intensity", "be finite and >= 0",
            intensity)
    if kind == "ln":
        require(0 <= sigma2 < math.inf, "sigma2", "be finite and >= 0",
                sigma2)
        require(mu is None or math.isfinite(mu), "mu", "be finite", mu)
    else:
        require(0 < w < math.inf, "w", "be finite and > 0", w)
    span = T + 1.0
    total_mass = intensity * span * (1.0 / r_min - 1.0)
    # the largest of the three factors takes the blame
    _, name, value = max((span, "T", T), (1.0 / r_min - 1.0, "rmin", r_min),
                         (intensity, "intensity", intensity))
    require(total_mass <= _MAX_CPC_POINTS, name,
            "keep the expected point count intensity * (T + 1) * "
            f"(1/rmin - 1) at most {_MAX_CPC_POINTS:g}", value)
    gen = rng.generator(0)
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
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.exp(np.cumsum(bump[:n]))
        a = np.cumsum(q / q.mean()) * dt
    name, value = ("sigma2", sigma2) if kind == "ln" else ("w", w)
    require(math.isfinite(a[-1]), name, "keep the path finite", value)
    return Signal(a, t0=0.0, dt=dt,
                  label=f"cpc-{kind}(T={T:g},rmin={r_min:g})")


def _gg_draws(beta: float, size: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.gamma(1.0 / beta, 1.0, size=size)
    with np.errstate(over="ignore"):   # inf past the float range
        mag = g ** (1.0 / beta)
    sign = np.where(gen.random(size) < 0.5, -1.0, 1.0)
    return mag * sign


def sample_gen_gaussian(beta: float, n: int, rng: RngSpec) -> np.ndarray:
    """i.i.d. draws from the generalized Gaussian density kappa e^-|x|^beta,
    via |X| = G^(1/beta) with G ~ Gamma(1/beta, 1) and a random sign."""
    check_shape(beta)
    check_draw_count(n)
    x = _gg_draws(beta, n, rng.generator(0))
    require(np.isfinite(x).all(), "beta", "keep the draws finite", beta)
    return x


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
    require(0 < alpha < math.inf, "alpha", "be finite and > 0", alpha)
    require(0 < beta < math.inf, "ggbeta", "be finite and > 0", beta)
    require(1 <= J < _MAX_LOG2_N, "J", f"lie in [1, {_MAX_LOG2_N - 1}]", J)
    gen = rng.generator(0)
    coeffs: dict[int, np.ndarray] = {}
    # an inf draw leaves a path that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for depth in range(J + 1):
            x = _gg_draws(beta, 1 << depth, gen)
            coeffs[J + 1 - depth] = 2.0 ** (-alpha * depth) * x
        pyramid = CoefficientPyramid(coeffs=coeffs)
        samples = idwt(pyramid, basis)
    require(np.isfinite(samples).all(), "ggbeta", "keep the path finite", beta)
    n = samples.size
    sig = Signal(samples, t0=0.0, dt=1.0 / n,
                 label=f"rws(alpha={alpha:g},beta={beta:g},J={J})")
    return sig, pyramid


def gen_rws(alpha: float, beta: float, basis: WaveletBasis, J: int,
            rng: RngSpec) -> Signal:
    return gen_rws_pyramid(alpha, beta, basis, J, rng)[0]


def generate(spec: ProcessSpec) -> Signal:
    """Dispatch a ProcessSpec to the matching generator; the realization
    has exactly `spec.n` samples, 2 to 2^24 of them.  A cmc of depth J has
    2^J samples and an rws 2^(J+1); J defaults to the smallest depth that
    covers n."""
    kind, n, p = spec.kind, spec.n, spec.params
    require(2 <= n <= 1 << _MAX_LOG2_N, "n",
            f"lie in [2, 2^{_MAX_LOG2_N}] for {kind}", n)
    if kind in ("fbm", "mrw"):
        require("H" in p, "H", f"be given for {kind}", None)
    if kind == "fbm":
        return gen_fbm(float(p["H"]), n, spec.rng)
    if kind == "mrw":
        return gen_mrw(float(p["H"]), float(p.get("beta", 0.05)),
                       int(p.get("L", n)), n, spec.rng)
    if kind in ("cpc-ln", "cpc-lp"):
        optional = {k: p[k] for k in ("mu", "sigma2", "w", "intensity")
                    if k in p}
        return gen_cpc_motion(kind.split("-")[1], float(p.get("T", 100.0)),
                              float(p.get("rmin", 0.02)), n, spec.rng,
                              **optional)
    require(kind in ("cmc", "rws"), "kind",
            "be fbm, mrw, cpc-ln, cpc-lp, cmc or rws", kind)
    # ceil(log2 n) levels cover n; rws gains one from its depth-0 level
    depth = max(1, (int(n) - 1).bit_length() - (kind == "rws"))
    j = int(p.get("J", depth))
    require(j >= depth, "J", f"be >= {depth} to cover n = {n} samples", j)
    if kind == "cmc":
        sig = gen_cmc_motion(float(p.get("mu", 0.37)), j, spec.rng,
                             sigma2=p.get("sigma2"))
    else:
        nvanish = int(p.get("nvanish", 3))
        require(nvanish in DAUBECHIES_FILTERS, "nvanish",
                f"lie in [1, {max(DAUBECHIES_FILTERS)}]", nvanish)
        sig = gen_rws(float(p.get("alpha", 1.0)), float(p.get("ggbeta", 2.0)),
                      daubechies_basis(nvanish), j, spec.rng)
    if len(sig) == n:
        return sig
    return Signal(sig.samples[:n], t0=sig.t0, dt=sig.dt, label=sig.label)
