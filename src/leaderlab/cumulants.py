"""Log-cumulant regression machinery: per-scale cumulants of log-leaders,
per-realization least-squares estimates of (c1, c2), CLT and percentile
bootstrap confidence intervals, a Berry-Esseen diagnostic, and R^2-driven
scale-range selection.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .core import (DataError, RngSpec, _check_replicates, _linfit_rows,
                   check_level, check_rng, check_sample, require,
                   standard_normal_quantile, write_csv, write_json)
from .wavelet import CoefficientPyramid, LeaderPyramid, _level_sups

LN2 = math.log(2.0)

# scale-range candidates span 3 to 5 levels; leader cumulant fits start no
# finer than level 4 when the pyramid is deep enough
_MIN_WIDTH = 3
_MAX_WIDTH = 5
_CONE_FLOOR = 4


@dataclass
class EstimateWithCI:
    estimate: float
    stderr: float
    lower: float
    upper: float
    level: float
    method: str            # "clt" | "bootstrap_percentile"
    n_replicates: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def log_cumulants_per_scale(leaders: LeaderPyramid, j_range: tuple[int, int]
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pyramid levels inside `j_range`, in level order, with the mean and
    the variance (divisor n_j) of the log-leaders at each."""
    j1, j2 = int(j_range[0]), int(j_range[1])
    levels = np.array([j for j in leaders.levels if j1 <= j <= j2], dtype=int)
    if levels.size == 0:
        raise DataError(f"no pyramid levels inside [{j1}, {j2}]")
    mean, var = np.empty(levels.size), np.empty(levels.size)
    for i, j in enumerate(levels.tolist()):
        ell = leaders.clean_values(j)
        if ell.size == 0:
            raise DataError(f"no usable leaders at level {j}")
        if np.any(ell <= 0.0):
            raise DataError(f"nonpositive leader at level {j}; log undefined")
        logs = np.log(ell)
        if logs.size == 1:
            warnings.warn(f"single leader at level {j}: variance set to 0",
                          stacklevel=2)
        mean[i] = logs.mean()
        var[i] = np.mean((logs - mean[i]) ** 2)
    return levels, mean, var


def fit_cm(levels: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Intercept c0 and slope c_m of the least-squares line of the per-level
    cumulants `values` on log(scale_j) = j log 2, by the explicit normal
    equations (H^T H)^-1 H^T y with H = [1, log scale_j] rows."""
    if len(levels) < 2:
        raise DataError(f"need at least 2 scales, got {len(levels)}")
    x = np.asarray(levels, dtype=float) * LN2
    h = np.column_stack([np.ones_like(x), x])
    c0, cm = np.linalg.solve(h.T @ h, h.T @ np.asarray(values, dtype=float))
    return float(c0), float(cm)


@dataclass
class C1C2Estimate:
    """Joint result of the ensemble (c1, c2) estimation."""

    c1: EstimateWithCI
    c2: EstimateWithCI
    c2_mean_variant: float
    c1_samples: np.ndarray
    c2_samples: np.ndarray
    j_range: tuple[int, int]
    n_realizations: int


def _c2_statistic(c2_samples: np.ndarray) -> float:
    """The ensemble c2: the sum of the N per-realization values over N - 1."""
    return c2_samples.sum() / (c2_samples.size - 1)


def estimate_c1_c2(realizations: list[LeaderPyramid], j_range: tuple[int, int],
                   alpha: float = 0.05) -> C1C2Estimate:
    """Ensemble estimate of (c1, c2) with CLT confidence intervals.

    Each realization contributes one per-realization least-squares pair; c1
    is their mean, c2 uses the 1/(N-1) prefactor over the plain sum (the
    ordinary mean is reported in `c2_mean_variant`).  Intervals are
    estimate +/- z_(alpha/2) stderr/sqrt(N) with the sample standard
    deviation (ddof=1); the normal approximation is standard for N >= 30.
    """
    check_level("alpha", alpha)
    n_real = len(realizations)
    if n_real < 2:
        raise DataError("need at least 2 realizations")
    if n_real < 30:
        warnings.warn(f"N={n_real} < 30: CLT interval coverage is approximate",
                      stacklevel=2)
    c1s = np.empty(n_real)
    c2s = np.empty(n_real)
    for i, leaders in enumerate(realizations):
        levels, mean, var = log_cumulants_per_scale(leaders, j_range)
        c1s[i] = fit_cm(levels, mean)[1]
        c2s[i] = fit_cm(levels, var)[1]
    z = standard_normal_quantile(1.0 - alpha / 2.0)

    def clt(estimate: float, samples: np.ndarray) -> EstimateWithCI:
        se = float(samples.std(ddof=1))
        half = z * se / math.sqrt(n_real)
        return EstimateWithCI(estimate, se, estimate - half, estimate + half,
                              1.0 - alpha, "clt", n_real)

    c1 = clt(float(c1s.mean()), c1s)
    c2 = clt(float(_c2_statistic(c2s)), c2s)
    return C1C2Estimate(c1=c1, c2=c2, c2_mean_variant=float(c2s.mean()),
                        c1_samples=c1s, c2_samples=c2s,
                        j_range=(int(j_range[0]), int(j_range[1])),
                        n_realizations=n_real)


def berry_esseen_bound(c1_samples, c2_hat: float) -> float:
    """Upper bound on the CLT approximation error of the c1 interval:
    0.46 sum |c1_i - mean|^3 / (c2^(3/2) N^(3/2))."""
    samples = check_sample(c1_samples, 1)
    require(c2_hat > 0, "c2_hat", "be > 0", c2_hat)
    n = samples.size
    third = float(np.sum(np.abs(samples - samples.mean()) ** 3))
    return 0.46 * third / (c2_hat ** 1.5 * n ** 1.5)


def bootstrap_percentile(samples, statistic, B: int = 100, level: float = 0.95,
                         rng: RngSpec | None = None) -> EstimateWithCI:
    """Percentile bootstrap interval [theta_(alpha/2), theta_(1-alpha/2)]
    from B resamples with replacement."""
    samples = check_sample(samples, 1)
    _check_replicates(B)
    check_rng("rng", rng, "the bootstrap")
    check_level("level", level)
    gen = rng.generator(0)
    n = samples.size
    reps = np.empty(B)
    for b in range(B):
        reps[b] = statistic(samples[gen.integers(0, n, size=n)])
    alpha = 1.0 - level
    lower, upper = np.quantile(reps, [alpha / 2.0, 1.0 - alpha / 2.0])
    stderr = float(reps.std(ddof=1)) if B > 1 else 0.0
    return EstimateWithCI(float(statistic(samples)), stderr,
                          float(lower), float(upper), level,
                          "bootstrap_percentile", B)


def estimation_scale_candidates(j_max: int) -> list[tuple[int, int]]:
    """Candidate ranges for leader cumulant fits.

    Leaders at level j aggregate a cone of only j levels, and the log-mean
    slope is still in its truncation transient below roughly four levels, so
    candidates start no finer than level 4 whenever the pyramid is deep
    enough to afford it.  The list is empty below j_max = 4.
    """
    floor = max(1, min(_CONE_FLOOR, j_max - _MIN_WIDTH))
    return [(j1, j1 + width) for j1 in range(floor, j_max + 1)
            for width in range(_MIN_WIDTH, _MAX_WIDTH + 1)
            if j1 + width <= j_max]


def select_scale_range(pyramids: list[CoefficientPyramid],
                       candidates: list[tuple[int, int]]) -> tuple[int, int]:
    """Most frequent best-R^2 scale range across realizations.

    Per realization the candidate maximizing the R^2 of the sup-coefficient
    log-log regression wins; the modal winner is returned, ties broken
    toward the widest range, then toward the coarsest starting level.
    """
    require(len(candidates) > 0, "candidates", "be non-empty", candidates)
    for j1, j2 in candidates:
        require(j2 - j1 >= 2, "candidates", "each span at least 3 scales",
                (j1, j2))
    best, _ = _scale_winners(pyramids, candidates)
    votes = Counter(candidates[c] for c in best.tolist() if c >= 0)
    if not votes:
        raise DataError("no candidate scale range is usable on any realization")
    return max(votes, key=lambda c: (votes[c], c[1] - c[0], c[0]))


def _scale_winners(pyramids: list[CoefficientPyramid],
                   candidates: list[tuple[int, int]]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per realization, the first candidate of highest `hmin_regression`
    R^2 (-1 where none fits) and that R^2, bit for bit; realizations with
    the same levels share one `_linfit_rows` call per candidate."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, pyr in enumerate(pyramids):
        groups.setdefault(tuple(pyr.levels), []).append(i)
    best = np.full(len(pyramids), -1)
    best_r2 = np.full(len(pyramids), -np.inf)
    for levels, rows in groups.items():
        rows, x = np.array(rows), np.array(levels, dtype=float)
        sups = np.stack([_level_sups(pyramids[i]) for i in rows])
        refused = sups == 0.0
        logs = np.log2(np.where(refused, 1.0, sups))
        for ci, (j1, j2) in enumerate(candidates):
            use = np.flatnonzero((x >= j1) & (x <= j2))
            if use.size < 2:
                continue
            fits = ~refused[:, use].any(axis=1)
            r2 = np.full(rows.size, np.nan)
            r2[fits] = _linfit_rows(x[use], logs[fits][:, use])[2]
            wins = r2 > best_r2[rows]
            best[rows[wins]], best_r2[rows[wins]] = ci, r2[wins]
    return best, best_r2


def write_estimation_outputs(result: C1C2Estimate, out_json, out_csv,
                             seed: RngSpec | None = None,
                             extra: dict | None = None) -> list[str]:
    """Write the JSON report plus a CSV with LB/UB/width columns."""
    doc = {"c1": asdict(result.c1), "c2": asdict(result.c2),
           "c2_mean_variant": result.c2_mean_variant,
           "j_range": list(result.j_range), "N": result.n_realizations}
    if seed is not None:
        doc["seed"] = seed.to_dict()
    if extra:
        doc.update(extra)
    rows = [(name, est.method, est.estimate, est.stderr, est.lower, est.upper,
             est.width) for name, est in (("c1", result.c1), ("c2", result.c2))]
    return [write_json(out_json, doc),
            write_csv(out_csv, ["param", "method", "estimate", "stderr", "LB",
                                "UB", "UB-LB"], rows)]
