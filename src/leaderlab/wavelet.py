"""Discrete wavelet machinery: Daubechies filter banks, leader pyramids,
structure functions, scaling functions, Legendre spectra.

Scale convention used throughout the package: pyramids are keyed by the
dyadic level j = 1 (finest) .. j_max (coarsest); level j corresponds to the
physical scale 2^j sample steps, and arrays halve in length as j grows.
All log-log regressions run against log(scale_j), so slopes are reported
with the orientation scale^h (h_min, zeta(q), c_m all come out positive for
persistent signals).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (DataError, RegressionFit, Signal, _linfit_rows, linfit,
                   require, write_csv)

# Daubechies scaling filters, N = 1..10 vanishing moments, generated offline
# by spectral factorization of the binomial half-band polynomial at 60-digit
# working precision and rounded to double.  Ordering: h[0] multiplies the
# current sample, h[L-1] the most delayed one; sum h = sqrt(2).
DAUBECHIES_FILTERS: dict[int, tuple[float, ...]] = {
    1: (0.7071067811865475244008,
        0.7071067811865475244008),
    2: (0.4829629131445341433749,
        0.8365163037378079055753,
        0.2241438680420133810260,
        -0.1294095225512603811744),
    3: (0.3326705529500826159985,
        0.8068915093110925764945,
        0.4598775021184915700952,
        -0.1350110200102545886964,
        -0.08544127388202666169282,
        0.03522629188570953660274),
    4: (0.2303778133088965008633,
        0.7148465705529156470899,
        0.6308807679298589078817,
        -0.02798376941685985421141,
        -0.1870348117190930840796,
        0.03084138183556076362722,
        0.03288301166688519973541,
        -0.01059740178506903210488),
    5: (0.1601023979741929144807,
        0.6038292697971896705401,
        0.7243085284377729277281,
        0.1384281459013207315054,
        -0.2422948870663820318626,
        -0.03224486958463837464848,
        0.07757149384004571352313,
        -0.006241490212798274274191,
        -0.01258075199908199946851,
        0.003335725285473771277998),
    6: (0.1115407433501094636213,
        0.4946238903984530856772,
        0.7511339080210953506789,
        0.3152503517091976290860,
        -0.2262646939654398200763,
        -0.1297668675672619355623,
        0.09750160558732304910234,
        0.02752286553030572862554,
        -0.03158203931748602956508,
        0.0005538422011614961392519,
        0.004777257510945510639636,
        -0.001077301085308479564853),
    7: (0.07785205408500917901996,
        0.3965393194819173065390,
        0.7291320908462351199169,
        0.4697822874051931224716,
        -0.1439060039285649754051,
        -0.2240361849938749826381,
        0.07130921926683026475088,
        0.08061260915108307191292,
        -0.03802993693501441357959,
        -0.01657454163066688065411,
        0.01255099855609984061299,
        0.0004295779729213665211321,
        -0.001801640704047490915268,
        0.0003537137999745202484463),
    8: (0.05441584224310400995501,
        0.3128715909142999706592,
        0.6756307362972898068078,
        0.5853546836542067127713,
        -0.01582910525634930566738,
        -0.2840155429615469265162,
        0.0004724845739132827703606,
        0.1287474266204784588570,
        -0.01736930100180754616962,
        -0.04408825393079475150676,
        0.01398102791739828164872,
        0.008746094047405776716383,
        -0.004870352993451574310422,
        -0.0003917403733769470462981,
        0.0006754494064505693663695,
        -0.0001174767841247695337306),
    9: (0.03807794736387834658870,
        0.2438346746125903537320,
        0.6048231236901111119031,
        0.6572880780513005380782,
        0.1331973858250075761910,
        -0.2932737832791749088064,
        -0.09684078322297646051351,
        0.1485407493381063801351,
        0.03072568147933337921232,
        -0.06763282906132997367564,
        0.0002509471148314519575872,
        0.02236166212367909720537,
        -0.004723204757751397277926,
        -0.004281503682463429834497,
        0.001847646883056226476619,
        0.0002303857635231959672052,
        -0.0002519631889427101369750,
        0.00003934732031627159948069),
    10: (0.02667005790055555358662,
         0.1881768000776914890209,
         0.5272011889317255864817,
         0.6884590394536035657419,
         0.2811723436605774607487,
         -0.2498464243273153794161,
         -0.1959462743773770435043,
         0.1273693403357932600827,
         0.09305736460357235116035,
         -0.07139414716639708714534,
         -0.02945753682187581285828,
         0.03321267405934100173976,
         0.003606553566956169655423,
         -0.01073317548333057504432,
         0.001395351747052901165789,
         0.001992405295185056117159,
         -0.0006858566949597116265614,
         -0.0001164668551292854509515,
         0.00009358867032006959133405,
         -0.00001326420289452124481244),
}


# WaveletBasis.validate's tolerances (the moment one is relative)
_TOL_QMF = 1e-12
_TOL_MOMENTS = 1e-10


@dataclass
class WaveletBasis:
    """Orthonormal Daubechies analysis filter pair with N vanishing moments."""

    n_vanishing: int
    filter_lo: np.ndarray
    filter_hi: np.ndarray

    @property
    def length(self) -> int:
        return self.filter_lo.size

    @property
    def name(self) -> str:
        return f"db{self.n_vanishing}"

    def validate(self) -> None:
        """Check the orthonormal quadrature-mirror relations and moments.

        Moment sums are checked relative to sum(|m^p hi|), which is the
        resolution attainable in double precision for large N.
        """
        lo, hi = self.filter_lo, self.filter_hi
        if abs(lo.sum() - math.sqrt(2.0)) > _TOL_QMF:
            raise DataError("lowpass filter does not sum to sqrt(2)")
        L = lo.size
        for r in range(L // 2):
            acc = float(np.dot(lo[: L - 2 * r], lo[2 * r:]))
            target = 1.0 if r == 0 else 0.0
            if abs(acc - target) > _TOL_QMF:
                raise DataError(f"lowpass autocorrelation fails at lag {2 * r}")
            cross = float(np.dot(lo[: L - 2 * r], hi[2 * r:]))
            cross2 = float(np.dot(hi[: L - 2 * r], lo[2 * r:]))
            if max(abs(cross), abs(cross2)) > _TOL_QMF:
                raise DataError(f"lo/hi orthogonality fails at lag {2 * r}")
        m = np.arange(L, dtype=float)
        for p in range(self.n_vanishing):
            num = abs(float(np.sum(m ** p * hi)))
            scale = max(float(np.sum(m ** p * np.abs(hi))), 1.0)
            if num > _TOL_MOMENTS * scale:
                raise DataError(f"moment {p} of highpass filter does not vanish")


def daubechies_basis(n_vanishing: int) -> WaveletBasis:
    require(n_vanishing in DAUBECHIES_FILTERS, "n_vanishing",
            f"lie in 1..{max(DAUBECHIES_FILTERS)}", n_vanishing)
    lo = np.array(DAUBECHIES_FILTERS[n_vanishing], dtype=float)
    # quadrature mirror: hi[m] = (-1)^m lo[L-1-m]
    signs = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0)
    hi = signs * lo[::-1]
    basis = WaveletBasis(int(n_vanishing), lo, hi)
    basis.validate()
    return basis


def basis_from_name(name: str) -> WaveletBasis:
    """The Daubechies basis named dbN (any case), N in 1..10."""
    key = name.strip().lower()
    order = key[2:].lstrip("0")
    require(key[:2] == "db" and order in map(str, DAUBECHIES_FILTERS),
            "wavelet", f"be dbN with N in 1..{max(DAUBECHIES_FILTERS)}", name)
    return daubechies_basis(int(order))


class _Pyramid:
    """Per-level arrays with one clean slice per level, `clean[j]`: the
    positions whose dependency cone avoided the periodic wrap point.  The
    other positions stay in the arrays, so the dyadic halving stays exact,
    but sup- and moment-statistics skip them.  `clean` defaults to every
    position."""

    def __post_init__(self):
        if not self.clean:
            self.clean = {j: slice(0, a.size) for j, a in self._arrays.items()}

    @property
    def levels(self) -> list[int]:
        return sorted(self._arrays)

    def n_at(self, j: int) -> int:
        return self._arrays[j].size

    def valid_at(self, j: int) -> np.ndarray:
        """`clean[j]` as a bool mask over level j."""
        mask = np.zeros(self.n_at(j), dtype=bool)
        mask[self.clean[j]] = True
        return mask

    def clean_values(self, j: int) -> np.ndarray:
        return self._arrays[j][self.clean[j]]


@dataclass
class CoefficientPyramid(_Pyramid):
    """Detail coefficients per level, L1-normalized, periodic boundary."""

    coeffs: dict[int, np.ndarray]
    clean: dict[int, slice] = field(default_factory=dict)

    @property
    def _arrays(self) -> dict[int, np.ndarray]:
        return self.coeffs


@dataclass
class LeaderPyramid(_Pyramid):
    """Wavelet leaders per level, the supremum running down to the finest
    level of the source pyramid.

    variant 'one_leader' restricts the supremum to the cube itself,
    'three_leader' extends it over the two same-level neighbours (periodic
    wrap at the edges).
    """

    leaders: dict[int, np.ndarray]
    variant: str
    clean: dict[int, slice] = field(default_factory=dict)

    @property
    def _arrays(self) -> dict[int, np.ndarray]:
        return self.leaders


def _run(lo: int, hi: int) -> slice:
    """The slice [lo, hi), or slice(0, 0) once hi <= lo."""
    return slice(lo, hi) if hi > lo else slice(0, 0)


def fits_levels(n: int, basis: WaveletBasis, j_max: int) -> bool:
    """Whether n samples, truncated to a multiple of 2^j_max, leave at least
    one filter length of coefficients at level j_max."""
    return n >> j_max >= basis.length


def dwt(signal: Signal, basis: WaveletBasis, j_max: int) -> CoefficientPyramid:
    """Periodic orthonormal DWT rescaled to the L1 coefficient convention.

    Level-j details of the orthonormal transform are multiplied by 2^(-j/2),
    so that coefficient magnitudes scale like (2^j)^h for local regularity h.
    """
    require(j_max >= 1, "j_max", "be >= 1", j_max)
    n = len(signal)
    if n % (1 << j_max) != 0:
        raise DataError(
            f"signal length {n} is not divisible by 2^{j_max}; truncate first")
    if not fits_levels(n, basis, j_max):
        raise DataError(
            f"signal too short for {j_max} levels of {basis.name}: "
            f"need at least {(1 << j_max) * basis.length} samples, have {n}")
    lo, hi, filt_len = basis.filter_lo, basis.filter_hi, basis.length
    coeffs: dict[int, np.ndarray] = {}
    clean: dict[int, slice] = {}
    approx = signal.samples
    n_clean = n
    for j in range(1, j_max + 1):
        half = approx.size // 2
        # tap m reads every other sample of the input, wrapped at its end,
        # from m on: a contiguous slice of the even or the odd phase
        phases = [np.concatenate((approx[p::2], approx[p:filt_len - 1:2]))
                  for p in (0, 1)]
        detail = np.zeros(half)
        approx = np.zeros(half)
        prod = np.empty(half)
        for m in range(filt_len):
            window = phases[m % 2][m // 2:m // 2 + half]
            detail += np.multiply(hi[m], window, out=prod)
            approx += np.multiply(lo[m], window, out=prod)
        # coefficient k is clean iff its footprint
        # [2^j k, 2^j k + (2^j - 1)(L - 1)] lies in [0, n): a prefix of k
        n_clean = max((n_clean - filt_len) // 2 + 1, 0)
        coeffs[j] = np.multiply(detail, 2.0 ** (-j / 2.0), out=detail)
        clean[j] = slice(0, n_clean)
    return CoefficientPyramid(coeffs=coeffs, clean=clean)


def idwt(pyramid: CoefficientPyramid, basis: WaveletBasis,
         approx: np.ndarray | None = None) -> np.ndarray:
    """Invert `dwt`; `approx` is the coarsest approximation (default zeros)."""
    levels = pyramid.levels
    if not levels:
        raise DataError("empty pyramid")
    _validate_halving(pyramid.coeffs)
    top = levels[-1]
    if approx is None:
        approx = np.zeros(pyramid.n_at(top))
    approx = np.asarray(approx, dtype=float)
    if approx.size != pyramid.n_at(top):
        raise DataError("approximation length does not match the coarsest level")
    lo, hi = basis.filter_lo, basis.filter_hi
    p = (basis.length - 1) // 2
    out = approx
    for j in reversed(levels):
        h = out.size
        # p leading samples by wrap indexing, so levels shorter than the
        # filter work too; tap m reads input k - m // 2 into out[2k + m % 2]
        wrap = np.arange(-p, h) % h
        ea = out[wrap]
        ed = (pyramid.coeffs[j] * 2.0 ** (j / 2.0))[wrap]
        out = np.zeros(2 * h)
        for m in range(basis.length):
            s = p - m // 2
            out[m % 2::2] += lo[m] * ea[s:s + h]
            out[m % 2::2] += hi[m] * ed[s:s + h]
    return out


def _validate_halving(arrays: dict[int, np.ndarray]) -> None:
    levels = sorted(arrays)
    for a, b in zip(levels, levels[1:]):
        if b != a + 1 or arrays[a].size != 2 * arrays[b].size:
            raise DataError(
                "pyramid levels must be consecutive with exact halving")


def compute_leaders(pyramid: CoefficientPyramid,
                    variant: str = "three_leader") -> LeaderPyramid:
    """Leaders from a coefficient pyramid, bottom-up in O(total coefficients).

    one_leader at level j is the running max of |c| over the level-j cube and
    all finer cubes inside it; three_leader additionally takes the max over
    the two same-level neighbours with periodic wrap.
    """
    require(variant in ("one_leader", "three_leader"), "variant",
            "be one_leader or three_leader", variant)
    if not pyramid.coeffs:
        raise DataError("empty pyramid")
    _validate_halving(pyramid.coeffs)
    levels = pyramid.levels
    leaders: dict[int, np.ndarray] = {}
    clean: dict[int, slice] = {}
    sv = None
    for j in levels:
        mag = np.abs(pyramid.coeffs[j])
        coef = pyramid.clean[j]
        if sv is None:
            sv = mag
            lo, hi = coef.start, coef.stop
        else:
            sv = np.maximum(mag, np.maximum(sv[0::2], sv[1::2]), out=mag)
            # the coefficient and both finer cubes, 2k and 2k + 1, are clean
            lo, hi = max(coef.start, -(-lo // 2)), min(coef.stop, hi // 2)
        if variant == "one_leader":
            leaders[j] = sv
            clean[j] = _run(lo, hi)
        else:
            # both neighbours as slices of the level wrapped by one cube
            ext = np.concatenate((sv[-1:], sv, sv[:1]))
            leaders[j] = np.maximum(ext[:-2], ext[1:-1])
            np.maximum(leaders[j], ext[2:], out=leaders[j])
            # both neighbours clean: the run shrinks by one at each end,
            # unless it is the whole level and the wrap reads clean cubes
            clean[j] = (slice(lo, hi) if lo == 0 and hi == sv.size
                        else _run(lo + 1, hi - 1))
    return LeaderPyramid(leaders=leaders, variant=variant, clean=clean)


@dataclass
class StructureFunctionTable:
    """Empirical moments S(j, q) of the leaders at each level."""

    j_values: np.ndarray
    q_values: np.ndarray
    s: np.ndarray          # shape (len(j_values), len(q_values))

    def to_csv(self, path) -> str:
        return write_csv(path, ["j", "q", "S", "logS"],
                         [(int(j), q, s, math.log2(s))
                          for j, row in zip(self.j_values, self.s.tolist())
                          for q, s in zip(self.q_values.tolist(), row)])


def structure_functions(leaders: LeaderPyramid,
                        q_values) -> StructureFunctionTable:
    """S(j, q): mean of leader^q over the clean positions of each level j."""
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    require(q_values.size > 0, "q_values", "be non-empty", q_values)
    levels = leaders.levels
    values = {}
    for j in levels:
        ell = leaders.clean_values(j)
        if ell.size == 0:
            raise DataError(f"no usable leaders at level {j}")
        values[j] = ell
    if any(q < 0 for q in q_values):
        for j in levels:
            if np.any(values[j] == 0.0):
                raise DataError(
                    f"zero leader at level {j}: negative moments undefined "
                    "(degenerate data)")
    s = np.empty((len(levels), q_values.size))
    for ji, j in enumerate(levels):
        for qi, q in enumerate(q_values):
            s[ji, qi] = float(np.mean(values[j] ** q))
    return StructureFunctionTable(j_values=np.array(levels), q_values=q_values,
                                  s=s)


def scaling_function(table: StructureFunctionTable,
                     j_range: tuple[int, int]) -> dict[float, RegressionFit]:
    """Slope of log2 S(j, q) against log2(scale_j) = j over the given levels."""
    j1, j2 = int(j_range[0]), int(j_range[1])
    mask = (table.j_values >= j1) & (table.j_values <= j2)
    js = table.j_values[mask]
    if js.size < 2:
        raise DataError(f"need at least 2 levels in [{j1}, {j2}]")
    fits = zip(*_linfit_rows(js.astype(float), np.log2(table.s[mask].T)))
    return {float(q): RegressionFit(*map(float, fit))
            for q, fit in zip(table.q_values, fits)}


def legendre_spectrum(zeta: dict[float, float], h_grid) -> dict[float, float]:
    """Legendre transform L(H) = inf_q (1 + q H - zeta(q)) on the q grid.

    Values are clamped at 1 (the ambient dimension); if no finite zeta value
    is available the transform is reported as -inf.
    """
    h_grid = np.atleast_1d(np.asarray(h_grid, dtype=float))
    qs = np.array(sorted(zeta), dtype=float)
    zs = np.array([zeta[q] for q in sorted(zeta)], dtype=float)
    finite = np.isfinite(zs)
    out: dict[float, float] = {}
    for h in h_grid:
        if not np.any(finite):
            out[float(h)] = -math.inf
            continue
        vals = 1.0 + qs[finite] * h - zs[finite]
        out[float(h)] = min(float(np.min(vals)), 1.0)
    return out


def _level_sups(pyramid: CoefficientPyramid) -> dict[int, float | None]:
    """sup_k |c_{j,k}| over the clean coefficients of every level; None for
    a level with no clean coefficient."""
    out: dict[int, float | None] = {}
    for j in pyramid.levels:
        vals = pyramid.clean_values(j)
        out[j] = np.abs(vals).max() if vals.size else None
    return out


def hmin_regression(pyramid: CoefficientPyramid,
                    j_range: tuple[int, int]) -> RegressionFit:
    """Fit of log2 sup_k |c_{j,k}| against log2(scale_j); slope estimates the
    uniform regularity exponent, used for scale-range selection."""
    sup_at = _level_sups(pyramid)
    j1, j2 = int(j_range[0]), int(j_range[1])
    js = [j for j in sorted(sup_at) if j1 <= j <= j2]
    if len(js) < 2:
        raise DataError(f"need at least 2 levels in [{j1}, {j2}]")
    for j in js:
        if sup_at[j] is None:
            raise DataError(f"no usable coefficients at level {j}")
    sups = np.array([sup_at[j] for j in js])
    if np.any(sups == 0.0):
        raise DataError("all-zero coefficient level in range; log regression undefined")
    return linfit(np.array(js, dtype=float), np.log2(sups))


def pyramid_to_json(obj: CoefficientPyramid | LeaderPyramid, path=None) -> str:
    """Serialize a pyramid to the interchange JSON schema; `valid` writes
    each level's clean slice as 0/1 flags."""
    levels = obj.levels
    doc = {"j_min": levels[0], "j_max": levels[-1], "norm": "L1",
           "boundary": "periodic",
           "scales": {str(j): obj._arrays[j].tolist() for j in levels},
           "valid": {str(j): obj.valid_at(j).astype(int).tolist()
                     for j in levels}}
    if isinstance(obj, LeaderPyramid):
        doc.update(variant=obj.variant, finest_level=levels[0])
    text = json.dumps(doc, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def _clean_runs(valid: dict, scales: dict[int, np.ndarray]) -> dict[int, slice]:
    """Each level's clean slice from its 0/1 flags in a JSON `valid` map;
    the flags of a level must cover its length and set one run."""
    flags = {int(j): v for j, v in valid.items()}
    if set(flags) != set(scales):
        raise ValueError(f"valid flags levels {sorted(flags)}, not "
                         f"{sorted(scales)}")
    clean = {}
    for j, v in flags.items():
        if (not isinstance(v, list) or len(v) != scales[j].size
                or any(f not in (0, 1) for f in v)):
            raise ValueError(f"valid[{j}] is not {scales[j].size} flags 0/1")
        ones = [k for k, f in enumerate(v) if f]
        lo, hi = (ones[0], ones[-1] + 1) if ones else (0, 0)
        if hi - lo != len(ones):
            raise ValueError(f"valid[{j}] flags more than one run")
        clean[j] = slice(lo, hi)
    return clean


def pyramid_from_json(text_or_path) -> CoefficientPyramid | LeaderPyramid:
    """Parse the interchange JSON schema.  A str whose first non-blank
    character is '{' is the document itself; any other argument names a
    file holding it.  Without `valid` every position is clean."""
    text = str(text_or_path)
    if not (isinstance(text_or_path, str) and text.lstrip().startswith("{")):
        try:
            text = Path(text).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read pyramid file {text!r}: {exc}") from exc
    try:
        doc = json.loads(text)
        scales = {int(j): np.asarray(v, dtype=float)
                  for j, v in doc["scales"].items()}
        if any(v.ndim != 1 for v in scales.values()):
            raise ValueError("every scales level must be a flat list")
        if doc.get("norm", "L1") != "L1" \
                or doc.get("boundary", "periodic") != "periodic":
            raise ValueError("only the L1 norm and periodic boundary exist")
        clean = _clean_runs(doc["valid"], scales) if "valid" in doc else {}
        if "variant" not in doc:
            return CoefficientPyramid(coeffs=scales, clean=clean)
        if int(doc["finest_level"]) != min(scales):
            raise ValueError("finest_level is not the first level")
        return LeaderPyramid(leaders=scales, variant=doc["variant"],
                             clean=clean)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed pyramid JSON: {exc!r}") from exc
