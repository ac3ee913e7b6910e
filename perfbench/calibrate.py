"""A fixed calibration kernel, timed around and between workload passes.

The benchmark runs on shared hosts whose speed drifts.  On a 2-vCPU Xeon VM
the same ensemble pass took 1.4 s and 2.2 s within one minute, and 1 s
averages of this kernel varied by 7% (coefficient of variation), with no
page faults and under 1% steal time.  Dividing a pass's wall time by the
mean time of this kernel, run at both ends of the pass and between its
operations, cancels most of that drift (`wall_cal` in run.py).

The kernel uses numpy and the interpreter only, never leaderlab, so no
change to the program moves it.  Its work is a small mix of what the
workloads do: FFTs and vector arithmetic on 2^16-point arrays (synth and
wavelet), a gather and cumulative sum over 2^19 int32 labels (the
permutation kernel of stattests), and a Python loop that formats and parses
floats (the CSV reader and writer of core).
"""

from __future__ import annotations

import time

import numpy as np

_N = 1 << 16
_RNG = np.random.default_rng(20250311)
_X = _RNG.standard_normal(_N)
_LABELS = np.where(_RNG.random(1 << 12) < 0.5, 1, -1).astype(np.int32)
_ORDER = _RNG.integers(0, 1 << 12, size=(128, 1 << 12), dtype=np.int32)
_VALUES = _X[:4000].tolist()
_TEXT = [repr(v) for v in _VALUES]
# every large array the kernel writes is allocated here, once, so that
# running it between passes leaves the heap, and the peak RSS of the
# workload process, as they were
_F, _G = np.empty(_N, complex), np.empty(_N, complex)
_R = np.empty(_N)
_A, _B = np.empty(2 * _N), np.empty(2 * _N)
_GATHER, _CUM = np.empty_like(_ORDER), np.empty_like(_ORDER)


def probe() -> float:
    """Seconds taken by one run of the kernel (about 0.08 s on a 2-vCPU
    Xeon VM)."""
    t0 = time.perf_counter()
    for _ in range(8):
        np.fft.fft(_X, out=_F)
        np.sqrt(np.abs(_F, out=_R), out=_R)
        np.fft.ifft(np.multiply(_F, _R, out=_F), out=_G)
        _A[:_N] = _G.real
        _A[_N:] = _A[_N - 1::-1]
        for _ in range(3):
            # z <- z + z shifted by 3 / 2, twice, between the two buffers
            for src, dst in ((_A, _B), (_B, _A)):
                np.multiply(src[:-3], 0.5, out=dst[3:])
                dst[:3] = 0.0
                np.add(dst, src, out=dst)
    for _ in range(4):
        np.take(_LABELS, _ORDER, out=_GATHER)
        np.cumsum(_GATHER, axis=1, out=_CUM)
        int(np.abs(_CUM, out=_CUM).max())
    for _ in range(4):
        sum(float(s) for s in _TEXT)
        ",".join(f"{v:.17g}" for v in _VALUES)
    return time.perf_counter() - t0
