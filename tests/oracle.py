"""The decision oracle: the paper's validation grid at a reduced size.

For fBm (H 0.3 and 0.7), MRW (H 0.6, beta 0.1, L = n) and the canonical
Mandelbrot cascade (cmc, mu 0.05, J 15), each at n = 2^15 and analysed with
db3 three-leaders down to level 11, the table holds:
- each Shapiro-Wilk W, p-value and decision at levels 3-8, seeds 0-19;
- each permutation test's T and decision at levels 5-7, B = 99, seeds 0-9;
- the ensemble's c1 and c2 with their CLT intervals and the selected
  `j_range`, over the N = 32 realizations of seeds 0-31.

Every test runs at alpha = 0.05.  Realization `seed` of process k is drawn
from `RngSpec(seed).substream(k)`, and its permutation test at level j from
`RngSpec(seed).substream(16 * (k + 1) + j)`.

    PYTHONPATH=src python tests/oracle.py

writes `tests/oracle_table.json` with the seeds and the commit it ran at.
`tests/test_oracle.py` recomputes the table with `compute_table` and
compares it with the checked-in one.  A change that moves a decision on
purpose regenerates the table and names every moved decision.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

from leaderlab.core import RngSpec, write_json
from leaderlab.cumulants import (estimate_c1_c2, estimation_scale_candidates,
                                 select_scale_range)
from leaderlab.stattests import logconcavity_test, shapiro_wilk
from leaderlab.synth import gen_cmc_motion, gen_fbm, gen_mrw
from leaderlab.wavelet import compute_leaders, daubechies_basis, dwt

TABLE = Path(__file__).with_name("oracle_table.json")

N_SAMPLES = 1 << 15
J_MAX = 11
B = 99
ALPHA = 0.05
SHAPIRO_LEVELS = range(3, 9)
LOGCONCAVE_LEVELS = range(5, 8)
SHAPIRO_SEEDS = range(20)
LOGCONCAVE_SEEDS = range(10)
ENSEMBLE_SEEDS = range(32)

PROCESSES = {
    "fbm_H0.3": lambda rng: gen_fbm(0.3, N_SAMPLES, rng),
    "fbm_H0.7": lambda rng: gen_fbm(0.7, N_SAMPLES, rng),
    "mrw_H0.6_beta0.1": lambda rng: gen_mrw(0.6, 0.1, N_SAMPLES, N_SAMPLES,
                                            rng),
    "cmc_mu0.05_J15": lambda rng: gen_cmc_motion(0.05, 15, rng),
}


def _estimate(est) -> list[float]:
    return [est.estimate, est.stderr, est.lower, est.upper]


def compute_table() -> dict:
    """The oracle's rows at the code as it stands."""
    basis = daubechies_basis(3)
    shapiro, logconcave, ensemble = [], [], []
    for k, (name, draw) in enumerate(PROCESSES.items()):
        pyramids, leaders = [], []
        for seed in ENSEMBLE_SEEDS:
            pyramid = dwt(draw(RngSpec(seed).substream(k)), basis, J_MAX)
            pyramids.append(pyramid)
            leaders.append(compute_leaders(pyramid, "three_leader"))
        for seed in SHAPIRO_SEEDS:
            for j in SHAPIRO_LEVELS:
                sw = shapiro_wilk(np.log(leaders[seed].clean_values(j)),
                                  alpha=ALPHA)
                shapiro.append([name, seed, j, sw.statistic, sw.p_value,
                                bool(sw.rejected)])
        for seed in LOGCONCAVE_SEEDS:
            for j in LOGCONCAVE_LEVELS:
                lc = logconcavity_test(
                    np.log(leaders[seed].clean_values(j)), B=B, alpha=ALPHA,
                    rng=RngSpec(seed).substream(16 * (k + 1) + j))
                logconcave.append([name, seed, j, lc.statistic,
                                   bool(lc.rejected)])
        j_range = select_scale_range(pyramids,
                                     estimation_scale_candidates(J_MAX))
        est = estimate_c1_c2(leaders, j_range, alpha=ALPHA)
        ensemble.append([name, list(est.j_range), _estimate(est.c1),
                         _estimate(est.c2)])
    return {"shapiro": shapiro, "logconcave": logconcave,
            "ensemble": ensemble}


def _git(*args: str) -> str:
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True, check=True).stdout


def main() -> int:
    table = compute_table()
    table["setup"] = {
        "n": N_SAMPLES, "wavelet": "db3", "variant": "three_leader",
        "j_max": J_MAX, "B": B, "alpha": ALPHA,
        "processes": list(PROCESSES),
        "seeds": {"shapiro": list(SHAPIRO_SEEDS),
                  "logconcave": list(LOGCONCAVE_SEEDS),
                  "ensemble": list(ENSEMBLE_SEEDS)},
        "columns": {
            "shapiro": ["process", "seed", "level", "W", "p_value",
                        "rejected"],
            "logconcave": ["process", "seed", "level", "T", "rejected"],
            "ensemble": ["process", "j_range",
                         "c1 [estimate, stderr, lower, upper]",
                         "c2 [estimate, stderr, lower, upper]"]},
        "commit": _git("rev-parse", "HEAD").strip(),
        # files of the library that differ from that commit
        "uncommitted": _git("status", "--porcelain", "--", "src").splitlines(),
    }
    write_json(TABLE, table)
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
