"""The decision oracle (`tests/oracle.py`) recomputed against its table.

Every decision and `j_range` must match exactly.  Floats must match within
a relative tolerance:
- c1, c2, their standard errors and interval ends: 1e-10, below the 1e-9
  relative change to `fit_cm`'s slope that the oracle must catch;
- Shapiro-Wilk W and p-value, and the permutation test's T: 1e-9.
A change that moves a decision on purpose regenerates the table
(`PYTHONPATH=src python tests/oracle.py`) and names every moved decision.
"""

import json
import math

import pytest

import oracle

ESTIMATE_RTOL = 1e-10
TEST_RTOL = 1e-9


@pytest.fixture(scope="module")
def tables():
    return (json.loads(oracle.TABLE.read_text(encoding="utf-8")),
            oracle.compute_table())


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def test_table_records_its_setup(tables):
    setup = tables[0]["setup"]
    assert setup["seeds"] == {"shapiro": list(oracle.SHAPIRO_SEEDS),
                              "logconcave": list(oracle.LOGCONCAVE_SEEDS),
                              "ensemble": list(oracle.ENSEMBLE_SEEDS)}
    assert setup["processes"] == list(oracle.PROCESSES)
    assert len(setup["commit"]) == 40


def test_shapiro_wilk(tables):
    saved, now = (t["shapiro"] for t in tables)
    assert len(saved) == len(now) == 4 * 20 * 6
    for old, new in zip(saved, now):
        assert old[:3] == new[:3] and old[5] == new[5], (old, new)
        assert _close(old[3], new[3], TEST_RTOL), (old, new)
        assert _close(old[4], new[4], TEST_RTOL), (old, new)


def test_permutation_test(tables):
    saved, now = (t["logconcave"] for t in tables)
    assert len(saved) == len(now) == 4 * 10 * 3
    for old, new in zip(saved, now):
        assert old[:3] == new[:3] and old[4] == new[4], (old, new)
        assert _close(old[3], new[3], TEST_RTOL), (old, new)


def test_ensemble_estimates(tables):
    saved, now = (t["ensemble"] for t in tables)
    assert [row[:2] for row in saved] == [row[:2] for row in now]
    for old, new in zip(saved, now):
        for a, b in zip(old[2] + old[3], new[2] + new[3]):
            assert _close(a, b, ESTIMATE_RTOL), (old, new)
