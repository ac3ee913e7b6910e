"""`perfbench/tracing.py` wraps library functions by module and name, and
binds the arguments of some by parameter name to count their work: a
renamed function or parameter would fail a traced benchmark run
(`--trace 1`) with an AttributeError or a KeyError."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from leaderlab import core, cumulants, synth, wavelet
from leaderlab.core import RngSpec

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_exist(tracing):
    for layer, names in tracing.TRACED.items():
        mod = importlib.import_module(f"leaderlab.{layer}")
        for name in names:
            assert callable(getattr(mod, name)), f"{layer}.{name}"


@pytest.mark.parametrize("fn,params", [
    (cumulants.select_scale_range, ["pyramids", "candidates"]),
    (wavelet.dwt, ["signal", "basis", "j_max"]),
    (core.read_signal, ["path"]),
])
def test_bound_parameters_exist(fn, params):
    assert list(inspect.signature(fn).parameters)[:len(params)] == params


def test_counters_bind_the_traced_calls(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sig = synth.gen_fbm(0.7, 1024, RngSpec(1))
        basis = wavelet.daubechies_basis(3)
        pyr = wavelet.dwt(sig, basis, 5)
        cumulants.select_scale_range([pyr, pyr], [(1, 4), (2, 5)])
        core.write_signal(sig, tmp_path / "s.csv", sidecar={})
        core.read_signal(tmp_path / "s.csv")
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    assert counts["wavelet.dwt_coefs"] == 1024 - (1024 >> 5)
    assert counts["cumulants.select_fits"] == 4
    assert counts["core.read_bytes"] == counts["core.write_bytes"] > 0
    assert not hasattr(wavelet.dwt, "__wrapped__")   # uninstalled
