import csv
import json
import os
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from test_core import READER_CASES
from leaderlab import cli, core, synth
from leaderlab.cli import main
from leaderlab.core import (DataError, RngSpec, Signal, read_signal,
                            write_signal)
from leaderlab.stattests import logconcavity_test, shapiro_wilk
from leaderlab.wavelet import (DAUBECHIES_FILTERS, basis_from_name,
                               compute_leaders, daubechies_basis,
                               deepest_level, dwt)


def run(args):
    return main([str(a) for a in args])


def read_all_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())
            if p.name != "manifest.json"}


class TestGenerate:
    def test_fbm_writes_signal_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = run(["generate", "--process", "fbm", "--H", 0.7,
                    "--n", 1024, "--seed", 1, "-o", out])
        assert code == 0
        assert (out / "signal.csv").exists()
        assert (out / "signal.csv.json").exists()
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "generate"
        assert "signal.csv" in doc["outputs"]

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["generate", "--process", "mrw", "--H", 0.6, "--beta", 0.05,
                "--L", 2048, "--n", 2048, "--seed", 9]
        assert run(args + ["-o", a]) == 0
        assert run(args + ["-o", b]) == 0
        assert read_all_bytes(a) == read_all_bytes(b)

    def test_ensemble_derived_streams(self, tmp_path):
        out = tmp_path / "ens"
        assert run(["generate", "--process", "fbm", "--H", 0.5, "--n", 256,
                    "--seed", 3, "--ensemble", 4, "-o", out]) == 0
        files = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
        assert files == [f"signal_{i:04d}.csv" for i in range(4)]
        sigs = [np.loadtxt(out / f, delimiter=",", skiprows=1) for f in files]
        assert not np.array_equal(sigs[0], sigs[1])

    def test_output_parsed_from_its_path(self, tmp_path, monkeypatch):
        # generate writes clean files, which numpy reads in chunks in C
        # only when it opens them itself
        out = tmp_path / "g"
        assert run(["generate", "--process", "fbm", "--H", 0.7, "--n", 256,
                    "--seed", 1, "-o", out]) == 0
        sources, real = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda source, **kwargs: (
            sources.append(source) or real(source, **kwargs)))
        assert run(["analyze", "--input", out / "signal.csv", "--jmax", 4,
                    "-o", tmp_path / "a"]) == 0
        assert sources == [out / "signal.csv"]

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = run(["generate", "--process", "fbm", "--H", 0.7,
                    "--n", 128, "-o", tmp_path / "x"])
        assert code == 2

    def test_invalid_parameter_named(self, tmp_path, capsys):
        code = run(["generate", "--process", "fbm", "--H", 1.5,
                    "--n", 128, "--seed", 1, "-o", tmp_path / "x"])
        assert code == 2
        assert "--H" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["1e200", "nan", "inf", "-0.1"])
    def test_bad_mrw_beta_usage_error(self, tmp_path, capsys, beta):
        out = tmp_path / "m"
        code = run(["generate", "--process", "mrw", "--H", 0.6,
                    f"--beta={beta}", "--n", 256, "--seed", 1, "-o", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "--beta" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "signal.csv").exists()

    def test_mrw_L_beyond_float_range_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m"
        code = run(["generate", "--process", "mrw", "--H", 0.6,
                    "--L", "1" + "0" * 400, "--n", 256, "--seed", 1,
                    "-o", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "--L" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "signal.csv").exists()

    def test_gen_mrw_L_beyond_float_range_data_error(self):
        before = synth._circulant_sqrt_eig.cache_info()
        with pytest.raises(DataError, match="largest float"):
            synth.gen_mrw(0.6, 0.05, 10 ** 400, 256, RngSpec(1))
        after = synth._circulant_sqrt_eig.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_study_default_mrw_flags(self, tmp_path):
        code = run(["generate", "--process", "mrw", "--H", 0.6, "--beta",
                    0.05, "--L", 4096, "--n", 4096, "--seed", 2,
                    "-o", tmp_path / "m"])
        assert code == 0


PROCESS_FLAGS = {"fbm": ["--H", 0.7], "mrw": ["--H", 0.6], "cmc": [],
                 "cpc-ln": [], "cpc-lp": [], "rws": []}

GENERATE_ERRORS = [
    (["--process", "cpc-lp", "--w", 0], "--w"),
    (["--process", "cpc-lp", "--w", -1], "--w"),
    (["--process", "cpc-ln", "--intensity", -1], "--intensity"),
    (["--process", "cpc-ln", "--intensity", "nan"], "--intensity"),
    (["--process", "cpc-ln", "--T", 1e308], "--T"),
    *[(["--process", kind, *flags, "--n", n], "--n")
      for kind, flags in PROCESS_FLAGS.items() for n in (1, 0, -5)],
    *[(["--process", kind, "--J", j], "--J")
      for kind in ("cmc", "rws") for j in (0, 40)],
    (["--process", "fbm"], "--H"),
    (["--process", "mrw"], "--H"),
    # paths that overflow, rejected without numpy's RuntimeWarnings
    (["--process", "mrw", "--H", 0.6, "--beta", 1e100], "--beta"),
    (["--process", "cpc-lp", "--w", 1e300], "--w"),
    (["--process", "cpc-ln", "--sigma2", 1e300], "--sigma2"),
    (["--process", "cmc", "--sigma2", 1e300], "--sigma2"),
    (["--process", "rws", "--ggbeta", 1e-3], "--ggbeta"),
    # beyond the 2^24-sample cap, with no --J passed
    *[(["--process", kind, "--n", (1 << 24) + 1], "--n")
      for kind in ("cmc", "rws")],
    # the same cap for every kind, refused before anything is allocated
    *[(["--process", kind, *PROCESS_FLAGS[kind], "--n", (1 << 24) + 1],
       "--n") for kind in ("fbm", "mrw", "cpc-ln", "cpc-lp")],
]


LEVEL_ERRORS = [
    ("estimate", ["--alpha", 1.5], "--alpha"),
    ("estimate", ["--alpha", 0], "--alpha"),
    ("estimate", ["--alpha", "nan"], "--alpha"),
    ("estimate", ["--method", "bootstrap", "--seed", 1, "--alpha", 1],
     "--alpha"),
    ("test", ["--which", "logconcave", "--alpha", 1.5], "--alpha"),
    ("test", ["--which", "logconcave", "--alpha", -0.5], "--alpha"),
    ("test", ["--which", "shapiro", "--alpha", "nan"], "--alpha"),
    ("test", ["--which", "shapiro", "--alpha", 1], "--alpha"),
    ("verify", ["--tol", "nan"], "--tol"),
    ("verify", ["--tol", 0], "--tol"),
    ("verify", ["--tol", "inf"], "--tol must be finite and > 0, got inf"),
    ("verify", ["--mc-paths", -3], "--mc-paths"),
]

# every other value a library function refuses, named by the flag that set
# it, and the flag text the CLI parses itself
FLAG_ERRORS = LEVEL_ERRORS + [
    *[(command, ["--seed", seed], "--seed")
      for command in ("generate", "estimate", "test", "verify")
      for seed in (-1, 1 << 64)],
    ("estimate", ["--method", "bootstrap", "--seed", 1, "--B", 0], "--B"),
    ("test", ["--which", "logconcave", "--B", 0], "--B"),
    # above the cap of 10^6 replicates: 106 TiB of labels, 7.28 TiB of
    # bootstrap replicates
    ("test", ["--which", "logconcave", "--B", 10 ** 12], "--B"),
    ("estimate", ["--method", "bootstrap", "--seed", 1, "--B", 10 ** 12],
     "--B"),
    ("verify", ["--alpha", "nan"], "--alpha"),
    ("verify", ["--alpha", -1], "--alpha"),
    ("verify", ["--alpha", "inf"], "--alpha"),
    ("verify", ["--ggbeta", "nan"], "--ggbeta"),
    ("verify", ["--A-grid", -1], "--A-grid"),
    ("verify", ["--A-grid", "0.1,-2"], "--A-grid"),
    ("verify", ["--A-grid", "x"], "--A-grid"),
    *[(command, ["--wavelet", name], "--wavelet")
      for command in ("analyze", "estimate", "test")
      for name in ("db11", "haar", "sym4")],
    # argparse reads an option value `--` as an empty list
    ("analyze", ["--input=--"], "usage error: --input must not be --"),
    ("verify", ["--tol=--"], "usage error: --tol must not be --"),
    ("analyze", ["--q", "abc"], "--q"),
    ("analyze", ["--q", "0:0:2"], "--q"),
    ("analyze", ["--scales", 3], "--scales"),
    ("analyze", ["--scales", "10:20"], "--scales"),
    ("analyze", ["--scales", "0:3"], "--scales"),
    ("estimate", ["--scales", 3], "--scales"),
    ("estimate", ["--scales", "10:20"], "--scales"),
    ("estimate", ["--scales", "0:3"], "--scales"),
    ("estimate", ["--scales", "4:4"], "--scales"),
    # the seed and B are checked before the missing input is read
    ("estimate", ["--inputs", "no/such/dir", "--method", "bootstrap"],
     "--seed"),
    ("estimate", ["--inputs", "no/such/dir", "--method", "bootstrap",
                  "--seed", 1, "--B", 0], "--B"),
    ("test", ["--input", "no/such/dir", "--which", "logconcave", "--B", 0],
     "--B"),
    ("test", ["--input", "no/such/dir", "--which", "logconcave", "--B",
              10 ** 6 + 1], "--B"),
    # and so is alpha, which the library checks after reading every input
    ("estimate", ["--inputs", "no/such/dir", "--alpha", 1.5], "--alpha"),
    ("test", ["--input", "no/such/dir", "--which", "shapiro", "--alpha", 1.5,
              "--seed", 1], "--alpha"),
    # a step that would make 10^9 points is refused before any is made
    ("analyze", ["--q", "0:1e-9:1"], "--q must hold 1 to 10000 grid points"),
    ("verify", ["--A-grid", "0:1e-9:1"],
     "--A-grid must hold 1 to 10000 grid points"),
    # a repeated level would be tested twice and aggregated twice
    ("test", ["--scale", "4,4"], "--scale"),
    # above the cap of 10^7 paths: 10 TB of draws, refused before any
    ("verify", ["--mc-paths", 10 ** 12], "--mc-paths"),
]


# -o paths under a tmp dir that holds the regular file `afile` and the
# directory `run/manifest.json`, and the path each error names
OUTPUT_ERRORS = {
    "under a file": ("afile/out", "afile/out"),
    "naming a file": ("afile", "afile"),
    "output name taken by a directory": ("run", "run/manifest.json"),
}


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    ens = tmp_path_factory.mktemp("ens")
    assert run(["generate", "--process", "fbm", "--H", 0.7, "--n", 1000,
                "--seed", 3, "--ensemble", 3, "-o", ens]) == 0
    return ens


class TestErrorPaths:
    """Every bad parameter or level is one usage-error line naming its
    flag: exit 2, no traceback and no output CSV or JSON."""

    def check(self, capsys, code, flag, out):
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not any(out.glob("*.csv")) and not any(out.glob("*.json"))

    # pytest captures warnings apart from stderr; as errors they show
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args,flag", GENERATE_ERRORS,
        ids=[" ".join(map(str, a[1:])) for a, _ in GENERATE_ERRORS])
    def test_generate(self, tmp_path, capsys, args, flag):
        out = tmp_path / "g"
        code = run(["generate", "--n", 1024, *args, "--seed", 1, "-o", out])
        self.check(capsys, code, flag, out)

    @pytest.mark.parametrize("command,jmax,words", [
        ("analyze", -1, "--jmax"), ("analyze", 0, "--jmax"),
        ("analyze", 20, "--jmax"), ("estimate", 20, "--jmax"),
        ("estimate", 3, "usage error: --jmax must be >= 4 for scales auto; "
         "unset, it is the deepest level of the shortest signal, got 3")],
        ids=["analyze -1", "analyze 0", "analyze 20", "estimate 20",
             "estimate 3"])
    def test_levels(self, tmp_path, capsys, ensemble, command, jmax, words):
        capsys.readouterr()
        inputs = (["--input", ensemble / "signal_0000.csv"]
                  if command == "analyze" else ["--inputs", ensemble])
        out = tmp_path / "o"
        code = run([command, "--jmax", jmax, *inputs, "-o", out])
        self.check(capsys, code, words, out)

    # the flags after the valid inputs take their place
    @pytest.mark.parametrize("command,args,flag", FLAG_ERRORS,
                             ids=[" ".join(map(str, (c, *a)))
                                  for c, a, _ in FLAG_ERRORS])
    def test_out_of_range(self, tmp_path, capsys, ensemble, command, args,
                          flag):
        capsys.readouterr()
        inputs = {"generate": ["--process", "fbm", "--H", 0.7, "--n", 256],
                  "analyze": ["--input", ensemble / "signal_0000.csv",
                              "--jmax", 4],
                  "estimate": ["--inputs", ensemble],
                  "test": ["--input", ensemble, "--which", "shapiro",
                           "--scale", 4, "--seed", 1],
                  "verify": ["--alpha", 1, "--ggbeta", 2]}[command]
        out = tmp_path / "o"
        code = run([command, *inputs, *args, "-o", out])
        self.check(capsys, code, flag, out)

    @pytest.mark.parametrize("outdir,named", OUTPUT_ERRORS.values(),
                             ids=list(OUTPUT_ERRORS))
    def test_unwritable_output(self, tmp_path, capsys, outdir, named):
        (tmp_path / "afile").write_text("")
        (tmp_path / "run" / "manifest.json").mkdir(parents=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["generate", "--process", "fbm", "--H", 0.7, "--n",
                        256, "--seed", 1, "-o", tmp_path / outdir])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert str(tmp_path / named) in err and err.count("\n") == 1

    def test_B_refused_before_the_estimate(self, tmp_path, capsys,
                                           ensemble):
        # the estimate of 3 signals would warn (N=3 < 30) before B's rule
        capsys.readouterr()
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["estimate", "--inputs", ensemble, "--method",
                        "bootstrap", "--B", 0, "--seed", 1, "-o", out])
        assert [str(w.message) for w in caught] == []
        self.check(capsys, code, "--B", out)


@pytest.mark.filterwarnings("error")
class TestPartialOutputs:
    """A run that fails removes the regular files it added to the output
    directory and nothing else; a regime error keeps its evidence."""

    FBM = ["generate", "--process", "fbm", "--H", 0.7, "--n", 256,
           "--seed", 1]

    def test_manifest_taken_by_a_directory(self, tmp_path):
        out = tmp_path / "run"
        (out / "manifest.json").mkdir(parents=True)
        assert run([*self.FBM, "-o", out]) == 3
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").is_dir()

    def test_later_name_taken_by_a_directory(self, tmp_path):
        out = tmp_path / "run"
        (out / "signal_0001.csv").mkdir(parents=True)
        (out / "keep.txt").write_bytes(b"kept\r\n\x00")
        assert run([*self.FBM, "--ensemble", 3, "-o", out]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt",
                                                         "signal_0001.csv"]
        assert (out / "keep.txt").read_bytes() == b"kept\r\n\x00"

    def test_data_error_on_the_second_realization(self, tmp_path,
                                                  monkeypatch, capsys):
        def second_fails(spec):
            if spec.rng.stream_id == 1:
                raise DataError("second realization refused")
            return synth.generate(spec)
        monkeypatch.setattr(cli, "generate", second_fails)
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            out = tmp_path / f"o{workers}"
            assert run([*self.FBM, "--ensemble", 3, "-o", out]) == 3
            assert capsys.readouterr().err == \
                "error: second realization refused\n"
            assert list(out.iterdir()) == []

    def test_failed_verify_keeps_its_evidence(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run(["verify", "--alpha", 2, "--ggbeta", 2, "-o", out]) == 3
        assert capsys.readouterr().err.startswith(_FAILED)
        assert sorted(p.name for p in out.iterdir()) == ["tailbounds.csv",
                                                         "tailbounds.json"]


def _workers(monkeypatch, count: int) -> list:
    """Give `core._map_files` `count` usable CPUs; the list it returns
    gains an entry for each process forked."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: count)
    forks, real = [], os.fork

    def fork():
        forks.append(None)
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return forks


class TestWorkerProcesses:
    """A directory's files are read, and an ensemble's members drawn and
    written, on worker processes; with one worker the same loop runs in
    this process.
    Both give the same bytes and the same first error, and no worker
    outlives its command."""

    GEN = ["generate", "--process", "fbm", "--H", 0.7, "--n", 2048,
           "--seed", 21, "--ensemble", 5]

    def pipeline(self, root, monkeypatch, workers):
        forks = _workers(monkeypatch, workers)
        gen, est, tst = root / "gen", root / "est", root / "test"
        assert run([*self.GEN, "-o", gen]) == 0
        with pytest.warns(UserWarning, match=r"^N=5 < 30: CLT interval"):
            assert run(["estimate", "--inputs", gen, "--jmax", 7,
                        "-o", est]) == 0
        assert run(["test", "--input", gen, "--which", "shapiro", "--scale",
                    "3,4", "--seed", 22, "-o", tst]) == 0
        assert run(["replay", gen / "manifest.json", "-o", root / "gen2"]) == 0
        with pytest.warns(UserWarning, match=r"^N=5 < 30: CLT interval"):
            assert run(["replay", est / "manifest.json",
                        "-o", root / "est2"]) == 0
        assert run(["replay", tst / "manifest.json",
                    "-o", root / "test2"]) == 0
        return len(forks), {d.name: read_all_bytes(d)
                            for d in sorted(root.iterdir())}

    def test_same_bytes_on_both_paths(self, tmp_path, monkeypatch):
        forks_one, one = self.pipeline(tmp_path / "one", monkeypatch, 1)
        forks_two, two = self.pipeline(tmp_path / "two", monkeypatch, 2)
        # two workers for each of the six commands
        assert (forks_one, forks_two) == (0, 12)
        assert len(one["gen"]) == 10 and one == two
        assert one["gen"] == one["gen2"] and one["est"] == one["est2"]

    def test_first_malformed_file_named(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "a.csv").write_text("t,value\n0,1.5\n1,x\n")
        (bad / "b.csv").write_text("t,value\n0,1.5\n")
        outcomes = []
        for workers in (1, 2):
            forks = _workers(monkeypatch, workers)
            out = tmp_path / f"o{workers}"
            code = run(["estimate", "--inputs", bad, "-o", out])
            outcomes.append((code, capsys.readouterr().err))
            assert len(forks) == (0 if workers == 1 else 2)
            assert list(out.iterdir()) == []
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 3 and err.count("\n") == 1
        assert err.startswith(f"error: malformed CSV in {bad / 'a.csv'}: ")

    def test_failed_write_comes_before_a_later_failed_draw(
            self, tmp_path, monkeypatch, capsys):
        def second_fails(spec):
            if spec.rng.stream_id == 1:
                raise DataError("second realization refused")
            return synth.generate(spec)
        monkeypatch.setattr(cli, "generate", second_fails)
        outcomes = []
        for workers in (1, 2):
            forks = _workers(monkeypatch, workers)
            out = tmp_path / f"o{workers}"
            (out / "signal_0000.csv").mkdir(parents=True)
            code = run([*self.GEN, "-o", out])
            outcomes.append((code, capsys.readouterr().err.replace(
                str(out), "OUT")))
            assert len(forks) == (0 if workers == 1 else 2)
            assert [p.name for p in out.iterdir()] == ["signal_0000.csv"]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3 and outcomes[0][1].startswith(
            "error: cannot write output: ")

    def test_sidecar_parameter_error_from_a_worker(self, tmp_path,
                                                   monkeypatch, capsys):
        # a ParamError raised on a worker reaches main whole
        ens = tmp_path / "ens"
        ens.mkdir()
        for name in ("a", "b"):
            (ens / f"{name}.csv").write_text("".join(
                f"{v}\n" for v in range(64)))
        (ens / "b.csv.json").write_text('{"dt": -1}')
        for workers in (1, 2):
            forks = _workers(monkeypatch, workers)
            assert run(["estimate", "--inputs", ens,
                        "-o", tmp_path / "o"]) == 3
            assert capsys.readouterr().err == \
                "error: dt must be > 0, got -1.0\n"
            assert len(forks) == (0 if workers == 1 else 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_reader_case_on_both_paths(self, tmp_path, monkeypatch, case):
        text, expected = READER_CASES[case]
        (tmp_path / "a.csv").write_bytes(text.encode("utf-8"))
        (tmp_path / "b.csv").write_text("t,value\n0,1.5\n1,2.5\n")
        outcomes = []
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            try:
                outcomes.append([(name, s.samples.tobytes(), s.t0, s.dt,
                                  s.label) for name, s in
                                 cli._load_signals(str(tmp_path))])
            except DataError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] is DataError) == (expected is DataError)

    @pytest.mark.parametrize("command", ["generate", "estimate"])
    def test_a_worker_that_dies(self, tmp_path, monkeypatch, capsys,
                                command):
        ens, out = tmp_path / "ens", tmp_path / "out"
        assert run([*self.GEN, "-o", ens]) == 0
        forks = _workers(monkeypatch, 2)
        real_read, real_write = cli.read_signal, cli.write_signal

        def dies_on_first(path):
            if Path(path).name == "signal_0000.csv":
                os._exit(1)
            return path

        monkeypatch.setattr(cli, "read_signal", lambda path: real_read(
            dies_on_first(path)))
        monkeypatch.setattr(cli, "write_signal", lambda sig, path, sidecar: (
            real_write(sig, dies_on_first(path), sidecar)))
        if command == "generate":
            def slow_second(spec):
                # the first member's worker is dead by the next submit
                if spec.rng.stream_id == 1:
                    time.sleep(0.3)
                return synth.generate(spec)
            monkeypatch.setattr(cli, "generate", slow_second)
            code = run([*self.GEN, "-o", out])
            first = out / "signal_0000.csv"
        else:
            code = run(["estimate", "--inputs", ens, "-o", out])
            first = ens / "signal_0000.csv"
        assert code == 3 and len(forks) == 2
        assert capsys.readouterr().err == (
            f"error: a worker process died before it finished {first}\n")
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):   # no child is left
            os.waitpid(-1, os.WNOHANG)

    def test_generate_holds_a_bounded_number_of_members(self, tmp_path,
                                                        monkeypatch):
        # the workers draw every member, so this process holds none: 48
        # more members add less than one member's samples to its peak
        forks, n = _workers(monkeypatch, 2), 16384

        def peak(ensemble, name):
            tracemalloc.start()
            try:
                assert run(["generate", "--process", "fbm", "--H", 0.7,
                            "--n", n, "--seed", 1, "--ensemble", ensemble,
                            "-o", tmp_path / name]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2, "warm")   # the pool's imports, made once
        small, large = peak(16, "small"), peak(64, "large")
        assert len(forks) == 6
        assert large - small < 8 * n

    def test_mrw_same_bytes_on_both_paths(self, tmp_path, monkeypatch):
        # each forked worker starts its own log-field thread
        outputs = []
        for workers in (1, 2):
            forks = _workers(monkeypatch, workers)
            out = tmp_path / f"o{workers}"
            assert run(["generate", "--process", "mrw", "--H", 0.6,
                        "--beta", 0.1, "--n", 2048, "--seed", 23,
                        "--ensemble", 5, "-o", out]) == 0
            assert len(forks) == (0 if workers == 1 else 2)
            outputs.append(read_all_bytes(out))
        assert len(outputs[0]) == 10 and outputs[0] == outputs[1]

    def test_process_parameter_refused_on_a_worker(self, tmp_path,
                                                   monkeypatch, capsys):
        forks = _workers(monkeypatch, 2)
        out = tmp_path / "out"
        assert run(["generate", "--process", "fbm", "--H", 1.5, "--n", 256,
                    "--seed", 1, "--ensemble", 4, "-o", out]) == 2
        assert capsys.readouterr().err == (
            "usage error: --H must lie strictly inside (0, 1), got 1.5\n")
        assert len(forks) == 2 and list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):   # no child is left
            os.waitpid(-1, os.WNOHANG)

    def test_one_input_file_forks_nothing(self, tmp_path, monkeypatch):
        assert run([*self.GEN[:-2], "-o", tmp_path / "gen"]) == 0
        forks = _workers(monkeypatch, 2)
        assert run(["test", "--input", tmp_path / "gen" / "signal.csv",
                    "--which", "shapiro", "--scale", "3,4", "--seed", 22,
                    "-o", tmp_path / "test"]) == 0
        assert forks == []


class TestDepth:
    @pytest.mark.parametrize("n", [1000, 2500])
    @pytest.mark.parametrize("kind", sorted(PROCESS_FLAGS))
    def test_generate_gives_n_samples(self, tmp_path, kind, n):
        out = tmp_path / "g"
        assert run(["generate", "--process", kind, *PROCESS_FLAGS[kind],
                    "--n", n, "--seed", 4, "-o", out]) == 0
        assert len(read_signal(out / "signal.csv")) == n

    def test_estimate_default_depth_on_1000_samples(self, tmp_path):
        # db3 fits 1000 >> 7 = 7 >= 6 samples at level 7, not at level 8;
        # the auto candidates at j_max 7 are the one range (4, 7)
        ens = tmp_path / "ens"
        assert run(["generate", "--process", "fbm", "--H", 0.7, "--n", 1000,
                    "--seed", 5, "--ensemble", 4, "-o", ens]) == 0
        out = tmp_path / "e"
        # level 7 keeps one clean leader (an open defect: its variance is
        # set to 0 and it still enters the fit)
        with pytest.warns(UserWarning, match=r"^single leader at level 7: "
                                             "variance set to 0$"), \
                pytest.warns(UserWarning, match=r"^N=4 < 30: CLT interval"):
            assert run(["estimate", "--inputs", ens, "-o", out]) == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["j_range"] == [4, 7]

    @pytest.mark.parametrize("order", sorted(DAUBECHIES_FILTERS))
    def test_default_depth_unchanged_on_powers_of_two(self, order):
        # the depth rule the default replaced: halve while the half is at
        # least one filter long
        def halvings(n, length):
            j = 0
            while n % 2 == 0 and n // 2 >= length:
                n //= 2
                j += 1
            return j
        basis = daubechies_basis(order)
        for k in range(1, 24):
            assert deepest_level(1 << k, basis) == halvings(1 << k,
                                                            basis.length)


class TestReplay:
    def test_byte_identical_outputs(self, tmp_path):
        first = tmp_path / "first"
        assert run(["generate", "--process", "cmc", "--mu", 0.37, "--J", 10,
                    "--n", 1024, "--seed", 5, "--ensemble", 2,
                    "-o", first]) == 0
        replay_dir = tmp_path / "replayed"
        assert run(["replay", first / "manifest.json", "-o", replay_dir]) == 0
        assert read_all_bytes(first) == read_all_bytes(replay_dir)

    def test_replay_analyze(self, tmp_path):
        sig_dir = tmp_path / "sig"
        run(["generate", "--process", "fbm", "--H", 0.7, "--n", 2048,
             "--seed", 7, "-o", sig_dir])
        an1 = tmp_path / "an1"
        assert run(["analyze", "--input", sig_dir / "signal.csv",
                    "--wavelet", "db3", "--jmax", 6, "-o", an1]) == 0
        an2 = tmp_path / "an2"
        assert run(["replay", an1 / "manifest.json", "-o", an2]) == 0
        assert read_all_bytes(an1) == read_all_bytes(an2)

    def test_param_naming_no_flag_dropped(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "generate", "params": {
            "process": "fbm", "n": 64, "seed": 1, "H": 0.5, "bogus": 1}}),
            encoding="utf-8")
        out = tmp_path / "o"
        assert run(["replay", manifest, "-o", out]) == 0
        sidecar = json.loads((out / "signal.csv.json").read_text())
        assert sidecar["params"] == {"H": 0.5}

    @pytest.mark.parametrize("command,changed,param", [
        ("generate", {"n": 1}, "n"), ("generate", {"seed": -1}, "seed"),
        ("generate", {"H": 1.5}, "H"),
        ("generate", {"ensemble": 0}, "ensemble"),
        ("test", {"reps": 0}, "reps"), ("test", {"scale": "0,4"}, "scale"),
        ("test", {"which": "logconcave", "B": 10 ** 12}, "B"),
        ("analyze", {"q": "abc"}, "q"), ("analyze", {"input": "--"}, "input"),
        ("estimate", {"method": "bootstrap"}, "seed")],
        ids=["n-1", "seed--1", "H-1.5", "generate ensemble 0",
             "test reps 0", "test scale 0,4", "test B 10^12", "analyze q abc",
             "analyze input --", "estimate bootstrap without seed"])
    def test_refused_param_is_data_error(self, tmp_path, capsys, ensemble,
                                         command, changed, param):
        # a manifest is data: a value its flag would refuse names no flag
        params = {"generate": {"process": "fbm", "n": 64, "seed": 1,
                               "H": 0.5},
                  "test": {"input": str(ensemble), "which": "shapiro",
                           "scale": "4", "seed": 1},
                  "analyze": {"input": str(ensemble / "signal_0000.csv"),
                              "jmax": 4},
                  "estimate": {"inputs": str(ensemble)}}[command]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": command,
                                        "params": {**params, **changed}}),
                            encoding="utf-8")
        out = tmp_path / "o"
        assert run(["replay", manifest, "-o", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {param} must")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists() or not any(out.iterdir())

    def test_missing_manifest(self, tmp_path):
        assert run(["replay", tmp_path / "none.json", "-o", tmp_path / "o"]) == 3

    @pytest.mark.parametrize("text", [
        "{", '{"params": {}}', '{"command": "verify"}',
        '{"command": "nope", "params": {}}', '["verify"]',
        '{"command": "verify", "params": [1]}'])
    def test_malformed_manifest(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run(["replay", manifest, "-o", out]) == 3
        err = capsys.readouterr().err
        assert "manifest" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


    @pytest.mark.parametrize("doc,words", [
        ({"command": "generate", "params": {"process": "fbm", "n": "abc",
                                            "seed": 1, "H": 0.5}},
         "argument --n: invalid int value: 'abc'"),
        ({"command": "generate", "params": {"process": "fbm", "n": 64,
                                            "seed": 1, "H": "x"}},
         "argument --H: invalid float value: 'x'"),
        ({"command": "verify", "params": {"ggbeta": 2}},
         "the following arguments are required: --alpha"),
        ({"command": "generate", "params": {"process": "fbm", "n": 2.5,
                                            "seed": 1, "H": 0.5}},
         "argument --n: invalid int value: '2.5'"),
        ({"command": "analyze", "params": {"input": 5, "jmax": 3}},
         "argument --input: invalid value: 5"),
        ({"command": "analyze", "params": {"input": "s.csv", "jmax": 3,
                                           "variant": "7"}},
         "argument --variant: invalid choice: '7'"),
        ({"command": "generate", "params": {"process": "fbm", "n": True,
                                            "seed": 1, "H": 0.5}},
         "argument --n: invalid value: true"),
        ({"command": "analyze", "params": {"input": ["s.csv"], "jmax": 3}},
         'argument --input: invalid value: ["s.csv"]'),
        ({"command": "verify", "params": {"alpha": {"v": 1}, "ggbeta": 2}},
         'argument --alpha: invalid value: {"v": 1}'),
    ], ids=["n_text", "H_text", "verify_no_alpha", "n_float", "input_int",
            "variant_choice", "n_true", "input_list", "alpha_object"])
    def test_bad_manifest_params(self, tmp_path, capsys, doc, words):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["replay", manifest, "-o", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest}: ")
        assert words in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


# argv per command whose values a manifest must carry through unchanged:
# text starting with `-` or holding `=`, `,`, a blank or non-ASCII letters,
# the floats 0.1, 1e-12, 5e-324 and one of 17 digits, and the largest seed
ROUND_TRIP_ARGV = {
    "generate": ["--process", "mrw", "--n", "64", "--seed",
                 str(2**64 - 1), "--H", "0.1", "--beta", "1e-12",
                 "--mu", "5e-324", "--sigma2", "0.30000000000000004",
                 "--L", "-3", "--ensemble", "-1"],
    "analyze": ["--input", "-a=b, c/größe.csv", "--jmax", "-2",
                "--q=-5:0.5:5", "--scales=-1:2", "--wavelet", "db 3"],
    "estimate": ["--inputs", "=runs, ß", "--scales", "1:3", "--alpha",
                 "5e-324", "--method", "bootstrap", "--B", "-7",
                 "--seed", str(2**64 - 1), "--variant", "1"],
    "test": ["--input", "- x", "--which", "logconcave", "--scale=-4,5",
             "--alpha", "0.1", "--reps", "0", "--seed", "0"],
    "verify": ["--alpha", "0.1", "--ggbeta", "1e-12", "--A-grid=-1e-12,2",
               "--mc-paths", "-5", "--tol", "5e-324", "--seed",
               str(2**64 - 1)],
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGV))
def test_manifest_round_trip(tmp_path, command):
    # argv -> params -> manifest.json -> replay parses the same namespace
    ap = cli._build_parser()
    ns = ap.parse_args([command, *ROUND_TRIP_ARGV[command], "-o", "out"])
    params = {k: v for k, v in vars(ns).items()
              if k not in ("command", "outdir")}
    cli._write_manifest(tmp_path, command, params, None, [], "start")
    assert cli.run_replay(ap, str(tmp_path / "manifest.json"), "out") == ns


class TestAnalyze:
    def test_outputs(self, tmp_path):
        sig_dir = tmp_path / "sig"
        run(["generate", "--process", "fbm", "--H", 0.7, "--n", 4096,
             "--seed", 11, "-o", sig_dir])
        out = tmp_path / "an"
        assert run(["analyze", "--input", sig_dir / "signal.csv",
                    "--wavelet", "db3", "--jmax", 7, "--variant", "3",
                    "--q=-2:0.5:2", "-o", out]) == 0
        for name in ("leaders.json", "structure.csv", "zeta.csv",
                     "legendre.csv", "qq_j4.csv"):
            assert (out / name).exists(), name
        zeta = (out / "zeta.csv").read_text().splitlines()
        assert zeta[0] == "q,zeta,intercept,r2"

    def test_variants_agree_on_zeta(self, tmp_path):
        sig_dir = tmp_path / "sig"
        run(["generate", "--process", "fbm", "--H", 0.6, "--n", 16384,
             "--seed", 12, "-o", sig_dir])
        vals = {}
        for variant in ("1", "3"):
            out = tmp_path / f"v{variant}"
            assert run(["analyze", "--input", sig_dir / "signal.csv",
                        "--jmax", 9, "--variant", variant,
                        "--q=-2:0.5:2", "--scales", "4:9",
                        "-o", out]) == 0
            rows = (out / "zeta.csv").read_text().splitlines()[1:]
            vals[variant] = {float(r.split(",")[0]): float(r.split(",")[1])
                             for r in rows}
        for q, z1 in vals["1"].items():
            assert abs(z1 - vals["3"][q]) <= 0.1, q

    def test_directory_input_data_error(self, tmp_path, capsys):
        code = run(["analyze", "--input", tmp_path, "--jmax", 5,
                    "-o", tmp_path / "an"])
        assert code == 3
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err

    def test_missing_input_no_partial_outputs(self, tmp_path):
        out = tmp_path / "an"
        code = run(["analyze", "--input", tmp_path / "ghost.csv",
                    "--jmax", 5, "-o", out])
        assert code == 3
        leftovers = [p for p in out.iterdir()] if out.exists() else []
        assert leftovers == []

    # S(j, q) of 0 or past the float range: log2 S is not a number
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("samples,q", [
        (np.zeros(1024), "1:1:3"),
        (np.arange(1024.0), "400"),
        (np.arange(1024.0), "1e300"),
        (1e300 * np.sin(np.arange(1024.0)), None),
        (1e-310 * np.sin(np.arange(1024.0)), None)],
        ids=["all zero", "ramp q=400", "ramp q=1e300", "1e300 sin",
             "1e-310 sin"])
    def test_structure_function_off_the_float_range(self, tmp_path, capsys,
                                                    samples, q):
        write_signal(Signal(samples), tmp_path / "x.csv")
        out = tmp_path / "an"
        code = run(["analyze", "--input", tmp_path / "x.csv", "--jmax", 5,
                    *([f"--q={q}"] if q else []), "-o", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: S(j, q) = ") and err.count("\n") == 1
        assert list(out.iterdir()) == []


class TestEstimate:
    def test_clt_and_bootstrap_tags(self, tmp_path):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.7, "--n", 8192,
             "--seed", 13, "--ensemble", 8, "-o", ens])
        out1 = tmp_path / "clt"
        with pytest.warns(UserWarning, match=r"^N=8 < 30: CLT interval"):
            assert run(["estimate", "--inputs", ens, "--scales", "auto",
                        "--method", "clt", "-o", out1]) == 0
        doc1 = json.loads((out1 / "estimate.json").read_text())
        assert doc1["c1"]["method"] == "clt"
        out2 = tmp_path / "boot"
        with pytest.warns(UserWarning, match=r"^N=8 < 30: CLT interval"):
            assert run(["estimate", "--inputs", ens, "--scales", "3:7",
                        "--method", "bootstrap", "--B", 50, "--seed", 14,
                        "-o", out2]) == 0
        doc2 = json.loads((out2 / "estimate.json").read_text())
        assert doc2["c1"]["method"] == "bootstrap_percentile"
        csv = (out2 / "estimate.csv").read_text().splitlines()
        assert csv[0] == "param,method,estimate,stderr,LB,UB,UB-LB"

    def test_bootstrap_requires_seed(self, tmp_path):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.7, "--n", 4096,
             "--seed", 15, "--ensemble", 3, "-o", ens])
        assert run(["estimate", "--inputs", ens, "--method", "bootstrap",
                    "-o", tmp_path / "x"]) == 2

    def test_too_few_realizations(self, tmp_path):
        ens = tmp_path / "one"
        run(["generate", "--process", "fbm", "--H", 0.7, "--n", 4096,
             "--seed", 16, "-o", ens])
        assert run(["estimate", "--inputs", ens, "-o", tmp_path / "x"]) == 3


class TestTestCommand:
    def test_shapiro_rows_and_aggregate(self, tmp_path):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.4, "--n", 8192,
             "--seed", 17, "--ensemble", 3, "-o", ens])
        out = tmp_path / "t"
        assert run(["test", "--input", ens, "--which", "shapiro",
                    "--scale", "4,5", "--seed", 18, "-o", out]) == 0
        rows = (out / "tests.csv").read_text().splitlines()
        assert rows[0] == "signal,scale,test,statistic,p_or_T,threshold,rejected"
        assert len(rows) == 1 + 3 * 2
        agg = (out / "tests_aggregate.csv").read_text().splitlines()
        assert agg[0] == "source,scale,n_runs,prop_rejected"
        assert len(agg) == 3

    def test_comma_in_names_is_quoted(self, tmp_path):
        gen = tmp_path / "gen"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 1024,
             "--seed", 35, "-o", gen])
        src = tmp_path / "x,y"
        src.mkdir()
        for name in ("a,b", "c"):
            (src / f"{name}.csv").write_bytes((gen / "signal.csv").read_bytes())
        out = tmp_path / "t"
        assert run(["test", "--input", src, "--which", "shapiro",
                    "--scale", "3", "--seed", 36, "-o", out]) == 0
        with open(out / "tests.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [7, 7, 7]
        assert [r[0] for r in rows[1:]] == ["a,b", "c"]
        with open(out / "tests_aggregate.csv", newline="",
                  encoding="utf-8") as fh:
            agg = list(csv.reader(fh))
        assert agg == [["source", "scale", "n_runs", "prop_rejected"],
                       ["x,y", "3", "2", agg[1][3]]]

    def test_logconcave_defaults(self, tmp_path):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.7, "--n", 4096,
             "--seed", 19, "-o", ens])
        out = tmp_path / "t"
        assert run(["test", "--input", ens / "signal.csv",
                    "--which", "logconcave", "--scale", "5",
                    "--B", 19, "--seed", 20, "-o", out]) == 0
        rows = (out / "tests.csv").read_text().splitlines()
        assert "logconcave_permutation" in rows[1]

    def test_reps_aggregation(self, tmp_path):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 4096,
             "--seed", 23, "--ensemble", 2, "-o", ens])
        out = tmp_path / "t"
        assert run(["test", "--input", ens, "--which", "shapiro",
                    "--scale", "4", "--reps", 3, "--seed", 24,
                    "-o", out]) == 0
        rows = (out / "tests.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 3
        agg = (out / "tests_aggregate.csv").read_text().splitlines()
        assert agg[1].split(",")[2] == "6"  # n_runs aggregates signals x reps

    def test_shapiro_reps_subsample_above_5000(self, tmp_path, monkeypatch):
        # level 1 of a 16384-sample signal holds more than 5000 leaders, so
        # each rep draws its own subsample from its own substream
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 16384,
             "--seed", 34, "-o", ens])
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return shapiro_wilk(*args, **kwargs)

        monkeypatch.setattr(cli, "shapiro_wilk", counting)
        out = tmp_path / "t"
        assert run(["test", "--input", ens, "--which", "shapiro",
                    "--scale", "1", "--reps", 2, "--seed", 35,
                    "-o", out]) == 0
        assert len(calls) == 2 and calls[0][0].size > 5000
        rows = (out / "tests.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and rows[0] != rows[1]

    def test_requires_seed(self, tmp_path):
        assert run(["test", "--input", tmp_path, "--which", "shapiro",
                    "-o", tmp_path / "x"]) == 2

    def test_one_dwt_per_signal(self, tmp_path, monkeypatch):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 2048,
             "--seed", 25, "--ensemble", 2, "-o", ens])
        calls = []

        def counting_dwt(*args, **kwargs):
            calls.append(args)
            return dwt(*args, **kwargs)

        monkeypatch.setattr(cli, "dwt", counting_dwt)
        assert run(["test", "--input", ens, "--which", "shapiro",
                    "--scale", "4,5", "--reps", 3, "--seed", 26,
                    "-o", tmp_path / "t"]) == 0
        assert len(calls) == 2

    def test_substreams_in_signal_scale_rep_order(self, tmp_path):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.6, "--n", 1024,
             "--seed", 27, "--ensemble", 2, "-o", ens])
        out = tmp_path / "t"
        assert run(["test", "--input", ens, "--which", "logconcave",
                    "--scale", "4,5", "--reps", 2, "--B", 19, "--seed", 28,
                    "-o", out]) == 0
        seed, basis = RngSpec(28), basis_from_name("db3")
        expected, idx = [], 0
        for f in sorted(ens.glob("*.csv")):
            leaders = compute_leaders(dwt(read_signal(f), basis, 5),
                                      "three_leader")
            for j in (4, 5):
                logs = np.log(leaders.clean_values(j))
                for _ in range(2):
                    rep = logconcavity_test(logs, B=19,
                                            rng=seed.substream(idx))
                    idx += 1
                    expected.append(f"{f.stem},{j},{rep.name},"
                                    f"{rep.statistic:.17g},"
                                    f"{rep.statistic:.17g},"
                                    f"{rep.details['threshold']:.17g},"
                                    f"{int(rep.rejected)}")
        assert (out / "tests.csv").read_text().splitlines()[1:] == expected

    def test_pool_over_budget_data_error(self, tmp_path, capsys):
        # level 1 of a 2^15-sample signal pools about 32760 leaders, whose
        # ball bitmap alone would take 1.07 GB: refused before the fit
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 1 << 15,
             "--seed", 35, "-o", ens])
        capsys.readouterr()
        out = tmp_path / "t"
        assert run(["test", "--input", ens, "--which", "logconcave",
                    "--scale", 1, "--seed", 36, "-o", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: samples of n = ")
        assert f"above the budget of {2 ** 29} bytes" in err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "tests.csv").exists()

    def test_reps_below_one_usage_error(self, tmp_path):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 1024,
             "--seed", 29, "-o", ens])
        assert run(["test", "--input", ens, "--which", "shapiro",
                    "--reps", 0, "--seed", 30, "-o", tmp_path / "t"]) == 2

    @pytest.mark.parametrize("scale", ["0,4", "x", "-1", "9"])
    def test_bad_scale_usage_error(self, tmp_path, capsys, scale):
        # 0 and -1 are not leader levels, x is not an integer, and a
        # 1024-sample signal has only 1024 >> 9 = 2 < 6 (db3 length)
        # samples left at level 9
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 1024,
             "--seed", 31, "-o", ens])
        capsys.readouterr()
        out = tmp_path / "t"
        assert run(["test", "--input", ens, "--which", "shapiro",
                    "--scale", scale, "--seed", 32, "-o", out]) == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "Traceback" not in err
        assert not (out / "tests.csv").exists()


class TestGridArguments:
    @pytest.mark.parametrize("args", [
        ["estimate", "--scales", "x:y"],
        ["analyze", "--jmax", 5, "--q", "abc"],
        ["analyze", "--jmax", 5, "--q", "0:x:2"],
        ["analyze", "--jmax", 5, "--q", "0:1:inf"],
        ["verify", "--alpha", 1, "--ggbeta", 2, "--A-grid", "x"]],
        ids=["scales-x:y", "q-abc", "q-step-x", "q-inf", "A-grid-x"])
    def test_non_numeric_grid_usage_error(self, tmp_path, capsys, args):
        ens = tmp_path / "ens"
        run(["generate", "--process", "fbm", "--H", 0.5, "--n", 1024,
             "--seed", 33, "--ensemble", 3, "-o", ens])
        capsys.readouterr()
        inputs = {"estimate": ["--inputs", ens],
                  "analyze": ["--input", ens / "signal_0000.csv"],
                  "verify": []}[args[0]]
        out = tmp_path / "o"
        assert run(args + inputs + ["-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not any(out.glob("*.csv"))


def _neither(a, small, large):
    return (f"error: A={a} lies in neither regime (small needs A <= {small}, "
            f"large needs A > {large})")


_FAILED = "error: tail verification failed: "
_NO_CERTIFICATE = ("nonconvergence: leader CDF product does not certify "
                   "convergence within 200 levels ")
_SMALL_ALPHA = "error: small-A envelope needs alpha > 0.913909; got alpha="
# (--alpha, --ggbeta, exit code, start of the one stderr line) on the default
# grid: every threshold, power and constant past the float range ends in a
# result or a named error, never in an OverflowError
VERIFY_SWEEP = [
    ("0.001", "1e-300", 3, _neither("7.1", "0.999307", "inf")),
    ("0.001", "0.01", 3, _neither("7.1", "0.999307", "inf")),
    ("0.001", "0.05", 3, _neither("7.1", "0.999307", "4.58669e+65")),
    ("0.001", "0.5", 3, _neither("7.1", "0.999307", "10201")),
    ("0.001", "1", 3, _neither("7.1", "0.999307", "1443.2")),
    ("0.001", "2", 4, _NO_CERTIFICATE),
    ("0.001", "50", 4, _NO_CERTIFICATE),
    ("0.001", "1e3", 3, _SMALL_ALPHA),
    ("0.001", "1e300", 3, _SMALL_ALPHA),
    ("1", "1e-300", 3, _neither("7.1", "0.5", "inf")),
    ("1", "0.01", 3, _neither("7.1", "0.5", "inf")),
    ("1", "0.05", 3, _neither("7.1", "0.5", "4.58669e+65")),
    ("1", "0.5", 3, _neither("7.1", "0.5", "10201")),
    ("1", "1", 0, ""),
    ("1", "2", 0, ""),
    ("1", "50", 0, ""),
    ("1", "1e3", 0, ""),
    ("1", "1e300", 0, ""),
    ("2", "1e-300", 3, _neither("7.1", "0.25", "inf")),
    ("2", "0.01", 3, _neither("7.1", "0.25", "inf")),
    ("2", "0.05", 3, _neither("7.1", "0.25", "4.58669e+65")),
    ("2", "0.5", 3, _neither("7.1", "0.25", "10201")),
    ("2", "1", 3, _FAILED),
    ("2", "2", 3, _FAILED),
    ("2", "50", 3, _FAILED),
    ("2", "1e3", 0, ""),
    ("2", "1e300", 0, ""),
    ("30", "1e-300", 3, _neither("0.00195312", "9.31323e-10", "inf")),
    ("30", "0.01", 3, _neither("0.00195312", "9.31323e-10", "inf")),
    ("30", "0.05", 3, _neither("0.00195312", "9.31323e-10", "4.58669e+65")),
    ("30", "0.5", 3, _neither("0.00195312", "9.31323e-10", "10201")),
    ("30", "1", 3, _neither("0.00195312", "9.31323e-10", "1")),
    ("30", "2", 3, _neither("0.00195312", "9.31323e-10", "7.03562")),
    ("30", "50", 3, _neither("0.00195312", "9.31323e-10", "1.09581")),
    ("30", "1e3", 3, _neither("0.00195312", "9.31323e-10", "1.0046")),
    ("30", "1e300", 3, _neither("0.00195312", "9.31323e-10", "1")),
    ("1000", "1e-300", 3, _neither("0.00195312", "9.33264e-302", "inf")),
    ("1000", "0.01", 3, _neither("0.00195312", "9.33264e-302", "inf")),
    ("1000", "0.05", 3, _neither("0.00195312", "9.33264e-302", "4.58669e+65")),
    ("1000", "0.5", 3, _neither("0.00195312", "9.33264e-302", "10201")),
    ("1000", "1", 3, _neither("0.00195312", "9.33264e-302", "1")),
    ("1000", "2", 3, _neither("0.00195312", "9.33264e-302", "7.03562")),
    ("1000", "50", 3, _neither("0.00195312", "9.33264e-302", "1.09581")),
    ("1000", "1e3", 3, _neither("0.00195312", "9.33264e-302", "1.0046")),
    ("1000", "1e300", 3, _neither("0.00195312", "9.33264e-302", "1")),
    ("1e300", "1e-300", 3, _neither("0.00195312", "0", "inf")),
    ("1e300", "0.01", 3, _neither("0.00195312", "0", "inf")),
    ("1e300", "0.05", 3, _neither("0.00195312", "0", "4.58669e+65")),
    ("1e300", "0.5", 3, _neither("0.00195312", "0", "10201")),
    ("1e300", "1", 3, _neither("0.00195312", "0", "1")),
    ("1e300", "2", 3, _neither("0.00195312", "0", "7.03562")),
    ("1e300", "50", 3, _neither("0.00195312", "0", "1.09581")),
    ("1e300", "1e3", 3, _neither("0.00195312", "0", "1.0046")),
    ("1e300", "1e300", 3, _neither("0.00195312", "0", "1")),
]


# --A-grid lists from 1e-300 to 1e300 at alphas whose powers and quotients
# leave the float range (2^alpha rounds to 1 at 1e-17), with every --ggbeta
# of VERIFY_SWEEP
FAR_GRID_ALPHAS = ["1e-300", "1e-17", "0.92", "30", "60"]
FAR_GRIDS = ["1e-300,1e-100", "1e-20,1e-10", "1e10,1e100", "1e300"]
SWEEP_GGBETAS = list(dict.fromkeys(b for _, b, *_ in VERIFY_SWEEP))
_FIRST_WORD = {0: "", 3: "error: ", 4: "nonconvergence: "}


class TestVerify:
    @pytest.mark.parametrize("alpha,ggbeta,code,line", VERIFY_SWEEP,
                             ids=[f"{a}-{b}" for a, b, *_ in VERIFY_SWEEP])
    def test_sweep_ends_in_one_line(self, tmp_path, capsys, alpha, ggbeta,
                                    code, line):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--alpha", alpha, "--ggbeta", ggbeta,
                        "-o", tmp_path / "v"]) == code
        err = capsys.readouterr().err
        assert err.startswith(line)
        assert err.count("\n") == (code != 0)

    @pytest.mark.parametrize("grid", FAR_GRIDS)
    @pytest.mark.parametrize("ggbeta", SWEEP_GGBETAS)
    @pytest.mark.parametrize("alpha", FAR_GRID_ALPHAS)
    def test_far_grid_ends_in_one_line(self, tmp_path, capsys, alpha, ggbeta,
                                       grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", "--alpha", alpha, "--ggbeta", ggbeta,
                        "--A-grid", grid, "-o", tmp_path / "v"])
        assert code in _FIRST_WORD
        err = capsys.readouterr().err
        assert err.startswith(_FIRST_WORD[code])
        assert err.count("\n") == (code != 0)

    def test_worked_example(self, tmp_path):
        out = tmp_path / "v"
        assert run(["verify", "--alpha", 1, "--ggbeta", 2, "-o", out]) == 0
        doc = json.loads((out / "tailbounds.json").read_text())
        assert doc["checks_passed"] is True
        assert doc["constants"]["l_beta"] == 3

    def test_small_alpha_regime_error(self, tmp_path):
        assert run(["verify", "--alpha", 0.5, "--ggbeta", 2,
                    "-o", tmp_path / "v"]) == 3

    def test_mc_requires_seed(self, tmp_path):
        assert run(["verify", "--alpha", 1, "--ggbeta", 2,
                    "--mc-paths", 1000, "-o", tmp_path / "v"]) == 2

    @pytest.mark.parametrize("grid", ["1e-300", "1e-300,1e-200,1e-100,1e-50"])
    def test_underflowing_cdf_strict_json(self, tmp_path, grid):
        out = tmp_path / "v"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--alpha", 1, "--ggbeta", 2,
                        "--A-grid", grid, "-o", out]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")
        doc = json.loads((out / "tailbounds.json").read_text(),
                         parse_constant=reject)
        assert doc["log_cdf"] == [None] * len(grid.split(","))
        assert doc["slope"] is None

    def test_custom_grid_and_mc(self, tmp_path):
        out = tmp_path / "v"
        assert run(["verify", "--alpha", 1, "--ggbeta", 2,
                    "--A-grid", "0.125,0.25,0.5,8,10", "--mc-paths", 2000,
                    "--seed", 21, "-o", out]) == 0
        header = (out / "tailbounds.csv").read_text().splitlines()[0]
        assert header.endswith("mc_cdf,mc_stderr")

