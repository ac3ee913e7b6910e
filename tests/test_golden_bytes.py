"""Golden bytes of every CLI output format.

Each case runs one subcommand on small signals at a fixed seed and pins the
sha256 of every file it writes except manifest.json, whose timestamps
differ between runs.  The digests were recorded before the writers were
routed through `core.write_csv`/`core.write_json`; any change to a number's
digits, a header, a blank cell, a line ending or JSON layout shows here.
"""

import contextlib
import hashlib
import json
from pathlib import Path

import pytest

from leaderlab import cli
from leaderlab.cli import main
from leaderlab.stattests import shapiro_wilk

# the input ensemble that analyze/estimate/test read: 2 fBm signals
ENSEMBLE = ["generate", "--process", "fbm", "--H", "0.6", "--n", "1024",
            "--seed", "11", "--ensemble", "2"]

CASES = {
    "generate_fbm": ["generate", "--process", "fbm", "--H", "0.7",
                     "--n", "1024", "--seed", "1"],
    "generate_mrw": ["generate", "--process", "mrw", "--H", "0.6",
                     "--beta", "0.05", "--L", "2048", "--n", "1024",
                     "--seed", "2"],
    "generate_cmc": ["generate", "--process", "cmc", "--mu", "0.37",
                     "--J", "10", "--n", "1024", "--seed", "3"],
    "generate_cpc-ln": ["generate", "--process", "cpc-ln", "--n", "1024",
                        "--seed", "4"],
    "generate_cpc-lp": ["generate", "--process", "cpc-lp", "--n", "1024",
                        "--seed", "5"],
    "generate_rws": ["generate", "--process", "rws", "--alpha", "1",
                     "--ggbeta", "2", "--n", "1024", "--seed", "6"],
    "analyze": ["analyze", "--input", "{ens}/signal_0000.csv",
                "--jmax", "6"],
    "estimate_clt": ["estimate", "--inputs", "{ens}", "--method", "clt"],
    "estimate_bootstrap": ["estimate", "--inputs", "{ens}", "--method",
                           "bootstrap", "--B", "50", "--seed", "7"],
    "test_shapiro": ["test", "--input", "{ens}", "--which", "shapiro",
                     "--scale", "4,5", "--reps", "2", "--seed", "8"],
    "test_shapiro_reps3": ["test", "--input", "{ens}", "--which", "shapiro",
                           "--scale", "4,5", "--reps", "3", "--seed", "8"],
    "test_logconcave": ["test", "--input", "{ens}", "--which", "logconcave",
                        "--scale", "4,5", "--reps", "2", "--B", "19",
                        "--seed", "9"],
    "verify_mc": ["verify", "--alpha", "1", "--ggbeta", "2",
                  "--mc-paths", "500", "--seed", "10"],
}

GOLDEN = {
    "analyze": {
        "leaders.json":
            "e7d52c70029840606a652adf39214039ede0a5198feb5d9bb9765fbf2957bf43",
        "legendre.csv":
            "e417417093d2172af788ee6bbc3351d407fc84d1f6775f468d5127eb50840399",
        "qq_j1.csv":
            "4d15c29e97c55f89fbe7076b23d88efd073f8b3742b878eb0212ea4b0a74d25f",
        "qq_j2.csv":
            "a78ad1b9312bd601b28890f8a6567b133f1a1c65fdbb44c955ae46aff647c715",
        "qq_j3.csv":
            "f00961a9df86a8b74f6b01df47a6d7323de9a7a41f1002c9c4fca31bfdf6ae8f",
        "qq_j4.csv":
            "0fe4a5fc2709081fab3899f338139761e42f904b37dd77ba3d6c5e22e55ac8d6",
        "qq_j5.csv":
            "56bbd9232a10b0d07bfc278a42ac285f220dc187384d697c97766d42df78782f",
        "qq_j6.csv":
            "502e506374c301c5f843c35128c3705eeef235c8d55a2e86b59fcd0fe90eb25d",
        "structure.csv":
            "439a01e5642502b8ab8bb2fefd7d5f94e8275b289b154af2df8cd88d6cc66a26",
        "zeta.csv":
            "dedf0a26a893955f69cd3cc12131f29d841188b87dba90547f73c30c973c0ad0",
    },
    "estimate_bootstrap": {
        "estimate.csv":
            "c1db032805a79c518b3fc6b40b628316afb5504ba8b3a62723865bd7a47632f5",
        "estimate.json":
            "100d19c6cbbcdee805f3c52169c4a0b57bd55f0d92a9a0a5054103cbc5b5c8b4",
    },
    "estimate_clt": {
        "estimate.csv":
            "c562d90d56e198abb2a2d28e4bda48cd127262d68a1623a7024664ca94cc461d",
        "estimate.json":
            "f85693d3b972816e2410770a226508bc5aeadc1d6801f94629d36ca0ec360402",
    },
    "generate_cmc": {
        "signal.csv":
            "87ebc59486173c1103aa93c165108a3c53f4cc6732afd425f1e656f805c39624",
        "signal.csv.json":
            "0bb829f83a433da64d702a33e7117f21fa99c216b43b5b940f70ca303b368348",
    },
    "generate_cpc-ln": {
        "signal.csv":
            "a302b08706a192e3195fc82571325d828b22ce90d4d4a502504a1be735944a0f",
        "signal.csv.json":
            "f25e365992775122f1d5f28d44a1b4e39ab97618f03021184a2386a08f5e72e8",
    },
    "generate_cpc-lp": {
        "signal.csv":
            "6dcb6c5df2428ae0ea19210157f6af4f184df65bc7caaf38c3575d332a2c6451",
        "signal.csv.json":
            "275f6059d0d1ee6df62646453260686d5580c1d9356a47772f1a489b577d8c66",
    },
    "generate_fbm": {
        "signal.csv":
            "0b5c395d2bef5837c2078091e8121f57b32420956ac57bb65248c4da89cd15b1",
        "signal.csv.json":
            "f2ec0d45d4a60dbe59062a65f6d779f566905572f9729462dceea2e61c20669a",
    },
    "generate_mrw": {
        "signal.csv":
            "38d01c254004b83efaef519deeacdfd65a7926bab64193167c7793d88c6280ee",
        "signal.csv.json":
            "fccd8c6e8e9708969942b0447a52ae05ae48420729b79326a82eb9eaa3ced780",
    },
    "generate_rws": {
        "signal.csv":
            "84b4634ce1b0efd28ca21c98887fc636a808104bc1e99eaabe86fbb4b944cabe",
        "signal.csv.json":
            "4260ea0673b2ae42434f0a07eb4473d15b8c5cbf4e7002a5345c90603445d488",
    },
    "test_logconcave": {
        "tests.csv":
            "09b09d401f6948bb1c82cfc1de40ed7b8b9ca14b3af7a78c8c62ba7f10bc6d6d",
        "tests_aggregate.csv":
            "c16fc42c089f2885f3e64e134186b2d5fc10ddd6a43941cc46bf6f49a8df63d6",
    },
    "test_shapiro": {
        "tests.csv":
            "7827651301ff810a5542da9a1753a4f7bd7d6a1b53dd79a1c816e50e21309424",
        "tests_aggregate.csv":
            "a854c7d581c5bb1753e33adec353fbe72cd20081bc35b278cc3a7efc4efa47a9",
    },
    "test_shapiro_reps3": {
        "tests.csv":
            "ab3f70f13f9e1b5dd7e071eea92d270d89fb9d1316e3e9702bcb6906c6fd38c8",
        "tests_aggregate.csv":
            "1a15a8eff00daaf44e377a4073d8f16971d40c0fc7f2345bc7af323f16b1527b",
    },
    "verify_mc": {
        "tailbounds.csv":
            "fda22fcd4811e2bfd98d7297869436cf510d395c0b054407a65e7969b2475c20",
        "tailbounds.json":
            "a0180b9f44b2d3fbf8766c28cebfff1756b32b19c97890bf1c5a8196e7c969b5",
    },
}


def digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


def run_case(argv, ens: Path, outdir: Path) -> dict:
    assert main([a.format(ens=ens) for a in argv] + ["-o", str(outdir)]) == 0
    return digests(outdir)


@pytest.fixture(scope="module")
def ens(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "ens"
    assert main(ENSEMBLE + ["-o", str(out)]) == 0
    return out


def expected_warnings(command):
    """The CLT's warning where `command` estimates from the 2-signal
    ensemble, and none elsewhere."""
    if command != "estimate":
        return contextlib.nullcontext()
    return pytest.warns(UserWarning, match=r"^N=2 < 30: CLT interval "
                                           "coverage is approximate$")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, ens, tmp_path):
    with expected_warnings(CASES[case][0]):
        assert run_case(CASES[case], ens, tmp_path / case) == GOLDEN[case]


def test_shapiro_reps_run_once(ens, tmp_path, monkeypatch):
    # 1024-sample signals keep every scale far below Shapiro-Wilk's 5000
    # subsampling limit, so each (signal, scale) needs one test, not 3
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return shapiro_wilk(*args, **kwargs)

    monkeypatch.setattr(cli, "shapiro_wilk", counting)
    case = "test_shapiro_reps3"
    assert run_case(CASES[case], ens, tmp_path / case) == GOLDEN[case]
    assert len(calls) == 2 * 2


# only the flags argparse requires; everything else takes its default
REQUIRED_ONLY = {
    "generate": {"process": "rws", "n": 1024, "seed": 12},
    "analyze": {"input": "{ens}/signal_0000.csv", "jmax": 6},
    "estimate": {"inputs": "{ens}"},
    "test": {"input": "{ens}", "which": "shapiro", "seed": 13},
    "verify": {"alpha": 1.0, "ggbeta": 2.0},
}


@pytest.mark.parametrize("command", sorted(REQUIRED_ONLY))
def test_replay_of_required_params_takes_parser_defaults(command, ens,
                                                         tmp_path):
    params = {k: str(v).format(ens=ens) if isinstance(v, str) else v
              for k, v in REQUIRED_ONLY[command].items()}
    argv = [command] + [a for k, v in params.items()
                        for a in (f"--{k}", str(v))]
    with expected_warnings(command):
        direct = run_case(argv, ens, tmp_path / "direct")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command, "params": params}),
                        encoding="utf-8")
    with expected_warnings(command):
        replayed = run_case(["replay", str(manifest)], ens,
                            tmp_path / "replay")
    assert direct and replayed == direct
