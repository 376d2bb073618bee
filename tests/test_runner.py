"""Command-line runner: config handling, report schema, exit codes."""

import argparse
import hashlib
import json

import pytest

from sprayjets import __version__
from sprayjets.runner import (MANIFOLDS, SCENARIOS, ScenarioConfig,
                              build_config, load_config, main)


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo configuration\n"
        "scenario = flow-check\n"
        "manifold=flat   # trailing comment\n"
        "\n"
        "t-max = 2.5\n"
        "seed=11\n",
        encoding="utf-8",
    )
    values = load_config(str(cfg))
    assert values == {"scenario": "flow-check", "manifold": "flat",
                      "t_max": 2.5, "seed": 11}


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("stepsize=0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(str(cfg))


def test_load_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        load_config(str(cfg))


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=flow-check\nh=0.01\nseed=3\n", encoding="utf-8")
    args = argparse.Namespace(config=str(cfg), scenario=None, manifold=None,
                              dim=None, h=0.5, t_max=None, alpha=None,
                              beta=None, seed=None, out=None)
    built = build_config(args)
    assert built.scenario == "flow-check"
    assert built.h == 0.5
    assert built.seed == 3
    assert built.manifold == ScenarioConfig().manifold


def test_build_config_validates_names():
    args = argparse.Namespace(config=None, scenario="warp", manifold=None,
                              dim=None, h=None, t_max=None, alpha=None,
                              beta=None, seed=None, out=None)
    with pytest.raises(ValueError, match="unknown scenario"):
        build_config(args)


def test_invariant_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--scenario", "invariant-suite", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["pass"] is True
    assert rep["version"] == __version__
    assert rep["config"]["scenario"] == "invariant-suite"
    assert all(c["pass"] for c in rep["checks"])
    assert all(c["residuals"]["sup"] == 0.0 for c in rep["checks"])


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_subspray_demo_all_manifolds(tmp_path, manifold):
    out = tmp_path / f"{manifold}.json"
    code = main(["--scenario", "subspray-demo", "--manifold", manifold,
                 "--h", "0.002", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    names = [c["check"] for c in rep["checks"]]
    assert names == ["reintegration", "membership", "alpha-affine-drift",
                     "beta-constant-drift", "uniqueness-gap", "reparametrized-field"]


def test_report_printed_to_stdout(capsys):
    code = main(["--scenario", "invariant-suite", "--seed", "5"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"pass", "version", "config", "checks"}
    assert rep["config"]["seed"] == 5


def test_deterministic_output(capsys):
    argv = ["--scenario", "lift-verify", "--manifold", "flat", "--seed", "2",
            "--h", "0.01"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_conjugate_scan_writes_det_csv(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["--scenario", "conjugate-scan", "--manifold", "sphere",
                 "--t-max", "3.5", "--h", "0.01", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    entry = rep["checks"][0]
    assert len(entry["conjugate_times"]) == 1
    assert entry["det_samples_csv_path"] == str(out) + ".det.csv"
    lines = (tmp_path / "scan.json.det.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,det"
    assert len(lines) > 100
    float(lines[1].split(",")[1])


def test_failing_check_exits_one(tmp_path, capsys):
    # a coarse step keeps the adaptive tolerances happy but not the fixed
    # energy-drift budget; the report must say so instead of raising
    code = main(["--scenario", "flow-check", "--manifold", "sphere", "--h", "0.1"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is False
    by_name = {c["check"]: c["pass"] for c in rep["checks"]}
    assert by_name["energy-drift"] is False


@pytest.mark.parametrize("line, message", [
    ("scenario=warp", "unknown scenario"), ("manifold = torus", "unknown manifold"),
    ("dim = 0", "dim must be at least 1"), ("seed = -1", "seed must be non-negative"),
    ("h = nan", "h must be finite"), ("t_max = nan", "t_max must be finite"),
    ("t-max = -inf", "t_max must be finite"), ("alpha = inf", "alpha must be finite"),
    ("beta = nan", "beta must be finite"), ("h = 0", "h must be positive"),
    ("h = -0.5", "h must be positive"), ("t_max = 0", "t_max must be nonzero"),
], ids=["scenario", "manifold", "dim", "seed", "h", "t_max", "t_max-inf", "alpha", "beta",
        "h-zero", "h-negative", "t_max-zero"])
def test_bad_config_exits_two(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_negative_seed_flag_exits_two(capsys):
    # numpy's default_rng would raise ValueError from inside the scenario
    assert main(["--scenario", "flow-check", "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, flag", [
    ("flow-check", "--t-max"), ("lift-verify", "--t-max"), ("subspray-demo", "--t-max"),
    ("invariant-suite", "--h"),
])
def test_non_finite_flag_exits_two(capsys, scenario, flag):
    # a NaN t_max would run to t = 1, since min(1.0, nan) is 1.0, and its
    # report would hold "t_max": NaN, which is not JSON
    assert main(["--scenario", scenario, flag, "nan"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()


def test_unknown_flag_value_exits_two(capsys):
    # argparse exits with 2 on a choice violation; main turns that into
    # a return code instead of letting SystemExit escape
    assert main(["--scenario", "warp"]) == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["-0.001", "0"])
def test_non_positive_step_flag_exits_two(capsys, h):
    # refused with the configuration, before the scenario runs until
    # integrate raises (exit 3)
    assert main(["--scenario", "flow-check", "--h", h]) == 2
    assert "h must be positive" in capsys.readouterr().err


def test_zero_t_max_flag_exits_two(capsys):
    # a run of no steps would check nothing: a scan of no steps finds no
    # conjugate point, every residual reads 0.0, and the report passes
    assert main(["--scenario", "conjugate-scan", "--t-max", "0"]) == 2
    assert "t_max must be nonzero" in capsys.readouterr().err


def test_negative_t_max_runs_backward(capsys):
    # a negative t_max is no error: the runs go backward and check real values
    assert main(["--scenario", "flow-check", "--t-max", "-1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    [defect] = [c for c in rep["checks"] if c["check"] == "defect"]
    assert defect["params"]["t"] == -1.0 and 0.0 < defect["residuals"]["sup"] < 1e-6


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sprayjets-run" in capsys.readouterr().out


def test_scenario_catalog_is_stable():
    assert SCENARIOS == ("conjugate-scan", "lift-verify", "flow-check",
                         "subspray-demo", "invariant-suite")
    assert MANIFOLDS == ("sphere", "flat", "finsler")


# sha256 of every default report on stdout, and of the determinant sidecar of
# each conjugate scan written with --out (its report embeds the sidecar's path)
REPORT_DIGESTS = {
    ("conjugate-scan", "sphere"): "8ac293516c58c9eba4ade4e094e5501f39b6b9b9b9bc117aa4c2bc73626d05e8",
    ("conjugate-scan", "flat"): "9d3ded6d68945c1a2256723d199b3bda13a3d951e36246904c43a127f3e32678",
    ("conjugate-scan", "finsler"): "47c22ab23608822f86733890a90849a60c24dc9171a694444cd4341f2571e904",
    ("lift-verify", "sphere"): "b30b655269ed3a3f8a4a9ce212cdd9ec9ce5d9b4d394fd16ae0a94921c4eff15",
    ("lift-verify", "flat"): "e734453239e426f5601ef225fa9118cc2f8619fb4066790941972f9c21bb8ab0",
    ("lift-verify", "finsler"): "4d365e5d8ba56a853f01933573157a3f8bdd3cf0f59e13e440e37c837bd2790d",
    ("flow-check", "sphere"): "ad36ff1868e0bcd39a2676d4e49b53a385c1afacd53dc05a90d33c7a0e0405ea",
    ("flow-check", "flat"): "7f977cdb8facc1a520933fd3c2b7401cdb05de75b6152f8c20f3fb0c08b03f7b",
    ("flow-check", "finsler"): "f6dd670fc2317cfb6025960ffa9cd6fbaae4b48068bba2f7afab428d047eba25",
    ("subspray-demo", "sphere"): "b46c3cd46453e0739fcbaa68a76806e712ccd0f3dcc0e959860dc13e82a32e9f",
    ("subspray-demo", "flat"): "b6faf232d99dd66d758a6056ea0fab27549fedf39bb50ea80ce3d428ece660ba",
    ("subspray-demo", "finsler"): "41102fc5507a243ad06d6bb27fcccd38f76c1f3a2c076a2cfb22ef64cefbbc1e",
    ("invariant-suite", "sphere"): "406673bcd3ffd620e3ac8e76b68eafd97923614d49cace4289995a3c5135f8fe",
    ("invariant-suite", "flat"): "ad0534607ba6b9d29401c49c0d28862be577520a448d278c88404fade30d1fa0",
    ("invariant-suite", "finsler"): "e8eef0de902617da9e45193cf32c5ef14f02eec35598cf729d1e99488fb1a7bb",
}
SIDECAR_DIGESTS = {
    "sphere": "5300537c9ea0a02cc3fb4e46eccc546a449c2f2ddb7f7eecaed47d887072bfa1",
    "flat": "9ab7fe2c5124edf097c56d1c376288359dcceed7277594db78379d3321403120",
    "finsler": "b34d5360719b83e17dc18d87fd0defcebf6bced233d3627eebdf4cfc01b3750e",
}


def test_every_report_is_pinned(tmp_path, capsys):
    for scenario in SCENARIOS:
        for manifold in MANIFOLDS:
            assert main(["--scenario", scenario, "--manifold", manifold]) == 0
            payload = capsys.readouterr().out.encode("utf-8")
            assert hashlib.sha256(payload).hexdigest() == REPORT_DIGESTS[scenario, manifold], \
                (scenario, manifold)
    for manifold in MANIFOLDS:
        out = tmp_path / f"{manifold}.json"
        assert main(["--scenario", "conjugate-scan", "--manifold", manifold,
                     "--out", str(out)]) == 0
        sidecar = (tmp_path / f"{manifold}.json.det.csv").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == SIDECAR_DIGESTS[manifold], manifold
