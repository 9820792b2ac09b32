import json

import pytest

from lieorb import cli


def _cfg(**kw):
    base = {
        "algebra": {"family": "sl", "n": 2, "field": "R"},
        "c": [1, -1],
        "checks": ["roots", "parabolic", "kk", "flow", "symplecto"],
        "seed": 3,
        "samples": 5,
    }
    base.update(kw)
    return base


def test_full_run_sl2r_passes():
    rep = cli.run(cli.parse_config(_cfg()))
    assert rep["body"]["pass"]
    assert set(rep["body"]["checks"]) == {"roots", "parabolic", "kk", "flow", "symplecto"}


def test_arnold_scenario():
    cfg = _cfg(
        algebra={"family": "sl", "n": 3, "field": "C"},
        c=[1, 0, -1],
        checks=["arnold"],
        samples=4,
    )
    rep = cli.run(cli.parse_config(cfg))
    arn = rep["body"]["checks"]["arnold"]
    assert arn["pass"]
    assert arn["re_exact"] is True and arn["im_exact"] is False
    assert arn["symplecto"]["pullback_max_residual"]["value"] < 1e-6
    assert arn["ad_spectrum_gap"]["pass"]


def test_kk_imaginary_branch():
    cfg = _cfg(
        algebra={"family": "sl", "n": 2, "field": "C"},
        c=[{"re": 0, "im": 1}, {"re": 0, "im": -1}],
        checks=["kk"],
    )
    rep = cli.run(cli.parse_config(cfg))
    kk = rep["body"]["checks"]["kk"]
    assert kk["pass"]
    assert kk["exactness_verdict"]["re_exact"] is False
    assert kk["exactness_verdict"]["im_exact"] is True


def test_config_errors():
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(algebra={"family": "so", "n": 3}))
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(c=[1, 1]))  # not traceless
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(checks=[]))
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(checks=["bogus"]))
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(c=[0.5, -0.5]))  # non-integral floats need strings
    assert cli.parse_config(_cfg(c=["1/2", "-1/2"])) is not None


def test_determinism_byte_identical():
    cfg = cli.parse_config(_cfg())
    a = cli.dumps_report(cli.run(cfg)["body"])
    b = cli.dumps_report(cli.run(cfg)["body"])
    assert a == b


def test_seed_changes_only_stochastic_sections():
    fx1 = cli.emit_fixture(cli.parse_config(_cfg(seed=1)))
    fx2 = cli.emit_fixture(cli.parse_config(_cfg(seed=99)))
    assert cli.dumps_report(fx1) == cli.dumps_report(fx2)


def test_fixture_contents():
    cfg = cli.parse_config(_cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=[1, 0, -1]))
    fx = cli.emit_fixture(cfg)
    assert len(fx["roots"]) == 6
    assert fx["N0"] == 1
    assert fx["eigenvalue_ladder"] == [[1.0, 2], [2.0, 1]]
    again = cli.emit_fixture(cfg)
    assert cli.dumps_report(fx) == cli.dumps_report(again)


def test_main_exit_codes(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(checks=["roots"])))
    out = tmp_path / "report.json"
    assert cli.main(["roots", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["body"]["pass"]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["roots", "--config", str(bad)]) == 2

    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(_cfg(algebra={"family": "so", "n": 3})))
    assert cli.main(["roots", "--config", str(bad2)]) == 2

    # absurd tolerance override forces a check failure -> exit 1
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(_cfg(checks=["symplecto"], tolerances={"finite_difference": 1e-30})))
    assert cli.main(["symplecto-verify", "--config", str(tight)]) == 1


def test_large_grade_ratio_chamber_runs(tmp_path):
    # a grade ratio of 3002 must not reach the int64 guard or overflow a float
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(algebra={"family": "sl", "n": 3, "field": "R"},
                                    c=[1001, 1000, -2001], checks=["parabolic"])))
    out = tmp_path / "report.json"
    assert cli.main(["parabolic", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["body"]["pass"]


def test_env_seed_override(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(checks=["symplecto"], seed=1)))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    monkeypatch.setenv("LIEORB_SEED", "42")
    assert cli.main(["symplecto-verify", "--config", str(path), "--out", str(out1)]) == 0
    monkeypatch.delenv("LIEORB_SEED")
    assert cli.main(["symplecto-verify", "--config", str(path), "--seed", "42", "--out", str(out2)]) == 0
    assert json.loads(out1.read_text())["body"] == json.loads(out2.read_text())["body"]


def test_tolerance_override_validation():
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(tolerances={"bogus": 1.0}))


def test_unsorted_c_is_chamber_sorted():
    cfg = _cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=[-1, 0, 1], checks=["parabolic"])
    rep = cli.run(cli.parse_config(cfg))
    sec = rep["body"]["checks"]["parabolic"]
    assert sec["pass"]
    assert sec["eigenvalues"] == [[1.0, 2], [2.0, 1]]


def test_malformed_entries():
    for bad in (["abc", "x", "y"], [{"re": "z", "im": 0}, 0, 0], ["1/0", "-1", "0"]):
        with pytest.raises(cli.ConfigurationError):
            cli.parse_config(_cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=bad))
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(samples=0))
    with pytest.raises(cli.ConfigurationError):
        cli.parse_config(_cfg(seed="later"))
