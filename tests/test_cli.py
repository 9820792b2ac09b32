import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import DATA_GRID
from lieorb import checks, cli, flows, liecore, symplecto
from lieorb.flows import FlowPolynomial
from lieorb.liecore import AlgebraSpec, DecompositionError, GroupElement, random_in_K
from lieorb.parabolic import z_k_coords
from lieorb.rootspace import weight_code
from lieorb.symplecto import section_lagrangian_check
from oracles import (
    check_flow_loop,
    check_kk_loop,
    random_in_K_single,
    reachable_buffers,
    re_omega_scale_loop,
    sample_points_loop,
    section_lagrangian_loop,
)


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


def test_witness_sees_planted_flow_fault(monkeypatch):
    flow_exact = checks.flow_exact

    def planted(data, V, U0):
        fp = flow_exact(data, V, U0)
        coeffs = fp.coeffs.copy()
        coeffs[-1, 0] += 1e-7  # ten times the eigen tolerance of the oracle gap
        return dataclasses.replace(fp, coeffs=coeffs)

    cfg = cli.parse_config(_cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=[1, 0, -1], checks=["flow"]))
    assert cli.run(cfg)["body"]["checks"]["flow"]["pass"]
    monkeypatch.setattr(checks, "flow_exact", planted)
    flow = cli.run(cfg)["body"]["checks"]["flow"]
    assert flow["max_oracle_gap"]["value"] >= 1e-7
    assert flow["max_oracle_gap"]["pass"] is False and flow["pass"] is False
    assert flow["max_commute_residual"]["pass"] and flow["max_roundtrip_residual"]["pass"]


def test_chart_gap_sees_a_planted_scaled_flow(monkeypatch):
    # exp_H scaled by 1 + 5e-9: Ad of a scalar multiple is unchanged, so the
    # round trip through invert_exp_H cannot see it, but the linear chart can
    exp_H = checks.exp_H

    def scaled(data, V):
        g = exp_H(data, V)
        return GroupElement(g.matrix * (1.0 + 5e-9))

    cfg = cli.parse_config(_cfg(algebra={"family": "sl", "n": 4, "field": "R"}, c=[3, 1, -1, -3], checks=["flow"]))
    flow = cli.run(cfg)["body"]["checks"]["flow"]
    assert flow["max_chart_gap"]["pass"] and flow["max_chart_gap"]["value"] <= 1e-14
    monkeypatch.setattr(checks, "exp_H", scaled)
    flow = cli.run(cfg)["body"]["checks"]["flow"]
    assert flow["max_chart_gap"]["value"] >= 4e-9
    assert flow["max_chart_gap"]["pass"] is False and flow["pass"] is False
    assert flow["max_roundtrip_residual"]["pass"] and flow["max_roundtrip_residual"]["value"] <= 1e-12


def test_check_flow_batch_matches_point_loop(ws):
    cfg = cli.parse_config(_cfg(samples=30))
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        section = checks.check_flow(SimpleNamespace(data=data, config=cfg), np.random.default_rng(17))
        rng = np.random.default_rng(17)
        V, U0 = rng.standard_normal((30, data.n_dim)), rng.standard_normal((30, data.n_dim))
        gap, hist, roundtrip = check_flow_loop(data, V, U0)
        assert section["degree_histogram"] == hist, (key, entries)
        assert abs(section["max_oracle_gap"]["value"] - gap) <= 1e-4 * cfg.tol("eigen"), (key, entries)
        assert abs(section["max_roundtrip_residual"]["value"] - roundtrip) <= 1e-4 * cfg.tol("decomposition")


def test_root_masks_see_planted_weight_fault():
    cfg = cli.parse_config(_cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=[1, 0, -1], checks=["roots"]))
    ctx = cli._Context(cfg)
    assert checks.check_roots(ctx, np.random.default_rng(0))["pass"]
    W = ctx.rs.weights.copy()
    W[ctx.rs.roots[0].members] *= 2  # a weight no root space carries
    ctx.rs = dataclasses.replace(ctx.rs, weights=W)
    section = checks.check_roots(ctx, np.random.default_rng(0))
    assert section["bracket_grading"]["value"] >= 1.0 and section["theta_pairing"]["value"] >= 1.0
    assert not section["bracket_grading"]["pass"] and not section["theta_pairing"]["pass"]
    assert section["dimension_bookkeeping"]["pass"] and section["pass"] is False


@pytest.mark.parametrize("field", "RC")
def test_bracket_grading_matches_the_dense_block(field):
    """bracket_grading, read off the nonzeros, is the max over the dense block of root-vector brackets
    whose weight codes do not add, on the true roots and with each root's weight planted wrong in turn."""
    cfg = cli.parse_config(_cfg(algebra={"family": "sl", "n": 3, "field": field}, c=[1, 0, -1], checks=["roots"]))
    ctx = cli._Context(cfg)
    alg, rs = ctx.algebra, ctx.rs
    for r in range(-1, len(rs.roots)):
        W = rs.weights.copy()
        if r >= 0:
            W[rs.roots[r].members] *= 2
        ctx.rs = dataclasses.replace(rs, weights=W)
        weight = weight_code(W)
        ri = np.flatnonzero(weight)
        outside = weight != weight[ri, None, None] + weight[ri, None]
        dense = float(np.max(np.abs(np.where(outside, alg.structure[np.ix_(ri, ri)], 0.0)), initial=0.0))
        assert checks.check_roots(ctx, np.random.default_rng(0))["bracket_grading"]["value"] == dense, r
        assert (dense > 0) == (r >= 0), r


def test_level_mask_sees_mislabelled_level():
    cfg = cli.parse_config(_cfg(algebra={"family": "sl", "n": 4, "field": "R"}, c=[1, 1, -1, -1],
                                checks=["parabolic"]))
    ctx = cli._Context(cfg)
    assert checks.check_parabolic(ctx, np.random.default_rng(0))["pass"]
    grades = ctx.data.grades.copy()
    grades[0] = 2 * grades[0]  # V_0 claims a level of its own inside the one level of n(c)
    ctx.data = dataclasses.replace(ctx.data, grades=grades)
    section = checks.check_parabolic(ctx, np.random.default_rng(0))
    assert section["stabilizer_invariance"]["value"] > 1e-3
    assert section["stabilizer_invariance"]["pass"] is False and section["pass"] is False


@pytest.mark.parametrize("n", [2, 3, 5])
def test_parabolic_takes_the_empty_stabilizer_draw(n):
    """At a regular sl(n, R) chamber z_k(c) = 0, so the stabilizer draw is an empty stack."""
    ctx, _ = _sampling_context("R", n, checks=["parabolic"])
    assert z_k_coords(ctx.data).shape == (0, ctx.algebra.dim)
    section = checks.check_parabolic(ctx, np.random.default_rng(0))
    assert section["stabilizer_invariance"]["value"] == 0.0 and section["pass"]


def test_import_loads_no_scipy():
    """lieorb runs on numpy alone: a fresh import of the CLI loads no scipy module."""
    code = "import lieorb.cli, sys; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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


def test_complex_entry_parts_read_rational_strings():
    """Each part of a complex entry is a number or a rational string, read exactly as a real entry is;
    a part that is no finite rational is still refused."""
    spec = {"family": "sl", "n": 2, "field": "C"}
    cfg = cli.parse_config(_cfg(algebra=spec, c=[{"re": "1/2", "im": 1}, {"re": -0.5, "im": "-1"}], checks=["kk"]))
    assert cfg.c_entries == (complex(0.5, 1), complex(-0.5, -1))
    assert cli.parse_config(_cfg(algebra=spec, c=[{"im": "1/3"}, {"im": "-1/3"}])).c_entries == (1j / 3, -1j / 3)
    assert cli.run(cfg)["body"]["checks"]["kk"]["pass"]
    for bad in ({"re": "1/2", "im": "inf"}, {"re": "1/0", "im": 1}, {"re": True, "im": 1}, {"im": True},
                {"re": 1, "im": False}):
        with pytest.raises(cli.ConfigurationError, match="bad entry"):
            cli.parse_config(_cfg(algebra=spec, c=[bad, {"re": "-1/2", "im": -1}]))


def test_fixture_is_a_subcommand_not_a_check():
    # a config naming "fixture" among its checks would run nothing and pass
    with pytest.raises(cli.ConfigurationError, match="unknown check 'fixture'"):
        cli.parse_config(_cfg(checks=["fixture"]))


def test_determinism_byte_identical():
    cfg = cli.parse_config(_cfg())
    a = cli.dumps_report(cli.run(cfg)["body"])
    b = cli.dumps_report(cli.run(cfg)["body"])
    assert a == b


def test_meta_records_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    meta = cli.run(cli.parse_config(_cfg(checks=["roots"])))["meta"]
    assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    assert json.loads(cli.dumps_report(meta))["blas_threads"]["MKL_NUM_THREADS"] is None


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

    # malformed values reach no traceback: each is a configuration error
    malformed = (
        {"c": [float("inf"), float("-inf")]},
        {"algebra": [2]},
        {"c": 5},
        {"tolerances": [1]},
        {"tolerances": {"structural": "abc"}},
        {"output_path": 5},
        {"samples": 2.5},
    )
    for i, change in enumerate(malformed):
        cfg_i = tmp_path / f"malformed{i}.json"
        cfg_i.write_text(json.dumps(_cfg(checks=["roots"], **change)))
        assert cli.main(["roots", "--config", str(cfg_i), "--out", str(out)]) == 2, change
    assert cli.main(["roots", "--config", str(path), "--seed", "-1000"]) == 2
    # an unwritable report path is a configuration error, not a traceback
    assert cli.main(["roots", "--config", str(path), "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert cli.main(["roots", "--config", str(path), "--out", str(tmp_path)]) == 2
    monkeypatch.setenv("LIEORB_SEED", "abc")
    assert cli.main(["roots", "--config", str(path)]) == 2
    monkeypatch.delenv("LIEORB_SEED")

    # absurd tolerance override forces a check failure -> exit 1
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(_cfg(checks=["symplecto"], tolerances={"finite_difference": 1e-30})))
    assert cli.main(["symplecto-verify", "--config", str(tight)]) == 1


def test_memory_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """A MemoryError that escapes a check is a precondition out of reach: exit 2 and one stderr
    line naming the subcommand, not a traceback and exit 1."""

    def out_of_memory(ctx, rng):
        raise MemoryError("Unable to allocate 11.5 GiB for an array with shape (15, 7140, 120, 120)")

    monkeypatch.setitem(checks.CHECK_FUNCS, "flow", out_of_memory)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(checks=["flow"])))
    assert cli.main(["flow-check", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "flow-check" in err and "11.5 GiB" in err and "Traceback" not in err, err
    assert not (tmp_path / "report.json").exists()


def test_large_grade_ratio_chamber_runs(tmp_path):
    # a grade ratio of 3002 must not reach the int64 guard or overflow a float
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(algebra={"family": "sl", "n": 3, "field": "R"},
                                    c=[1001, 1000, -2001], checks=["parabolic"])))
    out = tmp_path / "report.json"
    assert cli.main(["parabolic", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["body"]["pass"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_c_pullback_tangent_witness_holds(tmp_path, capsys, seed):
    """At c = (1/1000, 0, -1/1000), samples 20, these seeds exited 3 when the witness differenced perturbed
    fiber points; the exact fiber tangents leave only the report's own verdict."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=["1/1000", "0", "-1/1000"],
                                    samples=20)))
    out = tmp_path / "report.json"
    assert cli.main(["symplecto-verify", "--config", str(path), "--seed", str(seed), "--out", str(out)]) != 3
    assert "tangent" not in capsys.readouterr().err
    assert "pullback_max_residual" in json.loads(out.read_text())["body"]["checks"]["symplecto"]


SUBCOMMANDS = ("roots", "parabolic", "kk-check", "flow-check", "symplecto-verify", "arnold", "fixture")


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_complex_c_on_real_algebra_is_a_config_error(tmp_path, capsys, sub):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(algebra={"family": "sl", "n": 3, "field": "R"},
                                    c=[{"im": 1}, 0, {"im": -1}])))
    out = tmp_path / "report.json"
    assert cli.main([sub, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: complex entries require the realified family\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", [sub for sub in SUBCOMMANDS if sub != "arnold"])
def test_exactly_traceless_c_runs_when_its_float_sum_is_not_zero(tmp_path, capsys, sub):
    # the float entries sum to -1.8e-12, over an absolute 1e-12; the Fractions to 0
    c = ["20000/3", "20000/3", "8000/3", "-4000/3", "-16000/3", "-28000/3"]
    assert abs(sum(float(Fraction(e)) for e in c)) > 1e-12
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(algebra={"family": "sl", "n": 6, "field": "R"}, c=c, samples=8)))
    assert cli.main([sub, "--config", str(path), "--seed", "0", "--out", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("field,sub", [("R", sub) for sub in SUBCOMMANDS] + [("C", "arnold")])
def test_real_c_written_as_re_objects_is_read_as_real(tmp_path, capsys, field, sub):
    """c = [{"re": 1}, 0, {"re": -1}] runs exactly as c = [1, 0, -1]: same exit code, stderr and report body."""
    runs = []
    for i, c in enumerate(([1, 0, -1], [{"re": 1}, 0, {"re": -1}])):
        path, out = tmp_path / f"cfg{i}.json", tmp_path / f"report{i}.json"
        path.write_text(json.dumps(_cfg(algebra={"family": "sl", "n": 3, "field": field}, c=c)))
        code = cli.main([sub, "--config", str(path), "--out", str(out)])
        report = json.loads(out.read_text()) if out.exists() else {}
        runs.append((code, capsys.readouterr().err, json.dumps(report.get("body", report), sort_keys=True)))
    # arnold needs the realified family, so on sl(3, R) both runs exit 2
    assert runs[0][0] == (2 if (field, sub) == ("R", "arnold") else 0)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_rational_trace_is_decided_exactly(tmp_path, capsys, sub):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=["1/10000000000000", 0, 0])))
    out = tmp_path / "report.json"
    assert cli.main([sub, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: c must be traceless\n"
    assert not out.exists()


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
    inf, nan = float("inf"), float("nan")
    for change in (
        {"c": [inf, -inf]},
        {"c": [{"re": inf}, {"re": -inf}]},
        {"c": [nan, nan]},
        {"c": 5},
        {"c": None},
        {"algebra": [2]},
        {"algebra": {"family": "sl", "n": 2.5, "field": "R"}},
        {"checks": 5},
        {"tolerances": [1]},
        {"tolerances": {"structural": "abc"}},
        {"tolerances": {"structural": 0}},
        {"tolerances": {"eigen": -1e-8}},
        {"tolerances": {"decomposition": inf}},
        {"tolerances": {"decomposition": nan}},
        {"tolerances": {"finite_difference": True}},
        {"output_path": 5},
        {"samples": 2.5},
        {"samples": True},
        {"seed": -1},
        {"seed": 1.5},
    ):
        with pytest.raises(cli.ConfigurationError):
            cli.parse_config(_cfg(**change))
    cfg = cli.parse_config(_cfg(seed="7", samples=3, tolerances={"structural": 1}))
    assert (cfg.seed, cfg.samples, cfg.tol("structural")) == (7, 3, 1.0)


def _sampling_context(field, n, **kw):
    cfg = cli.parse_config(_cfg(algebra={"family": "sl", "n": n, "field": field}, c=list(range(n - 1, -n, -2)), **kw))
    return cli._Context(cfg), cfg


def _close(got, ref):
    return abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("field, n", [("R", 4), ("C", 3)])
def test_batched_draws_match_sample_loops(field, n):
    """Each batched sampler draws what the per-sample loop draws, in the same order."""
    ctx, cfg = _sampling_context(field, n, samples=20)
    alg, data = ctx.algebra, ctx.data
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    pts = checks._sample_points(data, rng, 7)
    k_ref, V_ref = sample_points_loop(data, ref, 7)
    np.testing.assert_array_equal(pts.k, k_ref)
    np.testing.assert_array_equal(pts.V, V_ref)
    np.testing.assert_array_equal(random_in_K(alg, rng, (3,)).matrix, [random_in_K_single(alg, ref) for _ in range(3)])
    assert rng.bit_generator.state == ref.bit_generator.state

    value = section_lagrangian_check(data, ctx.split, rng, samples=5)
    assert _close(value, section_lagrangian_loop(data, ref, 5))
    assert rng.bit_generator.state == ref.bit_generator.state

    section = checks.check_kk(ctx, rng)
    c = alg.element_from_entries(ctx.real_entries)
    expected = check_kk_loop(alg, c, ref, max(5, cfg.samples // 4), data)
    assert set(expected) <= set(section)
    for key, value in expected.items():
        assert _close(section[key]["value"], value), key
    assert rng.bit_generator.state == ref.bit_generator.state


def test_arnold_scale_check_matches_sample_loop():
    ctx, _ = _sampling_context("C", 3, checks=["arnold"], samples=20)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    out = checks.check_arnold(ctx, rng)
    gap = re_omega_scale_loop(ctx.algebra, ctx.algebra.element_from_entries(ctx.real_entries), ref)
    assert _close(out["re_omega_scale_gap"]["value"], gap)
    assert out["symplecto"] == checks.check_symplecto(ctx, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_parse_entry_raises_its_own_error_once():
    for c, message in (
        ([True, 0, -1], "bad entry True"),
        ([{"re": 0.5}, {"re": -0.5}, 0], "float entries must be integral; use strings for rationals"),
    ):
        with pytest.raises(cli.ConfigurationError) as err:
            cli.parse_config(_cfg(algebra={"family": "sl", "n": 3, "field": "R"}, c=c))
        assert str(err.value) == message


def _clear_structure_caches():
    cli._structure.cache_clear()
    cli._hyperbolic.cache_clear()


def _cached_config(n, field, c, **kw):
    return _cfg(algebra={"family": "sl", "n": n, "field": field}, c=c, **kw)


@pytest.mark.parametrize("n, field, c", [(3, "R", [2, 0, -2]), (4, "C", [3, 1, -1, -3]),
                                         (3, "C", [{"im": 1}, 0, {"im": -1}]), (3, "R", [-1, 0, 1])])
def test_warm_cache_reports_match_cold(tmp_path, capsys, n, field, c):
    """Each subcommand gives the same exit code, stderr and report body on a warm cache as after clearing it."""
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(_cached_config(n, field, c)))

    def report(sub):
        out.unlink(missing_ok=True)
        code = cli.main([sub, "--config", str(path), "--out", str(out)])
        written = json.loads(out.read_text()) if out.exists() else {}
        return code, capsys.readouterr().err, cli.dumps_report(written.get("body", written))

    for sub in SUBCOMMANDS:
        _clear_structure_caches()
        cold = report(sub)
        assert report(sub) == cold, sub


@pytest.mark.parametrize("part", ["algebra.structure", "algebra.nonzeros.0", "algebra.nonzeros.1", "algebra.nonzeros.2",
                                  "algebra.nonzeros.3", "algebra.basis", "split.k_coords", "rs.a_coords", "rs.weights", "data.adn",
                                  "data.block_grades"])
def test_cached_structure_is_read_only(part):
    ctx = cli._Context(cli.parse_config(_cached_config(3, "R", [2, 0, -2])))
    holder, name, *index = part.split(".")
    array = getattr(getattr(ctx, holder), name)
    array = array[int(index[0])] if index else array
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1


@pytest.mark.parametrize("n, field", [(3, "R"), (4, "C")])
def test_cached_structure_holds_no_dim3_array(n, field):
    """After roots and parabolic reports, no dim^3 buffer is reachable from the cached entries: the
    structure constants stay nonzeros, and their dense view is not built."""
    _clear_structure_caches()
    cfg = cli.parse_config(_cached_config(n, field, list(range(n - 1, -n, -2)), checks=["roots", "parabolic"]))
    assert all(section["pass"] for section in cli.run(cfg)["body"]["checks"].values())
    entry = cli._structure(cfg.algebra)
    algebra = entry[0]
    assert "structure" not in vars(algebra)
    assert not [x for x in reachable_buffers((entry, cli._Context(cfg).data)) if x.size >= algebra.dim**3]


@pytest.mark.parametrize("field", ["R", "C"])
def test_form_checks_build_no_dense_structure(field):
    """kk, symplecto and arnold evaluate every form on matrices: after them the cached algebra holds no
    dense structure view, and the fixture still writes the dense constants, scattered from the nonzeros."""
    _clear_structure_caches()
    names = ["kk", "symplecto"] + (["arnold"] if field == "C" else [])
    cfg = cli.parse_config(_cached_config(3, field, [1, 0, -1], checks=names))
    assert all(section["pass"] for section in cli.run(cfg)["body"]["checks"].values())
    algebra = cli._structure(cfg.algebra)[0]
    assert "structure" not in vars(algebra)
    dense = np.zeros((algebra.dim,) * 3)
    i, j, k, v = algebra.nonzeros
    dense[i, j, k] = v
    assert cli.emit_fixture(cfg)["structure_constants"] == dense.tolist()


def test_planted_fault_stays_in_its_context():
    cfg = cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["roots", "parabolic"]))
    ctx = cli._Context(cfg)
    rs, data = ctx.rs, ctx.data
    W = rs.weights.copy()
    W[rs.roots[0].members] *= 2
    ctx.rs = dataclasses.replace(rs, weights=W)
    ctx.data = dataclasses.replace(data, grades=2 * data.grades)
    assert not checks.check_roots(ctx, np.random.default_rng(0))["pass"]
    fresh = cli._Context(cfg)
    assert fresh.rs is rs and fresh.data is data
    np.testing.assert_array_equal(fresh.data.grades, [2.0, 2.0, 4.0])
    assert checks.check_roots(fresh, np.random.default_rng(0))["pass"]


def test_symplecto_section_flows_each_sample_once(monkeypatch):
    """One symplecto section makes two exp_H calls, on the sample points and on the zero section, and reads
    its bundle points off pullback_residual: they are phi_lambda's, bit for bit."""
    cfg = cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["symplecto"]))
    ctx = cli._Context(cfg)
    calls, returned = [], []
    exp_H, pullback_residual = symplecto.exp_H, checks.pullback_residual
    monkeypatch.setattr(symplecto, "exp_H", lambda d, V: calls.append(np.shape(V)) or exp_H(d, V))
    monkeypatch.setattr(checks, "pullback_residual", lambda d, pt: returned.append((pt, pullback_residual(d, pt)))
                        or returned[-1][1])
    assert checks.check_symplecto(ctx, np.random.default_rng(0))["pass"]
    assert calls == [(cfg.samples, ctx.data.n_dim)] * 2
    [(pts, (_, on))] = returned
    ref = symplecto.phi_lambda(ctx.data, pts, validate=False)
    assert [x.tobytes() for x in (on.g, on.w, on.w_coords)] == [x.tobytes() for x in (ref.g, ref.w, ref.w_coords)]


def test_cached_chamber_builds_one_chart_frame(monkeypatch):
    """Two reports on one cached chamber make one frame expm, and the frames they share are read-only."""
    _clear_structure_caches()
    shapes = []
    expm = symplecto.expm
    monkeypatch.setattr(symplecto, "expm", lambda M: shapes.append(M.shape) or expm(M))
    cfg = cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["symplecto"]))
    first, second = cli.run(cfg), cli.run(cfg)
    assert cli.dumps_report(first["body"]) == cli.dumps_report(second["body"])
    assert shapes == [(2, 3, 3, 3)]
    data = cli._Context(cfg).data
    for array in [*symplecto.chart_frame(data), *flows._kernel_frame(data)]:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


def test_replaced_data_builds_its_own_frames():
    """A planted fault in a replaced data reaches the frames built from it, and the checks catch it."""
    cfg = cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["symplecto"]))
    ctx = cli._Context(cfg)
    data = ctx.data
    assert checks.check_symplecto(ctx, np.random.default_rng(0))["pass"]
    # c doubled: the chart's denominators double, so its n leaves the flow's, which does not read c
    ctx.data = dataclasses.replace(data, c=2 * data.c)
    planted, kept = flows._kernel_frame(ctx.data), flows._kernel_frame(data)
    np.testing.assert_array_equal(planted.dens[planted.masks], 2 * kept.dens[kept.masks])
    with pytest.raises(DecompositionError, match=r"^pullback_residual: exp_H\(V\) leaves the linear chart"):
        checks.check_symplecto(ctx, np.random.default_rng(0))
    # n(c)'s basis doubled: so are the horizontal directions, and X_b no longer moves w by -Ad(k) V_b
    ctx.data = dataclasses.replace(data, n_basis=2 * data.n_basis)
    np.testing.assert_array_equal(symplecto.chart_frame(ctx.data).Ys, 2 * symplecto.chart_frame(data).Ys)
    with pytest.raises(DecompositionError, match="^pullback_residual: tangent witness disagrees"):
        checks.check_symplecto(ctx, np.random.default_rng(0))
    fresh = cli._Context(cfg)
    assert fresh.data is data and checks.check_symplecto(fresh, np.random.default_rng(0))["pass"]


def test_replaced_data_gets_fresh_certificates():
    """After the chamber's certificates are built, a replaced data with one planted bracket entry builds its own:
    the planted bracket breaks antisymmetry, so the flows of two basis vectors no longer commute."""
    cfg = cli.parse_config(_cached_config(4, "R", [3, 1, -1, -3], checks=["kk", "flow"]))
    ctx = cli._Context(cfg)
    data = ctx.data
    warm = cli.run(cfg)["body"]["checks"]
    assert warm["flow"]["pass"] and warm["flow"]["max_commute_residual"]["value"] <= 1e-15
    adn = data.adn.copy()
    adn[0, 5, 4] *= 2  # c_{b_0 b_4 b_5}, against an unplanted c_{b_4 b_0 b_5}
    ctx.data = dataclasses.replace(data, adn=adn)
    flow = checks.check_flow(ctx, np.random.default_rng(0))
    assert flow["max_commute_residual"]["value"] > 1e-3 and not flow["max_commute_residual"]["pass"]
    assert checks.check_kk(ctx, np.random.default_rng(0))["nondegeneracy"] == warm["kk"]["nondegeneracy"]
    assert cli.run(cfg)["body"]["checks"] == warm


def test_tolerance_overrides_judge_cached_certificates():
    """Two configs at one chamber that differ only in a tolerance each get their own pass."""
    _clear_structure_caches()
    loose, strict = (cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["roots", "kk"], tolerances=tol))
                     for tol in ({}, {"decomposition": 1e-30, "eigen": 1e3}))
    runs = [cli.run(cfg)["body"]["checks"] for cfg in (loose, strict, loose, strict)]
    assert runs[0] == runs[2] and runs[1] == runs[3]
    for key, section, tol in (("k_from_roots", "roots", 1e-30), ("nondegeneracy", "kk", 1e3)):
        assert runs[0][section][key]["pass"] and runs[0][section]["pass"]
        assert runs[1][section][key] == {**runs[0][section][key], "tol": tol, "pass": False}
        assert not runs[1][section]["pass"]


def test_second_report_recomputes_no_certificate(monkeypatch):
    """A second flow-check flows no basis pair, and a second kk-check makes no nondegeneracy_check call:
    both values come from the chamber's certificates."""
    _clear_structure_caches()
    calls = []
    for name in ("commute_residual", "nondegeneracy_check"):
        monkeypatch.setattr(checks, name, lambda *a, name=name, f=getattr(checks, name): calls.append(name) or f(*a))
    cfg = cli.parse_config(_cached_config(4, "R", [3, 1, -1, -3], checks=["flow", "kk"]))
    first = cli.run(cfg)
    assert calls == ["commute_residual", "nondegeneracy_check"]
    second = cli.run(cfg)
    assert calls == ["commute_residual", "nondegeneracy_check"]
    assert cli.dumps_report(first["body"]) == cli.dumps_report(second["body"])
    assert [r["meta"]["structure"]["certificates_reused"] for r in (first, second)] == [False, True]
    assert first["meta"]["structure"]["certificates_s"] > 0 == second["meta"]["structure"]["certificates_s"]


def test_meta_records_structure_reuse():
    roots = cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["roots"]))
    parabolic = cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["parabolic"]))
    _clear_structure_caches()
    runs = [cli.run(cfg) for cfg in (roots, roots, parabolic, parabolic)]
    # the first parabolic run finds the algebra cached but builds the chamber's data
    assert [r["meta"]["structure"]["reused"] for r in runs] == [False, True, False, True]
    assert all(isinstance(r["meta"]["structure"]["s"], float) and r["meta"]["structure"]["s"] >= 0 for r in runs)
    assert cli.dumps_report(runs[0]["body"]) == cli.dumps_report(runs[1]["body"])
    assert cli.dumps_report(runs[2]["body"]) == cli.dumps_report(runs[3]["body"])


@pytest.mark.parametrize("field, c, moved", [("R", [3, 1, -1, -3], 3), ("C", [2, 0, -2], 3),
                                             ("C", [{"im": 1}, 0, {"im": -1}], 0)])
def test_kk_check_makes_one_expm_call(monkeypatch, field, c, moved):
    """g and h of each of the max(5, 24 // 4) = 6 samples and, on a real c, the 3 elements that
    move the fiber are exponentiated in one call."""
    shapes, expm = [], liecore.expm
    for module in (liecore, checks, symplecto):  # every module that holds the name
        monkeypatch.setattr(module, "expm", lambda M: shapes.append(M.shape) or expm(M))
    cfg = cli.parse_config(_cached_config(len(c), field, c, checks=["kk"], samples=24))
    assert cli.run(cfg)["body"]["checks"]["kk"]["pass"]
    d = 2 * len(c) if field == "C" else len(c)
    assert shapes == [(2 * 6 + moved, d, d)]


def test_symplecto_section_draws_its_points_once(monkeypatch):
    """The pullback and Liouville points come from one draw: the rows of two draws in turn, bit for bit."""
    cfg = cli.parse_config(_cached_config(3, "R", [2, 0, -2], checks=["symplecto"], samples=12))
    ctx = cli._Context(cfg)
    counts, taken = [], []
    sample, pullback, liouville = checks._sample_points, checks.pullback_residual, checks.liouville_fd_gap
    monkeypatch.setattr(checks, "_sample_points", lambda d, rng, count: counts.append(count) or sample(d, rng, count))
    monkeypatch.setattr(checks, "pullback_residual", lambda d, pt: taken.append(pt) or pullback(d, pt))
    monkeypatch.setattr(checks, "liouville_fd_gap", lambda d, pt: taken.append(pt) or liouville(d, pt))
    assert checks.check_symplecto(ctx, np.random.default_rng(4))["pass"]
    assert counts == [12 + 2]
    ref = np.random.default_rng(4)
    for got, want in zip(taken, [sample(ctx.data, ref, 12), sample(ctx.data, ref, 2)], strict=True):
        assert (got.k.tobytes(), got.V.tobytes()) == (want.k.tobytes(), want.V.tobytes())

