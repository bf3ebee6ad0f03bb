import json

import numpy as np
import pytest

from stretchlab import cli


def run(tmp_path, command, config=None, out="out"):
    args = [command, "--out", str(tmp_path / out)]
    if config is not None:
        cfg = tmp_path / f"{command}_config.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    return cli.main(args)


def read_report(tmp_path, name, out="out"):
    return json.loads((tmp_path / out / name).read_text())


def test_rep_command(tmp_path):
    assert run(tmp_path, "rep", {"target": {"twist": {"curve": "a1", "t": 0.5}}}) == 0
    rep = read_report(tmp_path, "rep_report.json")
    assert rep["sigma"]["relator_residual"] <= 1e-9
    for l in rep["sigma"]["generator_lengths"].values():
        assert l == pytest.approx(rep["sigma"]["expected_length"], abs=1e-9)
    assert (tmp_path / "out" / "sigma.json").exists()
    assert (tmp_path / "out" / "rho.json").exists()


def test_length_command(tmp_path):
    cfg = {"multicurve": [{"word": "a1", "weight": 1.0}]}
    assert run(tmp_path, "length", cfg) == 0
    rep = read_report(tmp_path, "length_report.json")
    assert rep["total_length"] == pytest.approx(3.05714, abs=1e-4)
    assert rep["config_hash"]
    assert rep["version"]


def test_kbound_identity_is_one(tmp_path):
    assert run(tmp_path, "kbound", {"max_word_len": 2}) == 0
    rep = read_report(tmp_path, "kbound_report.json")
    assert rep["k_lower_bound"] == 1.0


def test_kbound_twist_target(tmp_path):
    cfg = {"target": {"twist": {"curve": "a1", "t": 0.5}}, "max_word_len": 3}
    assert run(tmp_path, "kbound", cfg) == 0
    assert read_report(tmp_path, "kbound_report.json")["k_lower_bound"] > 1.0


def test_duality_matrix_passes(tmp_path):
    assert run(tmp_path, "duality") == 0
    rep = read_report(tmp_path, "duality_report.json")
    assert len(rep["cases"]) == 12
    assert rep["worst_rel_err"] <= 1e-6


def test_duality_threshold_breach_exit_code(tmp_path):
    assert run(tmp_path, "duality", {"threshold": 1e-16}) == cli.EXIT_THRESHOLD


def test_mass_command(tmp_path):
    cfg = {"multicurve": [{"word": "a1", "weight": 1.0}, {"word": "b2", "weight": 0.5}]}
    assert run(tmp_path, "mass", cfg) == 0
    rep = read_report(tmp_path, "mass_report.json")
    assert rep["mass"] == pytest.approx(rep["two_length"], rel=1e-12)
    assert rep["duality_lower_bound"] <= rep["mass"] + 1e-9


def test_mass_empty_multicurve(tmp_path):
    assert run(tmp_path, "mass", {"multicurve": []}) == 0
    rep = read_report(tmp_path, "mass_report.json")
    assert rep["mass"] == 0.0


def test_wolpert_command(tmp_path):
    assert run(tmp_path, "wolpert") == 0
    rep = read_report(tmp_path, "wolpert_report.json")
    assert rep["worst_rel_err"] <= 1e-5


def test_config_error_exit_code(tmp_path):
    assert run(tmp_path, "length", {"multicurve": "nonsense"}) == cli.EXIT_CONFIG
    assert run(tmp_path, "kbound", {"target": {"twist": {"curve": "zz", "t": 1}}}) == cli.EXIT_CONFIG
    # malformed JSON file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["rep", "--config", str(bad), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    for max_len in (0, 9, 2.5, "6"):
        assert run(tmp_path, "kbound", {"max_word_len": max_len}) == cli.EXIT_CONFIG
        twist_cfg = {"target": {"type": "twist", "curve": "a1", "t": 0.5}, "max_word_len": max_len}
        assert run(tmp_path, "solve", twist_cfg) == cli.EXIT_CONFIG


def test_solve_cylinder(tmp_path):
    cfg = {"target": {"type": "cylinder", "a": 2.0, "b": 3.0}, "p_schedule": [2, 8], "n_segments": 48}
    # p=8 reaches the exact stretch but stops on a line-search stall short
    # of tol: the surface path's rule makes that a numeric failure
    assert run(tmp_path, "solve", cfg) == 3
    rep = read_report(tmp_path, "solve_summary.json")
    assert rep["final_stretch"] == pytest.approx(1.5, abs=1e-3)
    assert [s["line_search_failure"] for s in rep["stages"]] == [False, True]
    assert not rep["stages"][1]["converged"]
    # cylinder rows carry the surface rows' evaluation counters, so the
    # summary shows how far from tol the failing stage stopped
    for s in rep["stages"]:
        assert {"grad_norm", "energy_evals", "grad_evals"} <= set(s)
        assert s["grad_evals"] <= s["energy_evals"]
    p8 = rep["stages"][1]
    assert p8["grad_norm"] > 1e-7 * max(1.0, p8["J_p"])


def test_solve_twist_with_resume_and_report(tmp_path):
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_iter": 5,
        "max_word_len": 4,
    }
    assert run(tmp_path, "solve", cfg) == 0
    rep1 = read_report(tmp_path, "solve_summary.json")
    assert (tmp_path / "out" / "solve_stage_p2.csv").exists()
    assert (tmp_path / "out" / "checkpoint.npz").exists()
    assert not (tmp_path / "out" / "checkpoint.tmp.npz").exists()
    assert rep1["k_lower_bound"] > 1.0
    assert all(s["iterations"] == cfg["max_iter"] for s in rep1["stages"])
    # resume reproduces stage values and re-measures the tolerance test at
    # the loaded point instead of reporting the stage converged
    assert run(tmp_path, "solve", cfg) == 0
    rep2 = read_report(tmp_path, "solve_summary.json")
    for s1, s2 in zip(rep1["stages"], rep2["stages"]):
        assert s2["stage_value"] == pytest.approx(s1["stage_value"], rel=1e-9)
        assert s2["converged"] == (s2["grad_norm"] <= 1e-7 * max(1.0, s2["J_p"]))
    # aggregate report
    assert run(tmp_path, "report", {"dir": str(tmp_path / "out")}) == 0
    agg = read_report(tmp_path, "report.json")
    assert "solve_summary.json" in agg["collected"]


def test_solve_reports_evaluation_counters(tmp_path):
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 2,
        "p_schedule": [2, 4, 8],
        "max_word_len": 2,
    }
    assert run(tmp_path, "solve", cfg) == 0
    stages = read_report(tmp_path, "solve_summary.json")["stages"]
    assert [s["iterations"] for s in stages] == [66, 37, 37]
    for s in stages:
        # one gradient at the start point and one per accepted step; every
        # Armijo trial costs one energy evaluation
        assert s["energy_evals"] >= s["grad_evals"]
        assert s["grad_evals"] <= s["iterations"] + 1
    # p=2 takes a step on every iteration; at p=4 and p=8 three line searches
    # fail and restart the Barzilai-Borwein estimate without a step
    assert stages[0]["grad_evals"] == stages[0]["iterations"] + 1
    assert [s["grad_evals"] for s in stages[1:]] == [34, 34]
    # a resumed stage evaluates the loaded point once
    assert run(tmp_path, "solve", cfg) == 0
    for s in read_report(tmp_path, "solve_summary.json")["stages"]:
        assert (s["iterations"], s["energy_evals"], s["grad_evals"]) == (0, 1, 1)


def test_solve_ignores_checkpoint_from_another_config(tmp_path):
    cfg_a = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_iter": 5,
        "max_word_len": 2,
    }
    cfg_b = dict(cfg_a, max_iter=7)
    assert run(tmp_path, "solve", cfg_a) == 0
    hash_a = read_report(tmp_path, "solve_summary.json")["config_hash"]
    # B's stages are solved afresh, not loaded from A's checkpoint
    assert run(tmp_path, "solve", cfg_b) == 0
    rep_b = read_report(tmp_path, "solve_summary.json")
    assert rep_b["config_hash"] != hash_a
    assert [s["iterations"] for s in rep_b["stages"]] == [cfg_b["max_iter"]] * 2
    with np.load(tmp_path / "out" / "checkpoint.npz") as ck:
        assert str(ck["config_hash"]) == rep_b["config_hash"]


def test_solve_unreadable_checkpoint_is_config_error(tmp_path, capsys):
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2],
        "max_iter": 5,
        "max_word_len": 2,
    }
    assert run(tmp_path, "solve", cfg) == 0
    ck = tmp_path / "out" / "checkpoint.npz"
    data = ck.read_bytes()
    ck.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    assert run(tmp_path, "solve", cfg) == cli.EXIT_CONFIG
    assert f"config error: unreadable checkpoint {ck}" in capsys.readouterr().err
    assert ck.read_bytes() == data[: len(data) // 2]


def test_solve_resumed_nan_map_is_numeric_failure(tmp_path):
    # a checkpoint whose class points are NaN resumes to a non-finite J_p
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_word_len": 3,
    }
    assert run(tmp_path, "solve", cfg) == 0
    ck = tmp_path / "out" / "checkpoint.npz"
    with np.load(ck) as data:
        arrays = {k: data[k] for k in data.files}
    for p in (2, 4):
        arrays[f"class_points_p{p}"] = np.full_like(arrays[f"class_points_p{p}"], np.nan)
    np.savez(ck, **arrays)
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC
    stages = read_report(tmp_path, "solve_summary.json")["stages"]
    assert [s["p"] for s in stages] == [2, 4]
    assert all(not np.isfinite(s["J_p"]) for s in stages)


def test_solve_large_twist_is_numeric_failure(tmp_path):
    # the rep overflows float64, so the stage ends on a line-search failure at J_p = NaN
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 1e3},
        "mesh_level": 1,
        "p_schedule": [2],
        "max_word_len": 3,
    }
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC


def test_solve_rejects_unknown_target(tmp_path):
    assert run(tmp_path, "solve", {"target": {"type": "nonsense"}}) == cli.EXIT_CONFIG


def test_reports_embed_hash_and_tolerances(tmp_path):
    assert run(tmp_path, "duality", {"threshold": 1e-5}) == 0
    rep = read_report(tmp_path, "duality_report.json")
    assert set(rep["tolerances"]) >= {"duality_rel_err", "mass_exact"}
    assert len(rep["config_hash"]) == 16


def test_solve_identity_target(tmp_path):
    cfg = {"target": {"type": "identity"}, "mesh_level": 2, "p_schedule": [2, 4]}
    assert run(tmp_path, "solve", cfg) == 0
    rep = read_report(tmp_path, "solve_summary.json")
    assert rep["stages"][0]["J_p"] == pytest.approx(2.0 * rep["area"], rel=0.05)
    assert "k_lower_bound" not in rep


def test_malformed_word_is_config_error(tmp_path):
    cfg = {"multicurve": [{"word": "zz9", "weight": 1.0}]}
    assert run(tmp_path, "length", cfg) == cli.EXIT_CONFIG


def test_non_hyperbolic_word_is_numeric_error(tmp_path):
    cfg = {"multicurve": [{"word": "a1 a1^-1", "weight": 1.0}]}
    assert run(tmp_path, "length", cfg) == cli.EXIT_NUMERIC


def test_kbound_with_file_loaded_rep(tmp_path):
    # write rho to a file via cmd_rep, then load it back as the kbound target
    assert run(tmp_path, "rep", {"target": {"twist": {"curve": "b2", "t": 0.4}}}) == 0
    rho_file = str(tmp_path / "out" / "rho.json")
    cfg = {"target": {"file": rho_file}, "max_word_len": 2}
    assert run(tmp_path, "kbound", cfg, out="out2") == 0
    rep = read_report(tmp_path, "kbound_report.json", out="out2")
    assert rep["k_lower_bound"] > 1.0


def test_rep_file_round_trip_preserves_residual(tmp_path):
    from stretchlab import fuchsian

    assert run(tmp_path, "rep") == 0
    back = fuchsian.rep_from_json_file(tmp_path / "out" / "sigma.json")
    assert back.relator_residual() <= 1e-9
