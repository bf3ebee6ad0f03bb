import csv
import hashlib
import json
import os
import subprocess
import sys

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


def test_non_finite_error_is_numeric_failure(tmp_path):
    # a step of 1e3 gives NaN errors for some cases, which max() used to drop
    for command in ("duality", "wolpert"):
        assert run(tmp_path, command, {"step": 1e3}, out=command) == cli.EXIT_NUMERIC
        rep = read_report(tmp_path, f"{command}_report.json", out=command)
        assert not np.isfinite(rep["worst_rel_err"])


def test_mass_overflow_is_numeric_failure(tmp_path):
    # a weight of 1e308 overflows every total: the NaN gaps are a numeric
    # failure, not a threshold breach
    assert run(tmp_path, "mass", {"multicurve": [{"word": "a1", "weight": 1e308}]}) == cli.EXIT_NUMERIC
    rep = read_report(tmp_path, "mass_report.json")
    assert not np.isfinite([rep["mass"], rep["two_length"], rep["duality_lower_bound"]]).any()


def test_length_overflow_is_numeric_failure(tmp_path):
    assert run(tmp_path, "length", {"multicurve": [{"word": "a1", "weight": 1e308}]}) == cli.EXIT_NUMERIC
    assert read_report(tmp_path, "length_report.json")["total_length"] == np.inf


def test_mass_command(tmp_path):
    cfg = {"multicurve": [{"word": "a1", "weight": 1.0}, {"word": "b2", "weight": 0.5}]}
    assert run(tmp_path, "mass", cfg) == 0
    rep = read_report(tmp_path, "mass_report.json")
    assert rep["mass"] == pytest.approx(rep["two_length"], rel=1e-12)
    assert rep["duality_lower_bound"] <= rep["mass"] + 1e-9


def test_mass_command_long_word(tmp_path):
    # the float64 Ad-drift of its generator is 5.6e-8 at entries near 2e4:
    # an absolute 1e-8 check exited 3 here
    assert run(tmp_path, "mass", {"multicurve": [{"word": "a1 b1 a2 b2", "weight": 1.0}]}) == 0
    rep = read_report(tmp_path, "mass_report.json")
    assert rep["mass"] == pytest.approx(rep["two_length"], rel=1e-12)


def test_mass_empty_multicurve(tmp_path):
    assert run(tmp_path, "mass", {"multicurve": []}) == 0
    rep = read_report(tmp_path, "mass_report.json")
    assert rep["mass"] == 0.0


def test_wolpert_command(tmp_path):
    assert run(tmp_path, "wolpert") == 0
    rep = read_report(tmp_path, "wolpert_report.json")
    assert rep["worst_rel_err"] <= 1e-5


@pytest.mark.parametrize("command, key", [("duality", "cases"), ("wolpert", "pairs")])
def test_empty_check_list_is_config_error(tmp_path, capsys, command, key):
    # an empty list checks nothing, so it cannot pass with a worst error of 0
    assert run(tmp_path, command, {key: []}) == cli.EXIT_CONFIG
    assert f"config error: {key} must be a nonempty list" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{command}_report.json").exists()


def test_config_error_exit_code(tmp_path):
    assert run(tmp_path, "length", {"multicurve": "nonsense"}) == cli.EXIT_CONFIG
    assert run(tmp_path, "kbound", {"target": {"twist": {"curve": "zz", "t": 1}}}) == cli.EXIT_CONFIG
    # malformed JSON file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["rep", "--config", str(bad), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    # an empty config path names no file; it is not read as no config
    assert cli.main(["rep", "--config=", "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    for max_len in (0, 10, 2.5, "6"):
        assert run(tmp_path, "kbound", {"max_word_len": max_len}) == cli.EXIT_CONFIG
        twist_cfg = {"target": {"type": "twist", "curve": "a1", "t": 0.5}, "max_word_len": max_len}
        assert run(tmp_path, "solve", twist_cfg) == cli.EXIT_CONFIG
    # solve settings, checked before a mesh is built or a stage file read
    identity = {"target": {"type": "identity"}, "mesh_level": 1}
    bad = [("p_schedule", v) for v in ([3], [2.5], [4, 2], [2, 2], [], 4, "2,4", [True, 4])]
    bad += [("mesh_level", v) for v in (-1, True, "x", 1.0, 8, 99)]
    bad += [("tol", v) for v in ("x", -1, 0, float("nan"), float("inf"), True)]
    bad += [("max_iter", v) for v in (-1, 2.5, True)]
    bad += [("target", "identity")]
    for key, value in bad:
        assert run(tmp_path, "solve", {**identity, key: value}) == cli.EXIT_CONFIG, (key, value)
    for t in (True, "0.5", float("nan"), None):
        tw = {"curve": "a1", "t": t}
        assert run(tmp_path, "rep", {"target": {"twist": tw}}) == cli.EXIT_CONFIG, t
        assert run(tmp_path, "kbound", {"target": {"twist": tw}, "max_word_len": 2}) == cli.EXIT_CONFIG, t
        assert run(tmp_path, "solve", {**identity, "target": {"type": "twist", **tw}}) == cli.EXIT_CONFIG, t
    bad = [("step", v) for v in ("x", 0, -1e-4, True)] + [("threshold", v) for v in ("x", True, float("nan"))]
    for command in ("duality", "wolpert"):
        for key, value in bad:
            assert run(tmp_path, command, {key: value}) == cli.EXIT_CONFIG, (command, key, value)
    multicurve = [{"word": "a1", "weight": 1.0}]
    case = {"multicurve": multicurve, "curve": "b1"}
    for cases in (5, "x", [5], [{**case, "curve": "zz"}], [{**case, "weight": "x"}], [{**case, "weight": True}],
                  [{**case, "weight": float("nan")}]):
        assert run(tmp_path, "duality", {"cases": cases}) == cli.EXIT_CONFIG, cases
    for pairs in ([["a1"]], [["a1", "zz"]], [["a1", "b1", "a2"]], ["a1b1"], 5):
        assert run(tmp_path, "wolpert", {"pairs": pairs}) == cli.EXIT_CONFIG, pairs
    # multicurve weights, in every command that reads a multicurve
    for weight in (-1, 0, float("nan"), float("inf"), True, "1", None):
        bad_mc = [{"word": "a1", "weight": weight}]
        assert run(tmp_path, "length", {"multicurve": bad_mc}) == cli.EXIT_CONFIG, weight
        assert run(tmp_path, "mass", {"multicurve": bad_mc}) == cli.EXIT_CONFIG, weight
        assert run(tmp_path, "duality", {"cases": [{**case, "multicurve": bad_mc}]}) == cli.EXIT_CONFIG, weight
    for bad_mc in ([{"word": "a1"}], ["a1"], [[("word", "a1"), ("weight", 1.0)]]):
        assert run(tmp_path, "length", {"multicurve": bad_mc}) == cli.EXIT_CONFIG, bad_mc
    # a missing multicurve
    assert run(tmp_path, "length", {}) == cli.EXIT_CONFIG
    assert run(tmp_path, "mass", {}) == cli.EXIT_CONFIG
    assert run(tmp_path, "duality", {"cases": [{"curve": "b1"}]}) == cli.EXIT_CONFIG
    assert run(tmp_path, "duality", {"cases": [{**case, "weight": 2}]}) == 0
    assert run(tmp_path, "wolpert", {"pairs": [["a1", "b1"]]}) == 0
    # mass has no sampling settings: its former keys are ignored, as any extra key is
    assert run(tmp_path, "mass", {"multicurve": multicurve, "samples": -3, "seed": "0"}) == 0


def test_key_error_inside_a_command_propagates(tmp_path, monkeypatch):
    # a KeyError raised by a defect in a command is not reported as a config error
    def broken(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(cli, "minimize", broken)
    with pytest.raises(KeyError):
        run(tmp_path, "solve", {"target": {"type": "identity"}, "mesh_level": 1, "p_schedule": [2]})


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_argv_forms(tmp_path, monkeypatch, command):
    # the options in either order, around the command, and as --opt=value
    seen = []

    def record(config, outdir, report):
        seen.append((config, outdir))
        return cli.EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, command, (record, "recorded.json"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"max_word_len": 2}))
    out = [str(tmp_path / name) for name in ("a", "b", "c", "d", "e")]
    forms = [
        [command, "--config", str(cfg), "--out", out[0]],
        [command, "--out", out[1], "--config", str(cfg)],
        ["--out", out[2], "--config", str(cfg), command],
        [command, f"--out={out[3]}", f"--config={cfg}"],
        [command, "--out", out[4]],
    ]
    assert [cli.main(argv) for argv in forms] == [cli.EXIT_OK] * 5
    assert seen == [({"max_word_len": 2}, path) for path in out[:4]] + [({}, out[4])]
    assert all((tmp_path / name / "recorded.json").exists() for name in "abcde")


@pytest.mark.parametrize("argv", [
    [],
    ["kbound"],
    ["kbound", "--config", "CFG"],
    ["bogus", "--out", "OUT"],
    ["kbound", "--bogus", "1", "--out", "OUT"],
    ["kbound", "--conf", "CFG", "--out", "OUT"],
    ["kbound", "-o", "OUT"],
    ["kbound", "--config", "CFG", "--out"],
    ["kbound", "--config", "--out", "OUT"],
    ["kbound", "extra", "--out", "OUT"],
    ["kbound", "solve", "--out", "OUT"],
])
def test_usage_errors_exit_2(tmp_path, capsys, argv):
    # a missing --out, an unknown command or option, an option without a
    # value and a second positional: usage on stderr, no output directory
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"max_word_len": 2}))
    argv = [{"CFG": str(cfg), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: stretchlab ") and "stretchlab: error: " in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_help_prints_the_docstring(tmp_path, capsys):
    for argv in (["--help"], ["-h"], ["kbound", "--help"]):
        assert cli.main(argv) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == cli.__doc__ + "\n" and captured.err == ""


@pytest.mark.parametrize("command, config", [
    ("kbound", {"target": {"twist": {"curve": "a1", "t": 0.5}}, "max_word_len": 3}),
    ("solve", {"target": {"type": "twist", "curve": "a1", "t": 0.5}, "mesh_level": 1, "p_schedule": [2],
               "max_word_len": 3}),
])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, monkeypatch, command, config):
    # the output directory is made before the command runs: no work is done
    def never(*args):
        raise AssertionError("k_lower_bound called")

    monkeypatch.setattr(cli.fuchsian, "k_lower_bound", never)
    (tmp_path / "out").write_text("a file")
    assert run(tmp_path, command, config) == cli.EXIT_CONFIG
    assert str(tmp_path / "out") in capsys.readouterr().err
    assert (tmp_path / "out").read_text() == "a file"


HASH_CONFIGS = [
    {},
    {"max_word_len": 3, "rep": "octagon"},
    {"target": {"type": "twist", "curve": "a1", "t": 0.5}, "mesh_level": 4, "p_schedule": [2, 4, 8, 16],
     "dir": "r\u00e9sum\u00e9"},
]


def config_hashes_in_fresh_interpreter(tmp_path, prelude=""):
    """cli.main's kbound exit code, the modules it loaded of argparse,
    gettext, hashlib and _hashlib, and cli's config_hash of HASH_CONFIGS,
    from a fresh interpreter that runs prelude first (on its last line of
    output, after the command's own)."""
    (tmp_path / "kbound.json").write_text(json.dumps({"max_word_len": 2}))
    script = prelude + (
        "import json, sys\n"
        "from stretchlab import cli\n"
        "code = cli.main(['kbound', '--config', sys.argv[1] + '/kbound.json', '--out', sys.argv[1] + '/out'])\n"
        "loaded = sorted({'argparse', 'gettext', 'hashlib', '_hashlib'} & set(sys.modules))\n"
        "print(json.dumps([code, loaded, [cli._config_hash(c) for c in json.loads(sys.argv[2])]]))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), json.dumps(HASH_CONFIGS)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "kbound_report.json").exists()
    return json.loads(proc.stdout.splitlines()[-1])


def sha256_config_hashes():
    return [hashlib.sha256(json.dumps(c, sort_keys=True).encode()).hexdigest()[:16] for c in HASH_CONFIGS]


def test_cli_imports_neither_argparse_nor_gettext(tmp_path):
    # argparse builds its parser through gettext, which probes the disk for
    # locale files: ~1.5 ms of a ~6 ms kbound command; hashlib maps OpenSSL's
    # libcrypto (~3.5 MB of peak RSS) for one digest, which the interpreter's
    # own SHA-256 module gives as well
    assert config_hashes_in_fresh_interpreter(tmp_path) == [0, [], sha256_config_hashes()]


def test_config_hash_falls_back_to_hashlib(tmp_path):
    # an interpreter without its own SHA-256 module gives the same digests
    prelude = "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
    code, loaded, hashes = config_hashes_in_fresh_interpreter(tmp_path, prelude)
    assert code == 0 and "hashlib" in loaded
    assert hashes == sha256_config_hashes()


def test_solve_twist_with_resume_and_report(tmp_path):
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_iter": 3,
        "max_word_len": 4,
    }
    # a budget of 3 stops both stages short of tol
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC
    rep1 = read_report(tmp_path, "solve_summary.json")
    assert (tmp_path / "out" / "solve_stage_p2.csv").exists()
    assert (tmp_path / "out" / "stage_p2.npz").exists() and (tmp_path / "out" / "stage_p4.npz").exists()
    assert not list((tmp_path / "out").glob("*.tmp*"))
    assert rep1["k_lower_bound"] > 1.0
    assert all(s["iterations"] == cfg["max_iter"] for s in rep1["stages"])
    # resume reproduces the stage values exactly and re-measures the
    # tolerance test at the loaded point instead of reporting the stage
    # converged
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC
    rep2 = read_report(tmp_path, "solve_summary.json")
    assert [s["iterations"] for s in rep2["stages"]] == [0, 0]
    for s1, s2 in zip(rep1["stages"], rep2["stages"]):
        for key in ("J_p", "stage_value", "grad_norm", "residuals"):
            assert s2[key] == s1[key], key
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
    assert [s["iterations"] for s in stages] == [5, 5, 6]
    for s in stages:
        # one gradient at the start point, one per accepted step and one per
        # failed slope test; every line-search trial costs one energy evaluation
        assert s["energy_evals"] >= s["grad_evals"]
        assert s["grad_evals"] == s["iterations"] + 1 + s["wolfe_rejections"]
    # no line search fails, so the L-BFGS memory is never reset
    assert [s["restarts"] for s in stages] == [0, 0, 0]
    # H0 is built at each start; no stage reaches the rebuild at 16 steps
    assert [s["precond_builds"] for s in stages] == [1, 1, 1]
    # where each stage's time went: the preconditioner's build, the descent,
    # and the currents with their checks
    for s in stages:
        assert set(s["timings"]) == {"precond_s", "descent_s", "currents_s"}
        assert all(v > 0.0 for v in s["timings"].values())
    # a resumed stage evaluates the loaded point once and builds no H0
    assert run(tmp_path, "solve", cfg) == 0
    for s in read_report(tmp_path, "solve_summary.json")["stages"]:
        assert (s["iterations"], s["energy_evals"], s["grad_evals"], s["precond_builds"]) == (0, 1, 1, 0)
        assert s["timings"]["precond_s"] == 0.0


def test_solve_reports_each_stage_start_energy(tmp_path):
    # J_start is J_p at the stage's start map: the default start at p=2, the
    # p=2 stage's map at p=4, and on resume the loaded map, where the stage
    # takes no step
    from stretchlab.earthquake import TwistSpec, twist
    from stretchlab.fuchsian import octagon_representation
    from stretchlab.mesh import build_octagon_mesh
    from stretchlab.pharmonic import minimize

    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_word_len": 2,
    }
    assert run(tmp_path, "solve", cfg) == 0
    stages = read_report(tmp_path, "solve_summary.json")["stages"]
    mesh = build_octagon_mesh(1)
    rho = twist(octagon_representation(), TwistSpec("a1", 0.5))
    with np.load(tmp_path / "out" / "stage_p2.npz") as stage:
        p2_map = stage["class_points"]
    assert stages[0]["J_start"] == minimize(mesh, rho, 2, cli.TOL, 0).J_p
    assert stages[1]["J_start"] == minimize(mesh, rho, 4, cli.TOL, 0, init=p2_map).J_p
    assert all(s["J_start"] > s["J_p"] for s in stages)
    assert run(tmp_path, "solve", cfg) == 0
    for first, resumed in zip(stages, read_report(tmp_path, "solve_summary.json")["stages"]):
        assert resumed["J_start"] == resumed["J_p"] == first["J_p"]


def test_stage_csv_round_trips_exactly(tmp_path):
    # float() of every number in a stage CSV gives back the solver's or the
    # mesh's value bit for bit, so a format that drops digits fails
    from stretchlab.earthquake import TwistSpec, twist
    from stretchlab.fuchsian import octagon_representation
    from stretchlab.mesh import build_octagon_mesh

    mesh = build_octagon_mesh(1)
    rho = twist(octagon_representation(), TwistSpec("a1", 0.5))
    prefixes = cli._csv_row_prefixes(mesh.areas)
    for res in cli.p_continuation(mesh, rho, [2, 4], cli.TOL, cli.MAX_ITER, resumed={}):
        cli._write_stage_csv(tmp_path, res, prefixes)
        with open(tmp_path / f"solve_stage_p{res.p}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["triangle", "area", "s1", "s2", "density"]
        assert [int(row[0]) for row in rows] == list(range(len(mesh.triangles)))
        parsed = np.array([[float(x) for x in row[1:]] for row in rows])
        for column, want in zip(parsed.T, (mesh.areas, res.s1, res.s2, res.density)):
            assert column.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def test_stage_csv_matches_csv_writer_bytes(tmp_path, rng):
    # the mesh's row prefixes and the joined rows are the bytes csv.writer
    # writes for the same arrays: a solved stage's, columns of awkward floats
    # (signed zeros, subnormals, non-finite values, float32 and int inputs),
    # and 600 rows, which the writer joins 256 at a time
    from types import SimpleNamespace

    from stretchlab.earthquake import TwistSpec, twist
    from stretchlab.fuchsian import octagon_representation
    from stretchlab.mesh import build_octagon_mesh

    mesh = build_octagon_mesh(1)
    rho = twist(octagon_representation(), TwistSpec("a1", 0.5))
    stage = next(cli.p_continuation(mesh, rho, [2], cli.TOL, cli.MAX_ITER, resumed={}))
    odd = np.array([0.0, -0.0, 5e-324, -1e-310, 1e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3])
    n = len(odd)
    cases = [(mesh.areas, stage.s1, stage.s2, stage.density),
             (odd, odd[::-1], rng.standard_normal(n).astype(np.float32), np.arange(n)),
             tuple(np.exp(rng.uniform(-700, 700, (4, 600))))]
    for p, (areas, s1, s2, density) in zip((2, 4, 6), cases):
        res = SimpleNamespace(p=p, s1=s1, s2=s2, density=density)
        cli._write_stage_csv(tmp_path, res, cli._csv_row_prefixes(areas))
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["triangle", "area", "s1", "s2", "density"])
            w.writerows(zip(range(len(areas)), *(map(float, column) for column in (areas, s1, s2, density))))
        assert (tmp_path / f"solve_stage_p{p}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_solve_ignores_checkpoint_from_another_config(tmp_path):
    cfg_a = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_iter": 3,
        "max_word_len": 2,
    }
    cfg_b = dict(cfg_a, max_iter=2)
    # both budgets stop short of tol
    assert run(tmp_path, "solve", cfg_a) == cli.EXIT_NUMERIC
    hash_a = read_report(tmp_path, "solve_summary.json")["config_hash"]
    # B's stages are solved afresh, not loaded from A's stage files
    assert run(tmp_path, "solve", cfg_b) == cli.EXIT_NUMERIC
    rep_b = read_report(tmp_path, "solve_summary.json")
    assert rep_b["config_hash"] != hash_a
    assert [s["iterations"] for s in rep_b["stages"]] == [cfg_b["max_iter"]] * 2
    for p in cfg_b["p_schedule"]:
        with np.load(tmp_path / "out" / f"stage_p{p}.npz") as stage:
            assert str(stage["config_hash"]) == rep_b["config_hash"]


def test_solve_unreadable_checkpoint_is_config_error(tmp_path, capsys):
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2],
        "max_iter": 3,
        "max_word_len": 2,
    }
    # the budget of 3 stops short of tol, but the stage file is written
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC
    stage = tmp_path / "out" / "stage_p2.npz"
    data = stage.read_bytes()
    stage.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    assert run(tmp_path, "solve", cfg) == cli.EXIT_CONFIG
    assert f"config error: unreadable stage file {stage}" in capsys.readouterr().err
    assert stage.read_bytes() == data[: len(data) // 2]


def test_solve_checkpoint_of_wrong_shape_is_config_error(tmp_path, capsys):
    # a class-point array cut to 3 rows, or to none, is rejected when it is
    # loaded, before a stage is measured at it
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_iter": 3,
        "max_word_len": 2,
    }
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC
    stage = tmp_path / "out" / "stage_p4.npz"
    with np.load(stage) as data:
        config_hash, class_points = data["config_hash"], data["class_points"]
    for cut in (class_points[:3], np.empty((0, 3))):
        np.savez(stage, config_hash=config_hash, class_points=cut)
        capsys.readouterr()
        assert run(tmp_path, "solve", cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: unreadable stage file {stage}" in err and f"{cut.shape}" in err


def test_solve_resumed_nan_map_is_numeric_failure(tmp_path):
    # stage files whose class points are NaN resume to a non-finite J_p
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 0.5},
        "mesh_level": 1,
        "p_schedule": [2, 4],
        "max_word_len": 3,
    }
    assert run(tmp_path, "solve", cfg) == 0
    for p in (2, 4):
        stage = tmp_path / "out" / f"stage_p{p}.npz"
        with np.load(stage) as data:
            config_hash, class_points = data["config_hash"], data["class_points"]
        np.savez(stage, config_hash=config_hash, class_points=np.full_like(class_points, np.nan))
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC
    stages = read_report(tmp_path, "solve_summary.json")["stages"]
    assert [s["p"] for s in stages] == [2, 4]
    assert all(not np.isfinite(s["J_p"]) for s in stages)


def test_solve_writes_each_stage_file_once(tmp_path, monkeypatch):
    # one rename per stage, onto three distinct files, each holding one
    # (n_classes, 3) array beside the config hash; a resumed run writes none
    from stretchlab.mesh import build_octagon_mesh

    replaced = []
    real_replace = os.replace

    def spy(src, dst):
        replaced.append(str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", spy)
    cfg = {"target": {"type": "identity"}, "mesh_level": 1, "p_schedule": [2, 4, 8]}
    assert run(tmp_path, "solve", cfg) == 0
    assert replaced == [str(tmp_path / "out" / f"stage_p{p}.npz") for p in (2, 4, 8)]
    n_classes = build_octagon_mesh(1).n_classes
    for path in replaced:
        with np.load(path) as stage:
            assert [stage[k].shape for k in stage.files if k != "config_hash"] == [(n_classes, 3)]
    assert not list((tmp_path / "out").glob("*.tmp*"))
    assert run(tmp_path, "solve", cfg) == 0
    assert len(replaced) == 3


def test_solve_large_twist_is_numeric_failure(tmp_path):
    # the rep overflows float64; _build_rep rejects it before any stage runs
    cfg = {
        "target": {"type": "twist", "curve": "a1", "t": 1e3},
        "mesh_level": 1,
        "p_schedule": [2],
        "max_word_len": 3,
    }
    assert run(tmp_path, "solve", cfg) == cli.EXIT_NUMERIC


def test_kbound_rejects_overflowing_twist(tmp_path):
    # the overflowed generators used to be skipped as non-hyperbolic words,
    # leaving K_lo = 1.0 with exit 0
    cfg = {"target": {"twist": {"curve": "a1", "t": 1e3}}, "max_word_len": 2}
    assert run(tmp_path, "kbound", cfg) == cli.EXIT_NUMERIC
    assert not (tmp_path / "out" / "kbound_report.json").exists()
    # a twist whose relator residual is inside RELATOR_TOL still runs
    cfg = {"target": {"twist": {"curve": "b2", "t": 1.5}}, "max_word_len": 2}
    assert run(tmp_path, "kbound", cfg) == 0
    assert read_report(tmp_path, "kbound_report.json")["k_lower_bound"] > 1.0


def test_report_input_errors_are_config_errors(tmp_path, capsys):
    # a missing directory, and a .json file in it that does not parse
    assert run(tmp_path, "report", {"dir": str(tmp_path / "absent")}) == cli.EXIT_CONFIG
    assert "config error: unreadable report input" in capsys.readouterr().err
    src = tmp_path / "summaries"
    src.mkdir()
    (src / "broken.json").write_text('{"stages": [')
    assert run(tmp_path, "report", {"dir": str(src)}) == cli.EXIT_CONFIG
    assert "config error: unreadable report input" in capsys.readouterr().err
    # a stages value that is not a list
    (src / "broken.json").write_text('{"stages": 5}')
    assert run(tmp_path, "report", {"dir": str(src)}) == cli.EXIT_CONFIG
    assert "config error: unreadable report input" in capsys.readouterr().err


def test_solve_rejects_unknown_target(tmp_path, capsys):
    for target in ({"type": "nonsense"}, {"type": "cylinder", "a": 2, "b": 3}):
        assert run(tmp_path, "solve", {"target": target}) == cli.EXIT_CONFIG
        assert "cannot interpret rep spec" in capsys.readouterr().err


def _stage_rows(tmp_path, out):
    report = read_report(tmp_path, "solve_summary.json", out=out)
    for s in report["stages"]:
        del s["timings"]
    return report["stages"], report.get("k_lower_bound")


def test_solve_and_kbound_read_every_target_spelling(tmp_path):
    # a twist given inline in either spelling, or as the rho.json that rep
    # writes, gives the same stages and K_lo; kbound reads the same config
    tw = {"curve": "b2", "t": 0.4}
    assert run(tmp_path, "rep", {"target": {"twist": tw}}, out="rep") == 0
    base = {"mesh_level": 1, "p_schedule": [2], "max_word_len": 3}
    results = []
    for i, target in enumerate(({"type": "twist", **tw}, {"twist": tw}, {"file": str(tmp_path / "rep" / "rho.json")})):
        assert run(tmp_path, "solve", {**base, "target": target}, out=f"solve{i}") == 0
        results.append(_stage_rows(tmp_path, f"solve{i}"))
        assert run(tmp_path, "kbound", {**base, "target": target}, out=f"kbound{i}") == 0
        assert read_report(tmp_path, "kbound_report.json", out=f"kbound{i}")["k_lower_bound"] == results[0][1]
    assert results[0][1] > 1.0
    assert results[1] == results[0] and results[2] == results[0]
    # the octagon, however it is named, has no K_lo to report
    for i, cfg in enumerate((base, {**base, "target": "sigma"}, {**base, "target": {"type": "identity"}})):
        assert run(tmp_path, "solve", cfg, out=f"identity{i}") == 0
        assert _stage_rows(tmp_path, f"identity{i}")[1] is None


def test_stage_row_keys(tmp_path):
    # a stage row is the stage's values, then `_descend`'s statistics in its
    # order, then the residuals and timings
    assert run(tmp_path, "solve", {"mesh_level": 1, "p_schedule": [2]}) == 0
    (row,) = read_report(tmp_path, "solve_summary.json")["stages"]
    assert list(row) == ["p", "J_p", "J_start", "kappa_p", "stage_value", "iterations", "restarts",
                         "wolfe_rejections", "converged", "line_search_failure", "grad_norm", "energy_evals",
                         "grad_evals", "precond_builds", "residuals", "timings"]


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
    for word in ("zz9", "a1^"):
        cfg = {"multicurve": [{"word": word, "weight": 1.0}]}
        assert run(tmp_path, "length", cfg) == cli.EXIT_CONFIG, word


def test_non_hyperbolic_word_is_numeric_error(tmp_path):
    cfg = {"multicurve": [{"word": "a1 a1^-1", "weight": 1.0}]}
    assert run(tmp_path, "length", cfg) == cli.EXIT_NUMERIC


def test_repeated_curve_is_config_error(tmp_path, capsys):
    # b1 and its conjugate by a1 are one curve, in either order
    for words in (["a1 b1 a1^-1", "b1"], ["b1", "a1 b1 a1^-1"]):
        cfg = {"multicurve": [{"word": w, "weight": 1.0} for w in words]}
        for command in ("length", "mass"):
            assert run(tmp_path, command, cfg) == cli.EXIT_CONFIG, (command, words)
            assert "are conjugate" in capsys.readouterr().err


def test_kbound_with_file_loaded_rep(tmp_path):
    # write rho to a file via cmd_rep, then load it back as the kbound target
    assert run(tmp_path, "rep", {"target": {"twist": {"curve": "b2", "t": 0.4}}}) == 0
    rho_file = str(tmp_path / "out" / "rho.json")
    cfg = {"target": {"file": rho_file}, "max_word_len": 2}
    assert run(tmp_path, "kbound", cfg, out="out2") == 0
    rep = read_report(tmp_path, "kbound_report.json", out="out2")
    assert rep["k_lower_bound"] > 1.0


def test_rep_file_errors(tmp_path, capsys):
    # a rep file spec that cannot be read as four 3x3 generators is a config
    # error; four 3x3 generators that fail validate() are a numeric failure
    def length(path):
        return run(tmp_path, "length", {"rep": {"file": path}, "multicurve": [{"word": "a1", "weight": 1.0}]})

    eye = np.eye(3).tolist()
    contents = {
        "not_json": "{not json",
        "no_generators": json.dumps({"label": "x"}),
        "not_an_object": json.dumps([eye] * 4),
        "three_generators": json.dumps({"generators": [eye] * 3}),
        "2x2_generators": json.dumps({"generators": [np.eye(2).tolist()] * 4}),
        "ragged_generators": json.dumps({"generators": [eye, eye, eye, eye[:2]]}),
        "string_entries": json.dumps({"generators": [[["x"] * 3] * 3] * 4}),
        "bad_ext_entries": json.dumps({"generators_ext": [[["x"] * 3] * 3] * 4}),
        # entries that numpy would read as NaN or 1.0, and a number no float holds
        "null_entries": json.dumps({"generators": [[[None] * 3] * 3] * 4}),
        "boolean_entries": json.dumps({"generators": [[[i == j for j in range(3)] for i in range(3)]] * 4}),
        "nan_entries": json.dumps({"generators": [[[float("nan")] * 3] * 3] * 4}),
        "null_ext_entries": json.dumps({"generators_ext": [[[None] * 3] * 3] * 4}),
        "huge_int_entries": json.dumps({"generators": [[[10**400] * 3] * 3] * 4}),
    }
    paths = []
    for name, text in contents.items():
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(text)
    for path in (True, 3, None, 1.5, ["a"], str(tmp_path / "absent.json"), str(tmp_path), *paths):
        assert length(path) == cli.EXIT_CONFIG, path
        assert "config error" in capsys.readouterr().err
    (tmp_path / "identity.json").write_text(json.dumps({"generators": [eye] * 4}))
    assert length(str(tmp_path / "identity.json")) == cli.EXIT_NUMERIC
    assert "numeric failure: generator a1 is not hyperbolic" in capsys.readouterr().err


def test_commands_run_without_mpmath(tmp_path):
    # mpmath is a test dependency only: in a fresh interpreter where every
    # import of it fails, rep, kbound, duality, wolpert and mass still run
    (tmp_path / "kbound.json").write_text(json.dumps({"max_word_len": 2}))
    (tmp_path / "mass.json").write_text(json.dumps({"multicurve": [{"word": "a1 b1", "weight": 1.0}]}))
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from stretchlab import cli\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(['rep', '--out', out + '/rep']),\n"
        "         cli.main(['kbound', '--config', out + '/kbound.json', '--out', out + '/kbound']),\n"
        "         cli.main(['duality', '--out', out + '/duality']),\n"
        "         cli.main(['wolpert', '--out', out + '/wolpert']),\n"
        "         cli.main(['mass', '--config', out + '/mass.json', '--out', out + '/mass'])]\n"
        "sys.exit(0 if codes == [0] * 5 else f'exit codes {codes}')\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rep" / "sigma.json").exists()
    assert (tmp_path / "kbound" / "kbound_report.json").exists()
    for cmd in ("duality", "wolpert", "mass"):
        assert (tmp_path / cmd / f"{cmd}_report.json").exists()


def test_rep_file_round_trip_preserves_residual(tmp_path):
    from stretchlab import fuchsian

    assert run(tmp_path, "rep") == 0
    back = fuchsian.rep_from_json_file(tmp_path / "out" / "sigma.json")
    assert back.relator_residual() <= 1e-9
