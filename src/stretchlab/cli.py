"""stretchlab: experiment runner for the best-Lipschitz / earthquake toolkit.

    stretchlab <cmd> --config <file.json> --out <dir>

Commands: rep, length, kbound, duality, mass, wolpert, solve, report.
All structured output is JSON (CSV only for per-triangle bulk data); every
report embeds the config hash, code version and the tolerance set, so a rerun
with the same config and seed is reproducible within documented tolerances.

Exit codes: 0 pass, 2 config error, 3 numeric failure, 4 threshold breach.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import zipfile

import numpy as np

from . import __version__, fuchsian, pharmonic
from .earthquake import TwistSpec, duality_check, twist, wolpert_reciprocity
from .fuchsian import NonHyperbolicError, SurfaceGroupRep, octagon_representation
from .lamination import WeightedMulticurve, length, mass, mass_by_duality, standard_measure
from .mesh import build_octagon_mesh
from .pharmonic import SolveOptions, density_and_currents, minimize, relation_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_THRESHOLD = 4

# kbound at length 9 would enumerate ~46M words, over 1 GB of letter codes
MAX_WORD_LEN = 8

DEFAULT_TOLERANCES = {
    "relator_residual": 1e-9,
    "duality_rel_err": 1e-6,
    "wolpert_rel_err": 1e-5,
    "mass_exact": 1e-12,
    "mass_duality": 1e-9,
    "coboundary_pairing": 1e-10,
}


class ConfigError(ValueError):
    pass


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _report_skeleton(config: dict) -> dict:
    return {
        "version": __version__,
        "config_hash": _config_hash(config),
        "config": config,
        "tolerances": dict(DEFAULT_TOLERANCES),
    }


def _build_rep(spec) -> SurfaceGroupRep:
    base = octagon_representation()
    if spec in (None, "octagon", "sigma"):
        return base
    if isinstance(spec, dict) and "file" in spec:
        return fuchsian.rep_from_json_file(spec["file"])
    if isinstance(spec, dict) and "twist" in spec:
        tw = spec["twist"]
        try:
            return twist(base, TwistSpec(tw["curve"], float(tw["t"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad twist spec {tw!r}: {exc}")
    raise ConfigError(f"cannot interpret rep spec {spec!r}")


def _multicurve(rep, data) -> WeightedMulticurve:
    if not isinstance(data, list):
        raise ConfigError("multicurve must be a list of {word, weight}")
    try:
        return WeightedMulticurve.from_json(rep, data)
    except (KeyError, TypeError, fuchsian.WordError) as exc:
        # malformed entries are schema errors; non-hyperbolic words propagate
        # as numeric failures
        raise ConfigError(f"bad multicurve: {exc}")


def _max_word_len(config: dict) -> int:
    value = config.get("max_word_len", 6)
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_WORD_LEN:
        raise ConfigError(f"max_word_len must be an integer in 1..{MAX_WORD_LEN}, got {value!r}")
    return value


def _write_json(outdir, name, data):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, default=float)
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rep(config: dict, outdir: str):
    report = _report_skeleton(config)
    sigma = octagon_representation()
    _write_json(outdir, "sigma.json", sigma.to_json())
    report["sigma"] = {
        "relator_residual": sigma.relator_residual(),
        "generator_lengths": {
            n: float(fuchsian.translation_length(sigma.generator(n)))
            for n in fuchsian.GENERATOR_NAMES
        },
        "expected_length": float(fuchsian.OCTAGON_LENGTH),
    }
    if "target" in config:
        rho = _build_rep(config["target"]).with_label("rho")
        _write_json(outdir, "rho.json", rho.to_json())
        report["rho"] = {"relator_residual": rho.relator_residual(), "label": rho.label}
    code = EXIT_OK if report["sigma"]["relator_residual"] <= 1e-9 else EXIT_THRESHOLD
    _write_json(outdir, "rep_report.json", report)
    return report, code


def cmd_length(config: dict, outdir: str):
    report = _report_skeleton(config)
    rep = _build_rep(config.get("rep"))
    mc = _multicurve(rep, config["multicurve"])
    rows = []
    for w, b in mc.items:
        l = float(fuchsian.translation_length(rep.evaluate(w)))
        rows.append({"word": str(w), "weight": b, "length": l, "weighted": b * l})
    report["lengths"] = rows
    report["total_length"] = float(length(mc, rep))
    _write_json(outdir, "length_report.json", report)
    return report, EXIT_OK


def cmd_kbound(config: dict, outdir: str):
    report = _report_skeleton(config)
    sigma = _build_rep(config.get("rep"))
    rho = _build_rep(config.get("target"))
    max_len = _max_word_len(config)
    words = fuchsian.enumerate_words(max_len)
    report["k_lower_bound"] = fuchsian.k_lower_bound(words, sigma, rho)
    report["max_word_len"] = max_len
    report["n_words"] = len(words)
    _write_json(outdir, "kbound_report.json", report)
    return report, EXIT_OK


def cmd_duality(config: dict, outdir: str):
    report = _report_skeleton(config)
    rep = _build_rep(config.get("rep"))
    threshold = float(config.get("threshold", DEFAULT_TOLERANCES["duality_rel_err"]))
    step = float(config.get("step", 1e-4))
    cases = config.get("cases", "all")
    if cases == "all":
        curves = list(fuchsian.GENERATOR_NAMES)
        cases = [
            {"multicurve": [{"word": c1, "weight": 1.0}], "curve": c2, "weight": 1.0}
            for c1 in curves
            for c2 in curves
            if c1 != c2
        ]
    rows = []
    worst = 0.0
    for case in cases:
        mc = _multicurve(rep, case["multicurve"])
        r = duality_check(rep, mc, case["curve"], float(case.get("weight", 1.0)), step=step)
        rows.append(r.to_json())
        worst = max(worst, r.rel_err)
    report["cases"] = rows
    report["worst_rel_err"] = worst
    report["threshold"] = threshold
    _write_json(outdir, "duality_report.json", report)
    return report, EXIT_OK if worst <= threshold else EXIT_THRESHOLD


def cmd_mass(config: dict, outdir: str):
    report = _report_skeleton(config)
    rep = _build_rep(config.get("rep"))
    mc = _multicurve(rep, config["multicurve"])
    m = standard_measure(mc)
    total = float(mass(m))
    twol = 2.0 * float(length(mc, rep))
    lb = float(
        mass_by_duality(
            m,
            n_samples=int(config.get("samples", 32)),
            rng=np.random.default_rng(int(config.get("seed", 0))),
        )
    )
    report["mass"] = total
    report["two_length"] = twol
    report["duality_lower_bound"] = lb
    report["mass_minus_two_length"] = abs(total - twol)
    report["duality_gap"] = abs(lb - total)
    _write_json(outdir, "mass_report.json", report)
    ok = (
        abs(total - twol) <= DEFAULT_TOLERANCES["mass_exact"] * max(1.0, total)
        and lb <= total + 1e-9
        and abs(lb - total) <= DEFAULT_TOLERANCES["mass_duality"] * max(1.0, total)
    )
    return report, EXIT_OK if ok else EXIT_THRESHOLD


def cmd_wolpert(config: dict, outdir: str):
    report = _report_skeleton(config)
    rep = _build_rep(config.get("rep"))
    threshold = float(config.get("threshold", DEFAULT_TOLERANCES["wolpert_rel_err"]))
    pairs = config.get("pairs", "all")
    if pairs == "all":
        curves = list(fuchsian.GENERATOR_NAMES)
        pairs = [[a, b] for i, a in enumerate(curves) for b in curves[i:]]
    rows = []
    worst = 0.0
    for c1, c2 in pairs:
        r = wolpert_reciprocity(rep, c1, c2, step=float(config.get("step", 1e-4)))
        rows.append(r.to_json())
        scale = max(abs(r.lhs), abs(r.rhs))
        worst = max(worst, r.rel_err if scale > 1e-8 else abs(r.lhs - r.rhs))
    report["pairs"] = rows
    report["worst_rel_err"] = worst
    report["threshold"] = threshold
    _write_json(outdir, "wolpert_report.json", report)
    return report, EXIT_OK if worst <= threshold else EXIT_THRESHOLD


def _write_stage_csv(outdir, res, mesh):
    path = os.path.join(outdir, f"solve_stage_p{res.p}.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["triangle", "area", "s1", "s2", "density"])
        w.writerows(zip(range(mesh.n_triangles), mesh.areas, res.s1, res.s2, res.density))
    return path


def _solve_exit_code(stages) -> int:
    """EXIT_NUMERIC when a stage ends on a line-search failure or a non-finite J_p."""
    failed = any(s["line_search_failure"] or not np.isfinite(s["J_p"]) for s in stages)
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_solve(config: dict, outdir: str):
    report = _report_skeleton(config)
    os.makedirs(outdir, exist_ok=True)
    target = config.get("target", {"type": "identity"})
    schedule = [int(p) for p in config.get("p_schedule", [2, 4, 8, 16, 32, 64])]
    opts = SolveOptions(
        tol=float(config.get("tol", 1e-7)),
        max_iter=int(config.get("max_iter", 6000)),
    )
    ttype = target.get("type")
    if ttype == "cylinder":
        rig, stages = pharmonic.cylinder_continuation(
            float(target["a"]), float(target["b"]),
            n=int(config.get("n_segments", 64)),
            schedule=schedule, opts=opts, seed=int(config.get("seed", 0)),
        )
        report["stages"] = stages
        report["final_stretch"] = stages[-1]["stretch"]
        _write_json(outdir, "solve_summary.json", report)
        return report, _solve_exit_code(stages)
    if ttype not in ("identity", "twist"):
        raise ConfigError(f"unknown solve target type {ttype!r}")
    max_len = _max_word_len(config) if ttype == "twist" else None

    sigma = octagon_representation()
    rho = sigma if ttype == "identity" else _build_rep({"twist": target})
    level = int(config.get("mesh_level", 3))
    mesh = build_octagon_mesh(level)

    # checkpoint/resume keyed by the config hash
    ck_path = os.path.join(outdir, "checkpoint.npz")
    done_stages = {}
    init = None
    if os.path.exists(ck_path):
        try:
            with np.load(ck_path) as ck:
                if str(ck["config_hash"]) == report["config_hash"]:
                    for p in ck["stages"]:
                        done_stages[int(p)] = ck[f"class_points_p{int(p)}"]
        except (zipfile.BadZipFile, EOFError, OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"unreadable checkpoint {ck_path}: {exc!r}")

    stage_rows = []
    u = None
    for p in schedule:
        if p in done_stages:
            # a budget of 0 re-measures the tolerance test at the loaded point
            u = pharmonic.EquivariantMap(mesh, rho, done_stages[p])
            res = minimize(mesh, rho, p, init=u, opts=SolveOptions(tol=opts.tol, max_iter=0))
        else:
            res = minimize(mesh, rho, p, init=u, opts=opts)
        u = res.map
        density_and_currents(res)
        rel = relation_checks(res)
        stage_rows.append(
            {
                "p": res.p,
                "J_p": res.J_p,
                "kappa_p": res.kappa_p,
                "stage_value": res.normalized_stage_value(),
                "iterations": res.iterations,
                "converged": bool(res.converged),
                "line_search_failure": bool(res.line_search_failure),
                "grad_norm": res.grad_norm,
                "energy_evals": res.energy_evals, "grad_evals": res.grad_evals,
                "residuals": {k: float(v) for k, v in res.residuals.items()},
            }
        )
        _write_stage_csv(outdir, res, mesh)
        done_stages[p] = res.map.class_points
        # write then rename, so an interrupted run never leaves a torn checkpoint
        tmp_path = os.path.join(outdir, "checkpoint.tmp.npz")
        np.savez(
            tmp_path,
            config_hash=report["config_hash"],
            stages=np.array(sorted(done_stages)),
            **{f"class_points_p{q}": pts for q, pts in done_stages.items()},
        )
        os.replace(tmp_path, ck_path)

    report["stages"] = stage_rows
    report["mesh_level"] = level
    report["area"] = float(mesh.areas.sum())
    report["stage_values_nondecreasing"] = bool(
        all(
            stage_rows[i + 1]["stage_value"] >= stage_rows[i]["stage_value"] - 1e-9
            for i in range(len(stage_rows) - 1)
        )
    )
    if ttype == "twist":
        words = fuchsian.enumerate_words(max_len)
        report["k_lower_bound"] = float(fuchsian.k_lower_bound(words, sigma, rho))
    _write_json(outdir, "solve_summary.json", report)
    return report, _solve_exit_code(stage_rows)


def cmd_report(config: dict, outdir: str):
    report = _report_skeleton(config)
    src = config.get("dir", outdir)
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".json") and name != "report.json":
            with open(os.path.join(src, name)) as fh:
                found[name] = json.load(fh)
    report["collected"] = sorted(found)
    report["summaries"] = {
        name: {k: v for k, v in data.items() if k not in ("config", "cases", "pairs", "stages")}
        for name, data in found.items()
    }
    for name, data in found.items():
        if "stages" in data:
            report["summaries"][name]["stages"] = [
                {k: s.get(k) for k in ("p", "stage_value", "J_p", "converged")}
                for s in data["stages"]
                if isinstance(s, dict)
            ]
    _write_json(outdir, "report.json", report)
    return report, EXIT_OK


COMMANDS = {
    "rep": cmd_rep,
    "length": cmd_length,
    "kbound": cmd_kbound,
    "duality": cmd_duality,
    "mass": cmd_mass,
    "wolpert": cmd_wolpert,
    "solve": cmd_solve,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stretchlab", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=False, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ConfigError("config must be a JSON object")
        else:
            config = {}
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report, code = COMMANDS[args.command](config, args.out)
    except (ConfigError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonHyperbolicError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps({k: report.get(k) for k in ("version", "config_hash")}))
    return code


if __name__ == "__main__":
    sys.exit(main())
