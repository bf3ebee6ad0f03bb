"""stretchlab: experiment runner for the best-Lipschitz / earthquake toolkit.

    stretchlab <cmd> [--config <file.json>] --out <dir>
    stretchlab --help

The options come in any order, as `--opt value` or `--opt=value`, and are
not abbreviated; a usage error exits 2, and so does an `--out` that cannot
be made a directory, before the command runs.

Commands: rep, length, kbound, duality, mass, wolpert, solve, report.
Each writes one JSON report, `<cmd>_report.json` (`solve_summary.json` for
solve, `report.json` for report), which embeds the config hash, code version
and the tolerance set, so a rerun with the same config is reproducible within
documented tolerances.  The config hash, `config_hash`, is the first 16 hex
digits of the SHA-256 of the config's JSON with sorted keys,
`json.dumps(config, sort_keys=True)`.  `rep` also writes `sigma.json` (and
`rho.json` for a target).  `solve` also writes two files per p-stage:
`solve_stage_p{p}.csv`, the per-triangle data, and `stage_p{p}.npz`, the
config hash and the stage's class points, written once; a rerun with the
same config resumes from these.

Exit codes: 0 pass, 2 config error, 3 numeric failure, 4 threshold breach;
mass and length exit 3 when a total they report is not finite.
"""

from __future__ import annotations

import json
import os
import sys
import time
import zipfile

try:
    # hashlib maps OpenSSL's libcrypto, ~3.5 MB of peak RSS, for one digest;
    # the interpreter's own SHA-256 module gives the same digest
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__, fuchsian, pharmonic
from .earthquake import TwistSpec, duality_check, twist, wolpert_reciprocity
from .fuchsian import NonHyperbolicError, SurfaceGroupRep, octagon_representation
from .lamination import WeightedMulticurve, length, mass, mass_by_duality, standard_measure
from .mesh import build_octagon_mesh
from .pharmonic import density_and_currents, minimize, relation_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_THRESHOLD = 4

# kbound at length 9 takes ~1.1 s and ~90 MB for 2.7M curves, ~6x length 8
MAX_WORD_LEN = 9
# building a mesh peaks at 76 MB RSS at level 6 and 208 MB at level 7, and
# each level has 4x the triangles of the one below
MAX_MESH_LEVEL = 7
# the central-difference step of the twist family's length derivatives
# (duality and wolpert, "step")
FD_STEP = 1e-4
# solve's stationarity test, |grad| <= tol * max(1, J_p), and its budget of
# iterations plus restarts per p-stage ("tol" and "max_iter")
TOL = 1e-7
MAX_ITER = 6000

DEFAULT_TOLERANCES = {
    "relator_residual": fuchsian.RELATOR_TOL,
    "duality_rel_err": 1e-6,
    "wolpert_rel_err": 1e-5,
    "mass_exact": 1e-12,
    "mass_duality": 1e-9,
}


class ConfigError(ValueError):
    pass


def _config_hash(config: dict) -> str:
    """The first 16 hex digits of the SHA-256 of the config's sorted-key JSON."""
    return sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _report_skeleton(config: dict) -> dict:
    return {
        "version": __version__,
        "config_hash": _config_hash(config),
        "config": config,
        "tolerances": dict(DEFAULT_TOLERANCES),
    }


def _build_rep(spec) -> SurfaceGroupRep:
    """The rep that a `rep` or `target` setting names: the octagon when the
    setting is absent, "octagon", "sigma" or {"type": "identity"}; a rep
    file, {"file": path}; or a twist of the octagon, {"twist": {"curve", "t"}}
    or {"type": "twist", "curve", "t"}."""
    base = octagon_representation()
    if spec in (None, "octagon", "sigma", {"type": "identity"}):
        return base
    if isinstance(spec, dict) and "file" in spec:
        try:
            return fuchsian.rep_from_json_file(spec["file"])
        except fuchsian.RepFileError as exc:
            raise ConfigError(str(exc))
    if isinstance(spec, dict) and ("twist" in spec or spec.get("type") == "twist"):
        tw = spec.get("twist", spec)
        try:
            rep = twist(base, TwistSpec(tw["curve"], _real_setting(tw, "t", None, -np.inf)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad twist spec {tw!r}: {exc}")
        # a large twist loses the relator to rounding or overflows float64;
        # either is a numeric failure, raised before any word is evaluated
        res = rep.relator_residual()
        if not (np.isfinite(rep.generators).all() and res <= fuchsian.RELATOR_TOL):
            raise ValueError(f"twist {tw!r} gives non-finite generators or relator residual {res:.3e}")
        return rep
    raise ConfigError(f"cannot interpret rep spec {spec!r}")


def _multicurve(rep, data) -> WeightedMulticurve:
    if not (isinstance(data, list) and all(isinstance(d, dict) for d in data)):
        raise ConfigError("multicurve must be a list of {word, weight}")
    for d in data:
        _real_setting(d, "weight", None, 0.0)
    try:
        return WeightedMulticurve.from_json(rep, data)
    except NonHyperbolicError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # malformed entries and repeated curves are schema errors;
        # non-hyperbolic words propagate as numeric failures
        raise ConfigError(f"bad multicurve: {exc}")


def _int_setting(config: dict, key: str, default: int, lo: int, hi: int | None = None) -> int:
    """config[key] (or default), an integer in lo..hi; bools are rejected."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        bounds = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise ConfigError(f"{key} must be an integer {bounds}, got {value!r}")
    return value


def _real_setting(config: dict, key: str, default, above: float) -> float:
    """config[key] (or default), a finite number > above; bools and strings are rejected."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not above < value < np.inf:
        bound = f" > {above:g}" if above > -np.inf else ""
        raise ConfigError(f"{key} must be a finite number{bound}, got {value!r}")
    return float(value)


def _worst_error(errors, threshold: float):
    """The largest error and the exit code; np.max keeps a NaN, which max()
    would pass over, and a non-finite error is a numeric failure."""
    worst = float(np.max(errors, initial=0.0))
    if not np.isfinite(worst):
        return worst, EXIT_NUMERIC
    return worst, EXIT_OK if worst <= threshold else EXIT_THRESHOLD


def _write_json(outdir, name, data):
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, default=float)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rep(config: dict, outdir: str, report: dict) -> int:
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
    return EXIT_OK if report["sigma"]["relator_residual"] <= DEFAULT_TOLERANCES["relator_residual"] else EXIT_THRESHOLD


def cmd_length(config: dict, outdir: str, report: dict) -> int:
    rep = _build_rep(config.get("rep"))
    mc = _multicurve(rep, config.get("multicurve"))
    rows = []
    for w, b in mc.items:
        l = float(fuchsian.translation_length(rep.evaluate(w)))
        rows.append({"word": str(w), "weight": b, "length": l, "weighted": b * l})
    report["lengths"] = rows
    report["total_length"] = float(length(mc, rep))
    return EXIT_OK if np.isfinite(report["total_length"]) else EXIT_NUMERIC


def cmd_kbound(config: dict, outdir: str, report: dict) -> int:
    sigma = _build_rep(config.get("rep"))
    rho = _build_rep(config.get("target"))
    max_len = _int_setting(config, "max_word_len", 6, 1, MAX_WORD_LEN)
    words = fuchsian.enumerate_words(max_len)
    report["k_lower_bound"] = fuchsian.k_lower_bound(words, sigma, rho)
    report["max_word_len"] = max_len
    report["n_words"] = len(words)
    return EXIT_OK


def cmd_duality(config: dict, outdir: str, report: dict) -> int:
    rep = _build_rep(config.get("rep"))
    threshold = _real_setting(config, "threshold", DEFAULT_TOLERANCES["duality_rel_err"], -np.inf)
    step = _real_setting(config, "step", FD_STEP, 0.0)
    cases = config.get("cases", "all")
    if cases == "all":
        curves = list(fuchsian.GENERATOR_NAMES)
        cases = [
            {"multicurve": [{"word": c1, "weight": 1.0}], "curve": c2, "weight": 1.0}
            for c1 in curves
            for c2 in curves
            if c1 != c2
        ]
    if not (isinstance(cases, list) and cases
            and all(isinstance(c, dict) and c.get("curve") in fuchsian.GENERATOR_NAMES for c in cases)):
        raise ConfigError(f"cases must be a nonempty list of {{multicurve, curve, weight}} with a generator curve, "
                          f"got {cases!r}")
    checks = [
        duality_check(rep, _multicurve(rep, c.get("multicurve")), c["curve"], _real_setting(c, "weight", 1.0, -np.inf),
                      step)
        for c in cases
    ]
    report["cases"] = [r.to_json() for r in checks]
    report["worst_rel_err"], code = _worst_error([r.rel_err for r in checks], threshold)
    report["threshold"] = threshold
    return code


def cmd_mass(config: dict, outdir: str, report: dict) -> int:
    rep = _build_rep(config.get("rep"))
    mc = _multicurve(rep, config.get("multicurve"))
    m = standard_measure(mc)
    total = float(mass(m))
    twol = 2.0 * float(length(mc, rep))
    lb = mass_by_duality(m)
    report["mass"] = total
    report["two_length"] = twol
    report["duality_lower_bound"] = lb
    report["mass_minus_two_length"] = abs(total - twol)
    report["duality_gap"] = abs(lb - total)
    if not np.isfinite([total, twol, lb]).all():
        return EXIT_NUMERIC
    ok = (
        abs(total - twol) <= DEFAULT_TOLERANCES["mass_exact"] * max(1.0, total)
        and lb <= total + 1e-9
        and abs(lb - total) <= DEFAULT_TOLERANCES["mass_duality"] * max(1.0, total)
    )
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_wolpert(config: dict, outdir: str, report: dict) -> int:
    rep = _build_rep(config.get("rep"))
    threshold = _real_setting(config, "threshold", DEFAULT_TOLERANCES["wolpert_rel_err"], -np.inf)
    step = _real_setting(config, "step", FD_STEP, 0.0)
    pairs = config.get("pairs", "all")
    if pairs == "all":
        curves = list(fuchsian.GENERATOR_NAMES)
        pairs = [[a, b] for i, a in enumerate(curves) for b in curves[i:]]
    if not (isinstance(pairs, list) and pairs
            and all(isinstance(pr, list) and len(pr) == 2 and all(c in fuchsian.GENERATOR_NAMES for c in pr)
                    for pr in pairs)):
        raise ConfigError(f"pairs must be a nonempty list of two names from {fuchsian.GENERATOR_NAMES}, got {pairs!r}")
    checks = [wolpert_reciprocity(rep, c1, c2, step) for c1, c2 in pairs]
    report["pairs"] = [r.to_json() for r in checks]
    report["worst_rel_err"], code = _worst_error([r.rel_err for r in checks], threshold)
    report["threshold"] = threshold
    return code


def _csv_row_prefixes(areas) -> list:
    """The first two fields of every stage CSV row, "i,area,", which depend
    on the mesh only: built once per solve."""
    return [f"{i!r},{a!r}," for i, a in enumerate(np.asarray(areas, dtype=np.float64).tolist())]


def _write_stage_csv(outdir, res, prefixes):
    # the bytes of csv.writer (repr of each number, "\r\n" line ends) from
    # f-string joins over .tolist() columns after the mesh's row prefixes,
    # 256 rows at a time: one join over the 2,048 rows of level 4 would hold
    # ~0.6 MB at the solve's peak
    columns = [np.asarray(c, dtype=np.float64) for c in (res.s1, res.s2, res.density)]
    with open(os.path.join(outdir, f"solve_stage_p{res.p}.csv"), "w", newline="") as fh:
        fh.write("triangle,area,s1,s2,density\r\n")
        for start in range(0, len(prefixes), 256):
            rows = zip(prefixes[start:start + 256], *(c[start:start + 256].tolist() for c in columns))
            fh.write("".join(f"{head}{s1!r},{s2!r},{d!r}\r\n" for head, s1, s2, d in rows))


def p_continuation(mesh, rho, schedule, tol: float, max_iter: int, resumed: dict):
    """Warm-started continuation in p: each stage minimizes J_p to tol within
    max_iter from the last stage's map (the first from `minimize`'s default
    start) and is yielded with its currents, `relation_checks` residuals
    and the time they took in its `timings`.  A stage in `resumed` (p ->
    class points) is re-measured there with a budget of 0, taking no step.
    """
    Z = None
    for p in pharmonic.check_schedule(schedule):
        res = minimize(mesh, rho, p, tol, 0 if p in resumed else max_iter, init=resumed.get(p, Z))
        Z = res.class_points
        start = time.perf_counter()
        density_and_currents(res)
        relation_checks(res)
        res.timings["currents_s"] = time.perf_counter() - start
        yield res
        del res  # peak memory: the next stage is solved without this one's block and currents


def cmd_solve(config: dict, outdir: str, report: dict) -> int:
    # the settings are checked before a mesh is built or a stage file read
    try:
        schedule = pharmonic.check_schedule(config.get("p_schedule", [2, 4, 8, 16, 32, 64]))
    except ValueError as exc:
        raise ConfigError(str(exc))
    tol = _real_setting(config, "tol", TOL, 0.0)
    max_iter = _int_setting(config, "max_iter", MAX_ITER, 0)
    level = _int_setting(config, "mesh_level", 3, 0, MAX_MESH_LEVEL)
    sigma = octagon_representation()
    rho = _build_rep(config.get("target"))
    max_len = _int_setting(config, "max_word_len", 6, 1, MAX_WORD_LEN) if rho is not sigma else None
    mesh = build_octagon_mesh(level)

    # resume: a stage whose file holds this config's hash is re-measured at its map
    resumed = {}
    for p in schedule:
        path = os.path.join(outdir, f"stage_p{p}.npz")
        if not os.path.exists(path):
            continue
        try:
            with np.load(path) as stage:
                if str(stage["config_hash"]) == report["config_hash"]:
                    pts = stage["class_points"]
                    if pts.shape != (mesh.n_classes, 3) or pts.dtype.kind not in "fi":
                        raise ValueError(f"class_points is a {pts.shape} {pts.dtype} array, "
                                         f"not ({mesh.n_classes}, 3) reals")
                    resumed[p] = pts
        except (zipfile.BadZipFile, EOFError, OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"unreadable stage file {path}: {exc!r}")

    stage_rows = []
    prefixes = _csv_row_prefixes(mesh.areas)
    for res in p_continuation(mesh, rho, schedule, tol, max_iter, resumed):
        stage_rows.append({
            "p": res.p, "J_p": res.J_p,
            "J_start": res.energy_log[0],  # J_p at the stage's start map
            "kappa_p": res.kappa_p, "stage_value": res.normalized_stage_value(),
            **res.stats,  # `_descend`'s run statistics, in its order
            "residuals": {k: float(v) for k, v in res.residuals.items()},
            "timings": res.timings,
        })
        _write_stage_csv(outdir, res, prefixes)
        if res.p not in resumed:
            # each stage's map is written once, to a temporary file renamed
            # into place, so an interrupted run never leaves a torn stage file
            tmp_path = os.path.join(outdir, f"stage_p{res.p}.tmp.npz")
            np.savez(tmp_path, config_hash=report["config_hash"], class_points=res.class_points)
            os.replace(tmp_path, os.path.join(outdir, f"stage_p{res.p}.npz"))
        del res  # peak memory: not held while the next stage is solved

    report["stages"] = stage_rows
    report["mesh_level"] = level
    report["area"] = float(mesh.areas.sum())
    # reported, not asserted: the stage value's l^p factor in (s1, s2) decreases in p
    report["stage_values_nondecreasing"] = all(
        b["stage_value"] >= a["stage_value"] - 1e-9 for a, b in zip(stage_rows, stage_rows[1:])
    )
    if max_len is not None:
        words = fuchsian.enumerate_words(max_len)
        report["k_lower_bound"] = float(fuchsian.k_lower_bound(words, sigma, rho))
    # a numeric failure when a stage misses tol (a budget stop or a
    # line-search failure) or ends on a non-finite J_p
    failed = any(not s["converged"] or not np.isfinite(s["J_p"]) for s in stage_rows)
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_report(config: dict, outdir: str, report: dict) -> int:
    src = config.get("dir", outdir)
    if not isinstance(src, str):
        raise ConfigError(f"dir must be a path, got {src!r}")
    found = {}
    try:
        for name in sorted(os.listdir(src)):
            if name.endswith(".json") and name != "report.json":
                with open(os.path.join(src, name)) as fh:
                    found[name] = json.load(fh)
                if not isinstance(found[name], dict):
                    raise ValueError(f"{name} is not a JSON object")
                if not isinstance(found[name].get("stages", []), list):
                    raise ValueError(f"{name}: stages is not a list")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable report input in {src}: {exc!r}")
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
    return EXIT_OK


# each command fills the report main hands it and returns its exit code;
# main writes the report under the command's file name
COMMANDS = {
    "rep": (cmd_rep, "rep_report.json"),
    "length": (cmd_length, "length_report.json"),
    "kbound": (cmd_kbound, "kbound_report.json"),
    "duality": (cmd_duality, "duality_report.json"),
    "mass": (cmd_mass, "mass_report.json"),
    "wolpert": (cmd_wolpert, "wolpert_report.json"),
    "solve": (cmd_solve, "solve_summary.json"),
    "report": (cmd_report, "report.json"),
}


_USAGE = f"usage: stretchlab {{{','.join(sorted(COMMANDS))}}} [--config FILE] --out DIR"


def _parse_argv(argv) -> dict:
    """The command and options of argv, `<cmd> [--config FILE] --out DIR`
    in any order, each option as `--opt value` or `--opt=value`, as a dict
    with keys "command", "out" and perhaps "config"; {"help": True} at the
    first -h or --help.  Any other form raises ConfigError."""
    args = {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return {"help": True}
        if not token.startswith("-"):
            if "command" in args:
                raise ConfigError(f"unexpected argument {token!r}")
            if token not in COMMANDS:
                raise ConfigError(f"unknown command {token!r}")
            args["command"] = token
            continue
        name, eq, value = token.partition("=")
        if name not in ("--config", "--out"):
            raise ConfigError(f"unknown option {name!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                raise ConfigError(f"option {name} expects a value")
        args[name[2:]] = value
    if "command" not in args:
        raise ConfigError("a command is required")
    if "out" not in args:
        raise ConfigError("--out is required")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"{_USAGE}\nstretchlab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if "help" in args:
        print(__doc__)
        return EXIT_OK

    out = args["out"]
    try:
        if "config" in args:
            with open(args["config"]) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ConfigError("config must be a JSON object")
        else:
            config = {}
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create the output directory {out!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    command, report_name = COMMANDS[args["command"]]
    report = _report_skeleton(config)
    try:
        code = command(config, out, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonHyperbolicError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_json(out, report_name, report)
    print(json.dumps({k: report[k] for k in ("version", "config_hash")}))
    return code


if __name__ == "__main__":
    sys.exit(main())
