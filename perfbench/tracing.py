"""Layer spans for a traced `stretchlab` command, recorded from outside the package.

The wrappers replace public names where the CLI and the solver look them up,
so the package itself carries no tracing code.  Spans are kept in memory and
handed back once, when the command has finished.  A name that a later
refactor removes is reported as missing; the metrics that need it are left
out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (owner, attribute, span name, layer).  The owner is a module path, or a
# module path plus a class name after a colon.
TARGETS = (
    ("stretchlab.cli", "minimize", "pharmonic.minimize", "pharmonic"),
    ("stretchlab.cli", "density_and_currents", "pharmonic.density_and_currents", "pharmonic"),
    ("stretchlab.cli", "relation_checks", "pharmonic.relation_checks", "pharmonic"),
    ("stretchlab.cli", "build_octagon_mesh", "mesh.build_octagon_mesh", "mesh"),
    ("stretchlab.cli", "twist", "earthquake.twist", "earthquake"),
    ("stretchlab.cli", "octagon_representation", "fuchsian.octagon_representation", "fuchsian"),
    ("stretchlab.fuchsian", "octagon_representation", "fuchsian.octagon_representation", "fuchsian"),
    ("stretchlab.fuchsian", "enumerate_words", "fuchsian.enumerate_words", "fuchsian"),
    ("stretchlab.fuchsian", "k_lower_bound", "fuchsian.k_lower_bound", "fuchsian"),
    ("stretchlab.mesh:FundamentalMesh", "lift_matrices", "mesh.lift_matrices", "mesh"),
    ("stretchlab.pharmonic", "closedness_residual", "mesh.closedness_residual", "mesh"),
    ("stretchlab.mesh", "triangle_wedge_density", "mesh.triangle_wedge_density", "mesh"),
)
ENERGY_TARGET = ("stretchlab.pharmonic", "_energy_and_grad")
ROOT = "cli.main"
LAYERS = ("cli", "pharmonic", "mesh", "fuchsian", "earthquake")
P_STAGES = (2, 4, 8, 16, 32, 64)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs span wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.energy_calls = 0
        self.energy_s = 0.0
        self._open = []          # stack of [span dict, time covered by children]
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        for owner_path, attr, name, layer in TARGETS:
            try:
                owner = _owner(owner_path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._patch(owner, attr, self._spanned(fn, name, layer))
        try:
            owner = _owner(ENERGY_TARGET[0])
            fn = getattr(owner, ENERGY_TARGET[1])
        except (ImportError, AttributeError):
            self.missing.append(".".join(ENERGY_TARGET))
        else:
            self._patch(owner, ENERGY_TARGET[1], self._counted(fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording ----------------------------------------------------------

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span; the span's info describes the call."""
        parent = self._open[-1][0]["id"] if self._open else None
        span = {"id": len(self.spans), "parent": parent, "name": name, "layer": layer}
        self.spans.append(span)
        entry = [span, 0.0]
        self._open.append(entry)
        energy_before = self.energy_calls
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            span["start"], span["end"] = start, end
            span["self"] = (end - start) - entry[1]
            if self._open:
                self._open[-1][1] += end - start
        span.update(_describe(name, args, out, self.energy_calls - energy_before))
        return out

    def _spanned(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.energy_s += time.perf_counter() - start
                self.energy_calls += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans under the root span, plus rep_s.

        A metric whose wrapped name is missing is left out.
        """
        missing = {m.rsplit(".", 1)[-1] for m in self.missing}
        root = [s for s in self.spans if s["name"] == ROOT]
        under = _descendants(self.spans, {s["id"] for s in root})
        by_name = defaultdict(list)
        for s in under:
            by_name[s["name"]].append(s)

        def total(name, key=None):
            spans = by_name[name]
            if key is None:
                return sum(s["end"] - s["start"] for s in spans)
            return sum(s.get(key, 0) for s in spans)

        out = {}

        def put(metric, value, unit, needs):
            if not any(n in missing for n in needs):
                out[metric] = (float(value), unit)

        setup_rep = [s for s in self.spans if s["name"] == "fuchsian.octagon_representation" and s["parent"] is None]
        put("fuchsian.rep_s", sum(s["end"] - s["start"] for s in setup_rep), "s", ["octagon_representation"])
        put("fuchsian.enumerate_s", total("fuchsian.enumerate_words"), "s", ["enumerate_words"])
        put("fuchsian.k_lower_bound_s", total("fuchsian.k_lower_bound"), "s", ["k_lower_bound"])
        put("fuchsian.words", total("fuchsian.enumerate_words", "words"), "count", ["enumerate_words"])
        klb_s = total("fuchsian.k_lower_bound")
        put("fuchsian.words_per_s", total("fuchsian.k_lower_bound", "words") / klb_s if klb_s else 0.0,
            "1/s", ["k_lower_bound"])
        put("earthquake.twist_s", total("earthquake.twist"), "s", ["twist"])
        put("mesh.build_s", total("mesh.build_octagon_mesh"), "s", ["build_octagon_mesh"])
        put("mesh.lift_s", total("mesh.lift_matrices"), "s", ["lift_matrices"])
        put("mesh.lift_calls", len(by_name["mesh.lift_matrices"]), "count", ["lift_matrices"])
        put("mesh.closedness_s", total("mesh.closedness_residual"), "s", ["closedness_residual"])
        put("mesh.wedge_density_s", total("mesh.triangle_wedge_density"), "s", ["triangle_wedge_density"])

        stages = defaultdict(lambda: {"s": 0.0, "iterations": 0, "evals": 0})
        for s in by_name["pharmonic.minimize"]:
            st = stages[s.get("p")]
            st["s"] += s["end"] - s["start"]
            st["iterations"] += s.get("iterations", 0)
            st["evals"] += s.get("energy_calls", 0)
        for p in P_STAGES:
            st = stages[p]
            put(f"pharmonic.minimize_s.p{p}", st["s"], "s", ["minimize"])
            put(f"pharmonic.iterations.p{p}", st["iterations"], "count", ["minimize"])
            put(f"pharmonic.energy_grad_calls.p{p}", st["evals"], "count", ["minimize", "_energy_and_grad"])
            put(f"pharmonic.accept_ratio.p{p}", st["iterations"] / st["evals"] if st["evals"] else 0.0,
                "ratio", ["minimize", "_energy_and_grad"])
        put("pharmonic.energy_grad_ms", 1e3 * self.energy_s / self.energy_calls if self.energy_calls else 0.0,
            "ms", ["_energy_and_grad"])
        put("pharmonic.currents_s", total("pharmonic.density_and_currents", "self"), "s",
            ["density_and_currents", "closedness_residual", "lift_matrices"])
        put("pharmonic.relation_checks_s", total("pharmonic.relation_checks", "self"), "s",
            ["relation_checks", "triangle_wedge_density", "lift_matrices"])

        # a layer's self time depends on every wrapper below it
        all_names = [t[1] for t in TARGETS]
        for layer in LAYERS:
            put(f"{layer}.self_s", sum(s["self"] for s in under if s["layer"] == layer), "s", all_names)
        return out


def _describe(name, args, out, energy_calls):
    if name == "pharmonic.minimize":
        return {"p": int(out.p), "iterations": int(out.iterations), "energy_calls": energy_calls}
    if name == "fuchsian.enumerate_words":
        return {"words": len(out)}
    if name == "fuchsian.k_lower_bound":
        return {"words": len(args[0])}
    return {}


def _descendants(spans, roots):
    keep = set(roots)
    for s in spans:  # parents are always recorded before their children
        if s["parent"] in keep:
            keep.add(s["id"])
    return [s for s in spans if s["id"] in keep]
