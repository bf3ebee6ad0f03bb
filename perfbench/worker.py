"""Runs one `stretchlab` command in a fresh interpreter for perfbench/run.py.

    python3 perfbench/worker.py <job.json>

The worker imports stretchlab from the checkout, builds the octagon
representation, prints `ready` (the parent times set-up up to that line),
then runs the CLI in-process on the job's config and writes a result JSON.
It times a fixed calibration loop right after `ready` and every 0.2 s
during the command, so the parent can scale both times to a reference core
speed.  A job with "setup_only" stops after the first calibration.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import sys
import time
import traceback
import warnings

import numpy as np


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if line.strip()}
    except OSError:
        return None
    libs = {p for p in paths if "openblas" in os.path.basename(p).lower() and ".so" in p}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# A step of small 3x3 numpy products and a trace, the kind of work that
# dominates stretchlab (per-element loops over Lorentz matrices), so it slows
# down with it when a shared core is contended.
_ROTATION = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
TICK_S = 0.2
TICK_STEPS = 300


def step_time(steps):
    """Seconds per step of the calibration loop."""
    start = time.perf_counter()
    m = np.eye(3)
    acc = 0.0
    for _ in range(steps):
        m = m @ _ROTATION
        acc += float(np.trace(m))
    return (time.perf_counter() - start) / steps


class SpeedSampler:
    """Times TICK_STEPS calibration steps every TICK_S of wall time (SIGALRM)."""

    def __init__(self):
        self.step_s = []

    def _tick(self, signum, frame):
        self.step_s.append(step_time(TICK_STEPS))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])

    import stretchlab
    from stretchlab import cli, earthquake, fuchsian

    if not os.path.realpath(stretchlab.__file__).startswith(src + os.sep):
        print(f"stretchlab imported from {stretchlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    fuchsian.octagon_representation()
    print("ready", flush=True)
    # right after set-up: the core speed that set-up ran at
    result = {"setup_step_s": [step_time(1000) for _ in range(5)], "numpy": np.__version__,
              "blas_threads": _blas_threads()}
    if job.get("setup_only"):
        return _write(job, result)

    # a leftover checkpoint.npz would make `solve` resume its stages with
    # max_iter=0 and time nothing, so such a command is not run
    out = job["out"]
    if os.path.isdir(out) and os.listdir(out):
        result["leftover_output"] = sorted(os.listdir(out))
        return _write(job, result)

    argv = [job["command"], "--config", job["config"], "--out", out]
    with warnings.catch_warnings(record=True) as caught, SpeedSampler() as sampler:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is not None:
                code = tracer.call("cli.main", "cli", cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception:
            # the CLI would exit with 1 and this traceback
            code = 1
            result["error"] = traceback.format_exc()
        run_s = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(exit_code=code, run_s=run_s, run_step_s=sampler.step_s,
                  warnings=[str(w.message) for w in caught])
    if tracer is not None:
        tracer.uninstall()
        result["missing"] = tracer.missing
        result["layer_metrics"] = {k: list(v) for k, v in tracer.metrics().items()}
        result["spans"] = tracer.spans

    # untimed cross-check for kbound: the length-4 bound of the same pair
    check_len = job.get("check_kbound_len")
    if check_len:
        with open(job["config"]) as fh:
            tw = json.load(fh)["target"]["twist"]
        sigma = fuchsian.octagon_representation()
        rho = earthquake.twist(sigma, earthquake.TwistSpec(tw["curve"], float(tw["t"])))
        result["k_lower_bound_check"] = float(
            fuchsian.k_lower_bound(fuchsian.enumerate_words(check_len), sigma, rho)
        )

    return _write(job, result)


def _write(job, result):
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
