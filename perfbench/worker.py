"""One benchmark process: imports sectorheat from the checkout's ``src``,
sets up by building the workload's psi cache through the CLI's
``cache_build`` experiment in an empty cache directory, then runs warm
passes of the workload's manifests until the job's end time, if it has
one, with a calibration timed before the first untraced pass and after
every run of each, and writes timings and the runs' outputs to a JSON file.

Usage: python3 perfbench/worker.py JOB.json  (written by run.py)
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from time import perf_counter


def _import_package(src: str):
    sys.path.insert(0, src)
    import sectorheat
    from sectorheat import cli
    here = os.path.realpath(os.path.dirname(sectorheat.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"sectorheat imported from {here}, not {src}")
    return sectorheat, cli


def _blas_threads():
    """Thread counts reported by each loaded OpenBLAS, by library file."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _provenance(sectorheat) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sectorheat": sectorheat.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


class Calibration:
    """A fixed computation that uses no sectorheat code: a Python dict loop,
    FFTs and elementwise work on a 256-point array, and elementwise work in
    place on a 64 k-point array (1 MB in all, so it leaves peak RSS alone),
    the kinds of work the workloads mix.  Its time, taken after every run
    of a warm pass, measures the machine's speed at that moment, so pass
    time over calibration time does not move when a shared host gets
    faster or slower over minutes."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.np = np
        self.small, self.big = rng.random(256), rng.random(1 << 16)
        self.buf = np.empty_like(self.big)
        self()   # first call pays for FFT plans and page faults

    def __call__(self) -> float:
        np = self.np
        t0 = perf_counter()
        acc: dict = {}
        for i in range(120000):
            acc[i & 1023] = acc.get(i & 1023, 0.0) + i * 0.5
        x = self.small
        for _ in range(5000):
            y = np.fft.irfft(np.fft.rfft(x) * 0.5, n=256)
            x = np.exp(-y) + y * y
        for _ in range(768):
            np.exp(self.big, out=self.buf)
            np.multiply(self.buf, self.big, out=self.buf)
            self.buf.sum()
        return perf_counter() - t0


def _cache_state(cache_dir: str) -> dict:
    return {p: os.stat(p).st_mtime_ns
            for p in glob.glob(os.path.join(cache_dir, "*"))}


def _run_pass(cli, runs, cache_dir, between=None) -> tuple[list, list]:
    """Run every manifest once; return each run's wall time and exit code.
    ``between``, if given, is called after each run, outside the timing."""
    walls, codes = [], []
    for label, path, _ in runs:
        t0 = perf_counter()
        try:
            codes.append((cli.main([path, "-q", "--cache-dir", cache_dir]),
                          None))
        except Exception as e:  # a raising run is a failed run, not a crash
            codes.append((None, f"{type(e).__name__}: {e}"))
        walls.append(perf_counter() - t0)
        if between:
            between()
    return walls, codes


def _collect(sectorheat, runs, codes, cache_dir) -> list:
    """Read back what each run wrote (outside any timed region)."""
    c_inf = None
    for p in sorted(glob.glob(os.path.join(cache_dir, "*"))):
        try:
            c_inf = sectorheat.load_cache(p).C_inf
        except (OSError, ValueError):
            pass
    outs = []
    for (label, path, out_dir), (code, err) in zip(runs, codes):
        out = {"label": label, "exit": code, "error": err, "C_inf": c_inf,
               "report": None, "steps": None}
        for p in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
            with open(p) as fh:
                out["report"] = json.load(fh)
        traj = os.path.join(out_dir, "trajectory.csv")
        if os.path.exists(traj):
            with open(traj) as fh:
                out["steps"] = sum(1 for _ in fh) - 2  # header, t0 row
        outs.append(out)
    return outs


def _clear(runs):
    for _, _, out_dir in runs:
        for p in glob.glob(os.path.join(out_dir, "*")):
            os.remove(p)


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sectorheat, cli = _import_package(job["src"])
    setup = [(r["label"], r["manifest"], r["output_dir"])
             for r in job["setup"]]
    runs = [(r["label"], r["manifest"], r["output_dir"]) for r in job["runs"]]
    cache_dir = job["cache_dir"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    res = {"passes": [], "outputs": []}
    _clear(setup)
    _, codes = _run_pass(cli, setup, cache_dir)
    res["setup_s"] = time.monotonic() - job["spawn_monotonic"]
    if tracer:
        tracer.uninstall()
        res["cold_trace"] = tracer.summary()
        tracer.reset()
    res["setup_outputs"] = _collect(sectorheat, setup, codes, cache_dir)

    # warm passes: in a traced job they alternate untraced and traced, so
    # the difference of their medians is the tracing overhead
    res["traced_passes"], res["cpu_s"] = [], []
    res["warm_trace"] = []
    res["cache_rebuilds"] = 0
    rounds = []
    if job["warm_until"] is not None:
        calibrate = Calibration()
        res["calibration_s"] = [calibrate()]
    while job["warm_until"] is not None:
        started = time.monotonic()
        before = _cache_state(cache_dir)
        cpu0 = time.process_time()
        _clear(runs)
        walls, codes = _run_pass(
            cli, runs, cache_dir,
            lambda: res["calibration_s"].append(calibrate()))
        res["passes"].append(sum(walls))
        res["cpu_s"].append(time.process_time() - cpu0)
        res["cache_rebuilds"] += sum(
            1 for p, t in _cache_state(cache_dir).items()
            if before.get(p) != t)
        res["outputs"].append(_collect(sectorheat, runs, codes, cache_dir))
        if tracer:
            tracer.install()
            _clear(runs)
            walls, codes = _run_pass(cli, runs, cache_dir)
            tracer.uninstall()
            res["traced_passes"].append(sum(walls))
            res["outputs"].append(_collect(sectorheat, runs, codes,
                                           cache_dir))
            summ = tracer.summary()
            summ["warnings"] = dict(tracer.warnings)
            res["warm_trace"].append(summ)
            tracer.reset()
        # after at least one round, start another only if a round of the
        # median length so far ends before warm_until (a monotonic time)
        now = time.monotonic()
        rounds.append(now - started)
        if now + statistics.median(rounds) > job["warm_until"]:
            break
    res["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["provenance"] = _provenance(sectorheat)
    with open(job["result"], "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
