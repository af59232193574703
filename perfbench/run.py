"""sectorheat benchmark: drives the public CLI entry point
(``sectorheat.cli.main``) over generated JSON manifests and reports
end-to-end metrics, or with ``--trace 1`` per-layer metrics.

    python3 perfbench/run.py --workload blowup-1d --seed 3 --seconds 42
    python3 perfbench/run.py --workload picard-2d --trace 1
    python3 perfbench/run.py --workload all --quick   # everything, briefly

Every measurement runs in a fresh child process (perfbench/worker.py), one
at a time, so peak RSS and import time do not carry over.  Each child sets
up from an empty cache directory: interpreter start, package import and the
CLI's ``cache_build`` of the workload's psi cache.  An untraced run starts
SETUPS children; all but the last exit after setting up, and the last runs
warm passes, at least one, until ``--seconds`` after the run's start.  A
traced run starts one child, whose warm passes alternate untraced and
traced.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end time metric is ``wall_rel``: the mean wall time of a warm
pass over the mean time of a fixed calibration computation (no sectorheat
code) run before the first pass and after every run of each pass.  On a
shared host the raw pass time follows the host's speed, which drifts over
minutes; the ratio much less so, and a change to the program still moves
it.  The raw times are printed in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCES = os.path.join(HERE, "references.json")

# set-ups per untraced run; setup_s is their median.  A set-up takes about
# 1.1 s, so they leave most of a run to the warm passes, whose pass-to-pass
# spread on a shared host needs half a minute of them to average out.
SETUPS = 5
RUN_LIMIT_S = 170   # a run must end within 180 s, children included
MAX_SECONDS = 120   # leaves room for the set-up and pass that overrun it

# (metric, unit, which traced pass, span name, field of the span summary)
# "cold" is the first pass from an empty cache directory, "warm" the median
# over traced warm passes.  Fields: calls, s (inclusive), self_s, work.
LAYER_METRICS = [
    ("profiles.sample.calls", "count", "warm", "profiles.sample", "calls"),
    ("profiles.sample.points", "count", "warm", "profiles.sample", "work"),
    ("profiles.sample.s", "s", "warm", "profiles.sample", "s"),
    ("semigroup.apply_kernel.analytic.calls", "count", "warm",
     "semigroup.apply_kernel.analytic", "calls"),
    ("semigroup.apply_kernel.analytic.self_s", "s", "warm",
     "semigroup.apply_kernel.analytic", "self_s"),
    ("semigroup.apply_kernel.grid.calls", "count", "warm",
     "semigroup.apply_kernel.grid", "calls"),
    ("semigroup.apply_kernel.grid.s", "s", "warm",
     "semigroup.apply_kernel.grid", "s"),
    ("picard.solve_picard.calls", "count", "warm", "picard.solve_picard",
     "calls"),
    ("picard.solve_picard.s", "s", "warm", "picard.solve_picard", "s"),
    ("picard.sweeps", "count", "warm", "picard.solve_picard", "work"),
    ("semigroup.apply_spectral.calls", "count", "warm",
     "semigroup.apply_spectral", "calls"),
    ("semigroup.apply_spectral.s", "s", "warm", "semigroup.apply_spectral",
     "s"),
    ("evolve.strang_step.calls", "count", "warm", "evolve.strang_step",
     "calls"),
    ("evolve.strang_step.self_s", "s", "warm", "evolve.strang_step",
     "self_s"),
    ("evolve.nonlinear_substep.calls", "count", "warm",
     "evolve.nonlinear_substep", "calls"),
    ("evolve.nonlinear_substep.s", "s", "warm", "evolve.nonlinear_substep",
     "s"),
    ("evolve.steps", "count", "warm", "evolve.run_trajectory", "work"),
    ("geometry.Field.init.calls", "count", "warm", "geometry.Field.init",
     "calls"),
    ("geometry.Field.init.s", "s", "warm", "geometry.Field.init", "s"),
    ("semigroup.psi_values.calls", "count", "warm", "semigroup.psi_values",
     "calls"),
    ("semigroup.psi_values.points", "count", "warm", "semigroup.psi_values",
     "work"),
    ("semigroup.psi_values.s", "s", "warm", "semigroup.psi_values", "s"),
    ("semigroup.build_psi_cache.s", "s", "cold", "semigroup.build_psi_cache",
     "s"),
    ("semigroup.linear_sup.calls", "count", "cold", "semigroup.linear_sup",
     "calls"),
    ("semigroup.linear_sup.s", "s", "cold", "semigroup.linear_sup", "s"),
    ("semigroup.save_cache.s", "s", "cold", "semigroup.save_cache", "s"),
    ("semigroup.save_cache.bytes", "B", "cold", "semigroup.save_cache",
     "work"),
    ("semigroup.load_cache.calls", "count", "warm", "semigroup.load_cache",
     "calls"),
    ("semigroup.load_cache.s", "s", "warm", "semigroup.load_cache", "s"),
    ("semigroup.load_cache.bytes", "B", "warm", "semigroup.load_cache",
     "work"),
    ("cli.picard.s", "s", "warm", "cli.picard", "s"),
    ("cli.tmax.s", "s", "warm", "cli.tmax", "s"),
    ("cli.sweep.s", "s", "warm", "cli.sweep", "s"),
    ("cli.global_smallness.s", "s", "warm", "cli.global_smallness", "s"),
    ("lifespan.sweep_lifespan.s", "s", "warm", "lifespan.sweep_lifespan",
     "s"),
    ("lifespan.global_smallness_check.s", "s", "warm",
     "lifespan.global_smallness_check", "s"),
]
WARNING_KINDS = ("tail_mass", "under_resolved", "other")
E2E_UNITS = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not measure (not a failed experiment)."""


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _child_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _spawn(workdir: str, tag: str, setup: tuple, runs: list, trace: bool,
           warm_until: float | None, deadline: float) -> dict:
    """Run one worker child to completion and return its result.  With
    ``warm_until`` None the child only sets up."""
    child_dir = os.path.join(workdir, tag)
    cache_dir = os.path.join(child_dir, "cache")
    os.makedirs(cache_dir)

    def write(entries):
        job_runs = []
        for label, manifest, _ in entries:
            out_dir = os.path.join(child_dir, "out", label)
            path = os.path.join(child_dir, f"{label}.json")
            with open(path, "w") as fh:
                json.dump({**manifest, "output_dir": out_dir}, fh)
            job_runs.append({"label": label, "manifest": path,
                             "output_dir": out_dir})
        return job_runs

    job = {"src": SRC, "setup": write([setup]), "runs": write(runs),
           "cache_dir": cache_dir, "trace": trace, "warm_until": warm_until,
           "result": os.path.join(child_dir, "result.json")}
    job_path = os.path.join(child_dir, "job.json")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left for another child process")
    job["spawn_monotonic"] = time.monotonic()
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            stdout=sys.stderr, env=_child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"worker {tag} exceeded {timeout:.0f} s") from e
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        raise HarnessError(f"worker {tag} exited with {proc.returncode}")
    with open(job["result"]) as fh:
        return json.load(fh)


def measure(workload: str, runs: list, trace: bool, seconds: float,
            setups: int) -> list:
    """Run ``setups`` worker processes one after another, each from an
    empty cache directory; all but the last only set up, the last runs warm
    passes until ``seconds`` after the start.  Return their results."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setup = wl.setup_manifest(workload)
    workdir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return [_spawn(workdir, f"child{i}", setup, runs, trace,
                       start + seconds if i == setups - 1 else None,
                       deadline)
                for i in range(setups)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check(workload: str, seed: int, runs: list, results: list,
           refs: dict) -> tuple[int, int, list, dict]:
    """Check every run of every pass: attempted, failed, reasons, drift."""
    attempted = failed = 0
    reasons: list[str] = []
    params = {label: p for label, _, p in runs + [wl.setup_manifest(workload)]}
    for res in results:
        for pass_outputs in [res["setup_outputs"]] + res["outputs"]:
            for out in pass_outputs:
                attempted += 1
                why = wl.check_run(workload, out["label"],
                                   params[out["label"]], out,
                                   refs.get(workload, {}), seed)
                if why:
                    failed += 1
                    reasons.extend(f"{out['label']}: {w}" for w in why)
    drift = {}
    if seed == wl.DEFAULT_SEED:
        for out in results[-1]["outputs"][-1]:
            drift[out["label"]] = wl.drift(out["label"],
                                           params[out["label"]], out,
                                           refs.get(workload, {}))
    return attempted, failed, reasons, drift


def _supported_percentile(n: int) -> str:
    # choosing-metrics rule: report a percentile only with at least ten
    # samples beyond it
    if n < 20:
        return "none (fewer than 20 samples)"
    return f"p{int(100 * (1 - 10 / n))}"


def e2e_metrics(results: list) -> tuple[dict, list]:
    res = results[-1]
    walls, cal = res["passes"], res["calibration_s"]
    # mean pass time over mean calibration time: both average the host's
    # speed over the same stretch of the run
    rel = statistics.fmean(walls) / statistics.fmean(cal)
    setups = [r["setup_s"] for r in results]
    values = {"wall_rel": rel, "setup_s": _median(setups),
              "peak_rss_mb": res["peak_rss_mb"]}
    lines = [
        f"wall_s      {_median(walls):.4f} s   median of n={len(walls)} "
        f"warm passes {[round(w, 3) for w in walls]}; highest supported "
        f"percentile: {_supported_percentile(len(walls))}",
        f"calibration {statistics.fmean(cal):.4f} s   mean of n={len(cal)} "
        f"{[round(c, 3) for c in cal]}",
        f"wall_rel    {rel:.4f} x   mean warm pass over mean calibration",
        f"setup_s     {values['setup_s']:.4f} s   median of n={len(setups)}"
        f" cold set-ups {[round(s, 3) for s in setups]}",
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB  of the process that "
        "ran the passes",
    ]
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
               for k, v in values.items()}
    return metrics, lines


def layer_metrics(res: dict) -> tuple[dict, list]:
    warm, cold = res["warm_trace"], res["cold_trace"]

    def field(summ, name, key):
        return summ.get(name, {}).get(key, 0 if key in ("calls", "work")
                                       else 0.0)

    metrics = {}
    for name, unit, which, span, key in LAYER_METRICS:
        if which == "cold":
            v = field(cold, span, key)
        else:
            v = _median([field(s, span, key) for s in warm])
        metrics[name] = {"value": v, "unit": unit}
    gets = _median([field(s, "cli.get_cache", "calls") for s in warm])
    builds = _median([field(s, "semigroup.build_psi_cache", "calls")
                      for s in warm])
    metrics["cli.cache.hit"] = {"value": gets - builds, "unit": "count"}
    metrics["cli.cache.miss"] = {"value": builds, "unit": "count"}
    metrics["process.cpu_s"] = {"value": _median(res["cpu_s"]), "unit": "s"}
    for kind in WARNING_KINDS:
        metrics[f"warnings.{kind}"] = {
            "value": _median([s["warnings"].get(kind, 0) for s in warm]),
            "unit": "count"}
    untraced, traced = _median(res["passes"]), _median(res["traced_passes"])
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}

    # self times of the last traced pass, as shares of that pass
    last, wall = warm[-1], res["traced_passes"][-1]
    spans = {k: v["self_s"] for k, v in last.items() if k != "warnings"}
    by_module: dict = {}
    for span, t in spans.items():
        mod = span.split(".")[0]
        by_module[mod] = by_module.get(mod, 0.0) + t
    top = sorted(spans.items(), key=lambda kv: -kv[1])[:6]
    lines = [f"traced warm pass {traced:.3f} s, untraced {untraced:.3f} s "
             f"(overhead {traced - untraced:+.3f} s)",
             "self time by layer (share of the traced pass): " + ", ".join(
                 f"{m} {t / wall:.0%}" for m, t in
                 sorted(by_module.items(), key=lambda kv: -kv[1])),
             "largest self times: " + ", ".join(
                 f"{span} {t:.3f} s ({t / wall:.0%})" for span, t in top)]
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, refs: dict) -> dict:
    """Measure one workload; return the result object and report lines."""
    runs = wl.manifests(workload, seed)
    results = measure(workload, runs, trace, seconds,
                      1 if trace or quick else SETUPS)
    attempted, failed, reasons, drift = _check(workload, seed, runs,
                                               results, refs)
    if trace:
        metrics, lines = layer_metrics(results[-1])
    else:
        metrics, lines = e2e_metrics(results)
    prov = dict(results[0]["provenance"], git_commit=_git_commit())
    head = [f"== {workload}  seed {seed}  amplitude factor "
            f"{wl.seed_factor(seed):.6f}  trace {int(trace)}",
            "provenance: " + json.dumps(prov, sort_keys=True)]
    tail = [f"failed_ratio {failed}/{attempted} = {failed / attempted:g}"]
    tail += [f"  FAILED {r}" for r in reasons[:20]]
    if not trace:
        rebuilt = sum(r["cache_rebuilds"] for r in results)
        tail.append(f"cache: {rebuilt} rebuilds in warm passes"
                    + ("  (expected 0: the cache was not reused)"
                       if rebuilt else ""))
    for label, d in drift.items():
        if d:
            tail.append(f"drift vs stored work numbers, {label}: " + ", ".join(
                f"{k} {v:+.2%}" for k, v in d.items()))
    if trace:
        tail.append("per-layer metrics: " + ", ".join(
            f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump({"workload": workload, "seed": seed, "provenance": prov,
                   "metrics": metrics, "failures": reasons, "drift": drift,
                   "children": [{k: v for k, v in r.items()
                                 if k != "outputs"} for r in results]},
                  fh, indent=1)
    return {"result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
            "lines": head + lines + tail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS + ("all",),
                    help="'all' runs each workload untraced and traced")
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0,
                    help="time one run measures, set-ups included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one set-up and one warm pass per run")
    args = ap.parse_args(argv)
    if not 0 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be within 0 and {MAX_SECONDS}")
    if not os.path.isfile(os.path.join(SRC, "sectorheat", "__init__.py")):
        print(f"error: no sectorheat package under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    seconds = 0.0 if args.quick else args.seconds
    try:
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, seconds,
                               bool(args.trace), args.quick, refs)
            print("\n".join(out["lines"]))
            print(json.dumps(out["result"]), flush=True)
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in wl.WORKLOADS:
            for trace in (False, True):
                out = run_workload(name, args.seed, seconds, trace,
                                   args.quick, refs)
                print("\n".join(out["lines"]), flush=True)
                r = out["result"]
                combined["correct"] &= r["correct"]
                combined["attempted"] += r["attempted"]
                combined["failed"] += r["failed"]
                combined["metrics"].setdefault(name, {}).update(r["metrics"])
        print(json.dumps(combined), flush=True)
        return 0
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
