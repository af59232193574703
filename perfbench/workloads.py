"""Workloads of the sectorheat benchmark: the CLI manifests each one runs,
made from a seed, and the checks that decide whether a run was correct.

This module imports nothing from the package, so the parent process of the
benchmark can use it without paying the package's import time.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("picard-2d", "blowup-1d", "smallness-1d")
DEFAULT_SEED = 0

# "1-D" is the setup11 configuration of the test suite, "2-D" is setup21.
SPEC_1D = {"N": 1, "m": 1, "gamma": 0.5, "alpha": 0.5, "sign_a": 1}
SPEC_2D = {"N": 2, "m": 1, "gamma": 1.0, "alpha": 0.5, "sign_a": 1}
# alpha = 2 > 2/(gamma+m) = 4/3: supercritical, so data small enough exist
# globally and the smallness certificate applies.
SPEC_SUPER = {"N": 1, "m": 1, "gamma": 0.5, "alpha": 2.0, "sign_a": 1}
GRID_1D = {"L": 10.0, "n": 256}
GRID_2D = {"L": 8.0, "n": 64}

# A seed moves the data amplitude a within 1 +- SPREAD.  The work of a
# T_max run scales like a^-sigma, so a wider range would make the wall time
# depend on the seed by more than the benchmark's bound allows.
SPREAD = 0.02
SMALLNESS_T0 = 0.1
SMALLNESS_HORIZON = 10.0

# rtol of the scaling identity lam^sigma T_max(lam f) = T_max(f) on the
# fixed grid; the code's own scaled values over lam in {0.5, 1, 2} spread
# by 1.4e-3 relative, so the check must not be tighter than that.
SCALING_RTOL = 5e-3
# tolerated relative change of a stepped result (T_max, the final sup of the
# smallness trajectory) at the default seed: the time-step error is near
# 3e-5 and the BLAS thread count moves the last digits.
STEPPED_RTOL = 1e-3
C_INF_RTOL = 1e-6


def sigma(spec: dict) -> float:
    """Life-span scaling exponent (1/alpha - (gamma+m)/2)^-1."""
    return 1.0 / (1.0 / spec["alpha"] - (spec["gamma"] + spec["m"]) / 2.0)


def seed_factor(seed: int) -> float:
    """1 at the default seed, else uniform in [1 - SPREAD, 1 + SPREAD]."""
    if seed == DEFAULT_SEED:
        return 1.0
    return 1.0 + SPREAD * (2.0 * random.Random(seed).random() - 1.0)


def manifests(workload: str, seed: int) -> list[tuple[str, dict, dict]]:
    """The runs of one pass as (label, manifest, parameters for the checks).

    Manifests carry no output_dir; the worker sets it.
    """
    a = seed_factor(seed)
    if workload == "picard-2d":
        psi0 = {"kind": "psi0", "amplitude": a}
        base = {"spec": SPEC_2D, "grid": GRID_2D, "profile": psi0}
        params = {"amplitude": a, "sigma": sigma(SPEC_2D)}
        return [("picard", {"experiment": "picard", **base}, params),
                ("tmax", {"experiment": "tmax", **base}, params)]
    if workload == "blowup-1d":
        s = sigma(SPEC_1D)
        # the log shift (sigma/2) log a makes a^sigma T_max of this datum
        # equal T_max of the unshifted, unit-amplitude one, exactly
        modulated = {"kind": "modulated_psi0", "modulation": "sin2log",
                     "eps": 0.05, "shift": 0.5 * s * math.log(a),
                     "amplitude": a}
        params = {"amplitude": a, "sigma": s}
        lambdas = [0.5, 1.0, 2.0]
        return [("sweep", {"experiment": "sweep", "spec": SPEC_1D,
                           "grid": GRID_1D,
                           "profile": {"kind": "psi0", "amplitude": a},
                           "lambdas": lambdas},
                 {**params, "lambdas": lambdas}),
                ("tmax_sin2log", {"experiment": "tmax", "spec": SPEC_1D,
                                  "grid": GRID_1D, "profile": modulated},
                 params)]
    if workload == "smallness-1d":
        # global_smallness fixes the amplitude itself (half the certified
        # threshold); the seed moves t0, which sets the data lam Psi(t0).
        t0 = SMALLNESS_T0 * a
        return [("global_smallness",
                 {"experiment": "global_smallness", "spec": SPEC_SUPER,
                  "grid": GRID_1D, "t0": t0, "horizon": SMALLNESS_HORIZON},
                 {})]
    raise ValueError(f"unknown workload {workload!r}")


def setup_manifest(workload: str) -> tuple[str, dict, dict]:
    """The set-up of a workload, in the form of one entry of ``manifests``:
    the CLI ``cache_build`` of the psi cache that all its runs read."""
    _, man, _ = manifests(workload, DEFAULT_SEED)[0]
    return ("cache_build", {"experiment": "cache_build", "spec": man["spec"],
                            "grid": man["grid"]}, {})


# ---------------------------------------------------------------------------
# checks

def _close(failures: list, what: str, x, ref, rtol: float) -> None:
    if x is None or not math.isfinite(x) or abs(x - ref) > rtol * abs(ref):
        failures.append(f"{what} = {x!r}, reference {ref!r} (rtol {rtol:g})")


def observed(label: str, params: dict, out: dict) -> dict:
    """Numbers of one experiment run that references are kept for."""
    rep = out.get("report") or {}
    obs = {"C_inf": out.get("C_inf")}
    if label == "picard":
        obs["sweeps"] = rep.get("iterations")
        obs["contraction_ratio"] = rep.get("contraction_ratio")
    elif label.startswith("tmax"):
        obs["t_max"] = rep.get("t_max")
        obs["uncertainty"] = rep.get("uncertainty")
        obs["steps"] = out.get("steps")
    elif label == "sweep" and "scaled" in rep:
        # the report keeps lam^sigma T_max(lam f); undo the scaling
        obs["t_max"] = [v / lam ** params["sigma"]
                        for lam, v in zip(params["lambdas"], rep["scaled"])]
    elif label == "global_smallness":
        obs["final_sup"] = rep.get("final_sup")
    return obs


def check_run(workload: str, label: str, params: dict, out: dict,
              refs: dict, seed: int) -> list[str]:
    """Reasons the run failed; empty when it is correct.

    ``refs`` holds the numbers stored for this workload.  Checks that hold
    for every seed use seed-independent quantities; the default seed is
    also compared number by number.
    """
    fails: list[str] = []
    if out.get("error"):
        return [f"raised {out['error']}"]
    if out.get("exit") != 0:
        fails.append(f"exit code {out.get('exit')}, expected 0")
    rep = out.get("report")
    if not isinstance(rep, dict):
        return fails + ["no report written"]
    obs = observed(label, params, out)
    ref = refs.get(label, {})
    try:
        _close(fails, "C_inf", obs["C_inf"], refs["C_inf"], C_INF_RTOL)
        if label == "picard":
            if rep.get("converged") is not True:
                fails.append("picard did not converge")
            if not rep["contraction_ratio"] <= \
                    1.05 * rep["contraction_bound"]:
                fails.append(f"contraction ratio {rep['contraction_ratio']}"
                             f" above 1.05 x bound "
                             f"{rep['contraction_bound']}")
        elif label.startswith("tmax"):
            if rep.get("status") != "blew_up":
                fails.append(f"status {rep.get('status')!r}, expected "
                             "blew_up")
            else:
                scaled = params["amplitude"] ** params["sigma"] \
                    * rep["t_max"]
                _close(fails, "a^sigma T_max", scaled, ref["t_max"],
                       SCALING_RTOL)
                if seed == DEFAULT_SEED:
                    _close(fails, "T_max", rep["t_max"], ref["t_max"],
                           STEPPED_RTOL)
        elif label == "sweep":
            if any(s != "blew_up" for s in rep.get("statuses", [None])):
                fails.append(f"sweep statuses {rep.get('statuses')}")
            else:
                a_s = params["amplitude"] ** params["sigma"]
                for lam, v in zip(params["lambdas"], rep["scaled"]):
                    _close(fails, f"lam^sigma a^sigma T_max (lam={lam})",
                           a_s * v, ref["t_max_unit"], SCALING_RTOL)
                if seed == DEFAULT_SEED:
                    for lam, v, r in zip(params["lambdas"], obs["t_max"],
                                         ref["t_max"]):
                        _close(fails, f"T_max (lam={lam})", v, r, STEPPED_RTOL)
        elif label == "cache_build":
            _close(fails, "reported C_inf", rep.get("C_inf"), refs["C_inf"],
                   C_INF_RTOL)
        elif label == "global_smallness":
            if rep.get("certified") is not True:
                fails.append("smallness not certified")
            if rep.get("bound_violation") is not None:
                fails.append(f"envelope violated at {rep['bound_violation']}")
            if seed == DEFAULT_SEED:
                _close(fails, "final sup", rep.get("final_sup"),
                       ref["final_sup"], STEPPED_RTOL)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        fails.append(f"report or reference incomplete: {e!r}")
    return fails


# numbers that measure work rather than results: a later change is expected
# to move them (fewer steps, an honest uncertainty), so they are compared at
# the default seed and reported as drift, but a change does not fail a run
WORK_NUMBERS = ("sweeps", "steps", "uncertainty", "contraction_ratio")


def drift(label: str, params: dict, out: dict, refs: dict) -> dict:
    """Relative change of each stored work number at the default seed."""
    obs = observed(label, params, out)
    ref = refs.get(label, {})
    res = {}
    for k in WORK_NUMBERS:
        if k in ref and isinstance(obs.get(k), (int, float)) and ref[k]:
            res[k] = (obs[k] - ref[k]) / abs(ref[k])
    return res
