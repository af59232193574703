"""Command-line front door: declarative JSON manifests in, CSV/JSON
artifacts and a one-screen summary out.

Exit codes: 0 success, 2 configuration error, 3 numerical gate failure,
4 scientifically inconclusive outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Field, GridSpec, SectorSpec
from .profiles import (ConstantProfile, GaussianDerivativeProfile,
                       LogBlockModulation, ModulatedProfile, Psi0Profile,
                       SinSquaredLog)
from .semigroup import (KernelPlan, apply_spectral,
                        build_psi_cache, linear_sup, psi_sup, save_cache)
from .picard import contraction_bound, lipschitz_bound, solve_picard
from .evolve import STATUS_BLEWUP, STATUS_GLOBAL, EvolveControls, \
    estimate_tmax
from . import lifespan as ls

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_INCONCLUSIVE = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunManifest:
    experiment: str
    spec: SectorSpec
    grid: GridSpec
    profile: dict = field(default_factory=lambda: {"kind": "psi0"})
    lambdas: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    horizon: float = 50.0
    t0: float = 0.1
    output_dir: str = "."

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        if not isinstance(d, dict):
            raise ConfigError("malformed manifest: not a JSON object")
        for key, kind in (("profile", dict), ("lambdas", list)):
            if key in d:
                _of_type(key, d[key], kind)
        unknown = cls._unknown_keys(d)
        if unknown:
            raise ConfigError("unknown manifest keys: "
                              + ", ".join(map(repr, unknown)))
        try:
            kind = d["experiment"]
            if kind not in EXPERIMENTS:
                raise ConfigError(f"unknown experiment {kind!r}; choose one "
                                  f"of {EXPERIMENTS}")
            s = d["spec"]
            spec = SectorSpec(_integer("spec.N", s["N"]),
                              _integer("spec.m", s["m"]),
                              _real("spec.gamma", s["gamma"]),
                              _real("spec.alpha", s["alpha"]),
                              _integer("spec.sign_a", s.get("sign_a", 1)))
            g = d["grid"]
            n = _integer("grid.n", g["n"])
            if "axes" in g:
                if len(_of_type("grid.axes", g["axes"], list)) != spec.N:
                    raise ConfigError(f"grid axes {g['axes']} must have "
                                      f"N={spec.N} entries")
                grid = GridSpec(_real("grid.L", g["L"]), n, tuple(g["axes"]))
            else:
                grid = GridSpec.for_spec(spec, _real("grid.L", g["L"]), n)
            # absent keys keep the field defaults
            man = cls(experiment=kind, spec=spec, grid=grid)
            man.profile = dict(d.get("profile", man.profile))
            man.lambdas = [_real("lambdas", x)
                           for x in d.get("lambdas", man.lambdas)]
            # a zero, negative or NaN time gives a verdict that no
            # computation earned
            man.horizon = _positive("horizon", d.get("horizon", man.horizon))
            man.t0 = _positive("t0", d.get("t0", man.t0))
            man.output_dir = str(d.get("output_dir", man.output_dir))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"malformed manifest: {e}") from e
        # the profile is valid if it can be built
        profile_from_descriptor(spec, man.profile)
        # and so does no amplitude
        if not man.lambdas or not all(0.0 < x < np.inf for x in man.lambdas):
            raise ConfigError(f"'lambdas' must be a non-empty list of finite "
                              f"positive amplitudes, got {man.lambdas}")
        return man

    @staticmethod
    def _unknown_keys(d: dict) -> list[str]:
        """Manifest keys that name no field of RunManifest, or of SectorSpec
        and GridSpec inside "spec" and "grid"; profile_from_descriptor
        refuses those inside "profile"."""
        def names(cls):
            return {f.name for f in fields(cls)}

        unknown = []
        for where, known in (("", names(RunManifest)),
                             ("spec", names(SectorSpec)),
                             ("grid", names(GridSpec))):
            sub = d.get(where) if where else d
            if isinstance(sub, dict):
                unknown += [f"{where}.{k}" if where else k for k in sub
                            if k not in known]
        return unknown

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "spec": {"N": self.spec.N, "m": self.spec.m,
                     "gamma": self.spec.gamma, "alpha": self.spec.alpha,
                     "sign_a": self.spec.sign_a},
            "grid": {"L": self.grid.L, "n": self.grid.n,
                     "axes": list(self.grid.axes)},
            "profile": self.profile,
            "lambdas": self.lambdas,
            "horizon": self.horizon,
            "t0": self.t0,
            "output_dir": self.output_dir,
        }


def _integer(key: str, x) -> int:
    """A manifest's integer field as an int.  int() would truncate 1.7 to
    1 and read true as 1, so bools and non-integral numbers are refused."""
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(
            x, float) and x.is_integer()):
        raise ConfigError(f"{key!r} must be an integer, got {x!r}")
    return int(x)


def _real(key: str, x) -> float:
    """A manifest's real field as a float.  float() would read "0.5" from
    a string and true as 1, so only ints and floats, not bools, pass."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{key!r} must be a real number, got {x!r}")
    return float(x)


def _positive(key: str, x) -> float:
    """A manifest's real field that must be finite and positive."""
    x = _real(key, x)
    if not 0.0 < x < np.inf:
        raise ConfigError(f"{key!r} must be finite and positive, got {x}")
    return x


def _of_type(key: str, x, kind: type):
    """x if it is a JSON object (dict) or array (list).  dict() and list()
    would take other iterables: "12" as the lambdas [1.0, 2.0]."""
    if not isinstance(x, kind):
        raise ConfigError(f"{key!r} must be a JSON "
                          f"{'object' if kind is dict else 'array'}, "
                          f"got {x!r}")
    return x


def profile_from_descriptor(spec: SectorSpec, d: dict):
    """The profile a manifest's "profile" object describes: the one place
    that knows its keys.  Each is read once, with its default, and a key
    that the kind and modulation do not read is refused by name."""
    d = dict(d)

    def real(key, default):
        return _real(f"profile.{key}", d.pop(key, default))

    kind = d.pop("kind", "psi0")
    amp = real("amplitude", 1.0)
    if kind == "psi0":
        prof = Psi0Profile(spec, amp)
    elif kind == "modulated_psi0":
        mod = d.pop("modulation", "sin2log")
        if mod == "sin2log":
            g = SinSquaredLog(real("eps", 0.05), real("shift", 0.0))
        elif mod == "log_blocks":
            g = LogBlockModulation(real("c1", 1.0), real("c2", 2.0))
        else:
            raise ConfigError(f"unknown modulation {mod!r}; choose one of "
                              "'sin2log', 'log_blocks'")
        prof = ModulatedProfile(spec, g, amp)
    elif kind == "gaussian_derivative":
        prof = GaussianDerivativeProfile(
            spec, _positive("profile.t0", d.pop("t0", 0.5)), amp)
    elif kind == "constant":
        prof = ConstantProfile(spec, amp)
    else:
        raise ConfigError(f"unknown profile kind {kind!r}; choose one of "
                          "'psi0', 'modulated_psi0', 'gaussian_derivative', "
                          "'constant'")
    if d:
        raise ConfigError("unknown manifest keys: "
                          + ", ".join(f"'profile.{k}'" for k in d))
    return prof


def cache_path(man: RunManifest, cache_dir: str) -> str:
    s, g = man.spec, man.grid
    axes = "-".join(g.axes)
    name = (f"psi_N{s.N}_m{s.m}_g{s.gamma!r}_L{g.L!r}_n{g.n}_ax-{axes}.shc"
            .replace("/", "_"))
    return os.path.join(cache_dir, name)


def get_cache(man: RunManifest, plan: KernelPlan, cache_dir: str):
    """Build the Psi cache of the manifest's grid and write it to cache_dir.
    Only the cache_build experiment exports it; no run reads it back."""
    cache = build_psi_cache(plan.spec, plan.grid)
    os.makedirs(cache_dir, exist_ok=True)
    save_cache(cache, cache_path(man, cache_dir))
    return cache


# ---------------------------------------------------------------------------
# experiments

def _controls(man: RunManifest) -> EvolveControls:
    return EvolveControls(horizon=man.horizon)


def run_semigroup_checks(man, plan, out):
    spec, grid = man.spec, man.grid
    report = {}
    # the spectral flow, which apply_kernel takes for a field of ones too,
    # without its truncation warning: the ones reach the box edge by choice
    heated = apply_spectral(plan, 0.5,
                            Field(spec, grid, np.ones(grid.shape())))
    report["sub_markov_max"] = heated.values.max()
    report["positivity_ok"] = bool(heated.values.min() >= -1e-12)
    sup_law = [t ** (spec.decay / 2.0) * linear_sup(plan, Psi0Profile(spec), t)
               for t in (0.25, 1.0, 4.0)]
    report["sup_law_values"] = sup_law
    report["sup_law_rel_spread"] = (max(sup_law) - min(sup_law)) / sup_law[1]
    # the bump pi^{N/2} 2^{-m} G_{1/4} (x_1 e^{-|x|^2} if m = 1) flows to
    # the same multiple of G_{1/4 + t}: the exact reference
    amp = np.pi ** (spec.N / 2.0) * 2.0 ** -spec.m
    pts = grid.points()
    bump = Field(spec, grid, GaussianDerivativeProfile(spec, 0.25, amp)(pts))
    exact = GaussianDerivativeProfile(spec, 0.25 + 0.3, amp)(pts)
    s = apply_spectral(plan, 0.3, bump)
    report["cross_method_rel"] = float(
        np.max(np.abs(s.values - exact)) / np.max(np.abs(exact)))
    a = apply_spectral(plan, 0.2, apply_spectral(plan, 0.1, bump))
    report["spectral_composition"] = float(np.max(np.abs(a.values - s.values)))
    ok = (report["sub_markov_max"] <= 1.0 + 1e-10
          and report["positivity_ok"]
          and report["sup_law_rel_spread"] < 5e-3
          and report["cross_method_rel"] < 1e-3
          and report["spectral_composition"] < 1e-6)
    ls.save_report(report, os.path.join(out, "semigroup_checks.json"))
    return report, (EXIT_OK if ok else EXIT_GATE)


def run_picard_experiment(man, plan, out):
    prof = profile_from_descriptor(man.spec, man.profile)
    run = solve_picard(prof, plan)
    M, T = run.config.M, run.config.T
    qbound = contraction_bound(man.spec, M, T)
    report = {
        "K": run.config.K, "M": M, "T": T,
        "converged": run.converged,
        "iterations": len(run.increments),
        "increments": run.increments,
        "contraction_ratio": run.contraction_ratio,
        "contraction_bound": qbound,
        "lipschitz_bound": lipschitz_bound(man.spec, M, T),
        "xt_norm": run.xt_norm,
    }
    ok = (run.converged and run.xt_norm <= M
          and run.contraction_ratio <= 1.05 * qbound)
    ls.save_report(report, os.path.join(out, "picard.json"))
    return report, (EXIT_OK if ok else EXIT_GATE)


def run_tmax(man, plan, out):
    prof = profile_from_descriptor(man.spec, man.profile)
    rec = estimate_tmax(prof, plan, controls=_controls(man))
    rec.save_csv(os.path.join(out, "trajectory.csv"))
    rec.save_json(os.path.join(out, "tmax.json"))
    report = {"status": rec.status, "t_max": rec.t_max,
              "uncertainty": rec.uncertainty,
              "fit_residual": rec.fit_residual}
    code = EXIT_OK if rec.status in (STATUS_BLEWUP, STATUS_GLOBAL) \
        else EXIT_INCONCLUSIVE
    return report, code


def run_sweep(man, plan, out):
    prof = profile_from_descriptor(man.spec, man.profile)
    curve = ls.sweep_lifespan(prof, man.lambdas, plan,
                              controls=_controls(man))
    curve.save_csv(os.path.join(out, "sweep.csv"))
    report = {"sigma": curve.sigma, "slope": curve.slope,
              "scaled": curve.scaled, "statuses": curve.statuses,
              "monotone": curve.monotone}
    ls.save_report(report, os.path.join(out, "sweep.json"))
    if any(s not in (STATUS_BLEWUP, STATUS_GLOBAL) for s in curve.statuses):
        return report, EXIT_INCONCLUSIVE
    return report, (EXIT_OK if curve.monotone else EXIT_GATE)


def run_dilation(man, plan, out):
    prof = profile_from_descriptor(man.spec, man.profile)
    probe = ls.dilation_limits(man.spec, prof, man.lambdas)
    report = {
        "lambdas": probe.lambdas,
        "pairwise_last": float(probe.distances[-1, -2])
        if len(probe.lambdas) > 1 else 0.0,
        "converged": probe.converged,
        "bound_ok": probe.bound_ok,
        "limit_max": float(np.max(np.abs(probe.limit)))
        if probe.limit is not None else None,
    }
    ls.save_report(report, os.path.join(out, "dilation.json"))
    return report, (EXIT_OK if probe.bound_ok else EXIT_GATE)


def run_criteria(man, plan, out):
    prof = profile_from_descriptor(man.spec, man.profile)
    report = ls.blowup_criterion_check(prof, plan)
    ls.save_report(report, os.path.join(out, "criteria.json"))
    code = EXIT_INCONCLUSIVE if report["verdict"] == "undetermined" \
        else EXIT_OK
    return report, code


def run_two_limit(man, plan, out):
    # c1 and c2 of a log_blocks profile; other data keep the defaults
    g = getattr(profile_from_descriptor(man.spec, man.profile), "g", None)
    blocks = ({"c1": g.c1, "c2": g.c2}
              if isinstance(g, LogBlockModulation) else {})
    report = ls.two_limit_experiment(plan, **blocks, controls=_controls(man))
    ls.save_report(report, os.path.join(out, "two_limit.json"))
    expect_gap = abs(report["c1"] - report["c2"]) > 1e-12
    ok = report["matches_references"] and \
        (report["gap_significant"] == expect_gap)
    return report, (EXIT_OK if ok else EXIT_GATE)


def run_global_smallness(man, plan, out):
    report = ls.global_smallness_check(plan, t0=man.t0,
                                       horizon_factor=man.horizon / man.t0)
    ls.save_report(report, os.path.join(out, "global_smallness.json"))
    return report, (EXIT_OK if report["certified"] else EXIT_GATE)


def run_cache_build(man, plan, out):
    # the file itself is written by run(), which knows the cache directory
    report = {"C_inf": psi_sup(man.spec, 1.0), "grid_n": man.grid.n,
              "grid_L": man.grid.L}
    ls.save_report(report, os.path.join(out, "cache_build.json"))
    return report, EXIT_OK


_RUNNERS = {
    "semigroup_checks": run_semigroup_checks,
    "picard": run_picard_experiment,
    "tmax": run_tmax,
    "sweep": run_sweep,
    "dilation": run_dilation,
    "criteria": run_criteria,
    "two_limit": run_two_limit,
    "global_smallness": run_global_smallness,
    "cache_build": run_cache_build,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(man: RunManifest, cache_dir: str | None = None,
        verbose: bool = True) -> int:
    out = man.output_dir
    os.makedirs(out, exist_ok=True)
    plan = KernelPlan(man.spec, man.grid)
    if man.experiment == "cache_build":
        get_cache(man, plan, cache_dir or out)
    report, code = _RUNNERS[man.experiment](man, plan, out)
    if verbose:
        print(f"experiment: {man.experiment}")
        print(f"spec: N={man.spec.N} m={man.spec.m} gamma={man.spec.gamma} "
              f"alpha={man.spec.alpha} a={man.spec.sign_a:+d}")
        print(f"grid: L={man.grid.L} n={man.grid.n}")
        for k in sorted(report):
            print(f"  {k} = {report[k]}")
        print(f"exit: {code}")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="sectorheat",
        description="Experiments for the semilinear heat equation with "
                    "singular anti-symmetric data on sectors.")
    ap.add_argument("manifest", help="path to a JSON run manifest")
    ap.add_argument("--cache-dir", default=None,
                    help="directory cache_build writes the psi cache to "
                         "(default: the output dir)")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)
    try:
        with open(args.manifest) as fh:
            man = RunManifest.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(man, cache_dir=args.cache_dir, verbose=not args.quiet)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
