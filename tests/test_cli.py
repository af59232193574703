import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sectorheat
from sectorheat.cli import (EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_OK,
                            ConfigError, RunManifest, cache_path, main,
                            profile_from_descriptor)
from sectorheat.geometry import AXIS_PERIODIC, SectorSpec
from sectorheat.profiles import (ConstantProfile, GaussianDerivativeProfile,
                                 ModulatedProfile, Psi0Profile)
from sectorheat.semigroup import load_cache


def _manifest_dict(**over):
    d = {
        "experiment": "cache_build",
        "spec": {"N": 1, "m": 1, "gamma": 0.5, "alpha": 0.5},
        "grid": {"L": 10.0, "n": 64},
    }
    d.update(over)
    return d


def test_manifest_roundtrip():
    d = _manifest_dict(experiment="sweep", lambdas=[1.0, 2.0], horizon=20.0,
                       profile={"kind": "psi0", "amplitude": 2.0})
    man = RunManifest.from_dict(d)
    again = RunManifest.from_dict(man.to_dict())
    assert again == man
    assert man.spec == SectorSpec(1, 1, 0.5, 0.5)
    assert man.grid.axes == ("antisym",)
    # a manifest that names only the required keys gets the field defaults
    minimal = RunManifest.from_dict(_manifest_dict())
    assert minimal == RunManifest(minimal.experiment, minimal.spec,
                                  minimal.grid)


def test_manifest_rejections():
    with pytest.raises(ConfigError):
        RunManifest.from_dict(_manifest_dict(experiment="nope"))
    with pytest.raises(ConfigError):
        RunManifest.from_dict({"experiment": "tmax"})       # missing spec
    with pytest.raises(ConfigError):
        RunManifest.from_dict(_manifest_dict(
            spec={"N": 1, "m": 1, "gamma": 0.5, "alpha": "-"}))
    # a manifest sets no tolerance: semigroup_checks' gates are fixed
    with pytest.raises(ConfigError, match="'tolerances'"):
        RunManifest.from_dict(_manifest_dict(
            tolerances={"cross_method": 1e-3}))
    # misspelt or retired keys are refused, each one named, at every level
    with pytest.raises(ConfigError, match="'horizn'"):
        RunManifest.from_dict(_manifest_dict(horizn=0.5))
    with pytest.raises(ConfigError, match="'seed'"):
        RunManifest.from_dict(_manifest_dict(seed=3))
    with pytest.raises(ConfigError) as info:
        RunManifest.from_dict(_manifest_dict(
            horizn=0.5,
            spec={"N": 1, "m": 1, "gamma": 0.5, "alpha": 0.5, "sign": -1},
            grid={"L": 10.0, "n": 64, "nodes": 64}))
    for key in ("'horizn'", "'spec.sign'", "'grid.nodes'"):
        assert key in str(info.value)
    # inside "profile" the known keys are those of its kind
    for prof, key in (({"kind": "psi0", "amplitud": 2.0}, "amplitud"),
                      ({"amplitude": 2.0, "t0": 0.5}, "t0"),
                      ({"kind": "modulated_psi0", "epsilon": 0.1}, "epsilon"),
                      ({"kind": "gaussian_derivative", "eps": 0.1}, "eps"),
                      ({"kind": "constant", "value": 2.0}, "value")):
        with pytest.raises(ConfigError, match=f"'profile.{key}'"):
            RunManifest.from_dict(_manifest_dict(profile=prof))
    with pytest.raises(ConfigError, match="unknown profile kind 'wat'"):
        RunManifest.from_dict(_manifest_dict(profile={"kind": "wat"}))
    # a modulated_psi0 profile takes the keys of its modulation only
    RunManifest.from_dict(_manifest_dict(profile={
        "kind": "modulated_psi0", "amplitude": 1.0, "modulation": "sin2log",
        "eps": 0.1, "shift": 0.0}))
    RunManifest.from_dict(_manifest_dict(profile={
        "kind": "modulated_psi0", "amplitude": 1.0,
        "modulation": "log_blocks", "c1": 1.0, "c2": 2.0}))
    for prof, key in (({"kind": "modulated_psi0", "modulation": "sin2log",
                        "eps": 0.1, "c1": 5.0}, "c1"),
                      ({"kind": "modulated_psi0", "c2": 9.0}, "c2"),
                      ({"kind": "modulated_psi0", "modulation": "log_blocks",
                        "c1": 1.0, "shift": 0.5}, "shift")):
        with pytest.raises(ConfigError, match=f"'profile.{key}'"):
            RunManifest.from_dict(_manifest_dict(profile=prof))
    with pytest.raises(ConfigError, match="unknown modulation 'wat'"):
        RunManifest.from_dict(_manifest_dict(profile={
            "kind": "modulated_psi0", "modulation": "wat"}))
    RunManifest.from_dict(_manifest_dict(profile={
        "kind": "gaussian_derivative", "amplitude": 1.0, "t0": 0.5}))
    # one axis kind per dimension
    with pytest.raises(ConfigError, match=r"axes .* N=1"):
        RunManifest.from_dict(_manifest_dict(
            grid={"L": 10.0, "n": 64, "axes": ["antisym", "sym"]}))
    with pytest.raises(ConfigError):
        RunManifest.from_dict(["not", "an", "object"])


@pytest.mark.parametrize("experiment, over, key", [
    ("global_smallness", {"horizon": 0}, "horizon"),
    ("tmax", {"horizon": -1.0}, "horizon"),
    ("tmax", {"horizon": float("nan")}, "horizon"),
    ("global_smallness", {"t0": 0.0}, "t0"),
    ("global_smallness", {"t0": float("inf")}, "t0"),
    ("sweep", {"lambdas": []}, "lambdas"),
    ("sweep", {"lambdas": [-1.0]}, "lambdas"),
    ("sweep", {"lambdas": [1.0, float("nan")]}, "lambdas"),
    ("tmax", {"grid": {"L": float("nan"), "n": 64}}, "L="),
    ("tmax", {"grid": {"L": float("inf"), "n": 64}}, "L="),
    # a Gaussian derivative of zero or negative width: refused before
    # output_dir is made
    ("tmax", {"profile": {"kind": "gaussian_derivative", "t0": 0}},
     "'profile.t0'"),
    ("tmax", {"profile": {"kind": "gaussian_derivative", "t0": -1}},
     "'profile.t0'"),
])
def test_manifest_refuses_values_that_earn_no_verdict(tmp_path, capsys,
                                                      experiment, over, key):
    # each of these ran to exit 0 (or crashed) with a verdict no step
    # earned: a zero or negative horizon, no amplitude, a negative one
    # whose complex lam^sigma the report cannot hold, an infinite box
    spec = {"N": 1, "m": 1, "gamma": 0.5,
            "alpha": 2.0 if experiment == "global_smallness" else 0.5}
    d = _manifest_dict(experiment=experiment, spec=spec,
                       output_dir=str(tmp_path / "out"), **over)
    assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not os.path.exists(tmp_path / "out")


_SPEC = {"N": 1, "m": 1, "gamma": 0.5, "alpha": 0.5}


@pytest.mark.parametrize("over, key", [
    # an integer field takes no non-integral number: "N": 1.7 ran as N = 1
    ({"spec": {**_SPEC, "N": 1.7}}, "'spec.N'"),
    ({"grid": {"L": 4.0, "n": 16.9}}, "'grid.n'"),
    # nor a bool: "m": true ran as m = 1
    ({"spec": {**_SPEC, "m": True}}, "'spec.m'"),
    ({"spec": {**_SPEC, "sign_a": True}}, "'spec.sign_a'"),
    # "profile" is an object: a string profile failed with dict()'s
    # message; its kind and modulation are names
    ({"profile": "psi0"}, "'profile'"),
    ({"profile": {"kind": 1}}, "unknown profile kind 1"),
    # "lambdas" and "grid.axes" are arrays: "12" ran as lambdas [1.0, 2.0]
    ({"lambdas": "12"}, "'lambdas'"),
    ({"grid": {"L": 4.0, "n": 16, "axes": "a"}}, "'grid.axes'"),
    # a real field takes no bool and no string: "alpha": true ran as
    # alpha = 1, "gamma": "0.5" and the rest were read from strings
    ({"spec": {**_SPEC, "alpha": True}}, "'spec.alpha'"),
    ({"spec": {**_SPEC, "gamma": "0.5"}}, "'spec.gamma'"),
    ({"grid": {"L": "4", "n": 16}}, "'grid.L'"),
    ({"horizon": "20"}, "'horizon'"),
    ({"t0": True}, "'t0'"),
    ({"lambdas": ["0.5", True]}, "'lambdas'"),
    ({"profile": {"kind": "modulated_psi0", "modulation": ["log_blocks"]}},
     "unknown modulation ['log_blocks']"),
    ({"profile": {"kind": "psi0", "amplitude": "2"}}, "'profile.amplitude'"),
    ({"profile": {"kind": "modulated_psi0", "eps": True}}, "'profile.eps'"),
])
def test_manifest_refuses_values_of_the_wrong_type(tmp_path, capsys, over,
                                                   key):
    d = {**_manifest_dict(grid={"L": 4.0, "n": 16},
                          output_dir=str(tmp_path / "out")), **over}
    assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not os.path.exists(tmp_path / "out")


def test_manifest_takes_integral_numbers_as_integers():
    man = RunManifest.from_dict(_manifest_dict(
        spec={**_SPEC, "N": 1.0, "sign_a": -1}, grid={"L": 4.0, "n": 16.0}))
    assert man.spec == SectorSpec(1, 1, 0.5, 0.5, -1)
    assert man.grid.n == 16 and type(man.grid.n) is int


def test_manifest_reads_integral_ints_as_reals():
    man = RunManifest.from_dict(_manifest_dict(
        spec={**_SPEC, "alpha": 1}, grid={"L": 4, "n": 16}, horizon=20,
        t0=1, lambdas=[1, 2]))
    assert man.spec.alpha == 1.0 and type(man.spec.alpha) is float
    assert type(man.grid.L) is float
    assert type(man.horizon) is float and type(man.t0) is float
    assert all(type(x) is float for x in man.lambdas)


@pytest.mark.parametrize("d", [
    {"kind": "psi0", "amplitude": True},
    {"kind": "modulated_psi0", "modulation": "sin2log", "eps": "0.1"},
    {"kind": "modulated_psi0", "modulation": "sin2log", "shift": True},
    {"kind": "modulated_psi0", "modulation": "log_blocks", "c1": "1"},
    {"kind": "modulated_psi0", "modulation": "log_blocks", "c2": None},
    {"kind": "gaussian_derivative", "t0": "0.5"},
])
def test_profile_descriptor_refuses_non_real_fields(d):
    key = next(k for k in d if k not in ("kind", "modulation"))
    with pytest.raises(ConfigError, match=f"'profile.{key}'"):
        profile_from_descriptor(SectorSpec(1, 1, 0.5, 0.5), d)


def test_profile_descriptors():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    assert isinstance(profile_from_descriptor(spec, {"kind": "psi0"}),
                      Psi0Profile)
    p = profile_from_descriptor(spec, {"kind": "psi0", "amplitude": 3.0})
    assert p.amplitude == 3.0
    m = profile_from_descriptor(
        spec, {"kind": "modulated_psi0", "modulation": "sin2log",
               "eps": 0.1})
    assert isinstance(m, ModulatedProfile)
    b = profile_from_descriptor(
        spec, {"kind": "modulated_psi0", "modulation": "log_blocks",
               "c1": 1.0, "c2": 3.0})
    assert isinstance(b, ModulatedProfile)
    assert isinstance(profile_from_descriptor(
        spec, {"kind": "gaussian_derivative"}), GaussianDerivativeProfile)
    assert isinstance(profile_from_descriptor(spec, {"kind": "constant"}),
                      ConstantProfile)
    with pytest.raises(ConfigError):
        profile_from_descriptor(spec, {"kind": "wat"})
    with pytest.raises(ConfigError):
        profile_from_descriptor(spec, {"kind": "modulated_psi0",
                                       "modulation": "wat"})


def _write_manifest(tmp_path, d):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_main_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(bad), "-q"]) == EXIT_CONFIG
    missing = str(tmp_path / "does_not_exist.json")
    assert main([missing, "-q"]) == EXIT_CONFIG
    wrong = _write_manifest(tmp_path, _manifest_dict(experiment="nope"))
    assert main([wrong, "-q"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_module_entry_point_exit_codes(tmp_path):
    # the interpreter's exit status is main()'s return value: a tiny
    # cache_build exits 0, a manifest with an unknown key exits 2
    src = os.path.dirname(os.path.dirname(sectorheat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = str(tmp_path / "out")
    for over, code in (({}, EXIT_OK), ({"horizn": 0.5}, EXIT_CONFIG)):
        d = _manifest_dict(grid={"L": 4.0, "n": 16}, output_dir=out, **over)
        done = subprocess.run(
            [sys.executable, "-m", "sectorheat.cli",
             _write_manifest(tmp_path, d), "-q", "--cache-dir", out],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr


def test_runs_never_load_scipy(tmp_path):
    # every run is one process, so an import it pays is paid per claim;
    # the package needs numpy alone.  A fresh interpreter runs a
    # cache_build, a tmax, a sweep, a critical criteria run (its
    # linear_sup maximises a radial flow) and a supercritical
    # global_smallness run, and then lists the scipy modules ever imported
    src = os.path.dirname(os.path.dirname(sectorheat.__file__))
    out = str(tmp_path / "out")
    paths = []
    for experiment, spec, extra in (
            ("cache_build", {}, {}), ("tmax", {}, {}),
            ("sweep", {}, {"lambdas": [1.0, 2.0]}),
            ("criteria", {"m": 0, "alpha": 4.0}, {}),
            ("global_smallness", {"alpha": 2.0},
             {"t0": 0.1, "horizon": 1.0})):
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(_manifest_dict(
            experiment=experiment, grid={"L": 4.0, "n": 16}, output_dir=out,
            spec={"N": 1, "m": 1, "gamma": 0.5, "alpha": 0.5, **spec},
            **extra)))
        paths.append(str(path))
    script = ("import sys\n"
              "from sectorheat import cli\n"
              f"codes = [cli.main([p, '-q', '--cache-dir', {out!r}]) "
              f"for p in {paths!r}]\n"
              "print(codes, sorted(m for m in sys.modules\n"
              "                    if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[EXIT_OK] * 5} []"


def test_main_semigroup_checks(tmp_path):
    d = _manifest_dict(experiment="semigroup_checks",
                       grid={"L": 10.0, "n": 128},
                       output_dir=str(tmp_path / "out"))
    # the sub-Markov check heats a field of ones, which reaches the box
    # edge by the check's own choice: no truncation warning, nor any other
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([_write_manifest(tmp_path, d), "-q"])
    assert code == EXIT_OK
    blob = json.load(open(tmp_path / "out" / "semigroup_checks.json"))
    assert blob["cross_method_rel"] < 1e-3
    assert blob["spectral_composition"] < 1e-6
    assert blob["sup_law_rel_spread"] < 5e-3


def test_cache_build_idempotent(tmp_path):
    out = str(tmp_path / "out")
    d = _manifest_dict(output_dir=out)
    path = _write_manifest(tmp_path, d)
    cdir = str(tmp_path / "caches")
    assert main([path, "-q", "--cache-dir", cdir]) == EXIT_OK
    man = RunManifest.from_dict(d)
    cpath = cache_path(man, cdir)
    assert os.path.exists(cpath)
    first = open(cpath, "rb").read()
    assert main([path, "-q", "--cache-dir", cdir]) == EXIT_OK
    assert open(cpath, "rb").read() == first    # reused, byte-identical


def test_cache_serves_every_alpha(tmp_path):
    # E = e^{D} psi0 does not depend on alpha, so cache_build at any alpha
    # writes one file with one payload; a run at another alpha leaves it
    # unchanged and reports what it reports with no cache at all
    def run(experiment, alpha, cdir):
        out = tmp_path / f"{experiment}{alpha}{cdir.name}"
        d = _manifest_dict(experiment=experiment,
                           spec={"N": 1, "m": 1, "gamma": 0.5,
                                 "alpha": alpha},
                           output_dir=str(out))
        code = main([_write_manifest(tmp_path, d), "-q", "--cache-dir",
                     str(cdir)])
        return code, json.load(open(out / f"{experiment}.json"))

    shared = tmp_path / "shared"
    assert run("cache_build", 0.5, shared)[0] == EXIT_OK
    cpath = cache_path(RunManifest.from_dict(_manifest_dict()), str(shared))
    first = load_cache(cpath)
    assert run("cache_build", 0.3, shared)[0] == EXIT_OK
    assert os.listdir(shared) == [os.path.basename(cpath)]
    again = load_cache(cpath)
    assert again.spec.alpha == 0.3
    assert np.array_equal(again.values, first.values)
    assert again.C_inf == first.C_inf

    mtime = os.stat(cpath).st_mtime_ns
    fresh = run("picard", 0.5, tmp_path / "fresh")
    assert fresh[0] == EXIT_OK
    assert run("picard", 0.5, shared) == fresh
    assert os.stat(cpath).st_mtime_ns == mtime


def test_psi_runs_neither_write_nor_read_a_cache(tmp_path):
    # Psi and C_inf are functions of the spec, so a run that reads Psi
    # leaves an empty cache directory empty, reports what it reports after
    # a cache_build, and ignores a truncated cache file
    picard = {"experiment": "picard"}
    smallness = {"experiment": "global_smallness", "t0": 0.1, "horizon": 0.5,
                 "spec": {"N": 1, "m": 1, "gamma": 0.5, "alpha": 2.0}}

    def run(over, cdir, name):
        out = tmp_path / name
        d = _manifest_dict(**over, output_dir=str(out))
        code = main([_write_manifest(tmp_path, d), "-q", "--cache-dir",
                     str(cdir)])
        report = f"{over['experiment']}.json"
        return code, json.load(open(out / report))

    for over in (picard, smallness):
        empty = tmp_path / "empty"
        empty.mkdir()
        fresh = run(over, empty, "fresh")
        assert fresh[0] == EXIT_OK
        assert os.listdir(empty) == []
        empty.rmdir()

        built = tmp_path / "built"
        build = {k: v for k, v in over.items() if k == "spec"}
        assert run(dict(build, experiment="cache_build"), built,
                   "build")[0] == EXIT_OK
        assert run(over, built, "after_build") == fresh

        cpath = cache_path(RunManifest.from_dict(_manifest_dict(**build)),
                           str(built))
        raw = open(cpath, "rb").read()
        open(cpath, "wb").write(raw[:len(raw) // 2])
        assert run(over, built, "truncated") == fresh


def test_criteria_undetermined_verdict_is_inconclusive(tmp_path):
    # alpha = 3 > 2/(gamma+m): the criterion does not apply, so the run
    # must exit 4, not 0
    d = _manifest_dict(experiment="criteria",
                       spec={"N": 1, "m": 1, "gamma": 0.5, "alpha": 3.0},
                       output_dir=str(tmp_path / "out"))
    code = main([_write_manifest(tmp_path, d), "-q"])
    blob = json.load(open(tmp_path / "out" / "criteria.json"))
    assert blob["verdict"] == "undetermined"
    assert code == EXIT_INCONCLUSIVE


def test_picard_rejects_off_sector_grid(tmp_path, capsys):
    # Psi is positive only on the sector, so a "sym" first axis must be
    # refused before the weighted norm divides by its negative half
    d = _manifest_dict(experiment="picard",
                       grid={"L": 10.0, "n": 64, "axes": ["sym"]},
                       output_dir=str(tmp_path / "out"))
    assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_CONFIG
    assert "axis 0 is 'sym'" in capsys.readouterr().err


def test_picard_of_data_without_x_norm_is_a_config_error(tmp_path, capsys):
    # a constant has no X-norm to take the certificate's K from, and a
    # manifest cannot pass one
    d = _manifest_dict(experiment="picard", profile={"kind": "constant"},
                       output_dir=str(tmp_path / "out"))
    assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: ConstantProfile has no X-norm" in err
    assert "pass K" in err


def test_unknown_axis_kind_is_a_config_error(tmp_path, capsys):
    d = _manifest_dict(experiment="tmax",
                       spec={"N": 1, "m": 0, "gamma": 0.5, "alpha": 1.0},
                       grid={"L": 10.0, "n": 64, "axes": ["full"]},
                       output_dir=str(tmp_path / "out"))
    assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_CONFIG
    assert "unknown axis kind 'full'" in capsys.readouterr().err


def test_semigroup_checks_on_periodic_axis_is_a_config_error(tmp_path,
                                                             capsys):
    # the sup-norm law flows psi0 by its whole-space radial flow, which a
    # periodised kernel does not reproduce
    d = _manifest_dict(experiment="semigroup_checks",
                       spec={"N": 1, "m": 0, "gamma": 0.5, "alpha": 1.0},
                       grid={"L": 10.0, "n": 128, "axes": [AXIS_PERIODIC]},
                       output_dir=str(tmp_path / "out"))
    assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_CONFIG
    assert "axis 0 is 'periodic'" in capsys.readouterr().err


def test_psi_cache_on_periodic_axis_is_a_config_error(tmp_path, capsys):
    # the dilation identity fails under the periodised kernel, so a run
    # that reads Psi refuses the grid; a run of bounded data does not read
    # Psi and keeps the periodic box (test_tmax_constant_profile_matches_ode)
    grid = {"L": 10.0, "n": 16, "axes": [AXIS_PERIODIC]}
    # global_smallness needs a supercritical alpha > 2/(gamma+m) = 4
    for exp, alpha in (("cache_build", 0.5), ("tmax", 0.5), ("picard", 0.5),
                       ("global_smallness", 5.0)):
        d = _manifest_dict(experiment=exp,
                           spec={"N": 1, "m": 0, "gamma": 0.5,
                                 "alpha": alpha},
                           grid=grid, output_dir=str(tmp_path / "out"))
        assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_CONFIG
        assert "axis 0 is 'periodic'" in capsys.readouterr().err


def test_cache_path_depends_on_axes():
    sym = RunManifest.from_dict(_manifest_dict(
        spec={"N": 1, "m": 0, "gamma": 0.5, "alpha": 0.5}))
    periodic = RunManifest.from_dict(_manifest_dict(
        spec={"N": 1, "m": 0, "gamma": 0.5, "alpha": 0.5},
        grid={"L": 10.0, "n": 64, "axes": [AXIS_PERIODIC]}))
    assert sym.grid.axes != periodic.grid.axes
    assert cache_path(sym, "c") != cache_path(periodic, "c")


def test_tmax_constant_profile_matches_ode(tmp_path):
    # spatially constant data on a periodic box: T_max = 1/alpha exactly
    d = {
        "experiment": "tmax",
        "spec": {"N": 1, "m": 0, "gamma": 0.5, "alpha": 1.0},
        "grid": {"L": 3.141592653589793, "n": 16,
                 "axes": [AXIS_PERIODIC]},
        "profile": {"kind": "constant", "amplitude": 1.0},
        "output_dir": str(tmp_path / "out"),
    }
    code = main([_write_manifest(tmp_path, d), "-q"])
    assert code == EXIT_OK
    blob = json.load(open(tmp_path / "out" / "tmax.json"))
    assert blob["status"] == "blew_up"
    assert abs(blob["t_max"] - 1.0) < 1e-3
    assert os.path.exists(tmp_path / "out" / "trajectory.csv")


def test_tmax_reports_picard_counters(tmp_path):
    # singular data: the report names the slices the Picard solve covered
    # (up to the hand-off node, not the whole 12-node mesh) and its sweeps
    d = _manifest_dict(experiment="tmax", grid={"L": 10.0, "n": 256},
                       profile={"kind": "psi0"},
                       output_dir=str(tmp_path / "out"))
    assert main([_write_manifest(tmp_path, d), "-q"]) == EXIT_OK
    blob = json.load(open(tmp_path / "out" / "tmax.json"))
    assert blob["status"] == "blew_up"
    assert blob["notes"] == {"picard_slices": 5, "picard_sweeps": 6}


def test_sweep_writes_csv(tmp_path):
    d = _manifest_dict(experiment="sweep", grid={"L": 10.0, "n": 128},
                       lambdas=[1.0, 2.0],
                       output_dir=str(tmp_path / "out"))
    code = main([_write_manifest(tmp_path, d), "-q"])
    assert code == EXIT_OK
    lines = open(tmp_path / "out" / "sweep.csv").read().splitlines()
    assert lines[0].startswith("lambda,")
    assert len(lines) == 3
    blob = json.load(open(tmp_path / "out" / "sweep.json"))
    assert blob["monotone"] is True
