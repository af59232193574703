"""estimate_tmax_many: the serial loop's records, run in forked shares.

The CPU count is monkeypatched to 1, 2 and 3, so the shares are cut the
same way on any machine; 3 forks two children even on one core.
"""

import dataclasses
import json
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorheat import (GridSpec, KernelPlan, ModulatedProfile, Psi0Profile,
                        SectorSpec, SinSquaredLog, evolve)
from sectorheat.cli import EXIT_CONFIG, main
from sectorheat.evolve import estimate_tmax, estimate_tmax_many
from sectorheat.lifespan import oscillation_experiment, sweep_lifespan

SPEC = SectorSpec(1, 1, 0.5, 0.5, +1)
PLAN = KernelPlan(SPEC, GridSpec.for_spec(SPEC, L=10.0, n=64))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(evolve.TrajectoryRecord):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert (x == y).all(), f.name
            else:
                assert x == y, f.name


def _with_cpus(n, fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_usable_cpus", lambda: n)
        return fn(*args, **kwargs)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 4.0), st.booleans()),
                min_size=2, max_size=5))
def test_map_equals_serial_loop_bit_for_bit(draws):
    profiles = [ModulatedProfile(SPEC, SinSquaredLog(0.05), a) if mod
                else Psi0Profile(SPEC, a) for a, mod in draws]
    want = [estimate_tmax(p, PLAN) for p in profiles]
    for cpus in (1, 2, 3):
        _same_records(_with_cpus(cpus, estimate_tmax_many, profiles, PLAN),
                      want)


def test_experiments_equal_serial_path():
    curve = _with_cpus(1, sweep_lifespan, Psi0Profile(SPEC),
                       [0.5, 1.0, 2.0], PLAN)
    assert _with_cpus(2, sweep_lifespan, Psi0Profile(SPEC), [0.5, 1.0, 2.0],
                      PLAN) == curve
    report = _with_cpus(1, oscillation_experiment, PLAN)
    assert _with_cpus(3, oscillation_experiment, PLAN) == report


def _fake_tmax(profile, plan, controls=None):
    """Stands in for estimate_tmax on string 'profiles': the record is the
    string, and its words say what to do first."""
    if profile.startswith("warn"):
        warnings.warn(f"{profile} from a share", RuntimeWarning)
    if profile.startswith("fail"):
        raise ValueError(f"{profile}: bad datum")
    if profile == "exit":
        os._exit(3)
    if profile == "kill":
        os.kill(os.getpid(), 9)
    if profile == "sleep":
        time.sleep(60.0)
    if profile == "pid":
        return os.getpid()
    return profile


@pytest.fixture
def fake(monkeypatch):
    """estimate_tmax_many over _fake_tmax with cpus CPUs."""
    monkeypatch.setattr(evolve, "estimate_tmax", _fake_tmax)

    def run(profiles, cpus):
        monkeypatch.setattr(evolve, "_usable_cpus", lambda: cpus)
        return estimate_tmax_many(profiles, None)

    return run


def test_shares_run_where_the_cpu_count_says(fake):
    me = os.getpid()
    assert fake([], 3) == []
    assert fake(["pid"], 3) == [me]
    assert fake(["pid"] * 3, 1) == [me] * 3
    first, second, third = fake(["pid"] * 3, 2)
    assert first == second == me != third


def test_child_warnings_reach_the_callers_filters(fake):
    with pytest.warns(RuntimeWarning) as got:
        assert fake(["warn0", "warn1", "ok", "warn3"], 3) == [
            "warn0", "warn1", "ok", "warn3"]
    # in run order, and placed where the child raised them
    assert [str(w.message) for w in got] == [
        f"warn{i} from a share" for i in (0, 1, 3)]
    assert {w.filename for w in got} == {__file__}
    # a filter on this module's name applies to a child's warning too
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=RuntimeWarning,
                                module=__name__)
        assert fake(["ok", "warn1"], 2) == ["ok", "warn1"]
    with pytest.raises(RuntimeWarning, match="warn1 from a share"):
        fake(["ok", "warn1"], 2)


def test_child_exceptions_are_raised_in_input_order(fake):
    with pytest.raises(ValueError, match="^fail1: bad datum$"):
        fake(["ok", "fail1"], 2)
    with pytest.raises(ValueError, match="^fail1: bad datum$"):
        fake(["ok", "fail1", "fail2"], 3)
    # a warning before the failure in its share is still emitted
    with pytest.warns(RuntimeWarning, match="warn1"), \
            pytest.raises(ValueError, match="fail2"):
        fake(["ok", "warn1", "fail2"], 2)


def test_unpicklable_child_exception_becomes_runtime_error(monkeypatch):
    class Local(Exception):     # pickled by reference, which fails
        pass

    def raise_local(profile, plan, controls=None):
        if profile == "b":
            raise Local("not importable")
        return profile

    monkeypatch.setattr(evolve, "estimate_tmax", raise_local)
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="Local.*not importable"):
        estimate_tmax_many(["a", "b"], None)


def test_child_ending_without_result_names_its_end(fake):
    with pytest.raises(RuntimeError, match="exit status 3"):
        fake(["ok", "exit"], 2)
    with pytest.raises(RuntimeError, match="signal 9"):
        fake(["ok", "kill"], 2)


def test_callers_failure_kills_running_children(fake):
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="fail0"):
        fake(["fail0", "sleep", "sleep"], 3)
    assert time.monotonic() - t0 < 30.0


def test_cli_sweep_whose_forked_share_raises_exits_2(tmp_path, monkeypatch):
    caller = os.getpid()

    def raise_in_child(profile, plan, controls=None):
        if os.getpid() != caller:
            raise ValueError("forked share refused its datum")
        return estimate_tmax(profile, plan, controls=controls)

    monkeypatch.setattr(evolve, "estimate_tmax", raise_in_child)
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: 2)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "experiment": "sweep", "spec": {"N": 1, "m": 1, "gamma": 0.5,
                                        "alpha": 0.5},
        "grid": {"L": 10.0, "n": 64}, "profile": {"kind": "psi0"},
        "lambdas": [1.0, 2.0], "output_dir": str(tmp_path / "out")}))
    assert main([str(path), "-q"]) == EXIT_CONFIG
