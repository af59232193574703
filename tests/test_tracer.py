"""The benchmark's span tracer (perfbench/tracer.py) wraps package
functions by name; a rename in the package would silently drop their
spans from ``--trace 1``.  This runs the tracer over a tiny trajectory."""

import json
import os

import numpy as np

from sectorheat import AXIS_PERIODIC, Field, GridSpec, KernelPlan, SectorSpec
from sectorheat import cli, evolve, geometry, lifespan, picard, semigroup
from sectorheat.profiles import Psi0Profile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_records_stepping_spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec(L=np.pi, n=16, axes=(AXIS_PERIODIC,))
    plan = KernelPlan(spec, grid)
    f0 = Field(spec, grid, np.full(16, 0.5))
    originals = (evolve.strang_step, evolve.nonlinear_substep,
                 evolve.run_trajectory, geometry.Field.__init__)
    tr = tracer.Tracer()
    tr.install()
    try:
        rec, last = evolve.run_trajectory(
            plan, f0, 0.0, evolve.EvolveControls(horizon=0.2, fixed_dt=0.01))
        summary = tr.summary()
    finally:
        tr.uninstall()
    steps = len(rec.times) - 1
    assert steps == 20
    assert summary["evolve.run_trajectory"]["work"] == steps
    assert summary["evolve.strang_step"]["calls"] == steps
    assert summary["evolve.nonlinear_substep"]["calls"] == 2 * steps
    # the loop steps plain arrays: the returned state is the only Field
    assert summary["geometry.Field.init"]["calls"] == 1
    assert (evolve.strang_step, evolve.nonlinear_substep,
            evolve.run_trajectory, geometry.Field.__init__) == originals


def test_tracer_records_picard_on_arrays(monkeypatch, setup11):
    # the Picard sweeps run the grid quadrature on plain arrays: no public
    # kernel apply, no warning, and the returned slices are the only Fields
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    spec, grid, plan = setup11
    tr = tracer.Tracer()
    tr.install()
    try:
        run = picard.solve_picard(Psi0Profile(spec), plan)
        summary = tr.summary()
    finally:
        tr.uninstall()
    assert run.converged
    assert summary["picard.solve_picard"]["work"] == len(run.increments)
    assert "semigroup.apply_kernel.grid" not in summary
    assert sum(tr.warnings.values()) == 0
    assert summary["geometry.Field.init"]["calls"] == len(run.slices)


def test_tracer_records_psi_spans(monkeypatch):
    # the per-layer numbers of the Psi evaluator: one build, and one
    # psi_values call per envelope check with its node count as work
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    spec = SectorSpec(1, 1, 0.5, 2.0)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    tr = tracer.Tracer()
    tr.install()
    try:
        semigroup.build_psi_cache(spec, grid)
        report = lifespan.global_smallness_check(KernelPlan(spec, grid),
                                                 t0=0.1, horizon_factor=2.0)
        summary = tr.summary()
    finally:
        tr.uninstall()
    assert report["certified"]
    steps = summary["evolve.run_trajectory"]["work"]
    assert steps > 0
    assert summary["semigroup.build_psi_cache"]["calls"] == 1
    psi = summary["semigroup.psi_values"]
    # psi_fast samples the initial datum once, then one check per step
    assert psi["calls"] == steps + 1
    assert psi["work"] == psi["calls"] * grid.n
    assert summary["lifespan.global_smallness_check"]["calls"] == 1


def test_tracer_sees_no_cache_read_in_a_cli_run(monkeypatch, tmp_path):
    # cache_build writes the Psi cache through cli.get_cache; a picard run
    # after it reads Psi in closed form and opens no cache file
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    def manifest(experiment):
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps({
            "experiment": experiment,
            "spec": {"N": 1, "m": 1, "gamma": 0.5, "alpha": 0.5},
            "grid": {"L": 10.0, "n": 64},
            "output_dir": str(tmp_path / experiment)}))
        return [str(path), "-q", "--cache-dir", str(tmp_path / "cache")]

    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.main(manifest("cache_build")) == cli.EXIT_OK
        built = tr.summary()
        tr.reset()
        assert cli.main(manifest("picard")) == cli.EXIT_OK
        picard = tr.summary()
    finally:
        tr.uninstall()
    assert built["cli.get_cache"]["calls"] == 1
    assert built["semigroup.save_cache"]["calls"] == 1
    assert built["cli.cache_build"]["calls"] == 1
    assert picard["cli.picard"]["calls"] == 1
    assert picard["picard.solve_picard"]["calls"] == 1
    for span in ("cli.get_cache", "semigroup.load_cache",
                 "semigroup.build_psi_cache"):
        assert span not in picard
    assert len(os.listdir(tmp_path / "cache")) == 1
