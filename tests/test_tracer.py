"""The benchmark's span tracer (perfbench/tracer.py) wraps package
functions by name; a rename in the package would silently drop their
spans from ``--trace 1``.  This runs the tracer over a tiny trajectory."""

import os

import numpy as np

from sectorheat import AXIS_PERIODIC, Field, GridSpec, KernelPlan, SectorSpec
from sectorheat import evolve, geometry

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
