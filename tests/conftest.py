import os

import pytest
from hypothesis import settings

from sectorheat import GridSpec, KernelPlan, SectorSpec

# with CI set, as GitHub Actions sets it, property tests draw the same
# examples on every run and print the blob that replays a failure, so a red
# run reproduces from its log
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# one pass/fail line per acceptance criterion, printed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def setup11():
    """Workhorse 1-D anti-symmetric configuration: N=1, m=1, gamma=0.5,
    alpha=0.5 (subcritical, sigma = 0.8)."""
    spec = SectorSpec(1, 1, 0.5, 0.5, +1)
    grid = GridSpec.for_spec(spec, L=10.0, n=256)
    plan = KernelPlan(spec, grid)
    return spec, grid, plan


@pytest.fixture(scope="session")
def setup10():
    """1-D radial configuration: N=1, m=0, gamma=0.5, alpha=1
    (subcritical: 2/(gamma+m) = 4)."""
    spec = SectorSpec(1, 0, 0.5, 1.0, +1)
    grid = GridSpec.for_spec(spec, L=10.0, n=512)
    plan = KernelPlan(spec, grid)
    return spec, grid, plan


@pytest.fixture(scope="session")
def setup21():
    """2-D configuration: N=2, m=1, gamma=1, alpha=0.5, L=8, n=64."""
    spec = SectorSpec(2, 1, 1.0, 0.5, +1)
    grid = GridSpec.for_spec(spec, L=8.0, n=64)
    return spec, grid, KernelPlan(spec, grid)
