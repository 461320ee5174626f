"""Shared fixtures: the reference scenario artifacts are computed once
per session and shared.  On a 2-core host with one BLAS thread the table
build takes about 0.65-0.8 s, prepare (with the desired ground state)
about 0.03 s and the 80-iteration closed loop about 0.08 s."""

import logging

import numpy as np
import pytest

from potshape.harness import (
    DmdSpec,
    GridSpec,
    LoopSpec,
    LutSpec,
    ScenarioConfig,
    build_scenario_lut,
    prepare,
    run_closed_loop,
)
from potshape.condensate import SolverConfig

# pass/fail lines collected by the acceptance tests, printed after the run
ACCEPTANCE_LINES = []


def integrate(f) -> float:
    """Trapezoidal integral of a sampled field over its domain: the tests'
    quadrature oracle, independent of the solver's own sums."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("cannot integrate non-finite values")
    return float(np.trapezoid(f.values, dx=f.grid.dz))


def dense_matrix(band) -> np.ndarray:
    """The full column response matrix that an ``optics.ColumnBand``
    holds, its band scattered among zeros: the tests' dense oracle."""
    out = np.zeros((len(band.first), band.n_columns))
    np.put_along_axis(out, band.first[:, None] + np.arange(band.width), band.values, axis=1)
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion():
    """Record one pass/fail line per criterion and assert it."""

    def record(number: int, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


@pytest.fixture(scope="session", autouse=True)
def _quiet_logs():
    logging.getLogger("potshape").setLevel(logging.ERROR)


@pytest.fixture(scope="session")
def scenario():
    return ScenarioConfig()


@pytest.fixture(scope="session")
def reference_lut(scenario):
    return build_scenario_lut(scenario)


@pytest.fixture(scope="session")
def reference_prepared(scenario):
    return prepare(scenario)


@pytest.fixture(scope="session")
def reference_run(scenario, reference_lut, reference_prepared):
    return run_closed_loop(scenario, lut=reference_lut, prepared=reference_prepared)


@pytest.fixture(scope="session")
def reference_norms(reference_run):
    return np.array([r.error_norm for r in reference_run.records])


@pytest.fixture(scope="session")
def small_scenario():
    """Scaled-down scenario for tests that need the full physics chain but
    not the reference accuracy (exports, determinism, CLI)."""
    return ScenarioConfig(
        grid=GridSpec(length=200.0, n_points=1024),
        dmd=DmdSpec(n_rows=50, n_columns=240),
        lut=LutSpec(n_nu=11),
        loop=LoopSpec(iterations=2, seed=99, export_iterations=(0, 1)),
        solver=SolverConfig(dtau=0.05, max_steps=60_000, tol=1e-10),
        disturbances=(),
    )


@pytest.fixture(scope="session")
def small_lut(small_scenario):
    return build_scenario_lut(small_scenario)


@pytest.fixture(scope="session")
def small_prepared(small_scenario):
    return prepare(small_scenario)
