"""The command line end to end: small scenarios run and verify without a
word on stderr, and their tables save, load, rebuild and are reused byte
for byte.  The ``cli.main`` tests of single refusals and exit codes are
in ``test_harness.py``."""

import ast
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import potshape
from potshape import cli
from potshape.core import SpatialGrid1D
from potshape.harness import ScenarioConfig, desired_potential, scenario_to_dict
from potshape.inputmap import LutSpec

_SPOT = {"center": 10.0, "width": 2.0, "depth": 0.15}
# 50 mirror rows and an 11-level table on a 1024-point grid
_SMALL = {
    "grid": {"length": 200.0, "n_points": 1024},
    "dmd": {"n_rows": 50, "n_columns": 240},
    "lut": {"n_nu": 11},
}
NOISY = {
    **_SMALL,
    "loop": {"iterations": 4},
    "measurement": {"noise_std": 1e-4},
    "disturbances": [{"iteration": 2, "spots": [_SPOT]}],
}
# without noise the law holds its input at n = 4, 5 and 7-11: those
# shots reuse the last one
HELD = {**_SMALL, "loop": {"iterations": 12}, "disturbances": [{"iteration": 6, "spots": [_SPOT]}]}


def _write(path, scenario):
    path.write_text(json.dumps(scenario))
    return str(path)


def _main_quietly(caplog, capsys, argv):
    """``cli.main(argv)``, asserting that it logs no warning and writes
    nothing to stderr.  The session keeps the ``potshape`` logger at ERROR
    and ``cli.main``'s ``basicConfig`` does nothing under pytest, so the
    level is lowered here; without that a warning would pass unseen."""
    caplog.clear()
    capsys.readouterr()
    with caplog.at_level(logging.WARNING, logger="potshape"):
        code = cli.main(argv)
    assert [r.getMessage() for r in caplog.records] == []
    assert capsys.readouterr().err == ""
    return code


@pytest.fixture(scope="module")
def held(tmp_path_factory):
    """``HELD``'s scenario file and the table ``build-lut`` saves for it."""
    d = tmp_path_factory.mktemp("held")
    cfg, table = _write(d / "held.json", HELD), d / "table.json"
    assert cli.main(["build-lut", "--config", cfg, "--out", str(table)]) == 0
    return cfg, table


@pytest.mark.parametrize("scenario", [NOISY, HELD], ids=["noisy", "held"])
def test_a_run_warns_of_nothing_and_verifies(tmp_path, caplog, capsys, scenario):
    cfg, out = _write(tmp_path / "scenario.json", scenario), str(tmp_path / "run")
    assert _main_quietly(caplog, capsys, ["run", "--config", cfg, "--out", out]) == 0
    assert cli.main(["report", "--in", out]) == 0


def test_the_saved_table_gives_the_in_memory_tables_run(tmp_path, held):
    cfg, table = held
    memory, saved = tmp_path / "memory", tmp_path / "saved"
    assert cli.main(["run", "--config", cfg, "--out", str(memory)]) == 0
    assert cli.main(["run", "--config", cfg, "--lut", str(table), "--out", str(saved)]) == 0
    names = sorted(p.name for p in memory.iterdir())
    assert names == sorted(p.name for p in saved.iterdir()) and "run.json" in names
    for name in names:
        assert (saved / name).read_bytes() == (memory / name).read_bytes(), name


def test_a_second_process_builds_the_same_table(tmp_path):
    # a table's bits do not depend on the BLAS thread count: its stacked
    # products call BLAS per level's matrix or per row, so a third process
    # builds on two
    env = {
        **os.environ,
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": str(Path(potshape.__file__).parents[1]),
    }
    cfg = _write(tmp_path / "held.json", HELD)
    tables = [tmp_path / "first.json", tmp_path / "second.json", tmp_path / "two-threads.json"]
    argv = [sys.executable, "-m", "potshape.cli", "build-lut", "--config", cfg, "--out"]
    builds = [
        subprocess.Popen(
            [*argv, str(t)], env={**env, "OPENBLAS_NUM_THREADS": threads}, stdout=subprocess.DEVNULL
        )
        for t, threads in zip(tables, ("1", "1", "2"))
    ]
    assert [b.wait(timeout=120) for b in builds] == [0, 0, 0]
    assert tables[0].read_bytes() == tables[1].read_bytes() == tables[2].read_bytes()


def test_groundstate_writes_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    # the solver's Anderson mixing adds BLAS products and a LAPACK Cholesky
    # solve per step, and a product's bits can depend on the thread count.
    # The desired state on the reference grid (two stages) and over 250 um
    # on 2701 points (one stage, whose history holds up to six columns of
    # 2702 numbers) are solved at OPENBLAS_NUM_THREADS 1 and 2
    env = {
        **os.environ,
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": str(Path(potshape.__file__).parents[1]),
    }
    grid = SpatialGrid1D(250.0, 2701)
    v = desired_potential(ScenarioConfig().desired, grid).values
    well = tmp_path / "one-stage.csv"
    rows = "".join(f"{z!r},{x!r}\n" for z, x in zip(grid.samples.tolist(), v.tolist()))
    well.write_text("z,v\n" + rows)
    runs = {}
    for name, extra in (("desired", []), ("one-stage", ["--potential", str(well)])):
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}.csv"
            argv = [sys.executable, "-m", "potshape.cli", "groundstate", *extra, "--out", str(out)]
            runs[name, threads] = (out, subprocess.Popen(
                argv, env={**env, "OPENBLAS_NUM_THREADS": threads}, stdout=subprocess.PIPE
            ))
    printed = {key: run.communicate(timeout=120)[0] for key, (_, run) in runs.items()}
    assert [run.returncode for _, run in runs.values()] == [0, 0, 0, 0]
    for name in ("desired", "one-stage"):
        (one, _), (two, _) = runs[name, "1"], runs[name, "2"]
        assert one.read_bytes() == two.read_bytes(), name
        # the line after the file name: mu and the step count
        assert printed[name, "1"].splitlines()[1:] == printed[name, "2"].splitlines()[1:]


def test_a_run_exports_the_same_bytes_on_one_and_two_blas_threads(tmp_path, held):
    # the loop's field products sum each row of the column response's
    # band without BLAS, and the solver's products and the column sums do
    # not depend on the thread count either, so the whole export repeats.
    # The run is HELD's on the reference grid and mirror columns, where a
    # threaded matrix-vector product of the full 2700 x 400 response sums
    # some rows in another order (on the small grid it happens not to)
    _, table = held
    cfg = _write(tmp_path / "wide.json", {
        **HELD, "grid": {"length": 250.0, "n_points": 2700}, "dmd": {"n_rows": 50, "n_columns": 400}
    })
    env = {
        **os.environ,
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": str(Path(potshape.__file__).parents[1]),
    }
    argv = [sys.executable, "-m", "potshape.cli", "run", "--config", cfg, "--lut", str(table)]
    runs = {
        threads: subprocess.Popen(
            [*argv, "--out", str(tmp_path / threads)],
            env={**env, "OPENBLAS_NUM_THREADS": threads}, stdout=subprocess.DEVNULL,
        )
        for threads in ("1", "2")
    }
    assert [run.wait(timeout=120) for run in runs.values()] == [0, 0]
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir()) and "run.json" in names
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_importing_the_package_loads_neither_scipy_optimize_nor_scipy_linalg():
    # neither is needed, and each raises a process's peak resident memory,
    # which perfbench reports: by about 6 MB (scipy.linalg) and 22 MB
    # (scipy.optimize) over the 55 MB of `import potshape.cli`.  The
    # package loads none of its modules, so each is imported alone in a
    # fresh interpreter: one that needs another imported first fails here
    code = (
        "import importlib, json, sys; importlib.import_module(sys.argv[1]); "
        "print(json.dumps([[m for m in sys.modules if m.startswith('potshape.')], "
        "[m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules]]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(potshape.__file__).parents[1])}
    modules = ("core", "optics", "inputmap", "condensate", "ilc", "harness", "cli")
    runs = {
        name: subprocess.Popen(
            [sys.executable, "-c", code, name], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for name in ("potshape", *(f"potshape.{m}" for m in modules))
    }
    for name, run in runs.items():
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, (name, err)
        loaded, scipy_loaded = json.loads(out)
        assert scipy_loaded == [], name
        if name == "potshape":
            assert loaded == []


def test_every_python_file_parses_at_the_oldest_python_admitted():
    # pyproject.toml's requires-python floor, which CI's floors
    # configuration runs: syntax newer than it (except*, say) fails here
    root = Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    files = [p for d in ("src", "tests", "perfbench", "tools") for p in (root / d).rglob("*.py")]
    assert floor and len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))


def test_the_saved_table_records_its_generations(held):
    _, table = held
    assert json.loads(table.read_text())["lut"]["generations"] == LutSpec().generations


def test_the_saved_table_is_reused_for_another_longitudinal_psf_width(
    tmp_path, caplog, capsys, held
):
    _, table = held
    cfg = _write(tmp_path / "sigma-z.json", {**HELD, "psf": {"sigma_z": 3.0}})
    argv = ["run", "--config", cfg, "--lut", str(table), "--out", str(tmp_path / "run")]
    assert _main_quietly(caplog, capsys, argv) == 0


def test_design_kernel_runs_on_the_dumped_default_scenario(tmp_path):
    # the README recipe: dump the default scenario, feed it back in
    cfg = tmp_path / "default.json"
    cfg.write_text(json.dumps(scenario_to_dict(ScenarioConfig()), indent=2))
    out = tmp_path / "kernel.csv"
    assert cli.main(["design-kernel", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


def test_groundstate_solves_a_4_point_grid(tmp_path):
    # 4 points would make a one-sample coarse grid, which has no trapezoid
    # norm: the solve relaxes on the full grid alone
    cfg = tmp_path / "four.json"
    cfg.write_text(json.dumps({"grid": {"n_points": 4}}))
    out = tmp_path / "state.csv"
    assert cli.main(["groundstate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 4


def test_groundstate_solves_a_2048_point_double_well_without_a_warning(
    tmp_path, caplog, capsys
):
    # 2048 = 4 x 512 points: the solve relaxes on every fourth sample,
    # then on the full grid
    well = tmp_path / "well.csv"
    zs = [-125.0 + 250.0 * i / 2047 for i in range(2048)]
    rows = "".join(f"{z!r},{0.02 * z * z + 20.0 * math.exp(-z * z / 200.0)!r}\n" for z in zs)
    well.write_text("z,v\n" + rows)
    argv = ["groundstate", "--potential", str(well), "--out", str(tmp_path / "state.csv")]
    assert _main_quietly(caplog, capsys, argv) == 0
