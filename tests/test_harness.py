"""Scenario plumbing: desired potential, config files, loop wiring,
exports and the command line."""

import copy
import dataclasses
import json
import logging
import re
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from conftest import dense_matrix
from potshape import harness
from potshape.condensate import (
    CondensateParams,
    ConvergenceError,
    MeasurementConfig,
    SolverConfig,
)
from potshape.core import RealField1D, SpatialGrid1D
from potshape.harness import (
    ConfigError,
    ControlSpec,
    DesiredPotentialSpec,
    DisturbanceEvent,
    DmdSpec,
    GridSpec,
    IterationRecord,
    LoopSpec,
    LutSpec,
    RunResult,
    ScenarioConfig,
    _write_pbm,
    _write_rows,
    desired_potential,
    error_norm,
    export_records,
    inject_disturbances,
    level_update,
    load_run,
    load_scenario,
    report,
    run_closed_loop,
    scenario_from_dict,
    scenario_to_dict,
)
from potshape.ilc import correction, density_error, scaled_error
from potshape.inputmap import (
    _lut_to_dict,
    invert_pattern,
    load_lut,
    lut_sha256,
    map_virtual_input,
    save_lut,
)
from potshape.optics import (
    BeamProfile,
    DarkSpot,
    DmdPattern,
    MagneticPotentialSpec,
    PsfModel,
    column_grid,
    pixel_centers,
    potential_from_field,
    propagate_full,
    transversal_weights,
)
from potshape import cli


# ------------------------------------------------------ desired potential


def _v_at(spec, z):
    # three-point symmetric grid puts the probe position on a sample
    grid = SpatialGrid1D.from_samples(np.array([-z, 0.0, z]))
    return float(desired_potential(spec, grid).values[-1])


def test_desired_potential_landmarks():
    spec = DesiredPotentialSpec()
    v_max, k_v = spec.v_max, spec.k_v
    grid = SpatialGrid1D(10.0, 11)
    assert desired_potential(spec, grid).values[5] == v_max  # barrier at z = 0
    assert _v_at(spec, np.pi / (2.0 * k_v)) == pytest.approx(0.5 * v_max, rel=1e-12)
    assert _v_at(spec, np.pi / k_v) == pytest.approx(0.0, abs=1e-12 * v_max)
    assert _v_at(spec, 150.0) == v_max  # plateau outside the shaped window


def test_desired_potential_is_continuous_at_the_window_edge():
    spec = DesiredPotentialSpec()
    edge = 2.0 * np.pi / spec.k_v
    inside = _v_at(spec, edge - 1e-6)
    outside = _v_at(spec, edge + 1e-6)
    assert abs(inside - outside) < 1e-8 * spec.v_max


def test_desired_potential_minima_positions():
    spec = DesiredPotentialSpec()
    grid = SpatialGrid1D(250.0, 2501)
    v = desired_potential(spec, grid).values
    z = grid.samples
    interior = (v < np.roll(v, 1)) & (v < np.roll(v, -1))
    interior[0] = interior[-1] = False
    minima = z[interior]
    assert len(minima) == 2
    assert minima[1] - minima[0] == pytest.approx(2.0 * np.pi / spec.k_v, abs=2 * grid.dz)
    with pytest.raises(ValueError):
        DesiredPotentialSpec(v_max=-1.0)
    with pytest.raises(ValueError):
        DesiredPotentialSpec(k_v=0.0)


# ------------------------------------------------------------- the config


def test_scenario_round_trip_through_json():
    cfg = ScenarioConfig()
    d = scenario_to_dict(cfg)
    blob = json.dumps(d)  # must be plain JSON
    again = scenario_from_dict(json.loads(blob))
    assert again == cfg


def test_scenario_rejects_unknown_sections_and_keys():
    with pytest.raises(ConfigError, match="unknown scenario sections"):
        scenario_from_dict({"gravity": {}})
    with pytest.raises(ConfigError, match="unknown keys in 'grid'"):
        scenario_from_dict({"grid": {"len": 5}})
    with pytest.raises(ConfigError, match="unknown keys in 'control': gauge_offset"):
        scenario_from_dict({"control": {"gauge_offset": 0.0}})
    with pytest.raises(ConfigError, match="unknown keys in 'lut': polish"):
        scenario_from_dict({"lut": {"polish": True}})
    with pytest.raises(ConfigError, match="bad section 'dmd'"):
        scenario_from_dict({"dmd": {"n_rows": 0}})
    with pytest.raises(ConfigError):
        scenario_from_dict("not a dict")
    with pytest.raises(ConfigError, match="bad disturbance entry"):
        scenario_from_dict({"disturbances": [{"iteration": 1, "spots": [], "extra": 2}]})
    # malformed values end in a ConfigError naming the section or entry,
    # not a TypeError or KeyError from the parsing
    with pytest.raises(ConfigError, match="section 'grid' must be an object"):
        scenario_from_dict({"grid": 5})
    with pytest.raises(ConfigError, match="'disturbances' must be a list"):
        scenario_from_dict({"disturbances": 5})
    with pytest.raises(ConfigError, match="bad disturbance entry 0"):
        scenario_from_dict({"disturbances": [{"iteration": 1}]})
    with pytest.raises(ConfigError, match="bad disturbance entry 0"):
        scenario_from_dict({"disturbances": [{"spots": []}]})
    with pytest.raises(ConfigError, match=r"'disturbances\[0\]\.spots' must be a list"):
        scenario_from_dict({"disturbances": [{"iteration": 1, "spots": 3}]})
    with pytest.raises(ConfigError, match="bad section 'loop'"):
        scenario_from_dict({"loop": {"export_iterations": 5}})
    with pytest.raises(ConfigError, match="bad section 'loop': export iteration 7 outside"):
        scenario_from_dict({"loop": {"iterations": 3, "export_iterations": [1, 7]}})
    with pytest.raises(ConfigError, match="bad section 'loop': export iteration -1 outside"):
        scenario_from_dict({"loop": {"export_iterations": [-1]}})


_WRONG_TYPES = {
    "loop.iterations": (
        {"loop": {"iterations": 2.5}},
        r"bad section 'loop': iterations must be an integer, got 2\.5",
    ),
    "lut.n_nu": ({"lut": {"n_nu": 3.5}}, r"bad section 'lut': n_nu must be an integer, got 3\.5"),
    "grid.n_points": (
        {"grid": {"n_points": float("inf")}},
        "bad section 'grid': n_points must be an integer",
    ),
    "grid.length-string": (
        {"grid": {"length": "250"}},
        "bad section 'grid': length must be a number, got '250'",
    ),
    "grid.length-bool": (
        {"grid": {"length": True}},
        "bad section 'grid': length must be a number, got True",
    ),
    "solver.max_steps": (
        {"solver": {"max_steps": 50.5}},
        "bad section 'solver': max_steps must be an integer",
    ),
    "loop.export_iterations": (
        {"loop": {"export_iterations": [1, 2.5]}},
        "bad section 'loop': export_iterations entry must be an integer, got 2.5",
    ),
    "disturbance.iteration": (
        {"disturbances": [{"iteration": 40.5, "spots": []}]},
        "bad disturbance entry 0: iteration must be an integer, got 40.5",
    ),
    "spot.center": (
        {"disturbances": [{"iteration": 1, "spots": [{"center": "0", "width": 1, "depth": 0.1}]}]},
        r"bad section 'disturbances\[0\]\.spots': center must be a number",
    ),
}


@pytest.mark.parametrize("data, match", _WRONG_TYPES.values(), ids=_WRONG_TYPES)
def test_scenario_refuses_values_of_the_wrong_type(tmp_path, capsys, data, match):
    with pytest.raises(ConfigError, match=match):
        scenario_from_dict(data)
    # the command line refuses the file before it solves anything
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "state.csv"
    assert cli.main(["groundstate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_export_iterations_must_be_a_list():
    # the section owns the rule, built in Python or read from a file; a
    # string is not taken for its characters
    for value in (5, "12", {"1": 2}):
        message = f"export_iterations must be a list of integers, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            LoopSpec(export_iterations=value)
        with pytest.raises(ConfigError, match=f"^bad section 'loop': {re.escape(message)}$"):
            scenario_from_dict({"loop": {"export_iterations": value}})
    assert LoopSpec(export_iterations=[3, 1]).export_iterations == (3, 1)


def test_an_export_iteration_listed_twice_is_refused(tmp_path, capsys):
    # it would be written twice and counted twice; the order stays free
    message = "export iteration 1 is listed twice"
    with pytest.raises(ValueError, match=f"^{message}$"):
        LoopSpec(iterations=5, export_iterations=[3, 1, 1])
    with pytest.raises(ConfigError, match=f"^bad section 'loop': {message}$"):
        scenario_from_dict({"loop": {"export_iterations": [1, 0, 1]}})
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"loop": {"export_iterations": [1, 0, 1]}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_scenario_stores_integral_floats_as_integers():
    cfg = scenario_from_dict(
        {
            "grid": {"n_points": 300.0},
            "dmd": {"n_rows": 50.0, "n_columns": 400.0},
            "lut": {"n_nu": 11.0, "population": 40.0, "generations": 3e1},
            "solver": {"max_steps": 6e4},
            "loop": {"seed": 7.0, "export_iterations": [0.0, 2]},
            "disturbances": [{"iteration": 4.0, "spots": []}],
        }
    )
    counts = (
        cfg.grid.n_points,
        cfg.dmd.n_rows,
        cfg.dmd.n_columns,
        cfg.lut.n_nu,
        cfg.lut.population,
        cfg.lut.generations,
        cfg.solver.max_steps,
        cfg.loop.seed,
        *cfg.loop.export_iterations,
        cfg.disturbances[0].iteration,
    )
    assert counts == (300, 50, 400, 11, 40, 30, 60_000, 7, 0, 2, 4)
    assert all(type(c) is int for c in counts)
    assert cfg.grid.build().n_points == 300
    # float fields store the number they are given as a float
    length = scenario_from_dict({"grid": {"length": 250}}).grid.length
    assert length == 250 and type(length) is float


def test_a_partial_section_keeps_the_reference_values_it_omits():
    reference = ScenarioConfig()
    solver = scenario_from_dict({"solver": {"tol": 1e-9}}).solver
    assert solver == dataclasses.replace(reference.solver, tol=1e-9)
    assert (solver.dtau, solver.max_steps) == (0.05, 60_000)
    magnetic = scenario_from_dict({"magnetic": {"ripple_phase": 0.3}}).magnetic
    assert magnetic == dataclasses.replace(reference.magnetic, ripple_phase=0.3)
    magnetic = scenario_from_dict({"magnetic": {"omega_par": 0.044}}).magnetic
    assert magnetic.omega_par == 0.044
    assert magnetic.ripple_amplitude == reference.magnetic.ripple_amplitude > 0
    # every section given in part equals the reference section with that key replaced
    for name, section in scenario_to_dict(reference).items():
        if not isinstance(section, dict):
            continue
        key, value = next(iter(section.items()))
        built = getattr(scenario_from_dict({name: {key: value}}), name)
        assert built == getattr(reference, name), name


def test_section_classes_hold_the_reference_defaults():
    reference = ScenarioConfig()
    assert MagneticPotentialSpec() == reference.magnetic
    assert SolverConfig() == reference.solver
    for name, cls in harness._SECTIONS.items():
        assert cls() == getattr(reference, name), name


_OUT_OF_RANGE = [
    ("lut", "dy", -1.0, "dy must be >= 0, got -1.0"),
    ("lut", "gamma_perp", -0.5, "gamma_perp must be >= 0, got -0.5"),
    ("lut", "population", 1, "population must be >= 2, got 1"),
    ("lut", "generations", 0, "generations must be >= 1, got 0"),
    ("grid", "length", 0.0, "length must be > 0, got 0.0"),
    ("grid", "length", -250.0, "length must be > 0, got -250.0"),
    ("grid", "n_points", 1, "n_points must be >= 2, got 1"),
]


@pytest.mark.parametrize(
    "section, key, value, message",
    _OUT_OF_RANGE,
    ids=[f"{s}.{k}={v}" for s, k, v, _ in _OUT_OF_RANGE],
)
def test_out_of_range_table_and_grid_keys_are_refused(section, key, value, message):
    with pytest.raises(ConfigError, match=f"^bad section '{section}': {message}$"):
        scenario_from_dict({section: {key: value}})


# settings with a single value in every run, now constants or gone, and
# values that prepare works out (recorded in run.json's derived section)
_DELETED_KEYS = [
    ("measurement", "seed", 5),
    ("measurement", "clamp_negative", False),
    ("psf", "gy_tab_range", 60.0),
    ("lut", "mutation_rate", 0.02),
    ("solver", "record_history", True),
    ("beam", "amplitude", 7.0),
    ("control", "gamma_nu", 1e-3),
    ("control", "eps_opt", 2.0),
    ("control", "eps_mu", 0.5),
]


@pytest.mark.parametrize(
    "section, key, value", _DELETED_KEYS, ids=[f"{s}.{k}" for s, k, _ in _DELETED_KEYS]
)
def test_deleted_keys_are_refused(tmp_path, capsys, section, key, value):
    assert key not in scenario_to_dict(ScenarioConfig())[section]
    data = {section: {key: value}}
    with pytest.raises(ConfigError, match=f"unknown keys in '{section}': {key}$"):
        scenario_from_dict(data)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: unknown keys")
    assert not out.exists()


# every count of a section, and the other arguments its class needs
_COUNTS = [
    (GridSpec, {}, "n_points"),
    (SolverConfig, {}, "max_steps"),
    (LoopSpec, {}, "iterations"),
    (LoopSpec, {}, "seed"),
    (DmdSpec, {}, "n_rows"),
    (DmdSpec, {}, "n_columns"),
    (LutSpec, {}, "n_nu"),
    (LutSpec, {}, "population"),
    (LutSpec, {}, "generations"),
    (PsfModel, {}, "gy_zero_cut"),
    (DisturbanceEvent, {"spots": ()}, "iteration"),
]


def test_sections_built_in_python_refuse_fractional_counts():
    for entry in (2.7, True):
        message = f"export_iterations entry must be an integer, got {entry}"
        with pytest.raises(TypeError, match=message):
            LoopSpec(export_iterations=(entry,))
    for value in (30.0, True):
        with pytest.raises(TypeError, match=f"^grid n_points must be an integer, got {value}$"):
            SpatialGrid1D(10.0, value)
    for cls, others, name in _COUNTS:
        # a boolean is not a count, although operator.index takes it as 0 or 1
        for value in (3.5, True):
            with pytest.raises(TypeError, match=f"{name} must be an integer, got {value}"):
                cls(**others, **{name: value})
        # numpy integers are integers, and are stored as int
        value = getattr(cls(**others, **{name: np.int64(3)}), name)
        assert value == 3 and type(value) is int, (cls, name)
    assert LoopSpec(iterations=3, export_iterations=(np.int64(2),)).export_iterations == (2,)
    assert type(SpatialGrid1D(10.0, np.int64(30)).n_points) is int


# every float field with a range check, and the other arguments its class needs
_CHECKED_FLOATS = [
    (SpatialGrid1D, {"n_points": 10}, "length"),
    (GridSpec, {}, "length"),
    (LutSpec, {}, "gamma_perp"),
    (LutSpec, {}, "dy"),
    (CondensateParams, {}, "mass"),
    (CondensateParams, {}, "scattering_length"),
    (CondensateParams, {}, "atom_number"),
    (CondensateParams, {}, "omega_perp"),
    (PsfModel, {}, "sigma_z"),
    (PsfModel, {}, "w_y"),
    (BeamProfile, {}, "sigma_y"),
    (BeamProfile, {}, "sigma_z"),
    (MagneticPotentialSpec, {"omega_par": 1.0}, "omega_par"),
    (MagneticPotentialSpec, {"omega_par": 1.0}, "ripple_amplitude"),
    (MagneticPotentialSpec, {"omega_par": 1.0}, "ripple_wavelength"),
    (DesiredPotentialSpec, {}, "v_max"),
    (DesiredPotentialSpec, {}, "k_v"),
    (DmdSpec, {}, "pixel_pitch"),
    (ControlSpec, {}, "alpha_v"),
    (ControlSpec, {}, "headroom"),
    (LoopSpec, {}, "nu_initial"),
    (SolverConfig, {}, "dtau"),
    (SolverConfig, {}, "tol"),
    (MeasurementConfig, {}, "noise_std"),
    (DarkSpot, {"center": 0.0, "width": 1.0, "depth": 0.1}, "width"),
    (DarkSpot, {"center": 0.0, "width": 1.0, "depth": 0.1}, "depth"),
    (DarkSpot, {"center": 0.0, "width": 1.0, "depth": 0.1}, "center"),
    (MagneticPotentialSpec, {}, "ripple_phase"),
    (DmdPattern, {"bits": np.zeros((1, 1))}, "pixel_pitch"),
]


@pytest.mark.parametrize(
    "cls, args, key", _CHECKED_FLOATS, ids=[f"{c.__name__}.{k}" for c, _, k in _CHECKED_FLOATS]
)
def test_sections_built_in_python_refuse_nan(cls, args, key):
    # infinities too: a range check alone would pass +inf as > 0; and numbers
    # beyond the float range of other types, refused without a numpy warning
    # (the warning policy makes one an error)
    beyond = (np.float32("inf"), 10**400, Fraction(10**400))
    for bad in (float("nan"), float("inf"), float("-inf"), *beyond):
        message = rf"\b{key} must be finite, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            cls(**{**args, key: bad})
    # no number at all, though True would pass a range check as 1
    for bad in (True, "0.5"):
        with pytest.raises(TypeError, match=rf"\b{key} must be a number, got {bad!r}$"):
            cls(**{**args, key: bad})


@pytest.mark.parametrize(
    "cls, args, key", _CHECKED_FLOATS, ids=[f"{c.__name__}.{k}" for c, _, k in _CHECKED_FLOATS]
)
def test_sections_built_in_python_store_reals_as_floats(cls, args, key):
    for value in (1, np.int64(1), np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
        stored = getattr(cls(**{**args, key: value}), key)
        assert stored == value and type(stored) is float, value


_BAD_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -1, 1e300, True, "x", None, [1]]
# the 35 scenario keys and the four keys of a disturbance entry
_SCENARIO_KEYS = [
    (name, key)
    for name, section in scenario_to_dict(ScenarioConfig()).items()
    if isinstance(section, dict)
    for key in section
] + [("disturbances", key) for key in ("iteration", "center", "width", "depth")]


@pytest.mark.parametrize(
    "section, key", _SCENARIO_KEYS, ids=[".".join(k) for k in _SCENARIO_KEYS]
)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(value=st.sampled_from(_BAD_VALUES))
def test_a_bad_value_is_taken_or_refused_by_its_key(section, key, value):
    # one value of the full reference scenario replaced
    data = scenario_to_dict(ScenarioConfig())
    if section == "disturbances":
        event = data["disturbances"][0]
        (event if key == "iteration" else event["spots"][0])[key] = value
    else:
        data[section][key] = value
    try:
        scenario_from_dict(data)
    except ConfigError as exc:
        assert key in str(exc)


def test_cli_refuses_a_grid_too_large_to_allocate(tmp_path, capsys, monkeypatch):
    def build(spec):
        raise MemoryError(f"cannot allocate {spec.n_points} points")

    monkeypatch.setattr(GridSpec, "build", build)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text('{"grid": {"n_points": 1e12}}')
    out = tmp_path / "state.csv"
    assert cli.main(["groundstate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "invalid input: cannot allocate 1000000000000 points\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["design-kernel", "run"])
def test_cli_refuses_a_grid_that_misses_the_point_spread_kernel(tmp_path, capsys, command):
    # 2 points lie at +-125 um, where g_z underflows to 0
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text('{"grid": {"n_points": 2}}')
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = "invalid input: the point-spread kernel sampled on the grid has no weight\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("command", ["design-kernel", "run"])
def test_cli_refuses_a_grid_too_coarse_for_the_kernel(tmp_path, capsys, command):
    # 2 points over 20 um keep the point-spread kernel's weight, but their
    # lags 0 and 20 um hold no tap on the negative side of z = 0
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text('{"grid": {"length": 20.0, "n_points": 2}}')
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: a grid of 2 points holds no lag")
    assert "grid.n_points" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-lut", "run"])
def test_cli_refuses_a_scenario_whose_table_misses_its_levels(tmp_path, capsys, command):
    # two mirrors achieve |E(0)| = 0, 0.5 and 1 only, so the 7-level
    # table's inner levels miss their targets: a one-line refusal that
    # names the keys to change, not a traceback
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(
        '{"dmd": {"n_rows": 2}, "lut": {"n_nu": 7, "population": 8, "generations": 5}}'
    )
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: table entries out of tolerance: k=1 ")
    assert "dmd.n_rows = 2" in err and "lut section" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_refuses_integers_beyond_the_float_range(tmp_path, capsys):
    # a float key refuses such an integer as not finite; a count takes it,
    # and the first float conversion of it is refused with its section
    huge = 10**400
    out = tmp_path / "state.csv"
    refusals = {
        "configuration error: bad section 'grid': length must be finite": ("grid", "length"),
        "configuration error: bad section 'psf': int too large to convert to float": (
            "psf",
            "gy_zero_cut",
        ),
    }
    for err, (section, key) in refusals.items():
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps({section: {key: huge}}))
        assert cli.main(["groundstate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(err)
        assert not out.exists()


def test_negative_seed_is_refused(tmp_path, capsys, monkeypatch):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        LoopSpec(seed=-1)
    with pytest.raises(ConfigError, match="bad section 'loop': seed must be >= 0, got -1"):
        scenario_from_dict({"loop": {"seed": -1}})
    # the command line names the seed before it builds anything
    monkeypatch.setattr(harness, "build_scenario_lut", lambda cfg: pytest.fail("built a table"))
    monkeypatch.setattr(harness, "prepare", lambda cfg: pytest.fail("prepared"))
    out = tmp_path / "run"
    assert cli.main(["run", "--seed", "-1", "--out", str(out)]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_seed_built_in_python_must_be_an_integer():
    with pytest.raises(TypeError):
        LoopSpec(seed=2.5)
    seed = LoopSpec(seed=np.int64(7)).seed
    assert seed == 7 and type(seed) is int


_SPOT = {"center": 0.0, "width": 1.0, "depth": 0.1}
# the 24 keys that hold a float in the reference scenario and the
# dark-spot keys
_FLOAT_KEYS = [
    (name, key)
    for name, section in scenario_to_dict(ScenarioConfig()).items()
    if isinstance(section, dict)
    for key, value in section.items()
    if type(value) is float
] + [("spot", key) for key in _SPOT]


def test_every_float_key_is_checked_when_built_in_python():
    sections = {**harness._SECTIONS, "spot": DarkSpot}
    checked = {(cls, key) for cls, _, key in _CHECKED_FLOATS}
    assert {(sections[name], key) for name, key in _FLOAT_KEYS} <= checked


def test_float_keys_are_every_float_field_of_the_scenario():
    assert len(_FLOAT_KEYS) == 24 + 3
    assert len(_SCENARIO_KEYS) == 35 + 4
    annotated = {
        (name, f.name)
        for name, cls in harness._SECTIONS.items()
        for f in dataclasses.fields(cls)
        if f.init and f.type.startswith("float")
    }
    assert annotated == {k for k in _FLOAT_KEYS if k[0] != "spot"}


# float keys that prepare now works out; a value given for one is refused
# as an unknown key
_DERIVED_FLOAT_KEYS = [
    ("beam", "amplitude"),
    ("control", "gamma_nu"),
    ("control", "eps_opt"),
    ("control", "eps_mu"),
]
_NON_FINITE_CASES = _FLOAT_KEYS + _DERIVED_FLOAT_KEYS


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize(
    "section, key", _NON_FINITE_CASES, ids=[".".join(k) for k in _NON_FINITE_CASES]
)
def test_scenario_refuses_non_finite_floats(section, key, bad):
    if section == "spot":
        data = {"disturbances": [{"iteration": 1, "spots": [{**_SPOT, key: bad}]}]}
        match = rf"'disturbances\[0\]\.spots': {key} must be finite, got {bad!r}$"
    elif (section, key) in _DERIVED_FLOAT_KEYS:
        data = {section: {key: bad}}
        match = f"unknown keys in '{section}': {key}$"
    else:
        data = {section: {key: bad}}
        match = rf"'{section}': {key} must be finite, got {bad!r}$"
    with pytest.raises(ConfigError, match=match):
        scenario_from_dict(data)


def test_cli_refuses_a_nan_scenario(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "build_scenario_lut", lambda cfg: pytest.fail("built a table"))
    monkeypatch.setattr(harness, "prepare", lambda cfg: pytest.fail("prepared"))
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text('{"desired": {"k_v": NaN}}')
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'desired': k_v must be finite, got nan" in err
    assert not out.exists()


def test_disturbance_schedule_must_be_sorted():
    a = DisturbanceEvent(iteration=5, spots=(DarkSpot(0.0, 1.0, 0.1),))
    b = DisturbanceEvent(iteration=2, spots=(DarkSpot(1.0, 1.0, 0.1),))
    with pytest.raises(ConfigError, match="sorted"):
        ScenarioConfig(disturbances=(a, b))
    with pytest.raises(ConfigError):
        ScenarioConfig(disturbances=("not an event",))
    with pytest.raises(ValueError):
        DisturbanceEvent(iteration=-1, spots=())
    # a spot is a DarkSpot, not its three numbers
    with pytest.raises(TypeError, match=r"spots must be DarkSpot entries, got \(0\.0, 2\.0, 0\.1\)"):
        DisturbanceEvent(1, ((0.0, 2.0, 0.1),))


def test_load_scenario_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ this is not json")
    with pytest.raises(ConfigError):
        load_scenario(p)
    q = tmp_path / "ok.json"
    q.write_text(json.dumps({"loop": {"iterations": 3}}))
    cfg = load_scenario(q)
    assert cfg.loop.iterations == 3
    assert cfg.grid == ScenarioConfig().grid  # other sections keep defaults


def test_default_disturbance_schedule():
    cfg = ScenarioConfig()
    assert inject_disturbances(cfg.disturbances, 39).spots == ()
    active = inject_disturbances(cfg.disturbances, 40)
    assert len(active.spots) == 3
    assert inject_disturbances(cfg.disturbances, 79).spots == active.spots
    z = np.linspace(-60.0, 60.0, 1201)
    assert np.min(active.tau(z)) < 0.9  # the spots really absorb


def test_inject_disturbances_unions_events():
    e1 = DisturbanceEvent(iteration=10, spots=(DarkSpot(-5.0, 1.0, 0.2),))
    e2 = DisturbanceEvent(iteration=20, spots=(DarkSpot(5.0, 1.0, 0.2),))
    assert inject_disturbances((e1, e2), 5).spots == ()
    assert len(inject_disturbances((e1, e2), 15).spots) == 1
    assert len(inject_disturbances((e1, e2), 25).spots) == 2


# ------------------------------------------------------------- the loop


def test_error_norm_matches_direct_quadrature():
    g = SpatialGrid1D(30.0, 301)
    rng = np.random.default_rng(23)
    e = RealField1D(grid=g, values=rng.standard_normal(301) * 0.1)
    expect = float(np.sqrt(np.trapezoid(e.values**2, dx=g.dz)))
    assert error_norm(e) == expect


def test_perfect_measurement_freezes_the_loop(small_prepared, small_lut):
    # measuring exactly the desired density: zero error, no input motion
    pre = small_prepared
    e = density_error(pre.rho_desired, pre.rho_desired)
    assert error_norm(e) == 0.0
    rng = np.random.default_rng(5)
    nu = rng.choice(small_lut.nu_levels, pre.col_grid.n_points)
    held, clamp_count = _held_update(nu, e, pre, small_lut)
    assert clamp_count == 0
    assert np.array_equal(held, nu)
    before = _pattern(nu, pre, small_lut)
    assert np.array_equal(_pattern(held, pre, small_lut).bits, before.bits)


def test_loop_under_measurement_noise(small_scenario, small_prepared, small_lut):
    cfg = dataclasses.replace(
        small_scenario,
        measurement=MeasurementConfig(noise_std=1e-4),
        loop=dataclasses.replace(small_scenario.loop, iterations=3),
    )

    def run(c):
        return run_closed_loop(c, lut=small_lut, prepared=small_prepared).records

    def trace(records):
        return [
            (r.n, r.error_norm.hex(), r.mu.hex(), r.e_rho.tobytes(), r.extras["pattern"].sha256())
            for r in records
        ]

    first = run(cfg)
    assert len(first) == 3
    # the noise is seeded by loop.seed and the iteration: a rerun repeats it
    assert trace(run(cfg)) == trace(first)
    other = run(dataclasses.replace(cfg, loop=dataclasses.replace(cfg.loop, seed=100)))
    assert not np.array_equal(other[0].e_rho, first[0].e_rho)
    # noisy densities are clamped at 0, so every measurement is a density
    assert all(np.min(r.extras["rho"]) >= 0.0 for r in first + other)


@pytest.mark.parametrize("noise_std", [0.0, 1e-4])
def test_noise_is_drawn_from_one_stream_per_iteration(
    monkeypatch, small_scenario, small_prepared, small_lut, noise_std
):
    # a noisy measurement is the solved density plus the draws of the
    # stream seeded by (loop.seed, 7, n), clamped at 0, and its record
    # holds it; a noise-free run seeds no stream at all
    cfg = dataclasses.replace(
        small_scenario,
        measurement=MeasurementConfig(noise_std=noise_std),
        loop=dataclasses.replace(small_scenario.loop, iterations=3),
    )
    solved, seeded = [], []
    measure = harness.measure_density
    default_rng = np.random.default_rng

    def measured(rho, mcfg, rng):
        solved.append(rho.values)
        return measure(rho, mcfg, rng)

    def counted_rng(seed):
        seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(harness, "measure_density", measured)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    records = run_closed_loop(cfg, lut=small_lut, prepared=small_prepared).records
    monkeypatch.undo()
    if noise_std == 0.0:
        assert seeded == []
    else:
        assert seeded == [[cfg.loop.seed, 7, n] for n in range(3)]
    for n, (r, rho) in enumerate(zip(records, solved)):
        noise = default_rng([cfg.loop.seed, 7, n]).normal(0.0, noise_std, size=rho.shape)
        want = np.clip(rho + noise, 0.0, None) if noise_std else rho
        assert np.array_equal(r.extras["rho"], want)


def test_loop_failure_carries_the_records_so_far(
    monkeypatch, small_scenario, small_prepared, small_lut
):
    # every solve from the loop's second call on stalls: iteration 0 is
    # recorded, iteration 1 fails after its warm and its cold attempt
    calls = []
    solve = harness.ground_state

    def stalling(*args, **kwargs):
        calls.append(kwargs.get("initial"))
        gs = solve(*args, **kwargs)
        return gs if len(calls) == 1 else dataclasses.replace(gs, converged=False)

    monkeypatch.setattr(harness, "ground_state", stalling)
    with pytest.raises(ConvergenceError, match="at iteration 1") as info:
        run_closed_loop(small_scenario, lut=small_lut, prepared=small_prepared)
    assert len(calls) == 3
    assert calls[1] is not None and calls[2] is None  # warm, then cold
    records = info.value.records
    assert [r.n for r in records] == [0]
    assert {"v", "rho"} <= set(records[0].extras)
    assert np.isfinite(records[0].mu) and records[0].error_norm > 0.0


def test_a_stalled_cold_solve_is_not_retried(
    monkeypatch, caplog, small_scenario, small_prepared, small_lut
):
    # iteration 0 solves cold; five steps stall it, and the identical cold
    # solve is not run a second time
    cfg = dataclasses.replace(
        small_scenario, solver=dataclasses.replace(small_scenario.solver, max_steps=5)
    )
    calls = []
    solve = harness.ground_state

    def counted(*args, **kwargs):
        calls.append(kwargs.get("initial"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "ground_state", counted)
    with caplog.at_level(logging.WARNING, logger="potshape"):
        with pytest.raises(ConvergenceError, match="at iteration 0") as info:
            run_closed_loop(cfg, lut=small_lut, prepared=small_prepared)
    assert calls == [None]
    assert "retrying cold" not in caplog.text
    assert caplog.text.count("not converged after 5 steps") == 1
    assert info.value.records == ()  # attached, and empty before the first record


def _held_update(nu, e, pre, lut):
    """``level_update`` on the input ``nu`` as the loop calls it: the next
    input and the law's clamp count."""
    index, clamp_count = level_update(lut.nearest_index(nu), e, error_norm(e), pre, lut)
    return lut.nu_levels[index], clamp_count


def _pattern(nu, prepared, lut):
    return map_virtual_input(RealField1D(grid=prepared.col_grid, values=nu), lut)


def _law_correction(e, prepared):
    return correction(scaled_error(e, prepared.gain), prepared.kernel, prepared.col_grid)


def _support_bump(prepared, peak_correction, lut):
    """Error bump on the gain's support whose law correction peaks at
    ``peak_correction`` table steps, and the input it acts on."""
    z = prepared.grid.samples
    z0 = z[prepared.gain.support][0]
    shape = RealField1D(grid=prepared.grid, values=np.exp(-((z - z0) ** 2) / 20.0))
    nu = np.full(prepared.col_grid.n_points, 0.5)
    unit = _law_correction(shape, prepared)
    scale = peak_correction / (lut.n_nu - 1) / np.max(np.abs(unit))
    return nu, RealField1D(grid=prepared.grid, values=scale * shape.values)


def test_level_update_holds_corrections_below_half_a_step(small_prepared, small_lut):
    nu, e = _support_bump(small_prepared, 0.4, small_lut)
    held, _ = _held_update(nu, e, small_prepared, small_lut)
    half = 0.5 / (small_lut.n_nu - 1)
    # the unquantised law would move the input, the held one does not
    assert 0.7 * half < np.max(np.abs(_law_correction(e, small_prepared))) < half
    assert np.array_equal(held, nu)
    before = _pattern(nu, small_prepared, small_lut)
    after = _pattern(held, small_prepared, small_lut)
    assert np.array_equal(after.bits, before.bits)


def test_level_update_moves_onto_levels_and_lowers_the_predicted_error(
    small_scenario, small_prepared, small_lut
):
    pre = small_prepared
    nu, e = _support_bump(pre, 3.0, small_lut)
    held, _ = _held_update(nu, e, pre, small_lut)
    levels = small_lut.nu_levels
    assert np.all(np.isin(held, levels))
    assert not np.array_equal(held, nu)
    # the field change by the pixel sum of the applied and the held
    # pattern, through the linearised balance -alpha / (e_max p_z)
    psf = small_scenario.psf
    fields = [
        propagate_full(_pattern(v, pre, small_lut), pre.beam, psf, pre.grid)
        for v in (held, nu)
    ]
    slope = -pre.gain.alpha.values / (pre.e_perp_max * pre.beam.pz(pre.grid.samples))
    de = slope * (fields[0].values - fields[1].values)
    assert error_norm(RealField1D(grid=pre.grid, values=e.values + de)) < error_norm(e)


def test_level_update_holds_a_move_the_table_cannot_deliver(small_prepared, small_lut):
    # every level achieves the same field, so no move changes the plant
    # and none can lower the predicted error, however far the law asks
    flat = dataclasses.replace(small_lut, achieved=np.full(small_lut.n_nu, 0.5))
    nu, e = _support_bump(small_prepared, 3.0, flat)
    held, _ = _held_update(nu, e, small_prepared, flat)
    assert np.max(np.abs(_law_correction(e, small_prepared))) > 2.0 / (flat.n_nu - 1)
    assert np.array_equal(held, nu)


def _dense_level_update(nu, e, pre, lut):
    # the trial prediction as one product of the whole column response,
    # scattered from its band into the full matrix, with the achieved-value
    # change of all columns, moved or not, and the
    # columns where the law's target nu - L * e leaves [0, 1]; also counts
    # the trials and those that move a column
    levels = lut.nu_levels
    achieved = lut.achieved
    corr = correction(scaled_error(e, pre.gain), pre.kernel, pre.col_grid)
    raw = nu - corr
    clamp_count = int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
    current = lut.nearest_index(nu)
    held = levels[current]
    slope = -pre.gain.alpha.values / pre.beam.pz(pre.grid.samples)
    response = dense_matrix(pre.column_response)
    trials = moved = 0
    while np.max(np.abs(corr)) > 0.5 * (levels[1] - levels[0]):
        trials += 1
        trial = lut.nearest_index(np.clip(nu - corr, 0.0, 1.0))
        moved += bool(np.any(trial != current))
        de = slope * (response @ (achieved[trial] - achieved[current]))
        if error_norm(RealField1D(grid=e.grid, values=e.values + de)) < error_norm(e):
            held = levels[trial]
            break
        corr = 0.5 * corr
    return held, clamp_count, trials, moved


@pytest.mark.parametrize("which", ["small", "reference"])
def test_level_update_equals_the_dense_trial_prediction(which, request):
    # random states on the table and on a copy whose achieved values run
    # backwards, so that its moves raise the predicted error and are
    # halved; a third of the columns sit at level 0 or 1 and are pushed
    # outward by the law, so trials mix moved and unmoved columns.  The
    # reference grid is shorter than the mirror, so its end columns reach
    # no grid row and the oracle's product runs over them too
    pre = request.getfixturevalue(f"{which}_prepared")
    table = request.getfixturevalue(f"{which}_lut")
    # a Lut refuses achieved values that decrease, so the copy is made
    # past its constructor
    backwards = copy.copy(table)
    object.__setattr__(backwards, "achieved", table.achieved[::-1])
    rng = np.random.default_rng(13)
    z = pre.grid.samples
    support = z[pre.gain.support]
    n_cols = pre.col_grid.n_points
    outcomes = []
    for lut in (table, backwards) * 6:
        centres = rng.uniform(support[0], support[-1], 3)
        bumps = np.exp(-((z[:, None] - centres[None, :]) ** 2) / rng.uniform(10.0, 200.0, 3))
        e = RealField1D(grid=pre.grid, values=bumps @ rng.normal(0.0, 0.05, 3))
        nu = lut.nu_levels[rng.integers(0, lut.n_nu, n_cols)]
        corr = _law_correction(e, pre)
        edge = rng.random(n_cols) < 1 / 3
        nu[edge] = np.where(corr[edge] > 0.0, 0.0, 1.0)
        held, clamp_count = _held_update(nu, e, pre, lut)
        want, want_clamps, _, _ = _dense_level_update(nu, e, pre, lut)
        assert np.array_equal(held, want)
        assert clamp_count == want_clamps
        outcomes.append((lut is backwards, np.array_equal(want, nu)))
    # moves applied on the table, every move refused on the backwards copy
    assert outcomes.count((False, False)) >= 5 and outcomes.count((True, True)) >= 5


def test_level_update_halves_a_trial_that_moves_no_column_at_once(small_prepared, small_lut):
    # every column sits at level 0 or 1 and is pushed outward, so no trial
    # moves a column; any product with the band of NaN would fail the
    # error norm's finiteness check
    nu, e = _support_bump(small_prepared, 3.0, small_lut)
    corr = _law_correction(e, small_prepared)
    edge = np.where(corr > 0.0, 0.0, 1.0)
    band = small_prepared.column_response
    nan_band = dataclasses.replace(band, values=np.full_like(band.values, np.nan))
    blind = dataclasses.replace(small_prepared, column_response=nan_band)
    held, _ = _held_update(edge, e, blind, small_lut)
    assert np.max(np.abs(corr)) > 2.0 / (small_lut.n_nu - 1)
    assert np.array_equal(held, edge)
    with pytest.raises(ValueError):
        _held_update(nu, e, blind, small_lut)


def _held_shots(records, cfg):
    # a shot is held when its input (so its table indices) and its active
    # dark spots equal its predecessor's: the potential repeats
    return [
        n > 0
        and r.nu.tobytes() == records[n - 1].nu.tobytes()
        and inject_disturbances(cfg.disturbances, n)
        == inject_disturbances(cfg.disturbances, n - 1)
        for n, r in enumerate(records)
    ]


def _count_loop_calls(monkeypatch, lut, events):
    # record each table lookup, pattern's column sums, error norm,
    # ground-state solve and level_update call in ``events``
    nearest = type(lut).nearest_index
    sums = harness.column_sums
    norm = harness._error_norm
    solve = harness.ground_state
    law = harness.level_update

    def counted_nearest(self, nu):
        events.append("index")
        return nearest(self, nu)

    def counted_sums(*args):
        events.append("columns")
        return sums(*args)

    def counted_norm(values, dz):
        events.append("norm")
        return norm(values, dz)

    def counted_solve(*args, **kwargs):
        events.append("solve")
        return solve(*args, **kwargs)

    def counted_law(*args):
        events.append("update")
        return law(*args)

    monkeypatch.setattr(type(lut), "nearest_index", counted_nearest)
    monkeypatch.setattr(harness, "column_sums", counted_sums)
    monkeypatch.setattr(harness, "_error_norm", counted_norm)
    monkeypatch.setattr(harness, "ground_state", counted_solve)
    monkeypatch.setattr(harness, "level_update", counted_law)


def test_loop_takes_one_index_and_one_error_norm_per_iteration(
    scenario, reference_lut, reference_prepared, reference_run, monkeypatch
):
    # the loop looks up its initial input's table indices once and then
    # carries the indices level_update returns.  An iteration that is not
    # a held shot takes one pattern's column sums, one solve, one error
    # norm and one level_update, and each trial one index lookup and, if
    # it moves a column, one predicted norm; the pattern is the table's
    # rows, with no lookup of its own.  A held noise-free shot does none
    # of this.  The records are the reference run's.
    pre, lut = reference_prepared, reference_lut
    events = []
    _count_loop_calls(monkeypatch, lut, events)
    per_iteration = []

    def progress(record):
        per_iteration.append(
            [events.count(k) for k in ("index", "norm", "columns", "solve", "update")]
        )
        events.clear()

    records = run_closed_loop(scenario, lut=lut, prepared=pre, progress=progress).records
    monkeypatch.undo()
    assert len(per_iteration) == len(records) == 80
    new_pattern = [
        n == 0 or r.extras["pattern"].sha256() != records[n - 1].extras["pattern"].sha256()
        for n, r in enumerate(records)
    ]
    held = _held_shots(records, scenario)
    for r, counts in zip(records, per_iteration):
        if held[r.n]:
            assert counts == [0, 0, 0, 0, 0], r.n
            continue
        e = RealField1D(grid=pre.grid, values=r.e_rho)
        _, _, trials, moved = _dense_level_update(r.nu, e, pre, lut)
        assert counts == [trials + (r.n == 0), 1 + moved, 1, 1, 1], r.n
    assert sum(new_pattern) == 19
    assert [n for n in range(80) if held[n]] == [*range(8, 40), *range(52, 80)]
    for r, want in zip(records, reference_run.records):
        assert r.error_norm.hex() == want.error_norm.hex() and r.mu.hex() == want.mu.hex()
        assert r.nu.tobytes() == want.nu.tobytes() and r.e_rho.tobytes() == want.e_rho.tobytes()
        assert r.clamp_count == want.clamp_count
        assert r.extras["pattern"].sha256() == want.extras["pattern"].sha256()


def test_noisy_held_shot_reuses_the_ground_state_and_draws_new_noise(
    small_scenario, small_lut, small_prepared, monkeypatch
):
    # with noise a held shot skips only the solve: ground_state runs once
    # per distinct potential, while each held shot draws its own noise,
    # so it measures, forms the error and updates anew
    cfg = dataclasses.replace(
        small_scenario,
        loop=dataclasses.replace(small_scenario.loop, iterations=8),
        measurement=MeasurementConfig(noise_std=1e-4),
    )
    events = []
    _count_loop_calls(monkeypatch, small_lut, events)
    records = run_closed_loop(cfg, lut=small_lut, prepared=small_prepared).records
    monkeypatch.undo()
    held = _held_shots(records, cfg)
    assert sum(held) >= 2
    assert events.count("solve") == len(records) - sum(held)
    assert events.count("update") == len(records)
    for n in np.flatnonzero(held):
        r, prev = records[n], records[n - 1]
        assert r.extras["solver_steps"] == 0 and r.mu.hex() == prev.mu.hex()
        assert r.extras["v"].tobytes() == prev.extras["v"].tobytes()
        assert r.extras["rho"].tobytes() != prev.extras["rho"].tobytes()
        assert r.e_rho.tobytes() != prev.e_rho.tobytes()
    assert all(r.extras["solver_steps"] > 0 for r, h in zip(records, held) if not h)


def test_held_noise_free_shot_repeats_its_predecessor(scenario, reference_run):
    # a held shot of the noise-free reference run is a fixed point: same
    # potential, state, measurement and error, no solver step, and the
    # held input again; the pattern changes only where a shot is not held
    records = reference_run.records
    held = _held_shots(records, scenario)
    assert sum(held) == 60
    for n in np.flatnonzero(held):
        r, prev = records[n], records[n - 1]
        for key in ("rho", "v", "v_opt"):
            assert r.extras[key].tobytes() == prev.extras[key].tobytes(), (n, key)
        assert r.e_rho.tobytes() == prev.e_rho.tobytes()
        assert r.mu.hex() == prev.mu.hex() and r.error_norm.hex() == prev.error_norm.hex()
        assert r.clamp_count == prev.clamp_count
        assert r.extras["pattern"].sha256() == prev.extras["pattern"].sha256()
        assert r.extras["solver_steps"] == 0
    assert all(r.extras["solver_steps"] > 0 for r, h in zip(records, held) if not h)
    changes = [
        n for n in range(1, len(records))
        if records[n].extras["pattern"].sha256() != records[n - 1].extras["pattern"].sha256()
    ]
    assert len(changes) + 1 == 19 and not any(held[n] for n in changes)


# ---------------------------------------------------------------- exports


def test_export_and_report_round_trip(tmp_path, scenario, reference_run):
    out = tmp_path / "run"
    written = export_records(reference_run, out)
    names = {p.split("/")[-1] for p in map(str, written)}
    assert "error_norms.csv" in names and "run.json" in names
    assert "fields_0000.csv" in names and "pattern_0000.pbm" in names
    assert "fields_0079.csv" in names  # last iteration of the default picks

    summary = report(out)
    assert summary["ok"], summary
    assert summary["worst_mismatch"] <= 1e-12
    assert summary["iterations"] == 80

    data = load_run(out)
    assert data["meta"]["config"] == scenario_to_dict(scenario)
    derived = data["meta"]["derived"]
    for key in (
        "e_perp_max",
        "mu_desired",
        "alpha_bar",
        "gamma_nu",
        "kernel_support",
        "lut_sha256",
        "crossover_parameter_desired",
    ):
        assert key in derived
    # the CSV stores full precision: read-back equals the records exactly
    norms = data["norms"]["error_norm"]
    assert np.array_equal(norms, np.array([r.error_norm for r in reference_run.records]))
    assert np.array_equal(data["norms"]["n"], np.arange(80.0))


def _mixed_sign_start(small_scenario, small_lut):
    """The small scenario and table with the starting level swapped for
    mirrors only in the first negative sinc lobe, so iteration 1 mixes
    columns of both signs, and a dark spot active from iteration 1."""
    y = pixel_centers(small_lut.n_t, small_lut.pitch)
    lobe = (np.abs(y) > small_scenario.psf.w_y) & (np.abs(y) < 2.0 * small_scenario.psf.w_y)
    levels = small_lut.levels.copy()
    levels[int(small_lut.nearest_index(small_scenario.loop.nu_initial))] = lobe
    lut = dataclasses.replace(small_lut, levels=levels)
    spot = DarkSpot(center=5.0, width=3.0, depth=0.3)
    cfg = dataclasses.replace(
        small_scenario, disturbances=(DisturbanceEvent(iteration=1, spots=(spot,)),)
    )
    return cfg, lut


def test_exported_potential_matches_the_pixel_sum(
    tmp_path, small_scenario, small_prepared, small_lut
):
    # the loop's cached column response against the direct pixel sum of
    # every exported pattern, from the mixed-sign start
    pre = small_prepared
    cfg, lut = _mixed_sign_start(small_scenario, small_lut)
    result = run_closed_loop(cfg, lut=lut, prepared=pre)
    export_records(result, tmp_path / "run")
    fields = load_run(tmp_path / "run")["fields"]
    assert sorted(fields) == list(range(cfg.loop.iterations))
    w0 = transversal_weights(cfg.psf, pre.beam, lut.n_t, lut.pitch, [0.0])[0]
    signs = np.sign(w0 @ result.records[1].extras["pattern"].bits)
    assert -1.0 in signs and 1.0 in signs
    for r in result.records:
        e = propagate_full(r.extras["pattern"], pre.beam, cfg.psf, pre.grid)
        tau = inject_disturbances(cfg.disturbances, r.n).tau(pre.grid.samples)
        want = potential_from_field(e, cfg.control.alpha_v).values * tau**2
        got = fields[r.n]["v_opt"]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    assert np.min(tau) < 0.75


def test_a_warm_start_past_an_excited_state_converges_without_a_cold_retry(
    monkeypatch, caplog, small_scenario, small_prepared, small_lut
):
    # from the mixed-sign start, iteration 1's solve, warm from iteration
    # 0's state, passes near a stationary state that is not the ground
    # state (mu 11.0183 against 11.0128 rad/ms).  The Anderson
    # mixing converges onto it; the restart on a growing residual lets the
    # flow leave it, and without the restart the warm start stalls for
    # 60,000 steps and is retried cold.  The plain gradient flow stops
    # early on its way (mu 11.0258 after 518 steps, 1.2e-3 high).  Which
    # stationary state the mixing reaches depends on rounding: the one at
    # 11.0183, or one 7e-7 above the ground state.  Both change sign across
    # the 1 % of the cloud that sits in the pocket at the box's edges, so
    # the solve relaxes again from the state's modulus until it is nodeless
    cfg, lut = _mixed_sign_start(small_scenario, small_lut)
    solves = []
    solve = harness.ground_state

    def counted(v, *args, **kwargs):
        solves.append((v, kwargs.get("initial")))
        return solve(v, *args, **kwargs)

    monkeypatch.setattr(harness, "ground_state", counted)
    with caplog.at_level(logging.WARNING, logger="potshape"):
        result = run_closed_loop(cfg, lut=lut, prepared=small_prepared)
    assert caplog.text == ""
    assert [initial is None for _, initial in solves] == [True, False]
    tight = solve(solves[1][0], cfg.condensate, dataclasses.replace(cfg.solver, tol=1e-15))
    assert result.records[1].mu == pytest.approx(tight.mu, rel=1e-5)


def test_loop_potential_is_the_plant_field_of_its_pattern(
    scenario, reference_lut, reference_prepared, reference_run
):
    # every record's optical potential equals the column response times its
    # own pattern under its own disturbances, also at n = 40, where the
    # pattern repeats and the dark spots switch on
    pre, lut = reference_prepared, reference_lut
    w0 = transversal_weights(scenario.psf, pre.beam, lut.n_t, lut.pitch, [0.0])[0]
    records = reference_run.records
    assert records[40].extras["pattern"].sha256() == records[39].extras["pattern"].sha256()
    assert inject_disturbances(scenario.disturbances, 40) != inject_disturbances(
        scenario.disturbances, 39
    )
    for r in records:
        cols = pre.beam.amplitude * (w0 @ r.extras["pattern"].bits)
        e_out = RealField1D(grid=pre.grid, values=pre.column_response.field(cols))
        dist = inject_disturbances(scenario.disturbances, r.n)
        v_opt = potential_from_field(e_out, scenario.control.alpha_v, disturbance=dist)
        assert np.array_equal(r.extras["v_opt"], v_opt.values), r.n


def test_loop_computes_the_potential_only_when_pattern_or_spots_change(
    scenario, reference_lut, reference_prepared, reference_run, monkeypatch
):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return potential_from_field(*args, **kwargs)

    monkeypatch.setattr(harness, "potential_from_field", counted)
    run = run_closed_loop(scenario, lut=reference_lut, prepared=reference_prepared)
    records = run.records
    changed = [
        n == 0
        or records[n].extras["pattern"].sha256() != records[n - 1].extras["pattern"].sha256()
        or inject_disturbances(scenario.disturbances, n)
        != inject_disturbances(scenario.disturbances, n - 1)
        for n in range(len(records))
    ]
    assert len(calls) == sum(changed) < len(records) // 2
    assert [r.error_norm for r in records] == [r.error_norm for r in reference_run.records]


def test_loop_maps_and_transforms_only_what_changed(
    scenario, reference_lut, reference_prepared, reference_run, monkeypatch
):
    # a shot is computed (its pattern's columns summed, its potential
    # built and its ground state solved) once per iteration whose table
    # indices or dark spots differ from the last computed shot's, and the
    # learning kernel is transformed once per computed update; the records
    # are those of the reference run
    lut = reference_lut
    calls, kernel_transforms = [], []
    rfft = scipy.fft.rfft

    def counted(name):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    def counted_rfft(x, *args, **kwargs):
        kernel_transforms.append(x is reference_prepared.kernel.kernel.values)
        return rfft(x, *args, **kwargs)

    for name in ("column_sums", "potential_from_field", "ground_state", "level_update"):
        counted(name)
    monkeypatch.setattr(scipy.fft, "rfft", counted_rfft)
    records = run_closed_loop(scenario, lut=lut, prepared=reference_prepared).records
    monkeypatch.undo()
    keys = [
        (lut.nearest_index(r.nu).tobytes(), inject_disturbances(scenario.disturbances, r.n))
        for r in records
    ]
    changed = [n == 0 or keys[n] != keys[n - 1] for n in range(len(records))]
    # the dark spots switch on at n = 40 with the indices held: that shot
    # sums its pattern's columns again, though the pattern repeats
    assert changed[40] and keys[40][0] == keys[39][0]
    for name in ("column_sums", "potential_from_field", "ground_state"):
        assert calls.count(name) == sum(changed) == 20, name
    # a noise-free held shot repeats its predecessor's update
    assert sum(kernel_transforms) == calls.count("level_update") == 20
    for r, want in zip(records, reference_run.records):
        assert r.error_norm == want.error_norm and r.mu == want.mu
        assert r.extras["pattern"].sha256() == want.extras["pattern"].sha256()


def test_shoot_replays_every_computed_shot(
    scenario, reference_lut, reference_prepared, reference_run
):
    # the shot function, fed each computed shot's table indices and dark
    # spots and warm started from the previous computed shot's state,
    # reproduces the reference run's records bit for bit
    pre, lut = reference_prepared, reference_lut
    records = reference_run.records
    held = _held_shots(records, scenario)
    phi = None
    for r in records:
        if held[r.n]:
            continue
        dist = inject_disturbances(scenario.disturbances, r.n)
        pattern, v_opt, v, gs = harness.shoot(
            scenario, pre, lut, r.n, lut.nearest_index(r.nu), dist, initial=phi
        )
        phi = gs.phi
        assert pattern.sha256() == r.extras["pattern"].sha256(), r.n
        assert v_opt.values.tobytes() == r.extras["v_opt"].tobytes(), r.n
        assert v.values.tobytes() == r.extras["v"].tobytes(), r.n
        assert gs.density.values.tobytes() == r.extras["rho"].tobytes(), r.n
        assert float(gs.mu).hex() == r.mu.hex() and gs.n_steps == r.extras["solver_steps"], r.n
    assert sum(not h for h in held) == 20


def test_shot_pattern_is_the_mapped_levels_of_its_indices(
    small_scenario, small_prepared, small_lut, monkeypatch
):
    # a shot builds its pattern from the table rows of its indices; that
    # is bit for bit map_virtual_input of those indices' levels, the end
    # levels 0 and n_nu - 1 included.  The solve is stubbed: only the
    # pattern is compared
    pre, lut = small_prepared, small_lut
    n_cols = pre.col_grid.n_points
    monkeypatch.setattr(harness, "ground_state", lambda *a, **k: SimpleNamespace(converged=True))
    rng = np.random.default_rng(45)
    draws = [rng.integers(0, lut.n_nu, n_cols) for _ in range(6)]
    draws[0][:2] = 0, lut.n_nu - 1
    draws += [np.zeros(n_cols, dtype=int), np.full(n_cols, lut.n_nu - 1)]
    for index in draws:
        pattern = harness.shoot(small_scenario, pre, lut, 0, index, None)[0]
        mapped = map_virtual_input(RealField1D(grid=pre.col_grid, values=lut.nu_levels[index]), lut)
        assert np.array_equal(pattern.bits, mapped.bits) and pattern.sha256() == mapped.sha256()


def test_record_zero_applies_the_table_level_of_the_initial_input(
    tmp_path, small_scenario, small_prepared, small_lut
):
    # 0.53 is no level of an 11-level table: the loop applies its nearest
    # level, 0.5, and records and exports that, so the columns, fields and
    # pattern of iteration 0 describe one input
    cfg = dataclasses.replace(
        small_scenario,
        loop=dataclasses.replace(small_scenario.loop, nu_initial=0.53, export_iterations=(0,)),
    )
    result = run_closed_loop(cfg, lut=small_lut, prepared=small_prepared)
    assert np.all(result.records[0].nu == 0.5)
    export_records(result, tmp_path)
    pattern = DmdPattern(bits=_read_pbm(tmp_path / "pattern_0000.pbm"))
    columns = np.loadtxt(tmp_path / "columns_0000.csv", delimiter=",", skiprows=1)
    fields = load_run(tmp_path)["fields"][0]
    assert np.array_equal(invert_pattern(pattern, small_lut).values, columns[:, 1])
    assert np.all(fields["nu"] == 0.5)


def test_tables_and_records_compare_by_identity(tmp_path, small_lut):
    # both hold arrays: two built alike are unequal without raising, and
    # each hashes
    save_lut(small_lut, tmp_path / "table.json")
    a, b = (load_lut(tmp_path / "table.json") for _ in range(2))
    assert a != b and a == a
    records = [IterationRecord(0, np.zeros(3), np.zeros(4), 0.1, 0, 1.0) for _ in range(2)]
    assert records[0] != records[1] and records[0] == records[0]
    assert len({hash(a), hash(b), *map(hash, records)}) == 4


def _read_pbm(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "P1"
    n_l, n_t = map(int, lines[1].split())
    bits = np.array([[int(c) for c in row.split()] for row in lines[2:]])
    assert bits.shape == (n_t, n_l)
    return bits


def test_export_pbm_layout(tmp_path, reference_run):
    out = tmp_path / "run"
    export_records(reference_run, out)
    bits = _read_pbm(out / "pattern_0000.pbm")
    assert np.array_equal(bits, reference_run.records[0].extras["pattern"].bits)


def _cellwise_write_rows(path, header, columns):
    """The per-cell CSV writer the vectorised one replaced."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(
                ",".join(
                    str(c) if isinstance(c, (int, np.integer)) else "%.17g" % c for c in row
                )
                + "\n"
            )


def _cellwise_write_pbm(path, pattern):
    """The per-bit bitmap writer the vectorised one replaced."""
    with open(path, "w") as fh:
        fh.write(f"P1\n{pattern.n_l} {pattern.n_t}\n")
        for row in pattern.bits:
            fh.write(" ".join(str(int(b)) for b in row) + "\n")


def test_export_writers_match_the_cellwise_writers(tmp_path):
    floats = np.array(
        [0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-310, 1e300, -1.0 / 3.0, 2.0**60]
    )
    n = len(floats)
    # every column is a numeric array, as the export passes them
    columns = (
        np.array(range(-3, n - 3)),  # from Python ints
        np.arange(n, dtype=np.int64) * 10**17,  # numpy ints, wider than %.17g
        np.arange(n, dtype=np.int32),
        np.array([200, 0, 255] * 4, dtype=np.uint8)[:n],
        floats,
        np.array(list(floats)),  # from Python floats
        np.arange(n) % 3 == 0,  # booleans print through %.17g
    )
    header = tuple(f"c{k}" for k in range(len(columns)))
    _write_rows(tmp_path / "new.csv", header, columns)
    _cellwise_write_rows(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # ragged columns stop at the shortest, as zip does
    _write_rows(tmp_path / "new.csv", ("a", "b"), (floats, np.array([1, 2, 3])))
    _cellwise_write_rows(tmp_path / "old.csv", ("a", "b"), (floats, np.array([1, 2, 3])))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    bits = np.random.default_rng(3).integers(0, 2, size=(6, 9))
    bits[1] = 0
    bits[4] = 1
    for b in (bits, bits[:, :1], np.zeros((3, 0), dtype=np.uint8)):
        pattern = DmdPattern(bits=b)
        _write_pbm(tmp_path / "new.pbm", pattern)
        _cellwise_write_pbm(tmp_path / "old.pbm", pattern)
        assert (tmp_path / "new.pbm").read_bytes() == (tmp_path / "old.pbm").read_bytes()


def _export_iterations(result, exp):
    loop = dataclasses.replace(result.config.loop, export_iterations=tuple(exp))
    return dataclasses.replace(result, config=dataclasses.replace(result.config, loop=loop))


def _assert_export_matches_the_cellwise_writers(result, out):
    """Export ``result`` and compare every CSV and bitmap, byte for byte,
    with the files the cellwise writers make of the same records."""
    export_records(result, out / "new")
    old = out / "old"
    old.mkdir()
    records = result.records
    _cellwise_write_rows(
        old / "error_norms.csv",
        ("n", "error_norm", "mu", "clamp_count"),
        (
            np.array([r.n for r in records]),
            np.array([r.error_norm for r in records]),
            np.array([r.mu for r in records]),
            np.array([r.clamp_count for r in records]),
        ),
    )
    z = result.prepared.grid.samples
    col_z = result.prepared.col_grid.samples
    for n in result.config.loop.export_iterations:
        r = records[n]
        x = r.extras
        _cellwise_write_rows(
            old / f"fields_{n:04d}.csv",
            ("z", "nu", "v", "v_opt", "rho", "e_rho"),
            (z, np.interp(z, col_z, r.nu), x["v"], x["v_opt"], x["rho"], r.e_rho),
        )
        _cellwise_write_rows(old / f"columns_{n:04d}.csv", ("z", "nu"), (col_z, r.nu))
        _cellwise_write_pbm(old / f"pattern_{n:04d}.pbm", x["pattern"])
    names = sorted(p.name for p in old.iterdir())
    assert sorted(p.name for p in (out / "new").iterdir()) == names + ["run.json"]
    for name in names:
        assert (out / "new" / name).read_bytes() == (old / name).read_bytes(), name


def test_export_of_every_reference_iteration_matches_the_cellwise_writers(
    tmp_path, reference_run
):
    # held shots come in long runs (n = 8-39 and 52-79): their files are
    # rewritten from the text of the exported shot before them
    _assert_export_matches_the_cellwise_writers(
        _export_iterations(reference_run, range(80)), tmp_path
    )


def test_noisy_export_reuses_nothing_of_a_held_shot(
    tmp_path, small_scenario, small_prepared, small_lut
):
    cfg = dataclasses.replace(
        small_scenario,
        loop=dataclasses.replace(small_scenario.loop, iterations=10, export_iterations=None),
        measurement=MeasurementConfig(noise_std=1e-4),
    )
    result = run_closed_loop(cfg, lut=small_lut, prepared=small_prepared)
    records = result.records
    held = [n for n in range(1, 10) if records[n].extras["solver_steps"] == 0]
    assert held
    for n in held:
        # a held shot repeats its potentials but draws fresh noise
        assert np.array_equal(records[n].extras["v"], records[n - 1].extras["v"])
        assert not np.array_equal(records[n].extras["rho"], records[n - 1].extras["rho"])
        assert not np.array_equal(records[n].e_rho, records[n - 1].e_rho)
    _assert_export_matches_the_cellwise_writers(_export_iterations(result, range(10)), tmp_path)


def test_export_tells_a_negative_zero_from_zero(tmp_path, reference_run):
    # -0.0 == 0.0, yet %.17g prints "-0" and "0": a record differing from
    # its predecessor only by the sign of a zero has files of its own
    r = reference_run.records[0]
    pair = []
    for n, zero in enumerate((0.0, -0.0)):
        e_rho = r.e_rho.copy()
        e_rho[0] = zero
        rho = r.extras["rho"].copy()
        rho[-1] = zero
        pair.append(dataclasses.replace(r, n=n, e_rho=e_rho, extras={**r.extras, "rho": rho}))
    cfg = reference_run.config
    loop = dataclasses.replace(cfg.loop, iterations=2, export_iterations=(0, 1))
    result = dataclasses.replace(
        reference_run, config=dataclasses.replace(cfg, loop=loop), records=tuple(pair)
    )
    _assert_export_matches_the_cellwise_writers(result, tmp_path)
    fields = [(tmp_path / "new" / f"fields_{n:04d}.csv").read_text() for n in (0, 1)]
    assert fields[0] != fields[1]
    assert fields[1].splitlines()[1].endswith(",-0")


def test_export_formats_each_distinct_column_once(tmp_path, monkeypatch, reference_run):
    # every numeric column reaches the format through _column; a list it
    # receives holds cells formatted before
    formatted = []
    column = harness._column

    def spy(values):
        if not isinstance(values, list):
            formatted.append(values.tobytes())
        return column(values)

    monkeypatch.setattr(harness, "_column", spy)
    export_records(reference_run, tmp_path / "run")
    records = reference_run.records
    z = reference_run.prepared.grid.samples
    col_z = reference_run.prepared.col_grid.samples
    exp = harness._default_export_iterations(len(records))
    want = [z.tobytes(), col_z.tobytes()]
    for col in (
        [r.n for r in records],
        [r.error_norm for r in records],
        [r.mu for r in records],
        [r.clamp_count for r in records],
    ):
        want.append(np.array(col).tobytes())
    shots = set()
    for n in exp:
        r = records[n]
        x = r.extras
        shot = tuple(a.tobytes() for a in (r.nu, x["v"], x["v_opt"], x["rho"], r.e_rho))
        if shot not in shots:
            shots.add(shot)
            want.append(np.interp(z, col_z, r.nu).tobytes())
            want.extend(shot)
    # of the 11 exported iterations 79 repeats the held shot 60: 4 norm
    # columns, the grid and the column positions, and 6 columns for each
    # of 10 distinct shots, where formatting every column of every file
    # took 4 + 11 * 8 = 92
    assert len(exp) == 11 and len(shots) == 10 and len(want) == 66
    assert sorted(formatted) == sorted(want)


def test_export_empty_run_writes_headers(tmp_path, small_scenario, small_prepared, small_lut):
    cfg = dataclasses.replace(
        small_scenario,
        loop=dataclasses.replace(small_scenario.loop, export_iterations=None),
    )
    empty = RunResult(config=cfg, prepared=small_prepared, lut=small_lut, records=())
    out = tmp_path / "empty"
    export_records(empty, out)
    assert (out / "error_norms.csv").read_text() == "n,error_norm,mu,clamp_count\n"
    data = load_run(out)
    assert data["fields"] == {}
    assert data["meta"]["derived"]["lut_sha256"] == lut_sha256(small_lut)
    with pytest.raises(ConfigError, match="error_norms.csv: holds no iterations"):
        report(out)


def test_cli_report_refuses_an_export_without_fields(
    tmp_path, small_scenario, small_prepared, small_lut, capsys
):
    # a run that exports no field iteration leaves no norm to recompute,
    # so "norms verified" would report a check that never ran
    cfg = dataclasses.replace(
        small_scenario, loop=dataclasses.replace(small_scenario.loop, export_iterations=())
    )
    out = tmp_path / "run"
    export_records(run_closed_loop(cfg, lut=small_lut, prepared=small_prepared), out)
    assert load_run(out)["fields"] == {}
    capsys.readouterr()
    assert cli.main(["report", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert "norms verified" not in captured.out
    assert captured.err.startswith(
        f"configuration error: {out / 'run.json'}: exports no field iteration"
    )


def test_export_rejects_out_of_range_iteration(
    tmp_path, small_scenario, small_prepared, small_lut
):
    # a run that ended early holds fewer records than its export list names
    result = run_closed_loop(small_scenario, lut=small_lut, prepared=small_prepared)
    bad = dataclasses.replace(result, records=result.records[:1])
    with pytest.raises(ConfigError, match="export iteration 1 outside the run"):
        export_records(bad, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


def test_load_run_rejects_foreign_directories(tmp_path):
    with pytest.raises(OSError):
        load_run(tmp_path / "missing")
    d = tmp_path / "foreign"
    d.mkdir()
    (d / "run.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(ConfigError):
        load_run(d)


def _small(length, n_points, n_rows, n_columns, n_nu, population, generations, iterations, noise):
    # a small scenario without disturbances; 5,000 steps bound each solve
    return ScenarioConfig(
        grid=GridSpec(length=length, n_points=n_points),
        dmd=DmdSpec(n_rows=n_rows, n_columns=n_columns),
        lut=LutSpec(n_nu=n_nu, population=population, generations=generations),
        loop=LoopSpec(iterations=iterations),
        measurement=MeasurementConfig(noise_std=noise),
        solver=SolverConfig(max_steps=5_000),
        disturbances=(),
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    cfg=st.builds(
        _small,
        st.floats(20.0, 800.0),
        st.integers(3, 256),
        st.integers(20, 200),
        st.integers(2, 40),
        st.integers(2, 6),
        st.integers(4, 10),
        st.integers(2, 5),
        st.integers(1, 3),
        st.sampled_from([0.0, 1e-3, 1.0]),
    )
)
@example(cfg=_small(250.0, 256, 200, 40, 6, 10, 5, 3, 1e-3))
def test_a_small_scenario_runs_and_checks_or_is_refused_by_name(cfg):
    # a run either refuses with a message, or exports records that report
    # ok and whose every v_opt is the pixel sum of its exported pattern;
    # the 200-row example runs through, so the sum takes a pattern wider
    # than g_y's window.  The 101 examples take about 1.5 s on a 2-core host.
    # The tolerance is 1e-9 of the calibrated all-on potential peak,
    # headroom * v_max, not of the pattern's own peak on the grid: a grid
    # can miss the light (4 points over 95 um sample nothing within 15 um
    # of 2 columns), and there the band's erf differences round to 0 or
    # keep a few digits where the sum's Gaussians are below 1e-18 of
    # that peak, while the two still agree to 1e-27 of it
    try:
        result = run_closed_loop(cfg)
    except (ValueError, ConvergenceError) as exc:
        assert str(exc)
        return
    with tempfile.TemporaryDirectory() as out:
        export_records(result, out)
        assert report(out)["ok"]
        fields = load_run(out)["fields"]
        scale = cfg.control.headroom * cfg.desired.v_max
        for n, cols in fields.items():
            bits = _read_pbm(Path(out) / f"pattern_{n:04d}.pbm")
            pattern = DmdPattern(bits=bits, pixel_pitch=cfg.dmd.pixel_pitch)
            e = propagate_full(pattern, result.prepared.beam, cfg.psf, result.prepared.grid)
            want = potential_from_field(e, cfg.control.alpha_v).values
            assert np.max(np.abs(cols["v_opt"] - want)) <= 1e-9 * scale, n


# ------------------------------------------------------------------- CLI


def _write_small_config(path, small_scenario):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(small_scenario), fh)


def test_cli_run_and_report_chain(tmp_path, small_scenario):
    cfg_path = tmp_path / "scenario.json"
    _write_small_config(cfg_path, small_scenario)
    lut_path = tmp_path / "table.json"
    assert cli.main(["build-lut", "--config", str(cfg_path), "--out", str(lut_path)]) == 0
    out = tmp_path / "run"
    assert (
        cli.main(
            ["run", "--config", str(cfg_path), "--lut", str(lut_path), "--out", str(out)]
        )
        == 0
    )
    assert cli.main(["report", "--in", str(out)]) == 0


@pytest.mark.parametrize(
    "dmd, built",
    [
        (DmdSpec(n_rows=40, n_columns=240), "40 rows at pitch 1.0"),
        (DmdSpec(n_rows=50, n_columns=240, pixel_pitch=1.25), "50 rows at pitch 1.25"),
    ],
    ids=["rows", "pitch"],
)
def test_table_of_another_mirror_geometry_is_refused(
    monkeypatch, capsys, tmp_path, small_scenario, small_lut, dmd, built
):
    # small_lut was built for 50 rows at pitch 1.0; a scenario with
    # another mirror array is refused before it is prepared
    cfg = dataclasses.replace(small_scenario, dmd=dmd)
    prepared = []
    monkeypatch.setattr(harness, "prepare", prepared.append)
    message = f"built for 50 rows at pitch 1.0, the scenario's mirror array has {built}"
    with pytest.raises(ConfigError, match=message):
        run_closed_loop(cfg, lut=small_lut)
    assert prepared == []
    cfg_path, lut_path, out = tmp_path / "scenario.json", tmp_path / "table.json", tmp_path / "run"
    _write_small_config(cfg_path, cfg)
    save_lut(small_lut, lut_path)
    argv = ["run", "--config", str(cfg_path), "--lut", str(lut_path), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"configuration error: look-up table was {message}\n"
    assert not out.exists()


def test_table_of_another_lut_section_is_refused(
    monkeypatch, capsys, tmp_path, small_scenario, small_lut
):
    # small_lut was built with 200 generations; a scenario whose table
    # section asks for 150 is refused before it is prepared, or run.json
    # would record a section the table was not built with
    lut = dataclasses.replace(small_scenario.lut, generations=150)
    cfg = dataclasses.replace(small_scenario, lut=lut)
    prepared = []
    monkeypatch.setattr(harness, "prepare", prepared.append)
    message = f"built for {small_lut.spec}, the scenario's lut section is {lut}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_closed_loop(cfg, lut=small_lut)
    assert prepared == []
    cfg_path, lut_path, out = tmp_path / "scenario.json", tmp_path / "table.json", tmp_path / "run"
    _write_small_config(cfg_path, cfg)
    save_lut(small_lut, lut_path)
    argv = ["run", "--config", str(cfg_path), "--lut", str(lut_path), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"configuration error: look-up table was {message}\n"
    assert not out.exists()


def _one_iteration(small_scenario, **sections):
    loop = dataclasses.replace(small_scenario.loop, iterations=1, export_iterations=None)
    return dataclasses.replace(small_scenario, loop=loop, **sections)


def test_table_for_other_optics_warns_and_runs(caplog, small_scenario, small_lut):
    # the mirror geometry and table section match, so a table built for
    # another transversal psf or beam width only warns
    caplog.set_level(logging.WARNING, logger="potshape.harness")
    assert len(run_closed_loop(_one_iteration(small_scenario), lut=small_lut).records) == 1
    assert "different optics" not in caplog.text
    psf, beam = small_scenario.psf, small_scenario.beam
    for other in (
        {"psf": dataclasses.replace(psf, w_y=9.0)},
        {"psf": dataclasses.replace(psf, gy_zero_cut=5)},
        {"beam": dataclasses.replace(beam, sigma_y=15.0)},
    ):
        caplog.clear()
        cfg = _one_iteration(small_scenario, **other)
        assert len(run_closed_loop(cfg, lut=small_lut).records) == 1
        assert caplog.text.count("look-up table was built for different optics") == 1


def test_table_is_reused_across_longitudinal_optics(caplog, small_scenario, small_lut):
    # the longitudinal widths and the headroom do not change the table's
    # bits, so a table built without them is reused without a word
    caplog.set_level(logging.WARNING, logger="potshape.harness")
    cfg = _one_iteration(
        small_scenario,
        psf=dataclasses.replace(small_scenario.psf, sigma_z=3.0),
        beam=dataclasses.replace(small_scenario.beam, sigma_z=200.0),
        control=dataclasses.replace(small_scenario.control, headroom=1.5),
    )
    assert len(run_closed_loop(cfg, lut=small_lut).records) == 1
    assert caplog.text == ""


def test_a_disturbance_after_the_last_iteration_is_logged_once(
    tmp_path, caplog, small_scenario, small_prepared, small_lut
):
    # a shortened run drops a scheduled event on purpose, so it is told at
    # INFO, once per event, and the run and its export are those without it
    spot = DarkSpot(center=5.0, width=3.0, depth=0.3)
    events = tuple(DisturbanceEvent(iteration=k, spots=(spot,)) for k in (1, 2, 7))
    late = dataclasses.replace(small_scenario, disturbances=events)
    early = dataclasses.replace(small_scenario, disturbances=events[:1])
    caplog.set_level(logging.INFO, logger="potshape.harness")
    got = run_closed_loop(late, lut=small_lut, prepared=small_prepared)
    notes = [rec for rec in caplog.records if "not applied" in rec.getMessage()]
    assert [(rec.levelno, rec.getMessage()) for rec in notes] == [
        (logging.INFO, f"disturbance at iteration {k} is not applied: the run has 2 iterations")
        for k in (2, 7)
    ]
    assert not [rec for rec in caplog.records if rec.levelno >= logging.WARNING]
    want = run_closed_loop(early, lut=small_lut, prepared=small_prepared)
    export_records(got, tmp_path / "late")
    export_records(dataclasses.replace(want, config=late), tmp_path / "early")
    for p in (tmp_path / "early").iterdir():
        assert (tmp_path / "late" / p.name).read_bytes() == p.read_bytes(), p.name


# reals spelled as integers, and counts spelled as floats
_OTHER_SPELLINGS = [
    ("lut", "dy", 4),
    ("dmd", "pixel_pitch", 1),
    ("psf", "w_y", 8),
    ("dmd", "n_rows", 50.0),
    ("lut", "n_nu", 11.0),
]


@pytest.mark.parametrize(
    "section, key, value", _OTHER_SPELLINGS, ids=[f"{s}.{k}" for s, k, _ in _OTHER_SPELLINGS]
)
def test_a_real_spelled_as_an_integer_writes_the_files_of_its_float(
    tmp_path, small_scenario, small_lut, section, key, value
):
    # 4 and 4.0 are one value: one run.json config, one digest, one table file
    data = scenario_to_dict(small_scenario)
    assert data[section][key] == value and type(data[section][key]) is not type(value)
    data[section][key] = value
    cfg = scenario_from_dict(data)
    assert json.dumps(scenario_to_dict(cfg)) == json.dumps(scenario_to_dict(small_scenario))
    lut = harness.build_scenario_lut(cfg)
    assert lut_sha256(lut) == lut_sha256(small_lut)
    save_lut(lut, tmp_path / "integer.json")
    save_lut(small_lut, tmp_path / "float.json")
    assert (tmp_path / "integer.json").read_bytes() == (tmp_path / "float.json").read_bytes()


@pytest.mark.parametrize("real", [np.float32, Fraction], ids=lambda t: t.__name__)
def test_reals_of_other_number_types_run_export_and_save_their_table(
    tmp_path, small_scenario, small_lut, real
):
    cfg = dataclasses.replace(
        small_scenario,
        grid=GridSpec(length=real(200), n_points=1024),
        psf=PsfModel(w_y=real(8)),
        dmd=DmdSpec(n_rows=50, n_columns=240, pixel_pitch=real(1)),
        lut=LutSpec(n_nu=11, dy=real(4)),
    )
    for value in (cfg.grid.length, cfg.psf.w_y, cfg.dmd.pixel_pitch, cfg.lut.dy):
        assert type(value) is float
    assert cfg == small_scenario
    lut = harness.build_scenario_lut(cfg)
    save_lut(lut, tmp_path / "table.json")
    assert lut_sha256(lut) == lut_sha256(small_lut)
    export_records(run_closed_loop(cfg, lut=lut), tmp_path / "run")
    meta = json.loads((tmp_path / "run" / "run.json").read_text())
    assert meta["config"] == scenario_to_dict(small_scenario)


def _cut_row(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = ",".join(lines[2].split(",")[:3]) + "\n"
    path.write_text("".join(lines))


def _drop_export_iterations(path):
    meta = json.loads(path.read_text())
    del meta["export_iterations"]
    path.write_text(json.dumps(meta))


def _drop_norm_row(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[3:]))  # the row of n = 1


def _set_cell(column, value):
    """Damage that writes ``value`` into ``column`` of the second data row."""

    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[2].rstrip("\n").split(",")
        cells[lines[0].rstrip("\n").split(",").index(column)] = value
        lines[2] = ",".join(cells) + "\n"
        path.write_text("".join(lines))

    return damage


def _set_header(text):
    """Damage that replaces the header line with ``text``."""

    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = text + "\n"
        path.write_text("".join(lines))

    return damage


@pytest.mark.parametrize(
    "name, damage, message",
    [
        ("fields_0001.csv", _cut_row, "fields_0001.csv: line 3: 3 cells for 6 columns"),
        ("run.json", _drop_export_iterations, "run.json: 'export_iterations' is missing"),
        ("error_norms.csv", _drop_norm_row, "error_norms.csv: no row for exported iteration 1"),
        ("fields_0001.csv", _set_cell("e_rho", "nan"), "line 3: non-finite value 'nan'"),
        ("fields_0001.csv", _set_cell("e_rho", "inf"), "line 3: non-finite value 'inf'"),
        ("error_norms.csv", _set_cell("error_norm", "nan"), "line 3: non-finite value 'nan'"),
        ("error_norms.csv", _set_cell("error_norm", "-inf"), "line 3: non-finite value '-inf'"),
        # float() would read these as 10.0 and 12.0
        ("fields_0001.csv", _set_cell("e_rho", "1_0"), "line 3: cell '1_0' is not a plain decimal"),
        (
            "error_norms.csv",
            _set_cell("error_norm", "\u0661\u0662"),
            "line 3: cell '\u0661\u0662' is not a plain decimal",
        ),
        (
            "error_norms.csv",
            _set_header("n,error_norm,error_norm,clamp_count"),
            "error_norms.csv: header names column 'error_norm' twice",
        ),
    ],
    ids=[
        "short-row",
        "no-export-list",
        "missing-norm",
        "nan-field",
        "inf-field",
        "nan-norm",
        "inf-norm",
        "underscore-field",
        "arabic-digits-norm",
        "repeated-column",
    ],
)
def test_cli_report_names_the_damaged_file(
    tmp_path, small_scenario, small_prepared, small_lut, capsys, name, damage, message
):
    result = run_closed_loop(small_scenario, lut=small_lut, prepared=small_prepared)
    good = tmp_path / "good"
    export_records(result, good)
    assert cli.main(["report", "--in", str(good)]) == 0
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    damage(bad / name)
    capsys.readouterr()
    assert cli.main(["report", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {bad / name}")
    assert message in err


def _per_row_csv(header, columns):
    """The per-row %.17g writer the CLI used before it shared the export's."""
    rows = (",".join("%.17g" % c for c in row) + "\n" for row in zip(*columns))
    return (header + "\n" + "".join(rows)).encode()


def test_cli_design_kernel(tmp_path, small_scenario, small_prepared, capsys):
    cfg_path = tmp_path / "scenario.json"
    _write_small_config(cfg_path, small_scenario)
    out = tmp_path / "kernel.csv"
    assert cli.main(["design-kernel", "--config", str(cfg_path), "--out", str(out)]) == 0
    k = small_prepared.kernel.kernel
    assert out.read_bytes() == _per_row_csv("z,kernel", (k.grid.samples, k.values))
    assert "alpha_bar" in capsys.readouterr().out


def test_cli_groundstate_from_csv(tmp_path):
    grid = SpatialGrid1D(40.0, 257)
    pot_path = tmp_path / "potential.csv"
    with open(pot_path, "w") as fh:
        fh.write("z,v\n")
        for z in grid.samples:
            fh.write(f"{float(z)!r},{float(0.05 * z * z)!r}\n")
    out = tmp_path / "state.csv"
    assert cli.main(["groundstate", "--potential", str(pot_path), "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    # %.17g round-trips a double, so reformatting the parsed rows must
    # reproduce the file byte for byte
    assert out.read_bytes() == _per_row_csv("z,v,rho", data.T)
    rho = data[:, 2]
    assert abs(np.trapezoid(rho, data[:, 0]) - 1.0) < 1e-8
    bad = tmp_path / "bad.csv"
    bad.write_text("z\n1.0\n2.0\n")
    assert cli.main(["groundstate", "--potential", str(bad), "--out", str(out)]) == 1


def test_cli_groundstate_refuses_without_numpy_warnings(tmp_path, capsys, recwarn):
    # a potential file with a header and no rows is a configuration error,
    # and a uniform 1e9 rad/ms potential a solver failure that names the
    # vanished state; numpy's own warnings do not reach the user
    out = str(tmp_path / "state.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("z,v\n")
    assert cli.main(["groundstate", "--potential", str(empty), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: {empty}: a grid needs two data rows or more, got 0\n"
    high = tmp_path / "high.csv"
    rows = "".join(f"{float(z)!r},1e9\n" for z in np.linspace(-20.0, 20.0, 129))
    high.write_text("z,v\n" + rows)
    assert cli.main(["groundstate", "--potential", str(high), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: wave function vanished") and "dtau = 0.05" in err
    assert len(recwarn) == 0


@pytest.mark.parametrize("command", ["groundstate", "run"])
def test_cli_names_the_keys_of_a_solve_that_stops_unconverged(tmp_path, capsys, command):
    # 16 points over 20 um at v_max 500: the desired state's solve stops on
    # a state that changes sign, after 42 steps, where neither a smaller
    # dtau nor more steps would help, so the message offers neither
    cfg = tmp_path / "scenario.json"
    scenario = {"grid": {"length": 20.0, "n_points": 16}, "desired": {"v_max": 500.0}}
    cfg.write_text(json.dumps(scenario))
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", str(cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and err.count("\n") == 1
    assert "solver.max_steps = 60000" in err and "grid.n_points = 16" in err
    assert "dtau" not in err


def test_cli_groundstate_reads_its_potential_by_column_name(tmp_path, capsys):
    # without a header the first row is not taken for one, a header
    # naming other columns is not read by position, and of two v columns
    # neither is taken
    out = tmp_path / "state.csv"
    rows = "".join(f"{z!r},0.0\n" for z in np.linspace(-5.0, 5.0, 11))
    for name, head, fault in (
        ("bare", "", "lacks column 'z'"),
        ("other", "x,y\n", "lacks column 'z'"),
        ("no-v", "z,w\n", "lacks column 'v'"),
        ("twice", "z,v,v\n", "names column 'v' twice"),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(head + rows)
        assert cli.main(["groundstate", "--potential", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {path}: header {fault}\n"
        assert not out.exists()
    # a header that names both columns in another order, spaces included,
    # gives the state of the plain file
    z = [float(x) for x in np.linspace(-20.0, 20.0, 257)]
    plain, swapped = tmp_path / "plain.csv", tmp_path / "swapped.csv"
    plain.write_text("z,v\n" + "".join(f"{x!r},{0.05 * x * x!r}\n" for x in z))
    swapped.write_text("v , z\n" + "".join(f"{0.05 * x * x!r},{x!r}\n" for x in z))
    states = []
    for path in (plain, swapped):
        assert cli.main(["groundstate", "--potential", str(path), "--out", str(out)]) == 0
        states.append(out.read_bytes())
    assert states[0] == states[1]


def test_cli_groundstate_refuses_a_potential_of_one_sample(tmp_path, capsys, recwarn):
    # both columns are there, but one sample makes no grid
    one = tmp_path / "one.csv"
    one.write_text("z,v\n1.0,2.0\n")
    out = tmp_path / "state.csv"
    assert cli.main(["groundstate", "--potential", str(one), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: {one}: a grid needs two data rows or more, got 1\n"
    assert not out.exists() and len(recwarn) == 0


def test_cli_error_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"grid": {"len": 5}}))
    assert cli.main(["run", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 1
    missing_lut = tmp_path / "missing-table.json"
    assert (
        cli.main(["run", "--lut", str(missing_lut), "--out", str(tmp_path / "y")]) == 3
    )
    assert cli.main(["report", "--in", str(tmp_path / "nothing")]) == 3


def test_cli_refuses_export_iterations_outside_the_run(tmp_path, small_scenario, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"loop": {"iterations": 3, "export_iterations": [1, 7]}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(bad_cfg), "--out", str(out)]) == 1
    assert "bad section 'loop': export iteration 7 outside" in capsys.readouterr().err
    # the small scenario exports iterations 0 and 1, so one iteration is too few
    cfg_path = tmp_path / "scenario.json"
    _write_small_config(cfg_path, small_scenario)
    argv = ["run", "--config", str(cfg_path), "--iterations", "1", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("invalid input: export iteration 1 outside")
    assert not out.exists()


def test_cli_reports_a_malformed_table(tmp_path, small_lut, capsys):
    d = _lut_to_dict(small_lut)
    del d["n_t"]
    bad_lut = tmp_path / "table.json"
    bad_lut.write_text(json.dumps(d))
    assert cli.main(["run", "--lut", str(bad_lut), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "invalid input: table header lacks 'n_t'\n"
    d = _lut_to_dict(small_lut)
    d["entries"][1]["nu"] = None
    bad_lut.write_text(json.dumps(d))
    assert cli.main(["run", "--lut", str(bad_lut), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "invalid input: entry 1 has an invalid 'nu': None\n"
    d = _lut_to_dict(small_lut)
    d["seed"] = d["seed"] + 0.5
    bad_lut.write_text(json.dumps(d))
    assert cli.main(["run", "--lut", str(bad_lut), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == f"invalid input: table header has an invalid 'seed': {d['seed']!r}\n"
    # a boolean seed is refused as the table loads, before any output
    d["seed"] = True
    bad_lut.write_text(json.dumps(d))
    assert cli.main(["run", "--lut", str(bad_lut), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "invalid input: table header has an invalid 'seed': True\n"
    assert not (tmp_path / "x").exists()
