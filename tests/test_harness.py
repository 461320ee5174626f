"""Scenario plumbing: desired potential, config files, loop wiring,
exports and the command line."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from potshape import harness
from potshape.condensate import ConvergenceError
from potshape.core import RealField1D, SpatialGrid1D
from potshape.harness import (
    ConfigError,
    DesiredPotentialSpec,
    DisturbanceEvent,
    IterationRecord,
    RunResult,
    ScenarioConfig,
    _write_pbm,
    _write_rows,
    desired_potential,
    error_norm,
    export_records,
    inject_disturbances,
    input_activity,
    level_update,
    load_run,
    load_scenario,
    lut_sha256,
    report,
    run_closed_loop,
    scenario_from_dict,
    scenario_to_dict,
)
from potshape.ilc import VirtualInput, density_error, scaled_error, update
from potshape.inputmap import TransversalPattern, _lut_to_dict, map_virtual_input
from potshape.optics import (
    DarkSpot,
    DmdPattern,
    column_grid,
    potential_from_field,
    propagate_full,
    row_centers,
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


def test_disturbance_schedule_must_be_sorted():
    a = DisturbanceEvent(iteration=5, spots=(DarkSpot(0.0, 1.0, 0.1),))
    b = DisturbanceEvent(iteration=2, spots=(DarkSpot(1.0, 1.0, 0.1),))
    with pytest.raises(ConfigError, match="sorted"):
        ScenarioConfig(disturbances=(a, b))
    with pytest.raises(ConfigError):
        ScenarioConfig(disturbances=("not an event",))
    with pytest.raises(ValueError):
        DisturbanceEvent(iteration=-1, spots=())


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
    nu = VirtualInput(
        field=RealField1D(
            grid=pre.col_grid, values=rng.choice(small_lut.nu_levels, pre.col_grid.n_points)
        )
    )
    res = level_update(nu, e, pre, small_lut)
    assert res.clamp_count == 0
    assert np.array_equal(res.nu.values, nu.values)
    before = map_virtual_input(nu.field, small_lut)
    assert np.array_equal(map_virtual_input(res.nu.field, small_lut).bits, before.bits)


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


def _support_bump(prepared, peak_correction, lut):
    """Error bump on the gain's support whose law correction peaks at
    ``peak_correction`` table steps, and the input it acts on."""
    z = prepared.grid.samples
    z0 = z[prepared.gain.support][0]
    shape = RealField1D(grid=prepared.grid, values=np.exp(-((z - z0) ** 2) / 20.0))
    nu = VirtualInput(
        field=RealField1D(grid=prepared.col_grid, values=np.full(prepared.col_grid.n_points, 0.5))
    )
    unit = update(nu, scaled_error(shape, prepared.gain), prepared.kernel).correction
    scale = peak_correction / (lut.n_nu - 1) / np.max(np.abs(unit))
    return nu, RealField1D(grid=prepared.grid, values=scale * shape.values)


def test_level_update_holds_corrections_below_half_a_step(small_prepared, small_lut):
    nu, e = _support_bump(small_prepared, 0.4, small_lut)
    res = level_update(nu, e, small_prepared, small_lut)
    half = 0.5 / (small_lut.n_nu - 1)
    # the unquantised law would move the input, the held one does not
    assert 0.7 * half < np.max(np.abs(res.correction)) < half
    assert np.array_equal(res.nu.values, nu.values)
    before = map_virtual_input(nu.field, small_lut)
    after = map_virtual_input(res.nu.field, small_lut)
    assert np.array_equal(after.bits, before.bits)


def test_level_update_moves_onto_levels_and_lowers_the_predicted_error(
    small_prepared, small_lut
):
    pre = small_prepared
    nu, e = _support_bump(pre, 3.0, small_lut)
    res = level_update(nu, e, pre, small_lut)
    levels = [entry.nu for entry in small_lut.entries]
    assert np.all(np.isin(res.nu.values, levels))
    assert not np.array_equal(res.nu.values, nu.values)
    # the field change by the pixel sum of the applied and the held
    # pattern, through the linearised balance -alpha / (e_max p_z)
    fields = [
        propagate_full(map_virtual_input(v.field, small_lut), pre.beam, pre.config.psf, pre.grid)
        for v in (res.nu, nu)
    ]
    slope = -pre.gain.alpha.values / (pre.e_perp_max * pre.beam.pz(pre.grid.samples))
    de = slope * (fields[0].values - fields[1].values)
    assert error_norm(RealField1D(grid=pre.grid, values=e.values + de)) < error_norm(e)


def test_level_update_holds_a_move_the_table_cannot_deliver(small_prepared, small_lut):
    # every level achieves the same field, so no move changes the plant
    # and none can lower the predicted error, however far the law asks
    flat = dataclasses.replace(
        small_lut,
        entries=tuple(dataclasses.replace(entry, achieved=0.5) for entry in small_lut.entries),
    )
    nu, e = _support_bump(small_prepared, 3.0, flat)
    res = level_update(nu, e, small_prepared, flat)
    assert np.max(np.abs(res.correction)) > 2.0 / (flat.n_nu - 1)
    assert np.array_equal(res.nu.values, nu.values)


def test_activity_ratio_arithmetic():
    col_z = column_grid(10, 1.0)
    g = SpatialGrid1D(20.0, 41)
    rho = RealField1D(grid=g, values=np.where(np.abs(g.samples) <= 2.0, 1.0, 0.0))

    def rec(n, nu):
        return IterationRecord(
            n=n, nu=nu, e_rho=np.zeros(5), error_norm=0.0, clamp_count=0, mu=0.0
        )

    nu0 = np.full(10, 0.2)
    nu1 = nu0.copy()
    nu1[0] += 0.1  # z = -4.5, empty region
    nu1[5] += 0.2  # z = +0.5, occupied region
    out = input_activity([rec(0, nu0), rec(1, nu1)], rho, col_z)
    assert out["n_hidden"] == 6 and out["n_occupied"] == 4
    assert out["hidden_rate"] == pytest.approx(0.1 / 6.0, rel=1e-12)
    assert out["occupied_rate"] == pytest.approx(0.2 / 4.0, rel=1e-12)
    assert out["ratio"] == pytest.approx((0.1 / 6.0) / (0.2 / 4.0), rel=1e-12)
    assert out["iterations"] == (0, 1)
    # windowing picks only records with start <= n < stop
    out2 = input_activity(
        [rec(0, nu0), rec(1, nu1), rec(2, nu1), rec(3, nu0)], rho, col_z, start=1, stop=3
    )
    assert out2["hidden_rate"] == 0.0


def test_activity_ratio_validation():
    col_z = column_grid(10, 1.0)
    g = SpatialGrid1D(20.0, 41)
    rho = RealField1D(grid=g, values=np.where(np.abs(g.samples) <= 2.0, 1.0, 0.0))
    rec = IterationRecord(
        n=0, nu=np.zeros(10), e_rho=np.zeros(5), error_norm=0.0, clamp_count=0, mu=0.0
    )
    with pytest.raises(ValueError, match="two recorded iterations"):
        input_activity([rec], rho, col_z)
    flat = RealField1D(grid=g, values=np.ones(41))
    with pytest.raises(ValueError, match="both occupied and empty"):
        input_activity([rec, rec], flat, col_z)


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
        "transfer_sha256",
        "lut_sha256",
        "crossover_parameter_desired",
    ):
        assert key in derived
    # the CSV stores full precision: read-back equals the records exactly
    norms = data["norms"]["error_norm"]
    assert np.array_equal(norms, np.array([r.error_norm for r in reference_run.records]))
    assert np.array_equal(data["norms"]["n"], np.arange(80.0))


def test_exported_potential_matches_the_pixel_sum(
    tmp_path, small_scenario, small_prepared, small_lut
):
    # the loop's cached column response against the direct pixel sum of
    # every exported pattern.  The starting level is swapped for mirrors
    # only in the first negative sinc lobe, so iteration 1 mixes columns
    # of both signs; a dark spot is active from iteration 1.
    pre = small_prepared
    y = row_centers(small_lut.n_t, small_lut.pitch)
    lobe = (np.abs(y) > small_scenario.psf.w_y) & (np.abs(y) < 2.0 * small_scenario.psf.w_y)
    entries = list(small_lut.entries)
    k = int(small_lut.nearest_index(small_scenario.loop.nu_initial))
    entries[k] = dataclasses.replace(entries[k], pattern=TransversalPattern(bits=lobe))
    lut = dataclasses.replace(small_lut, entries=tuple(entries))
    spot = DarkSpot(center=5.0, width=3.0, depth=0.3)
    cfg = dataclasses.replace(
        small_scenario, disturbances=(DisturbanceEvent(iteration=1, spots=(spot,)),)
    )
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


def test_export_pbm_layout(tmp_path, reference_run):
    out = tmp_path / "run"
    export_records(reference_run, out)
    lines = (out / "pattern_0000.pbm").read_text().splitlines()
    assert lines[0] == "P1"
    n_l, n_t = map(int, lines[1].split())
    assert (n_t, n_l) == reference_run.records[0].extras["pattern"].bits.shape
    bits = np.array([[int(c) for c in row.split()] for row in lines[2:]])
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
    columns = (
        list(range(-3, n - 3)),  # Python ints
        np.arange(n, dtype=np.int64) * 10**17,  # numpy ints, wider than %.17g
        [np.int32(k) for k in range(n)],  # numpy int scalars in a list
        floats,
        list(floats),  # Python floats in a list
        [1, 2.5, np.int64(-7), 10**18, -0.0, np.uint8(200), 1e-300, 3, 4.0, True],
        np.arange(n) % 3 == 0,  # booleans print through %.17g
    )
    header = tuple(f"c{k}" for k in range(len(columns)))
    _write_rows(tmp_path / "new.csv", header, columns)
    _cellwise_write_rows(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # ragged columns stop at the shortest, as zip does
    _write_rows(tmp_path / "new.csv", ("a", "b"), (floats, [1, 2, 3]))
    _cellwise_write_rows(tmp_path / "old.csv", ("a", "b"), (floats, [1, 2, 3]))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    bits = np.random.default_rng(3).integers(0, 2, size=(6, 9))
    bits[1] = 0
    bits[4] = 1
    for b in (bits, bits[:, :1], np.zeros((3, 0), dtype=np.uint8)):
        pattern = DmdPattern(bits=b)
        _write_pbm(tmp_path / "new.pbm", pattern)
        _cellwise_write_pbm(tmp_path / "old.pbm", pattern)
        assert (tmp_path / "new.pbm").read_bytes() == (tmp_path / "old.pbm").read_bytes()


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


@pytest.mark.parametrize(
    "name, damage, message",
    [
        ("fields_0001.csv", _cut_row, "fields_0001.csv: line 3: 3 cells for 6 columns"),
        ("run.json", _drop_export_iterations, "run.json: 'export_iterations' is missing"),
        ("error_norms.csv", _drop_norm_row, "error_norms.csv: no row for exported iteration 1"),
    ],
    ids=["short-row", "no-export-list", "missing-norm"],
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
