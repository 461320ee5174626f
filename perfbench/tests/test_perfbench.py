"""Tests of the benchmark's own arithmetic, names, inputs and tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

import metrics
import speed
import tracing
import workloads
from potshape import condensate, harness, ilc
from potshape.core import RealField1D, SpatialGrid1D

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule --------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 48, 80, 500])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    xs = list(np.random.default_rng(n).permutation(n).astype(float))
    value, pct, beyond = metrics.tail(xs)
    assert beyond == sum(x > value for x in xs) == 10
    # the next order statistic up would leave fewer than ten beyond it
    assert sum(x > min(x for x in xs if x > value) for x in xs) < 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_80_samples_is_p87_5():
    value, pct, beyond = metrics.tail(range(80))
    assert (value, pct, beyond) == (69, 87.5, 10)


def test_tail_with_too_few_samples_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- rounds -----------------------------------------------------------------


def test_round_from_clock_readings_keeps_both_clocks():
    spans = [(0.0, 0.0), (1.0, 0.5), (3.0, 1.5), (3.5, 1.75)]  # two ops, then export
    rnd = workloads._round(spans, 2, [None], {}, 2)
    assert rnd.op_ms == pytest.approx([500.0, 1000.0])
    assert rnd.wall_s == pytest.approx(1.75)
    assert rnd.measured["op_ms"] == pytest.approx([1000.0, 2000.0])
    assert rnd.measured["wall_s"] == pytest.approx(3.5)


@pytest.mark.parametrize("cls", [workloads.Reference, workloads.GroundStateCold, workloads.LutBuild])
def test_round_count_follows_seconds_not_speed(cls):
    wl = cls()
    assert workloads.rounds(wl, 0.1) == 1
    assert workloads.rounds(wl, 30) == workloads.rounds(wl, 30.0)
    assert workloads.rounds(wl, 4 * wl.round_s) == 4


# -- speed clock ------------------------------------------------------------


def test_speed_clock_counts_a_stretch_at_the_rate_sampled_after_it(monkeypatch):
    ticks = iter([10.0, 10.0 + 2 * speed.REF_S])  # kernel start and end
    monkeypatch.setattr(speed, "clock", lambda: next(ticks))
    sw = speed.SpeedClock()
    sw.kernel = lambda: None
    sw._mark = 9.0
    sw._tick()
    # one measured second at half the reference speed is half a reference second
    assert sw._measured == pytest.approx(1.0)
    assert sw._reference == pytest.approx(0.5)
    assert sw._mark == pytest.approx(10.0 + 2 * speed.REF_S)


def test_speed_clock_rate_is_the_running_median_of_recent_samples(monkeypatch):
    now = [0.0]
    samples = iter([1.0, 1.0, 9.0, 1.0, 1.0, 4.0, 4.0, 4.0])  # one interrupted sample

    def kernel():
        now[0] += next(samples) * speed.REF_S

    monkeypatch.setattr(speed, "clock", lambda: now[0])
    sw = speed.SpeedClock()
    sw.kernel = kernel
    sw._mark = 0.0
    rates = []
    for _ in range(8):
        now[0] += 0.1
        sw._tick()
        rates.append(sw._rate)
    # the slow sample does not move the rate; a lasting change does, once it
    # holds most of the window
    assert rates[:5] == pytest.approx([1.0] * 5)
    assert rates[-1] == pytest.approx(0.25)


def test_speed_clock_samples_while_started_and_leaves_the_signal_as_found():
    import signal
    import time

    with speed.SpeedClock() as sw:
        t0 = sw.read()
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        t1 = sw.read()
    assert len(sw.samples) >= 3
    assert 0.3 < t1[0] - t0[0] < 0.35
    assert t1[1] > t0[1]
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_disabled_speed_clock_reads_measured_time_twice():
    with speed.SpeedClock(enabled=False) as sw:
        a, b = sw.read()
    assert a == b and not sw.samples


# -- span arithmetic --------------------------------------------------------


def _span(id, parent, layer, name, start, end):
    s = tracing.Span(id, parent, "r", "timed", layer, name, start)
    s.end = end
    return s


def _tree():
    # harness.run [0, 10]
    #   condensate.a [1, 4]
    #   condensate.b [5, 9]
    #     condensate.c [6, 7]
    #     core.d [7.5, 8]
    return [
        _span(0, None, "harness", "harness.run", 0.0, 10.0),
        _span(1, 0, "condensate", "condensate.a", 1.0, 4.0),
        _span(2, 0, "condensate", "condensate.b", 5.0, 9.0),
        _span(3, 2, "condensate", "condensate.c", 6.0, 7.0),
        _span(4, 2, "core", "core.d", 7.5, 8.0),
    ]


def test_self_time_subtracts_children():
    st = tracing.self_times(_tree())
    assert st == pytest.approx({0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "harness", "harness.run", 0.0, 10.0),
        _span(1, 0, "core", "core.a", 1.0, 5.0),
        _span(2, 0, "core", "core.b", 4.0, 6.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_time_counts_outermost_spans_only():
    s = tracing.summarise(_tree())
    cond = s["layers"]["condensate"]
    assert cond["calls"] == 3
    assert cond["s"] == pytest.approx(3.0 + 4.0)  # c is inside b
    assert cond["self_s"] == pytest.approx(3.0 + 2.5 + 1.0)
    assert s["layers"]["core"]["s"] == pytest.approx(0.5)
    assert s["layers"]["harness"]["self_s"] == pytest.approx(3.0)
    assert s["top_level_s"] == pytest.approx(10.0)
    # self times of all layers add up to the top-level time
    assert sum(v["self_s"] for v in s["layers"].values()) == pytest.approx(10.0)


# -- metric names -----------------------------------------------------------


def test_metric_names_are_valid_and_unique():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name
    for name in ("a b", "", "x" * 65, "_lead", "slash/no"):
        assert not metrics.NAME_RE.match(name)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_warning_kinds_name_the_real_call_sites():
    counter = tracing.WarningCounter()
    log = logging.getLogger("potshape")
    log.addHandler(counter)
    try:
        grid = SpatialGrid1D(length=250.0, n_points=64)
        v = RealField1D(grid=grid, values=0.01 * grid.samples**2)
        condensate.ground_state(v, condensate.CondensateParams(),
                                condensate.SolverConfig(dtau=0.05, max_steps=2))
    finally:
        log.removeHandler(counter)
    assert set(counter.counts) == {
        "condensate.grid_spacing_exceeds_healing",
        "condensate.imaginary_time_relaxation_converged",
    }
    assert set(counter.counts) <= set(metrics.WARNING_KINDS)


# -- seeded inputs ----------------------------------------------------------


def _same(a, b):
    assert a.keys() == b.keys()
    return all(np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)


@pytest.mark.parametrize("cls", [workloads.GroundStateCold, workloads.LutBuild])
def test_inputs_depend_only_on_the_seed(cls):
    wl = cls()
    assert _same(wl.inputs(7), wl.inputs(7))
    assert not _same(wl.inputs(7), wl.inputs(8))


def test_reference_seed_picks_extra_exports_only():
    wl = workloads.Reference()
    a, b = wl.inputs(7)["config"], wl.inputs(7)["config"]
    assert a == b
    c = wl.inputs(8)["config"]
    assert c.loop.export_iterations != a.loop.export_iterations
    assert c.loop.seed == a.loop.seed == harness.ScenarioConfig().loop.seed
    assert set(workloads.Reference.DEFAULT_EXPORTS) <= set(a.loop.export_iterations)


def test_generated_potentials_repeat_for_a_seed():
    wl = workloads.GroundStateCold()
    p1 = wl.setup(wl.inputs(3))["potentials"]
    p2 = wl.setup(wl.inputs(3))["potentials"]
    assert len(p1) == np.prod(wl.WELL_CELLS) + wl.N_INPUTS
    assert all(np.array_equal(a.values, b.values) for a, b in zip(p1, p2))


def test_table_seeds_repeat_for_a_seed():
    wl = workloads.LutBuild()
    cfgs = [c.loop.seed for c in wl.setup(wl.inputs(3))["configs"]]
    assert cfgs == wl.inputs(3)["table_seeds"]
    assert len(set(cfgs)) == wl.N_TABLES


# -- residual ---------------------------------------------------------------


def test_residual_vanishes_on_an_exact_eigenstate():
    params = condensate.CondensateParams(scattering_length=0.0)
    omega = 0.5
    grid = SpatialGrid1D(length=60.0, n_points=1024)
    z = grid.samples
    a = 1.0 / np.sqrt(params.mass * omega)
    phi = np.exp(-(z**2) / (2 * a**2)) / (np.pi * a**2) ** 0.25
    v = 0.5 * params.mass * omega**2 * z**2
    assert workloads.gp_residual(phi, v, omega / 2, params, grid.dz) < 1e-9
    assert workloads.gp_residual(phi, v, omega, params, grid.dz) > 0.5


# -- tracing ----------------------------------------------------------------


def test_wrapper_picks_up_a_function_added_to_all(monkeypatch):
    def doubled(x):
        return 2 * x

    doubled.__module__ = ilc.__name__
    monkeypatch.setattr(ilc, "__all__", ilc.__all__ + ["doubled"])
    monkeypatch.setattr(ilc, "doubled", doubled, raising=False)
    monkeypatch.setattr(harness, "doubled_here", doubled, raising=False)
    tracer = tracing.Tracer("t").install()
    try:
        assert ilc.doubled is not doubled and harness.doubled_here is not doubled
        tracer.phase = "timed"
        assert harness.doubled_here(3) == 6
        assert ilc.doubled(4) == 8
        tracer.phase = None
        assert ilc.doubled(5) == 10  # no phase: not recorded
    finally:
        tracer.uninstall()
    assert ilc.doubled is doubled and harness.doubled_here is doubled
    assert [(s.layer, s.name) for s in tracer.spans] == [("ilc", "ilc.doubled")] * 2


def test_uninstall_restores_every_binding():
    modules = (harness, condensate, ilc)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer("t").install()
    assert condensate.ground_state is not before[1]["ground_state"]
    tracer.uninstall()
    for mod, old in zip(modules, before):
        assert all(getattr(mod, k) is v for k, v in old.items())


def test_spans_record_parent_and_counters(tmp_path):
    grid = SpatialGrid1D(length=60.0, n_points=256)
    v = RealField1D(grid=grid, values=0.05 * grid.samples**2)
    tracer = tracing.Tracer("run-1").install()
    try:
        tracer.phase = "timed"
        gs = condensate.ground_state(v, condensate.CondensateParams(atom_number=100.0),
                                     condensate.SolverConfig(dtau=0.05, max_steps=50))
        tracer.phase = None
    finally:
        tracer.uninstall()
    top = tracer.spans[0]
    assert top.name == "condensate.ground_state" and top.parent is None
    assert top.counts == {"steps": gs.n_steps, "converged": int(gs.converged)}
    assert all(s.parent is not None and s.run == "run-1" for s in tracer.spans[1:])
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    assert len(path.read_text().splitlines()) == len(tracer.spans)


# -- comparing results --------------------------------------------------------


def _result(path, machine, wall):
    path.write_text(json.dumps({
        "args": {"workload": "lut-build"}, "machine": machine,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}},
    }))
    return str(path)


def test_compare_refuses_results_from_different_machines(tmp_path, capsys):
    import compare

    a = _result(tmp_path / "a.json", {"nproc": 2, "cpu_model": "x"}, 10.0)
    b = _result(tmp_path / "b.json", {"nproc": 2, "cpu_model": "x"}, 11.0)
    c = _result(tmp_path / "c.json", {"nproc": 4, "cpu_model": "x"}, 11.0)
    assert compare.main([a, "--", b]) == 0
    assert "+10.0%" in capsys.readouterr().out
    assert compare.main([a, "--", c]) == 2
    assert "different machines" in capsys.readouterr().err
