"""Column pattern search and look-up table checks.

Most tests run a scaled-down optimiser (40 mirrors, short search) for
speed; the session-scoped reference table carries the full-size checks
(monotonicity, stored-value consistency).
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potshape.core import RealField1D
from potshape.harness import ScenarioConfig
from potshape.inputmap import (
    ELITE,
    MUTATIONS,
    TOURNAMENT,
    Lut,
    LutEntry,
    OptimizerConfig,
    PatternObjective,
    TransversalPattern,
    _ga_minimise,
    _monotone_repair,
    build_lut,
    invert_pattern,
    load_lut,
    map_virtual_input,
    psf_beam_hash,
    save_lut,
    solve_pattern,
)
from potshape.optics import BeamProfile, PsfModel, calibrate_beam, column_grid


def _search(**settings):
    # the reference scenario's table settings with the given ones changed
    return dataclasses.replace(ScenarioConfig().optimizer_config(), **settings)


def _solve(nu, cfg, psf, beam, target_cap):
    # one search with a fresh objective, seeded from the config
    obj = PatternObjective(cfg, psf, beam)
    return solve_pattern(obj, nu, target_cap, np.random.default_rng(cfg.seed), ())


@pytest.fixture(scope="module")
def fast_cfg():
    return _search(n_t=40, population=40, generations=40, seed=3)


@pytest.fixture(scope="module")
def psf():
    return PsfModel()


@pytest.fixture(scope="module")
def beam():
    return BeamProfile()


@pytest.fixture(scope="module")
def fast_lut(fast_cfg, psf, beam):
    return build_lut(7, fast_cfg, psf, beam)


# ----------------------------------------------------------- primitives


def test_transversal_pattern_validation():
    p = TransversalPattern(bits=[0, 1, 1, 0])
    assert len(p) == 4
    with pytest.raises(ValueError):
        TransversalPattern(bits=[[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        TransversalPattern(bits=[0, 2, 0])


def test_optimizer_config_validation():
    least = dict(n_t=1, pitch=1.0, gamma_perp=0.3, dy=4.0, population=2, generations=1)
    OptimizerConfig(**least)
    for name, bad in (("population", 1), ("generations", 0), ("n_t", 0)):
        with pytest.raises(ValueError):
            OptimizerConfig(**{**least, name: bad})
    # the table settings have no defaults; only the seed does
    with pytest.raises(TypeError, match="pitch"):
        OptimizerConfig(n_t=1, gamma_perp=0.3, dy=4.0, population=2, generations=1)
    assert OptimizerConfig(**least).seed == 0


def test_all_ones_column_is_normalised(fast_cfg, psf, beam):
    obj = PatternObjective(fast_cfg, psf, beam)
    ones = np.ones(fast_cfg.n_t, dtype=np.uint8)
    assert float(obj.on_axis(ones)[0]) == pytest.approx(1.0, rel=1e-14)
    # even pattern on a symmetric lattice gives an even field over the
    # symmetric penalty band
    assert np.array_equal(obj.y_pen, -obj.y_pen[::-1])
    e = ones @ obj.w_pen.T
    assert np.max(np.abs(e - e[::-1])) < 1e-14


def test_objective_zero_at_perfect_flat_field(fast_cfg, psf, beam):
    obj = PatternObjective(fast_cfg, psf, beam)
    zeros = np.zeros(fast_cfg.n_t, dtype=np.uint8)
    assert float(obj.value(zeros, 0.0)[0]) == 0.0
    assert float(obj.on_axis(zeros)[0]) == 0.0


def test_flip_values_match_explicit_flips(fast_cfg, psf, beam):
    obj = PatternObjective(fast_cfg, psf, beam)
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, fast_cfg.n_t).astype(np.uint8)
    e0, fv = obj.flips(bits, 0.4)
    for i in range(fast_cfg.n_t):
        b = bits.copy()
        b[i] ^= 1
        assert e0[i] == pytest.approx(float(obj.on_axis(b)[0]), rel=1e-12, abs=1e-15)
        assert fv[i] == pytest.approx(float(obj.value(b, 0.4)[0]), rel=1e-12, abs=1e-15)


# -------------------------------------------------------- pattern search


def _solo_ga(obj, nu, cfg, rng):
    """One level's genetic search on its own: the reference the lockstep
    search over many levels must reproduce bit for bit."""
    n, P = cfg.n_t, cfg.population
    pop = rng.integers(0, 2, size=(P, n), dtype=np.uint8)
    pop[0] = 0
    pop[1] = 1
    order = np.argsort(np.abs(np.arange(n) - 0.5 * (n - 1)))
    for s, frac in enumerate((0.25, 0.5, 0.75)):
        if 2 + s < P:
            pop[2 + s] = 0
            pop[2 + s, order[: int(frac * n)]] = 1
    cost = obj.value(pop, nu)
    best, best_cost = pop[np.argmin(cost)].copy(), float(cost.min())
    for _ in range(cfg.generations):
        idx = rng.integers(0, P, size=(P, TOURNAMENT))
        parents = pop[idx[np.arange(P), np.argmin(cost[idx], axis=1)]]
        n_pairs = P // 2
        mask = rng.integers(0, 2, size=(n_pairs, n), dtype=np.uint8)
        a, b = parents[0 : 2 * n_pairs : 2], parents[1 : 2 * n_pairs : 2]
        children = np.concatenate([np.where(mask, a, b), np.where(mask, b, a)])
        if P % 2:
            children = np.concatenate([children, parents[-1:]])
        flips = rng.random(children.shape) < MUTATIONS / n
        children = np.where(flips, 1 - children, children).astype(np.uint8)
        ccost = obj.value(children, nu)
        keep = np.argsort(cost)[:ELITE]
        worst = np.argsort(ccost)[::-1][:ELITE]
        children[worst] = pop[keep]
        ccost[worst] = cost[keep]
        pop, cost = children, ccost
        if cost.min() < best_cost:
            best, best_cost = pop[np.argmin(cost)].copy(), float(cost.min())
    return best


def test_lockstep_search_matches_solo_searches(psf, beam):
    # odd population exercises the unpaired parent, ELITE > 1 the elitism
    cfg = _search(n_t=40, population=41, generations=30, seed=5)
    obj = PatternObjective(cfg, psf, beam)
    nus = np.array([0.05, 0.3, 0.5, 0.5, 0.77, 0.95])
    got = _ga_minimise(obj, nus, [np.random.default_rng([5, k]) for k in range(len(nus))])
    assert got.shape == (len(nus), cfg.n_t) and got.dtype == np.uint8
    for k, nu in enumerate(nus):
        expect = _solo_ga(obj, nu, cfg, np.random.default_rng([5, k]))
        assert np.array_equal(got[k], expect), f"level {k}"
    assert _ga_minimise(obj, nus[:0], []).shape == (0, cfg.n_t)


def test_solve_pattern_extremes(fast_cfg, psf, beam):
    pat, achieved, residual = _solve(0.0, fast_cfg, psf, beam, 1e-3)
    assert not np.any(pat.bits)
    assert achieved == 0.0 and residual == 0.0
    with pytest.raises(ValueError):
        _solve(1.5, fast_cfg, psf, beam, 1e-3)
    with pytest.raises(ValueError):
        _solve(-0.1, fast_cfg, psf, beam, 1e-3)


def test_solve_pattern_half_level(scenario, psf, beam):
    cfg = scenario.optimizer_config()  # full-size search
    pat, achieved, residual = _solve(0.5, cfg, psf, beam, 1e-3)
    assert abs(achieved - 0.5) < 1e-3
    assert residual < 1e-4


def test_target_cap_keeps_achieved_close(fast_cfg, psf, beam):
    _, achieved, _ = _solve(0.9, fast_cfg, psf, beam, 5e-3)
    assert abs(achieved - 0.9) <= 5e-3


# ------------------------------------------------------------ the table


def test_two_entry_table_is_the_extremes(fast_cfg, psf, beam):
    lut = build_lut(2, fast_cfg, psf, beam)
    assert not np.any(lut.entries[0].pattern.bits)
    assert np.all(lut.entries[1].pattern.bits == 1)
    assert lut.entries[0].achieved == 0.0
    assert lut.entries[1].achieved == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        build_lut(1, fast_cfg, psf, beam)


def test_fast_table_levels_and_monotonicity(fast_lut):
    nus = np.linspace(0.0, 1.0, 7)
    errs = np.abs(fast_lut.achieved_values() - nus)
    assert np.all(errs <= 4.0 * 0.05 / 6.0)
    assert np.all(np.diff(fast_lut.achieved_values()) >= 0.0)


def test_reference_table_is_monotone(reference_lut):
    ach = reference_lut.achieved_values()
    assert reference_lut.n_nu == 51
    assert np.all(np.diff(ach) >= 0.0)
    assert ach[0] == 0.0 and abs(ach[-1] - 1.0) < 1e-12


def test_achieved_values_are_one_read_only_array_of_the_entries(reference_lut):
    ach = reference_lut.achieved_values()
    assert ach is reference_lut.achieved_values() and not ach.flags.writeable
    assert ach.tobytes() == np.array([e.achieved for e in reference_lut.entries]).tobytes()
    with pytest.raises(ValueError):
        ach[0] = 1.0


def test_reference_table_stored_values_are_consistent(
    scenario, reference_lut, reference_prepared
):
    # stored achieved values must equal |E(0)| recomputed from the bits
    obj = PatternObjective(scenario.optimizer_config(), scenario.psf, reference_prepared.beam)
    for e in reference_lut.entries:
        again = float(obj.on_axis(e.pattern.bits)[0])
        assert abs(e.achieved - again) < 1e-12


def test_build_is_deterministic(fast_cfg, psf, beam, fast_lut):
    again = build_lut(7, fast_cfg, psf, beam)
    assert np.array_equal(again.achieved_values(), fast_lut.achieved_values())
    for a, b in zip(again.entries, fast_lut.entries):
        assert np.array_equal(a.pattern.bits, b.pattern.bits)


def test_table_entries_equal_their_solo_solves(fast_cfg, psf, beam, fast_lut):
    # an entry the monotone repair left alone is exactly what solve_pattern
    # returns for its level with the entry's own child seed
    acc = 0.05 / (fast_lut.n_nu - 1)
    obj = PatternObjective(fast_cfg, psf, beam)
    untouched = 0
    for k in range(1, fast_lut.n_nu - 1):
        e = fast_lut.entries[k]
        rng = np.random.default_rng([fast_cfg.seed, k])
        pat, ach, res = solve_pattern(obj, e.nu, acc, rng, ())
        if ach < fast_lut.entries[k - 1].achieved:
            continue  # repaired
        untouched += 1
        assert np.array_equal(pat.bits, e.pattern.bits)
        assert ach == e.achieved and res == e.residual
    assert untouched >= 3


def test_monotone_repair_resolves_then_lifts(fast_cfg, psf, beam):
    # centre-out blocks of mirrors; two entries sit below their lower
    # neighbour: entry 2 is re-solved from its own level, while entry 4's
    # re-solve (about 0.8) cannot reach entry 3 (0.85), so it is lifted
    obj = PatternObjective(fast_cfg, psf, beam)
    n = fast_cfg.n_t
    order = np.argsort(np.abs(np.arange(n) - 0.5 * (n - 1)))

    def block(m):
        bits = np.zeros(n, dtype=np.uint8)
        bits[order[:m]] = 1
        return TransversalPattern(bits=bits)

    nus = np.linspace(0.0, 1.0, 6)
    acc = 0.05 / (len(nus) - 1)
    before = [block(m) for m in (0, 2, 1, 8, 7, n)]
    patterns = list(before)
    achieved = np.array([float(obj.on_axis(p.bits)[0]) for p in patterns])
    residual = np.array([float(obj.value(p.bits, nu)[0]) for p, nu in zip(patterns, nus)])
    ach0, res0 = achieved.copy(), residual.copy()
    assert ach0[2] < ach0[1] and ach0[4] < ach0[3]

    def resolve(k):
        rng = np.random.default_rng([fast_cfg.seed, k, 7919])
        return solve_pattern(obj, nus[k], acc, rng, (before[k - 1].bits, before[k].bits))

    _monotone_repair(obj, nus, patterns, achieved, residual, acc)
    assert np.all(np.diff(achieved) >= 0.0)
    for k in (0, 1, 3, 5):
        assert patterns[k] is before[k]
        assert achieved[k] == ach0[k] and residual[k] == res0[k]
    pat, ach, res = resolve(2)
    assert ach >= ach0[1]
    assert np.array_equal(patterns[2].bits, pat.bits)
    assert achieved[2] == ach and residual[2] == res
    # the lift starts from entry 3's bits and keeps at or above its value
    assert resolve(4)[1] < ach0[3]
    lifted = patterns[4].bits
    assert not np.array_equal(lifted, before[3].bits)
    assert achieved[4] == float(obj.on_axis(lifted)[0]) >= ach0[3]
    assert residual[4] == float(obj.value(lifted, nus[4])[0])
    assert residual[4] < float(obj.value(before[3].bits, nus[4])[0])
    for i in range(n):
        b = lifted.copy()
        b[i] ^= 1
        if float(obj.on_axis(b)[0]) >= ach0[3]:
            assert float(obj.value(b, nus[4])[0]) >= residual[4] * (1.0 - 1e-12)


def test_unreachable_accuracy_is_a_hard_error(fast_cfg, psf, beam):
    with pytest.raises(RuntimeError, match="out of tolerance"):
        build_lut(5, fast_cfg, psf, beam, accuracy=1e-9)


def test_levels_sharing_a_pattern_are_a_hard_error(psf, beam):
    # two mirrors make four patterns, too few for seven distinct levels
    cfg = _search(n_t=2, population=8, generations=5, seed=3)
    with pytest.raises(ValueError, match="share one bit pattern"):
        build_lut(7, cfg, psf, beam, accuracy=1.0)


def test_quantisation_error_is_bounded(fast_lut):
    ach = fast_lut.achieved_values()
    worst_entry = np.max(np.abs(ach - np.linspace(0.0, 1.0, fast_lut.n_nu)))
    bound = 0.5 / (fast_lut.n_nu - 1) + worst_entry + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0))
    def check(nu):
        i = int(fast_lut.nearest_index(nu))
        assert abs(ach[i] - nu) <= bound

    check()


# -------------------------------------------------- addressing and i/o


def _toy_lut(n_nu=5, n_t=3):
    # synthetic table with distinct patterns, for addressing tests
    entries = []
    for k in range(n_nu):
        bits = np.zeros(n_t, dtype=np.uint8)
        # binary encoding of k keeps the patterns distinct
        for b in range(n_t):
            bits[b] = (k >> b) & 1
        entries.append(
            LutEntry(
                nu=k / (n_nu - 1),
                pattern=TransversalPattern(bits=bits),
                achieved=k / (n_nu - 1),
                residual=0.0,
            )
        )
    return Lut(
        entries=tuple(entries),
        n_t=n_t,
        pitch=1.0,
        gamma_perp=0.3,
        dy=4.0,
        psf_beam_sha256="0" * 64,
        seed=0,
    )


def test_nearest_index_rounds_ties_down():
    lut = _toy_lut(n_nu=5)
    # grid step 0.25; exact midpoints must pick the lower entry
    assert lut.nearest_index(0.125) == 0
    assert lut.nearest_index(0.375) == 1
    assert lut.nearest_index(0.13) == 1
    assert np.array_equal(lut.nearest_index([0.0, 0.49, 0.51, 1.0]), [0, 2, 2, 4])
    with pytest.raises(ValueError):
        lut.nearest_index(1.2)
    with pytest.raises(ValueError):
        lut.nearest_index(-0.2)
    with pytest.raises(ValueError, match="out of"):
        lut.nearest_index([0.5, np.nan])


def test_map_and_invert_round_trip():
    lut = _toy_lut(n_nu=5)
    grid = column_grid(9, 1.0)
    nu = RealField1D(grid=grid, values=np.linspace(0.0, 1.0, 9))
    pattern = map_virtual_input(nu, lut)
    assert pattern.bits.shape == (3, 9)
    back = invert_pattern(pattern, lut)
    idx = lut.nearest_index(nu.values)
    expect = np.array([lut.entries[i].nu for i in idx])
    assert np.array_equal(back.values, expect)
    assert np.all(np.diff(idx) >= 0)


def test_invert_rejects_foreign_columns():
    lut = _toy_lut(n_nu=3)
    bits = np.zeros((3, 4), dtype=np.uint8)
    bits[:, 2] = (1, 1, 1)  # not a table pattern for n_nu = 3
    from potshape.optics import DmdPattern

    with pytest.raises(ValueError, match="column 2"):
        invert_pattern(DmdPattern(bits=bits), lut)


def test_all_zero_input_maps_to_dark_array():
    lut = _toy_lut(n_nu=5)
    nu = RealField1D(grid=column_grid(6, 1.0), values=np.zeros(6))
    assert not np.any(map_virtual_input(nu, lut).bits)


def test_half_input_hits_centre_entry(reference_lut):
    nu = RealField1D(grid=column_grid(4, 1.0), values=np.full(4, 0.5))
    pattern = map_virtual_input(nu, reference_lut)
    expect = reference_lut.entries[25].pattern.bits
    for j in range(4):
        assert np.array_equal(pattern.bits[:, j], expect)


def test_save_load_round_trip(tmp_path, fast_lut):
    p1 = tmp_path / "table.json"
    p2 = tmp_path / "table2.json"
    save_lut(fast_lut, p1)
    again = load_lut(p1)
    save_lut(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.n_nu == fast_lut.n_nu
    assert np.array_equal(again.achieved_values(), fast_lut.achieved_values())
    for a, b in zip(again.entries, fast_lut.entries):
        assert np.array_equal(a.pattern.bits, b.pattern.bits)


def test_load_rejects_malformed_files(tmp_path, fast_lut):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_lut(bad)
    from potshape.inputmap import _lut_to_dict

    d = _lut_to_dict(fast_lut)
    d["n_nu"] = 99
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps(d))
    with pytest.raises(ValueError):
        load_lut(mismatched)

    for blob in ("[1, 2]", '"potshape-lut-v1"'):
        bad.write_text(blob)
        with pytest.raises(ValueError, match="not a recognised"):
            load_lut(bad)
    d = _lut_to_dict(fast_lut)
    del d["n_t"]
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="table header lacks 'n_t'"):
        load_lut(bad)
    # a count or seed that is not an integer is refused, not truncated: a
    # truncated seed would break the record of how the table was built;
    # a boolean is neither a count nor a number, and a string is no number
    for key, value in (
        ("n_t", None),
        ("seed", None),
        ("pitch", None),
        ("n_nu", fast_lut.n_nu + 0.9),
        ("n_t", 3.2),
        ("seed", 7.5),
        ("n_t", "40"),
        ("seed", True),
        ("pitch", True),
        ("pitch", "1.0"),
    ):
        d = _lut_to_dict(fast_lut)
        d[key] = value
        bad.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"table header has an invalid '{key}': {value!r}"):
            load_lut(bad)
    # the pitch must be > 0, the penalty's reach and weight and the seed >= 0
    for key, value in (
        ("pitch", float("nan")),
        ("pitch", -1.0),
        ("pitch", 0.0),
        ("dy", -1.0),
        ("dy", float("inf")),
        ("gamma_perp", -0.3),
        ("gamma_perp", float("nan")),
        ("seed", -1),
    ):
        d = _lut_to_dict(fast_lut)
        d[key] = value
        bad.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"table header has an invalid '{key}': {value!r}$"):
            load_lut(bad)
    d = _lut_to_dict(fast_lut)
    d["entries"] = {"0": d["entries"][0]}
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="entries are not a JSON list"):
        load_lut(bad)

    for edit, match in (
        (lambda es: es[3].pop("bits"), "entry 3 lacks 'bits'"),
        (lambda es: es.__setitem__(1, [0.1, "01"]), "entry 1 is not a JSON object"),
        (lambda es: es[3].update(bits=es[3]["bits"][:-1]), "entry 3 has 39 bits"),
        (lambda es: es[2].update(nu=es[2]["nu"] + 1e-9), "entry 2 has nu"),
        (lambda es: es[4].update(achieved=es[3]["achieved"] - 1e-6), "decreases at entry 4"),
        (lambda es: es[2].update(nu=None), "entry 2 has an invalid 'nu': None"),
        (lambda es: es[3].update(bits=101), "entry 3 has an invalid 'bits': 101"),
        (lambda es: es[3].update(bits="01x"), "entry 3 has an invalid 'bits'"),
        (lambda es: es[3].update(bits="0120" + es[3]["bits"][4:]), "entry 3 has an invalid 'bits'"),
        (
            lambda es: es[3].update(bits=[1.9, 0.2] + [0] * (len(es[3]["bits"]) - 2)),
            r"entry 3 has an invalid 'bits': \[1.9, 0.2, 0",
        ),
        (lambda es: es[5].update(residual="small"), "entry 5 has an invalid 'residual'"),
        # numbers the loop would carry into its fields, or silently keep
        (lambda es: es[5].update(nu=float("nan")), "entry 5 has an invalid 'nu': nan"),
        (lambda es: es[4].update(achieved=float("inf")), "entry 4 has an invalid 'achieved': inf"),
        (lambda es: es[5].update(residual=float("nan")), "entry 5 has an invalid 'residual': nan"),
        (lambda es: es[0].update(residual=float("-inf")), "entry 0 has an invalid 'residual': -inf"),
        # a boolean or a string is not a number, although float() takes both
        (lambda es: es[2].update(nu=True), "entry 2 has an invalid 'nu': True"),
        (lambda es: es[4].update(achieved="0.5"), "entry 4 has an invalid 'achieved': '0.5'"),
    ):
        d = _lut_to_dict(fast_lut)
        edit(d["entries"])
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=match):
            load_lut(edited)

    # a three-level table whose top two levels share one pattern: the
    # inversion would read the upper level's nu for the lower level
    d = _lut_to_dict(_toy_lut(n_nu=3))
    d["entries"][2]["bits"] = d["entries"][1]["bits"]
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="entries 1 and 2 share one bit pattern"):
        load_lut(bad)


def test_psf_beam_hash_tracks_parameters():
    psf = PsfModel()
    h0 = psf_beam_hash(psf, BeamProfile(), 100, 1.0)
    assert h0 == psf_beam_hash(psf, BeamProfile(), 100, 1.0)
    # two beams of one width, calibrated to different headrooms
    low, high = (calibrate_beam(psf, BeamProfile(), 100, 1.0, 50.0, 1.0, h) for h in (1, 2))
    assert psf_beam_hash(psf, low, 100, 1.0) != psf_beam_hash(psf, high, 100, 1.0)
    assert h0 != psf_beam_hash(psf, BeamProfile(), 99, 1.0)
    assert h0 != psf_beam_hash(PsfModel(sigma_z=3.0), BeamProfile(), 100, 1.0)
