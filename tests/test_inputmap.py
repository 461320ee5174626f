"""Column pattern search and look-up table checks.

Most tests run a scaled-down optimiser (40 mirrors, short search) for
speed; the session-scoped reference table carries the full-size checks
(monotonicity, stored-value consistency).
"""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potshape import inputmap
from potshape.core import RealField1D
from potshape.inputmap import (
    ELITE,
    MUTATIONS,
    TOURNAMENT,
    Lut,
    LutSpec,
    PatternObjective,
    _ga_minimise,
    _refine,
    _SelectionDraws,
    build_lut,
    invert_pattern,
    load_lut,
    lut_sha256,
    map_virtual_input,
    psf_beam_hash,
    save_lut,
)
from potshape.harness import build_scenario_lut
from potshape.optics import BeamProfile, DmdSpec, PsfModel, calibrate_beam, column_grid

# the master seed of the scaled-down tables and searches
SEED = 3


def _solve(obj, nu, target_cap, seed=SEED):
    # one level's search and refinement, seeded with the master seed alone
    start = _ga_minimise(obj, [nu], [np.random.default_rng(seed)])[0]
    bits, achieved, residual = _refine(obj, [nu], start[None, None], target_cap)
    return bits[0], float(achieved[0]), float(residual[0])


@pytest.fixture(scope="module")
def fast_spec():
    # the reference table section, seven levels and a short search
    return LutSpec(n_nu=7, population=40, generations=40)


@pytest.fixture(scope="module")
def fast_dmd():
    return DmdSpec(n_rows=40)


@pytest.fixture(scope="module")
def psf():
    return PsfModel()


@pytest.fixture(scope="module")
def beam():
    return BeamProfile()


@pytest.fixture(scope="module")
def fast_obj(fast_spec, fast_dmd, psf, beam):
    return PatternObjective(fast_spec, fast_dmd, psf, beam)


@pytest.fixture(scope="module")
def fast_lut(fast_spec, fast_dmd, psf, beam):
    return build_lut(fast_spec, fast_dmd, psf, beam, SEED)


# ----------------------------------------------------------- primitives


def test_lut_levels_validation():
    # the table is its three arrays, each a read-only copy: the levels an
    # (n_nu, n_t) uint8 array of 0/1 bits with one pattern per row, and
    # the achieved values and residuals one float per row
    bits = [[0, 0, 0], [1, 0, 0], [1, 1, 1]]
    lut = _toy_lut(n_nu=3, levels=bits)
    assert lut.levels.dtype == np.uint8 and lut.levels.tolist() == bits
    assert lut.achieved.tolist() == [0.0, 0.5, 1.0] and lut.residual.tolist() == [0.0] * 3
    for values in (lut.levels, lut.achieved, lut.residual, lut.nu_levels):
        assert not values.flags.writeable
    with pytest.raises(ValueError):
        lut.levels[0, 0] = 1
    for bad in ([[0, 0, 0], [1, 1, 1]], [0, 1, 1]):
        with pytest.raises(ValueError, match=r"levels must be a \(3, n_t\) array of 0/1 bits"):
            _toy_lut(n_nu=3, levels=bad)
    with pytest.raises(ValueError, match=r"levels must be a \(3, n_t\) array of 0/1 bits"):
        _toy_lut(n_nu=3, levels=[[0, 0, 0], [2, 0, 0], [1, 1, 1]])
    with pytest.raises(ValueError, match="entries 0 and 2 share one bit pattern"):
        _toy_lut(n_nu=3, levels=[[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    # the table is a monotone map from nu to the achieved field: a value
    # that falls, or NaN, which compares as neither, is refused
    for bad, k in (([0.0, 0.7, 0.5], 2), ([0.0, np.nan, 1.0], 1)):
        with pytest.raises(ValueError, match=f"achieved value decreases at entry {k}"):
            _toy_lut(n_nu=3, levels=[[0, 0], [1, 0], [1, 1]], achieved=bad)
    assert _toy_lut(n_nu=3, achieved=[0.0, 0.5, 0.5]).achieved.tolist() == [0.0, 0.5, 0.5]
    # the table section's n_nu counts the achieved values and residuals too
    with pytest.raises(ValueError, match="achieved must hold 4 values, one an entry"):
        dataclasses.replace(lut, spec=LutSpec(n_nu=4), levels=bits + [[0, 1, 0]])
    for name in ("achieved", "residual"):
        for bad in ([0.0, 1.0], [0.0, 0.5, 1.0, 1.0], [[0.0, 0.5, 1.0]], 0.0):
            with pytest.raises(ValueError, match=f"{name} must hold 3 values, one an entry"):
                _toy_lut(n_nu=3, **{name: bad})
    # n_t is the bits' row length
    assert lut.n_t == 3
    assert _toy_lut(n_nu=3, levels=[[0, 0], [1, 0], [1, 1]]).n_t == 2
    # nu is k / (n_nu - 1), the grid nearest_index addresses, and is no
    # constructor argument: no table holds a level off that grid
    lut = _toy_lut(n_nu=51, n_t=6)
    assert np.max(np.abs(lut.nu_levels - np.arange(51) / 50)) <= 1e-15
    assert np.array_equal(lut.nearest_index(lut.nu_levels), np.arange(51))
    with pytest.raises(TypeError, match="unexpected keyword argument 'nu_levels'"):
        _toy_lut(n_nu=3, nu_levels=[0.0, 0.4, 1.0])


def test_lut_refuses_what_its_file_refuses(tmp_path):
    # a table that save_lut would write and load_lut then refuse is
    # refused when it is built, with the rule load_lut reads its file by
    good = _toy_lut(n_nu=3)
    for change, error, match in (
        ({"pitch": -1.0}, ValueError, "pitch must be > 0, got -1.0"),
        ({"pitch": float("nan")}, ValueError, "pitch must be finite, got nan"),
        ({"seed": -3}, ValueError, "seed must be >= 0, got -3"),
        ({"seed": 2.5}, TypeError, "seed must be an integer, got 2.5"),
        ({"psf_beam_sha256": "xyz"}, ValueError, "psf_beam_sha256 must be a SHA-256 hex digest"),
        ({"achieved": [0.0, 0.5, np.inf]}, ValueError, "achieved values must be finite"),
        ({"residual": [0.0, np.nan, 0.0]}, ValueError, "residual values must be finite"),
    ):
        with pytest.raises(error, match=f"^{re.escape(match)}$"):
            dataclasses.replace(good, **change)
    # the pitch and the seed are stored as the Python numbers the file
    # reads back, so a numpy pitch or seed saves too
    lut = dataclasses.replace(good, pitch=np.float32(2.0), seed=np.int64(4))
    assert type(lut.pitch) is float and type(lut.seed) is int
    save_lut(lut, tmp_path / "table.json")
    assert lut_sha256(load_lut(tmp_path / "table.json")) == lut_sha256(lut)


def test_all_ones_column_is_normalised(fast_obj, fast_dmd):
    obj = fast_obj
    ones = np.ones(fast_dmd.n_rows, dtype=np.uint8)
    assert float(obj.value(ones, 1.0)[0][0]) == pytest.approx(1.0, rel=1e-14)
    # even pattern on a symmetric lattice gives an even field over the
    # symmetric penalty band
    assert np.array_equal(obj.y_pen, -obj.y_pen[::-1])
    e = ones @ obj.w_pen.T
    assert np.max(np.abs(e - e[::-1])) < 1e-14


@pytest.mark.parametrize("dy, pitch", [(4.3, 1.0), (3.0, 0.7), (0.0, 1.0), (4.0, 1.0)])
def test_penalty_weights_are_the_trapezoid_rule_over_the_samples(psf, beam, dy, pitch):
    # the samples lie 2 dy / (n_pen - 1) apart, a pitch only when 2 dy is
    # a whole number of pitches; one sample (dy = 0) spans no band
    spec, dmd = LutSpec(gamma_perp=0.3, dy=dy), DmdSpec(n_rows=40, pixel_pitch=pitch)
    obj = PatternObjective(spec, dmd, psf, beam)
    expect = 0.3 * np.trapezoid(np.eye(len(obj.y_pen)), obj.y_pen, axis=1)
    np.testing.assert_allclose(obj.pen_weights, expect, rtol=1e-14, atol=0)
    assert obj.pen_weights.sum() == pytest.approx(0.3 * 2.0 * dy, rel=1e-14, abs=0)
    if (dy, pitch) == (4.0, 1.0):
        # the reference band: the weights, and so every table, keep their bits
        assert np.array_equal(obj.pen_weights, 0.3 * np.r_[0.5, np.ones(7), 0.5])


def test_objective_zero_at_perfect_flat_field(fast_obj, fast_dmd):
    obj = fast_obj
    zeros = np.zeros(fast_dmd.n_rows, dtype=np.uint8)
    e0, cost = obj.value(zeros, 0.0)
    assert float(cost[0]) == 0.0
    assert float(e0[0]) == 0.0


def test_flip_values_match_explicit_flips(fast_obj, fast_dmd):
    obj = fast_obj
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, (3, fast_dmd.n_rows)).astype(np.uint8)
    nus = np.array([0.4, 0.1, 0.85])
    e0, fv = obj.flips(bits, nus)
    assert e0.shape == fv.shape == bits.shape
    for k, nu in enumerate(nus):
        for i in range(fast_dmd.n_rows):
            b = bits[k].copy()
            b[i] ^= 1
            solo_e0, solo_fv = obj.value(b, nu)
            assert e0[k, i] == pytest.approx(float(solo_e0[0]), rel=1e-12, abs=1e-15)
            assert fv[k, i] == pytest.approx(float(solo_fv[0]), rel=1e-12, abs=1e-15)


def _solo_flips(obj, bits, nu):
    """|E(0)| and objective after each single flip of one bit vector, by
    one-vector products: the reference the stacked flips must reproduce."""
    b = bits.astype(float)
    sign = 1.0 - 2.0 * b
    ep = b @ obj.w_pen.T
    e0_f = np.abs(float(b @ obj.w0) + sign * obj.w0)
    ep_f = np.abs(ep[None, :] + sign[:, None] * obj.w_pen.T)
    pen = ((ep_f - nu) ** 2) @ obj.pen_weights
    return e0_f, (e0_f - nu) ** 2 + pen


@pytest.mark.parametrize("n_t", [40, 100])
def test_stacked_scoring_equals_per_level_calls(psf, beam, n_t):
    # every matrix or row of a stack is scored by the BLAS call its own
    # call makes, so stacking changes no value in its last bit
    obj = PatternObjective(LutSpec(), DmdSpec(n_rows=n_t), psf, beam)
    rng = np.random.default_rng(n_t)
    m, P = 11, 13
    density = rng.random((m, P, 1))
    stack = (rng.random((m, P, n_t)) < density).astype(np.uint8)
    nus = rng.random(m)
    got = obj.value(stack, nus)[1]
    assert got.shape == (m, P)
    for k in range(m):
        assert np.array_equal(got[k], obj.value(stack[k], nus[k])[1]), f"matrix {k}"
    rows, row_nus = stack.reshape(m * P, n_t), np.repeat(nus, P)
    e0, fv = obj.flips(rows, row_nus)
    on_axis = obj.value(rows[:, None], row_nus)[0][:, 0]
    for k, (row, nu) in enumerate(zip(rows, row_nus)):
        solo_e0, solo_fv = _solo_flips(obj, row, nu)
        assert np.array_equal(e0[k], solo_e0) and np.array_equal(fv[k], solo_fv), f"row {k}"
        assert on_axis[k] == obj.value(row, nu)[0][0] == np.abs(row.astype(float) @ obj.w0)


# -------------------------------------------------------- pattern search


def _numpy_selection_draws(rng, idx, mask):
    # a generation's tournament and crossover draws by numpy's own calls
    idx[...] = rng.integers(0, len(idx), size=idx.shape)
    mask[...] = rng.integers(0, 2, size=mask.shape, dtype=np.uint8)


def _first_rejection(bound, seed):
    """Index of the first 64-bit output of PCG64(seed) holding a 32-bit
    draw that Lemire's method rejects for integers below ``bound``."""
    bg = np.random.PCG64(seed)
    threshold, start = (2**32 - bound) % bound, 0
    while True:
        u = bg.random_raw(2**20).astype("<u8").view("<u4").astype(np.uint64)
        hit = np.flatnonzero(u * bound % 2**32 < threshold)
        if hit.size:
            return start + int(hit[0]) // 2
        start += 2**20


def _stack(case):
    """Generators and their kinds: the mixed stack of five (one read raw,
    one keeping a 32-bit half, two whose first raw call holds a rejected
    entrant draw for a population of 100, in its first and in its last
    entrant output, and an MT19937 one), or the levels of one kind alone."""
    hit, last = _first_rejection(100, 7), 100 * TOURNAMENT // 2 - 1
    kept = np.random.default_rng(8)
    kept.integers(0, 7)  # one 32-bit draw keeps the high half
    levels = [
        ("raw", np.random.default_rng(8)),
        ("kept_half", kept),
        ("rejection", np.random.Generator(np.random.PCG64(7).advance(hit))),
        ("rejection", np.random.Generator(np.random.PCG64(7).advance(hit - last))),
        ("mt19937", np.random.Generator(np.random.MT19937(8))),
    ]
    if case in ("kept_half", "rejection", "mt19937"):
        levels = [level for level in levels if level[0] == case]
    return [kind for kind, _ in levels], [rng for _, rng in levels]


def _state(rng):
    return json.loads(json.dumps(rng.bit_generator.state, default=np.ndarray.tolist))


@pytest.mark.parametrize(
    "case, population, n_t",
    [
        ("fast", 100, 100),
        ("fast", 40, 6),
        ("odd_entrants", 41, 40),
        ("mask_not_whole_outputs", 40, 7),
        ("kept_half", 100, 100),
        ("rejection", 100, 100),
        ("mt19937", 100, 100),
    ],
)
def test_selection_draws_equal_numpys_calls(case, population, n_t):
    # two generations of a stack's draws return numpy's integers and leave
    # every generator in numpy's state; a raw read alone leaves the unread
    # kept half's value as it was.  On a fast shape the stack's PCG64
    # levels that keep no half are read raw; on the others no level is.
    # The named kinds alone make stacks with no level read raw throughout
    # (kept half, MT19937) or with every level falling back (rejection)
    kinds, got = _stack(case)
    expect = _stack(case)[1]
    draws = _SelectionDraws(got, population, n_t)
    whole = case not in ("odd_entrants", "mask_not_whole_outputs")
    assert draws.ready.tolist() == [whole and k in ("raw", "rejection") for k in kinds]
    idx = np.empty((len(got), population, TOURNAMENT), np.int64)
    mask = np.empty((len(got), population // 2, n_t), np.uint8)
    for _ in range(2):
        raw = draws.ready.copy()
        draws.fill(idx, mask)
        for k, rng in enumerate(expect):
            expect_idx, expect_mask = np.empty_like(idx[k]), np.empty_like(mask[k])
            _numpy_selection_draws(rng, expect_idx, expect_mask)
            assert np.array_equal(idx[k], expect_idx), f"level {k}"
            assert np.array_equal(mask[k], expect_mask), f"level {k}"
            state, expect_state = _state(got[k]), _state(rng)
            if raw[k] and draws.ready[k]:
                assert not expect_state["has_uint32"]
                assert state.pop("uinteger") != expect_state.pop("uinteger")
            assert state == expect_state, f"level {k}"
        assert idx.min() >= 0 and idx.max() < population and set(np.unique(mask)) <= {0, 1}
    if population == 100:
        # a redrawn entrant made numpy's calls draw an odd count of halves,
        # so the rejected levels keep one and are no longer read raw
        assert draws.ready.tolist() == [k == "raw" for k in kinds]
    for k, rng in enumerate(expect):
        # the next draws agree, a kept half's 32-bit draw among them
        assert np.array_equal(
            got[k].integers(0, 2**32, size=3, dtype=np.uint32),
            rng.integers(0, 2**32, size=3, dtype=np.uint32),
        )
        assert np.array_equal(got[k].random(4), rng.random(4))


def test_reference_table_equals_numpys_draws(monkeypatch, scenario, reference_lut):
    # the reference table with every tournament and crossover draw made by
    # numpy's own calls is the table the raw-stream draws build
    def numpy_fill(draws, idx, mask):
        for rng, level_idx, level_mask in zip(draws.rngs, idx, mask):
            _numpy_selection_draws(rng, level_idx, level_mask)

    monkeypatch.setattr(_SelectionDraws, "fill", numpy_fill)
    assert lut_sha256(build_scenario_lut(scenario)) == lut_sha256(reference_lut)


def test_reference_build_memory_is_bounded(scenario):
    # the search's two (49, 100, 100) population buffers are 0.5 MB each,
    # and its scoring's float copy of 6 levels 0.5 MB; a copy of the
    # parents and an all-level flips array would add 1.2 MB.  Measured: 2.7 MB
    tracemalloc.start()
    try:
        build_scenario_lut(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6


def _solo_ga(obj, nu, rng):
    """One level's genetic search on its own: the reference the lockstep
    search over many levels must reproduce bit for bit."""
    n, P = obj.dmd.n_rows, obj.spec.population
    pop = rng.integers(0, 2, size=(P, n), dtype=np.uint8)
    pop[0] = 0
    pop[1] = 1
    order = np.argsort(np.abs(np.arange(n) - 0.5 * (n - 1)))
    for s, frac in enumerate((0.25, 0.5, 0.75)):
        if 2 + s < P:
            pop[2 + s] = 0
            pop[2 + s, order[: int(frac * n)]] = 1
    cost = obj.value(pop, nu)[1]
    best, best_cost = pop[np.argmin(cost)].copy(), float(cost.min())
    for _ in range(obj.spec.generations):
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
        ccost = obj.value(children, nu)[1]
        keep = np.argsort(cost)[:ELITE]
        worst = np.argsort(ccost)[::-1][:ELITE]
        children[worst] = pop[keep]
        ccost[worst] = cost[keep]
        pop, cost = children, ccost
        if cost.min() < best_cost:
            best, best_cost = pop[np.argmin(cost)].copy(), float(cost.min())
    return best


def _solo_descend(flip_cost, bits, cost, max_flips=2000, stop=None):
    """One bit vector's steepest single-flip descent on its own."""
    b = bits.copy()
    for _ in range(max_flips):
        if stop is not None and cost <= stop:
            break
        fc = flip_cost(b)
        i = int(np.argmin(fc))
        if fc[i] >= cost - 1e-18:
            break
        b[i] ^= 1
        cost = float(fc[i])
    return b


def _solo_refine(obj, nu, candidates, target_cap):
    """One level's refinement on its own, candidate by candidate: the
    reference the lockstep refinement over many levels must reproduce bit
    for bit.  Returns (bits, achieved, residual, candidates walked)."""
    candidates = [np.asarray(c, dtype=np.uint8) for c in candidates]
    candidates.append(np.zeros(obj.dmd.n_rows, dtype=np.uint8))
    candidates.append(np.ones(obj.dmd.n_rows, dtype=np.uint8))

    def objective(b):
        return _solo_flips(obj, b, nu)[1]

    def distance(b):
        return np.abs(_solo_flips(obj, b, nu)[0] - nu)

    def within_cap(b):
        e0, fc = _solo_flips(obj, b, nu)
        return np.where(np.abs(e0 - nu) <= target_cap, fc, np.inf)

    def miss(b):
        return abs(float(obj.value(b, nu)[0][0]) - nu)

    def cost(b):
        return float(obj.value(b, nu)[1][0])

    best, walked = None, 0
    for c in candidates:
        c = _solo_descend(objective, c, cost(c))
        if miss(c) > target_cap:
            walked += 1
            c = _solo_descend(distance, c, miss(c), stop=0.25 * target_cap)
            c = _solo_descend(within_cap, c, cost(c))
        key = (miss(c) > target_cap, cost(c))
        if best is None or key < best_key:
            best, best_key = c, key
    return best, float(obj.value(best, nu)[0][0]), best_key[1], walked


def test_lockstep_refinement_matches_solo_refinement(fast_obj, fast_dmd, fast_lut):
    # the inner levels of the fast table, refined together and one by one
    obj = fast_obj
    nus = fast_lut.nu_levels[1:-1]
    acc = 0.05 / (fast_lut.n_nu - 1)
    rngs = [np.random.default_rng([SEED, k + 1]) for k in range(len(nus))]
    starts = _ga_minimise(obj, nus, rngs)
    bits, achieved, residual = _refine(obj, nus, starts[:, None], acc)
    for k, nu in enumerate(nus):
        expect = _solo_refine(obj, nu, (starts[k],), acc)
        assert np.array_equal(bits[k], expect[0]), f"level {k + 1}"
        assert achieved[k] == expect[1] and residual[k] == expect[2]
    # a start outside a tight cap, with two seed patterns: the walk onto
    # the target and the capped polish run as well
    seeds = (fast_lut.levels[5], fast_lut.levels[6] ^ (np.arange(fast_dmd.n_rows) % 3 == 0))
    start = _solo_ga(obj, 0.9, np.random.default_rng(9))
    bits, achieved, residual = _refine(obj, [0.9], np.array([[start, *seeds]], np.uint8), 2e-3)
    *expect, walked = _solo_refine(obj, 0.9, (start, *seeds), 2e-3)
    assert walked >= 2
    assert np.array_equal(bits[0], expect[0])
    assert achieved[0] == expect[1] and residual[0] == expect[2]


def _check_lockstep_search(psf, beam, population, generations, n_t):
    # six levels searched together equal their solo searches bit for bit
    spec = LutSpec(population=population, generations=generations)
    obj = PatternObjective(spec, DmdSpec(n_rows=n_t), psf, beam)
    nus = np.array([0.05, 0.3, 0.5, 0.5, 0.77, 0.95])
    got = _ga_minimise(obj, nus, [np.random.default_rng([5, k]) for k in range(len(nus))])
    assert got.shape == (len(nus), n_t) and got.dtype == np.uint8
    for k, nu in enumerate(nus):
        expect = _solo_ga(obj, nu, np.random.default_rng([5, k]))
        assert np.array_equal(got[k], expect), f"level {k}"
    assert _ga_minimise(obj, nus[:0], []).shape == (0, n_t)


def test_lockstep_search_matches_solo_searches(psf, beam):
    # odd population exercises the unpaired parent and numpy's own
    # selection draws, ELITE > 1 the elitism
    _check_lockstep_search(psf, beam, 41, 30, 40)


@pytest.mark.parametrize("population, generations, n_t", [(40, 30, 40), (100, 5, 100)])
def test_lockstep_search_on_raw_draws_matches_solo_searches(psf, beam, population, generations, n_t):
    # even populations take the raw-stream selection draws (the reference
    # table's population and mirrors among them), the solo search numpy's
    # own integers calls
    _check_lockstep_search(psf, beam, population, generations, n_t)


def test_lockstep_search_through_rejected_entrant_draws_matches_solo_searches(psf, beam):
    # levels 1-3 hold a rejected entrant draw in generation 0, 2 and 4 (the
    # last): each rewinds its raw call, draws by numpy's calls, and then
    # keeps a 32-bit half, so it is never read raw again
    P, n_t, generations = 100, 40, 5
    spec = LutSpec(population=P, generations=generations)
    obj = PatternObjective(spec, DmdSpec(n_rows=n_t), psf, beam)
    # 64-bit outputs before a generation's entrants: the first population,
    # then per generation the raw call and the mutation uniforms
    per_generation = P * TOURNAMENT // 2 + P // 2 * n_t // 8 + P * n_t
    hit = _first_rejection(P, 7)

    def stack():
        # (generation, entrant output) of each rejected draw
        starts = [(0, 0), (2, 75), (4, P * TOURNAMENT // 2 - 1)]
        return [np.random.default_rng([5, 0])] + [
            np.random.Generator(
                np.random.PCG64(7).advance(hit - P * n_t // 8 - g * per_generation - j)
            )
            for g, j in starts
        ]

    nus = np.array([0.2, 0.4, 0.6, 0.8])
    rngs = stack()
    got = _ga_minimise(obj, nus, rngs)
    assert [rng.bit_generator.state["has_uint32"] for rng in rngs] == [0, 1, 1, 1]
    for k, (nu, rng) in enumerate(zip(nus, stack())):
        assert np.array_equal(got[k], _solo_ga(obj, nu, rng)), f"level {k}"


def test_elitism_carries_each_levels_lowest_cost(fast_spec, fast_dmd, psf, beam, fast_lut):
    # the search returns the best of its last population and keeps no
    # best-so-far, so only elitism carries the lowest cost seen: on the
    # same generators, one more generation never returns a costlier
    # pattern at any level
    nus = fast_lut.nu_levels
    costs = []
    for generations in range(1, 7):
        obj = PatternObjective(
            dataclasses.replace(fast_spec, generations=generations), fast_dmd, psf, beam
        )
        rngs = [np.random.default_rng([SEED, k]) for k in range(len(nus))]
        costs.append(obj.value(_ga_minimise(obj, nus, rngs)[:, None], nus)[1][:, 0])
    assert np.all(np.diff(costs, axis=0) <= 0)


def test_single_level_solve_of_zero_is_all_off(fast_obj):
    bits, achieved, residual = _solve(fast_obj, 0.0, 1e-3)
    assert not np.any(bits)
    assert achieved == 0.0 and residual == 0.0


def test_single_level_solve_of_half_level(scenario, psf, beam):
    # the full-size search of the reference table section
    obj = PatternObjective(scenario.lut, scenario.dmd, psf, beam)
    _, achieved, residual = _solve(obj, 0.5, 1e-3, scenario.loop.seed)
    assert abs(achieved - 0.5) < 1e-3
    assert residual < 1e-4


def test_target_cap_keeps_achieved_close(fast_obj):
    _, achieved, _ = _solve(fast_obj, 0.9, 5e-3)
    assert abs(achieved - 0.9) <= 5e-3


# ------------------------------------------------------------ the table


def test_two_entry_table_is_the_extremes(fast_spec, fast_dmd, psf, beam):
    lut = build_lut(dataclasses.replace(fast_spec, n_nu=2), fast_dmd, psf, beam, SEED)
    assert not np.any(lut.levels[0])
    assert np.all(lut.levels[1] == 1)
    assert lut.achieved[0] == 0.0
    assert lut.achieved[1] == pytest.approx(1.0, abs=1e-12)
    # the table section is the one rule for the level count; the master
    # seed, which comes without a section, is checked by the build
    with pytest.raises(ValueError, match="n_nu must be >= 2, got 1"):
        dataclasses.replace(fast_spec, n_nu=1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        build_lut(fast_spec, fast_dmd, psf, beam, -1)
    with pytest.raises(TypeError, match="seed must be an integer, got True"):
        build_lut(fast_spec, fast_dmd, psf, beam, True)


def test_fast_table_levels_and_monotonicity(fast_lut):
    nus = np.linspace(0.0, 1.0, 7)
    errs = np.abs(fast_lut.achieved - nus)
    assert np.all(errs <= 4.0 * 0.05 / 6.0)
    assert np.all(np.diff(fast_lut.achieved) >= 0.0)


def test_reference_table_is_monotone(reference_lut):
    ach = reference_lut.achieved
    assert reference_lut.n_nu == 51
    assert np.all(np.diff(ach) >= 0.0)
    assert ach[0] == 0.0 and abs(ach[-1] - 1.0) < 1e-12


def test_perfbench_views_read_the_tables_arrays(reference_lut):
    # perfbench reads the table through its records and achieved_values(),
    # views of the three arrays that nothing else reads
    lut = reference_lut
    records = lut.entries
    assert len(records) == lut.n_nu
    arrays = {"nu": lut.nu_levels, "achieved": lut.achieved, "residual": lut.residual}
    for k, record in enumerate(records):
        for name, values in arrays.items():
            assert float(getattr(record, name)).hex() == float(values[k]).hex()
    ach = lut.achieved_values()
    assert ach is lut.achieved and not ach.flags.writeable
    with pytest.raises(ValueError):
        ach[0] = 1.0


def test_reference_table_stored_values_are_consistent(
    scenario, reference_lut, reference_prepared
):
    # stored achieved values must equal |E(0)| recomputed from the bits
    obj = PatternObjective(scenario.lut, scenario.dmd, scenario.psf, reference_prepared.beam)
    for achieved, bits in zip(reference_lut.achieved, reference_lut.levels):
        again = float(obj.value(bits, 0.0)[0][0])
        assert abs(achieved - again) < 1e-12


def test_build_is_deterministic(fast_spec, fast_dmd, psf, beam, fast_lut):
    again = build_lut(fast_spec, fast_dmd, psf, beam, SEED)
    assert np.array_equal(again.achieved, fast_lut.achieved)
    assert np.array_equal(again.levels, fast_lut.levels)


def test_table_entries_equal_their_solo_solves(fast_obj, fast_lut):
    # every inner entry is exactly its level's search and refinement run
    # alone with the entry's own child seed
    acc = 0.05 / (fast_lut.n_nu - 1)
    for k in range(1, fast_lut.n_nu - 1):
        start = _solo_ga(fast_obj, fast_lut.nu_levels[k], np.random.default_rng([SEED, k]))
        bits, ach, res, _ = _solo_refine(fast_obj, fast_lut.nu_levels[k], (start,), acc)
        assert np.array_equal(bits, fast_lut.levels[k]), f"entry {k}"
        assert ach == fast_lut.achieved[k] and res == fast_lut.residual[k], f"entry {k}"


def test_crossing_table_is_refused(fast_spec, fast_dmd, psf, beam, monkeypatch):
    # the refinement hands back the fast table's entries 2 and 3 swapped:
    # each then misses its target by a table step, which the tolerance
    # refuses before the entries could cross in the table
    refine = inputmap._refine

    def swapped(*args):
        return tuple(a[[0, 2, 1, 3, 4]] for a in refine(*args))

    monkeypatch.setattr(inputmap, "_refine", swapped)
    with pytest.raises(ValueError, match=r"out of tolerance: k=2 .*, k=3 "):
        build_lut(fast_spec, fast_dmd, psf, beam, SEED)


def test_levels_sharing_a_pattern_are_a_hard_error(fast_spec, fast_dmd, psf, beam, monkeypatch):
    # the refinement hands back entry 2's bits for entry 3 as well, with
    # both achieved values in tolerance: the table refuses the shared
    # pattern, which the inversion would read as one level
    refine = inputmap._refine

    def shared(*args):
        bits, achieved, residual = refine(*args)
        bits = bits.copy()
        bits[2] = bits[1]
        return bits, achieved, residual

    monkeypatch.setattr(inputmap, "_refine", shared)
    with pytest.raises(ValueError, match="entries 2 and 3 share one bit pattern"):
        build_lut(fast_spec, fast_dmd, psf, beam, SEED)


def test_unreachable_accuracy_is_a_hard_error(psf, beam):
    # two mirrors achieve |E(0)| = 0, 0.5 and 1 only, so the levels
    # between miss their targets; the table never forms
    spec = LutSpec(n_nu=7, population=8, generations=5)
    with pytest.raises(ValueError, match=r"out of tolerance: k=1 .*, k=5 nu=0.833 "):
        build_lut(spec, DmdSpec(n_rows=2), psf, beam, SEED)


def test_quantisation_error_is_bounded(fast_lut):
    ach = fast_lut.achieved
    worst_entry = np.max(np.abs(ach - np.linspace(0.0, 1.0, fast_lut.n_nu)))
    bound = 0.5 / (fast_lut.n_nu - 1) + worst_entry + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0))
    def check(nu):
        i = int(fast_lut.nearest_index(nu))
        assert abs(ach[i] - nu) <= bound

    check()


# -------------------------------------------------- addressing and i/o


def _toy_lut(n_nu=5, n_t=3, **arrays):
    # synthetic table for addressing tests; by default level k's bits are
    # the binary encoding of k, which keeps the patterns distinct, and its
    # achieved value is its nu; ``arrays`` replaces any of the three
    table = {
        "levels": (np.arange(n_nu)[:, None] >> np.arange(n_t)) & 1,
        "achieved": np.arange(n_nu) / (n_nu - 1),
        "residual": np.zeros(n_nu),
        **arrays,
    }
    return Lut(**table, spec=LutSpec(n_nu=n_nu), pitch=1.0, psf_beam_sha256="0" * 64, seed=0)


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
    expect = lut.nu_levels[idx]
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
    expect = reference_lut.levels[25]
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
    assert np.array_equal(again.achieved, fast_lut.achieved)
    assert np.array_equal(again.levels, fast_lut.levels)


def test_a_table_file_reads_integral_floats_as_counts(tmp_path, fast_lut):
    # a count written as 40.0 reads as a scenario's count does
    # (core.from_json): the table is the same, and it saves integers
    from potshape.inputmap import _lut_to_dict

    d = _lut_to_dict(fast_lut)
    d["lut"] = {key: float(value) for key, value in d["lut"].items()}
    d["n_t"], d["seed"] = float(d["n_t"]), float(d["seed"])
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(d))
    again = load_lut(path)
    assert again.spec == fast_lut.spec and again.n_t == fast_lut.n_t
    assert lut_sha256(again) == lut_sha256(fast_lut)
    save_lut(again, path)
    saved = json.loads(path.read_text())
    counts = [saved["n_t"], saved["seed"]]
    counts += [saved["lut"][key] for key in ("n_nu", "population", "generations")]
    assert all(type(count) is int for count in counts)


def test_table_records_its_search_settings(tmp_path, fast_spec, fast_dmd, psf, beam):
    # two tables that differ only in the search's generations carry their
    # own sections, and each section survives a save and load
    headers = []
    for generations in (2, 10):
        spec = dataclasses.replace(fast_spec, generations=generations)
        lut = build_lut(spec, fast_dmd, psf, beam, SEED)
        assert lut.spec == spec
        path = tmp_path / f"table-{generations}.json"
        save_lut(lut, path)
        assert load_lut(path).spec == spec
        headers.append(json.loads(path.read_text())["lut"])
    assert headers[0] != headers[1]
    assert headers[1] == dataclasses.asdict(dataclasses.replace(fast_spec, generations=10))


def test_load_rejects_malformed_files(tmp_path, fast_lut):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_lut(bad)
    from potshape.inputmap import _lut_to_dict

    d = _lut_to_dict(fast_lut)
    d["lut"]["n_nu"] = 99
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps(d))
    with pytest.raises(ValueError):
        load_lut(mismatched)

    # the first file format, which left out the search settings, is not read
    v1 = {**_lut_to_dict(fast_lut), "format": "potshape-lut-v1"}
    for blob in ("[1, 2]", '"potshape-lut-v1"', json.dumps(v1)):
        bad.write_text(blob)
        with pytest.raises(ValueError, match="not a recognised"):
            load_lut(bad)
    d = _lut_to_dict(fast_lut)
    del d["n_t"]
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="table header lacks 'n_t'"):
        load_lut(bad)
    # the table section is read whole: a missing key is not a default
    d = _lut_to_dict(fast_lut)
    del d["lut"]["population"]
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="table header's 'lut' lacks 'population'"):
        load_lut(bad)
    d["lut"] = [7, 40, 40]
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="table header's 'lut' is not a JSON object"):
        load_lut(bad)
    # a count or seed that is not an integer is refused, not truncated: a
    # truncated seed would break the record of how the table was built;
    # a boolean is neither a count nor a number, and a string is no number;
    # the optics hash is a digest, not any value that prints as a string
    for key, value in (
        ("n_t", None),
        ("seed", None),
        ("pitch", None),
        ("n_t", 3.2),
        ("seed", 7.5),
        ("n_t", "40"),
        ("seed", True),
        ("pitch", True),
        ("pitch", "1.0"),
        ("psf_beam_sha256", None),
        ("psf_beam_sha256", 123),
        ("psf_beam_sha256", [1, 2]),
        ("psf_beam_sha256", {}),
        ("psf_beam_sha256", True),
        ("psf_beam_sha256", "0" * 63),
        ("psf_beam_sha256", "g" * 64),
        ("psf_beam_sha256", fast_lut.psf_beam_sha256.upper()),
    ):
        d = _lut_to_dict(fast_lut)
        d[key] = value
        bad.write_text(json.dumps(d))
        message = f"table header has an invalid '{key}': {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_lut(bad)
    # the pitch must be > 0 and the seed >= 0
    for key, value in (("pitch", float("nan")), ("pitch", -1.0), ("pitch", 0.0), ("seed", -1)):
        d = _lut_to_dict(fast_lut)
        d[key] = value
        bad.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"table header has an invalid '{key}': {value!r}$"):
            load_lut(bad)
    # the table section passes LutSpec's rule: counts are integers, not
    # booleans, n_nu and the population >= 2, the generations >= 1, and
    # the penalty's reach and weight finite and >= 0
    for key, value in (
        ("n_nu", fast_lut.n_nu + 0.9),
        ("n_nu", 1),
        ("population", 1),
        ("generations", 2.5),
        ("generations", True),
        ("generations", 0),
        ("dy", -1.0),
        ("dy", float("inf")),
        ("gamma_perp", -0.3),
        ("gamma_perp", float("nan")),
    ):
        d = _lut_to_dict(fast_lut)
        d["lut"][key] = value
        bad.write_text(json.dumps(d))
        message = f"table header has an invalid 'lut': {d['lut']!r}"
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            load_lut(bad)
        assert str(caught.value.__cause__).startswith(f"{key} must be")
    d = _lut_to_dict(fast_lut)
    d["entries"] = {"0": d["entries"][0]}
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="entries are not a JSON list"):
        load_lut(bad)

    for edit, match in (
        (lambda es: es[3].pop("bits"), "entry 3 lacks 'bits'"),
        (lambda es: es.pop(), r"\(7, n_t\) array of 0/1 bits, one entry a row"),
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
    # the hash moves with the transversal values the table's weights read,
    # and with nothing else
    psf, beam = PsfModel(), BeamProfile()
    h0 = psf_beam_hash(psf, beam)
    assert h0 == psf_beam_hash(PsfModel(), BeamProfile())
    for other_psf, other_beam in (
        (PsfModel(w_y=9.0), beam),
        (PsfModel(gy_zero_cut=5), beam),
        (psf, BeamProfile(sigma_y=15.0)),
    ):
        assert psf_beam_hash(other_psf, other_beam) != h0
    # two beams of one width, calibrated to different headrooms
    low, high = (calibrate_beam(psf, beam, 100, 1.0, 50.0, 1.0, h) for h in (1, 2))
    assert low.amplitude != high.amplitude
    for other_psf, other_beam in (
        (PsfModel(w_y=8), BeamProfile(sigma_y=13)),
        (PsfModel(sigma_z=3.0), beam),
        (psf, BeamProfile(sigma_z=200.0)),
        (psf, low),
        (psf, high),
    ):
        assert psf_beam_hash(other_psf, other_beam) == h0
