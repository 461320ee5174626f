"""Mapping virtual column inputs to binary transversal mirror patterns.

Each micromirror column carries a virtual input nu in [0, 1], the
normalised on-axis field the column should produce.  Because mirrors are
binary, nu is realised by choosing which of the n_t mirrors in the column
are on.  The choice is posed as a penalised least-squares problem

    J(b) = (|E(0)| - nu)^2
           + gamma_perp * int_{-dy}^{+dy} (|E(eta)| - nu)^2 d eta

where E(y) is the normalised transversal field of the bit vector b; the
penalty keeps the field flat across the central +-dy band so the achieved
value is robust against small alignment errors.  J is minimised per nu by
a seeded genetic algorithm followed by greedy single-bit-flip descent,
and the results are cached in a monotone look-up table (LUT) that the
closed loop queries by nearest-neighbour quantisation.

A table build runs the genetic searches of all its inner levels in
lockstep, one array operation per generation step across every level,
and then refines all levels in lockstep too, every level's candidates
moving one flip per step.  Each level keeps its own random stream, and
the costs of a stack are scored by stacked products that call BLAS once
per level's matrix or per row, with the shape a single-level call uses,
so every value equals its single-level value bit for bit.
A generation touches each level's generator twice: one raw PCG64 call
holds its tournament and crossover draws, which whole-stack array
operations turn into exactly the values numpy's ``integers`` would draw,
and ``random`` draws its mutation uniforms.  numpy's own calls draw the
tournament and crossover for another bit generator, a kept 32-bit half,
an odd number of entrants, a mask of part of a 64-bit output, or after
rewinding a raw call that holds a rejected entrant draw.

Refinement is one single-bit-flip descent over a stack of bit rows; the
polish, the walk onto the target and the capped polish differ only in
the per-flip cost they hand it (inf for a flip they do not allow).

A build reads the scenario's own sections, each checked once by its
class: the table section :class:`LutSpec`, defined here, and the
mirror-array section :class:`optics.DmdSpec`, whose ``n_rows`` mirrors
make a column and whose pitch samples the penalty band.  The master seed
is the one setting that arrives without a section.  The table keeps its
section (``Lut.spec``), and its file stores the section whole.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import BLOCK_BYTES, RealField1D, as_index, as_real, check_index, check_real, from_json
from .optics import BeamProfile, DmdPattern, DmdSpec, PsfModel, column_grid, transversal_weights

__all__ = [
    "LutSpec",
    "PatternObjective",
    "Lut",
    "build_lut",
    "map_virtual_input",
    "invert_pattern",
    "lut_sha256",
    "save_lut",
    "load_lut",
]


# Genetic search: entrants per tournament, parents kept per generation, and
# bits a mutation flips per child on average (flip rate MUTATIONS / n_t).
TOURNAMENT = 3
ELITE = 2
MUTATIONS = 2.0


@dataclass(frozen=True)
class LutSpec:
    """The table section of a scenario: ``n_nu`` levels, the penalty's
    weight ``gamma_perp`` and half width ``dy``, and the genetic search's
    population and generations.  The penalty integral is sampled at
    round(2 dy / pitch) + 1 evenly spaced points across [-dy, +dy], about
    a mirror pitch apart, and evaluated with the trapezoid weights of that
    spacing (zero at dy = 0); the search's other settings are the module
    constants TOURNAMENT, ELITE and MUTATIONS."""

    n_nu: int = 51
    gamma_perp: float = 0.3
    dy: float = 4.0
    population: int = 100
    generations: int = 200

    def __post_init__(self):
        check_index(self, "n_nu", "population", low=2)
        check_index(self, "generations", low=1)
        check_real(self, "gamma_perp", "dy", low=0)


class PatternObjective:
    """Precomputed weights for fast evaluation of the column objective of
    the table section ``spec`` on the ``dmd.n_rows`` mirrors of a column;
    its two products, :meth:`value` and :meth:`flips`, each return the
    on-axis field |E(0)| with the objective."""

    def __init__(self, spec: LutSpec, dmd: DmdSpec, psf: PsfModel, beam: BeamProfile):
        self.spec = spec
        self.dmd = dmd
        pitch = dmd.pixel_pitch
        n_pen = int(round(2.0 * spec.dy / pitch)) + 1
        self.y_pen = np.linspace(-spec.dy, spec.dy, n_pen)
        w = transversal_weights(psf, beam, dmd.n_rows, pitch, self.y_pen)
        w0 = transversal_weights(psf, beam, dmd.n_rows, pitch, [0.0])[0]
        norm = w0.sum()
        if norm <= 0:
            raise ValueError("all-ones normalisation field is non-positive")
        self.w0 = w0 / norm
        self.w_pen = w / norm
        # trapezoid weights for the penalty integral over the samples' own
        # spacing, scaled by gamma_perp; one sample (dy = 0) weighs nothing
        half_step = 0.5 * np.diff(self.y_pen)
        tw = np.zeros(n_pen)
        tw[:-1] += half_step
        tw[1:] += half_step
        self.pen_weights = spec.gamma_perp * tw

    def value(self, bits: np.ndarray, nu) -> tuple:
        """|E(0)| and objective of a single bit vector or of the rows of a
        (P, n_t) matrix at one ``nu``, or of an (m, P, n_t) stack of
        matrices with one ``nu`` per matrix (shape (m,)); returns two
        arrays, one value per row each.

        numpy's stacked products call BLAS once per matrix of the stack, so
        a matrix's values equal those of its own call bit for bit; one flat
        (m * P, n_t) product would not, and could change an argmin.  A
        (K, 1, n_t) stack makes every row its own (1, n_t) product.
        """
        b = np.atleast_2d(bits).astype(float)
        nu = np.asarray(nu, dtype=float)[..., None]
        e0 = np.abs(b @ self.w0)
        ep = np.abs(b @ self.w_pen.T)
        pen = ((ep - nu[..., None]) ** 2) @ self.pen_weights
        return e0, (e0 - nu) ** 2 + pen

    def flips(self, bits: np.ndarray, nu) -> tuple:
        """|E(0)| and objective after each single-bit flip of each row of a
        (K, n_t) bit stack, at one ``nu`` per row (shape (K,)).

        Returns two (K, n_t) arrays; entry [k, i] belongs to row k with bit
        i flipped.  Each row's products are its own (1, n_t) slices of a
        (K, 1, n_t) stack, so its values do not depend on the other rows.
        """
        b = bits.astype(float)[:, None, :]
        nu = np.asarray(nu, dtype=float)[..., None]
        sign = 1.0 - 2.0 * b[:, 0]  # +1 where a bit turns on, -1 where it turns off
        e0_f = np.abs(b @ self.w0 + sign * self.w0)
        # the (K, n_t, n_pen) fields after each flip, worked on in place so
        # that the largest array of the call exists once
        ep_f = sign[:, :, None] * self.w_pen.T
        ep_f += b @ self.w_pen.T
        np.abs(ep_f, out=ep_f)
        ep_f -= nu[..., None]
        np.square(ep_f, out=ep_f)
        return e0_f, (e0_f - nu) ** 2 + ep_f @ self.pen_weights


class _SelectionDraws:
    """A search's tournament and crossover draws, one generation at a time.

    :meth:`fill` fills each level k's entrants ``idx[k]``, (P, TOURNAMENT)
    int64, and mask ``mask[k]``, (P // 2, n_t) uint8, from its generator
    ``rngs[k]`` bit for bit as ``rng.integers(0, P, idx[k].shape)`` and
    then ``rng.integers(0, 2, mask[k].shape, dtype=np.uint8)`` fill them,
    and leaves each generator where those calls leave it.

    numpy draws an integer below P by Lemire's method (ACM TOMACS 29(1),
    2019) from a 32-bit draw u: the value is (u * P) >> 32, and u is drawn
    again while (u * P) mod 2**32 < (2**32 - P) mod P.  It takes an integer
    in [0, 2) of dtype uint8 as the top bit of a byte of a 32-bit draw, the
    draw's four bytes low first.  PCG64 makes two 32-bit draws from each
    64-bit output, low half first, and keeps an unused high half for the
    next 32-bit draw (``state["has_uint32"]``).  So for a PCG64 generator
    that keeps no half, an even number of entrants (fewer than 2**31, so
    u * P fits an int64) and a mask of whole 64-bit outputs, one
    ``random_raw`` call holds every draw in order, unless it holds a
    rejected entrant draw.  Each such level makes that call into its row of
    one buffer, and one array operation over the buffer gives every level's
    entrants, rejection test or masks.  A level whose call holds a rejected
    draw is rewound (the stream's period is 2**128) and makes numpy's
    calls, as does a level that cannot be read raw.  Only numpy's calls can
    leave a kept half, so a level's state is read once and then only after
    them.  The raw call leaves ``state["uinteger"]``, the kept half's
    value, as it was (0 after a rewind), where numpy's calls leave their
    last high half; no draw reads that value while ``has_uint32`` is 0.
    """

    def __init__(self, rngs, population: int, n_t: int):
        P, n_pairs = population, population // 2
        self.rngs = list(rngs)
        self.half = P * TOURNAMENT // 2
        self.raw = np.zeros((len(self.rngs), self.half + n_pairs * n_t // 8), dtype="<u8")
        self.whole = P % 2 == 0 and n_pairs * n_t % 8 == 0 and P < 2**31
        self.ready = np.array([self._reads_raw(rng) for rng in self.rngs], dtype=bool)

    def _reads_raw(self, rng) -> bool:
        bg = rng.bit_generator
        return self.whole and type(bg) is np.random.PCG64 and not bg.state["has_uint32"]

    def fill(self, idx: np.ndarray, mask: np.ndarray) -> None:
        P, count, half = idx.shape[1], self.raw.shape[1], self.half
        redo = ~self.ready
        if self.ready.any():
            for k in np.flatnonzero(self.ready).tolist():
                self.raw[k] = self.rngs[k].bit_generator.random_raw(count)
            # little-endian views: each output's low half and low byte first
            np.multiply(self.raw[:, :half].view("<u4").reshape(idx.shape), np.int64(P), out=idx)
            redo |= ((idx & 0xFFFFFFFF) < (2**32 - P) % P).any(axis=(1, 2))
            idx >>= 32
            np.right_shift(self.raw[:, half:].view(np.uint8).reshape(mask.shape), 7, out=mask)
        for k in np.flatnonzero(redo).tolist():
            rng = self.rngs[k]
            if self.ready[k]:
                rng.bit_generator.advance(2**128 - count)
            idx[k] = rng.integers(0, P, size=idx.shape[1:])
            mask[k] = rng.integers(0, 2, size=mask.shape[1:], dtype=np.uint8)
            self.ready[k] = self._reads_raw(rng)


def _ga_minimise(obj: PatternObjective, nus, rngs) -> np.ndarray:
    """Genetic search for every level in ``nus`` at once; returns (m, n_t) bits.

    The levels run in lockstep: each level draws from its own generator,
    in the same order as a search run alone (tournament indices,
    crossover mask, mutation uniforms), and touches it twice a generation:
    :class:`_SelectionDraws` reads its indices and mask from one raw PCG64
    call, as exactly the values numpy's ``integers`` calls would draw, and
    makes those calls where it cannot; the uniforms are ``rng.random``'s.
    A generation's costs are scored for all levels by stacked
    ``obj.value`` calls, one BLAS call per level's (P, n_t) matrix as in a
    search run alone, so every level's result equals its solo search bit
    for bit.  The stack is scored in blocks of as many levels as keep the
    float copy of their populations within :data:`core.BLOCK_BYTES` (6
    levels, 480 KB, for the reference table's 100 x 100 population).
    Selection, crossover and elitism are array operations
    across all levels: the tournament winners are gathered straight into
    the children's buffer, which the pairs then cross over in place, and
    each level's mutation flips, one (P, n_t) row reused, are applied as
    soon as its uniforms are drawn.  The generations alternate between two
    population buffers that the search allocates once.  Elitism carries
    the lowest cost seen, so each level returns the first lowest-cost
    pattern of its last population.
    """
    spec = obj.spec
    m, P, n = len(nus), spec.population, obj.dmd.n_rows
    nus = np.asarray(nus, dtype=float)
    block = max(1, BLOCK_BYTES // (8 * P * n))

    def score(pop, out):
        for s in range(0, m, block):
            out[s : s + block] = obj.value(pop[s : s + block], nus[s : s + block])[1]

    n_pairs = P // 2
    level = np.arange(m)
    rows = level[:, None]
    # each level's winners land in its children as the odd picks, the even
    # picks and the unpaired tail, so that the pairs cross over in place
    by_pair = (rows * P + np.r_[1 : 2 * n_pairs : 2, 0 : 2 * n_pairs : 2, 2 * n_pairs : P]).ravel()
    pop = np.empty((m, P, n), dtype=np.uint8)
    for k, rng in enumerate(rngs):
        pop[k] = rng.integers(0, 2, size=(P, n), dtype=np.uint8)
    # seed with the extremes and a couple of centre-out fills; these are
    # good starting points across the whole nu range
    pop[:, 0] = 0
    pop[:, 1] = 1
    order = np.argsort(np.abs(np.arange(n) - 0.5 * (n - 1)))
    for s, frac in enumerate((0.25, 0.5, 0.75)):
        if 2 + s < P:
            pop[:, 2 + s] = 0
            pop[:, 2 + s, order[: int(frac * n)]] = 1
    cost = np.empty((m, P))
    score(pop, cost)
    rate = MUTATIONS / n
    draws = _SelectionDraws(rngs, P, n)
    idx = np.empty((m, P, TOURNAMENT), dtype=np.int64)
    flat = idx.reshape(m * P, TOURNAMENT)
    offsets = (level * P)[:, None, None]
    mask = np.empty((m, n_pairs, n), dtype=np.uint8)
    flips = np.empty((P, n), dtype=bool)
    uniform = np.empty((P, n))
    children = np.empty_like(pop)
    ccost = np.empty_like(cost)
    for _ in range(spec.generations):
        draws.fill(idx, mask)
        # tournament selection, gathered through flat indices
        idx += offsets
        picks = np.argmin(cost.ravel()[flat], axis=1)
        # every index is in range; "clip" spares the copy of out that "raise" makes
        winners = flat[by_pair, picks[by_pair]]
        np.take(pop.reshape(m * P, n), winners, axis=0, out=children.reshape(m * P, n), mode="clip")
        # uniform crossover of each pair (a, b) of consecutive winners, in
        # place: with s = (a ^ b) & mask the odd pick b becomes b ^ s and
        # the even pick a becomes a ^ s
        b, a = children[:, :n_pairs], children[:, n_pairs : 2 * n_pairs]
        a ^= b
        mask &= a
        b ^= mask
        a ^= b
        # bit-flip mutation, each level's uniforms drawn after its selection draws
        for k, rng in enumerate(rngs):
            np.less(rng.random(out=uniform), rate, out=flips)
            children[k] ^= flips.view(np.uint8)
        score(children, ccost)
        # elitism: keep the best of the previous generation
        keep = np.argsort(cost, axis=1)[:, :ELITE]
        worst = np.argsort(ccost, axis=1)[:, ::-1][:, :ELITE]
        children[rows, worst] = pop[rows, keep]
        ccost[rows, worst] = cost[rows, keep]
        # the spent buffers take the next generation's children and costs
        pop, children = children, pop
        cost, ccost = ccost, cost
    return pop[level, np.argmin(cost, axis=1)]


_MAX_FLIPS = 2000


def _descend(flip_cost, bits: np.ndarray, nu, cost, stop=None):
    """Steepest descent by single-bit flips of every row of a (K, n_t) bit
    stack in lockstep; returns the final bits.

    ``flip_cost(b, nu)`` gives the cost after each single flip of each row
    of ``b`` at that row's target ``nu`` (inf for a flip the caller does
    not allow), and ``cost`` is the cost of each row of ``bits``.  A row
    takes its best flip while that lowers its cost by more than 1e-18, for
    at most _MAX_FLIPS flips, and stops early once its cost is at or
    below ``stop``.  Only the rows still descending are evaluated, and a
    row's flip costs do not depend on the other rows
    (:meth:`PatternObjective.flips`), so every row ends where its descent
    run alone ends.
    """
    b = bits.copy()
    cost = np.array(cost, dtype=float)
    live = np.arange(len(b))
    for _ in range(_MAX_FLIPS):
        if stop is not None:
            live = live[cost[live] > stop]
        if not live.size:
            break
        fc = flip_cost(b[live], nu[live])
        i = np.argmin(fc, axis=1)
        new = fc[np.arange(live.size), i]
        down = new < cost[live] - 1e-18
        live, i = live[down], i[down]
        b[live, i] ^= 1
        cost[live] = new[down]
    return b


def _refine(obj: PatternObjective, nus, candidates: np.ndarray, target_cap):
    """Polish the candidates of every level in lockstep and return each
    level's best as (bits, achieved, residual), arrays over the levels.

    ``candidates`` is an (m, C, n_t) stack, C candidates for each of the m
    levels ``nus``; the all-off and all-on patterns join each level's
    candidates.  Every candidate is polished; one outside ``target_cap`` is
    then walked onto its target and re-polished among cap-respecting
    flips.  Each phase is one :func:`_descend` over all the candidates it
    moves.  Per level, candidates inside the cap win over those outside
    it, then the lower objective value wins, and ties keep the first, so
    a level whose candidates all miss the cap keeps its lowest value.
    One :meth:`PatternObjective.value` call gives a stack's fields and
    values, the final stack's for the selection and the winners alike.

    The cap is the table's accuracy: near the extremes the unconstrained
    optimum trades a few 1e-3 of on-axis accuracy against the beam-envelope
    droop across the penalty band, the better objective value but useless
    for a table addressed by its achieved levels.
    """
    m, _, n = candidates.shape
    ends = np.broadcast_to(np.arange(2, dtype=np.uint8)[:, None], (m, 2, n))
    stack = np.concatenate([candidates, ends], axis=1)
    C = stack.shape[1]
    b = stack.reshape(-1, n)
    nu = np.repeat(np.asarray(nus, dtype=float), C)

    def value(b, nu):
        e0, cost = obj.value(b[:, None], nu)
        return e0[:, 0], cost[:, 0]

    def objective(b, nu):
        return obj.flips(b, nu)[1]

    def distance(b, nu):
        return np.abs(obj.flips(b, nu)[0] - nu[:, None])

    def within_cap(b, nu):
        e0, fc = obj.flips(b, nu)
        return np.where(np.abs(e0 - nu[:, None]) <= target_cap, fc, np.inf)

    b = _descend(objective, b, nu, value(b, nu)[1])
    miss = np.abs(value(b, nu)[0] - nu)
    out = np.flatnonzero(miss > target_cap)
    walk, wnu = b[out], nu[out]
    walk = _descend(distance, walk, wnu, miss[out], stop=0.25 * target_cap)
    b[out] = _descend(within_cap, walk, wnu, value(walk, wnu)[1])
    e0, val = (a.reshape(m, C) for a in value(b, nu))
    # inside the cap before outside it, then the lower value; the stable
    # sort keeps the first of equal candidates
    pick = np.lexsort((val, np.abs(e0 - nu.reshape(m, C)) > target_cap), axis=1)[:, 0]
    level = np.arange(m)
    return b.reshape(m, C, n)[level, pick], e0[level, pick], val[level, pick]


@dataclass(frozen=True, eq=False)
class Lut:
    """Monotone table nu_k = k / (n_nu - 1) -> column pattern.

    The table is its three arrays, each a read-only copy with row or
    element k for level k: ``levels``, the (n_nu, n_t) uint8 bits, index 0
    at the most negative y; ``achieved``, the |E(0)| each row achieves;
    and ``residual``, each row's objective value.  The targets
    ``nu_levels`` = k / (n_nu - 1) and the row length ``n_t`` are derived,
    not stored.  A ValueError refuses levels that are not ``spec.n_nu``
    rows of 0/1 bits, two rows with one pattern, which
    :func:`invert_pattern` could not tell apart, an ``achieved`` or
    ``residual`` not ``spec.n_nu`` long, and an ``achieved`` that
    decreases from one entry to the next or holds NaN: the table is a
    monotone map from nu to the field its patterns achieve.  It also
    refuses what :func:`load_lut` would refuse in the table's file: an
    ``achieved`` or ``residual`` value that is not finite, a pitch that
    is not a finite number above 0, a seed that is not an integer >= 0
    and a psf/beam hash that is not 64 lowercase hex digits.  Given the
    scenario's psf and beam, whose transversal values
    :func:`psf_beam_hash` checks, the header records everything needed to
    recompute the table: the section ``spec`` that built it, the pitch
    and the master seed.  Tables hold
    arrays, so they compare by identity.  :attr:`entries` and
    :meth:`achieved_values` are views kept only for perfbench."""

    levels: np.ndarray
    achieved: np.ndarray
    residual: np.ndarray
    spec: LutSpec
    pitch: float
    psf_beam_sha256: str
    seed: int
    nu_levels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_nu = self.n_nu
        bits = np.asarray(self.levels)
        if bits.ndim != 2 or len(bits) != n_nu or not np.all((bits == 0) | (bits == 1)):
            raise ValueError(f"levels must be a ({n_nu}, n_t) array of 0/1 bits, one entry a row")
        arrays = {"levels": bits.astype(np.uint8), "nu_levels": np.linspace(0.0, 1.0, n_nu)}
        for name in ("achieved", "residual"):
            arrays[name] = np.array(getattr(self, name), dtype=float)
            if arrays[name].shape != (n_nu,):
                raise ValueError(f"{name} must hold {n_nu} values, one an entry")
        for name, values in arrays.items():
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        first = {}
        for k, row in enumerate(self.levels):
            j = first.setdefault(row.tobytes(), k)
            if j != k:
                raise ValueError(f"entries {j} and {k} share one bit pattern")
        rises = np.diff(self.achieved) >= 0
        if not rises.all():
            raise ValueError(f"achieved value decreases at entry {np.argmin(rises) + 1}")
        for name in ("achieved", "residual"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} values must be finite")
        check_real(self, "pitch", above=0)
        check_index(self, "seed", low=0)
        _digest(self.psf_beam_sha256, "psf_beam_sha256")

    @property
    def n_nu(self) -> int:
        return self.spec.n_nu

    @property
    def n_t(self) -> int:
        return self.levels.shape[1]

    def nearest_index(self, nu) -> np.ndarray:
        """Nearest table index for values in [0, 1]; exact ties round down.

        A value outside [0, 1], NaN included, is a ValueError."""
        nu = np.asarray(nu, dtype=float)
        if not np.all((nu >= -1e-12) & (nu <= 1.0 + 1e-12)):
            raise ValueError("virtual input out of [0, 1]")
        x = np.clip(nu, 0.0, 1.0) * (self.n_nu - 1)
        return np.ceil(x - 0.5).astype(int)

    @property
    def entries(self) -> np.recarray:
        """Record k holds level k's ``nu``, ``achieved`` and ``residual``;
        perfbench reads it until the benchmark reads the arrays."""
        arrays = (self.nu_levels, self.achieved, self.residual)
        return np.rec.fromarrays(arrays, names="nu,achieved,residual")

    def achieved_values(self) -> np.ndarray:
        """:attr:`achieved`; perfbench reads it until the benchmark reads the array."""
        return self.achieved


def psf_beam_hash(psf: PsfModel, beam: BeamProfile) -> str:
    """SHA-256 of all that a table's bits read of the optics (through
    :func:`optics.transversal_weights`): the psf's ``w_y`` and
    ``gy_zero_cut`` and the beam's ``sigma_y``, as their classes store
    them.  Neither ``sigma_z`` nor the amplitude changes a bit."""
    values = [psf.w_y, psf.gy_zero_cut, beam.sigma_y]
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def build_lut(spec: LutSpec, dmd: DmdSpec, psf: PsfModel, beam: BeamProfile, seed: int) -> Lut:
    """Solve the column problems of all ``spec.n_nu`` levels for the
    ``dmd.n_rows`` mirrors of a column and assemble the monotone table.

    Entry k targets nu_k = k / (n_nu - 1).  The extreme entries are pinned
    to the all-off and all-on patterns: all-off is the exact optimum and
    all-on anchors the normalisation at achieved = 1.  Every other entry
    gets its own deterministic child seed ``[seed, k]``; the master
    ``seed`` is a non-negative integer.  Their genetic searches run
    together in lockstep and the results are refined together
    (:func:`_refine`), so an entry equals its level's search and
    refinement run alone on ``default_rng([seed, k])`` bit for bit,
    whatever the number of levels.

    The per-entry accuracy cap on |achieved - nu_k| is 0.05 / (n_nu - 1),
    a twentieth of the table step.  Entries worse than four caps are a
    ValueError naming the scenario keys that set them (``dmd.n_rows`` and
    the ``lut`` section): a table that cannot realise its own levels would
    silently bias the closed loop.  The same bound keeps the table
    monotone and its patterns distinct: entries within four caps, a fifth
    of a step, of targets one step apart can neither cross nor share a
    pattern.
    The build's bits, achieved values and residuals are the table's three
    arrays; its nu and ``n_t`` are derived.  One
    :meth:`PatternObjective.value` call scores both pinned ends.
    """
    seed = as_index(seed, "seed", low=0)
    n_nu = spec.n_nu
    acc = 0.05 / (n_nu - 1)
    obj = PatternObjective(spec, dmd, psf, beam)
    nus = np.linspace(0.0, 1.0, n_nu)
    levels = np.zeros((n_nu, dmd.n_rows), dtype=np.uint8)
    levels[-1] = 1
    achieved, residual = np.zeros((2, n_nu))
    ends = [0, n_nu - 1]
    e0, cost = obj.value(levels[ends][:, None], nus[ends])
    achieved[ends], residual[ends] = e0[:, 0], cost[:, 0]
    rngs = [np.random.default_rng([seed, k]) for k in range(1, n_nu - 1)]
    starts = _ga_minimise(obj, nus[1:-1], rngs)
    levels[1:-1], achieved[1:-1], residual[1:-1] = _refine(obj, nus[1:-1], starts[:, None], acc)
    bad = [k for k in range(n_nu) if abs(achieved[k] - nus[k]) > 4.0 * acc]
    if bad:
        raise ValueError(
            "table entries out of tolerance: "
            + ", ".join(f"k={k} nu={nus[k]:.3f} achieved={achieved[k]:.6f}" for k in bad)
            + f"; the scenario's dmd.n_rows = {dmd.n_rows} mirrors a column cannot realise"
            f" its lut section's {n_nu} levels to within {4.0 * acc:.3g} each"
        )
    return Lut(
        levels=levels,
        achieved=achieved,
        residual=residual,
        spec=spec,
        pitch=dmd.pixel_pitch,
        psf_beam_sha256=psf_beam_hash(psf, beam),
        seed=seed,
    )


def map_virtual_input(nu: RealField1D, lut: Lut) -> DmdPattern:
    """Quantise per-column virtual inputs to table entries, assemble bits."""
    idx = lut.nearest_index(nu.values)
    return DmdPattern(bits=lut.levels[idx].T, pixel_pitch=lut.pitch)


def invert_pattern(pattern: DmdPattern, lut: Lut) -> RealField1D:
    """Recover the quantised virtual input of a pattern built from the table.

    Every column must match a table entry bit for bit; anything else
    raises, because it cannot have come from :func:`map_virtual_input`.
    """
    lookup = {row.tobytes(): nu for row, nu in zip(lut.levels, lut.nu_levels)}
    values = np.empty(pattern.n_l)
    for j in range(pattern.n_l):
        key = np.ascontiguousarray(pattern.bits[:, j]).tobytes()
        if key not in lookup:
            raise ValueError(f"column {j} does not match any table entry")
        values[j] = lookup[key]
    return RealField1D(grid=column_grid(pattern.n_l, pattern.pixel_pitch), values=values)


def _lut_to_dict(lut: Lut) -> dict:
    return {
        "format": "potshape-lut-v2",
        "lut": asdict(lut.spec),
        "n_t": lut.n_t,
        "pitch": lut.pitch,
        "psf_beam_sha256": lut.psf_beam_sha256,
        "seed": lut.seed,
        "entries": [
            {"nu": nu, "bits": (row + ord("0")).tobytes().decode(), "achieved": ach, "residual": res}
            for nu, row, ach, res in zip(
                lut.nu_levels.tolist(), lut.levels, lut.achieved.tolist(), lut.residual.tolist()
            )
        ],
    }


def lut_sha256(lut: Lut) -> str:
    """SHA-256 of the table's file content, independent of key order."""
    blob = json.dumps(_lut_to_dict(lut), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_lut(lut: Lut, path) -> None:
    with open(path, "w") as fh:
        json.dump(_lut_to_dict(lut), fh, indent=1)
        fh.write("\n")


_LUT_HEADER_KEYS = ("lut", "n_t", "pitch", "psf_beam_sha256", "seed", "entries")
_LUT_SPEC_KINDS = {f.name: f.type for f in fields(LutSpec)}
_LUT_ENTRY_KEYS = ("nu", "bits", "achieved", "residual")


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def _bits(text, key: str) -> np.ndarray:
    if not isinstance(text, str) or not set(text) <= {"0", "1"}:
        raise ValueError(f"{key} must be a string of 0 and 1 characters")
    return np.frombuffer(text.encode(), np.uint8) - ord("0")


def _digest(text, key: str) -> str:
    if not isinstance(text, str) or len(text) != 64 or not set(text) <= set("0123456789abcdef"):
        raise ValueError(f"{key} must be a SHA-256 hex digest")
    return text


def _field(obj: dict, key: str, what: str, convert=as_real, **bounds):
    """``convert(obj[key], key, **bounds)``, a finite float by default
    (:func:`core.as_real`); a value that does not convert is a ValueError
    naming ``what`` and the key."""
    try:
        return convert(obj[key], key, **bounds)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} has an invalid {key!r}: {obj[key]!r}") from exc


def load_lut(path) -> Lut:
    """Read a table written by :func:`save_lut`.

    Refuses with a ValueError naming the fault a file that is not a
    ``potshape-lut-v2`` JSON object, lacks a header key, a key of its
    ``lut`` section or an entry field, holds a field of the wrong type or
    out of its range (the ``lut`` section as :class:`LutSpec` checks it;
    numbers finite and not booleans, stored as floats; counts integers,
    100.0 among them (:func:`core.from_json`, as a scenario reads them);
    the pitch > 0; the seed >= 0; the psf/beam hash 64 lowercase hex
    digits, as :func:`psf_beam_hash` writes it), or whose entries do not
    form a table the closed loop can address: a count other than the
    section's ``n_nu``, a bit string of the wrong length, a ``nu`` off the
    grid k / (n_nu - 1) that :meth:`Lut.nearest_index` assumes, or
    decreasing achieved values or two entries with one bit pattern, which
    :class:`Lut` refuses.  The format stays
    ``potshape-lut-v2``, but the table keeps only the entries' bits,
    achieved values and residuals; it derives ``n_t`` and nu again.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != "potshape-lut-v2":
        raise ValueError("not a recognised look-up table file")
    _require_keys(data, _LUT_HEADER_KEYS, "table header")
    _require_keys(data["lut"], _LUT_SPEC_KINDS, "table header's 'lut'")
    if not isinstance(data["entries"], list):
        raise ValueError("table entries are not a JSON list")
    for k, e in enumerate(data["entries"]):
        _require_keys(e, _LUT_ENTRY_KEYS, f"entry {k}")
    rows = [_field(e, "bits", f"entry {k}", _bits) for k, e in enumerate(data["entries"])]
    numbers = [
        [_field(e, key, f"entry {k}") for key in ("nu", "achieved", "residual")]
        for k, e in enumerate(data["entries"])
    ]
    data["lut"] = {k: from_json(_LUT_SPEC_KINDS.get(k, ""), v) for k, v in data["lut"].items()}
    data["n_t"], data["seed"] = from_json("int", data["n_t"]), from_json("int", data["seed"])
    spec = _field(data, "lut", "table header", lambda section, key: LutSpec(**section))
    n_t = _field(data, "n_t", "table header", as_index, low=1)
    for k, (row, (nu, _, _)) in enumerate(zip(rows, numbers)):
        if len(row) != n_t:
            raise ValueError(f"entry {k} has {len(row)} bits, header says n_t = {n_t}")
        if abs(nu - k / (spec.n_nu - 1)) > 1e-12:
            raise ValueError(f"entry {k} has nu = {nu!r}, not {k}/{spec.n_nu - 1}")
    _, achieved, residual = np.array(numbers).reshape(-1, 3).T
    return Lut(
        levels=np.array(rows),
        achieved=achieved,
        residual=residual,
        spec=spec,
        pitch=_field(data, "pitch", "table header", above=0),
        psf_beam_sha256=_field(data, "psf_beam_sha256", "table header", _digest),
        seed=_field(data, "seed", "table header", as_index, low=0),
    )
