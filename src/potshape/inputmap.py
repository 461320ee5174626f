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
and then refines each level on its own.  Each level keeps its own random
stream and its own cost evaluations, so an entry is bit-identical to a
:func:`solve_pattern` call for that level with the entry's child seed.

Refinement is one single-bit-flip descent; the polish, the walk onto the
target, the capped polish and the monotone repair's lift differ only in
the per-flip cost they hand it (inf for a flip they do not allow).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import RealField1D, as_index, as_real, check_index, check_real
from .optics import BeamProfile, DmdPattern, PsfModel, column_grid, transversal_weights

__all__ = [
    "TransversalPattern",
    "OptimizerConfig",
    "PatternObjective",
    "LutEntry",
    "Lut",
    "solve_pattern",
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
class TransversalPattern:
    """Bit vector for one column, index 0 at the most negative y."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 1 or not np.all((b == 0) | (b == 1)):
            raise ValueError("pattern must be a 1d array of 0/1")
        b = b.astype(np.uint8).copy()
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    def __len__(self):
        return len(self.bits)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings for the per-column pattern optimisation.

    The penalty integral is sampled every ``pitch`` across [-dy, +dy] and
    evaluated with trapezoid weights.  The genetic search's other settings
    are the module constants TOURNAMENT, ELITE and MUTATIONS.  Every
    setting but ``seed`` is required; ``ScenarioConfig.optimizer_config``
    passes them from the scenario's mirror array, table and loop sections.
    """

    n_t: int
    pitch: float
    gamma_perp: float
    dy: float
    population: int
    generations: int
    seed: int = 0

    def __post_init__(self):
        check_index(self, "n_t", "generations", low=1)
        check_index(self, "population", low=2)
        check_index(self, "seed", low=0)
        check_real(self, "pitch", above=0)
        check_real(self, "gamma_perp", "dy", low=0)


class PatternObjective:
    """Precomputed weights for fast evaluation of the column objective."""

    def __init__(self, cfg: OptimizerConfig, psf: PsfModel, beam: BeamProfile):
        self.cfg = cfg
        n_pen = int(round(2.0 * cfg.dy / cfg.pitch)) + 1
        self.y_pen = np.linspace(-cfg.dy, cfg.dy, n_pen)
        w = transversal_weights(psf, beam, cfg.n_t, cfg.pitch, self.y_pen)
        w0 = transversal_weights(psf, beam, cfg.n_t, cfg.pitch, [0.0])[0]
        norm = w0.sum()
        if norm <= 0:
            raise ValueError("all-ones normalisation field is non-positive")
        self.w0 = w0 / norm
        self.w_pen = w / norm
        # trapezoid weights for the penalty integral, scaled by gamma_perp
        tw = np.full(n_pen, cfg.pitch)
        tw[0] *= 0.5
        tw[-1] *= 0.5
        self.pen_weights = cfg.gamma_perp * tw

    def on_axis(self, bits: np.ndarray) -> np.ndarray:
        """|E(0)| for a (pop, n_t) bit matrix or a single bit vector."""
        return np.abs(np.atleast_2d(bits).astype(float) @ self.w0)

    def value(self, bits: np.ndarray, nu: float) -> np.ndarray:
        b = np.atleast_2d(bits).astype(float)
        e0 = np.abs(b @ self.w0)
        ep = np.abs(b @ self.w_pen.T)
        pen = ((ep - nu) ** 2) @ self.pen_weights
        return (e0 - nu) ** 2 + pen

    def flips(self, bits: np.ndarray, nu: float) -> tuple:
        """|E(0)| and objective after each single-bit flip of one bit vector.

        Returns two length-n_t arrays; entry i belongs to the vector with
        bit i flipped.
        """
        b = bits.astype(float)
        sign = 1.0 - 2.0 * b  # +1 where a bit turns on, -1 where it turns off
        ep = b @ self.w_pen.T
        e0_f = np.abs(float(b @ self.w0) + sign * self.w0)
        ep_f = np.abs(ep[None, :] + sign[:, None] * self.w_pen.T)
        pen = ((ep_f - nu) ** 2) @ self.pen_weights
        return e0_f, (e0_f - nu) ** 2 + pen


def _ga_minimise(obj: PatternObjective, nus, rngs) -> np.ndarray:
    """Genetic search for every level in ``nus`` at once; returns (m, n_t) bits.

    The levels run in lockstep: each level draws from its own generator,
    in the same order as a search run alone (tournament indices,
    crossover mask, mutation uniforms), and its costs come from its own
    ``obj.value`` call, so every level's result equals its solo search.
    Selection, crossover, mutation, elitism and the best-so-far update
    are single array operations across all levels.
    """
    cfg = obj.cfg
    m, P, n = len(nus), cfg.population, cfg.n_t
    n_pairs = P // 2
    level = np.arange(m)
    rows = level[:, None]
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
    for k, nu in enumerate(nus):
        cost[k] = obj.value(pop[k], nu)
    gen_best = np.argmin(cost, axis=1)
    best = pop[level, gen_best]
    best_cost = cost[level, gen_best]
    rate = MUTATIONS / n
    idx = np.empty((m, P, TOURNAMENT), dtype=np.int64)
    mask = np.empty((m, n_pairs, n), dtype=np.uint8)
    flips = np.empty((m, P, n), dtype=bool)
    uniform = np.empty((P, n))
    ccost = np.empty_like(cost)
    offsets = (np.arange(m) * P)[:, None, None]
    for _ in range(cfg.generations):
        for k, rng in enumerate(rngs):
            idx[k] = rng.integers(0, P, size=(P, TOURNAMENT))
            mask[k] = rng.integers(0, 2, size=(n_pairs, n), dtype=np.uint8)
            np.less(rng.random(out=uniform), rate, out=flips[k])
        # tournament selection, gathered through flat indices
        flat = (idx + offsets).reshape(m * P, TOURNAMENT)
        picks = np.argmin(cost.ravel()[flat], axis=1)
        parents = pop.reshape(m * P, n)[flat[np.arange(m * P), picks]].reshape(m, P, n)
        # uniform crossover of consecutive parent pairs
        a = parents[:, 0 : 2 * n_pairs : 2]
        b = parents[:, 1 : 2 * n_pairs : 2]
        swap = mask & (a ^ b)
        children = np.concatenate([b ^ swap, a ^ swap, parents[:, 2 * n_pairs :]], axis=1)
        # bit-flip mutation
        children ^= flips.view(np.uint8)
        for k, nu in enumerate(nus):
            ccost[k] = obj.value(children[k], nu)
        # elitism: keep the best of the previous generation
        keep = np.argsort(cost, axis=1)[:, :ELITE]
        worst = np.argsort(ccost, axis=1)[:, ::-1][:, :ELITE]
        children[rows, worst] = pop[rows, keep]
        ccost[rows, worst] = cost[rows, keep]
        # the spent cost buffer takes the next generation's child costs
        pop, cost, ccost = children, ccost, cost
        gen_best = np.argmin(cost, axis=1)
        gen_cost = cost[level, gen_best]
        better = gen_cost < best_cost
        best_cost = np.where(better, gen_cost, best_cost)
        best[better] = pop[better, gen_best[better]]
    return best


_MAX_FLIPS = 2000


def _descend(flip_cost, bits: np.ndarray, cost: float, max_flips: int = _MAX_FLIPS, stop=None):
    """Steepest descent by single-bit flips; returns the final bit vector.

    ``flip_cost(b)`` gives the cost after each single flip of ``b`` (inf
    for a flip the caller does not allow) and ``cost`` is the cost of
    ``bits``.  The best flip is taken while it lowers the cost by more
    than 1e-18, for at most ``max_flips`` flips, and the descent ends
    early once the cost is at or below ``stop``.
    """
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


def _refine(obj: PatternObjective, nu: float, candidates, target_cap):
    """Polish each candidate and return the best as (pattern, achieved, residual).

    The all-off and all-on patterns join the candidates, a candidate
    outside ``target_cap`` is walked onto the target and re-polished among
    cap-respecting flips, and candidates inside the cap win by objective
    value.
    """
    candidates = [np.asarray(c, dtype=np.uint8) for c in candidates]
    candidates.append(np.zeros(obj.cfg.n_t, dtype=np.uint8))
    candidates.append(np.ones(obj.cfg.n_t, dtype=np.uint8))

    def objective(b):
        return obj.flips(b, nu)[1]

    def distance(b):
        return np.abs(obj.flips(b, nu)[0] - nu)

    def within_cap(b):
        e0, fc = obj.flips(b, nu)
        return np.where(np.abs(e0 - nu) <= target_cap, fc, np.inf)

    best = None
    for c in candidates:
        c = _descend(objective, c, float(obj.value(c, nu)[0]))
        if abs(float(obj.on_axis(c)[0]) - nu) > target_cap:
            c = _descend(distance, c, abs(float(obj.on_axis(c)[0]) - nu), stop=0.25 * target_cap)
            c = _descend(within_cap, c, float(obj.value(c, nu)[0]))
        # inside the cap before outside it, then the lower cost; ties keep the first
        key = (abs(float(obj.on_axis(c)[0]) - nu) > target_cap, float(obj.value(c, nu)[0]))
        if best is None or key < best_key:
            best, best_key = c, key
    achieved = float(obj.on_axis(best)[0])
    return TransversalPattern(bits=best), achieved, best_key[1]


def solve_pattern(obj: PatternObjective, nu_target: float, target_cap: float, rng, seed_patterns):
    """Minimise the column objective ``obj`` for one target value.

    ``obj`` carries the search settings (``obj.cfg``) and the psf and beam
    in its weights; ``rng`` drives the genetic search.  Returns (pattern,
    achieved, residual) where achieved is |E(0)| of the returned bits and
    residual the full objective value.  ``seed_patterns`` are injected as
    polish candidates (the LUT monotone repair passes the neighbouring
    entries).

    The search keeps |achieved - nu| within ``target_cap``, the table's
    accuracy: near the extremes the unconstrained optimum trades a few
    1e-3 of on-axis accuracy against the beam-envelope droop across the
    penalty band, which is the better objective value but useless for a
    table that is addressed by the achieved level.  Candidates outside
    the cap are walked onto the target with the fine-grained wing weights
    and then re-polished among cap-respecting flips; candidates inside
    the cap win by objective value.  A cap no candidate meets leaves the
    best objective value.
    """
    if not (0.0 <= nu_target <= 1.0):
        raise ValueError("target value must lie in [0, 1]")
    start = _ga_minimise(obj, [nu_target], [rng])[0]
    return _refine(obj, nu_target, (start, *seed_patterns), target_cap)


@dataclass(frozen=True)
class LutEntry:
    nu: float
    pattern: TransversalPattern
    achieved: float
    residual: float


@dataclass(frozen=True)
class Lut:
    """Monotone table nu_k = k / (n_nu - 1) -> column pattern.

    The header records everything needed to recompute the table: problem
    size, penalty settings, a hash of the psf/beam parameters and the
    master seed.
    """

    entries: tuple
    n_t: int
    pitch: float
    gamma_perp: float
    dy: float
    psf_beam_sha256: str
    seed: int

    @property
    def n_nu(self) -> int:
        return len(self.entries)

    def nearest_index(self, nu) -> np.ndarray:
        """Nearest table index for values in [0, 1]; exact ties round down.

        A value outside [0, 1], NaN included, is a ValueError."""
        nu = np.asarray(nu, dtype=float)
        if not np.all((nu >= -1e-12) & (nu <= 1.0 + 1e-12)):
            raise ValueError("virtual input out of [0, 1]")
        x = np.clip(nu, 0.0, 1.0) * (self.n_nu - 1)
        return np.clip(np.ceil(x - 0.5), 0, self.n_nu - 1).astype(int)

    def achieved_values(self) -> np.ndarray:
        """Read-only array of the entries' achieved values, element k for level k."""
        return self._achieved

    @cached_property
    def _achieved(self) -> np.ndarray:
        achieved = np.array([e.achieved for e in self.entries])
        achieved.flags.writeable = False
        return achieved

    @cached_property
    def levels(self) -> np.ndarray:
        """(n_nu, n_t) uint8 matrix of the entry patterns, row k for level k."""
        return np.array([e.pattern.bits for e in self.entries], dtype=np.uint8)

    @cached_property
    def nu_levels(self) -> np.ndarray:
        """Read-only array of the entries' nu, element k for level k."""
        nu = np.array([e.nu for e in self.entries])
        nu.flags.writeable = False
        return nu


def psf_beam_hash(psf: PsfModel, beam: BeamProfile, n_t: int, pitch: float) -> str:
    payload = json.dumps(
        {
            "sigma_z": psf.sigma_z,
            "w_y": psf.w_y,
            "gy_zero_cut": psf.gy_zero_cut,
            "beam_amplitude": beam.amplitude,
            "beam_sigma_y": beam.sigma_y,
            "beam_sigma_z": beam.sigma_z,
            "n_t": n_t,
            "pitch": pitch,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _monotone_repair(obj, nus, patterns, achieved, residual, target_cap):
    """Re-solve entries that break monotonicity, warm started from their
    lower neighbour; as a last resort lift the achieved value by greedy
    flips constrained to stay at or above the neighbour."""
    for k in range(1, len(nus)):
        if achieved[k] >= achieved[k - 1]:
            continue
        rng = np.random.default_rng([obj.cfg.seed, k, 7919])
        pat, ach, res = solve_pattern(
            obj, nus[k], target_cap, rng, (patterns[k - 1].bits, patterns[k].bits)
        )
        if ach < achieved[k - 1]:
            floor = achieved[k - 1] - 1e-15

            def lift(b):
                e0, fc = obj.flips(b, nus[k])
                return np.where(e0 >= floor, fc, np.inf)

            start = patterns[k - 1].bits
            bits = _descend(lift, start, float(obj.value(start, nus[k])[0]), obj.cfg.n_t)
            pat = TransversalPattern(bits=bits)
            ach = float(obj.on_axis(bits)[0])
            res = float(obj.value(bits, nus[k])[0])
        if ach < achieved[k - 1]:
            raise RuntimeError(
                f"monotone repair failed for table entry {k} "
                f"({ach:.6f} < {achieved[k - 1]:.6f})"
            )
        patterns[k], achieved[k], residual[k] = pat, ach, res


def build_lut(
    n_nu: int,
    cfg: OptimizerConfig,
    psf: PsfModel,
    beam: BeamProfile,
    accuracy: float | None = None,
) -> Lut:
    """Solve all n_nu column problems and assemble the monotone table.

    Entry k targets nu_k = k / (n_nu - 1).  The extreme entries are pinned
    to the all-off and all-on patterns: all-off is the exact optimum and
    all-on anchors the normalisation at achieved = 1.  Every other entry
    gets its own deterministic child seed ``[cfg.seed, k]``.  Their
    genetic searches run together in lockstep and each result is then
    refined as in :func:`solve_pattern`, so an entry the monotone repair
    leaves alone equals ``solve_pattern(PatternObjective(cfg, psf, beam),
    nu_k, accuracy, default_rng([cfg.seed, k]), ())`` bit for bit,
    whatever the number of levels.

    ``accuracy`` is the per-entry target for |achieved - nu_k|, by default
    0.05 / (n_nu - 1), i.e. a twentieth of the table step.  Entries worse
    than four times that are a hard error: a table that cannot realise its
    own addressing levels would silently bias the closed loop.  Two entries
    with one bit pattern, which :func:`invert_pattern` could not tell
    apart, raise a ValueError.
    """
    if n_nu < 2:
        raise ValueError("table needs at least the two extreme entries")
    acc = 0.05 / (n_nu - 1) if accuracy is None else float(accuracy)
    obj = PatternObjective(cfg, psf, beam)
    nus = np.linspace(0.0, 1.0, n_nu)
    patterns: list = [None] * n_nu
    achieved = np.zeros(n_nu)
    residual = np.zeros(n_nu)
    patterns[0] = TransversalPattern(bits=np.zeros(cfg.n_t, dtype=np.uint8))
    patterns[-1] = TransversalPattern(bits=np.ones(cfg.n_t, dtype=np.uint8))
    for k in (0, n_nu - 1):
        achieved[k] = float(obj.on_axis(patterns[k].bits)[0])
        residual[k] = float(obj.value(patterns[k].bits, nus[k])[0])
    inner = range(1, n_nu - 1)
    rngs = [np.random.default_rng([cfg.seed, k]) for k in inner]
    starts = _ga_minimise(obj, nus[1:-1], rngs)
    for k, start in zip(inner, starts):
        patterns[k], achieved[k], residual[k] = _refine(obj, nus[k], (start,), acc)
    _monotone_repair(obj, nus, patterns, achieved, residual, acc)
    bad = [k for k in range(n_nu) if abs(achieved[k] - nus[k]) > 4.0 * acc]
    if bad:
        raise RuntimeError(
            "table entries out of tolerance: "
            + ", ".join(
                f"k={k} nu={nus[k]:.3f} achieved={achieved[k]:.6f}" for k in bad
            )
        )
    _require_distinct_patterns(patterns)
    entries = tuple(
        LutEntry(nu=float(nus[k]), pattern=patterns[k],
                 achieved=float(achieved[k]), residual=float(residual[k]))
        for k in range(n_nu)
    )
    return Lut(
        entries=entries,
        n_t=cfg.n_t,
        pitch=cfg.pitch,
        gamma_perp=cfg.gamma_perp,
        dy=cfg.dy,
        psf_beam_sha256=psf_beam_hash(psf, beam, cfg.n_t, cfg.pitch),
        seed=cfg.seed,
    )


def _require_distinct_patterns(patterns) -> None:
    """Refuse two entries with one bit pattern: :func:`invert_pattern` could
    not tell their levels apart."""
    first = {}
    for k, p in enumerate(patterns):
        j = first.setdefault(p.bits.tobytes(), k)
        if j != k:
            raise ValueError(f"entries {j} and {k} share one bit pattern")


def map_virtual_input(nu: RealField1D, lut: Lut) -> DmdPattern:
    """Quantise per-column virtual inputs to table entries, assemble bits."""
    idx = lut.nearest_index(nu.values)
    return DmdPattern(bits=lut.levels[idx].T, pixel_pitch=lut.pitch)


def invert_pattern(pattern: DmdPattern, lut: Lut) -> RealField1D:
    """Recover the quantised virtual input of a pattern built from the table.

    Every column must match a table entry bit for bit; anything else
    raises, because it cannot have come from :func:`map_virtual_input`.
    """
    lookup = {e.pattern.bits.tobytes(): e.nu for e in lut.entries}
    values = np.empty(pattern.n_l)
    for j in range(pattern.n_l):
        key = np.ascontiguousarray(pattern.bits[:, j]).tobytes()
        if key not in lookup:
            raise ValueError(f"column {j} does not match any table entry")
        values[j] = lookup[key]
    return RealField1D(grid=column_grid(pattern.n_l, pattern.pixel_pitch), values=values)


def _lut_to_dict(lut: Lut) -> dict:
    return {
        "format": "potshape-lut-v1",
        "n_t": lut.n_t,
        "n_nu": lut.n_nu,
        "pitch": lut.pitch,
        "gamma_perp": lut.gamma_perp,
        "dy": lut.dy,
        "psf_beam_sha256": lut.psf_beam_sha256,
        "seed": lut.seed,
        "entries": [
            {
                "nu": e.nu,
                "bits": "".join(str(int(b)) for b in e.pattern.bits),
                "achieved": e.achieved,
                "residual": e.residual,
            }
            for e in lut.entries
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


_LUT_HEADER_KEYS = (
    "n_t", "n_nu", "pitch", "gamma_perp", "dy", "psf_beam_sha256", "seed", "entries"
)
_LUT_ENTRY_KEYS = ("nu", "bits", "achieved", "residual")


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def _pattern(text, key: str) -> TransversalPattern:
    if not isinstance(text, str) or not set(text) <= {"0", "1"}:
        raise ValueError(f"{key} must be a string of 0 and 1 characters")
    return TransversalPattern(bits=[int(c) for c in text])


def _field(obj: dict, key: str, what: str, convert=as_real, **bounds):
    """``convert(obj[key], key, **bounds)``, a finite number by default
    (:func:`core.as_real`); a value that does not convert is a ValueError
    naming ``what`` and the key."""
    try:
        return convert(obj[key], key, **bounds)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} has an invalid {key!r}: {obj[key]!r}") from exc


def load_lut(path) -> Lut:
    """Read a table written by :func:`save_lut`.

    Refuses with a ValueError naming the fault a file that is not a JSON
    object, lacks a header key or an entry field, holds a field of the
    wrong type or out of its range (numbers finite and not booleans,
    stored as floats; counts integers; the pitch > 0; ``dy``,
    ``gamma_perp`` and the seed >= 0), or whose entries do not
    form a table the closed loop can address: a bit string of the wrong
    length, a ``nu`` off the grid k / (n_nu - 1) that
    :meth:`Lut.nearest_index` assumes, decreasing achieved values, or two
    entries with one bit pattern.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != "potshape-lut-v1":
        raise ValueError("not a recognised look-up table file")
    _require_keys(data, _LUT_HEADER_KEYS, "table header")
    if not isinstance(data["entries"], list):
        raise ValueError("table entries are not a JSON list")
    for k, e in enumerate(data["entries"]):
        _require_keys(e, _LUT_ENTRY_KEYS, f"entry {k}")
    entries = tuple(
        LutEntry(
            nu=float(_field(e, "nu", f"entry {k}")),
            pattern=_field(e, "bits", f"entry {k}", _pattern),
            achieved=float(_field(e, "achieved", f"entry {k}")),
            residual=float(_field(e, "residual", f"entry {k}")),
        )
        for k, e in enumerate(data["entries"])
    )
    n_nu = _field(data, "n_nu", "table header", as_index, low=2)
    n_t = _field(data, "n_t", "table header", as_index, low=1)
    if len(entries) != n_nu:
        raise ValueError("entry count does not match header")
    for k, e in enumerate(entries):
        if len(e.pattern) != n_t:
            raise ValueError(f"entry {k} has {len(e.pattern)} bits, header says n_t = {n_t}")
        if abs(e.nu - k / (n_nu - 1)) > 1e-12:
            raise ValueError(f"entry {k} has nu = {e.nu!r}, not {k}/{n_nu - 1}")
        if k > 0 and e.achieved < entries[k - 1].achieved:
            raise ValueError(f"achieved value decreases at entry {k}")
    _require_distinct_patterns(e.pattern for e in entries)
    return Lut(
        entries=entries,
        n_t=n_t,
        pitch=float(_field(data, "pitch", "table header", above=0)),
        gamma_perp=float(_field(data, "gamma_perp", "table header", low=0)),
        dy=float(_field(data, "dy", "table header", low=0)),
        psf_beam_sha256=str(data["psf_beam_sha256"]),
        seed=_field(data, "seed", "table header", as_index, low=0),
    )
