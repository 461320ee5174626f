"""Scenario configuration and the closed-loop shaping experiment.

A scenario bundles every constant one desk run chooses: grid,
condensate, optics, magnetic trap, desired potential, mirror geometry,
table, potential scale and headroom, loop, disturbances and seed.
``prepare`` works out the derived objects (calibrated beam, desired
ground state, gain, learning kernel), which are not scenario keys.
``run_closed_loop`` drives the measure-learn-apply cycle, one iteration
per pass of its loop:

  1. shoot the plant (``shoot``): image the input's mirror pattern into
     the optical potential and relax the condensate in it, unless the
     shot repeats the last one's table indices and dark spots,
  2. measure the density and form the amplitude error against the
     desired density,
  3. update the input through the learning kernel and hold it on the
     table's levels (``level_update``).

Everything is deterministic for a fixed master seed; exports are plain
CSV/PBM/JSON and byte-identical across reruns and BLAS thread counts:
the field products sum on the column response's band without BLAS, and
the BLAS products left (the column sums, the solver's mixing) do not
depend on the thread count.
"""

from __future__ import annotations

import dataclasses
import importlib.metadata
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .condensate import (
    CondensateParams,
    ConvergenceError,
    MeasurementConfig,
    SolverConfig,
    ground_state,
    interaction_parameter,
    measure_density,
)
from .core import RealField1D, SpatialGrid1D, as_index, check_index, check_real, from_json
from .ilc import (
    GainProfile,
    LearningKernel,
    correction,
    density_error,
    design_kernel,
    gain_profile,
    scaled_error,
    transfer_function,
)
from .inputmap import (
    Lut,
    LutSpec,
    build_lut,
    lut_sha256,
    psf_beam_hash,
)
from .optics import (
    BeamProfile,
    ColumnBand,
    DarkSpot,
    DmdPattern,
    DmdSpec,
    MagneticPotentialSpec,
    PsfModel,
    TransmissionDisturbance,
    calibrate_beam,
    column_grid,
    column_response,
    column_sums,
    e_perp_max,
    magnetic_potential,
    potential_from_field,
)

__all__ = [
    "ConfigError",
    "GridSpec",
    "DesiredPotentialSpec",
    "ControlSpec",
    "LoopSpec",
    "DisturbanceEvent",
    "ScenarioConfig",
    "Prepared",
    "IterationRecord",
    "RunResult",
    "desired_potential",
    "prepare",
    "build_scenario_lut",
    "inject_disturbances",
    "level_update",
    "shoot",
    "run_closed_loop",
    "export_records",
    "load_run",
    "load_scenario",
    "report",
    "scenario_to_dict",
    "scenario_from_dict",
    "error_norm",
]

log = logging.getLogger(__name__)

try:
    _VERSION = importlib.metadata.version("potshape")
except importlib.metadata.PackageNotFoundError:  # running from a source tree
    _VERSION = "unknown"


class ConfigError(ValueError):
    """A scenario or file input is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# scenario schema


@dataclass(frozen=True)
class GridSpec:
    length: float = 250.0
    n_points: int = 2700

    def __post_init__(self):
        check_index(self, "n_points", low=2)
        check_real(self, "length", above=0)

    def build(self) -> SpatialGrid1D:
        return SpatialGrid1D(length=self.length, n_points=self.n_points)


@dataclass(frozen=True)
class DesiredPotentialSpec:
    """Double well: (v_max/2)(1 + cos(k_v z)) inside |z| <= 2 pi / k_v,
    v_max outside; minima sit at z = +-pi/k_v."""

    v_max: float = 2.0 * np.pi * 8.0
    k_v: float = 7.53e-2

    def __post_init__(self):
        check_real(self, "v_max", "k_v", above=0)


@dataclass(frozen=True)
class ControlSpec:
    """V = alpha_v |E|^2; the beam is calibrated so the all-on potential
    peaks at headroom * desired.v_max.  The kernel's regulariser and the
    gain's thresholds are derived by ``prepare``, not set."""

    alpha_v: float = 1.0
    headroom: float = 1.3

    def __post_init__(self):
        check_real(self, "alpha_v", "headroom", above=0)


@dataclass(frozen=True)
class LoopSpec:
    """``seed`` seeds the table build and each iteration's measurement
    noise; it is a non-negative integer (numpy integers included)."""

    iterations: int = 80
    nu_initial: float = 0.5
    seed: int = 12345
    export_iterations: tuple[int, ...] | None = None

    def __post_init__(self):
        check_index(self, "iterations", low=1)
        check_index(self, "seed", low=0)
        check_real(self, "nu_initial")
        if not 0.0 <= self.nu_initial <= 1.0:
            raise ValueError(f"nu_initial must lie in [0, 1], got {self.nu_initial!r}")
        if self.export_iterations is not None:
            if not isinstance(self.export_iterations, (list, tuple)):
                raise TypeError(
                    f"export_iterations must be a list of integers, got {self.export_iterations!r}"
                )
            exp = tuple(as_index(i, "export_iterations entry") for i in self.export_iterations)
            for k, n in enumerate(exp):
                if not (0 <= n < self.iterations):
                    raise ValueError(
                        f"export iteration {n} outside the {self.iterations} iterations"
                    )
                if n in exp[:k]:
                    raise ValueError(f"export iteration {n} is listed twice")
            object.__setattr__(self, "export_iterations", exp)


@dataclass(frozen=True)
class DisturbanceEvent:
    iteration: int
    spots: tuple

    def __post_init__(self):
        check_index(self, "iteration", low=0)
        object.__setattr__(self, "spots", tuple(self.spots))
        for spot in self.spots:
            if not isinstance(spot, DarkSpot):
                raise TypeError(f"disturbance spots must be DarkSpot entries, got {spot!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Defaults reproduce the reference double-well shaping run: each
    section is its class's default."""

    grid: GridSpec = field(default_factory=GridSpec)
    condensate: CondensateParams = field(default_factory=CondensateParams)
    psf: PsfModel = field(default_factory=PsfModel)
    beam: BeamProfile = field(default_factory=BeamProfile)
    magnetic: MagneticPotentialSpec = field(default_factory=MagneticPotentialSpec)
    desired: DesiredPotentialSpec = field(default_factory=DesiredPotentialSpec)
    dmd: DmdSpec = field(default_factory=DmdSpec)
    lut: LutSpec = field(default_factory=LutSpec)
    control: ControlSpec = field(default_factory=ControlSpec)
    loop: LoopSpec = field(default_factory=LoopSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    # dark spots 2 um wide and 0.15 deep switch on at iteration 40; the
    # events are frozen, so every scenario shares this one schedule
    disturbances: tuple = (
        DisturbanceEvent(40, tuple(DarkSpot(z, 2.0, 0.15) for z in (-41.0, 34.0, 46.0))),
    )

    def __post_init__(self):
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        last = -1
        for ev in self.disturbances:
            if not isinstance(ev, DisturbanceEvent):
                raise ConfigError("disturbances must be DisturbanceEvent entries")
            if ev.iteration < last:
                raise ConfigError("disturbance schedule must be sorted by iteration")
            last = ev.iteration


def _section_to_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


# every ScenarioConfig field but the disturbance schedule is a section,
# built by its default factory's class
_SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(ScenarioConfig)
    if f.name != "disturbances"
}


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    d = {name: _section_to_dict(getattr(cfg, name)) for name in _SECTIONS}
    d["disturbances"] = [
        {"iteration": ev.iteration, "spots": [_section_to_dict(s) for s in ev.spots]}
        for ev in cfg.disturbances
    ]
    exp = d["loop"]["export_iterations"]
    if exp is not None:
        d["loop"]["export_iterations"] = list(exp)
    return d


def _build_section(cls, data, name):
    """The section ``data`` as a ``cls``.  A key it omits takes the class
    default, which is the reference scenario's value: the defaults live
    on the section classes and nowhere else."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be an object")
    kinds = {f.name: f.type for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {', '.join(unknown)}")
    try:
        return cls(**{key: from_json(kinds[key], value) for key, value in data.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad section '{name}': {exc}") from exc


def scenario_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    unknown = sorted(set(data) - set(_SECTIONS) - {"disturbances"})
    if unknown:
        raise ConfigError(f"unknown scenario sections: {', '.join(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            kwargs[name] = _build_section(cls, data[name], name)
    if "disturbances" in data:
        if not isinstance(data["disturbances"], (list, tuple)):
            raise ConfigError("'disturbances' must be a list")
        events = []
        for i, ev in enumerate(data["disturbances"]):
            where = f"disturbances[{i}]"
            if not isinstance(ev, dict) or set(ev) != {"iteration", "spots"}:
                raise ConfigError(f"bad disturbance entry {i}: needs exactly iteration and spots")
            if not isinstance(ev["spots"], (list, tuple)):
                raise ConfigError(f"'{where}.spots' must be a list")
            spots = tuple(_build_section(DarkSpot, s, f"{where}.spots") for s in ev["spots"])
            try:
                events.append(DisturbanceEvent(from_json("int", ev["iteration"]), spots))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad disturbance entry {i}: {exc}") from exc
        kwargs["disturbances"] = tuple(events)
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# derived objects


def desired_potential(spec: DesiredPotentialSpec, grid: SpatialGrid1D) -> RealField1D:
    z = grid.samples
    inside = np.abs(z) <= 2.0 * np.pi / spec.k_v
    values = np.where(
        inside, 0.5 * spec.v_max * (1.0 + np.cos(spec.k_v * z)), spec.v_max
    )
    return RealField1D(grid=grid, values=values)


@dataclass(frozen=True)
class Prepared:
    """Everything derived from a scenario that the loop consumes.

    ``beam`` carries the calibrated amplitude, ``gain`` and ``kernel`` the
    derived thresholds and regulariser (all in ``run.json``'s ``derived``).
    ``column_response`` is the band of the longitudinal response of every
    mirror column on the condensate grid (:func:`optics.column_response`,
    an :class:`optics.ColumnBand`).  It is the one optics operator of the
    loop: the plant's field is its product with the pattern's column
    sums once per computed shot, and ``level_update`` predicts each trial
    move that changes a column with its product with the change in the
    achieved values.  ``error_slope`` is the prediction's -alpha / p_z on
    the grid: the linearised amplitude error per unit change of the
    on-axis field over e_max.  The plant spectrum G(k) is needed only to
    design ``kernel`` and is not kept.
    """

    grid: SpatialGrid1D
    col_grid: SpatialGrid1D
    beam: BeamProfile
    e_perp_max: float
    column_response: ColumnBand
    v_magnetic: RealField1D
    v_desired: RealField1D
    rho_desired: RealField1D
    mu_desired: float
    gain: GainProfile
    kernel: LearningKernel
    error_slope: np.ndarray


def _unconverged(what: str, gs, solver: SolverConfig, grid: SpatialGrid1D, points="grid.n_points"):
    """The error for an unconverged ground state ``gs``, naming the keys
    that bound its solve (``points`` names where the grid comes from).  It
    offers no remedy: neither more steps nor a smaller dtau moves a solve
    off a state that changes sign."""
    return ConvergenceError(
        f"{what} did not converge within solver.max_steps = {solver.max_steps} "
        f"(stopped after {gs.n_steps} steps) on {points} = {grid.n_points} "
        f"(spacing {grid.dz:.4g} um)"
    )


def prepare(cfg: ScenarioConfig) -> Prepared:
    grid = cfg.grid.build()
    col_grid = column_grid(cfg.dmd.n_columns, cfg.dmd.pixel_pitch)
    beam = calibrate_beam(
        cfg.psf,
        cfg.beam,
        cfg.dmd.n_rows,
        cfg.dmd.pixel_pitch,
        v_max=cfg.desired.v_max,
        alpha_v=cfg.control.alpha_v,
        headroom=cfg.control.headroom,
    )
    e_max = e_perp_max(cfg.psf, beam, cfg.dmd.n_rows, cfg.dmd.pixel_pitch)
    resp = column_response(grid, col_grid, cfg.psf, beam)
    v_mag = magnetic_potential(cfg.magnetic, cfg.condensate.mass, grid)
    v_des = desired_potential(cfg.desired, grid)
    gs_d = ground_state(v_des, cfg.condensate, cfg.solver)
    if not gs_d.converged:
        raise _unconverged("desired ground state", gs_d, cfg.solver, grid)
    rho_d = gs_d.density
    gain = gain_profile(
        v_des,
        v_mag,
        gs_d.mu,
        cfg.condensate,
        e_max * beam.pz(grid.samples),
        alpha_v=cfg.control.alpha_v,
    )
    transfer = transfer_function(gain.alpha_bar, cfg.psf, grid)
    kernel = design_kernel(transfer)
    slope = -gain.alpha.values / beam.pz(grid.samples)
    slope.flags.writeable = False
    log.info(
        "prepared scenario: mu_d=%.6g alpha_bar=%.6g gamma=%.6g kernel support %.4g um",
        gs_d.mu,
        gain.alpha_bar,
        kernel.gamma,
        kernel.kernel.grid.length,
    )
    return Prepared(
        grid=grid,
        col_grid=col_grid,
        beam=beam,
        e_perp_max=e_max,
        column_response=resp,
        v_magnetic=v_mag,
        v_desired=v_des,
        rho_desired=rho_d,
        mu_desired=gs_d.mu,
        gain=gain,
        kernel=kernel,
        error_slope=slope,
    )


def build_scenario_lut(cfg: ScenarioConfig) -> Lut:
    return build_lut(cfg.lut, cfg.dmd, cfg.psf, cfg.beam, cfg.loop.seed)


def inject_disturbances(schedule, n: int) -> TransmissionDisturbance:
    """Union of all dark spots activated at or before iteration n."""
    spots = []
    for ev in schedule:
        if ev.iteration <= n:
            spots.extend(ev.spots)
    return TransmissionDisturbance(spots=tuple(spots))


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """State of iteration n: the input applied, the error observed, and
    the saturation count of the update that produced the next input.
    ``extras`` holds the solver steps, the pattern (its ``sha256()`` is
    its hash), the total and optical potentials ``v`` and ``v_opt`` and
    the measured density ``rho``.  A held shot reuses the last computed
    shot, so its solver steps are 0; without noise its other fields
    repeat the previous record's.  Records compare by identity: they
    hold arrays."""

    n: int
    nu: np.ndarray
    e_rho: np.ndarray
    error_norm: float
    clamp_count: int
    mu: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("nu", "e_rho"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    prepared: Prepared
    lut: Lut
    records: tuple


def error_norm(e: RealField1D) -> float:
    return _error_norm(e.values, e.grid.dz)


def _error_norm(values: np.ndarray, dz: float) -> float:
    """L2 norm of error samples on a grid of spacing dz, trapezoid rule;
    a ValueError if a squared sample is not finite."""
    squared = values**2
    if not np.all(np.isfinite(squared)):
        raise ValueError("error values must be finite")
    return float(np.sqrt(np.trapezoid(squared, dx=dz)))


def shoot(cfg: ScenarioConfig, prepared: Prepared, lut: Lut, n: int, index, dist, initial=None):
    """One shot of the plant: the pattern whose columns are the table's
    rows ``lut.levels[index]``, its field (the ``column_response`` band's
    product with its :func:`optics.column_sums`), the potentials ``v_opt``
    under the dark spots ``dist`` and ``v`` with the magnetic trap, and
    the ground state, warm from ``initial`` and cold if a warm start
    stalls (a cold first solve is not repeated).  ``n`` names the iteration in the messages.
    Returns the pattern, ``v_opt``, ``v`` and the ground state."""
    pattern = DmdPattern(bits=lut.levels[index].T, pixel_pitch=lut.pitch)
    cols = column_sums(pattern, cfg.psf, prepared.beam)
    e_out = RealField1D(grid=prepared.grid, values=prepared.column_response.field(cols))
    v_opt = potential_from_field(e_out, cfg.control.alpha_v, disturbance=dist)
    v = RealField1D(grid=prepared.grid, values=prepared.v_magnetic.values + v_opt.values)
    gs = ground_state(v, cfg.condensate, cfg.solver, initial=initial)
    if not gs.converged and initial is not None:
        log.warning("iteration %d: warm start stalled, retrying cold", n)
        gs = ground_state(v, cfg.condensate, cfg.solver)
    if not gs.converged:
        raise _unconverged(f"ground state at iteration {n}", gs, cfg.solver, prepared.grid)
    return pattern, v_opt, v, gs


def run_closed_loop(
    cfg: ScenarioConfig,
    lut: Lut | None = None,
    prepared: Prepared | None = None,
    progress=None,
) -> RunResult:
    """Run the full shaping experiment for a scenario.

    The table is built on the fly if not supplied.  A supplied table
    must have the scenario's mirror rows, pixel pitch and ``lut``
    section, or a ConfigError is raised before anything is prepared or
    run; one built for other optics (:func:`inputmap.psf_beam_hash`)
    only logs a warning.  Its seed may differ.  ``progress(record)``,
    when given, is called once per iteration, after the update.  On
    solver failure the records collected so far are attached to the
    raised error as ``records``.  A disturbance scheduled past the last
    iteration is never applied; each such event logs one INFO line, not
    a warning, since a shortened run drops it on purpose.

    The loop carries only table indices: the initial input goes to its
    nearest level once, and every later input is the indices
    ``level_update`` returns.  A one-entry memo keeps the last
    :func:`shoot`'s indices and dark spots; a shot with both unchanged is
    held, reusing that shot with ``solver_steps`` 0.  A noise-free held
    shot also reuses the previous measurement, error, error norm, clamp
    count and next indices, since ``level_update`` is deterministic in
    them; a noisy one draws its own noise and measures and updates anew.
    Each computed error norm serves the record and ``level_update``.  A
    noise generator is seeded only when the measurement is noisy.
    """
    if lut is None:
        log.info("no look-up table supplied; building one now")
        lut = build_scenario_lut(cfg)
    elif lut.n_t != cfg.dmd.n_rows or lut.pitch != cfg.dmd.pixel_pitch:
        raise ConfigError(
            f"look-up table was built for {lut.n_t} rows at pitch {lut.pitch!r}, "
            f"the scenario's mirror array has {cfg.dmd.n_rows} rows at pitch "
            f"{cfg.dmd.pixel_pitch!r}"
        )
    elif lut.spec != cfg.lut:
        raise ConfigError(
            f"look-up table was built for {lut.spec}, the scenario's lut section is {cfg.lut}"
        )
    elif lut.psf_beam_sha256 != (expected := psf_beam_hash(cfg.psf, cfg.beam)):
        log.warning(
            "look-up table was built for different optics (hash %.12s != %.12s)",
            lut.psf_beam_sha256,
            expected,
        )
    for ev in cfg.disturbances:
        if ev.iteration >= cfg.loop.iterations:
            log.info(
                "disturbance at iteration %d is not applied: the run has %d iterations",
                ev.iteration,
                cfg.loop.iterations,
            )
    if prepared is None:
        prepared = prepare(cfg)
    index = lut.nearest_index(np.full(cfg.dmd.n_columns, cfg.loop.nu_initial))
    noisy = cfg.measurement.noise_std > 0
    phi = None
    memo = None
    records = []
    for n in range(cfg.loop.iterations):
        dist = inject_disturbances(cfg.disturbances, n)
        # a held shot repeats the last potential on the same plant; a
        # per-shot plant draw (ROADMAP item 9) must end this reuse
        held = memo is not None and np.array_equal(index, memo[0]) and dist == memo[1]
        if not held:
            memo = (index, dist)
            try:
                pattern, v_opt, v, gs = shoot(cfg, prepared, lut, n, index, dist, phi)
            except ConvergenceError as exc:
                exc.records = tuple(records)
                raise
            phi = gs.phi
        # without noise a held shot measures what its predecessor measured,
        # and level_update, deterministic in what repeats, returns the
        # indices it returned then: the input it holds
        if not held or noisy:
            rng = np.random.default_rng([cfg.loop.seed, 7, n]) if noisy else None
            rho_m = measure_density(gs.density, cfg.measurement, rng)
            e = density_error(rho_m, prepared.rho_desired)
            err = error_norm(e)
            next_index, clamp_count = level_update(index, e, err, prepared, lut)
        records.append(
            IterationRecord(
                n=n,
                nu=lut.nu_levels[index],
                e_rho=e.values,
                error_norm=err,
                clamp_count=clamp_count,
                mu=float(gs.mu),
                extras={
                    "solver_steps": 0 if held else gs.n_steps,
                    "pattern": pattern,
                    "v": v.values,
                    "v_opt": v_opt.values,
                    "rho": rho_m.values,
                },
            )
        )
        if progress is not None:
            progress(records[-1])
        index = next_index
    return RunResult(config=cfg, prepared=prepared, lut=lut, records=tuple(records))


def level_update(
    index: np.ndarray, e: RealField1D, err: float, prepared: Prepared, lut: Lut
) -> tuple[np.ndarray, int]:
    """The learning law of the physics path, held on the table's levels.

    ``index`` holds the input's table indices on the columns of
    ``prepared.col_grid`` and ``err`` the error norm of ``e``.  Returns
    the table indices of the next input and the number of columns the
    unquantised law would clamp.

    The error is pre-scaled by alpha_bar / alpha(z) on the gain's support
    and passed through the law (:func:`ilc.correction`).  The law's
    target nu - L * e then goes to the nearest table level, so a column
    moves only once its correction exceeds half a table step; a
    continuous input would keep integrating a residual the table cannot
    represent.

    A quantised move is judged with the plant's own optics.  It changes
    the table's achieved column values by d, so the on-axis field by
    e_max A d, with A the column response, and the amplitude error by
    -(alpha / p_z) A d in the linearised local balance (alpha carries
    the field per unit input, e_max p_z).  A d is the band's product
    (:meth:`optics.ColumnBand.field`), and -alpha / p_z is built once,
    by ``prepare``, as ``error_slope``.  A move predicted to raise the
    error is not applied: the correction is halved until the prediction
    falls, and the input stays on its levels once no column would move.
    A trial that moves no column (every large correction pushes a column
    at level 0 or 1 outward) changes nothing and is halved at once.
    """
    nu = lut.nu_levels[index]
    half_step = 0.5 * (lut.nu_levels[1] - lut.nu_levels[0])
    corr = correction(scaled_error(e, prepared.gain), prepared.kernel, prepared.col_grid)
    raw = nu - corr
    clamp_count = int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
    while np.max(np.abs(corr)) > half_step:
        trial = lut.nearest_index(np.clip(nu - corr, 0.0, 1.0))
        if np.any(trial != index):
            d = lut.achieved[trial] - lut.achieved[index]
            de = prepared.error_slope * prepared.column_response.field(d)
            if _error_norm(e.values + de, e.grid.dz) < err:
                return trial, clamp_count
        corr = 0.5 * corr
    return index, clamp_count


# ---------------------------------------------------------------------------
# persistence


_FLOAT_FMT = "%.17g"
_REPORT_TOL = 1e-12  # largest |recomputed - stored| error norm report accepts


def _default_export_iterations(n_total: int) -> tuple:
    picks = {0, 1, 2, 3, 4, 39, 40, 41, 45, 60, n_total - 1}
    return tuple(sorted(p for p in picks if 0 <= p < n_total))


def _column(values):
    """Format and cells of one CSV column: a list holds cells already
    formatted, printed as %s; of a numeric array, integers print as %d
    and other numbers (booleans too) as %.17g, converted to Python
    numbers in one call."""
    if isinstance(values, list):
        return "%s", values
    return ("%d" if values.dtype.kind in "iu" else _FLOAT_FMT), values.tolist()


def _cells(values: np.ndarray) -> list:
    """The cells of one numeric column as text, by one % over the column."""
    f, cells = _column(values)
    return ((f + "\n") * len(cells) % tuple(cells)).split("\n")[:-1]


def _rows_text(header, columns) -> str:
    """CSV text of the header and the rows of ``columns``, formatted by
    one % over the whole text; ragged columns stop at the shortest, as
    ``zip`` does."""
    cols = [_column(c) for c in columns]
    row_fmt = ",".join(f for f, _ in cols) + "\n"
    rows = list(zip(*(cells for _, cells in cols)))
    text = (row_fmt * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    return ",".join(header) + "\n" + text


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have the same dtype, shape and bytes, and so
    print the same; equal values would not do, since -0.0 == 0.0 prints
    "-0" and "0", and nan != nan."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _write_text(path, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_rows(path, header, columns):
    _write_text(path, _rows_text(header, columns))


def _write_pbm(path, pattern: DmdPattern):
    """Plain (P1) bitmap: one text row per mirror row, bits separated by
    spaces, built as one ASCII buffer."""
    n_t, n_l = pattern.bits.shape
    text = np.full((n_t, max(2 * n_l, 1)), ord(" "), dtype=np.uint8)
    text[:, 0 : 2 * n_l : 2] = pattern.bits + ord("0")
    text[:, -1] = ord("\n")
    _write_text(path, f"P1\n{n_l} {n_t}\n" + text.tobytes().decode("ascii"))


def export_records(result: RunResult, out_dir) -> list:
    """Write the run artifacts; returns the list of files written.

    error_norms.csv always; per selected iteration a fields CSV on the
    measurement grid, the virtual input at its own column positions, and
    the mirror pattern as a portable bitmap; run.json echoes the full
    configuration plus derived constants.  A selected iteration the run
    does not hold is a :class:`ConfigError`, raised before any file or
    directory is written.

    Each distinct column is formatted once: the grid and the column
    positions once per call, and an iteration whose arrays have the
    bytes of the previous exported one (a held shot) rewrites that one's
    fields and columns text.
    """
    records = result.records
    cfg = result.config
    exp = cfg.loop.export_iterations
    if exp is None:
        exp = _default_export_iterations(len(records))
    for n in exp:
        if not (0 <= n < len(records)):
            raise ConfigError(f"export iteration {n} outside the run")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    path = os.path.join(out_dir, "error_norms.csv")
    _write_rows(
        path,
        ("n", "error_norm", "mu", "clamp_count"),
        (
            np.array([r.n for r in records]),
            np.array([r.error_norm for r in records]),
            np.array([r.mu for r in records]),
            np.array([r.clamp_count for r in records]),
        ),
    )
    written.append(path)

    z = result.prepared.grid.samples
    col_z = result.prepared.col_grid.samples
    z_cells, col_z_cells = _cells(z), _cells(col_z)
    shot = None  # the arrays whose text fields and columns hold
    for n in exp:
        r = records[n]
        x = r.extras
        arrays = (r.nu, x["v"], x["v_opt"], x["rho"], r.e_rho)
        if shot is None or not all(map(_same_bytes, arrays, shot)):
            shot = arrays
            nu, v, v_opt, rho, e_rho = arrays
            fields = _rows_text(
                ("z", "nu", "v", "v_opt", "rho", "e_rho"),
                (z_cells, np.interp(z, col_z, nu), v, v_opt, rho, e_rho),
            )
            columns = _rows_text(("z", "nu"), (col_z_cells, nu))
        for name, text in (("fields", fields), ("columns", columns)):
            path = os.path.join(out_dir, f"{name}_{n:04d}.csv")
            _write_text(path, text)
            written.append(path)
        path = os.path.join(out_dir, f"pattern_{n:04d}.pbm")
        _write_pbm(path, x["pattern"])
        written.append(path)

    meta = {
        "format": "potshape-run-v1",
        "package_version": _VERSION,
        "config": scenario_to_dict(cfg),
        "derived": {
            "e_perp_max": result.prepared.e_perp_max,
            "beam_amplitude": result.prepared.beam.amplitude,
            "mu_desired": result.prepared.mu_desired,
            "alpha_bar": result.prepared.gain.alpha_bar,
            "eps_opt": result.prepared.gain.eps_opt,
            "eps_mu": result.prepared.gain.eps_mu,
            "gamma_nu": result.prepared.kernel.gamma,
            "kernel_support": result.prepared.kernel.kernel.grid.length,
            "kernel_points": result.prepared.kernel.kernel.grid.n_points,
            "grid_dz": result.prepared.grid.dz,
            "crossover_parameter_desired": interaction_parameter(
                result.prepared.rho_desired, cfg.condensate
            ),
            "lut_sha256": lut_sha256(result.lut),
        },
        "iterations": len(records),
        "export_iterations": list(exp),
        "error_norms": [r.error_norm for r in records],
        "clamp_counts": [r.clamp_count for r in records],
    }
    path = os.path.join(out_dir, "run.json")
    _write_text(path, json.dumps(meta, indent=1, sort_keys=True) + "\n")
    written.append(path)
    return written


def _read_rows(path, needed) -> dict:
    """One array per header column of the numeric CSV at ``path``; a
    ConfigError names the file and the column that the header repeats or
    the column ``needed`` that it lacks, or the line that is not one
    finite number per column, each cell of ASCII characters without
    ``_``."""
    try:
        with open(path) as fh:
            header = [h.strip() for h in fh.readline().split(",")]
            lines = [(k, line.strip()) for k, line in enumerate(fh, start=2)]
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    for k, h in enumerate(header):
        if h in header[:k]:
            raise ConfigError(f"{path}: header names column '{h}' twice")
    for h in needed:
        if h not in header:
            raise ConfigError(f"{path}: header lacks column '{h}'")
    rows = []
    for k, line in lines:
        if not line:
            continue
        cells = line.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells for {len(header)} columns")
            for c in cells:
                # float() also reads '1_0' as 10.0 and non-ASCII digits
                if "_" in c or not c.isascii():
                    raise ValueError(f"cell {c!r} is not a plain decimal number")
            row = [float(c) for c in cells]
            for c, value in zip(cells, row):
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value {c!r}")
            rows.append(row)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {k}: {exc}") from exc
    return {h: np.array([r[i] for r in rows]) for i, h in enumerate(header)}


def load_run(out_dir) -> dict:
    """Read an exported run back: run.json, norms and field tables.

    A damaged export raises :class:`ConfigError` naming the file and the
    key, column or line at fault; the export writes finite numbers only,
    so a NaN or infinite cell is damage too.
    """
    meta_path = os.path.join(out_dir, "run.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {meta_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != "potshape-run-v1":
        raise ConfigError(f"{meta_path}: not a recognised run export")

    exp = meta.get("export_iterations")
    if not isinstance(exp, list) or not all(type(n) is int and n >= 0 for n in exp):
        raise ConfigError(
            f"{meta_path}: 'export_iterations' is missing or not a list of iterations"
        )
    norms = _read_rows(os.path.join(out_dir, "error_norms.csv"), ("n", "error_norm"))
    fields = {}
    for n in exp:
        fields[n] = _read_rows(os.path.join(out_dir, f"fields_{n:04d}.csv"), ("z", "e_rho"))
    return {"meta": meta, "norms": norms, "fields": fields}


def report(out_dir) -> dict:
    """Recompute error norms from exported fields and verify the CSV.

    Returns a summary dict with ok flag (every mismatch at most
    _REPORT_TOL, so a NaN mismatch fails), per-iteration norms, and the
    worst recomputation mismatch.  An export without iterations, without
    a field iteration to check, or without the norm of an exported
    iteration, raises :class:`ConfigError`.
    """
    data = load_run(out_dir)
    norms = data["norms"]
    norms_path = os.path.join(out_dir, "error_norms.csv")
    if len(norms["n"]) == 0:
        raise ConfigError(f"{norms_path}: holds no iterations")
    if not data["fields"]:
        raise ConfigError(f"{os.path.join(out_dir, 'run.json')}: exports no field iteration")
    ok = True
    checked = []
    for n, cols in data["fields"].items():
        z = cols["z"]
        e = cols["e_rho"]
        recomputed = float(np.sqrt(np.trapezoid(e**2, z)))
        row = np.flatnonzero(norms["n"] == n)
        if len(row) == 0:
            raise ConfigError(f"{norms_path}: no row for exported iteration {n}")
        stored = float(norms["error_norm"][row[0]])
        mismatch = abs(recomputed - stored)
        ok = ok and mismatch <= _REPORT_TOL
        checked.append((int(n), stored, recomputed, mismatch))
    e0 = float(norms["error_norm"][0])
    summary = {
        "ok": ok,
        "worst_mismatch": float(np.max([c[3] for c in checked])),
        "checked": checked,
        "iterations": len(norms["n"]),
        "initial_norm": e0,
        "final_norm": float(norms["error_norm"][-1]),
        "best_norm": float(np.min(norms["error_norm"])),
        "reduction_final": float(norms["error_norm"][-1]) / e0 if e0 else np.nan,
    }
    return summary
