"""Scenario configuration and the closed-loop shaping experiment.

A scenario bundles every physical and numerical constant of one desk
run: grid, condensate, optics, magnetic trap, desired potential, mirror
geometry, table and kernel settings, loop length, disturbance schedule
and seeds.  ``prepare`` turns a scenario into the derived objects
(calibrated beam, desired ground state, linearised gain, learning
kernel).  ``run_closed_loop`` drives the measure-learn-apply cycle,
one iteration per pass of its loop:

  1. quantise the virtual input into a binary mirror pattern,
  2. sum each column of the pattern transversally on the optical axis,
     map the column sums to the on-axis field through the column
     response built once in ``prepare``, and apply the active
     transmission disturbances to get the optical potential,
  3. relax the condensate in the total potential, warm started from the
     previous iteration's state and cold if that stalls, and measure
     its density,
  4. form the amplitude error against the desired density,
  5. update the virtual input through the learning kernel and hold it
     on the table's levels (``level_update``).

Everything is deterministic for a fixed master seed; exports are plain
CSV/PBM/JSON and byte-identical across reruns.
"""

from __future__ import annotations

import dataclasses
import importlib.metadata
import itertools
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .condensate import (
    CondensateParams,
    ConvergenceError,
    GroundState,
    MeasurementConfig,
    SolverConfig,
    ground_state,
    interaction_parameter,
    measure_density,
)
from .core import RealField1D, SpatialGrid1D, integrate
from .ilc import (
    GainProfile,
    LearningKernel,
    UpdateResult,
    VirtualInput,
    density_error,
    design_kernel,
    gain_profile,
    scaled_error,
    transfer_function,
    update,
)
from .inputmap import (
    Lut,
    OptimizerConfig,
    build_lut,
    lut_sha256,
    map_virtual_input,
    psf_beam_hash,
)
from .optics import (
    BeamProfile,
    DarkSpot,
    DmdPattern,
    MagneticPotentialSpec,
    PsfModel,
    TransmissionDisturbance,
    calibrate_beam,
    column_grid,
    column_response,
    e_perp_max,
    magnetic_potential,
    potential_from_field,
    transversal_weights,
)

__all__ = [
    "ConfigError",
    "GridSpec",
    "DmdSpec",
    "DesiredPotentialSpec",
    "LutSpec",
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
    "run_closed_loop",
    "input_activity",
    "export_records",
    "load_run",
    "load_scenario",
    "report",
    "scenario_to_dict",
    "scenario_from_dict",
    "lut_sha256",
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

    def build(self) -> SpatialGrid1D:
        return SpatialGrid1D(length=self.length, n_points=self.n_points)


@dataclass(frozen=True)
class DmdSpec:
    n_rows: int = 100
    n_columns: int = 400
    pixel_pitch: float = 1.0

    def __post_init__(self):
        if self.n_rows < 1 or self.n_columns < 2 or self.pixel_pitch <= 0:
            raise ValueError("mirror array sizes out of range")


@dataclass(frozen=True)
class DesiredPotentialSpec:
    """Double well: (v_max/2)(1 + cos(k_v z)) inside |z| <= 2 pi / k_v,
    v_max outside; minima sit at z = +-pi/k_v."""

    v_max: float = 2.0 * np.pi * 8.0
    k_v: float = 7.53e-2

    def __post_init__(self):
        if self.v_max <= 0 or self.k_v <= 0:
            raise ValueError("v_max and k_v must be positive")


@dataclass(frozen=True)
class LutSpec:
    n_nu: int = 51
    gamma_perp: float = 0.3
    dy: float = 4.0
    population: int = 100
    generations: int = 200
    mutation_rate: float | None = None

    def __post_init__(self):
        if self.n_nu < 2:
            raise ValueError("n_nu must be at least 2")


@dataclass(frozen=True)
class ControlSpec:
    """Kernel and gain settings; None picks the documented defaults
    (gamma_nu = 1e-2 max|G|^2, eps_opt = 5% of v_max, eps_mu = 5% of
    omega_perp)."""

    gamma_nu: float | None = None
    eps_opt: float | None = None
    eps_mu: float | None = None
    alpha_v: float = 1.0
    headroom: float = 1.3

    def __post_init__(self):
        if self.alpha_v <= 0 or self.headroom <= 0:
            raise ValueError("alpha_v and headroom must be positive")


@dataclass(frozen=True)
class LoopSpec:
    iterations: int = 80
    nu_initial: float = 0.5
    seed: int = 12345
    export_iterations: tuple | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 <= self.nu_initial <= 1.0):
            raise ValueError("nu_initial must lie in [0, 1]")
        if self.export_iterations is not None:
            exp = tuple(int(i) for i in self.export_iterations)
            for n in exp:
                if not (0 <= n < self.iterations):
                    raise ValueError(
                        f"export iteration {n} outside the {self.iterations} iterations"
                    )
            object.__setattr__(self, "export_iterations", exp)


@dataclass(frozen=True)
class DisturbanceEvent:
    iteration: int
    spots: tuple

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("disturbance iteration must be >= 0")
        object.__setattr__(self, "spots", tuple(self.spots))


def _default_magnetic() -> MagneticPotentialSpec:
    v_max = DesiredPotentialSpec().v_max
    return MagneticPotentialSpec(
        omega_par=2.0 * np.pi * 0.007,
        ripple_amplitude=0.05 * v_max,
        ripple_wavelength=10.0,
        ripple_phase=0.0,
    )


def _default_disturbances() -> tuple:
    spots = (
        DarkSpot(center=-41.0, width=2.0, depth=0.15),
        DarkSpot(center=34.0, width=2.0, depth=0.15),
        DarkSpot(center=46.0, width=2.0, depth=0.15),
    )
    return (DisturbanceEvent(iteration=40, spots=spots),)


@dataclass(frozen=True)
class ScenarioConfig:
    """Defaults reproduce the reference double-well shaping run."""

    grid: GridSpec = field(default_factory=GridSpec)
    condensate: CondensateParams = field(default_factory=CondensateParams)
    psf: PsfModel = field(default_factory=PsfModel)
    beam: BeamProfile = field(default_factory=BeamProfile)
    magnetic: MagneticPotentialSpec = field(default_factory=_default_magnetic)
    desired: DesiredPotentialSpec = field(default_factory=DesiredPotentialSpec)
    dmd: DmdSpec = field(default_factory=DmdSpec)
    lut: LutSpec = field(default_factory=LutSpec)
    control: ControlSpec = field(default_factory=ControlSpec)
    loop: LoopSpec = field(default_factory=LoopSpec)
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(dtau=0.05, max_steps=60_000, tol=1e-10)
    )
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    disturbances: tuple = field(default_factory=_default_disturbances)

    def __post_init__(self):
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        last = -1
        for ev in self.disturbances:
            if not isinstance(ev, DisturbanceEvent):
                raise ConfigError("disturbances must be DisturbanceEvent entries")
            if ev.iteration < last:
                raise ConfigError("disturbance schedule must be sorted by iteration")
            last = ev.iteration

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            n_t=self.dmd.n_rows,
            pitch=self.dmd.pixel_pitch,
            gamma_perp=self.lut.gamma_perp,
            dy=self.lut.dy,
            population=self.lut.population,
            generations=self.lut.generations,
            mutation_rate=self.lut.mutation_rate,
            seed=self.loop.seed,
        )


def _section_to_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


_SECTIONS = {
    "grid": GridSpec,
    "condensate": CondensateParams,
    "psf": PsfModel,
    "beam": BeamProfile,
    "magnetic": MagneticPotentialSpec,
    "desired": DesiredPotentialSpec,
    "dmd": DmdSpec,
    "lut": LutSpec,
    "control": ControlSpec,
    "loop": LoopSpec,
    "solver": SolverConfig,
    "measurement": MeasurementConfig,
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
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be an object")
    allowed = {f.name for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {', '.join(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
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
                events.append(DisturbanceEvent(iteration=int(ev["iteration"]), spots=spots))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad disturbance entry {i}: {exc}") from exc
        kwargs["disturbances"] = tuple(events)
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
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

    ``column_response`` is the longitudinal response of every mirror
    column on the condensate grid (:func:`optics.column_response`).  It
    is the one optics operator of the loop: the plant's field is one
    matrix-vector product per iteration, and ``level_update`` predicts
    its trial moves with the same matrix.  The plant spectrum G(k) is
    needed only to design ``kernel`` and is not kept.
    """

    config: ScenarioConfig
    grid: SpatialGrid1D
    col_grid: SpatialGrid1D
    beam: BeamProfile
    e_perp_max: float
    column_response: np.ndarray
    v_magnetic: RealField1D
    v_desired: RealField1D
    ground_desired: GroundState
    rho_desired: RealField1D
    mu_desired: float
    gain: GainProfile
    kernel: LearningKernel


def _calibrated_beam(cfg: ScenarioConfig) -> BeamProfile:
    return calibrate_beam(
        cfg.psf,
        cfg.beam,
        cfg.dmd.n_rows,
        cfg.dmd.pixel_pitch,
        v_max=cfg.desired.v_max,
        alpha_v=cfg.control.alpha_v,
        headroom=cfg.control.headroom,
    )


def prepare(cfg: ScenarioConfig) -> Prepared:
    grid = cfg.grid.build()
    col_grid = column_grid(cfg.dmd.n_columns, cfg.dmd.pixel_pitch)
    beam = _calibrated_beam(cfg)
    e_max = e_perp_max(cfg.psf, beam, cfg.dmd.n_rows, cfg.dmd.pixel_pitch)
    resp = column_response(grid, col_grid, cfg.psf, beam)
    resp.flags.writeable = False
    v_mag = magnetic_potential(cfg.magnetic, cfg.condensate.mass, grid)
    v_des = desired_potential(cfg.desired, grid)
    gs_d = ground_state(v_des, cfg.condensate, cfg.solver)
    if not gs_d.converged:
        raise ConvergenceError("desired ground state did not converge")
    rho_d = gs_d.density
    gain = gain_profile(
        v_des,
        v_mag,
        gs_d.mu,
        cfg.condensate,
        e_max * beam.pz(grid.samples),
        alpha_v=cfg.control.alpha_v,
        eps_opt=(
            cfg.control.eps_opt
            if cfg.control.eps_opt is not None
            else 0.05 * cfg.desired.v_max
        ),
        eps_mu=cfg.control.eps_mu,
    )
    transfer = transfer_function(gain.alpha_bar, cfg.psf, grid)
    kernel = design_kernel(transfer, cfg.control.gamma_nu)
    log.info(
        "prepared scenario: mu_d=%.6g alpha_bar=%.6g gamma=%.6g kernel support %.4g um",
        gs_d.mu,
        gain.alpha_bar,
        kernel.gamma,
        kernel.kernel.grid.length,
    )
    return Prepared(
        config=cfg,
        grid=grid,
        col_grid=col_grid,
        beam=beam,
        e_perp_max=e_max,
        column_response=resp,
        v_magnetic=v_mag,
        v_desired=v_des,
        ground_desired=gs_d,
        rho_desired=rho_d,
        mu_desired=gs_d.mu,
        gain=gain,
        kernel=kernel,
    )


def build_scenario_lut(cfg: ScenarioConfig, prepared: Prepared | None = None) -> Lut:
    beam = _calibrated_beam(cfg) if prepared is None else prepared.beam
    return build_lut(cfg.lut.n_nu, cfg.optimizer_config(), cfg.psf, beam)


def inject_disturbances(schedule, n: int) -> TransmissionDisturbance:
    """Union of all dark spots activated at or before iteration n."""
    spots = []
    for ev in schedule:
        if ev.iteration <= n:
            spots.extend(ev.spots)
    return TransmissionDisturbance(spots=tuple(spots))


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class IterationRecord:
    """State of iteration n: the input applied, the error observed, and
    the saturation count of the update that produced the next input.
    ``extras`` holds the solver steps, the pattern and its hash, the
    total and optical potentials ``v`` and ``v_opt`` and the measured
    density ``rho``."""

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
    return float(np.sqrt(integrate(RealField1D(grid=e.grid, values=e.values**2))))


def run_closed_loop(
    cfg: ScenarioConfig,
    lut: Lut | None = None,
    prepared: Prepared | None = None,
    progress=None,
) -> RunResult:
    """Run the full shaping experiment for a scenario.

    The table is built on the fly if not supplied.  ``progress(record)``,
    when given, is called once per iteration, after the update.  On
    solver failure the records collected so far are attached to the
    raised error as ``records``.
    """
    if prepared is None:
        prepared = prepare(cfg)
    if lut is None:
        log.info("no look-up table supplied; building one now")
        lut = build_scenario_lut(cfg, prepared)
    expected = psf_beam_hash(cfg.psf, prepared.beam, cfg.dmd.n_rows, cfg.dmd.pixel_pitch)
    if lut.psf_beam_sha256 != expected:
        log.warning(
            "look-up table was built for different optics (hash %.12s != %.12s)",
            lut.psf_beam_sha256,
            expected,
        )
    # on-axis transversal weights of the table's mirror rows; a column's
    # field amplitude is the signed sum w0 @ bits (negative sinc lobes
    # included), so the plant sees the pattern itself
    w0 = transversal_weights(cfg.psf, prepared.beam, lut.n_t, lut.pitch, [0.0])[0]
    nu = VirtualInput(
        field=RealField1D(
            grid=prepared.col_grid,
            values=np.full(cfg.dmd.n_columns, cfg.loop.nu_initial),
        )
    )
    phi = None
    records = []
    for n in range(cfg.loop.iterations):
        pattern = map_virtual_input(nu.field, lut)
        cols = prepared.beam.amplitude * (w0 @ pattern.bits)
        e_out = RealField1D(grid=prepared.grid, values=prepared.column_response @ cols)
        dist = inject_disturbances(cfg.disturbances, n)
        v_opt = potential_from_field(e_out, cfg.control.alpha_v, disturbance=dist)
        v = RealField1D(
            grid=prepared.grid, values=prepared.v_magnetic.values + v_opt.values
        )
        try:
            gs = ground_state(v, cfg.condensate, cfg.solver, initial=phi)
            if not gs.converged:
                log.warning("iteration %d: warm start stalled, retrying cold", n)
                gs = ground_state(v, cfg.condensate, cfg.solver)
            if not gs.converged:
                raise ConvergenceError(f"ground state did not converge at iteration {n}")
        except ConvergenceError as exc:
            exc.records = tuple(records)
            raise
        phi = gs.phi
        rng = np.random.default_rng([cfg.loop.seed, 7, n])
        rho_m = measure_density(gs.density, cfg.measurement, rng)
        e = density_error(rho_m, prepared.rho_desired)
        res = level_update(nu, e, prepared, lut)
        records.append(
            IterationRecord(
                n=n,
                nu=nu.values,
                e_rho=e.values,
                error_norm=error_norm(e),
                clamp_count=res.clamp_count,
                mu=float(gs.mu),
                extras={
                    "solver_steps": gs.n_steps,
                    "pattern": pattern,
                    "pattern_sha256": pattern.sha256(),
                    "v": v.values,
                    "v_opt": v_opt.values,
                    "rho": rho_m.values,
                },
            )
        )
        if progress is not None:
            progress(records[-1])
        nu = res.nu
    return RunResult(config=cfg, prepared=prepared, lut=lut, records=tuple(records))


def level_update(
    nu: VirtualInput, e: RealField1D, prepared: Prepared, lut: Lut
) -> UpdateResult:
    """The learning law of the physics path, held on the table's levels.

    The error is pre-scaled by alpha_bar / alpha(z) on the gain's support
    and passed through the law.  The law's target nu - L * e then goes to
    the nearest table level, so a column moves only once its correction
    exceeds half a table step; a continuous input would keep integrating
    a residual the table cannot represent.

    A quantised move is judged with the plant's own optics.  It changes
    the table's achieved column values by d, so the on-axis field by
    e_max A d, with A the column response, and the amplitude error by
    -(alpha / p_z) A d in the linearised local balance (alpha carries
    the field per unit input, e_max p_z).  A move predicted to raise the
    error is not applied: the correction is halved until the prediction
    falls, and the input stays on its levels once no column would move.
    ``clamp_count`` and ``correction`` are those of the unquantised law.
    """
    levels = lut.nu_levels
    achieved = lut.achieved_values()
    half_step = 0.5 * (levels[1] - levels[0])
    res = update(nu, scaled_error(e, prepared.gain), prepared.kernel)
    current = lut.nearest_index(nu.values)
    held = levels[current]
    slope = -prepared.gain.alpha.values / prepared.beam.pz(prepared.grid.samples)
    err = error_norm(e)
    corr = res.correction
    while np.max(np.abs(corr)) > half_step:
        trial = lut.nearest_index(np.clip(nu.values - corr, 0.0, 1.0))
        de = slope * (prepared.column_response @ (achieved[trial] - achieved[current]))
        if error_norm(RealField1D(grid=e.grid, values=e.values + de)) < err:
            held = levels[trial]
            break
        corr = 0.5 * corr
    return UpdateResult(
        nu=VirtualInput(field=RealField1D(grid=nu.grid, values=held)),
        clamp_count=res.clamp_count,
        correction=res.correction,
    )


# ---------------------------------------------------------------------------
# metrics


def input_activity(
    records,
    rho_desired: RealField1D,
    col_grid: SpatialGrid1D,
    threshold: float = 1e-4,
    start: int = 0,
    stop: int | None = None,
) -> dict:
    """Input motion per unit length in the empty vs. occupied region.

    The occupied region is where the desired density exceeds
    ``threshold`` of its peak, sampled at the column positions; motion
    is the summed |delta nu| between consecutive recorded iterations in
    [start, stop).  Returns rates per column and their ratio.
    """
    rho_cols = np.interp(
        col_grid.samples, rho_desired.grid.samples, rho_desired.values, left=0.0, right=0.0
    )
    occupied = rho_cols >= threshold * np.max(rho_desired.values)
    hidden = ~occupied
    if not np.any(occupied) or not np.any(hidden):
        raise ValueError("activity ratio needs both occupied and empty columns")
    sel = [r for r in records if r.n >= start and (stop is None or r.n < stop)]
    if len(sel) < 2:
        raise ValueError("need at least two recorded iterations in the window")
    total = np.zeros(len(rho_cols))
    for a, b in zip(sel[:-1], sel[1:]):
        total += np.abs(b.nu - a.nu)
    hidden_rate = float(total[hidden].sum() / hidden.sum())
    occupied_rate = float(total[occupied].sum() / occupied.sum())
    return {
        "hidden_rate": hidden_rate,
        "occupied_rate": occupied_rate,
        "ratio": hidden_rate / occupied_rate if occupied_rate > 0 else np.inf,
        "n_hidden": int(hidden.sum()),
        "n_occupied": int(occupied.sum()),
        "iterations": (sel[0].n, sel[-1].n),
    }


# ---------------------------------------------------------------------------
# persistence


_FLOAT_FMT = "%.17g"


def _default_export_iterations(n_total: int) -> tuple:
    picks = {0, 1, 2, 3, 4, 39, 40, 41, 45, 60, n_total - 1}
    return tuple(sorted(p for p in picks if 0 <= p < n_total))


def _column(values):
    """Format and cells of one CSV column.  Integers print as str, other
    numbers as %.17g; a numeric array converts to Python numbers in one
    call, any other sequence is formatted cell by cell."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        return ("%d" if values.dtype.kind in "iu" else _FLOAT_FMT), values.tolist()
    return "%s", [str(c) if isinstance(c, (int, np.integer)) else _FLOAT_FMT % c for c in values]


def _write_rows(path, header, columns):
    cols = [_column(c) for c in columns]
    row_fmt = ",".join(f for f, _ in cols) + "\n"
    rows = list(zip(*(cells for _, cells in cols)))
    text = (row_fmt * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_pbm(path, pattern: DmdPattern):
    """Plain (P1) bitmap: one text row per mirror row, bits separated by
    spaces, built as one ASCII buffer."""
    n_t, n_l = pattern.bits.shape
    text = np.full((n_t, max(2 * n_l, 1)), ord(" "), dtype=np.uint8)
    text[:, 0 : 2 * n_l : 2] = pattern.bits + ord("0")
    text[:, -1] = ord("\n")
    try:
        with open(path, "w") as fh:
            fh.write(f"P1\n{n_l} {n_t}\n")
            fh.write(text.tobytes().decode("ascii"))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def export_records(result: RunResult, out_dir) -> list:
    """Write the run artifacts; returns the list of files written.

    error_norms.csv always; per selected iteration a fields CSV on the
    measurement grid, the virtual input at its own column positions, and
    the mirror pattern as a portable bitmap; run.json echoes the full
    configuration plus derived constants.  A selected iteration the run
    does not hold is a :class:`ConfigError`, raised before any file or
    directory is written.
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
            [r.n for r in records],
            [r.error_norm for r in records],
            [r.mu for r in records],
            [r.clamp_count for r in records],
        ),
    )
    written.append(path)

    z = result.prepared.grid.samples
    col_z = result.prepared.col_grid.samples
    for n in exp:
        r = records[n]
        nu_on_z = np.interp(z, col_z, r.nu)
        path = os.path.join(out_dir, f"fields_{n:04d}.csv")
        _write_rows(
            path,
            ("z", "nu", "v", "v_opt", "rho", "e_rho"),
            (z, nu_on_z, r.extras["v"], r.extras["v_opt"], r.extras["rho"], r.e_rho),
        )
        written.append(path)
        path = os.path.join(out_dir, f"columns_{n:04d}.csv")
        _write_rows(path, ("z", "nu"), (col_z, r.nu))
        written.append(path)
        path = os.path.join(out_dir, f"pattern_{n:04d}.pbm")
        _write_pbm(path, r.extras["pattern"])
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
            "transfer_sha256": result.prepared.kernel.transfer_sha256,
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
    try:
        with open(path, "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    written.append(path)
    return written


def load_run(out_dir) -> dict:
    """Read an exported run back: run.json, norms and field tables.

    A damaged export raises :class:`ConfigError` naming the file and the
    key, column or line at fault.
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

    def read_table(path, needed):
        try:
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                lines = [(k, line.strip()) for k, line in enumerate(fh, start=2)]
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc}") from exc
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
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {k}: {exc}") from exc
        return {h: np.array([r[i] for r in rows]) for i, h in enumerate(header)}

    exp = meta.get("export_iterations")
    if not isinstance(exp, list) or not all(type(n) is int and n >= 0 for n in exp):
        raise ConfigError(
            f"{meta_path}: 'export_iterations' is missing or not a list of iterations"
        )
    norms = read_table(os.path.join(out_dir, "error_norms.csv"), ("n", "error_norm"))
    fields = {}
    for n in exp:
        fields[n] = read_table(os.path.join(out_dir, f"fields_{n:04d}.csv"), ("z", "e_rho"))
    return {"meta": meta, "norms": norms, "fields": fields}


def report(out_dir, tol: float = 1e-12) -> dict:
    """Recompute error norms from exported fields and verify the CSV.

    Returns a summary dict with ok flag, per-iteration norms, and the
    worst recomputation mismatch.  An export without iterations, or
    without the norm of an exported iteration, raises :class:`ConfigError`.
    """
    data = load_run(out_dir)
    norms = data["norms"]
    norms_path = os.path.join(out_dir, "error_norms.csv")
    if len(norms["n"]) == 0:
        raise ConfigError(f"{norms_path}: holds no iterations")
    worst = 0.0
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
        worst = max(worst, mismatch)
        checked.append((int(n), stored, recomputed, mismatch))
    e0 = float(norms["error_norm"][0])
    summary = {
        "ok": worst <= tol,
        "worst_mismatch": worst,
        "checked": checked,
        "iterations": len(norms["n"]),
        "initial_norm": e0,
        "final_norm": float(norms["error_norm"][-1]),
        "best_norm": float(np.min(norms["error_norm"])),
        "reduction_final": float(norms["error_norm"][-1]) / e0 if e0 else np.nan,
    }
    return summary
