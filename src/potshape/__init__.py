"""Desk-scale simulator and learning control for shaped optical potentials.

The package models a quasi-1d condensate in a magnetic trap whose
longitudinal potential is corrected by a repulsive dipole potential
drawn with a binary micromirror array.  Modules:

  core       grids, real fields, spectra, convolution
  optics     point-spread function, beam, mirror patterns, propagation
  inputmap   per-column pattern optimisation and the input table
  condensate ground states, Thomas-Fermi profiles, measurement
  ilc        learning kernel design and the law's correction
  harness    scenarios, the closed loop, exports
  cli        command line front end
"""

from .condensate import (
    CondensateParams,
    ConvergenceError,
    GroundState,
    MeasurementConfig,
    SolverConfig,
    ground_state,
    measure_density,
    thomas_fermi_density,
)
from .core import (
    RealField1D,
    SpatialGrid1D,
    Spectrum1D,
    convolve,
    spectrum,
)
from .harness import (
    ConfigError,
    ScenarioConfig,
    desired_potential,
    export_records,
    prepare,
    run_closed_loop,
)
from .ilc import (
    LearningKernel,
    density_error,
    design_kernel,
    gain_profile,
    transfer_function,
)
from .inputmap import Lut, LutSpec, build_lut, load_lut, map_virtual_input, save_lut
from .optics import (
    BeamProfile,
    DarkSpot,
    DmdPattern,
    DmdSpec,
    MagneticPotentialSpec,
    PsfModel,
    TransmissionDisturbance,
    propagate_full,
    propagate_separable,
)

__version__ = "0.1.0"
