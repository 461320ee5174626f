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

Import the module you need by its path, as in
``from potshape.harness import ScenarioConfig``; the package itself
re-exports nothing.
"""
