"""Equivariant vibrational analysis of the octahedral six-ligand molecule.

Pipeline: force-field equilibrium -> Hessian spectrum and isotypic labels
-> critical numbers -> orbit-type Burnside arithmetic -> bifurcation
invariants and the 16 maximal symmetry types -> linearized mode export.
Each stage is a submodule, imported by name: ``from octavib import modes``.
"""

__version__ = "0.1.0"
