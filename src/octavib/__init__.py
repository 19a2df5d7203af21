"""Equivariant vibrational analysis of the octahedral six-ligand molecule.

Pipeline: force-field equilibrium -> Hessian spectrum and isotypic labels
-> critical numbers -> orbit-type Burnside arithmetic -> bifurcation
invariants and the 16 maximal symmetry types -> linearized mode export.
"""

from .force_field import (
    Equilibrium,
    REFERENCE_PARAMS,
    PotentialParams,
    find_equilibrium,
    gradient,
    hessian,
    hessian_blocks,
    potential,
)
from .spectral import (
    SpectrumReport,
    assign_eigenspaces,
    isotypic_multiplicities,
    numeric_spectrum,
    spectrum_at_equilibrium,
)
from .bifurcation import (
    CriticalNumber,
    InvariantEngine,
    Request,
    check_isotypic_nonresonance,
    critical_set,
)
from .modes import ModeWorkshop, export_trajectory, read_trajectory

__version__ = "0.1.0"

__all__ = [
    "Equilibrium",
    "REFERENCE_PARAMS",
    "PotentialParams",
    "find_equilibrium",
    "gradient",
    "hessian",
    "hessian_blocks",
    "potential",
    "SpectrumReport",
    "assign_eigenspaces",
    "isotypic_multiplicities",
    "numeric_spectrum",
    "spectrum_at_equilibrium",
    "CriticalNumber",
    "InvariantEngine",
    "Request",
    "check_isotypic_nonresonance",
    "critical_set",
    "ModeWorkshop",
    "export_trajectory",
    "read_trajectory",
    "__version__",
]
