"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: NumericalError -> 1, ConfigError -> 2,
ConsistencyError -> 3.
"""


class OctavibError(Exception):
    """Base class for all package errors."""


class NumericalError(OctavibError):
    """A numerical computation failed (search, resonance, amplitude...)."""


class ConfigError(OctavibError):
    """Bad user input: config file, unknown mode index, malformed request."""


class ConsistencyError(OctavibError):
    """Internal invariant violated; indicates a bug, not a user error."""


class CollisionError(NumericalError):
    """Two ligand positions coincide, or a ligand sits on the central atom."""

    def __init__(self, i, j=None):
        if j is None:
            msg = f"ligand {i + 1} coincides with the central atom"
        else:
            msg = f"ligands {i + 1} and {j + 1} coincide"
        super().__init__(msg)


class SearchFailureError(NumericalError):
    """No bracketing interval found for the equilibrium radius."""


class ShapeError(ConfigError):
    """Input matrix/configuration has the wrong shape or symmetry."""


class LabelingError(ConsistencyError):
    """An eigenspace character matches no irreducible row."""


class ResonanceError(NumericalError):
    """Isotypic resonance detected where nonresonance is required."""


class AmplitudeError(NumericalError):
    """Mode amplitude above the collision-safe bound (``safe_amplitude``)."""


class SamplingError(ConfigError):
    """Requested phase shift is incommensurate with the sample grid."""


class CatalogError(NumericalError):
    """Orbit-type outside the constructed catalog closure (e.g. an off-grid angle)."""
