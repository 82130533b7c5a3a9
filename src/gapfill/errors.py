"""Exception types shared across the package.

Every operation-level failure mode has a named exception so that callers
(and the CLI exit-code contract) can distinguish scientific verdicts from
tooling errors.
"""


class GapfillError(Exception):
    """Base class for all package errors."""


class NonTorusGeometry(GapfillError):
    """Bulk assembly requires torus geometry."""


class EmptyRegion(GapfillError):
    """A region mask selects no lattice site."""


class MissingPhase(GapfillError):
    """A gauge transformation lacks a phase for some site."""


class DenseCapExceeded(GapfillError):
    """Dense eigensolve requested above the fixed dimension cap."""


class ResidualNotCertified(GapfillError):
    """An eigenpair fails the residual certificate."""


class CountNotCertified(GapfillError):
    """An inertia count disagrees with the eigenvalues it should certify."""


class EnclosureViolation(GapfillError):
    """Spectral enclosure of a filter does not contain the Gershgorin bound."""


class MarginTooSmall(GapfillError):
    """An interval's certified margin is missing or too small for the operation."""


class GaugeNotCellPeriodic(GapfillError):
    """Gauge field cannot be reduced to a cell-periodic Bloch family."""


class NonConstantRank(GapfillError):
    """In-interval fiber eigenvalue count varies over the dual-torus grid."""


class SingularOverlap(GapfillError):
    """An overlap determinant is numerically singular (grid too coarse)."""


class FluxNotAdmissible(GapfillError):
    """A plaquette Berry flux reaches pi/2: the grid is too coarse for the frames."""


class LiftNotCertified(GapfillError):
    """Fiber eigenpairs lifted to the torus fail the residual certificate."""


class BandConnectionAmbiguous(GapfillError):
    """Eigenvector overlap too small to continue bands between momenta."""


class UnsupportedShape(GapfillError):
    """A shape descriptor has no membership rule in this window kind."""


class StripTooNarrow(GapfillError):
    """A strip is narrower than the edge-state localization requires."""


class MaskMismatch(GapfillError):
    """Bulk and restricted operators do not share a common window/mask."""


class ConfigInvalid(GapfillError):
    """Experiment configuration failed schema validation."""


class MissingArtifacts(GapfillError):
    """Report task invoked before the required task outputs exist."""
