"""Exception types shared across the package.

Every operation-level failure mode has a named exception so that callers
(and the CLI exit-code contract) can distinguish scientific verdicts from
tooling errors.
"""


class GapfillError(Exception):
    """Base class for all package errors."""


class UnknownGaugeKind(GapfillError):
    """A gauge kind other than "landau" or "symmetric" was requested."""


class NonTorusGeometry(GapfillError):
    """Bulk assembly requires torus geometry."""


class EmptyRegion(GapfillError):
    """A region mask selects no lattice site."""


class MissingPhase(GapfillError):
    """A gauge transformation lacks a phase for some site."""


class ResidualNotCertified(GapfillError):
    """An eigenpair fails the residual certificate."""


class RepeatedSelection(GapfillError):
    """An eigenvector selection names one eigenvalue index more than once."""


class CountNotCertified(GapfillError):
    """An inertia count disagrees with the eigenvalues it should certify."""


class EnclosureViolation(GapfillError):
    """Spectral enclosure of a filter does not contain the Gershgorin bound."""


class HopRangeViolation(GapfillError):
    """A stored operator entry joins sites farther apart than its hop range."""


class MarginTooSmall(GapfillError):
    """An interval's certified margin is missing or too small for the operation."""


class NonConstantRank(GapfillError):
    """In-interval fiber eigenvalue count varies over the dual-torus grid."""


class SingularOverlap(GapfillError):
    """An overlap determinant is numerically singular (grid too coarse)."""


class FluxNotAdmissible(GapfillError):
    """A plaquette Berry flux reaches pi/2: the grid is too coarse for the frames."""


class LiftNotCertified(GapfillError):
    """Fiber eigenpairs lifted to the torus fail the residual certificate."""


class BandConnectionAmbiguous(GapfillError):
    """Bands cannot be followed between momenta: no chain continuation, a
    step still unresolved after the bisection cap, or an uncertified
    crossing state."""


class UnsupportedShape(GapfillError):
    """A shape descriptor has no membership rule in this window kind."""


class StripTooNarrow(GapfillError):
    """A strip is narrower than the edge-state localization requires, or a
    crossing state holds between 40% and 60% of its mass on each half."""


class MaskMismatch(GapfillError):
    """Operators do not share a window/mask, or a mask or site list does not fit its window."""


class ConfigInvalid(GapfillError):
    """Experiment configuration failed schema validation."""


class MissingArtifacts(GapfillError):
    """Report task invoked before the required task outputs exist."""
