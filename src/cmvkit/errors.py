"""Domain errors shared across the package."""


class CmvError(Exception):
    """Base class for every mathematical/domain error raised by cmvkit."""


class OutOfRange(CmvError):
    """A coefficient or parameter lies outside its admissible range."""


class NonPositiveOffDiagonal(CmvError):
    """A Jacobi off-diagonal entry is zero or negative."""


class DegenerateSpectrum(CmvError):
    """Two spectral points are too close to define a simple spectral measure."""


class SupportTooSmall(CmvError):
    """More orthogonal polynomials requested than the measure can support."""


class IllConditioned(CmvError):
    """An inverse spectral computation lost too much precision to continue."""


class NotSymmetric(CmvError):
    """A circle measure is not invariant under complex conjugation."""


class SupportAtRealAxis(CmvError):
    """A circle measure has support at angle 0 or pi, where conjugate pairs collapse."""


class InvalidBoundary(CmvError):
    """Coefficients handed to the circle/interval map violate its boundary convention."""


class InvalidNu(CmvError):
    """The disk distribution parameter must satisfy nu >= 1."""


class InvalidParams(CmvError):
    """A sampler or statistic received invalid parameters."""


class DomainViolation(CmvError):
    """Points lie outside the ensemble's domain."""


class EmptySample(CmvError):
    """A statistic was requested for an empty sample."""


class RhoTooSmall(CmvError):
    """A coefficient is too close to the unit circle for the flow to continue."""


class NonDistinctLambda(CmvError):
    """Growth rates are not strictly ordered, so sorting asymptotics do not apply."""


class NonDifferentiable(CmvError):
    """Finite-difference gradients at two step sizes disagree too much."""
