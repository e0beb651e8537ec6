"""Exception types shared across the solver stack."""


class QnlError(Exception):
    """Base class for all package-specific failures."""


class InvalidResolutionError(QnlError):
    """Grid resolution must be an even integer >= 8."""


class NonZeroMeanError(QnlError):
    """Inverse Laplacian requested for a field with non-negligible mean."""


class NotGradientError(QnlError):
    """A field expected to be curl-free fails the gradient fixed-point check."""


class MassDefectError(QnlError):
    """Density handed to the Poisson solver does not have unit mean."""


class DegenerateDensityError(QnlError):
    """Density dropped below the positivity floor during a solve."""


class NonpositiveTemperatureError(QnlError):
    """Temperature lost pointwise positivity during a solve."""


class BlowUpError(QnlError):
    """Solution norm exceeded the blow-up guard threshold."""


class DensityNotPositiveError(QnlError):
    """Generated initial density is not positive (lambda too large)."""


class InsufficientDataError(QnlError):
    """Not enough successful sweep rows to fit a convergence rate."""


class InvalidConfigError(QnlError):
    """Run configuration file is malformed or inconsistent."""


class ChildLostError(QnlError):
    """A forked child process ended without sending its result."""
