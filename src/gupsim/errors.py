"""Exception hierarchy for the simulation and analysis pipeline."""


class GupsimError(Exception):
    """Base class for all package errors."""


# --- dynamics ---------------------------------------------------------------

class StepTooLarge(GupsimError):
    """Integrator time step violates the resolution guard dt <= T/50."""


class NonFinite(GupsimError):
    """A state or signal diverged to non-finite values."""


class InsufficientData(GupsimError):
    """Input record is too short for the requested analysis."""


class NegativeOccupancy(GupsimError):
    """Mean phonon number must be non-negative."""


# --- optomech ---------------------------------------------------------------

class OutsideLinearRegime(GupsimError):
    """Detuning outside the small-detuning band where the linear spring/damping model holds."""


class InvalidDamping(GupsimError):
    """Effective damping below the intrinsic mechanical damping."""


class RatioUndefined(GupsimError):
    """Sideband ratio is undefined at zero occupancy."""


class ExcitationTooStrong(GupsimError):
    """Excitation power above the level where coherent-peak noise dominates."""


# --- detection --------------------------------------------------------------

class NyquistViolation(GupsimError):
    """Requested band extends beyond the Nyquist frequency."""


class DurationTooShort(GupsimError):
    """Record too short for a stationary spectral estimate."""


class FilterUnstable(GupsimError):
    """Degenerate lock-in filter configuration."""


class SegmentTooLong(GupsimError):
    """Welch segment longer than the series."""


class PeakNotResolved(GupsimError):
    """Coherent peak not resolvable above the fitted background."""


# --- estimation -------------------------------------------------------------

class FitDiverged(GupsimError):
    """Nonlinear least-squares solver failed to converge."""


class WindowOutOfRange(GupsimError):
    """Fit window does not lie inside the record."""


class BaseFitInvalid(GupsimError):
    """Ring-down base fit unusable for transient-shift extraction."""


class WindowOverlap(GupsimError):
    """Early-time window must precede the base-fit window."""


class DegenerateSpan(GupsimError):
    """Regression input does not span distinct detunings."""


class TooFewSamples(GupsimError):
    """At least two samples required for ensemble statistics."""


class UncalibratedCampaign(GupsimError):
    """Deformation bound requested without a calibrated amplitude."""


# --- storage ----------------------------------------------------------------

class CorruptRecord(GupsimError):
    """A stored record is truncated, malformed or from another configuration."""
