"""Exception and warning types shared across the toolkit."""


class IbmSimError(Exception):
    """Base class for all toolkit errors."""


class DomainError(IbmSimError):
    """Invalid domain, or points that do not fit the domain."""


class NotSingle(IbmSimError):
    """Two points of a configuration coincide within tolerance."""


class KMismatch(IbmSimError):
    """Operation requires a specific number of tagged points."""


class NoSuchPoint(IbmSimError):
    """No configuration point matches the requested position."""


class Overlap(IbmSimError):
    """Hard-core particles overlap."""


class StepRejected(IbmSimError):
    """Hard-core rejection exhausted its retry and step-halving budget."""


class WindowTooLarge(IbmSimError):
    """Observation window exits the bulk of the spectrum."""


class AcceptanceTooLow(IbmSimError):
    """Rejection sampler acceptance rate fell below the floor."""


class AmbiguousMatching(IbmSimError):
    """Track matching cannot decide between near-equal assignments."""


class TooManyPoints(IbmSimError):
    """Exact symmetrization requested beyond the point-count cap."""


class InsufficientSamples(IbmSimError):
    """Estimator bins would receive too few counts to be meaningful."""


class FormatError(IbmSimError):
    """Malformed persisted file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class VersionMismatch(FormatError):
    """Persisted file declares an unknown format version."""


class ConfigError(IbmSimError):
    """Invalid run configuration."""


class NonConvergenceWarning(UserWarning):
    """MCMC move acceptance below the healthy floor."""
