"""Exception types shared across the package."""


class InvalidLevelError(ValueError):
    """An operation was applied at a tangent level it is not defined for."""


class DomainError(ValueError):
    """A point lies outside the domain an operation requires."""


class IntegrationBlowupError(RuntimeError):
    """Non-finite values appeared during integration.

    ``t_end`` is the time of the run's last finite node when a step of the
    run failed, and None when the start itself failed.
    """

    t_end: float | None = None


class InconsistentTrajectoryError(RuntimeError):
    """A constructed trajectory failed its own consistency check."""


class TraceError(TypeError):
    """A traced evaluation asked for the value of a symbolic scalar."""
