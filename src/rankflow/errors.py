"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A population spec or run configuration failed validation.

    The message carries a dotted path to the offending field, e.g.
    ``classes[1].field.base``.
    """


class DomainError(ValueError):
    """A query left the admissible domain (position, time, or (gamma, t) pair)."""


class ConvergenceError(RuntimeError):
    """The fixed-point solver exhausted its iteration budget.

    Attributes:
        residual_history: fixed-point residual per Picard iteration, in order.
    """

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


class EnvelopeBreach(RuntimeError):
    """A thinning envelope was exceeded at an acceptance evaluation.

    This is an invariant breach (the declared sup-norm was wrong), never a
    recoverable condition.

    Attributes, set when ``latp.thin_last_arrival`` raises it and None
    otherwise: ``owner`` (the breaching process), ``last`` (its last
    arrival time), ``time`` and ``hazard`` (where and what the hazard was).
    """

    def __init__(self, message, owner=None, last=None, time=None,
                 hazard=None):
        super().__init__(message)
        self.owner = owner
        self.last = last
        self.time = time
        self.hazard = hazard
