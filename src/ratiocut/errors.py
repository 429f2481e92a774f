"""Exception and warning types shared across the library."""


class InputError(ValueError):
    """Raised when an argument or an input file violates a documented precondition."""


class FileFormatError(InputError):
    """Malformed graph or partition file; message carries a path:line:col prefix."""


class SizeError(InputError):
    """Problem size exceeds a hard cap of an exact (exponential or LP) routine."""


class SolverError(RuntimeError):
    """A numerical solver failed, or its result failed the check made before returning it."""


class HypothesisViolation(ValueError):
    """Input fails a theorem hypothesis (e.g. a cluster smaller than 3 vertices)."""


class SingletonBlockWarning(UserWarning):
    """A partition block has one vertex; its internal connectivity is reported as +inf."""


class DegenerateAlignmentWarning(UserWarning):
    """Cross-product of the two column spaces is (nearly) rank deficient."""


class DisconnectedGraphWarning(UserWarning):
    """Operation ran on a disconnected graph where a connected one is recommended."""
