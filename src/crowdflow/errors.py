"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ConfigurationError -> 1,
NumericError -> 2, BoundViolationError -> 3, and any other
CrowdflowError (a forked worker that ended without a reply, an
EstimationError) -> 1, reported as one `error: ...` line.
"""


class CrowdflowError(Exception):
    pass


class ConfigurationError(CrowdflowError):
    """Bad grid geometry, config file, or model description."""


class UnsupportedModelError(ConfigurationError):
    """Operation not defined for the given model family."""


class NumericError(CrowdflowError):
    """NaN, overflow, or out-of-domain value produced during a run."""


class EstimationError(CrowdflowError):
    """Empirical constant estimation got degenerate inputs."""


class BoundViolationError(CrowdflowError):
    """A strict-mode invariant (maximum principle) was violated."""
