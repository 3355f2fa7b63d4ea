"""Exception hierarchy shared by all dresq modules.

The CLI maps these onto process exit codes: configuration problems exit 2,
physics-domain failures (degeneracies, missing sign changes, bad brackets)
exit 3, and numerical failures (trace drift, fit non-convergence)
exit 4.
"""


class DresqError(Exception):
    """Base class for all package errors."""


class ConfigError(DresqError):
    """Invalid device file, run configuration, or parameter set."""


class PhysicsError(DresqError):
    """The requested operation is ill-posed for the given device physics."""


class NumericsError(DresqError):
    """A numerical routine failed to meet its accuracy contract."""


class IntegrationError(NumericsError):
    """Master-equation evolution violated a trace or positivity tolerance."""


class FitError(NumericsError):
    """Least-squares fit did not converge or the model is not identifiable."""
