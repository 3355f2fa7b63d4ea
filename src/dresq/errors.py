"""Exception hierarchy and the input and memory checks shared by all dresq modules.

The CLI maps these onto process exit codes: configuration problems exit 2,
physics-domain failures (degeneracies, missing sign changes, bad brackets)
exit 3, and numerical failures (trace drift, fit non-convergence)
exit 4.

A usable number is a finite real number that is neither a bool nor text
(``float()`` would parse text and take a bool for 0 or 1); a usable count
is such a number with an integral value; a time grid is uniform when its
steps spread by at most GRID_TOL_NS; and no request may need more than
MEMORY_LIMIT bytes. Every module checks its input and its allocations with
the helpers below, so that decision is made here alone, and each refusal
is a ConfigError raised before anything of the refused size is allocated.
Each input is checked once, where it enters: a public function checks its
inputs before it builds anything, and the one Hamiltonian stack builder
(``device.Block.stack``) and the private helpers trust them.
"""

import math
import numbers

import numpy as np

# largest footprint one request (a model, a stack of stage maps, a grid) may take
MEMORY_LIMIT = 512 * 2**20

# largest spread of the steps of a time grid that still counts as uniform
GRID_TOL_NS = 1e-9


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


def require_memory(need_bytes: int, what: str) -> None:
    """ConfigError unless ``need_bytes``, the footprint of ``what``, fits in MEMORY_LIMIT."""
    if need_bytes > MEMORY_LIMIT:
        raise ConfigError(
            f"{what} needs {need_bytes / 2**20:.0f} MiB "
            f"(limit {MEMORY_LIMIT / 2**20:.0f} MiB)"
        )


def require_number(value, what: str, positive: bool = False) -> float:
    """``value`` as a float; ConfigError unless it is a finite real number,
    positive if asked, and neither a bool nor text."""
    number = value
    if type(value) is not float:  # the common case skips the slower ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{what} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{what} is an integer beyond the float range") from None
    if not math.isfinite(number) or (positive and not number > 0):
        raise ConfigError(
            f"{what} must be {'positive and ' if positive else ''}finite, got {value!r}"
        )
    return number


def require_numbers(values, what: str, positive: bool = False) -> np.ndarray:
    """``values`` as a 1-d float array; ConfigError unless each one is a usable
    number (see :func:`require_number`)."""
    try:
        raw = np.asarray(values)
    except ValueError:  # a ragged nesting of sequences
        raw = np.empty(0, dtype=object)
    # a list holding a bool among numbers becomes a float array
    mixed = isinstance(values, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in values
    )
    if mixed or raw.ndim != 1 or raw.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be a 1-d array of numbers, got {values!r}")
    array = raw.astype(float)
    usable = np.isfinite(array) & (array > 0) if positive else np.isfinite(array)
    if not usable.all():
        raise ConfigError(
            f"{what} must be {'positive and ' if positive else ''}finite, "
            f"got {float(array[~usable][0])}"
        )
    return array


def require_count(value, what: str, minimum: int) -> int:
    """``value`` as an int; ConfigError unless it is a usable number with an
    integral value of at least ``minimum``."""
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        count = int(value)
    else:
        number = require_number(value, what)
        count = int(number) if number.is_integer() else None
    if count is None or count < minimum:
        raise ConfigError(f"{what} must be an integer of at least {minimum}, got {value!r}")
    return count


def uneven_steps(steps: np.ndarray) -> bool:
    """Whether the steps (ns) of a time grid spread by more than GRID_TOL_NS."""
    return steps.max() - steps.min() > GRID_TOL_NS
