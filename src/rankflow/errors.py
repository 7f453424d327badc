"""Exception types shared across the package, and the argument checks that
raise them: every entry point refuses a bad integer or number through
``_require_int``, ``_number`` or ``_positive``, which never take a bool
(Python's or numpy's) as a number, refuse NaN and infinities, and start
their message with the argument's name.  ``_real_array`` refuses ragged
lists and entries that are not numbers, a bool inside a list included,
and leaves NaN and the infinities to the caller's range test; ``_array``
is its check for any numpy kinds.  ``_read_npz`` refuses a file that
``np.savez`` did not write with a ConfigError that names the path.
"""

import math
import numbers
import zipfile

import numpy as np


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

    Attributes, set by every engine and sampler that raises it: ``owner``
    (the breaching particle of a run, or the replica of a sampler),
    ``last`` (its last arrival time, or None in the original engine, whose
    hazard reads a rank and not a last arrival), ``time`` and ``hazard``
    (where and what the hazard was).
    """

    def __init__(self, message, owner=None, last=None, time=None,
                 hazard=None):
        super().__init__(message)
        self.owner = owner
        self.last = last
        self.time = time
        self.hazard = hazard


def _finite(x) -> bool:
    """Whether x is a real number, not a bool, and finite (an integer
    beyond the float range is not)."""
    # a Python float, the common case, skips the ABC check
    if type(x) is float:
        return math.isfinite(x)
    try:
        return (not isinstance(x, bool) and isinstance(x, numbers.Real)
                and math.isfinite(x))
    except OverflowError:
        return False


def _number(name: str, x, error=ConfigError) -> float:
    """x as a float if it is a finite number, else ``error``."""
    if not _finite(x):
        raise error(f"{name}: must be a finite number, got {x!r}")
    return float(x)


def _holds_bool(x) -> bool:
    """Whether the list or tuple x holds a bool, Python's or numpy's, at
    any depth."""
    return any(isinstance(v, (bool, np.bool_))
               or (isinstance(v, np.ndarray) and v.dtype.kind == "b")
               or (isinstance(v, (list, tuple)) and _holds_bool(v))
               for v in x)


def _array(name: str, x, kinds: str, what: str,
           error=ConfigError) -> np.ndarray:
    """x as an array if its numpy dtype kind is one of ``kinds``, else
    ``error``, saying that x must be ``what``.  A list or tuple that holds
    a bool is refused too, as numpy reads the bool as 0 or 1 among
    numbers, and so is a ragged one, of which numpy makes no array; an
    ndarray is read by its dtype alone."""
    try:
        a = np.asarray(x)
    except ValueError:
        raise error(f"{name}: must be {what}, got a ragged list {x!r}") from None
    if a.dtype.kind not in kinds or (isinstance(x, (list, tuple))
                                     and _holds_bool(x)):
        raise error(f"{name}: must be {what}, got {x!r}")
    return a


def _real_array(name: str, x, error=ConfigError) -> np.ndarray:
    """x as a float array if its entries are integers or floats (a bool, a
    string or None is none, also inside a list), else ``error``."""
    return _array(name, x, "iuf", "numbers", error).astype(float, copy=False)


def _positive(name: str, x, error=ConfigError) -> float:
    """x as a float if it is a finite number above 0, else ``error``."""
    if not (_finite(x) and x > 0):
        raise error(f"{name}: must be positive and finite, got {x!r}")
    return float(x)


def _require_int(name: str, value, least: int, error=ConfigError) -> None:
    """An integer (a bool is none) of at least ``least``, else ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name}: must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name}: must be >= {least}, got {value}")


def _read_npz(path, what: str, keys) -> dict:
    """The arrays ``keys`` of the ``np.savez`` archive at ``path``, read
    whole; ConfigError, saying the path is not ``what`` (such as "a
    solve cache"), for a file that numpy does not read as an archive or one
    without every key."""
    try:
        data = np.load(path)
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not {what}: {exc}") from exc
    except ValueError as exc:
        # numpy's message advises loading the file unsafely
        raise ConfigError(f"{path}: not {what}: neither an npz archive nor "
                          f"a plain npy array, and pickled data is not "
                          f"read") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not {what}: one bare array")
    with data:
        missing = [k for k in keys if k not in data.files]
        if missing:
            raise ConfigError(f"{path}: not {what}: no {missing[0]!r} in it")
        return {k: data[k] for k in keys}
