"""Exception types shared across the package, and ``allocating``, which
names the config keys behind an array that cannot be allocated.

The CLI maps these onto exit codes: validation problems (DimensionError,
ConfigError, DataFormatError) exit 1, numeric failures (NumericError) exit 2.
"""

from contextlib import contextmanager


class DimensionError(ValueError):
    """Tensor extents do not line up for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced (or was handed) a non-finite value."""


class ConfigError(ValueError):
    """An experiment or dataset configuration is invalid."""


class DataFormatError(ValueError):
    """A dataset directory or checkpoint violates its declared format."""


@contextmanager
def allocating(what: str, keys: str):
    """Turn a MemoryError raised inside into a ConfigError naming ``what``
    was being allocated and the ``keys`` that size it, followed by
    numpy's message; so too the ValueError numpy raises for a size past its
    limit, which is why the block may hold only allocations and draws."""
    try:
        yield
    except (MemoryError, ValueError) as e:
        raise ConfigError(f"cannot allocate {what}, sized by {keys}: "
                          f"{e}") from e
