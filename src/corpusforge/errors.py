"""Shared exception base and value check for data and validation failures."""


class CorpusForgeError(Exception):
    """Base class for all data-level errors raised by this package.

    The CLI maps these to exit code 2. Service-level errors from the
    text-generation client have their own hierarchy (exit code 3).
    """


def strict_int(value) -> int:
    """``int(value)``, but a bool or a non-integral float raises ValueError.

    int() alone would take a JSON or config 2.7 or true as 2 or 1, and end
    in an OverflowError on Infinity.
    """
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(value)
    return int(value)
