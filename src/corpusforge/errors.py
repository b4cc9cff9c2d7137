"""Shared exception base, value check and text-file reader for data inputs."""

from contextlib import contextmanager
from pathlib import Path


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


@contextmanager
def open_text(path, error=CorpusForgeError, newline=None):
    """Open `path` for reading as UTF-8 text; every text input is read here.

    A leading UTF-8 byte order mark, as Windows editors write, is skipped.
    A byte sequence that is not UTF-8, met anywhere while the file is read
    inside the ``with`` block, raises `error` naming the file and line.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as f:
            yield f
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines end at \n, \r\n or \r, as the file's readers count them.
            line = len((data[: exc.start] + b"x").splitlines())
            raise error(
                f"{path}: line {line}: not UTF-8 text "
                f"(byte 0x{data[exc.start]:02x})"
            ) from None
        raise
