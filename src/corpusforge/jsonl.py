"""JSON files and JSON Lines files (one JSON object per line), UTF-8.

Every JSON and JSONL input (weights, configs, manifests, plans, eval pairs)
is read and every JSONL output written here, so all inputs take one rule set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .errors import open_text

# JSON values that str() would spell as Python does ("['a']", "True"): a
# field read as text rejects them, naming their kind.
NON_TEXT_KINDS = {list: "array", dict: "object", bool: "boolean"}


def read_jsonl(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line of `path`.

    Text that is not UTF-8 raises `error`, naming the line; invalid JSON
    or a line that is not a JSON object raises it naming the row.
    """
    with open_text(path, error) as f:
        # All lines first: an unfinished UTF-8 sequence that ends the file
        # fails only when the decoder reaches the end, after earlier rows.
        for lineno, line in enumerate(f.readlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}: row {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise error(f"{path}: row {lineno}: expected a JSON object")
            yield lineno, record


def read_json_object(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object that is the whole of `path`, under the same rules."""
    with open_text(path, error) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object")
    return data


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one line of JSON, non-ASCII text as is."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")
