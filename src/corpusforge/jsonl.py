"""JSON Lines files: one JSON object per line, UTF-8.

Every JSONL input (manifests, plans, eval pairs) is read and every JSONL
output written here, so all of them take the same input rules.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .errors import open_text


def read_jsonl(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line of `path`.

    A UTF-8 byte order mark is skipped. Text that is not UTF-8 raises
    `error`, naming the line; invalid JSON or a line that is not a JSON
    object raises it naming the row.
    """
    with open_text(path, error, "utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}: row {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise error(f"{path}: row {lineno}: expected a JSON object")
            yield lineno, record


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one line of JSON, non-ASCII text as is."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")
