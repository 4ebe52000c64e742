"""Result export: experiment outputs to JSON and CSV artifacts.

Experiment runners return plain data; these helpers persist them so runs
can be compared across calibrations and plotted outside the repo.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence


def _jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {key: _jsonable(item) for key, item in asdict(value).items()}
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    return repr(value)


def write_json(path: str | Path, payload: object, indent: int = 2) -> Path:
    """Serialize any experiment result (dataclasses included) to JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(_jsonable(payload), indent=indent, sort_keys=True))
    return target


def read_json(path: str | Path) -> object:
    return json.loads(Path(path).read_text())


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> Path:
    """Write a plotting-ready CSV (one table/figure series per file)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))
    return target
