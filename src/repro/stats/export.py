"""Result export: experiment outputs to JSON artifacts.

Experiment runners return plain data; :func:`write_json` persists it so runs
can be compared across calibrations and plotted outside the repo.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from pathlib import Path


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
