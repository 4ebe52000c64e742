"""Tests for result export."""

import json

from repro.stats import write_json


def test_write_and_read_json_roundtrip(tmp_path):
    payload = {"rps": 1234.5, "series": [(0, 1), (1, 2)], "name": "fig9"}
    path = write_json(tmp_path / "out" / "fig9.json", payload)
    loaded = json.loads(path.read_text())
    assert loaded["rps"] == 1234.5
    assert loaded["series"] == [[0, 1], [1, 2]]


def test_write_json_handles_dataclasses_and_bytes(tmp_path):
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: int
        payload: bytes

    path = write_json(tmp_path / "point.json", Point(x=3, payload=b"\x01\x02"))
    loaded = json.loads(path.read_text())
    assert loaded == {"x": 3, "payload": "0102"}
