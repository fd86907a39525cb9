"""Deterministic JSON file helpers.

All artifacts (vocabulary, scaler, splits, checkpoints, reports) go through
these so that reruns with identical inputs produce byte-identical files.
"""

import json
from pathlib import Path

from .errors import DataFormatError


def write_json(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path, version=None) -> dict:
    """The JSON object in a file. With `version`, the object's "version"
    key must equal it."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path} must hold a JSON object")
    if version is not None and payload.get("version") != version:
        raise DataFormatError(
            f"{path} has version {payload.get('version')!r}, expected {version}"
        )
    return payload


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

