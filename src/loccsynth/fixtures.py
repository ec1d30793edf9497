"""Bundled measurement instances used by the CLI demos and the test suite.

The measurements live only in `data/*.json`, in the exact file format of
`frontend_cli`.  `BUILTIN` maps each file's stem to a zero-argument
callable that reads a fresh SeparableMeasurement from that file.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from .frontend_cli import read_measurement

_DATA_DIR = Path(__file__).resolve().parent / "data"

BUILTIN = {
    path.stem: partial(read_measurement, path)
    for path in sorted(_DATA_DIR.glob("*.json"))
}
