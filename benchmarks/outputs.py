"""What one run of a workload produced, in one form for API and CLI runs.

A run's output is a list of cells, in config order: alpha2, the
concurrence path, whether the cell failed, its dark intervals formatted as
the CLI prints them, and its concurrence series. Runs of the same workload
must produce the same output; `digest` tells them apart cheaply.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ESD_THRESHOLD = 1e-6

_SUMMARY = re.compile(r"^gamma_s=\S+ alpha2=(\S+) path=(\S+) "
                      r"max_concurrence=\S+ dark_intervals=(.*)$")


@dataclass
class Cell:
    alpha2: float
    path: str
    failed: bool
    intervals: str
    conc: np.ndarray


def format_intervals(intervals) -> str:
    """Dark intervals in the pseudomode CLI's summary-line format."""
    if not intervals:
        return "none"
    return " ".join(
        f"[{death:.6g},{'open' if revival is None else f'{revival:.6g}'}]"
        for death, revival in intervals)


def from_sweep(result, detect_esd_intervals) -> list[Cell]:
    """Cells of an API run; dark intervals come from the package."""
    return [Cell(c.alpha2, c.path, c.failed,
                 format_intervals(detect_esd_intervals(
                     c.times, c.concurrence, ESD_THRESHOLD)),
                 np.asarray(c.concurrence, dtype=float))
            for c in result.cells]


def from_cli(alpha2: tuple[float, ...], stdout: str, csv_path: Path
             ) -> list[Cell]:
    """Cells of a CLI run, read from its summary lines and rows CSV.

    A cell without a summary line or rows counts as failed.
    """
    summary = {}
    for line in stdout.splitlines():
        m = _SUMMARY.match(line)
        if m:
            summary[m.group(1)] = (m.group(2), m.group(3))
    rows = np.empty((0, 3))
    if csv_path.is_file():
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=2,
                          usecols=(1, 2, 3), ndmin=2)
    cells = []
    for a2 in alpha2:
        path, intervals = summary.get(f"{a2:.6g}", ("none", ""))
        conc = rows[rows[:, 0] == a2, 2]
        cells.append(Cell(a2, path, path == "none" or conc.size == 0,
                          intervals, conc))
    return cells


def digest(cells: list[Cell]) -> str:
    h = hashlib.sha256()
    for c in cells:
        h.update(repr((c.alpha2, c.path, c.failed, c.intervals)).encode())
        h.update(np.ascontiguousarray(c.conc).tobytes())
    return h.hexdigest()


def save(cells: list[Cell], path: Path) -> None:
    meta = [(c.alpha2, c.path, c.failed, c.intervals) for c in cells]
    np.savez(path, meta=json.dumps(meta),
             **{f"c{i}": c.conc for i, c in enumerate(cells)})


def load(path: Path) -> list[Cell]:
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        return [Cell(a2, p, bool(f), iv, data[f"c{i}"])
                for i, (a2, p, f, iv) in enumerate(meta)]
