"""Command-line front end for concurrence sweeps.

Usage example:

    pseudomode --state psi --alpha2-grid 0.05:0.95:19 --gamma-s 0.02 \
        --rate-unit gamma0 --t-max 150 --steps 1500 --out rows.csv

Every flag can also be supplied through --config FILE as flat key=value
lines (keys are the flag names with dashes or underscores); flags given on
the command line override the file. The rate unit for --gamma-s is never
guessed: --rate-unit gamma0 or omega must come from the flag or the file.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .operators import DEFAULT_GAMMA_CAVITY, DEFAULT_OMEGA
from .sweep import (
    DEFAULT_ESD_THRESHOLD,
    SweepConfig,
    detect_esd_intervals,
    run_sweep,
    write_grid_csv,
    write_rows_csv,
)

_STATE_CHOICES = ("phi", "psi", "werner")
_FAMILY_BY_STATE = {"phi": "phi", "psi": "psi", "werner": "werner_psi"}


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from None
    if not values:
        raise ValueError(f"expected at least one value, got {text!r}")
    return values


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be lo:hi:n with numeric fields, got {text!r}") from None
    if n < 1:
        raise ValueError("grid point count must be >= 1")
    return tuple(float(x) for x in np.linspace(lo, hi, n))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# key -> (converter from config-file string, default value)
_OPTIONS: dict[str, tuple] = {
    "state": (str, "psi"),
    "alpha2": (float, None),
    "alpha2_grid": (str, None),
    "theta": (float, 0.0),
    "r": (float, 1.0),
    "omega": (float, DEFAULT_OMEGA),
    "gamma_cavity": (float, DEFAULT_GAMMA_CAVITY),
    "gamma_s": (_parse_float_list, (0.0,)),
    "rate_unit": (str, None),
    "t_max": (float, 200.0),
    "steps": (int, 2000),
    "fock_cutoff": (int, 3),
    "out": (str, None),
    "emit_grid": (_parse_bool, False),
    "esd_threshold": (float, DEFAULT_ESD_THRESHOLD),
    "step_size": (float, 1e-3),
    "workers": (int, 1),
    "initial_state_file": (str, None),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pseudomode",
        description="Sweep two-qubit concurrence under a common damped mode "
                    "with independent spontaneous emission.")
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value file; flags override it")
    p.add_argument("--state", choices=_STATE_CHOICES,
                   help="initial state family (default psi)")
    p.add_argument("--alpha2", type=float,
                   help="single alpha^2 value (default 0.5)")
    p.add_argument("--alpha2-grid", metavar="LO:HI:N",
                   help="inclusive linspace over alpha^2; excludes --alpha2")
    p.add_argument("--theta", type=float, help="relative phase (default 0)")
    p.add_argument("--r", type=float,
                   help="purity weight for the werner family (default 1)")
    p.add_argument("--omega", type=float,
                   help="qubit-mode coupling in gamma0 units (default 0.2)")
    p.add_argument("--gamma-cavity", type=float,
                   help="mode decay rate in gamma0 units (default sqrt(0.05))")
    p.add_argument("--gamma-s", metavar="G[,G...]",
                   help="spontaneous emission rate(s), comma separated "
                        "(default 0)")
    p.add_argument("--rate-unit", choices=("gamma0", "omega"),
                   help="unit for --gamma-s values; required, never inferred")
    p.add_argument("--t-max", type=float, help="final scaled time (default 200)")
    p.add_argument("--steps", type=int,
                   help="number of grid intervals; steps+1 samples "
                        "(default 2000)")
    p.add_argument("--fock-cutoff", type=int,
                   help="mode truncation (default 3)")
    p.add_argument("--out", metavar="FILE", help="CSV output path")
    p.add_argument("--emit-grid", action="store_true", default=None,
                   help="write a dense (time, alpha2) grid instead of rows; "
                        "single gamma_s only")
    p.add_argument("--esd-threshold", type=float,
                   help="dark-interval threshold for the summary "
                        "(default 1e-6)")
    p.add_argument("--step-size", type=float,
                   help="RK4 step in scaled time (default 1e-3)")
    p.add_argument("--workers", type=int,
                   help="process count for sweep cells (default 1)")
    p.add_argument("--initial-state-file", metavar="FILE",
                   help="raw state file to evolve instead of a built-in "
                        "family; alpha2 is recorded as nan")
    return p


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def _merge_options(args: argparse.Namespace,
                   file_entries: dict[str, str]) -> dict:
    merged = {}
    for key, (convert, default) in _OPTIONS.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in file_entries:
            merged[key] = convert(file_entries[key])
        else:
            merged[key] = default
    return merged


def _config_from_options(opt: dict) -> SweepConfig:
    if opt["rate_unit"] is None:
        raise ValueError("--rate-unit {gamma0|omega} is required (flag or "
                         "config file); rate units are never inferred")
    if opt["alpha2"] is not None and opt["alpha2_grid"] is not None:
        raise ValueError("give either --alpha2 or --alpha2-grid, not both")
    if opt["alpha2_grid"] is not None:
        alpha2_grid = _parse_grid(opt["alpha2_grid"])
    elif opt["alpha2"] is not None:
        alpha2_grid = (opt["alpha2"],)
    else:
        alpha2_grid = (0.5,)
    if opt["state"] not in _STATE_CHOICES:
        raise ValueError(f"state must be one of {_STATE_CHOICES}")
    gamma_s = opt["gamma_s"]
    if isinstance(gamma_s, str):
        gamma_s = _parse_float_list(gamma_s)
    return SweepConfig(
        family=_FAMILY_BY_STATE[opt["state"]],
        theta=opt["theta"],
        r=opt["r"],
        alpha2_grid=alpha2_grid,
        gamma_s_list=tuple(gamma_s),
        rate_unit=opt["rate_unit"],
        omega=opt["omega"],
        gamma_cavity=opt["gamma_cavity"],
        n_fock=opt["fock_cutoff"],
        t_max=opt["t_max"],
        n_steps=opt["steps"],
        step_size=opt["step_size"],
        esd_threshold=opt["esd_threshold"],
        workers=opt["workers"],
        initial_state_path=opt["initial_state_file"],
    )


def _format_intervals(intervals) -> str:
    if not intervals:
        return "none"
    parts = []
    for death, revival in intervals:
        end = "open" if revival is None else f"{revival:.6g}"
        parts.append(f"[{death:.6g},{end}]")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        file_entries = _read_config_file(args.config) if args.config else {}
        opt = _merge_options(args, file_entries)
        config = _config_from_options(opt)
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = run_sweep(config)

    for cell in result.cells:
        if cell.failed:
            continue
        intervals = detect_esd_intervals(cell.times, cell.concurrence,
                                         config.esd_threshold)
        alpha2 = "nan" if math.isnan(cell.alpha2) else f"{cell.alpha2:.6g}"
        print(f"gamma_s={cell.gamma_s:.6g} alpha2={alpha2} "
              f"path={cell.path} max_concurrence={cell.concurrence.max():.6g} "
              f"dark_intervals={_format_intervals(intervals)}")

    out = opt["out"]
    if out is not None:
        # rows for healthy cells are still written when some cells failed
        try:
            if opt["emit_grid"]:
                write_grid_csv(result, out)
            else:
                write_rows_csv(result, out)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        n_rows = sum(len(c.times) for c in result.cells if not c.failed)
        print(f"wrote {out} ({n_rows} rows, {len(result.cells)} cells)")

    if result.failed:
        for cell in result.failed_cells:
            print(f"failed cell gamma_s={cell.gamma_s:.6g} "
                  f"alpha2={cell.alpha2:.6g}: {cell.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
