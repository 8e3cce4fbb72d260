"""Command-line front end for concurrence sweeps.

Usage example:

    pseudomode --state psi --alpha2-grid 0.05:0.95:19 --gamma-s 0.02 \
        --rate-unit gamma0 --t-max 150 --steps 1500 --out rows.csv

Every flag can also be supplied through --config FILE as flat key=value
lines (keys are the flag names with dashes or underscores). Each line
becomes a --flag=value token (emit_grid = true|false becomes the bare
--emit-grid switch or nothing), parsed by the same parser ahead of the
command line, so flags given on the command line override the file. An
option set nowhere keeps its SweepConfig default. The rate unit for
--gamma-s is never guessed: --rate-unit gamma0 or omega must come from the
flag or the file.

Exit codes: 0 success, 1 some grid cell failed integration (the healthy
cells' rows are still written; with --emit-grid no grid is written), 2
usage or configuration error (including a Fock cutoff too small for the
chosen state family, and --emit-grid with more than one gamma_s);
configuration errors exit before any cell runs.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .sweep import (
    RATE_UNITS,
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
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one value, got {text!r}")
    return values


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:n with numeric fields, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("grid point count must be >= 1")
    return tuple(float(x) for x in np.linspace(lo, hi, n))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    """Flags whose dests are SweepConfig fields, apart from --state and
    --alpha2 (translated in _sweep_config) and the CLI-only --config, --out
    and --emit-grid. An unset flag is absent from the namespace."""
    d = SweepConfig()
    p = argparse.ArgumentParser(
        prog="pseudomode",
        description="Sweep two-qubit concurrence under a common damped mode "
                    "with independent spontaneous emission.",
        argument_default=argparse.SUPPRESS)
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value file; flags override it")
    p.add_argument("--state", choices=_STATE_CHOICES,
                   help=f"initial state family (default {d.family})")
    p.add_argument("--alpha2", type=float,
                   help=f"single alpha^2 value (default {d.alpha2_grid[0]:g})")
    p.add_argument("--alpha2-grid", metavar="LO:HI:N", type=_parse_grid,
                   help="inclusive linspace over alpha^2; excludes --alpha2")
    p.add_argument("--theta", type=float,
                   help=f"relative phase (default {d.theta:g})")
    p.add_argument("--r", type=float,
                   help=f"purity weight for the werner family "
                        f"(default {d.r:g})")
    p.add_argument("--omega", type=float,
                   help=f"qubit-mode coupling in gamma0 units "
                        f"(default {d.omega:g})")
    p.add_argument("--gamma-cavity", type=float,
                   help=f"mode decay rate in gamma0 units "
                        f"(default {d.gamma_cavity:g})")
    p.add_argument("--gamma-s", dest="gamma_s_list", metavar="G[,G...]",
                   type=_parse_float_list,
                   help="spontaneous emission rate(s), comma separated "
                        f"(default {','.join(f'{g:g}' for g in d.gamma_s_list)})")
    p.add_argument("--rate-unit", choices=RATE_UNITS,
                   help="unit for --gamma-s values; required, never inferred")
    p.add_argument("--t-max", type=float,
                   help=f"final scaled time (default {d.t_max:g})")
    p.add_argument("--steps", dest="n_steps", metavar="N", type=int,
                   help="number of grid intervals; steps+1 samples "
                        f"(default {d.n_steps})")
    p.add_argument("--fock-cutoff", dest="n_fock", metavar="N", type=int,
                   help=f"mode truncation; must exceed the initial state's "
                        f"excitation count (default {d.n_fock})")
    p.add_argument("--out", metavar="FILE", help="CSV output path")
    p.add_argument("--emit-grid", action="store_true",
                   help="write a dense (time, alpha2) grid instead of rows; "
                        "single gamma_s only")
    p.add_argument("--esd-threshold", type=float,
                   help="dark-interval threshold for the summary "
                        f"(default {d.esd_threshold:g})")
    p.add_argument("--step-size", type=float,
                   help=f"RK4 step in scaled time (default {d.step_size:g})")
    p.add_argument("--initial-state-file", dest="initial_state_path",
                   metavar="FILE",
                   help="raw state file to evolve instead of a built-in "
                        "family; alpha2 is recorded as nan")
    return p


def _config_tokens(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The file's key=value lines as --flag=value tokens for `parser`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    flags = ({s for a in parser._actions for s in a.option_strings}
             - {"-h", "--help", "--config"})
    tokens = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if flag == "--emit-grid":  # a switch, given or not as the file says
            if _parse_bool(value):
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={value.strip()}")
    return tokens


def _sweep_config(opts: dict) -> SweepConfig:
    """SweepConfig from the options that were set; the rest keep the
    dataclass defaults."""
    if "rate_unit" not in opts:
        raise ValueError("--rate-unit {gamma0|omega} is required (flag or "
                         "config file); rate units are never inferred")
    if "alpha2" in opts:
        if "alpha2_grid" in opts:
            raise ValueError("give either --alpha2 or --alpha2-grid, not both")
        opts["alpha2_grid"] = (opts.pop("alpha2"),)
    if "state" in opts:
        opts["family"] = _FAMILY_BY_STATE[opts.pop("state")]
    return SweepConfig(**opts)


def _parse(argv: list[str]) -> tuple[SweepConfig, str | None, bool]:
    """(config, out path, emit_grid) from argv and any --config file, whose
    lines are parsed ahead of argv so that flags win. argparse errors raise
    SystemExit; configuration errors raise ValueError."""
    parser = _build_parser()
    opts = vars(parser.parse_args(argv))
    if "config" in opts:
        tokens = _config_tokens(opts["config"], parser)
        opts = vars(parser.parse_args(tokens + argv))
    opts.pop("config", None)
    out = opts.pop("out", None)
    emit_grid = opts.pop("emit_grid", False)
    return _sweep_config(opts), out, emit_grid


def _format_intervals(intervals) -> str:
    if not intervals:
        return "none"
    parts = []
    for death, revival in intervals:
        end = "open" if revival is None else f"{revival:.6g}"
        parts.append(f"[{death:.6g},{end}]")
    return " ".join(parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config, out, emit_grid = _parse(argv)
        config.validate()
        if emit_grid and len(set(config.resolved_gamma_s())) != 1:
            raise ValueError("grid output requires exactly one gamma_s value")
    except SystemExit as exc:
        return int(exc.code or 0)
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

    if out is not None and emit_grid and result.failed:
        # a grid needs every cell; the failures are listed below
        print(f"error: grid output needs every cell, {out} not written",
              file=sys.stderr)
    elif out is not None:
        # rows for healthy cells are still written when some cells failed
        try:
            if emit_grid:
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
