"""Sweep orchestration over (gamma_s, alpha^2) grids plus file formats.

Produces one evolved trajectory per grid cell, in config order, and
serializes concurrence rows to CSV. Every cell is deterministic, so a
repeated run writes identical bytes.

File formats
------------
Row CSV: line 1 is "# schema=pseudomode-sweep-rows-2", line 2 the column
header "gamma_s,alpha2,t_scaled,concurrence,c1,c2,trace_error,
min_eigenvalue,path", then one row per (cell, time) with floats at 17
significant digits. gamma_s is always written in gamma0 units, whatever
unit it was entered in. c1/c2 are nan when the general concurrence path was
used. min_eigenvalue is Trajectory.min_eigenvalue: since rows-2, a block
certified positive semidefinite to within its margin reads 0 (see
dynamics._certified).

Grid CSV (single gamma_s only): line 1 "# schema=pseudomode-sweep-grid-1",
header "t_scaled,<alpha2>,...", one row per time with the concurrence of
each alpha^2 column.

Raw state file: line 1 the matrix dimension d, then d*d lines "re im" in
row-major order over the composite-space flat index.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

import numpy as np

from .dynamics import (
    DEFAULT_STEP,
    FullState,
    IntegrationDiagnostics,
    IntegrationError,
    Trajectory,
    check_fock_cutoff,
    evolve,
    interval_steps,
)
# concurrence_x_state and x_form_deviation stay sweep attributes for the
# benchmark harness, which wraps them here; the sweep calls their parts
from .entanglement import (  # noqa: F401
    X_TOLERANCE,
    _check_input,
    _input_errors,
    _off_x,
    _x_state_values,
    concurrence_general,
    concurrence_x_state,
    x_form_deviation,
)
from .operators import (
    DEFAULT_GAMMA_CAVITY,
    DEFAULT_OMEGA,
    SystemParams,
    build_space,
)
from .states import InitialStateSpec, make_initial

ROWS_SCHEMA = "pseudomode-sweep-rows-2"
GRID_SCHEMA = "pseudomode-sweep-grid-1"
CSV_COLUMNS = ("gamma_s", "alpha2", "t_scaled", "concurrence", "c1", "c2",
               "trace_error", "min_eigenvalue", "path")

RATE_UNITS = ("gamma0", "omega")

# both concurrence paths must agree this well on spot-checked samples
# before a cell is allowed to use the closed-form fast path
DUAL_PATH_TOL = 1e-10

DEFAULT_ESD_THRESHOLD = 1e-6

# errors that fail one cell, not the sweep
CELL_ERRORS = (IntegrationError, ValueError, ArithmeticError, OSError)

# Most rows the rows CSV writer formats at once: bounds the strings it
# holds (besides one cell's times), while values that recur within the
# rows are formatted once.
WRITE_ROWS = 2048

# Most samples one concurrence pass takes from consecutive cells (512 KiB
# of float64 two-qubit states, 1 MiB of complex ones): short cells share a
# pass, and with it the fixed costs of its checks and its spot checks.
PASS_SAMPLES = 4096


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep run.

    gamma_s values are interpreted in `rate_unit`: "gamma0" means multiples
    of the reference rate, "omega" means multiples of the coupling. The unit
    must always be stated. Times are scaled (t * gamma0) throughout.
    """

    family: str = "psi"
    theta: float = 0.0
    r: float = 1.0
    alpha2_grid: tuple[float, ...] = (0.5,)
    gamma_s_list: tuple[float, ...] = (0.0,)
    rate_unit: str = "gamma0"
    omega: float = DEFAULT_OMEGA
    gamma_cavity: float = DEFAULT_GAMMA_CAVITY
    n_fock: int = 3
    t_max: float = 200.0
    n_steps: int = 2000
    step_size: float = DEFAULT_STEP
    esd_threshold: float = DEFAULT_ESD_THRESHOLD
    initial_state_path: str | None = None

    def validate(self) -> None:
        self._prepare()

    def _prepare(self) -> tuple[list[SystemParams], list[FullState] | None]:
        """Validate the config; return the parameters of each resolved
        gamma_s and, for a built-in family, the initial state of each
        alpha2, in grid order (None for a raw state file, which is loaded
        only when the sweep runs)."""
        if len(self.alpha2_grid) == 0:
            raise ValueError("alpha2_grid must be non-empty")
        if len(self.gamma_s_list) == 0:
            raise ValueError("gamma_s_list must be non-empty")
        if self.rate_unit not in RATE_UNITS:
            raise ValueError(f"rate_unit must be one of {RATE_UNITS}")
        # checked by type before any is compared or read as a float, which
        # raises TypeError for a complex value (resolving gamma_s may
        # multiply it by omega)
        for name, value in (("t_max", self.t_max),
                            ("step_size", self.step_size),
                            ("esd_threshold", self.esd_threshold),
                            ("theta", self.theta), ("r", self.r),
                            ("omega", self.omega),
                            *(("alpha2", a) for a in self.alpha2_grid),
                            *(("gamma_s", g) for g in self.gamma_s_list)):
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got "
                                 f"{value!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError("t_max must be finite and > 0")
        if not isinstance(self.n_steps, numbers.Integral):
            raise ValueError(f"n_steps must be an integer, got "
                             f"{self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step_size must be finite and > 0")
        # evolve rejects the same step counts (times() spans t_max exactly)
        interval_steps(self.t_max / self.n_steps, self.step_size)
        # detect_esd_intervals rejects the same thresholds
        if not (math.isfinite(self.esd_threshold) and self.esd_threshold >= 0):
            raise ValueError("esd_threshold must be finite and >= 0")
        params = []
        for gamma_s in self.resolved_gamma_s():
            if not (math.isfinite(gamma_s) and gamma_s >= 0):
                raise ValueError(f"gamma_s must be finite and >= 0, got "
                                 f"{gamma_s:g} in gamma0 units")
            # constructing the parameters validates the other rates and n_fock
            params.append(self.system_params(gamma_s))
        if self.initial_state_path is not None:
            return params, None
        # constructing a spec validates family/alpha2/theta/r ranges
        space = build_space(self.n_fock)
        initials = []
        for alpha2 in self.alpha2_grid:
            spec = InitialStateSpec(self.family, alpha2, self.theta, self.r)
            initials.append(make_initial(spec, space))
            check_fock_cutoff(initials[-1], space)
        return params, initials

    def resolved_gamma_s(self) -> tuple[float, ...]:
        """gamma_s values converted to gamma0 units."""
        if self.rate_unit == "omega":
            return tuple(g * self.omega for g in self.gamma_s_list)
        return tuple(self.gamma_s_list)

    def system_params(self, gamma_s: float) -> SystemParams:
        """Parameters of one cell; gamma_s is in gamma0 units."""
        return SystemParams.symmetric(
            gamma_s, omega=self.omega, gamma_cavity=self.gamma_cavity,
            n_fock=self.n_fock)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass
class CellResult:
    """One (gamma_s, alpha2) cell. gamma_s is in gamma0 units; alpha2 is nan
    when the initial state came from a raw file. diagnostics is the
    integration's record, left at its defaults for a failed cell."""

    gamma_s: float
    alpha2: float
    times: np.ndarray
    concurrence: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    trace_error: np.ndarray
    min_eigenvalue: np.ndarray
    path: str
    error: str | None = None
    diagnostics: IntegrationDiagnostics = field(
        default_factory=IntegrationDiagnostics)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class SweepResult:
    config: SweepConfig
    cells: list[CellResult]

    @property
    def failed(self) -> bool:
        return any(c.failed for c in self.cells)

    @property
    def failed_cells(self) -> list[CellResult]:
        return [c for c in self.cells if c.failed]

    def iter_rows(self) -> Iterator[tuple]:
        """Rows in deterministic (cell order, ascending time) order."""
        for cell in self.cells:
            if cell.failed:
                continue
            for i in range(len(cell.times)):
                yield (cell.gamma_s, cell.alpha2, cell.times[i],
                       cell.concurrence[i], cell.c1[i], cell.c2[i],
                       cell.trace_error[i], cell.min_eigenvalue[i], cell.path)


def _concurrences(reduced: list[np.ndarray]) -> list:
    """Concurrence series, branch values and path of each cell, from its
    (n, 4, 4) reduced states, real or complex; or the error that fails it.

    A cell takes the closed form only if every sample is within X
    tolerance and its first, middle and last samples agree with the
    general algorithm; otherwise the general algorithm gives every sample.
    The cells are evaluated as one stack, which run_sweep keeps to at
    most PASS_SAMPLES samples (a single cell is read in place, whatever
    its length):
    the input checks and the X-form deviation run once on each matrix,
    and each cell is judged on its own maxima, so it takes the path, or
    fails with the message, that it would alone; the closed form runs once
    on the stack, and concurrence_general once on the spots of all
    closed-form cells, which are all judged in one array comparison
    (only a joint call that raises is repeated cell by cell, to find the
    cells that fail it). concurrence_general is handed complex matrices,
    so its LAPACK calls see the same input whatever the stored dtype; the
    closed form gives the same bits on real and complex input.
    """
    stack = reduced[0] if len(reduced) == 1 else np.concatenate(reduced)
    bounds = np.cumsum([0] + [len(r) for r in reduced])
    worst = np.maximum.reduceat(
        np.vstack((_input_errors(stack), _off_x(stack))), bounds[:-1], axis=1)

    def general(rows):
        try:
            return concurrence_general(
                stack[rows].astype(complex, copy=False)).c
        except CELL_ERRORS as exc:
            return exc

    results: list = [None] * len(reduced)
    x_cells = []
    for i, (non_finite, herm, tr_err, dev) in enumerate(worst.T):
        try:
            _check_input(non_finite, herm, tr_err)
        except ValueError as exc:
            results[i] = exc
            continue
        if dev <= X_TOLERANCE:
            x_cells.append(i)
    if x_cells:
        # a cell that failed its checks is never read from these
        with np.errstate(invalid="ignore", over="ignore"):
            c, c1, c2 = _x_state_values(stack)
        first = bounds[x_cells]
        n = bounds[np.add(x_cells, 1)] - first
        spots = np.stack((first, first + n // 2, first + n - 1), axis=1)
        spot_c = general(spots)
        if isinstance(spot_c, Exception):
            # a failed joint check is repeated cell by cell to find the
            # cells that fail it; their spots read NaN, which fails below
            spot_c = np.full(spots.shape, math.nan)
            for row, (i, where) in enumerate(zip(x_cells, spots)):
                ref = general(where)
                if isinstance(ref, Exception):
                    results[i] = ref
                else:
                    spot_c[row] = ref
        # every cell is judged at once on its spots; NaN fails
        agree = (np.abs(c[spots] - spot_c) <= DUAL_PATH_TOL).all(axis=1)
        for i in np.compress(agree, x_cells):
            cell = slice(bounds[i], bounds[i + 1])
            results[i] = (c[cell], c1[cell], c2[cell], "x_state")
    for i, result in enumerate(results):
        if result is None:
            conc = general(slice(bounds[i], bounds[i + 1]))
            nan = np.full(bounds[i + 1] - bounds[i], math.nan)
            results[i] = conc if isinstance(conc, Exception) else (
                conc, nan, nan.copy(), "general")
    return results


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _failed_cell(gamma_s: float, alpha2: float, error: str) -> CellResult:
    empty = np.empty(0)
    return CellResult(gamma_s=gamma_s, alpha2=alpha2, times=empty,
                      concurrence=empty, c1=empty, c2=empty,
                      trace_error=empty, min_eigenvalue=empty, path="none",
                      error=error)


def _run_cell(config: SweepConfig, initial: FullState,
              params: SystemParams, times: np.ndarray,
              shared: dict) -> Trajectory | str:
    """Evolve one cell from `initial`, reusing the Build in `shared` (see
    evolve); a failed evolution returns its error text."""
    try:
        return evolve(initial, build_space(config.n_fock), params, times,
                      step_size=config.step_size, shared=shared)
    except CELL_ERRORS as exc:
        return _error_text(exc)


def _finished(group: list[tuple[float, float, Trajectory]]
              ) -> list[CellResult]:
    """The (gamma_s, alpha2, trajectory) cells of `group` as results, with
    their concurrence from one pass (see _concurrences)."""
    if not group:
        return []
    cells = []
    results = _concurrences([traj.reduced for _, _, traj in group])
    for (gamma_s, alpha2, traj), result in zip(group, results):
        if isinstance(result, Exception):
            cells.append(_failed_cell(gamma_s, alpha2, _error_text(result)))
            continue
        conc, c1, c2, path = result
        cells.append(CellResult(
            gamma_s=gamma_s, alpha2=alpha2, times=traj.times,
            concurrence=conc, c1=c1, c2=c2, trace_error=traj.trace_error,
            min_eigenvalue=traj.min_eigenvalue, path=path,
            diagnostics=traj.diagnostics))
    return cells


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evolve every (gamma_s, alpha2) cell and collect concurrence rows.

    The config is validated first: an invalid one raises ValueError before
    any cell runs. A cell whose integration breaks an invariant is marked
    failed (its error recorded, its rows omitted); the remaining cells
    still complete. Each alpha2's initial state is built once, or the raw
    state file loaded once, and serves every gamma_s; a raw file that
    cannot be loaded fails every cell with its error. Consecutive cells
    of one gamma_s whose initial states share a nonzero pattern share one
    generator and propagator Build (see evolve), through a dict that
    lives for this call only. The cells are evolved one at a time, and
    consecutive healthy cells share one concurrence pass (see
    _concurrences), as many as PASS_SAMPLES samples hold; a cell of more
    samples takes one of its own, and is read in place.
    """
    params, initials = config._prepare()
    alpha2_values: tuple[float, ...]
    if config.initial_state_path is not None:
        alpha2_values = (math.nan,)
        try:
            initials = [load_raw_state(config.initial_state_path)]
        except CELL_ERRORS as exc:
            return SweepResult(config=config, cells=[
                _failed_cell(gamma_s, math.nan, _error_text(exc))
                for gamma_s in config.resolved_gamma_s()])
    else:
        alpha2_values = config.alpha2_grid
    times = config.times()
    shared: dict = {}
    # every cell samples `times`; a group is done, and its trajectories
    # dropped, as soon as it is full
    per_pass = max(1, PASS_SAMPLES // len(times))
    cells: list[CellResult] = []
    group: list[tuple[float, float, Trajectory]] = []
    for gamma_s, p in zip(config.resolved_gamma_s(), params):
        for alpha2, initial in zip(alpha2_values, initials):
            traj = _run_cell(config, initial, p, times, shared)
            if isinstance(traj, str):
                cells += _finished(group)
                cells.append(_failed_cell(gamma_s, alpha2, traj))
                group = []
                continue
            group.append((gamma_s, alpha2, traj))
            if len(group) == per_pass:
                cells += _finished(group)
                group = []
    cells += _finished(group)
    return SweepResult(config=config, cells=cells)


def detect_esd_intervals(times, concurrence,
                         threshold: float = DEFAULT_ESD_THRESHOLD
                         ) -> list[tuple[float, float | None]]:
    """Maximal dark intervals: runs of samples with concurrence <= threshold.

    Each interval is (death_time, revival_time); the revival time is the
    first sample where concurrence re-exceeds the threshold, or None when
    the run reaches the end of the series (open-ended, no revival seen).
    Expects a uniformly sampled series; a non-finite threshold or
    concurrence sample raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    conc = np.asarray(concurrence, dtype=float)
    if times.shape != conc.shape or times.ndim != 1:
        raise ValueError("times and concurrence must be equal-length 1d arrays")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError("threshold must be finite and >= 0")
    if not np.isfinite(conc).all():
        raise ValueError("concurrence must be finite")
    # +1 where a dark run starts, -1 one past where it ends
    edges = np.diff((conc <= threshold).astype(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return [(float(times[i]), float(times[j]) if j < len(times) else None)
            for i, j in zip(starts, ends)]


def _formatted(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """%.17g strings of the distinct values of a float array, and the
    index of each value's string, in the array's shape.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    strings.
    """
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(float).tolist()
    text = "\n".join(["%.17g"] * len(distinct)) % tuple(distinct)
    return text.split("\n"), where.reshape(values.shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


def write_rows_csv(result: SweepResult, path: str) -> None:
    """Rows of the healthy cells, written cell by cell and WRITE_ROWS rows
    at a time; the same bytes as %.17g applied to each value of iter_rows.

    Each distinct value of a slice of rows is formatted once. A cell whose
    times have the same bits as the previous healthy cell's (every cell
    of a sweep samples one grid) reuses their strings.
    """
    times = times_text = None
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# schema={ROWS_SCHEMA}\n{','.join(CSV_COLUMNS)}\n")
        for cell in result.cells:
            if cell.failed:
                continue
            cell_times = np.asarray(cell.times, dtype=float)
            if times is None or not _same_bits(times, cell_times):
                text, where = _formatted(cell_times)
                times, times_text = cell_times, [text[i] for i in
                                                 where.tolist()]
            head = "%.17g,%.17g" % (cell.gamma_s, cell.alpha2)
            tail = cell.path + "\n"
            columns = np.array([cell.concurrence, cell.c1, cell.c2,
                                cell.trace_error, cell.min_eigenvalue],
                               dtype=float)
            for lo in range(0, len(cell.times), WRITE_ROWS):
                text, where = _formatted(columns[:, lo:lo + WRITE_ROWS])
                fh.writelines(map(",".join, zip(
                    repeat(head), times_text[lo:lo + WRITE_ROWS],
                    *(map(text.__getitem__, w) for w in where.tolist()),
                    repeat(tail))))


def write_grid_csv(result: SweepResult, path: str) -> None:
    """Dense (time, alpha2) concurrence matrix; runs of one gamma_s entry
    only (a value given twice is two entries, whose cells would repeat
    every alpha2 column).

    Formatted in one pass, %.17g on each value: nearly every grid value
    is distinct, so the rows writer's reuse of repeated strings would not
    pay here.
    """
    if len(result.config.gamma_s_list) != 1:
        raise ValueError("grid output requires exactly one gamma_s value")
    if result.failed:
        bad = result.failed_cells[0]
        raise ValueError(
            f"grid output with failed cell alpha2={bad.alpha2}: {bad.error}")
    cells = result.cells
    alpha2 = np.array([c.alpha2 for c in cells], dtype=float)
    table = np.array([cells[0].times] + [c.concurrence for c in cells],
                     dtype=float).T
    values = ",".join(["%.17g"] * len(cells)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# schema={GRID_SCHEMA}\nt_scaled,"
                 + values % tuple(alpha2.tolist()))
        fh.write(("%.17g," + values) * len(table)
                 % tuple(table.ravel().tolist()))


def save_raw_state(state: FullState, path: str) -> None:
    """Plain-text dump: dimension line, then d*d "re im" lines, row-major."""
    rho = state.rho_tilde
    dim = rho.shape[0]
    lines = [str(dim)]
    for value in rho.reshape(-1):
        lines.append(f"{value.real:.17g} {value.imag:.17g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_raw_state(path: str) -> FullState:
    """Parse the raw format and enforce density-matrix invariants."""
    with open(path, "r", encoding="ascii") as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty state file")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the dimension, "
                         f"got {lines[0]!r}") from None
    if dim < 1:
        raise ValueError(f"{path}: dimension must be >= 1, got {dim}")
    if len(lines) - 1 != dim * dim:
        raise ValueError(f"{path}: expected {dim * dim} entry lines for "
                         f"dimension {dim}, found {len(lines) - 1}")
    flat = np.empty(dim * dim, dtype=complex)
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(
                f"{path}: entry line {k + 1} must be 're im', got {ln!r}")
        try:
            flat[k] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(
                f"{path}: entry line {k + 1} has non-numeric data: {ln!r}"
            ) from None
    state = FullState(rho_tilde=flat.reshape(dim, dim), time=0.0)
    try:
        state.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: not a valid density matrix: {exc}") from exc
    return state
