"""Time evolution of the damped two-qubit / single-mode system.

The state is propagated in the frame rotating at the common transition
frequency, so the generator is time independent:

    d rho / dt = -i [H, rho]
                 + Gamma   * D[a] rho
                 + gamma_a * D[sm_A] rho
                 + gamma_b * D[sm_B] rho

with D[L] rho = L rho L^dag - (L^dag L rho + rho L^dag L) / 2. Everything is
linear, so the equation is integrated in vectorized form v = vec(rho) with
v' = M v for a constant matrix M.

The integrator is classic fixed-step RK4. For a linear autonomous system the
four stages collapse into a single degree-4 polynomial S in (h M). The
samples are evenly spaced, so every sample interval takes the same n
substeps and is one matvec with P = S^n, built once per run and still
exactly RK4 at step h up to rounding; an interval longer than MAX_SEGMENT
steps is cut into equal segments, each checked like a sample. The states
are propagated SAMPLE_CHUNK points at a time. The trace is checked at every
RK4 step: with the propagator comes the table of trace rows
T[k] = e^T S^(k+1), e marking the diagonal of vec(rho), so T @ V holds the
trace after each substep of every interval started from the columns of V.
The remaining invariants are checked at the sample times, one block at a
time as array operations. The earliest event is reported, as a step-by-step
check would report it: a failing step before any violation at the sample
that ends its interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .entanglement import partial_trace_cavity
from .operators import (
    CompositeSpace,
    SystemParams,
    annihilation,
    build_hamiltonian,
    sigma,
)

# Invariant tolerances for accepted states during integration.
TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8
EXCITATION_GAIN_TOL = 1e-8
# Population above which an excitation sector of the initial state counts
# as occupied when the Fock cutoff is checked.
OCCUPATION_TOL = 1e-12

DEFAULT_STEP = 1e-3

# Samples whose invariants are checked in one batch of array operations.
SAMPLE_CHUNK = 128
# Most substeps one propagator covers; longer intervals are cut into equal
# segments. This bounds the trace-row table at MAX_SEGMENT x dim^2 entries
# (9.4 MB at n_fock = 3) however far apart the sample times are.
MAX_SEGMENT = 4096


class IntegrationError(RuntimeError):
    """An evolved state broke a physical invariant; carries time and value."""

    def __init__(self, invariant: str, time: float, value: float, limit: float):
        self.invariant = invariant
        self.time = time
        self.value = value
        self.limit = limit
        super().__init__(
            f"invariant '{invariant}' violated at t={time:.6g}: "
            f"value {value:.6g} exceeds limit {limit:.6g}"
        )


@dataclass
class FullState:
    """Density matrix on the composite space, tagged with its time."""

    rho_tilde: np.ndarray
    time: float = 0.0

    def dim(self) -> int:
        return self.rho_tilde.shape[0]

    def validate(self) -> None:
        """Raise ValueError unless this is a physical density matrix."""
        rho = self.rho_tilde
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"state must be a square matrix, got {rho.shape}")
        if not np.all(np.isfinite(rho.view(float))):
            raise ValueError("state contains non-finite entries")
        herm = float(np.abs(rho - rho.conj().T).max())
        if herm > HERM_TOL:
            raise ValueError(f"state not Hermitian: deviation {herm:.3g}")
        tr = abs(complex(np.trace(rho)) - 1.0)
        if tr > TRACE_TOL:
            raise ValueError(f"state trace off by {tr:.3g}")
        min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
        if min_eig < EIG_FLOOR:
            raise ValueError(f"state has negative eigenvalue {min_eig:.3g}")


@dataclass
class IntegrationDiagnostics:
    """Health and cost record of one integration run.

    max_trace_error is tracked at every RK4 step, not just at sample times;
    the remaining extrema are tracked at sample times, where the full
    matrix is materialized. step_count is the number of RK4 steps taken.
    propagate_s is the time spent building and applying the propagator,
    including the per-step trace check; check_s the time spent on the
    per-sample checks and the partial trace (perf_counter seconds).
    """

    step_count: int = 0
    max_trace_error: float = 0.0
    max_hermiticity_error: float = 0.0
    min_eigenvalue: float = 1.0
    max_excitation_gain: float = 0.0
    max_sector_leakage: float = 0.0
    propagate_s: float = 0.0
    check_s: float = 0.0


@dataclass
class Trajectory:
    """Sampled observables along one evolution.

    reduced holds the two-qubit density matrix (mode traced out) at each
    sample time; full composite states are kept only when requested.
    """

    times: np.ndarray
    reduced: np.ndarray
    expect_n: np.ndarray
    trace_error: np.ndarray
    hermiticity_error: np.ndarray
    min_eigenvalue: np.ndarray
    sector_leakage: np.ndarray
    diagnostics: IntegrationDiagnostics
    full_states: list[FullState] | None = None

    def __len__(self) -> int:
        return len(self.times)


def _collapse_ops(space: CompositeSpace, params: SystemParams):
    yield annihilation(space), params.gamma_cavity
    yield sigma(space, "A", "lower"), params.gamma_a
    yield sigma(space, "B", "lower"), params.gamma_b


def lindblad_rhs(space: CompositeSpace, params: SystemParams,
                 rho: np.ndarray) -> np.ndarray:
    """Right-hand side d rho / dt in matrix form."""
    h = build_hamiltonian(space, params)
    out = -1j * (h @ rho - rho @ h)
    for op, rate in _collapse_ops(space, params):
        if rate == 0.0:
            continue
        ld = op.conj().T @ op
        out += rate * (op @ rho @ op.conj().T - 0.5 * (ld @ rho + rho @ ld))
    return out


def liouvillian_matrix(space: CompositeSpace,
                       params: SystemParams) -> np.ndarray:
    """Generator M with vec(d rho/dt) = M vec(rho), row-major vectorization."""
    h = build_hamiltonian(space, params)
    dim = space.dim_total
    eye = np.eye(dim, dtype=complex)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in _collapse_ops(space, params):
        if rate == 0.0:
            continue
        ld = op.conj().T @ op
        m += rate * (np.kron(op, op.conj())
                     - 0.5 * (np.kron(ld, eye) + np.kron(eye, ld.T)))
    return m


def rk4_step_matrix(m: np.ndarray, h: float) -> np.ndarray:
    """One-step propagator I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.

    Applying it is identical to one classic RK4 step of v' = M v.
    """
    p = np.eye(m.shape[0], dtype=complex)
    term = p
    for k in (1, 2, 3, 4):
        term = (h / k) * (m @ term)
        p = p + term
    return p


def _excitation_weights(space: CompositeSpace) -> np.ndarray:
    w = np.empty(space.dim_total)
    for flat in range(space.dim_total):
        i_a, i_b, n = space.unflatten(flat)
        w[flat] = i_a + i_b + n
    return w


def check_fock_cutoff(initial: FullState, space: CompositeSpace) -> None:
    """Raise ValueError unless the mode truncation holds the whole evolution.

    H conserves the total excitation number and every dissipator lowers it,
    so a state whose highest occupied sector has N excitations never needs
    a Fock level above N. Levels 0 .. n_fock-1 are kept, so the truncation
    is exact if and only if N <= n_fock - 1; otherwise the cut-off ladder
    operator changes the physics without breaking any monitored invariant.
    """
    pops = np.real(np.diagonal(initial.rho_tilde))
    occupied = _excitation_weights(space)[pops > OCCUPATION_TOL]
    top = int(occupied.max()) if occupied.size else 0
    if top > space.n_fock - 1:
        raise ValueError(
            f"initial state occupies {top} excitations, which needs "
            f"n_fock >= {top + 1}; got n_fock = {space.n_fock}")


def interval_propagator(m: np.ndarray, h: float,
                        n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Propagator over n_sub RK4 steps of size h, plus its trace rows.

    Returns P = S^n_sub, with S = rk4_step_matrix(m, h), and the
    (n_sub, dim^2) table T[k] = e^T S^(k+1), where e marks the diagonal
    entries of the row-major vec(rho). T @ v is the trace after each of the
    n_sub steps started from v.
    """
    s = rk4_step_matrix(m, h)
    dim = math.isqrt(m.shape[0])
    rows = np.empty((n_sub, m.shape[0]), dtype=complex)
    rows[0] = s[:: dim + 1].sum(axis=0)
    for k in range(1, n_sub):
        rows[k] = rows[k - 1] @ s
    return np.linalg.matrix_power(s, n_sub), rows


def _check_samples(rho: np.ndarray, times: np.ndarray, weights: np.ndarray,
                   prev_expect_n: float,
                   diag: IntegrationDiagnostics) -> tuple[np.ndarray, ...]:
    """Check a block of states (b, d, d) sampled at `times`, in time order.

    The earliest violating sample raises IntegrationError; within one
    sample the order is finite, hermiticity, positivity,
    excitation_monotone. prev_expect_n is <N> at the sample before the
    block (inf for none). Otherwise the block's extrema are folded into diag
    and the per-sample <N>, trace error, hermiticity error, smallest
    eigenvalue and sector leakage are returned, in the order of the
    Trajectory fields.
    """
    finite = np.isfinite(rho.view(float)).all(axis=(1, 2))
    # eigvalsh rejects non-finite input, so check only up to the first
    # non-finite sample; it raises below unless an earlier one does
    n_ok = len(rho) if finite.all() else int(np.argmin(finite))
    ok = rho[:n_ok]
    ok_h = ok.conj().transpose(0, 2, 1)
    herm = np.abs(ok - ok_h).max(axis=(1, 2))
    tr_err = np.abs(np.trace(ok, axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh(0.5 * (ok + ok_h))[:, 0]
    pops = np.real(ok.diagonal(axis1=1, axis2=2))
    expn = pops @ weights
    gain = np.diff(expn, prepend=prev_expect_n)

    checks = (("hermiticity", herm, herm > HERM_TOL, HERM_TOL),
              ("positivity", min_eig, min_eig < EIG_FLOOR, EIG_FLOOR),
              ("excitation_monotone", gain, gain > EXCITATION_GAIN_TOL,
               EXCITATION_GAIN_TOL))
    bad = np.logical_or.reduce([flags for _, _, flags, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        for invariant, values, flags, limit in checks:
            if flags[i]:
                raise IntegrationError(invariant, float(times[i]),
                                       float(values[i]), limit)
    if n_ok < len(rho):
        raise IntegrationError("finite", float(times[n_ok]), math.inf, 0.0)

    leak = pops[:, weights > 2].sum(axis=1)
    d = diag
    d.max_trace_error = float(tr_err.max(initial=d.max_trace_error))
    d.max_hermiticity_error = float(herm.max(initial=d.max_hermiticity_error))
    d.min_eigenvalue = float(min_eig.min(initial=d.min_eigenvalue))
    d.max_excitation_gain = float(gain.max(initial=d.max_excitation_gain))
    d.max_sector_leakage = float(np.abs(leak).max(
        initial=d.max_sector_leakage))
    return expn, tr_err, herm, min_eig, leak


def evolve(initial: FullState, space: CompositeSpace, params: SystemParams,
           times: np.ndarray, *, step_size: float = DEFAULT_STEP,
           store_full: bool = False) -> Trajectory:
    """Propagate `initial` and sample it on an evenly spaced time grid.

    times must be finite, start at initial.time and, with more than one
    sample, increase in equal steps (within 1e-12 of np.linspace over the
    same ends); anything else raises ValueError, as does a step_size that
    is not finite and > 0. Every sample interval takes the same RK4 steps
    of size at most step_size. The positivity, hermiticity, trace and
    excitation-number invariants are monitored (not enforced); the earliest
    violation aborts with IntegrationError so a too-coarse step cannot
    silently corrupt results. A Fock cutoff too small for the initial
    state's excitations is rejected up front with ValueError (see
    check_fock_cutoff).
    """
    if not (math.isfinite(step_size) and step_size > 0):
        raise ValueError("step_size must be finite and > 0")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a finite, non-empty 1d array")
    n = len(times)
    # the comparisons are written so that NaN fails them
    if not abs(times[0] - initial.time) <= 1e-12:
        raise ValueError("times must start at the initial state's time")
    if n > 1 and not (np.diff(times) > 0).all():
        raise ValueError("times must be increasing")
    spacing = np.abs(times - np.linspace(times[0], times[-1], n)).max()
    if not spacing <= 1e-12 * max(1.0, abs(times[-1])):
        raise ValueError("times must be evenly spaced")
    if initial.dim() != space.dim_total:
        raise ValueError("initial state dimension does not match the space")
    try:
        initial.validate()
    except ValueError as exc:
        raise IntegrationError("initial_state", initial.time, math.nan,
                               math.nan) from exc
    check_fock_cutoff(initial, space)

    # Every interval takes `total` steps, or past MAX_SEGMENT `refine` equal
    # segments of n_sub steps whose ends are checked like samples. Point p
    # of this grid is sample p // refine when refine divides p.
    dt = (times[-1] - times[0]) / max(n - 1, 1)
    total = max(1, math.ceil(dt / step_size - 1e-9))
    refine = math.ceil(total / MAX_SEGMENT)
    n_sub = math.ceil(total / refine)
    h = dt / (refine * n_sub)
    n_points = (n - 1) * refine + 1
    point_times = np.append(
        (times[:-1, None] + np.arange(refine) * (n_sub * h)).ravel(),
        times[-1])

    dim = space.dim_total
    # block[1:b + 1] holds the states at points first .. first + b - 1 and
    # block[0] the state before them; the initial state takes no step
    block = np.empty((SAMPLE_CHUNK + 1, dim * dim), dtype=complex)
    block[1] = initial.rho_tilde.reshape(-1)
    reduced = np.empty((n, 4, 4), dtype=complex)
    series = [np.empty(n) for _ in range(5)]  # as _check_samples returns
    full_states: list[FullState] | None = [] if store_full else None
    weights = _excitation_weights(space)
    prev_expect_n = math.inf

    diag = IntegrationDiagnostics(step_count=(n_points - 1) * n_sub)
    m = liouvillian_matrix(space, params)
    clock = perf_counter()
    prop, trace_rows = interval_propagator(m, h, n_sub)
    diag.propagate_s += perf_counter() - clock
    first, unstepped = 0, 1
    while first < n_points:
        b = min(SAMPLE_CHUNK, n_points - first)
        clock = perf_counter()
        # past an unstable step the states may overflow; the trace check
        # catches that, so the floating-point warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(unstepped, b):
                np.matmul(prop, block[i], out=block[i + 1])
            err = np.abs(trace_rows @ block[unstepped:b].T - 1.0)
        # column c holds the steps ending at point first + unstepped + c;
        # a NaN trace must abort too, hence the inverted comparison
        held = (err <= TRACE_TOL).all(axis=0)
        stop = b if held.all() else unstepped + int(np.argmin(held))
        diag.propagate_s += perf_counter() - clock

        clock = perf_counter()
        rho = block[1:stop + 1].reshape(stop, dim, dim)
        # a violation at an earlier sample wins over a failing step
        checked = _check_samples(rho, point_times[first:first + stop],
                                 weights, prev_expect_n, diag)
        if stop < b:
            col = err[:, stop - unstepped]
            k = int(np.argmax(~(col <= TRACE_TOL)))
            raise IntegrationError(
                "trace", float(point_times[first + stop - 1]) + (k + 1) * h,
                float(col[k]), TRACE_TOL)
        diag.max_trace_error = float(err.max(initial=diag.max_trace_error))
        prev_expect_n = checked[0][-1]
        keep = slice(-first % refine, b, refine)
        kept = rho[keep]
        j = (first + keep.start) // refine
        samples = slice(j, j + len(kept))
        for out, values in zip(series, checked):
            out[samples] = values[keep]
        reduced[samples] = partial_trace_cavity(kept, space).rho
        if full_states is not None:
            full_states.extend(FullState(r.copy(), t)
                               for r, t in zip(kept, times[samples]))
        diag.check_s += perf_counter() - clock
        block[0] = block[b]
        first += b
        unstepped = 0

    return Trajectory(times.copy(), reduced, *series, diagnostics=diag,
                      full_states=full_states)
