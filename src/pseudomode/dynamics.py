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
four stages collapse into a single degree-4 polynomial S in (h M). A sample
interval of n substeps is then one matvec with P = S^n, built once per
(step, n) and still exactly RK4 at step h up to rounding. The trace is
checked at every RK4 step: with the propagator comes the table of trace
rows T[k] = e^T S^(k+1), e marking the diagonal of vec(rho), so T @ v holds
the trace after each substep of the interval. The remaining invariants are
checked at the sample times, SAMPLE_CHUNK samples at a time as array
operations; the earliest violating sample is reported, as a per-sample
check would report it.
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
# Most substeps one propagator covers; longer intervals take several. This
# bounds the trace-row table at MAX_SEGMENT x dim^2 entries (9.4 MB at
# n_fock = 3) however far apart the sample times are.
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
    matrix is materialized. step_count is the number of RK4 steps taken,
    propagator_builds the number of interval propagators built. propagate_s
    is the time spent building and applying propagators, including the
    per-step trace check; check_s the time spent on the per-sample checks
    and the partial trace (perf_counter seconds).
    """

    step_count: int = 0
    max_trace_error: float = 0.0
    max_hermiticity_error: float = 0.0
    min_eigenvalue: float = 1.0
    max_excitation_gain: float = 0.0
    max_sector_leakage: float = 0.0
    propagator_builds: int = 0
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


class _Sampler:
    """Buffers the sampled states and checks them SAMPLE_CHUNK at a time.

    Within a chunk the invariants are array operations; the earliest
    violating sample raises, and within one sample the order is finite,
    hermiticity, positivity, excitation_monotone.
    """

    def __init__(self, space: CompositeSpace, times: np.ndarray,
                 store_full: bool, diag: IntegrationDiagnostics):
        self.space = space
        self.times = times
        self.dim = space.dim_total
        self.n_weights = _excitation_weights(space)
        self.leak_mask = self.n_weights > 2
        self.diag = diag
        self.buffer = np.empty((SAMPLE_CHUNK, self.dim ** 2), dtype=complex)
        self.n_buffered = 0
        self.n_done = 0
        self.prev_expect_n = math.inf
        n_samples = len(times)
        self.reduced = np.empty((n_samples, 4, 4), dtype=complex)
        self.expect_n = np.empty(n_samples)
        self.trace_error = np.empty(n_samples)
        self.hermiticity_error = np.empty(n_samples)
        self.min_eigenvalue = np.empty(n_samples)
        self.sector_leakage = np.empty(n_samples)
        self.full_states: list[FullState] | None = [] if store_full else None

    def record(self, v: np.ndarray) -> None:
        """Queue the state at the next sample time."""
        self.buffer[self.n_buffered] = v
        self.n_buffered += 1
        if self.n_buffered == SAMPLE_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Check the queued samples; store them if none breaks an invariant."""
        n = self.n_buffered
        if n == 0:
            return
        start = perf_counter()
        dim = self.dim
        first = self.n_done
        rho = self.buffer[:n].reshape(n, dim, dim)
        finite = np.isfinite(rho.view(float)).all(axis=(1, 2))
        # eigvalsh rejects non-finite input, so check only up to the first
        # non-finite sample; it raises below unless an earlier one does
        n_ok = n if finite.all() else int(np.argmin(finite))
        ok = rho[:n_ok]
        ok_h = ok.conj().transpose(0, 2, 1)
        herm = np.abs(ok - ok_h).max(axis=(1, 2))
        tr_err = np.abs(np.trace(ok, axis1=1, axis2=2) - 1.0)
        min_eig = np.linalg.eigvalsh(0.5 * (ok + ok_h))[:, 0]
        pops = np.real(ok.diagonal(axis1=1, axis2=2))
        expn = pops @ self.n_weights
        gain = np.diff(expn, prepend=self.prev_expect_n)

        checks = (("hermiticity", herm, herm > HERM_TOL, HERM_TOL),
                  ("positivity", min_eig, min_eig < EIG_FLOOR, EIG_FLOOR),
                  ("excitation_monotone", gain, gain > EXCITATION_GAIN_TOL,
                   EXCITATION_GAIN_TOL))
        bad = np.logical_or.reduce([flags for _, _, flags, _ in checks])
        if bad.any():
            i = int(np.argmax(bad))
            for invariant, values, flags, limit in checks:
                if flags[i]:
                    raise IntegrationError(invariant,
                                           float(self.times[first + i]),
                                           float(values[i]), limit)
        if n_ok < n:
            raise IntegrationError("finite", float(self.times[first + n_ok]),
                                   math.inf, 0.0)

        leak = pops[:, self.leak_mask].sum(axis=1)
        d = self.diag
        d.max_trace_error = max(d.max_trace_error, float(tr_err.max()))
        d.max_hermiticity_error = max(d.max_hermiticity_error,
                                      float(herm.max()))
        d.min_eigenvalue = min(d.min_eigenvalue, float(min_eig.min()))
        d.max_excitation_gain = max(d.max_excitation_gain, float(gain.max()))
        d.max_sector_leakage = max(d.max_sector_leakage,
                                   float(np.abs(leak).max()))

        span = slice(first, first + n)
        self.reduced[span] = partial_trace_cavity(rho, self.space).rho
        self.expect_n[span] = expn
        self.trace_error[span] = tr_err
        self.hermiticity_error[span] = herm
        self.min_eigenvalue[span] = min_eig
        self.sector_leakage[span] = leak
        if self.full_states is not None:
            self.full_states.extend(
                FullState(r.copy(), t) for r, t in zip(rho, self.times[span]))
        self.prev_expect_n = expn[-1]
        self.n_done += n
        self.n_buffered = 0
        d.check_s += perf_counter() - start


def _evolve_fixed(v: np.ndarray, m: np.ndarray, times: np.ndarray,
                  t0: float, step_size: float, sampler: _Sampler,
                  diag: IntegrationDiagnostics) -> None:
    cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    t = t0
    for t_target in times:
        dt = t_target - t
        if dt > 1e-12:
            start = perf_counter()
            n_sub = max(1, math.ceil(dt / step_size - 1e-9))
            h = dt / n_sub
            done = 0
            while done < n_sub:
                n = min(MAX_SEGMENT, n_sub - done)
                key = (round(h * 1e15), n)
                if key not in cache:
                    cache[key] = interval_propagator(m, h, n)
                    diag.propagator_builds += 1
                prop, trace_rows = cache[key]
                err = np.abs(trace_rows @ v - 1.0)
                worst = float(err.max())
                # a NaN trace must abort too, hence the inverted comparisons
                if not worst <= TRACE_TOL:
                    k = int(np.argmax(~(err <= TRACE_TOL)))
                    sampler.flush()  # an earlier sample's violation wins
                    raise IntegrationError("trace", t + (done + k + 1) * h,
                                           float(err[k]), TRACE_TOL)
                diag.max_trace_error = max(diag.max_trace_error, worst)
                v = prop @ v
                done += n
            diag.step_count += n_sub
            diag.propagate_s += perf_counter() - start
        t = t_target
        sampler.record(v)
    sampler.flush()


def evolve(initial: FullState, space: CompositeSpace, params: SystemParams,
           times: np.ndarray, *, step_size: float = DEFAULT_STEP,
           store_full: bool = False) -> Trajectory:
    """Propagate `initial` and sample it at the given absolute times.

    times must be non-decreasing and start at or after initial.time. The
    positivity, hermiticity, trace and excitation-number invariants are
    monitored (not enforced); a violation aborts with IntegrationError so a
    too-coarse step cannot silently corrupt results. A Fock cutoff too small
    for the initial state's excitations is rejected up front with
    ValueError (see check_fock_cutoff).
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1d array")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    if times[0] < initial.time - 1e-12:
        raise ValueError("times start before the initial state's time")
    if initial.dim() != space.dim_total:
        raise ValueError("initial state dimension does not match the space")
    try:
        initial.validate()
    except ValueError as exc:
        raise IntegrationError("initial_state", initial.time, math.nan,
                               math.nan) from exc
    check_fock_cutoff(initial, space)

    diag = IntegrationDiagnostics()
    sampler = _Sampler(space, times, store_full, diag)
    m = liouvillian_matrix(space, params)
    v = initial.rho_tilde.astype(complex).reshape(-1)

    _evolve_fixed(v, m, times, initial.time, step_size, sampler, diag)

    return Trajectory(
        times=times.copy(),
        reduced=sampler.reduced,
        expect_n=sampler.expect_n,
        trace_error=sampler.trace_error,
        hermiticity_error=sampler.hermiticity_error,
        min_eigenvalue=sampler.min_eigenvalue,
        sector_leakage=sampler.sector_leakage,
        diagnostics=diag,
        full_states=sampler.full_states,
    )
