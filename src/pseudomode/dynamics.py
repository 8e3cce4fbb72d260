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
substeps and is one matvec with P = S^n, built once (powered as
S^k - I, so the small increment keeps its precision) and still exactly
RK4 at step h up to rounding; an interval longer than MAX_SEGMENT
steps is cut into equal segments, each checked like a sample.

The model conserves the excitation number up to losses (a weak U(1)
symmetry of M), so a trajectory fills only the entries of vec(rho) that M
can reach from the initial state's nonzero entries (reachable_entries):
34 of 144 for psi at n_fock = 3. The slice holds the transpose of each of
its entries. S, P and the trace rows are built on M restricted to those
entries; every other entry stays exactly 0. With
the power table Q[k] = P^(k+1), built once too, a block of points is
one product Q[:b] @ v; the block length b is the number of table rows
that fit in TABLE_BYTES, at most SAMPLE_CHUNK. The trace is checked at
every RK4 step: with the propagator comes the table of trace rows
T[k] = e^T S^(k+1), e marking the diagonal entries of vec(rho), so T @ V
holds the trace after each substep of every interval started from the
columns of V. The remaining invariants are checked at the sample times,
CHECK_CHUNK points (a whole number of blocks) at a time as array
operations, and each such run of points is reduced to the two qubits
and stored with one operation per series. Every check reads the slice
itself through index maps built once: finiteness, hermiticity (each
entry against its transpose's conjugate) and positivity (eigvalsh per
diagonal block of rho, see diagonal_blocks) through slice_maps, and the
trace, <N>, the sector leakage and the partial trace through
gather_maps, which lay out the needed entries with exact zeros where
they fall outside the slice, so each sum rounds as over the full
matrix. Only store_full writes states back to full width. The earliest
event is reported, as a step-by-step check would report it: a failing
step before any violation at the sample that ends its interval.

M, the reachable entries, their index and gather maps, S, P, the trace
rows and the power table depend only on (space, params, h, n) and the
initial state's nonzero pattern, so calls that share these share one
build: evolve takes a dict that keeps the builds of the last such key (a
sweep passes one per run, so each gamma_s builds once), and a direct
call builds into a fresh one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# evolve reduces to the two qubits itself (see gather_maps); the name stays
# a dynamics attribute for the benchmark harness, which wraps it here
from .entanglement import partial_trace_cavity  # noqa: F401
from .operators import (
    CompositeSpace,
    SystemParams,
    annihilation,
    build_hamiltonian,
    number_operator,
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

# Most points propagated in one block, one product with the power table.
SAMPLE_CHUNK = 128
# Points checked, reduced to the two qubits and stored together, rounded
# down to a whole number of blocks (at least one); the blocks keep their
# starts, so the propagation does not depend on it.
CHECK_CHUNK = 512
# Bytes the power table P^1 .. P^b of one run may take; the block length b
# is the number of rows that fit, at most SAMPLE_CHUNK (2.4 MB for the 34
# entries psi reaches at n_fock = 3; 25 rows at a width of 144 entries).
TABLE_BYTES = 8 * 2**20
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
    including the generator build and the per-step trace check; a run that
    reused the builds of an earlier one (evolve's `shared`) records no
    build time. check_s is the time spent on the per-sample checks, the
    reduction to the two qubits, the series stores and store_full, one
    CHECK_CHUNK run of points at a time (perf_counter seconds).
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


def check_fock_cutoff(initial: FullState, space: CompositeSpace) -> None:
    """Raise ValueError unless the mode truncation holds the whole evolution.

    H conserves the total excitation number and every dissipator lowers it,
    so a state whose highest occupied sector has N excitations never needs
    a Fock level above N. Levels 0 .. n_fock-1 are kept, so the truncation
    is exact if and only if N <= n_fock - 1; otherwise the cut-off ladder
    operator changes the physics without breaking any monitored invariant.
    """
    pops = np.real(np.diagonal(initial.rho_tilde))
    occupied = number_operator(space).diagonal().real[pops > OCCUPATION_TOL]
    top = int(occupied.max()) if occupied.size else 0
    if top > space.n_fock - 1:
        raise ValueError(
            f"initial state occupies {top} excitations, which needs "
            f"n_fock >= {top + 1}; got n_fock = {space.n_fock}")


def _closure(linked: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Sorted indices reached from the True entries of seed by following
    linked[i, j] from j to i until nothing new is reached."""
    reached = seed
    while True:
        grown = reached | linked[:, reached].any(axis=1)
        if (grown == reached).all():
            return np.flatnonzero(reached)
        reached = grown


def _transposed(dim: int) -> np.ndarray:
    """Position in the row-major vec(rho) of each entry's transpose."""
    return np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)


def reachable_entries(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Indices of the entries of vec(rho) that v' = M v can make nonzero.

    Starts from the nonzero entries of the row-major vec(rho) and of its
    transpose, and grows the set by the nonzero pattern of M, and of M with
    rows and columns transposed, until nothing new is reached. So M maps
    the set into itself, and every other entry stays exactly 0 under RK4,
    which only multiplies by polynomials in M; and the set holds the
    transpose of each of its entries, even for a rho or an M that does not
    preserve hermiticity. (A Lindblad generator preserves it, so there the
    transposed pattern adds nothing.)
    """
    t = _transposed(rho.shape[0])
    linked = m != 0
    seed = rho.reshape(-1) != 0
    return _closure(linked | linked[np.ix_(t, t)], seed | seed[t])


def diagonal_blocks(entries: np.ndarray, dim: int) -> list[np.ndarray]:
    """Basis states of each diagonal block of a rho supported on `entries`.

    Entry (r, c) of vec(rho) links basis states r and c; rho is
    block-diagonal over the connected components of these links. Its
    eigenvalues are those of the blocks plus an exact 0 for each basis
    state that no entry touches.
    """
    linked = np.zeros((dim, dim), dtype=bool)
    rows, cols = np.divmod(entries, dim)
    linked[rows, cols] = linked[cols, rows] = True
    left = linked.any(axis=0)
    blocks = []
    while left.any():
        block = _closure(linked, np.arange(dim) == np.argmax(left))
        blocks.append(block)
        left[block] = False
    return blocks


def _positions(entries: np.ndarray, dim: int) -> np.ndarray:
    """Position in `entries` of each entry of vec(rho), -1 outside them."""
    where = np.full(dim * dim, -1)
    where[entries] = np.arange(len(entries))
    return where


def slice_maps(entries: np.ndarray, dim: int
               ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Index maps that let the invariant checks read only `entries`.

    entries must hold the transpose of each of its entries (see
    reachable_entries). Returns mirror, the position in `entries` of each
    entry's transpose, and for each of the diagonal_blocks, with k basis
    states, the (k, k) positions of its entries in `entries`; an entry
    outside them, an exact 0, is marked -1.
    """
    where = _positions(entries, dim)
    mirror = where[_transposed(dim)[entries]]
    if (mirror < 0).any():
        raise ValueError("entries must hold the transpose of each entry")
    return mirror, [where[blk[:, None] * dim + blk]
                    for blk in diagonal_blocks(entries, dim)]


def gather_maps(entries: np.ndarray, n_fock: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Index maps that let the sums over rho read only `entries`.

    Returns the (dim,) positions in `entries` of the diagonal of rho, and
    the (4, 4, n_fock) positions of the entries whose sum over the last
    axis is the two-qubit state, in partial_trace_cavity's basis
    (index i_a + 2 i_b); an entry outside `entries`, an exact 0, is
    marked -1. Gathered with those zeros (see _gather), the sums add the
    same numbers in the same order as over the full matrix.
    """
    dim = 4 * n_fock
    where = _positions(entries, dim)
    qubits = np.arange(4)
    # basis state i_a + 2 i_b is row (2 i_a + i_b) n_fock + n of rho
    rows = (2 * (qubits % 2) + qubits // 2)[:, None] * n_fock + np.arange(
        n_fock)
    return (where[np.arange(dim) * (dim + 1)],
            where[rows[:, None, :] * dim + rows[None, :, :]])


def _gather(states: np.ndarray, where: np.ndarray) -> np.ndarray:
    """states[:, where] in C order, with an exact 0 where `where` is -1.

    The order matters: a sum over the last axis then adds its terms in
    the same order as over the full matrix.
    """
    out = states.take(where, axis=1)
    out[:, where < 0] = 0.0
    return out


def interval_propagator(m: np.ndarray, h: float, n_sub: int,
                        entries: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Propagator over n_sub RK4 steps of size h on `entries` of vec(rho),
    plus its trace rows.

    M must map the entries into themselves (see reachable_entries). Returns
    P = S^n_sub, with S = rk4_step_matrix(M[entries][:, entries], h), and
    the (n_sub, len(entries)) table T[k] = e^T S^(k+1), where e marks the
    entries on the diagonal of the row-major rho. T @ v is the trace after
    each of the n_sub steps started from v.
    """
    s = rk4_step_matrix(m[np.ix_(entries, entries)], h)
    dim = math.isqrt(m.shape[0])
    rows = np.empty((n_sub, len(entries)), dtype=complex)
    rows[0] = s[entries % (dim + 1) == 0].sum(axis=0)
    for k in range(1, n_sub):
        rows[k] = rows[k - 1] @ s
    return _near_identity_power(s, n_sub), rows


def _near_identity_power(s: np.ndarray, n: int) -> np.ndarray:
    """S^n for n >= 1 by binary powering, carried as S^k - I.

    An RK4 step matrix is the identity plus a small increment. Multiplying
    S itself rounds that increment against the 1s of the diagonal at every
    product; (I + A)(I + B) - I = A + B + A B keeps it at its own relative
    precision, so the 1s are added back once, at the end.
    """
    eye = np.eye(len(s))
    base = s - eye
    acc = None
    while True:
        if n & 1:
            acc = base if acc is None else acc + base + acc @ base
        n >>= 1
        if not n:
            return eye + acc
        base = 2 * base + base @ base


def power_table(p: np.ndarray, n: int) -> np.ndarray:
    """(n, w, w) table Q[k] = P^(k+1): Q[:b] @ v holds P v, .., P^b v."""
    table = np.empty((n, *p.shape), dtype=complex)
    if n:
        table[0] = p
    for k in range(1, n):
        np.matmul(p, table[k - 1], out=table[k])
    return table


def _block_length(width: int) -> int:
    """Points per block: the power-table rows of `width` entries that fit
    in TABLE_BYTES, at most SAMPLE_CHUNK."""
    row_bytes = np.dtype(complex).itemsize * width * width
    return max(1, min(SAMPLE_CHUNK, TABLE_BYTES // row_bytes))


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _builds(space: CompositeSpace, params: SystemParams, h: float,
            n_sub: int, rho: np.ndarray, n_points: int, shared: dict
            ) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray]:
    """Reachable entries, their index maps (mirror, diagonal blocks,
    diagonal and two-qubit gathers: see slice_maps and gather_maps), trace
    rows and power table of a run of n_points points, n_sub RK4 steps of
    size h apart, from rho.

    These depend only on (space, params, h, n_sub) and the nonzero pattern
    of rho, so they are taken from `shared` when an earlier call left them
    there. shared holds the builds of one (space, params, h, n_sub): the
    generator and, for the last nonzero pattern, its entries, index maps,
    propagator, trace rows and power table. A call with another key
    empties it first, another pattern replaces that pattern's builds, and
    a run with more points than the table covers rebuilds the table. Each
    build is stored only once it is complete, so a build that raises
    leaves `shared` as it was. Every array is read-only; the table comes
    back cut to the rows this run uses.
    """
    key = (space, params, h, n_sub)
    if shared.get("key") != key:
        m = _read_only(liouvillian_matrix(space, params))
        shared.clear()
        shared.update(key=key, m=m)
    m = shared["m"]
    pattern = (rho.reshape(-1) != 0).tobytes()
    if shared.get("pattern") != pattern:
        entries = _read_only(reachable_entries(m, rho))
        mirror, blocks = slice_maps(entries, space.dim_total)
        diagonal, qubits = gather_maps(entries, space.n_fock)
        prop, trace_rows = interval_propagator(m, h, n_sub, entries)
        shared.update(pattern=pattern, entries=entries,
                      mirror=_read_only(mirror),
                      blocks=tuple(map(_read_only, blocks)),
                      diagonal=_read_only(diagonal),
                      qubits=_read_only(qubits),
                      prop=_read_only(prop), trace_rows=_read_only(trace_rows),
                      table=None)
    rows = min(_block_length(len(shared["entries"])), n_points - 1)
    if shared["table"] is None or len(shared["table"]) < rows:
        # past an unstable step the states may overflow; the checks catch
        # that, so the floating-point warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            shared["table"] = _read_only(power_table(shared["prop"], rows))
    maps = tuple(shared[k] for k in ("mirror", "blocks", "diagonal", "qubits"))
    return (shared["entries"], maps, shared["trace_rows"],
            shared["table"][:rows])


def _check_samples(sub: np.ndarray, times: np.ndarray, weights: np.ndarray,
                   mirror: np.ndarray, blocks: list[np.ndarray],
                   diagonal: np.ndarray, block: int, prev_expect_n: float,
                   diag: IntegrationDiagnostics) -> tuple[np.ndarray, ...]:
    """Check a run of states sampled at `times`, in time order.

    sub (b, w) holds the states' entries on a slice of vec(rho); every
    other entry is an exact 0. mirror and blocks are the slice's index maps
    (see slice_maps) and diagonal the slice positions of rho's diagonal
    (see gather_maps). Every check reads the slice and gives the
    full-width value bit for bit: the finite and hermiticity checks and
    the smallest eigenvalue, taken block by block, see every nonzero
    entry, and the trace, <N> and leakage add the gathered diagonal, with
    its zeros, in the full matrix's order. <N> is one product per
    `block` states from the first: numpy takes a product of one row
    through BLAS dot, which rounds differently, so a propagation block of
    one point keeps its own product.

    The earliest violating sample raises IntegrationError; within one
    sample the order is finite, hermiticity, positivity,
    excitation_monotone. prev_expect_n is <N> at the sample before the
    run (inf for none). Otherwise the run's extrema are folded into diag
    and the per-sample <N>, trace error, hermiticity error, smallest
    eigenvalue and sector leakage are returned, in the order of the
    Trajectory fields.
    """
    finite = np.isfinite(sub).all(axis=1)
    # eigvalsh rejects non-finite input, so check only up to the first
    # non-finite sample; it raises below unless an earlier one does
    n_ok = len(sub) if finite.all() else int(np.argmin(finite))
    ok = sub[:n_ok]
    herm = np.abs(ok - ok.take(mirror, axis=1).conj()).max(axis=1)
    on_diagonal = _gather(ok, diagonal)
    tr_err = np.abs(on_diagonal.sum(axis=1) - 1.0)
    mins = []
    for where in blocks:
        blk = _gather(ok, where)
        mins.append(np.linalg.eigvalsh(
            0.5 * (blk + blk.conj().transpose(0, 2, 1)))[:, 0])
    if sum(map(len, blocks)) < len(diagonal):
        mins.append(np.zeros(n_ok))  # a basis state no block holds
    min_eig = np.min(mins, axis=0)
    # the strided .real view keeps matmul off BLAS, as for the diagonal
    # of the full matrix, so <N> keeps its bits
    pops = on_diagonal.real
    expn = np.concatenate([pops[lo:lo + block] @ weights
                           for lo in range(0, n_ok, block)] or [np.empty(0)])
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
    if n_ok < len(sub):
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
           store_full: bool = False, shared: dict | None = None
           ) -> Trajectory:
    """Propagate `initial` and sample it on an evenly spaced time grid.

    times must be finite, start at initial.time and, with more than one
    sample, increase in equal steps (within 1e-12 of np.linspace over the
    same ends); anything else raises ValueError, as does a step_size that
    is not finite and > 0. Every sample interval takes the same RK4 steps
    of size at most step_size. Only the entries of vec(rho) that M can
    reach from the initial state's nonzero entries are propagated (see
    reachable_entries); the others stay exactly 0, as they would at full
    width, so the results differ from full-width propagation by rounding
    only. The positivity, hermiticity, trace and
    excitation-number invariants are monitored (not enforced); the earliest
    violation aborts with IntegrationError so a too-coarse step cannot
    silently corrupt results. A Fock cutoff too small for the initial
    state's excitations is rejected up front with ValueError (see
    check_fock_cutoff).

    shared lets calls reuse one another's builds: pass the same dict to
    calls that share space, params and grid spacing (a sweep's cells of
    one gamma_s) and only the first builds the generator, the propagator,
    its trace rows and the power table. The dict holds the read-only
    builds of the last (space, params, h, n_sub) and the last nonzero
    pattern of the initial state, at most about TABLE_BYTES plus one
    trace-row table, and lives as long as the caller keeps it; without
    it each call builds into a fresh dict. The results are the same
    either way, and every check still runs on every call.
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
    diag = IntegrationDiagnostics(step_count=(n_points - 1) * n_sub)
    clock = perf_counter()
    entries, (mirror, blocks, diagonal, qubits), trace_rows, table = _builds(
        space, params, h, n_sub, initial.rho_tilde, n_points,
        {} if shared is None else shared)
    diag.propagate_s = perf_counter() - clock
    width = len(entries)
    chunk = _block_length(width)
    span = max(1, CHECK_CHUNK // chunk) * chunk
    # sub[1:size + 1] holds the reachable entries at points first .. first
    # + size - 1 and sub[0] those of the point before them; the initial
    # state takes no step. Each block of up to `chunk` points is one
    # product from the row before it, and the checks take `span` points
    # (whole blocks) at a time.
    sub = np.empty((min(span, n_points) + 1, width), dtype=complex)
    sub[1] = initial.rho_tilde.reshape(-1)[entries]
    reduced = np.empty((n, 4, 4), dtype=complex)
    series = [np.empty(n) for _ in range(5)]  # as _check_samples returns
    full_states: list[FullState] | None = [] if store_full else None
    weights = number_operator(space).diagonal().real
    prev_expect_n = math.inf
    first, unstepped = 0, 1
    while first < n_points:
        size = stop = min(span, n_points - first)
        clock = perf_counter()
        for lo in range(0, size, chunk):
            b = min(chunk, size - lo)
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(table[:b - unstepped].reshape(-1, width),
                          sub[lo + unstepped],
                          out=sub[lo + unstepped + 1:lo + b + 1].reshape(-1))
                err = np.abs(trace_rows @ sub[lo + unstepped:lo + b].T - 1.0)
            # column c holds the steps ending at point first + lo +
            # unstepped + c; a NaN trace must abort too, hence the
            # inverted comparison
            held = (err <= TRACE_TOL).all(axis=0)
            if not held.all():
                c = int(np.argmin(held))
                col, stop = err[:, c], lo + unstepped + c
                break
            diag.max_trace_error = float(err.max(
                initial=diag.max_trace_error))
            unstepped = 0
        diag.propagate_s += perf_counter() - clock

        clock = perf_counter()
        # a violation at an earlier sample wins over a failing step
        checked = _check_samples(sub[1:stop + 1],
                                 point_times[first:first + stop], weights,
                                 mirror, blocks, diagonal, chunk,
                                 prev_expect_n, diag)
        if stop < size:
            k = int(np.argmax(~(col <= TRACE_TOL)))
            raise IntegrationError(
                "trace", float(point_times[first + stop - 1]) + (k + 1) * h,
                float(col[k]), TRACE_TOL)
        prev_expect_n = checked[0][-1]
        keep = slice(-first % refine, size, refine)
        kept = sub[1:size + 1][keep]
        j = (first + keep.start) // refine
        samples = slice(j, j + len(kept))
        for out, values in zip(series, checked):
            out[samples] = values[keep]
        # the mode levels added in order onto 0, as partial_trace_cavity's
        # einsum adds them (0 + -0.0 is 0.0)
        reduced[samples] = sum(np.moveaxis(_gather(kept, qubits), -1, 0))
        if full_states is not None:
            full = np.zeros((len(kept), dim * dim), dtype=complex)
            full[:, entries] = kept
            full_states.extend(map(FullState, full.reshape(-1, dim, dim),
                                   times[samples]))
        diag.check_s += perf_counter() - clock
        sub[0] = sub[size]
        first += size

    return Trajectory(times.copy(), reduced, *series, diagnostics=diag,
                      full_states=full_states)
