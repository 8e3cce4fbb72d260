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
RK4 at step h up to rounding. M is a Lindblad generator, so it keeps the
trace: e^T M = 0, e marking the diagonal entries of vec(rho); _builds
checks this law once per generator build.

The model conserves the excitation number up to losses (a weak U(1)
symmetry of M), so a trajectory fills only the entries of vec(rho) that M
can reach from the initial state's nonzero entries (reachable_entries):
34 of 144 for psi at n_fock = 3. The slice holds the transpose of each of
its entries. S and P are built on M restricted to those entries; every
other entry stays exactly 0. With the squarings X_j = P^(2^j) - I, built
once too, a run of up to CHECK_CHUNK points is filled by doubling: the
rows done .. 2 done - 1 are v + v X_j^T of the rows 0 .. done - 1, one
product per doubling, each at the increment's own precision.

All of this arithmetic is real. In the photon-number gauge, which
multiplies entry (r, c) of vec(rho) by i^(n_c - n_r), n the photon
number of each basis state (see photon_turns), M is real: H only trades
a photon for a qubit excitation and each jump operator moves at most one
photon. _builds gauges M once per build, exactly, and stores the real
gauged generator; a generator with any imaginary part left in the gauge
fails there. A trajectory is propagated as the real part of the gauged
slice, one real row-block, and also as its imaginary part, a second
row-block filled by the same real products, when the gauged initial
state is not real (theta not a quarter turn, raw states); a state that
starts real in the gauge stays real, so for psi, phi and werner at
theta = 0 the imaginary block would stay exactly 0 and is not kept.

The invariants are checked at the sample times, one such run at a time
as array operations, and each run is reduced to the two qubits and
stored with one operation per series (the reduced states real for one
row-block, complex for two). Every check reads the gauged
slice itself through index maps built once: finiteness and hermiticity
(each entry against its transpose's conjugate) through slice_maps,
positivity (eigvalsh per diagonal block of rho, see diagonal_blocks;
real symmetric blocks for one row-block, Hermitian ones for two)
through gauge_maps, and the trace, <N>, the sector leakage and the
partial trace through gather_maps, which lay out the needed entries
with exact zeros where they fall outside the slice, so each sum rounds
as over the full matrix. Each row of a run ends in one pad entry, an
exact +0.0, which the maps' -1 entries read, so every gather is one
plain take. The gauge leaves these entries as they are: each has as
many photons in its row as in its column. The gauge multiplies by +-1
or +-i, so the checked values are those of the ungauged states; only
store_full writes states back, ungauged and at full width. The initial
state is checked as the first sample, and the earliest violating
sample is reported.

M, the reachable entries, their index and gather maps, S, P and
its squarings depend only on (space, params, h, n) and the initial
state's nonzero pattern, so calls that share these share one build:
evolve takes a dict that keeps the builds of the last such key (a sweep
passes one per run, so each gamma_s builds once), and a direct call
builds into a fresh one. What depends on n_fock alone is built once per
n_fock and kept for the process (operators.operator_tables): the
excitation weight of each basis state, which evolve and
check_fock_cutoff read, the three jump operators with their L^dag L, and
the coupling (sp_A + sp_B) a that build_hamiltonian scales by omega. These
arrays are read-only and shared by every caller; liouvillian_matrix builds
no operator of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Iterator

import numpy as np

# evolve reduces to the two qubits itself (see gather_maps); the name stays
# a dynamics attribute for the benchmark harness, which wraps it here
from .entanglement import partial_trace_cavity  # noqa: F401
from .operators import (
    CompositeSpace,
    SystemParams,
    _read_only,
    build_hamiltonian,
    operator_tables,
)

# Invariant tolerances for accepted states during integration.
TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8
EXCITATION_GAIN_TOL = 1e-8
# Largest max|e^T M| a generator may show, in units of eps * max|M|: a
# Lindblad generator has e^T M = 0, and its column sums round to at most
# 1.0 of these units (n_fock 1-6, rates 0-2000, Gamma 0-100, omega 0-3.3).
TRACE_LAW_TOL = 4
# Population above which an excitation sector of the initial state counts
# as occupied when the Fock cutoff is checked.
OCCUPATION_TOL = 1e-12

DEFAULT_STEP = 1e-3

# Points filled by doubling, checked, reduced to the two qubits and stored
# together; the fill takes the squarings P^(2^j) - I for
# j < CHECK_CHUNK.bit_length().
CHECK_CHUNK = 512


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

    The extrema, max_trace_error among them, are tracked at sample times,
    read from the reachable slice of each state. step_count is the number
    of RK4 steps taken. real_block_samples counts the samples propagated
    and checked as one real row-block, the real part of the state in the
    photon-number gauge (see photon_turns), with the smallest eigenvalue
    taken on real symmetric blocks: every sample of a state that starts
    real in the gauge. The others take two row-blocks and Hermitian
    blocks.
    propagate_s is the time spent building the propagator and its
    squarings and filling the runs of points with them, including the
    generator build and its trace-law check; a run that
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
    real_block_samples: int = 0
    propagate_s: float = 0.0
    check_s: float = 0.0


@dataclass
class Trajectory:
    """Sampled observables along one evolution.

    reduced holds the two-qubit density matrix (mode traced out) at each
    sample time, as an (n, 4, 4) array: float64 when the run was one real
    row-block (every sample real in the photon-number gauge, see
    IntegrationDiagnostics.real_block_samples), whose traced entries are
    then all real, and complex otherwise. full composite states are kept
    only when requested.
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


def liouvillian_matrix(space: CompositeSpace,
                       params: SystemParams) -> np.ndarray:
    """Generator M with vec(d rho/dt) = M vec(rho), row-major vectorization.

    With vec(A rho B) = (A kron B^T) vec(rho) and the non-Hermitian
    effective Hamiltonian K = -i H - 1/2 sum_L rate L^dag L, so that
    d rho/dt = K rho + rho K^dag + sum_L rate L rho L^dag,
    M = K kron I + I kron K* + sum_L rate L kron L*. Each Kronecker product
    A kron B is formed as the broadcast product A[i, k] B[j, l] at entry
    (i d + j, k d + l), which is how np.kron forms it, into one buffer.
    """
    d = space.dim_total
    rates = (params.gamma_cavity, params.gamma_a, params.gamma_b)
    jumps = [(op, ld, rate) for (op, ld), rate
             in zip(operator_tables(space.n_fock).jumps, rates) if rate != 0.0]
    k = -1j * build_hamiltonian(space, params)
    for _, ld, rate in jumps:
        k -= 0.5 * rate * ld
    eye = np.eye(d)

    def kron(a, b, out=None):
        return np.multiply(a[:, None, :, None], b[None, :, None, :], out=out)

    m = kron(k, eye)
    term = kron(eye, k.conj())
    m += term
    for op, _, rate in jumps:
        kron(op, op.conj(), out=term)
        term *= rate
        m += term
    return m.reshape(d * d, d * d)


def rk4_step_matrix(m: np.ndarray, h: float) -> np.ndarray:
    """One-step propagator I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.

    Applying it is identical to one classic RK4 step of v' = M v.
    """
    p = np.eye(m.shape[0], dtype=m.dtype)
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
    pops = initial.rho_tilde.diagonal().real
    weights = operator_tables(space.n_fock).weights
    top = int(weights[pops > OCCUPATION_TOL].max(initial=0))
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


def slice_maps(entries: np.ndarray, dim: int) -> np.ndarray:
    """Position in `entries` of each entry's transpose, which lets the
    hermiticity check read only `entries`.

    entries must hold the transpose of each of its entries (see
    reachable_entries).
    """
    mirror = _positions(entries, dim)[_transposed(dim)[entries]]
    if (mirror < 0).any():
        raise ValueError("entries must hold the transpose of each entry")
    return mirror


def photon_turns(n_fock: int) -> np.ndarray:
    """(n_c - n_r) % 4 for each entry (r, c) of the row-major vec(rho),
    n the photon number of each of the 4 n_fock basis states.

    The photon-number gauge, rho -> U rho U^dag with U = diag(i^-n),
    multiplies entry (r, c) by i^(n_c - n_r): the entry's real and
    imaginary parts are swapped or negated (see _turn), exactly. It
    turns the generator M into D M D* with D = diag(i^turns), which is
    real (see _builds), and keeps the eigenvalues of rho.
    """
    photons = np.arange(4 * n_fock) % n_fock
    return ((photons - photons[:, None]) % 4).reshape(-1)


# i^turns; multiplying by one is exact up to the sign of a zero
_PHASES = np.array([1, 1j, -1, -1j])


def _turn(re: np.ndarray, im: np.ndarray, turns: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of i^turns (re + i im), exactly: each is
    one of the parts, or its negative."""
    return (np.choose(turns, [re, -im, -re, im]),
            np.choose(turns, [im, re, -im, -re]))


def gauge_maps(entries: np.ndarray, n_fock: int
               ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Gauge turns of `entries`, and index maps of the diagonal blocks.

    Returns the photon_turns of each entry, so the gauged slice is
    i^turns times the slice, and, for each of the diagonal_blocks with k
    basis states, the (k, k) positions in `entries` of the block's
    entries, -1 for an entry outside them: it reads the pad entry, an
    exact +0.0 kept after the slice (see _check_samples). The gauge is a
    diagonal unitary similarity that multiplies by +-1 or +-i, so a block
    read from the gauged slice has the eigenvalues of the block of rho;
    it is real symmetric for a state real in the gauge.
    """
    dim = 4 * n_fock
    where = _positions(entries, dim)
    blocks = [where[blk[:, None] * dim + blk]
              for blk in diagonal_blocks(entries, dim)]
    return photon_turns(n_fock)[entries], blocks


def gather_maps(entries: np.ndarray, n_fock: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Index maps that let the sums over rho read only `entries`.

    Returns the (dim,) positions in `entries` of the diagonal of rho, and
    the (4, 4, n_fock) positions of the entries whose sum over the last
    axis is the two-qubit state, in partial_trace_cavity's basis
    (index i_a + 2 i_b); an entry outside `entries` is marked -1, which
    reads the pad entry, an exact +0.0 kept after the slice (see
    _check_samples). Gathered with one take, the sums add the same
    numbers in the same order as over the full matrix.
    """
    dim = 4 * n_fock
    where = _positions(entries, dim)
    qubits = np.arange(4)
    # basis state i_a + 2 i_b is row (2 i_a + i_b) n_fock + n of rho
    rows = (2 * (qubits % 2) + qubits // 2)[:, None] * n_fock + np.arange(
        n_fock)
    return (where[np.arange(dim) * (dim + 1)],
            where[rows[:, None, :] * dim + rows[None, :, :]])


def _complex(parts) -> np.ndarray:
    """parts[0] + i parts[1], or parts[0] + 0i for one part, exactly,
    signed zeros included."""
    out = np.zeros(parts[0].shape, dtype=complex)
    for part, values in zip((out.real, out.imag), parts):
        part[...] = values
    return out


def _squarings(x: np.ndarray) -> Iterator[np.ndarray]:
    """X, 2X + X^2, ..: the powers (I + X)^(2^j) - I for j = 0, 1, ..

    (I + X)^2 - I = 2X + X^2 keeps the increment X at its own relative
    precision, where squaring I + X would round it against the 1s of the
    diagonal at every product. Once the populations decay, the diagonal
    D of X holds its largest entries (near -1), so X^2 is summed as
    D^2 + D O + O D + O^2 with O = X - D: each product with D is rounded
    once, and only O^2 goes through a long sum. A plain real X @ X puts
    the large products inside each dot product, and drifted X_j up to
    7.5 eps off the exact powers of P, against 3.9 eps this way (psi and
    raw states at n_fock 3 and 4, gamma_s 0.02 to 2, sample intervals
    1e-3 to 10).
    """
    while True:
        yield x
        diagonal = x.diagonal()
        off = x.copy()
        np.fill_diagonal(off, 0.0)
        square = off @ off + (diagonal[:, None] * off + off * diagonal)
        square[np.diag_indices_from(square)] += diagonal * diagonal
        x = 2 * x + square


@np.errstate(over="ignore", invalid="ignore")
def interval_propagator(m: np.ndarray, h: float, n_sub: int,
                        entries: np.ndarray) -> np.ndarray:
    """Propagator P = S^n_sub over n_sub >= 1 RK4 steps of size h on
    `entries` of vec(rho), with S = rk4_step_matrix(M[entries][:, entries],
    h); M must map the entries into themselves (see reachable_entries).

    S is the identity plus a small increment, so P is powered by squaring
    as S^k - I (see _squarings), with (I + A)(I + B) - I = A + B + A B,
    and the 1s are added back once, at the end. Powered over an unstable
    step, P may overflow; the checks of the states it gives catch that,
    so the floating-point warnings are noise.
    """
    eye = np.eye(len(entries))
    acc = None
    for base in _squarings(
            rk4_step_matrix(m[np.ix_(entries, entries)], h) - eye):
        if n_sub & 1:
            acc = base if acc is None else acc + base + acc @ base
        n_sub >>= 1
        if not n_sub:
            return eye + acc


def _builds(space: CompositeSpace, params: SystemParams, h: float,
            n_sub: int, initial: FullState, shared: dict
            ) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Reachable entries, their index maps (mirror, gauge maps, diagonal
    and two-qubit gathers: see slice_maps, gauge_maps and gather_maps)
    and the (CHECK_CHUNK.bit_length(), w, w) squarings X_j = P^(2^j) - I
    of the propagator P over n_sub RK4 steps of size h, from `initial`.

    The generator is gauged once per build, M_g = D M D* with
    D = diag(i^photon_turns), and stored real: reachable_entries (M_g has
    the pattern of M), P and its squarings are then real. A generator
    with max|e^T M| above TRACE_LAW_TOL * eps * max|M| breaks the trace
    law, and IntegrationError("trace", initial.time, that value and
    bound) is raised; one with any imaginary part left in M_g breaks the
    gauge law, and IntegrationError("gauge", initial.time, max|Im M_g|,
    0.0) is raised. Both are raised before the generator is stored. The
    builds depend only on (space, params, h, n_sub) and the nonzero
    pattern of the initial state, so they are taken from `shared` when
    an earlier call left them there. shared holds the builds of one
    (space, params, h, n_sub): the gauged generator and, for the last
    nonzero pattern, its entries, index maps, propagator and squarings.
    A call with another key empties it first, and another pattern
    replaces that pattern's builds. Each build is stored only once it is
    complete, so a build that raises leaves `shared` as it was. Every
    array is read-only.
    """
    key = (space, params, h, n_sub)
    if shared.get("key") != key:
        m = liouvillian_matrix(space, params)
        law = float(np.abs(m[::space.dim_total + 1].sum(axis=0)).max())
        bound = TRACE_LAW_TOL * np.finfo(float).eps * float(np.abs(m).max())
        if not law <= bound:  # NaN fails too
            raise IntegrationError("trace", initial.time, law, bound)
        phase = _PHASES[photon_turns(space.n_fock)]
        m = phase[:, None] * m * phase.conj()
        if m.imag.any():
            raise IntegrationError("gauge", initial.time,
                                   float(np.abs(m.imag).max()), 0.0)
        shared.clear()
        shared.update(key=key, m=_read_only(m.real.copy()))
    m = shared["m"]
    rho = initial.rho_tilde
    pattern = (rho.reshape(-1) != 0).tobytes()
    if shared.get("pattern") != pattern:
        entries = _read_only(reachable_entries(m, rho))
        turns, blocks = gauge_maps(entries, space.n_fock)
        diagonal, qubits = gather_maps(entries, space.n_fock)
        prop = interval_propagator(m, h, n_sub, entries)
        # past an unstable step the squarings may overflow; the checks of
        # the states catch that, so the floating-point warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            squarings = np.array(list(islice(
                _squarings(prop - np.eye(len(entries))),
                CHECK_CHUNK.bit_length())))
        shared.update(pattern=pattern, entries=entries,
                      mirror=_read_only(slice_maps(entries, space.dim_total)),
                      gauge=(_read_only(turns),
                             tuple(map(_read_only, blocks))),
                      diagonal=_read_only(diagonal),
                      qubits=_read_only(qubits), prop=_read_only(prop),
                      squarings=_read_only(squarings))
    maps = tuple(shared[k] for k in ("mirror", "gauge", "diagonal", "qubits"))
    return shared["entries"], maps, shared["squarings"]


# past an unstable step a finite state may still overflow these sums; the
# checks catch it. 0.5 B + 0.5 B^H cannot overflow, and has the bits of
# 0.5 (B + B^H) unless an entry is subnormal.
@np.errstate(over="ignore", invalid="ignore")
def _check_samples(sub: np.ndarray, times: np.ndarray, weights: np.ndarray,
                   mirror: np.ndarray, blocks: tuple, diagonal: np.ndarray,
                   prev_expect_n: float,
                   diag: IntegrationDiagnostics
                   ) -> tuple[np.ndarray, ...]:
    """Check a run of states sampled at `times`, in time order.

    sub (k, b, w + 1) holds the states' entries on a slice of vec(rho) in
    the photon-number gauge (see photon_turns): their real parts, and with
    k = 2 their imaginary parts (0 when k = 1), then one pad entry, an
    exact +0.0, which the -1 entries of the index maps read, so that each
    gather is one plain take. Every entry outside the slice is an exact 0.
    mirror, blocks and diagonal are the slice's index maps (see
    slice_maps, gauge_maps and gather_maps). The gauge multiplies each
    entry by +-1 or +-i, and an entry and its transpose by conjugate
    phases, so each check gives the full-width value of the ungauged
    states bit for bit, whatever the run's length: the hermiticity error
    is the modulus of (re_e - re_t) + i (im_e + im_t), entry against
    transpose; the finite check sees every nonzero entry; the trace,
    <N> and leakage add the gathered diagonal, which the gauge leaves as
    it is, with its zeros, row by row in the full matrix's order (the
    trace as a complex sum, whose order differs from a real one's). The
    smallest eigenvalue is taken block by block, on real symmetric
    blocks with k = 1 (LAPACK dsyevd, about half the cost of zheevd) and
    on Hermitian re + i im blocks with k = 2; the gauge is a unitary
    similarity, so these have the eigenvalues of the blocks of rho up to
    the routine's rounding. The slice holds every nonzero entry of the
    states and the transpose of each, so these are the checks of the
    full matrices.

    The earliest violating sample raises IntegrationError; within one
    sample the order is finite, hermiticity, trace, positivity,
    excitation_monotone. prev_expect_n is <N> at the sample before the
    run (inf for none). Otherwise the run's extrema are folded into diag,
    its samples counted in real_block_samples if k = 1, and the
    per-sample <N>, trace error, hermiticity error, smallest eigenvalue
    and sector leakage are returned, in the order of the Trajectory
    fields.
    """
    # eigvalsh rejects non-finite input, so check only up to the first
    # non-finite sample; it raises below unless an earlier one does. A
    # finite sum has only finite terms; the per-sample flags are needed
    # only when it is not (a non-finite entry, or a sum that overflows)
    n_ok = sub.shape[1]
    if not np.isfinite(sub.sum()):
        finite = np.isfinite(sub).all(axis=(0, 2))
        n_ok = n_ok if finite.all() else int(finite.argmin())
    ok = sub[:, :n_ok]
    body, mirrored = ok[..., :-1], ok.take(mirror, axis=2)
    on_diagonal = ok.take(diagonal, axis=2)
    if len(ok) == 1:
        herm = np.abs(body[0] - mirrored[0])
    else:
        herm = np.abs(_complex((body[0] - mirrored[0], body[1] + mirrored[1])))
    herm = herm.max(axis=1)
    tr_err = np.abs(_complex(on_diagonal).sum(axis=1) - 1.0)
    # block by block, then an exact 0 for a basis state that no block
    # holds; inf is the minimum's identity
    min_eig = np.full(n_ok, math.inf)
    for index in blocks:
        blk = ok.take(index, axis=2)
        blk = blk[0] if len(ok) == 1 else _complex(blk)
        min_eig = np.minimum(min_eig, np.linalg.eigvalsh(
            0.5 * blk + 0.5 * blk.conj().transpose(0, 2, 1))[:, 0])
    if sum(map(len, blocks)) < len(diagonal):
        min_eig = np.minimum(min_eig, 0.0)
    pops = on_diagonal[0]
    expn = (pops * weights).sum(axis=1)
    gain = expn - np.concatenate(([prev_expect_n], expn[:-1]))

    checks = (("hermiticity", herm, herm > HERM_TOL, HERM_TOL),
              ("trace", tr_err, tr_err > TRACE_TOL, TRACE_TOL),
              ("positivity", min_eig, min_eig < EIG_FLOOR, EIG_FLOOR),
              ("excitation_monotone", gain, gain > EXCITATION_GAIN_TOL,
               EXCITATION_GAIN_TOL))
    bad = checks[0][2] | checks[1][2] | checks[2][2] | checks[3][2]
    if bad.any():
        i = int(bad.argmax())
        for invariant, values, flags, limit in checks:
            if flags[i]:
                raise IntegrationError(invariant, float(times[i]),
                                       float(values[i]), limit)
    if n_ok < sub.shape[1]:
        raise IntegrationError("finite", float(times[n_ok]), math.inf, 0.0)

    leak = pops[:, weights > 2].sum(axis=1)
    d = diag
    d.max_trace_error = float(tr_err.max(initial=d.max_trace_error))
    d.max_hermiticity_error = float(herm.max(initial=d.max_hermiticity_error))
    d.min_eigenvalue = float(min_eig.min(initial=d.min_eigenvalue))
    d.max_excitation_gain = float(gain.max(initial=d.max_excitation_gain))
    d.max_sector_leakage = float(np.abs(leak).max(
        initial=d.max_sector_leakage))
    if len(sub) == 1:
        d.real_block_samples += n_ok
    return expn, tr_err, herm, min_eig, leak


def interval_steps(dt: float, step_size: float) -> int:
    """Fewest RK4 steps of size at most step_size that span a sample
    interval dt >= 0, and at least 1. A count dt / step_size beyond the
    float range raises ValueError.
    """
    # a Python float division overflows to inf without a warning
    steps = float(dt) / step_size
    if not math.isfinite(steps):
        raise ValueError(f"{dt:g} / {step_size:g} RK4 steps per sample "
                         "interval exceed the float range")
    return max(1, math.ceil(steps - 1e-9))


def _check_times(times: np.ndarray, start: float) -> None:
    """Raise ValueError unless times is a finite, non-empty 1d grid that
    spans an interval within the float range, starts at `start` and
    increases in equal steps (within 1e-12 of np.linspace over the same
    ends)."""
    if times.ndim != 1 or len(times) == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a finite, non-empty 1d array")
    # Python floats overflow to inf without a warning, where np.linspace
    # warns and then fails the spacing check
    if not math.isfinite(float(times[-1]) - float(times[0])):
        raise ValueError("times must span an interval within the float "
                         "range")
    # the comparisons are written so that NaN fails them
    if not abs(float(times[0]) - float(start)) <= 1e-12:
        raise ValueError("times must start at the initial state's time")
    if not (times[1:] > times[:-1]).all():
        raise ValueError("times must be increasing")
    spacing = np.abs(times - np.linspace(times[0], times[-1], len(times)))
    if not spacing.max() <= 1e-12 * max(1.0, abs(times[-1])):
        raise ValueError("times must be evenly spaced")


def evolve(initial: FullState, space: CompositeSpace, params: SystemParams,
           times: np.ndarray, *, step_size: float = DEFAULT_STEP,
           store_full: bool = False, shared: dict | None = None
           ) -> Trajectory:
    """Propagate `initial` and sample it on an evenly spaced time grid.

    times must be finite, span an interval within the float range, start
    at initial.time and, with more than one sample, increase in equal
    steps (within 1e-12 of np.linspace over the same ends); anything else
    raises ValueError, as does a step_size that
    is not finite and > 0, or a step count beyond the float range (see
    interval_steps). Every sample interval takes the same RK4 steps of
    size at most step_size. Only the entries of vec(rho) that M can
    reach from the initial state's nonzero entries are propagated (see
    reachable_entries); the others stay exactly 0, as they would at full
    width, so the results differ from full-width propagation by rounding
    only. A generator that breaks the trace law, or is not real in the
    photon-number gauge, fails before any step (see _builds); the
    trajectory is propagated and checked in that gauge, in real
    arithmetic, and only store_full writes states back ungauged. The
    hermiticity, trace, positivity and excitation-number invariants are
    monitored at every sample (not enforced); the earliest violation
    aborts with IntegrationError so a too-coarse step cannot silently
    corrupt results. The initial state is checked as sample 0, on the
    slice, which holds each of its nonzero entries and their transposes:
    these are the checks of FullState.validate, finiteness, hermiticity,
    trace and positivity with the same tolerances, and a violation raises
    IntegrationError("initial_state", initial.time, value, limit) with
    the failing check's value and limit, after the generator's own laws
    (see _builds); a matrix that is not square raises it up front, with
    its entries per row against its rows. A Fock cutoff too small for
    the initial state's excitations is rejected up front with ValueError
    (see check_fock_cutoff).

    The reduced states are stored real (float64) when the run is one real
    row-block: their imaginary parts would be +0.0 throughout, since the
    traced entries have as many photons in the row as in the column and
    the gauge leaves them as they are. A run of two row-blocks stores
    them complex.

    shared lets calls reuse one another's builds: pass the same dict to
    calls that share space, params and grid spacing (a sweep's cells of
    one gamma_s) and only the first builds the generator, the propagator
    and its squarings. The dict holds the read-only builds of the last
    (space, params, h, n_sub) and the last nonzero pattern of the initial
    state: the generator, one propagator and CHECK_CHUNK.bit_length()
    squarings of it, and lives as long as the caller keeps it; without it
    each call builds into a fresh dict. It also keeps the last grid that
    passed the checks of times, with the initial time it started from: a
    later call on a grid of the same bits from the same time skips those
    checks, whatever its parameters. The results are the same either way,
    and every other check still runs on every call.
    """
    if not (math.isfinite(step_size) and step_size > 0):
        raise ValueError("step_size must be finite and > 0")
    times = np.asarray(times, dtype=float)
    shared = {} if shared is None else shared
    # a grid that passed these checks from the same initial time, by its
    # bits, passes them again
    grid = (times.shape, times.tobytes(), initial.time)
    if shared.get("grid") != grid:
        _check_times(times, initial.time)
    n = len(times)
    dim = space.dim_total
    if initial.dim() != dim:
        raise ValueError("initial state dimension does not match the space")
    rho = initial.rho_tilde
    if rho.shape != (dim, dim):
        raise IntegrationError("initial_state", initial.time, rho.size / dim,
                               dim)
    check_fock_cutoff(initial, space)

    dt = (times[-1] - times[0]) / max(n - 1, 1)
    n_sub = interval_steps(dt, step_size)
    h = dt / n_sub

    diag = IntegrationDiagnostics(step_count=(n - 1) * n_sub)
    clock = perf_counter()
    entries, maps, squarings = _builds(space, params, h, n_sub, initial,
                                       shared)
    shared["grid"] = grid  # after _builds, which may empty the dict
    mirror, (turns, blocks), diagonal, qubits = maps
    # the gauged initial slice; M_g is real, so its imaginary part stays 0
    # when it starts at 0, and is kept as a second row-block otherwise
    start = rho.reshape(-1)[entries] * _PHASES[turns]
    k = 2 if start.imag.any() else 1
    diag.propagate_s = perf_counter() - clock
    # sub[:, lead:lead + size] holds the reachable entries at samples
    # first .. first + size - 1. The first run starts at the initial
    # state, which takes no step (lead = 0); every later run keeps the
    # sample before it in sub[:, 0] (lead = 1). With rows 0 .. done - 1
    # filled, done = 2^j, X_j fills the next rows as v + v X_j^T of the
    # first ones, in each row-block. sub[..., -1] is the pad entry that
    # the -1 entries of the index maps read: the products and store_full
    # skip it, and it stays an exact +0.0.
    sub = np.zeros((k, min(CHECK_CHUNK + 1, n), len(entries) + 1))
    sub[:, 0, :-1] = (start.real, start.imag)[:k]
    # one real row-block leaves every traced entry real: its imaginary
    # part would be +0.0 throughout, so it is not stored
    reduced = np.empty((n, 4, 4), dtype=float if k == 1 else complex)
    series = [np.empty(n) for _ in range(5)]  # as _check_samples returns
    full_states: list[FullState] | None = [] if store_full else None
    weights = operator_tables(space.n_fock).weights
    prev_expect_n = math.inf
    first, lead = 0, 0
    while first < n:
        size = min(CHECK_CHUNK, n - first)
        rows = lead + size
        clock = perf_counter()
        # past an unstable step the states may overflow; the checks catch
        # that, so the floating-point warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            for j, x in enumerate(squarings[:(rows - 1).bit_length()]):
                filled = sub[:, 1 << j:min(2 << j, rows)]
                done = sub[:, :filled.shape[1]]
                np.matmul(done[..., :-1], x.T, out=filled[..., :-1])
                filled += done  # the pads add up to +0.0
        diag.propagate_s += perf_counter() - clock

        clock = perf_counter()
        states = sub[:, lead:rows]
        samples = slice(first, first + size)
        try:
            checked = _check_samples(states, times[samples], weights,
                                     mirror, blocks, diagonal, prev_expect_n,
                                     diag)
        except IntegrationError as err:
            if first or err.time != times[0]:
                raise
            # sample 0 is the initial state itself
            raise IntegrationError("initial_state", initial.time, err.value,
                                   err.limit) from err
        prev_expect_n = checked[0][-1]
        for out, values in zip(series, checked):
            out[samples] = values
        # the traced entries have as many photons in the row as in the
        # column, so the gauge leaves them as they are; the mode levels
        # are added in order onto 0, as partial_trace_cavity's einsum
        # adds them (0 + -0.0 is 0.0)
        traced = sum(states.take(qubits, axis=-1).transpose(4, 0, 1, 2, 3))
        reduced[samples] = traced[0] if k == 1 else _complex(traced)
        if full_states is not None:
            gauged = _complex(states[..., :-1])
            full = np.zeros((size, dim * dim), dtype=complex)
            full[:, entries] = _complex(
                _turn(gauged.real, gauged.imag, -turns % 4))
            full_states.extend(map(FullState, full.reshape(-1, dim, dim),
                                   times[samples]))
        diag.check_s += perf_counter() - clock
        sub[:, 0] = sub[:, rows - 1]
        first, lead = first + size, 1

    return Trajectory(times.copy(), reduced, *series, diagnostics=diag,
                      full_states=full_states)
