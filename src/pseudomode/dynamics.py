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
four stages collapse into a single degree-4 polynomial S = I + X in (h M).
The samples are evenly spaced, so every sample interval takes the same n
substeps and is one matvec with P = S^n, built once and still exactly
RK4 at step h up to rounding. P is carried as its increment from the
step to the fill: X is formed without the identity (rk4_step_matrix),
powered as S^k - I (interval_increment) and squared as P^(2^j) - I, so
no product rounds the increment against the 1s of the diagonal, however
small h is. M is a Lindblad generator, so it keeps the
trace: e^T M = 0, e marking the diagonal entries of vec(rho); make_build
checks this law once per generator build, after checking that every entry
of M is finite.

The model conserves the excitation number up to losses (a weak U(1)
symmetry of M), so a trajectory fills only the entries of vec(rho) that M
can reach from the initial state's nonzero entries (reachable_entries):
34 of 144 for psi at n_fock = 3. The walk starts from these entries and
their transposes; M preserves hermiticity, so its nonzero pattern is
transpose-invariant, and the slice holds the transpose of each of its
entries. S and P are built on M restricted to those entries; every
other entry stays exactly 0. With the squarings X_j = P^(2^j) - I, built
once too, a run of up to CHECK_CHUNK points is filled by doubling: the
rows done .. 2 done - 1 are v + v X_j^T of the rows 0 .. done - 1, one
product per doubling, each at the increment's own precision.

All of this arithmetic is real. In the photon-number gauge, which
multiplies entry (r, c) of vec(rho) by i^(n_c - n_r), n the photon
number of each basis state (see photon_turns), M is real: H only trades
a photon for a qubit excitation and each jump operator moves at most one
photon. M is linear in the rates, M = omega U_H + Gamma U_a +
gamma_a U_A + gamma_b U_B, so the four unit generators are formed once
per n_fock in the gauge, as real Kronecker products (unit_generators),
and make_build forms each build's gauged generator from them, one sum of
four units scaled by the rates, which SystemParams holds to real numbers
(gauged_generator): no build has a complex case. A trajectory is
propagated as the real part of the gauged slice, one real row-block, and
also as its imaginary part, a second row-block filled by the same real
products, when the gauged initial state is not real (theta not a
quarter turn, raw states); a state that starts real in the gauge stays
real, so for psi, phi and werner at theta = 0 the imaginary block would
stay exactly 0 and is not kept.

The invariants are checked at the sample times, one such run at a time
as array operations, and each run is reduced to the two qubits and
stored with one operation per series (the reduced states real for one
row-block, complex for two). Every check reads the gauged slice itself
through index maps built once, by slice_layout: finiteness on the
slice itself; positivity (eigvalsh per diagonal block of rho, see
diagonal_blocks; real symmetric blocks for one row-block, Hermitian
ones for two; where the minimum is clamped at 0, a real block that a
closed-form certificate proves positive semidefinite to within a margin
of CERT_MARGIN times its trace skips it and reads 0, see _check_samples)
and hermiticity (the max of |B - B^H| over the same blocks B, which
hold every entry with its transpose, for every sample of the run at
once) through one block map that pads every block with zeros to the
largest one's size, so that a run's blocks are gathered, compared with
their conjugate transposes, symmetrised and certified as one stack;
and the trace, <N>, the sector
leakage and the partial trace through the diagonal and two-qubit
gathers, which lay out the needed entries with exact zeros where they
fall outside the slice, so each sum rounds as over the full matrix.
Each row of a run ends in one pad entry, an exact +0.0, which the maps'
-1 entries read, so every gather is one plain take. The gauge leaves
these entries as they are: each has as many photons in its row as in
its column. The gauge multiplies by +-1 or +-i, so the checked values
are those of the ungauged states; only store_full writes states back,
ungauged and at full width. The initial state is checked as the first
sample, and the earliest violating sample is reported.

M, the reachable entries, their index maps, S, P and its squarings
depend only on (space, params, h, n) and the initial state's nonzero
pattern, so calls that share these share one Build, which holds the
entries, their maps and the squarings, all read-only (make_build):
evolve takes a dict that keeps the Build of the last such key (a sweep
passes one per run, so each gamma_s builds once per run of cells whose
initial states share a pattern), and a direct call builds into a fresh
one. What depends on n_fock alone is built once per n_fock and kept
for the process: the four unit generators (unit_generators), and
(operators.operator_tables) the excitation weight of each basis state,
which evolve and check_fock_cutoff read, the three jump operators with
their L^dag L, and the coupling (sp_A + sp_B) a that build_hamiltonian
scales by omega. These arrays are read-only and shared by every caller.
liouvillian_matrix, the complex generator at full width, is the same sum
of the units taken out of the gauge; no build calls it. One edge walk,
_reachable, finds both the reachable entries and the diagonal blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from time import perf_counter
from typing import Iterator, NamedTuple

import numpy as np

# evolve reduces to the two qubits itself (see slice_layout); the name stays
# a dynamics attribute for the benchmark harness, which wraps it here
from .entanglement import partial_trace_cavity  # noqa: F401
from .operators import (
    CompositeSpace,
    SystemParams,
    _read_only,
    operator_tables,
)

# Invariant tolerances for accepted states during integration.
TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8
EXCITATION_GAIN_TOL = 1e-8
# Largest max|e^T M| a generator may show, in units of eps * max|M|: a
# Lindblad generator has e^T M = 0, and its column sums round to at most
# 1.0 of these units (n_fock 1-6, rates 0-2000, Gamma 0-100, omega 0-3.3),
# formed as the sum of the unit generators.
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

    The extrema, max_trace_error among them, are set once per trajectory
    by evolve, each the max (or min) of its Trajectory series, read at
    the sample times from the reachable slice of each state;
    max_sector_leakage is the max of |sector_leakage|, max_excitation_gain
    the largest step of expect_n, and each max is at least 0.0 (the
    min_eigenvalue at most 1.0). step_count is the number of RK4 steps
    taken. real_block_samples is the sample count of a run propagated
    and checked as one real row-block, the real part of the state in the
    photon-number gauge (see photon_turns), with the smallest eigenvalue
    taken on real symmetric blocks: a state that starts real in the
    gauge. A run of two row-blocks, checked on Hermitian blocks, reads 0.
    min_eigenvalue is the smallest eigenvalue LAPACK computes
    for a block, or 0.0 when the blocks leave a basis state out and no
    block's is lower; there a real block that _certified proves positive
    semidefinite to within its margin is not passed to LAPACK and counts
    as 0, which lies less than about 1.01e-12 tr(block) above LAPACK's
    value for it (see _check_samples).
    propagate_s is the time spent on the Build (the generator formed from
    the unit generators and its checks, the entries and their index maps,
    the propagator and its squarings; see make_build) and on filling the
    runs of points with the squarings; a run that reused the Build of an
    earlier one (evolve's `shared`) records no build time, and the first
    Build of an n_fock in the process also records the unit generators'
    own build. check_s is the time spent on the per-sample checks, the
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
    then all real, and complex otherwise. min_eigenvalue holds each
    sample's value as IntegrationDiagnostics defines it: 0 for a certified
    block. full composite states are kept only when requested.
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


class GeneratorEntries(NamedTuple):
    """Generators in the photon-number gauge on one set of their entries.

    rows, cols  (k,) row and column of each entry, in row-major order
    values      (k,) for one generator, (4, k) for the four units; float64,
                since the gauged generators of the model are real
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


@lru_cache(maxsize=8)
def unit_generators(n_fock: int) -> GeneratorEntries:
    """The four unit generators U_H, U_a, U_A, U_B of n_fock in the
    photon-number gauge, on the union of their nonzero patterns, in float64,
    built once per n_fock and shared by every caller, so every array is
    read-only.

    liouvillian_matrix is omega U_H + Gamma U_a + gamma_a U_A + gamma_b U_B
    before the gauge, with U_H = -i (H x I - I x H^T) / omega and, for each
    jump operator L, U_L = L x L* - (L^dag L x I + I x (L^dag L)^T) / 2.
    Every operator is real. The gauge multiplies entry (r, c) of a unit by
    i^(t_r - t_c), t the photon_turns: with C = (sp_A + sp_B) a, the half
    of H / omega that absorbs a photon, it turns -i H / omega into K and
    i H^T / omega into K^T = -K, with K = C - C^T, so U_H = K x I + I x K;
    and it leaves each L x L, whose two factors move a photon the same way,
    and the diagonal L^dag L terms as they are. So every unit is a sum of
    real Kronecker products, formed in real arithmetic; tests pin it to the
    gauged sum of the 11 Kronecker products of liouvillian_matrix's terms.
    """
    tables = operator_tables(n_fock)
    dim = 4 * n_fock
    eye = np.eye(dim)
    skew = tables.coupling.real - tables.coupling.real.T
    # each unit is the sum of its terms factor A x B: (unit, factor, A, B)
    terms = [(0, 1.0, skew, eye), (0, 1.0, eye, skew)]
    for unit, (op, ld) in enumerate(tables.jumps, 1):
        terms += [(unit, 1.0, op.real, op.real), (unit, -0.5, ld.real, eye),
                  (unit, -0.5, eye, ld.real)]
    units, rows, cols, values = [], [], [], []
    for unit, factor, a, b in terms:
        # entry (i dim + j, k dim + l) of A x B is A[i, k] B[j, l]
        (i, k), (j, l) = np.nonzero(a), np.nonzero(b)
        units.append(np.full(len(i) * len(j), unit))
        rows.append(np.add.outer(i * dim, j).reshape(-1))
        cols.append(np.add.outer(k * dim, l).reshape(-1))
        values.append(factor * np.multiply.outer(a[i, k], b[j, l]).reshape(-1))
    units, rows, cols, values = map(np.concatenate,
                                    (units, rows, cols, values))
    # the terms of a unit add up in their order; they overlap only on the
    # diagonal, where two of them of one sign meet
    positions, at = np.unique(rows * dim * dim + cols, return_inverse=True)
    summed = np.zeros((4, len(positions)))
    np.add.at(summed, (units, at), values)
    keep = summed.any(axis=0)
    rows, cols = np.divmod(positions[keep], dim * dim)
    return GeneratorEntries(_read_only(rows), _read_only(cols),
                            _read_only(summed[:, keep]))


def _unit_sum(space: CompositeSpace,
              params: SystemParams) -> GeneratorEntries:
    """omega U_H + Gamma U_a + gamma_a U_A + gamma_b U_B on the entries of
    the unit generators (unit_generators), summed in that order."""
    if params.n_fock != space.n_fock:
        raise ValueError("params.n_fock does not match the space")
    units = unit_generators(space.n_fock)
    m_h, m_a, m_qa, m_qb = units.values
    return units._replace(values=params.omega * m_h
                          + params.gamma_cavity * m_a
                          + params.gamma_a * m_qa + params.gamma_b * m_qb)


def gauged_generator(space: CompositeSpace,
                     params: SystemParams) -> GeneratorEntries:
    """The generator M_g = D M D* of liouvillian_matrix in the
    photon-number gauge, which each build takes (make_build): the sum of
    the scaled unit generators (_unit_sum). liouvillian_matrix forms the
    same sum, not through this function.
    """
    return _unit_sum(space, params)


def liouvillian_matrix(space: CompositeSpace,
                       params: SystemParams) -> np.ndarray:
    """Generator M with vec(d rho/dt) = M vec(rho), row-major vectorization.

    M = omega U_H + Gamma U_a + gamma_a U_A + gamma_b U_B: the sum of the
    unit generators in the photon-number gauge (see unit_generators), as
    a build forms it, taken out of the gauge exactly (see _turn) and
    scattered to full width. It equals the sum of the 11 Kronecker
    products of its terms in value, -i (H x I - I x H^T) and, for each
    jump operator L, rate (L x L* - (L^dag L x I + I x (L^dag L)^T) / 2);
    only the signs of some zeros may differ.
    """
    rows, cols, values = _unit_sum(space, params)
    t = photon_turns(space.n_fock)
    d2 = space.dim_total ** 2
    m = np.zeros((d2, d2), dtype=complex)
    m[rows, cols] = _complex(_turn(values.real, values.imag,
                                   (t[cols] - t[rows]) % 4))
    return m


# the name stays: the benchmark's tracer wraps it, and
# benchmarks/tests/test_perfbench.py pins it (ROADMAP item 1)
def rk4_step_matrix(m: np.ndarray, h: float) -> np.ndarray:
    """Increment X = hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 of one RK4 step.

    Applying I + X is identical to one classic RK4 step of v' = M v; the
    identity is left out, so X keeps its own relative precision (see
    _squarings).
    """
    x = term = h * m
    for k in (2, 3, 4):
        term = (h / k) * (m @ term)
        x = x + term
    return x


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


def _transposed(dim: int) -> np.ndarray:
    """Position in the row-major vec(rho) of each entry's transpose."""
    return np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)


def _reachable(rows: np.ndarray, cols: np.ndarray,
               seed: np.ndarray) -> np.ndarray:
    """Sorted indices of vec(rho) reached from the True entries of seed,
    which it fills in, by following each nonzero entry (rows[k], cols[k])
    of M from its column to its row."""
    reached, count = seed, 0
    while count != (count := np.count_nonzero(reached)):
        reached[rows[reached[cols]]] = True
    return np.flatnonzero(reached)


def reachable_entries(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Indices of the entries of vec(rho) that v' = M v can make nonzero.

    Starts from the nonzero entries of the row-major vec(rho) and of its
    transpose, and grows the set by the nonzero pattern of M until nothing
    new is reached. So M maps the set into itself, and every other entry
    stays exactly 0 under RK4, which only multiplies by polynomials in M.
    A Lindblad generator preserves hermiticity, so its nonzero pattern is
    invariant under transposing rows and columns, and the set it reaches
    from the transpose-closed start holds the transpose of each of its
    entries; for an M that does not preserve hermiticity it need not.
    """
    seed = rho.reshape(-1) != 0
    return _reachable(*np.nonzero(m), seed | seed[_transposed(len(rho))])


def diagonal_blocks(entries: np.ndarray, dim: int) -> list[np.ndarray]:
    """Basis states of each diagonal block of a rho supported on `entries`.

    Entry (r, c) of vec(rho) links basis states r and c; rho is
    block-diagonal over the connected components of these links. Its
    eigenvalues are those of the blocks plus an exact 0 for each basis
    state that no entry touches.
    """
    # _reachable follows a link from column to row: take each both ways
    rows, cols = np.divmod(entries, dim)
    ends, starts = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    left = np.zeros(dim, dtype=bool)
    left[ends] = True
    blocks = []
    while left.any():
        block = _reachable(ends, starts, np.arange(dim) == np.argmax(left))
        blocks.append(block)
        left[block] = False
    return blocks


def photon_turns(n_fock: int) -> np.ndarray:
    """(n_c - n_r) % 4 for each entry (r, c) of the row-major vec(rho),
    n the photon number of each of the 4 n_fock basis states.

    The photon-number gauge, rho -> U rho U^dag with U = diag(i^-n),
    multiplies entry (r, c) by i^(n_c - n_r): the entry's real and
    imaginary parts are swapped or negated (see _turn), exactly. It
    turns the generator M into D M D* with D = diag(i^turns), which is
    real (see unit_generators), and keeps the eigenvalues of rho.
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


def slice_layout(entries: np.ndarray, n_fock: int) -> tuple:
    """Index maps that let the checks and the reduction read only `entries`
    of vec(rho), read-only, in the order of the Build fields:

    - turns, the photon_turns of each entry: the gauged slice is i^turns
      times the slice;
    - block_map, the (n_blocks, size, size) positions of the entries of
      the diagonal_blocks, size the largest block's basis states: block b
      of k basis states fills block_map[b, :k, :k] and its padding is -1.
      Each entry (r, c) links r and c, which so lie in one block, so
      the block map holds every entry and the position of its
      transpose, -1 where that lies outside `entries`. The gauge is a
      diagonal unitary similarity that multiplies by +-1 or +-i, so a
      block read from the gauged slice has the eigenvalues of the block
      of rho; it is real symmetric for a state real in the gauge;
    - block_sizes, the number of basis states of each block, in order;
    - diagonal, the (dim,) positions of the diagonal of rho;
    - qubits, the (4, 4, n_fock) positions of the entries whose sum over
      the last axis is the two-qubit state, in partial_trace_cavity's
      basis (index i_a + 2 i_b).

    An entry outside `entries` is marked -1, which reads the pad entry, an
    exact +0.0 kept after the slice (see _check_samples). Gathered with one
    take, the sums add the same numbers in the same order as over the full
    matrix.
    """
    dim = 4 * n_fock
    where = np.full(dim * dim, -1)
    where[entries] = np.arange(len(entries))
    qubits = np.arange(4)
    # basis state i_a + 2 i_b is row (2 i_a + i_b) n_fock + n of rho
    rows = (2 * (qubits % 2) + qubits // 2)[:, None] * n_fock + np.arange(
        n_fock)
    blocks = diagonal_blocks(entries, dim)
    sizes = tuple(map(len, blocks))
    block_map = np.full((len(blocks),) + (max(sizes, default=0),) * 2, -1)
    for index, blk in zip(block_map, blocks):
        index[:len(blk), :len(blk)] = where[blk[:, None] * dim + blk]
    return (_read_only(photon_turns(n_fock)[entries]), _read_only(block_map),
            sizes, _read_only(where[np.arange(dim) * (dim + 1)]),
            _read_only(where[rows[:, None, :] * dim + rows[None, :, :]]))


def _complex(parts) -> np.ndarray:
    """parts[0] + i parts[1], or parts[0] + 0i for one part, exactly,
    signed zeros included."""
    if len(parts) == 1:
        return parts[0].astype(complex)
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
        # the diagonal of the fresh, contiguous square as a strided view
        square.reshape(-1)[::len(square) + 1] += diagonal * diagonal
        x = 2 * x + square


@np.errstate(over="ignore", invalid="ignore")
def interval_increment(m: np.ndarray, h: float, n_sub: int) -> np.ndarray:
    """Increment P - I of the propagator P = S^n_sub over n_sub >= 1 RK4
    steps of size h, with S = I + rk4_step_matrix(m, h) and m the
    generator on a set of entries of vec(rho) that it maps into themselves
    (see reachable_entries).

    P is powered by squaring as S^k - I (see _squarings), with
    (I + A)(I + B) - I = A + B + A B, and the identity is never formed,
    so the increment keeps its own relative precision however small the
    step. Powered over an unstable step, it may overflow; the checks of
    the states it gives catch that, so the floating-point warnings are
    noise.
    """
    acc = None
    for base in _squarings(rk4_step_matrix(m, h)):
        if n_sub & 1:
            acc = base if acc is None else acc + base + acc @ base
        n_sub >>= 1
        if not n_sub:
            return acc


@dataclass(frozen=True, eq=False)
class Build:
    """What the fill and the checks of evolve read of one generator and
    propagator build (see make_build). Every array is read-only.

    key is (space, params, h, n_sub, the initial state's nonzero pattern
    as bytes), on which the rest depends. entries are the reachable
    entries of vec(rho) (see reachable_entries), and squarings the
    (CHECK_CHUNK.bit_length(), w, w) increments X_j = P^(2^j) - I of the
    propagator P over n_sub RK4 steps of size h on the gauged real slice
    of the w entries, X_0 being interval_increment's P - I; P itself is
    never formed. turns, block_map, diagonal and qubits are the entries'
    index maps, and block_sizes the basis states of each of
    block_map's blocks (see slice_layout).
    """

    key: tuple
    entries: np.ndarray
    squarings: np.ndarray
    turns: np.ndarray
    block_map: np.ndarray
    block_sizes: tuple[int, ...]
    diagonal: np.ndarray
    qubits: np.ndarray


# a generator that overflows fails its own check, and past an unstable
# step P and its squarings may overflow, which the checks of the states
# catch; either way the floating-point warnings are noise
@np.errstate(over="ignore", invalid="ignore")
def make_build(space: CompositeSpace, params: SystemParams, h: float,
               n_sub: int, initial: FullState, last: Build | None
               ) -> Build:
    """The Build of (space, params, h, n_sub) from the nonzero pattern of
    `initial`: `last` itself when its key is the same, else a new one
    (`last` may be None).

    The generator comes in the photon-number gauge, M_g = D M D* with
    D = diag(i^photon_turns), on the entries of the unit generators (see
    gauged_generator): one sum of four real units scaled by the real rates
    of params, so M_g is real, with nothing of full width. It is checked:
    a generator with an entry that is not finite, or of a modulus beyond
    the largest double, raises IntegrationError("generator", initial.time,
    max|M|, the largest double); one with max|e^T M| above
    TRACE_LAW_TOL * eps * max|M| breaks the trace law, and raises
    IntegrationError("trace", initial.time, that value and bound). Both
    are raised before anything else is built. The gauge multiplies each
    entry by +-1 or +-i, so |M| = |M_g| entry by entry, and each column of
    e^T M by one phase, since the diagonal of rho takes no turn: the
    checks read M_g, and the column sums are one real bincount.
    reachable_entries (M_g has the pattern of M), the slice of M_g on
    them, the increment P - I (interval_increment) and its squarings are
    real too. P itself is never formed, and M_g is not kept.
    """
    seed = initial.rho_tilde.reshape(-1) != 0
    key = (space, params, h, n_sub, seed.tobytes())
    if last is not None and last.key == key:
        return last
    generator = gauged_generator(space, params)
    values = generator.values
    scale = float(np.abs(values).max(initial=0.0))
    largest = np.finfo(float).max
    if not scale <= largest:  # NaN fails too
        raise IntegrationError("generator", initial.time, scale, largest)
    # the column sums over the rows of the diagonal of rho, in row order
    dim = space.dim_total
    on_trace = generator.rows % (dim + 1) == 0
    sums = np.bincount(generator.cols[on_trace], values[on_trace], dim * dim)
    law = float(np.abs(sums).max(initial=0.0))
    bound = TRACE_LAW_TOL * np.finfo(float).eps * scale
    if not law <= bound:
        raise IntegrationError("trace", initial.time, law, bound)
    nonzero = values != 0
    rows, cols = generator.rows[nonzero], generator.cols[nonzero]
    entries = _read_only(_reachable(rows, cols, seed | seed[_transposed(dim)]))
    where = np.full(dim * dim, -1)
    where[entries] = np.arange(len(entries))
    # M_g maps the entries into themselves: the rows of the entries in
    # their columns are entries too
    inside = where[cols] >= 0
    m_slice = np.zeros((len(entries),) * 2)
    m_slice[where[rows[inside]], where[cols[inside]]] = values[nonzero][inside]
    squarings = np.array(list(islice(
        _squarings(interval_increment(m_slice, h, n_sub)),
        CHECK_CHUNK.bit_length())))
    return Build(key, entries, _read_only(squarings),
                 *slice_layout(entries, space.n_fock))


# Relative margin of the positivity certificate, and its absolute floor,
# the smallest normal double (see _certified)
CERT_MARGIN = 1e-12
_CERT_FLOOR = np.finfo(float).tiny


def _certified(sym: np.ndarray) -> np.ndarray:
    """Which of the real symmetric (n, k, k) blocks sym are certified
    positive semidefinite to within a margin: sym + 2 margin I is positive
    definite, with margin = max(CERT_MARGIN tr(sym), the smallest normal
    double).

    A block is certified when the LDL^T pivots of sym + margin I are all
    > 0 in floating point; they are read from the lower triangle, which
    eigvalsh reads too. The elimination runs on one (k, k, n) copy of the
    stack as k - 1 rank-one updates of its trailing block; each entry of
    the lower triangle takes the division, product and difference of the
    scalar elimination, in its order, so the pivots are those of each
    block factorised alone. A NaN pivot fails. Why this is sound: an LDL^T
    (Cholesky) factorisation that succeeds in floating point is the exact
    factorisation of sym + margin I + E with ||E|| <= gamma_(k+1)
    tr(sym + margin I) up to terms of order eps^2 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10). So sym's smallest
    eigenvalue is > -margin - ||E||, and ||E|| < margin while (k + 1) eps
    is far below CERT_MARGIN. LAPACK's dsyevd, which eigvalsh calls, is
    backward stable: its smallest eigenvalue of a certified block is above
    about -1.01e-12 tr(sym), far above EIG_FLOOR. The floor keeps the
    margin above the absolute error of a product that underflows, and
    certifies an empty block.
    """
    k = sym.shape[1]
    # low[i, j] holds entry (i, j) of every block, contiguous; its
    # diagonal, pivots, ends as the LDL^T pivots
    low = sym.transpose(1, 2, 0).copy()
    pivots = low.reshape(k * k, len(sym))[::k + 1]
    pivots += np.maximum(CERT_MARGIN * pivots.sum(axis=0), _CERT_FLOOR)
    # right-looking elimination, one rank-one update of the trailing block
    # per column; only its lower triangle is read
    for j in range(1, k):
        low[j:, j:] -= low[j:, j - 1, None] / pivots[j - 1] * low[j:, j - 1]
    return np.minimum.reduce(pivots) > 0  # NaN stays NaN


# past an unstable step a finite state may still overflow these sums; the
# checks catch it. _certified divides by 0 at a zero pivot and certifies
# no such block. 0.5 B + 0.5 B^H cannot overflow, and has the bits of
# 0.5 (B + B^H) unless an entry is subnormal.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _check_samples(sub: np.ndarray, times: np.ndarray, weights: np.ndarray,
                   build: Build, prev_expect_n: float
                   ) -> tuple[np.ndarray, ...]:
    """Check a run of states sampled at `times`, in time order.

    sub (k, b, w + 1) holds the states' entries on a slice of vec(rho) in
    the photon-number gauge (see photon_turns): their real parts, and with
    k = 2 their imaginary parts (0 when k = 1), then one pad entry, an
    exact +0.0, which the -1 entries of the index maps read, so that each
    gather is one plain take. Every entry outside the slice is an exact 0.
    build holds the slice's index maps block_map and diagonal, and the
    block_sizes (see slice_layout). The gauge multiplies each entry by
    +-1 or +-i, and an entry and its transpose by conjugate phases, so
    each check gives the full-width value of the ungauged states bit for
    bit, whatever the run's length: the hermiticity error is the max of
    |B^H - B| over the stack of diagonal blocks B that the positivity
    check gathers, for all samples at once. Each entry of the slice lies
    in its block's square, as does its transpose, which reads the pad's
    +0.0 where it lies outside the slice; entry e against transpose t,
    B^H - B is (re_t - re_e) - i (im_t + im_e), whose modulus is that of
    rho_e - conj(rho_t) exactly, as |a - b| = |b - a| and the modulus
    ignores the signs of both parts. So it is the full matrix's max of
    |rho - rho^H|. The finite check sees every nonzero entry; the trace,
    <N> and leakage add the gathered diagonal, which the gauge leaves as
    it is, with its zeros, row by row in the full matrix's order (the
    trace as a complex sum, whose order differs from a real one's). The
    smallest eigenvalue is taken block by block, on real symmetric blocks
    with k = 1 (LAPACK dsyevd, about half the cost of zheevd) and on
    Hermitian re + i im blocks with k = 2; the gauge is a unitary
    similarity, so these have the eigenvalues of the blocks of rho up to
    the routine's rounding. The slice holds every nonzero entry of the
    states, so these are the checks of the full matrices. When the blocks
    leave a basis state out, the reported minimum is clamped at the exact
    0 of that state: with k = 1, a block goes to eigvalsh only for the
    samples that _certified does not prove positive semidefinite to
    within its margin (a block below -margin, as past an unstable step),
    and their minima are scattered back, a step skipped when every block
    of every sample is certified; a certified block counts as 0, less
    than about
    1.01e-12 tr(block) above LAPACK's value, far inside EIG_FLOOR, so
    every violation is reported as it would be with every block sent to
    eigvalsh. Every sample of a complex run or of a run whose blocks
    cover every basis state goes to eigvalsh, as the value itself is
    reported there. Every block of the run is gathered, symmetrised and
    certified at once, zero-padded to the largest block's size; eigvalsh
    takes each block alone, cut to its own size. The padding adds +0.0
    to a block's trace and nothing to any update of its own entries,
    whose pivots come first, and its own pivots stay the margin (> 0)
    unless one of the block's own pivots already fails, so every block
    is certified, and its minimum taken, as if it stood alone.

    The earliest violating sample raises IntegrationError; within one
    sample the order is finite, hermiticity, trace, positivity,
    excitation_monotone. prev_expect_n is <N> at the sample before the
    run (inf for none). Otherwise the per-sample <N>, trace error,
    hermiticity error, smallest eigenvalue and sector leakage are
    returned, in the order of the Trajectory fields; nothing else is
    written (evolve sets the diagnostics from these series).
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
    # entry-major, (k, w + 1, n): each gather below copies whole rows of
    # samples, and each check reduces across the samples. Each large
    # temporary is dropped once used, and halved in place where that keeps
    # the bits, so a run's peak memory stays near that of checking one
    # block at a time; past it, malloc can return the memory to the system
    # after every run and page it in again
    ends = np.ascontiguousarray(ok.transpose(0, 2, 1))
    # block by block, then an exact 0 for a basis state that no block
    # holds; inf is the minimum's identity. Under that clamp a certified
    # real block counts as 0, so only the samples it does not certify go
    # to eigvalsh
    n_blocks, size = build.block_map.shape[:2]
    # (size, size, n_blocks, n), then the (n_blocks n, size, size) stack,
    # block-major, whose entries (i, j) lie contiguous as _certified reads
    blk = ends.take(build.block_map.transpose(1, 2, 0), axis=1)
    del ends
    blk = blk[0] if len(ok) == 1 else _complex(blk)
    # |B^H - B| over the stack, in the buffer of the symmetrised stack; the
    # 2-D reduction, with its row count for n_ok = 0, allocates no buffer
    sym = np.subtract(blk.conj().swapaxes(0, 1), blk, order="C")
    herm = np.abs(sym, out=sym if len(ok) == 1 else None).reshape(
        size * size * n_blocks, n_ok).max(axis=0)
    # 0.5 B^H + 0.5 B: each product and the sum as in 0.5 B + 0.5 B^H
    np.multiply(blk.conj().swapaxes(0, 1), 0.5, out=sym)
    blk *= 0.5
    sym += blk
    del blk
    # the diagonal and its complex copy fit in the memory blk leaves
    on_diagonal = ok.take(build.diagonal, axis=2)
    tr_err = np.abs(_complex(on_diagonal).sum(axis=1) - 1.0)
    stack = sym.reshape(size, size, -1).transpose(2, 0, 1)
    min_eig = np.full(n_ok, math.inf)
    clamped = sum(build.block_sizes) < len(build.diagonal)
    certify = clamped and len(ok) == 1
    sizes = build.block_sizes
    if certify:
        refused = ~_certified(stack).reshape(n_blocks, n_ok)
        if not refused.any():
            sizes = ()  # every block reads 0 under the clamp
    for b, k in enumerate(sizes):
        block = stack[b * n_ok:(b + 1) * n_ok, :k, :k]
        todo = slice(None)
        if certify:
            todo = np.flatnonzero(refused[b])
            block = block[todo]
        if len(block):
            min_eig[todo] = np.minimum(min_eig[todo],
                                       np.linalg.eigvalsh(block)[:, 0])
    if clamped:
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
    only. A generator that breaks the trace law fails before any step,
    as does one with an entry that is not finite (see make_build); the
    trajectory is propagated and checked in the photon-number gauge, in
    real arithmetic, and only store_full writes states back ungauged. The
    hermiticity, trace, positivity and excitation-number invariants are
    monitored at every sample (not enforced); the earliest violation
    aborts with IntegrationError so a too-coarse step cannot silently
    corrupt results. The initial state is checked as sample 0, on the
    slice, which holds each of its nonzero entries and their transposes:
    these are the checks of FullState.validate, finiteness, hermiticity,
    trace and positivity with the same tolerances, and a violation raises
    IntegrationError("initial_state", initial.time, value, limit) with
    the failing check's value and limit, after the generator's own laws
    (see make_build); a matrix that is not square raises it up front, with
    its entries per row against its rows. A Fock cutoff too small for
    the initial state's excitations is rejected up front with ValueError
    (see check_fock_cutoff).

    The reduced states are stored real (float64) when the run is one real
    row-block: their imaginary parts would be +0.0 throughout, since the
    traced entries have as many photons in the row as in the column and
    the gauge leaves them as they are. A run of two row-blocks stores
    them complex.

    shared lets calls reuse one another's Build (see make_build): pass
    the same dict to calls that share space, params, grid spacing and the
    initial state's nonzero pattern (a sweep's cells of one gamma_s) and
    only the first builds the generator, the propagator and its
    squarings. The dict holds the Build of the last such key under
    "build", replaced only by a complete one, so a build that fails
    leaves the dict as it was; it lives as long as the caller keeps it,
    and without it each call builds into a fresh dict. It also keeps the
    last grid that passed the checks of times, with the initial time it
    started from: a later call on a grid of the same bits from the same
    time skips those checks, whatever its parameters. The results are
    the same either way, and every other check still runs on every
    call.
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
    build = make_build(space, params, h, n_sub, initial, shared.get("build"))
    shared.update(build=build, grid=grid)
    entries = build.entries
    # the gauged initial slice; M_g is real, so its imaginary part stays 0
    # when it starts at 0, and is kept as a second row-block otherwise
    start = rho.reshape(-1)[entries] * _PHASES[build.turns]
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
            for j, x in enumerate(build.squarings[:(rows - 1).bit_length()]):
                filled = sub[:, 1 << j:min(2 << j, rows)]
                done = sub[:, :filled.shape[1]]
                np.matmul(done[..., :-1], x.T, out=filled[..., :-1])
                filled += done  # the pads add up to +0.0
        diag.propagate_s += perf_counter() - clock

        clock = perf_counter()
        states = sub[:, lead:rows]
        samples = slice(first, first + size)
        try:
            checked = _check_samples(states, times[samples], weights, build,
                                     prev_expect_n)
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
        traced = sum(states.take(build.qubits, axis=-1).transpose(
            4, 0, 1, 2, 3))
        reduced[samples] = traced[0] if k == 1 else _complex(traced)
        if full_states is not None:
            gauged = _complex(states[..., :-1])
            full = np.zeros((size, dim * dim), dtype=complex)
            full[:, entries] = _complex(
                _turn(gauged.real, gauged.imag, -build.turns % 4))
            full_states.extend(map(FullState, full.reshape(-1, dim, dim),
                                   times[samples]))
        diag.check_s += perf_counter() - clock
        sub[:, 0] = sub[:, rows - 1]
        first, lead = first + size, 1

    expect_n, tr_err, herm, min_eig, leak = series
    diag.max_trace_error = float(tr_err.max(initial=0.0))
    diag.max_hermiticity_error = float(herm.max(initial=0.0))
    diag.min_eigenvalue = float(min_eig.min(initial=1.0))
    diag.max_excitation_gain = float(np.diff(expect_n).max(initial=0.0))
    diag.max_sector_leakage = float(np.abs(leak).max(initial=0.0))
    diag.real_block_samples = n if k == 1 else 0
    return Trajectory(times.copy(), reduced, *series, diagnostics=diag,
                      full_states=full_states)
