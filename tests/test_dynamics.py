import itertools
import math
from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import (
    eleven_kron_liouvillian,
    lindblad_rhs,
    random_density_matrix,
)
from pseudomode import (
    FullState,
    IntegrationError,
    SystemParams,
    build_space,
    evolve,
    liouvillian_matrix,
    make_initial,
    number_operator,
)
from pseudomode import dynamics
from pseudomode.dynamics import (
    CERT_MARGIN,
    CHECK_CHUNK,
    DEFAULT_STEP,
    EIG_FLOOR,
    EXCITATION_GAIN_TOL,
    HERM_TOL,
    TRACE_LAW_TOL,
    TRACE_TOL,
    Build,
    _certified,
    _check_samples,
    diagonal_blocks,
    interval_increment,
    interval_steps,
    reachable_entries,
    rk4_step_matrix,
    slice_layout,
)
from pseudomode.entanglement import partial_trace_cavity
from pseudomode.states import InitialStateSpec


@pytest.fixture()
def mixed_full_state(space3):
    rng = np.random.default_rng(3)
    return random_density_matrix(rng, space3.dim_total)


class TestRhs:
    def test_hermitian_and_traceless(self, space3, mixed_full_state):
        params = SystemParams.symmetric(0.3, omega=0.45, gamma_cavity=0.2)
        out = lindblad_rhs(space3, params, mixed_full_state)
        assert np.abs(out - out.conj().T).max() <= 1e-12
        assert abs(np.trace(out)) <= 1e-12

    def test_decay_rates_without_coupling(self, space3):
        # with omega = 0 each population decays at its own rate
        params = SystemParams(omega=0.0, gamma_cavity=0.5, gamma_a=0.3,
                              gamma_b=0.1)
        ket = space3.flat_index

        rho = np.zeros((12, 12), dtype=complex)
        rho[ket(0, 0, 1), ket(0, 0, 1)] = 1.0
        out = lindblad_rhs(space3, params, rho)
        assert out[ket(0, 0, 1), ket(0, 0, 1)] == pytest.approx(-0.5)
        assert out[ket(0, 0, 0), ket(0, 0, 0)] == pytest.approx(0.5)

        rho = np.zeros((12, 12), dtype=complex)
        rho[ket(1, 0, 0), ket(1, 0, 0)] = 1.0
        out = lindblad_rhs(space3, params, rho)
        assert out[ket(1, 0, 0), ket(1, 0, 0)] == pytest.approx(-0.3)

        rho = np.zeros((12, 12), dtype=complex)
        rho[ket(0, 1, 0), ket(0, 1, 0)] = 1.0
        out = lindblad_rhs(space3, params, rho)
        assert out[ket(0, 1, 0), ket(0, 1, 0)] == pytest.approx(-0.1)

    def test_matches_vectorized_generator(self, space3, mixed_full_state):
        params = SystemParams.symmetric(0.7, omega=0.2)
        m = liouvillian_matrix(space3, params)
        direct = lindblad_rhs(space3, params, mixed_full_state)
        vectorized = (m @ mixed_full_state.reshape(-1)).reshape(12, 12)
        assert np.abs(direct - vectorized).max() <= 1e-12


def _step(m, h):
    """The RK4 step matrix S = I + rk4_step_matrix(m, h)."""
    return np.eye(len(m)) + rk4_step_matrix(m, h)


def test_rk4_polynomial_equals_stage_form(space3):
    # the cached one-matrix step must be bit-for-bit the classic 4-stage update
    params = SystemParams.symmetric(0.4)
    m = liouvillian_matrix(space3, params)
    rng = np.random.default_rng(9)
    v = rng.normal(size=144) + 1j * rng.normal(size=144)
    h = 1e-2
    k1 = m @ v
    k2 = m @ (v + 0.5 * h * k1)
    k3 = m @ (v + 0.5 * h * k2)
    k4 = m @ (v + h * k3)
    staged = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(_step(m, h) @ v - staged).max() <= 1e-12


def test_expm_cross_check(space3):
    # independent propagator: dense matrix exponential of the generator
    params = SystemParams.symmetric(0.15)
    init = make_initial(InitialStateSpec("psi", 0.35, theta=0.4), space3)
    t_end = 1.5
    traj = evolve(init, space3, params, np.array([0.0, t_end]))
    m = liouvillian_matrix(space3, params)
    v = expm(m * t_end) @ init.rho_tilde.reshape(-1)
    expected = v.reshape(12, 12)
    got = traj.full_states  # not stored by default
    assert got is None
    # compare through the reduced matrices instead
    from pseudomode.entanglement import partial_trace_cavity
    ref = partial_trace_cavity(expected, space3)
    assert np.abs(traj.reduced[-1] - ref).max() <= 1e-9


@pytest.mark.parametrize("gamma_s", [0.02, 2.0])
def test_interval_propagator_matches_substep_loop(space3, gamma_s):
    # evolve applies one propagator per sample interval; a literal loop of
    # single RK4 steps, one matvec each as the integrator used to run it,
    # is the reference for the sampled states
    params = SystemParams.symmetric(gamma_s)
    m = liouvillian_matrix(space3, params)
    times = np.linspace(0.0, 150.0, 1501)
    n_sub = 100
    h = (times[1] - times[0]) / n_sub
    step = _step(m, h)
    for spec in (InitialStateSpec("psi", 0.3, theta=0.4),
                 InitialStateSpec("phi", 0.3),
                 InitialStateSpec("werner_psi", 0.3, r=0.6)):
        init = make_initial(spec, space3)
        sampled = evolve(init, space3, params, times,
                         store_full=True).full_states
        substeps = np.empty((n_sub + 1, space3.dim_total ** 2), dtype=complex)
        substeps[-1] = init.rho_tilde.reshape(-1)
        worst_state = 0.0
        for i in range(1, len(times)):
            substeps[0] = substeps[-1]
            for k in range(n_sub):
                np.matmul(step, substeps[k], out=substeps[k + 1])
            worst_state = max(worst_state, float(np.abs(
                sampled[i].rho_tilde.reshape(-1) - substeps[-1]).max()))
        assert worst_state <= 1e-12, spec


def _raw_state(space, top):
    """Random full-rank state on the basis states with at most `top`
    excitations."""
    low = np.flatnonzero(number_operator(space).diagonal().real <= top)
    rho = np.zeros((space.dim_total,) * 2, dtype=complex)
    rho[np.ix_(low, low)] = random_density_matrix(np.random.default_rng(11),
                                                  len(low))
    return FullState(rho)


def _test_states(space):
    return {
        "phi": make_initial(InitialStateSpec("phi", 0.3, theta=0.4), space),
        "psi": make_initial(InitialStateSpec("psi", 0.3, theta=0.4), space),
        "werner": make_initial(InitialStateSpec("werner_psi", 0.3, r=0.6),
                               space),
        "raw": _raw_state(space, space.n_fock - 1),
    }


def test_reachable_entries_are_closed_under_the_generator(space3):
    # the excitation number is conserved up to losses, so each state fills
    # a few sectors of fixed N_row - N_col with N <= 2, and M maps them
    # into themselves exactly
    m = liouvillian_matrix(space3, SystemParams.symmetric(0.2))
    sizes, blocks = {}, {}
    for name, init in _test_states(space3).items():
        entries = reachable_entries(m, init.rho_tilde)
        outside = np.setdiff1d(np.arange(len(m)), entries)
        assert not m[np.ix_(outside, entries)].any(), name
        assert not init.rho_tilde.reshape(-1)[outside].any(), name
        sizes[name] = len(entries)
        blocks[name] = sorted(len(b) for b in diagonal_blocks(entries, 12))
    assert sizes == {"phi": 10, "psi": 34, "werner": 34, "raw": 64}
    # psi: the N = 1 block and the {N = 0, N = 2} block; phi: |00,0> and
    # the one-excitation sector
    assert blocks == {"phi": [1, 3], "psi": [3, 5], "werner": [3, 5],
                      "raw": [8]}


def _component_blocks(entries, dim):
    """The connected components of the links (r, c) of the entries of
    vec(rho), by scipy, over the basis states that some entry touches:
    each sorted, in order of their smallest basis state."""
    rows, cols = np.divmod(entries, dim)
    links = csr_matrix((np.ones(len(entries)), (rows, cols)),
                       shape=(dim, dim))
    _, labels = connected_components(links, directed=False)
    touched = np.union1d(rows, cols)
    return [touched[labels[touched] == label]
            for label in dict.fromkeys(labels[touched].tolist())]


def test_diagonal_blocks_are_the_connected_components(space3):
    # on random entry sets of 1 to 24 basis states, with and without the
    # transpose of each entry, and on the slices of the test states
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(400):
        dim = int(rng.integers(1, 25))
        entries = np.flatnonzero(rng.random(dim * dim)
                                 < rng.uniform(0.0, 4.0 / dim))
        rows, cols = np.divmod(entries, dim)
        cases.append((entries, dim))
        cases.append((np.union1d(entries, cols * dim + rows), dim))
    m = liouvillian_matrix(space3, SystemParams.symmetric(0.2))
    cases += [(reachable_entries(m, init.rho_tilde), space3.dim_total)
              for init in _test_states(space3).values()]
    for entries, dim in cases:
        blocks = diagonal_blocks(entries, dim)
        expected = _component_blocks(entries, dim)
        assert len(blocks) == len(expected), (entries, dim)
        for block, component in zip(blocks, expected):
            assert np.array_equal(block, component), (entries, dim)
        assert all(a[0] < b[0] for a, b in zip(blocks, blocks[1:]))


def test_reachable_entries_hold_every_transpose(space3):
    # the checks read an entry's transpose inside its diagonal block, and
    # a physical slice holds it: a Lindblad generator preserves
    # hermiticity, so its nonzero pattern is invariant under transposing
    # rows and columns, and what it reaches from the nonzero entries and
    # their transposes holds the transpose of each entry, also for a state
    # whose nonzero pattern is not symmetric; the Build's slice is the
    # same. The walk follows only the generator's own edges, so one that
    # does not preserve hermiticity may leave a transpose out
    dim = space3.dim_total
    states = {name: init.rho_tilde
              for name, init in _test_states(space3).items()}
    skew = np.zeros((dim, dim), dtype=complex)
    skew[0, 0] = 1.0
    skew[space3.flat_index(1, 0, 0), space3.flat_index(0, 1, 1)] = 1e-3
    states["asymmetric"] = skew
    for gamma_s in (0.0, 0.2, 20.0):
        params = SystemParams.symmetric(gamma_s)
        m = liouvillian_matrix(space3, params)
        for name, rho in states.items():
            entries = reachable_entries(m, rho)
            rows, cols = np.divmod(entries, dim)
            assert np.array_equal(np.sort(cols * dim + rows), entries), (
                name, gamma_s)
            outside = np.setdiff1d(np.arange(len(m)), entries)
            assert not m[np.ix_(outside, entries)].any(), (name, gamma_s)
            build = dynamics.make_build(space3, params, DEFAULT_STEP, 1,
                                        FullState(rho), None)
            assert np.array_equal(build.entries, entries), (name, gamma_s)
    one_way = np.zeros_like(m)
    one_way[5, 0] = 1.0  # links entry (0, 0) to (0, 5) only
    a, b = space3.flat_index(1, 0, 0), space3.flat_index(0, 1, 1)
    # skew's entries with their transposes, and (0, 5) without (5, 0)
    assert reachable_entries(one_way, skew).tolist() == sorted(
        [0, a * dim + b, b * dim + a, 5])


def _gauge_real_states(space):
    """The states that are real in the photon-number gauge."""
    return {
        "phi real": make_initial(InitialStateSpec("phi", 0.3), space),
        "psi real": make_initial(InitialStateSpec("psi", 0.3), space),
        "werner real": make_initial(InitialStateSpec("werner_psi", 0.3, r=0.6),
                                    space),
    }


def _complex_states(space):
    """States that are not real in the photon-number gauge."""
    return {
        "psi": make_initial(InitialStateSpec("psi", 0.3, theta=0.4), space),
        "phi": make_initial(InitialStateSpec("phi", 0.3, theta=0.4), space),
        "werner": make_initial(
            InitialStateSpec("werner_psi", 0.3, theta=0.4, r=0.6), space),
        "raw": _raw_state(space, space.n_fock - 1),
    }


def _photon_turns(dim):
    """(n_c - n_r) % 4 for each entry (r, c) of a state on 4 n_fock basis
    states, n the photon number (the fastest index) of each."""
    n = np.arange(dim) % (dim // 4)
    return (n - n[:, None]) % 4


def _photon_gauge(rho):
    """Real and imaginary parts of rho multiplied entrywise by
    i^(n_c - n_r), n the photon number of each basis state."""
    turns = _photon_turns(rho.shape[-1])
    re, im = rho.real, rho.imag
    return (np.choose(turns, [re, -im, -re, im]),
            np.choose(turns, [im, re, -im, -re]))


def _hermitian(re, im):
    """The complex matrices re + i im, built part by part."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _block_minima(rho, blocks, real, certify=False):
    """Smallest eigenvalue over the diagonal blocks of each of the full
    states rho, with the exact 0 of the basis states no block holds. With
    certify, a real block that _certified accepts is left out where such
    an exact 0 clamps the minimum: the checks' definition."""
    mins = [np.zeros(len(rho))]
    clamped = sum(map(len, blocks)) < rho.shape[-1]
    for blk in blocks:
        sub = rho[:, blk[:, None], blk]
        sym = 0.5 * (sub + (sub if real else sub.conj()).transpose(0, 2, 1))
        low = np.linalg.eigvalsh(sym)[:, 0]
        if certify and real and clamped:
            low[_certified(sym)] = math.inf
        mins.append(low)
    return np.min(mins, axis=0)


def _gauged_block_minima(rho, blocks, certify=False):
    """_block_minima of rho in the photon-number gauge: on real symmetric
    blocks if the gauged states are real, else on Hermitian ones."""
    re, im = _photon_gauge(rho)
    if not im.any():
        return _block_minima(re, blocks, True, certify)
    return _block_minima(_hermitian(re, im), blocks, False, certify)


def _assert_within_the_margin(got, every):
    """got, the smallest eigenvalues the checks report, against `every`,
    those of every block of the same states: equal, or an exact 0 where
    a certified block's value lay in (-1.01e-12, 0); the states have
    unit trace, so this is the certificate's bound."""
    moved = got != every
    assert (got[moved] == 0.0).all()
    assert ((every[moved] < 0.0) & (every[moved] > -1.01e-12)).all()


def _assert_checked_minima(got, rho, blocks):
    """got against the checks' definition on the full states rho, bit
    for bit, and against the minima of every block within the margin."""
    assert np.array_equal(got, _gauged_block_minima(rho, blocks, True))
    _assert_within_the_margin(got, _gauged_block_minima(rho, blocks))


def test_slice_checks_equal_the_full_width_values(space3):
    # hermiticity and each diagonal block are read from the gauged slice;
    # the full-width matrices give the same bits for hermiticity, and the
    # same bits as their own gauged blocks for the smallest eigenvalue:
    # real symmetric blocks for states real in the photon-number gauge,
    # those the certificate accepts left out, and Hermitian ones for the
    # others. Both agree with the complex blocks of rho to rounding
    params = SystemParams.symmetric(0.2)
    times = np.linspace(0.0, 5.0, 301)
    states = {**_gauge_real_states(space3), **_complex_states(space3)}
    m = liouvillian_matrix(space3, params)
    for name, init in states.items():
        traj = evolve(init, space3, params, times, store_full=True)
        rho = np.array([s.rho_tilde for s in traj.full_states])
        herm = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        assert np.array_equal(traj.hermiticity_error, herm), name
        entries = reachable_entries(m, init.rho_tilde)
        blocks = diagonal_blocks(entries, space3.dim_total)
        # every test state leaves some basis state untouched: an exact 0
        assert sum(map(len, blocks)) < space3.dim_total, name
        real = name.endswith("real")
        assert bool(_photon_gauge(rho)[1].any()) != real, name
        _assert_checked_minima(traj.min_eigenvalue, rho, blocks)
        complex_mins = _block_minima(rho, blocks, real=False)
        every = _gauged_block_minima(rho, blocks)
        assert np.abs(every - complex_mins).max() <= 1e-15, name
        assert traj.diagnostics.real_block_samples == (
            len(times) if real else 0), name


def _assert_min_eigenvalues(traj, init, space, params):
    """The smallest eigenvalue of each sample against two oracles: bit
    for bit that of the diagonal blocks of the full matrix in the
    photon-number gauge, those the certificate accepts left out, and
    within the margin of every block's (see _assert_checked_minima), whose
    minima are within 1e-15 of eigvalsh of the full matrix."""
    rho = np.array([s.rho_tilde for s in traj.full_states])
    full = np.linalg.eigvalsh(
        0.5 * (rho + rho.conj().transpose(0, 2, 1)))[:, 0]
    entries = reachable_entries(liouvillian_matrix(space, params),
                                init.rho_tilde)
    blocks = diagonal_blocks(entries, space.dim_total)
    _assert_checked_minima(traj.min_eigenvalue, rho, blocks)
    every = _gauged_block_minima(rho, blocks)
    assert np.abs(every - full).max() <= 1e-15


def _rates(rates, n_fock):
    return SystemParams.symmetric(0.2, n_fock=n_fock) if (
        rates == "symmetric") else SystemParams(
        omega=0.2, gamma_cavity=0.3, gamma_a=0.3, gamma_b=0.05,
        n_fock=n_fock)


@pytest.mark.parametrize("n_fock", [3, 4])
@pytest.mark.parametrize("rates", ["symmetric", "asymmetric"])
def test_gauge_real_states_take_the_real_blocks(n_fock, rates):
    # psi, phi and werner at theta = 0 are real in the photon-number gauge
    # and so is M, for any rates: every sample is one real row-block and
    # takes the real blocks, whose smallest eigenvalue is the full
    # matrix's up to rounding
    space = build_space(n_fock)
    params = _rates(rates, n_fock)
    times = np.linspace(0.0, 8.0, 1203)
    for name, init in _gauge_real_states(space).items():
        traj = evolve(init, space, params, times, store_full=True)
        rho = np.array([s.rho_tilde for s in traj.full_states])
        assert not _photon_gauge(rho)[1].any(), name
        assert traj.diagnostics.real_block_samples == len(times), name
        # the reduced states are stored real: the real parts of those of
        # the full states, whose imaginary parts are all +0.0
        assert traj.reduced.dtype == np.float64, name
        assert _same_reduced(traj, rho, space), name
        _assert_min_eigenvalues(traj, init, space, params)


@pytest.mark.parametrize("n_fock", [3, 4])
def test_complex_states_keep_the_complex_blocks(n_fock):
    # a state that is not real in the gauge (psi, phi and werner at
    # theta = 0.4; a random raw state) is propagated as two real
    # row-blocks, its gauged real and imaginary parts, and takes Hermitian
    # blocks; no benchmark workload takes this path, so every full-width
    # oracle is checked here, for symmetric and asymmetric rates: the
    # smallest eigenvalue, the slice sums, and the states against a
    # full-width loop of single RK4 steps
    space = build_space(n_fock)
    weights = number_operator(space).diagonal().real
    times = np.linspace(0.0, 8.0, 401)
    for rates in ("symmetric", "asymmetric"):
        params = _rates(rates, n_fock)
        for name, init in _complex_states(space).items():
            traj = evolve(init, space, params, times, store_full=True)
            assert traj.diagnostics.real_block_samples == 0, name
            _assert_min_eigenvalues(traj, init, space, params)
            rho = np.array([s.rho_tilde for s in traj.full_states])
            pops = np.real(rho.diagonal(axis1=1, axis2=2))
            assert _same_bits(traj.trace_error, np.abs(
                np.trace(rho, axis1=1, axis2=2) - 1.0)), name
            assert _same_bits(traj.expect_n,
                              (pops * weights).sum(axis=1)), name
            assert _same_bits(traj.sector_leakage,
                              pops[:, weights > 2].sum(axis=1)), name
            assert traj.reduced.dtype == complex, name
            assert _same_reduced(traj, rho, space), name
            herm = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(
                axis=(1, 2))
            assert np.array_equal(traj.hermiticity_error, herm), name
            _assert_matches_the_full_width_loop(init, space, params, name)


def test_gauge_maps_index_the_diagonal_blocks(space3):
    # the turns are those of each slice entry, and each block map holds the
    # position of each block entry in the slice (-1 outside it), so the
    # block read from a gauged slice is the gauged block of the full
    # matrix; the oracles are the blocks of diagonal_blocks and the gauge
    # taken on the full matrix
    dim = space3.dim_total
    m = liouvillian_matrix(space3, SystemParams.symmetric(0.2))
    rng = np.random.default_rng(7)
    states = {**_test_states(space3), **_gauge_real_states(space3)}
    for name, init in states.items():
        entries = reachable_entries(m, init.rho_tilde)
        position = {e: i for i, e in enumerate(entries.tolist())}
        turns, maps, sizes, _, _ = slice_layout(entries, space3.n_fock)
        assert np.array_equal(turns, _photon_turns(dim).reshape(-1)[entries])
        assert np.array_equal(dynamics.photon_turns(space3.n_fock),
                              _photon_turns(dim).reshape(-1))
        blocks = diagonal_blocks(entries, dim)
        assert len(maps) == len(blocks), name
        # one map padded to the largest block, -1 past each block's size
        assert sizes == tuple(map(len, blocks)), name
        assert maps.shape[1:] == (max(sizes),) * 2, name
        for index, k in zip(maps, sizes):
            assert (index[k:] == -1).all() and (index[:, k:] == -1).all()
        maps = [index[:k, :k] for index, k in zip(maps, sizes)]
        # a generic vec(rho) on the slice, not real in any gauge
        v = np.zeros(dim * dim, dtype=complex)
        v[entries] = rng.normal(size=len(entries)) + 1j * rng.normal(
            size=len(entries))
        gauged = _hermitian(*_photon_gauge(v.reshape(dim, dim)))
        phased = v[entries] * np.array([1, 1j, -1, -1j])[turns]
        assert np.array_equal(phased, gauged.reshape(-1)[entries]), name
        for index, blk in zip(maps, blocks):
            assert np.array_equal(index, [
                [position.get(r * dim + c, -1) for c in blk] for r in blk])
            got = np.where(index < 0, 0.0, phased[index])
            assert np.array_equal(got, gauged[np.ix_(blk, blk)]), name
    # the diagonal of rho is left as it is
    entries = reachable_entries(m, states["psi"].rho_tilde)
    turns = slice_layout(entries, space3.n_fock)[0]
    assert not turns[np.isin(entries, np.arange(dim) * (dim + 1))].any()


def _layout_build(entries, n_fock):
    """A Build of `entries` and their index maps alone, as the checks
    read it."""
    return Build(None, entries, None, *slice_layout(entries, n_fock))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes())


def _same_reduced(traj, rho, space):
    """traj.reduced against partial_trace_cavity of its full states rho,
    bit for bit: with one real row-block (every sample real in the gauge)
    it is float64, the real parts of states whose imaginary parts are all
    +0.0; with two it is complex."""
    full = partial_trace_cavity(rho, space)
    if traj.diagnostics.real_block_samples == len(traj):
        return (_same_bits(traj.reduced, full.real)
                and not full.imag.view(np.int64).any())
    return traj.diagnostics.real_block_samples == 0 and _same_bits(
        traj.reduced, full)


@pytest.mark.parametrize("n_fock", [3, 4])
def test_sums_over_the_slice_equal_the_full_width_formulas(n_fock):
    # the trace, <N>, the leakage and the reduced states add the slice's
    # entries, gathered with exact zeros for the rest; the formulas over
    # the full matrices give the same bits, signed zeros included. Each is
    # a sum row by row, so its bits do not depend on the run lengths: a
    # single point, runs of CHECK_CHUNK points with one or two points left
    # over (513, 514), and [0, 20] in two intervals of 10 000 steps
    space = build_space(n_fock)
    params = SystemParams.symmetric(0.2, n_fock=n_fock)
    weights = number_operator(space).diagonal().real
    grids = [np.linspace(0.0, 5.0, 203), np.linspace(0.0, 5.0, 257),
             np.linspace(0.0, 4.5, 226), np.array([0.0]),
             np.linspace(0.0, 5.12, CHECK_CHUNK + 1),
             np.linspace(0.0, 5.13, CHECK_CHUNK + 2),
             np.linspace(0.0, 20.0, 3)]
    for name, init in _test_states(space).items():
        for times in grids:
            traj = evolve(init, space, params, times, store_full=True)
            rho = np.array([s.rho_tilde for s in traj.full_states])
            pops = np.real(rho.diagonal(axis1=1, axis2=2))
            assert _same_bits(traj.trace_error, np.abs(
                np.trace(rho, axis1=1, axis2=2) - 1.0)), name
            assert _same_bits(traj.expect_n,
                              (pops * weights).sum(axis=1)), name
            assert _same_bits(traj.sector_leakage,
                              pops[:, weights > 2].sum(axis=1)), name
            assert _same_reduced(traj, rho, space), name
    assert traj.diagnostics.step_count == 2 * 10000


def test_positivity_reads_entries_outside_the_slice_as_zero(space3):
    # a diagonal block need not be filled: with a generator that moves
    # nothing, (0, 2) and (2, 0) stay outside the slice, and the smallest
    # eigenvalue (negative, within EIG_FLOOR) is that of the block with
    # zeros there
    params = SystemParams.symmetric(0.0, omega=0.0, gamma_cavity=0.0)
    a = 0.1 * math.sqrt(2.0) - 5e-9
    rho = np.zeros((space3.dim_total,) * 2, dtype=complex)
    rho[:3, :3] = [[a, 0.1j, 0.0], [-0.1j, a, 0.1], [0.0, 0.1, a]]
    top = space3.flat_index(1, 0, 0)
    rho[top, top] = 1.0 - 3 * a
    m = liouvillian_matrix(space3, params)
    assert not m.any()
    blocks, sizes = slice_layout(reachable_entries(m, rho), space3.n_fock)[1:3]
    assert sizes == (3, 1)
    assert (blocks[0] < 0).sum() == 2
    traj = evolve(FullState(rho), space3, params, np.linspace(0.0, 1.0, 3))
    low = np.linalg.eigvalsh(rho)[0]
    assert EIG_FLOOR < low < -4e-9
    assert np.abs(traj.min_eigenvalue - low).max() <= 1e-15


def _assert_matches_the_full_width_loop(init, space, params, name):
    """The states on np.linspace(0, 4, 41) against a full-width loop of
    single RK4 steps, 100 a sample: within 1e-12, and every entry the
    initial state cannot reach exactly 0."""
    m = liouvillian_matrix(space, params)
    times = np.linspace(0.0, 4.0, 41)
    n_sub = 100
    step = _step(m, (times[1] - times[0]) / n_sub)
    outside = np.setdiff1d(np.arange(len(m)),
                           reachable_entries(m, init.rho_tilde))
    sampled = evolve(init, space, params, times, store_full=True).full_states
    v = init.rho_tilde.reshape(-1)
    worst = 0.0
    for state in sampled[1:]:
        for _ in range(n_sub):
            v = step @ v
        got = state.rho_tilde.reshape(-1)
        worst = max(worst, float(np.abs(got - v).max()))
        assert not got[outside].any(), name
    assert worst <= 1e-12, name


@pytest.mark.parametrize("n_fock", [3, 4])
def test_sliced_evolution_matches_the_full_width_loop(n_fock):
    # only the reachable entries are propagated; a full-width loop of
    # single RK4 steps is the reference, and every other entry of the
    # returned states is exactly 0
    space = build_space(n_fock)
    params = SystemParams.symmetric(0.2, n_fock=n_fock)
    for name, init in _test_states(space).items():
        _assert_matches_the_full_width_loop(init, space, params, name)


def test_positivity_per_block_matches_full_eigvalsh(space3):
    params = SystemParams.symmetric(0.2)
    times = np.linspace(0.0, 20.0, 201)
    for name, init in _test_states(space3).items():
        traj = evolve(init, space3, params, times, store_full=True)
        rho = np.array([s.rho_tilde for s in traj.full_states])
        full = np.linalg.eigvalsh(
            0.5 * (rho + rho.conj().transpose(0, 2, 1)))[:, 0]
        assert np.abs(traj.min_eigenvalue - full).max() <= 1e-14, name


def _exactly_positive_definite(block, shift=0.0):
    """Whether the float matrix block + shift I is positive definite,
    decided by symmetric elimination in exact rational arithmetic, the
    float shift added exactly: every pivot > 0.
    """
    a = [[Fraction(x) for x in row] for row in block.tolist()]
    for i in range(len(a)):
        a[i][i] += Fraction(float(shift))
    for j in range(len(a)):
        if a[j][j] <= 0:
            return False
        for i in range(j + 1, len(a)):
            ratio = a[i][j] / a[j][j]
            for c in range(j + 1, len(a)):
                a[i][c] -= ratio * a[j][c]
    return True


def _certificate_blocks(rng, k):
    """Real symmetric k x k blocks that probe the certificate: random PSD
    blocks of every rank at scales 1e-300 .. 1e300, blocks with one
    slightly negative eigenvalue, zero and traceless blocks, blocks of
    subnormal entries, and normal diagonals with subnormal couplings."""
    out = []
    for rank in range(k + 1):
        for exponent in range(-300, 301, 25):
            g = rng.standard_normal((30, k, rank))
            out.append(g @ g.transpose(0, 2, 1) * 10.0 ** exponent)
    q = np.linalg.qr(rng.standard_normal((300, k, k)))[0]
    w = rng.uniform(0.1, 1.0, (300, k))
    w[:, 0] = -(10.0 ** rng.uniform(-17, -8, 300))
    out.append((q * w[:, None, :]) @ q.transpose(0, 2, 1))
    traceless = np.zeros((2, k, k))
    traceless[1, np.arange(k), np.arange(k)] = np.arange(k) - (k - 1) / 2
    out.append(traceless)
    tiny = np.finfo(float).smallest_subnormal
    g = rng.integers(-4, 5, (300, k, k))
    out.append((g @ g.transpose(0, 2, 1)) * tiny)
    coupled = rng.integers(-4, 5, (300, k, k)) * tiny
    coupled[:, np.arange(k), np.arange(k)] = rng.uniform(0.1, 1.0, (300, k))
    out.append(coupled)
    blocks = np.concatenate(out)
    # the symmetric part, as _check_samples passes it
    return 0.5 * blocks + 0.5 * blocks.transpose(0, 2, 1)


def _shifted_rank_deficient(rng, k, n, shift):
    """n random positive semidefinite k x k blocks of unit trace and rank
    1 .. k - 1, each shifted by shift CERT_MARGIN I: a smallest eigenvalue
    of shift times the certificate's margin, up to rounding."""
    rank = rng.integers(1, k, n)
    g = rng.standard_normal((n, k, k)) * (np.arange(k) < rank[:, None])[
        :, None, :]
    blocks = g @ g.transpose(0, 2, 1)
    blocks /= np.trace(blocks, axis1=1, axis2=2)[:, None, None]
    blocks = 0.5 * blocks + 0.5 * blocks.transpose(0, 2, 1)
    return blocks + shift * CERT_MARGIN * np.eye(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_a_certified_block_is_positive_semidefinite_within_its_margin(k):
    # whenever the closed-form certificate passes a block, sym + 2 margin I
    # is positive definite in exact arithmetic, with margin =
    # max(CERT_MARGIN tr(sym), the smallest normal double), and eigvalsh
    # computes a smallest eigenvalue above -1.01 margin, so that under the
    # clamp at 0 leaving the block out moves the minimum by less than that
    rng = np.random.default_rng(20 + k)
    sym = _certificate_blocks(rng, k)
    if k > 1:
        # rank-deficient blocks within the margin and past it
        sym = np.concatenate([sym] + [_shifted_rank_deficient(
            rng, k, 300, shift) for shift in (-0.5, -4.0)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        certified = _certified(sym)
    trace = np.trace(sym, axis1=1, axis2=2)
    margin = np.maximum(CERT_MARGIN * trace, np.finfo(float).tiny)
    low = np.linalg.eigvalsh(sym)[:, 0]
    exact = np.array([_exactly_positive_definite(b, 2.0 * m)
                      for b, m in zip(sym, margin)])
    # hundreds of the blocks lie past twice the margin in exact
    # arithmetic, for the certificate to refuse
    assert (~exact).sum() >= 300
    assert exact[certified].all()
    assert (low[certified] > -1.01 * margin[certified]).all()
    # and it decides what it should: a block whose smallest eigenvalue is
    # above -0.4 margin, at a normal scale, passes; so does every
    # rank-deficient block shifted by -0.5 margin, and none shifted by -4
    clear = (low > -0.4 * margin) & (trace > 1e-290) & (trace < 1e290)
    assert clear.sum() >= 500 and certified[clear].all()
    if k > 1:
        assert certified[-600:-300].all() and not certified[-300:].any()
    # a pivot of sym + margin I must be > 0, not >= 0: the block of minus
    # the smallest normal double has it as its margin, so its pivot is
    # exactly 0; the empty block's pivots are the margin itself
    tiny = np.finfo(float).tiny
    assert not _certified(np.full((1, 1, 1), -tiny)).any()
    assert _certified(np.zeros((1, k, k))).all()


def _quotient(a: float, b: float) -> float:
    """a / b in IEEE 754 double arithmetic, also at b = +-0, where Python
    raises instead."""
    if b != 0.0:  # NaN != 0.0 as well
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _scalar_certified(block) -> bool:
    """The certificate over Python floats, one block at a time: the margin
    max(CERT_MARGIN tr, smallest normal double) with the trace added in
    row order and NaN kept, then the right-looking LDL^T elimination on
    the lower triangle, entry by entry; certified when every pivot is
    > 0 (a NaN pivot is not)."""
    a = block.tolist()
    k = len(a)
    trace = a[0][0]
    for i in range(1, k):
        trace = trace + a[i][i]
    margin = CERT_MARGIN * trace
    tiny = float(np.finfo(float).tiny)
    if not (math.isnan(margin) or margin > tiny):
        margin = tiny
    for i in range(k):
        a[i][i] = a[i][i] + margin
    for j in range(k):
        for i in range(j + 1, k):
            ratio = _quotient(a[i][j], a[j][j])
            for c in range(j + 1, i + 1):
                a[i][c] = a[i][c] - ratio * a[c][j]
    return all(a[i][i] > 0 for i in range(k))


def _oracle_blocks(rng, k, n):
    """n real k x k blocks of each of nine kinds: positive definite,
    rank one, positive semidefinite of unit trace shifted by -3 .. 1
    times the trace margin (with k = 1, a scalar within a few smallest
    normal doubles of 0), all zero, with a NaN, with an inf and with a
    -inf pair of entries, and of subnormal couplings on a normal diagonal
    or on one within two smallest normal doubles of 0, and singular once
    the margin is added (with k = 1, within 3 subnormal steps of it);
    symmetric, as _check_samples passes them."""
    tiny = np.finfo(float).tiny
    scale = 10.0 ** rng.uniform(-300, 300, (n, 1, 1))
    g = rng.standard_normal((n, k, k))
    spd = g @ g.transpose(0, 2, 1) * scale
    v = rng.standard_normal((n, k, 1))
    rank_one = v @ v.transpose(0, 2, 1) * scale
    if k == 1:
        straddling = rng.uniform(-3.0, 2.0, (n, 1, 1)) * tiny
        singular = -tiny + rng.integers(-3, 4, (n, 1, 1)) * np.finfo(
            float).smallest_subnormal
    else:
        rank = rng.integers(1, k, n)
        g = g * (np.arange(k) < rank[:, None])[:, None, :]
        psd = g @ g.transpose(0, 2, 1)
        psd /= np.trace(psd, axis1=1, axis2=2)[:, None, None]
        shift = rng.uniform(-3.0, 1.0, (n, 1, 1)) * CERT_MARGIN
        straddling = psd + shift * np.eye(k)
        # P - s I with s = CERT_MARGIN tr(P - s I): adding the margin
        # leaves P, singular, so rounding alone signs its last pivots
        singular = psd - CERT_MARGIN / (1 + k * CERT_MARGIN) * np.eye(k)
    poisoned = []
    for bad in (math.nan, math.inf, -math.inf):
        blocks = rng.standard_normal((n, k, k))
        blocks = blocks @ blocks.transpose(0, 2, 1)
        i, j = rng.integers(0, k, (2, n))
        blocks[np.arange(n), i, j] = blocks[np.arange(n), j, i] = bad
        poisoned.append(blocks)
    subnormal = rng.integers(-4, 5, (n, k, k)) * np.finfo(
        float).smallest_subnormal
    subnormal = subnormal + subnormal.transpose(0, 2, 1)
    diagonal = np.where(rng.random((n, 1)) < 0.5,
                        rng.uniform(0.1, 1.0, (n, k)),
                        rng.integers(-8, 9, (n, k)) * tiny / 4)
    subnormal[:, np.arange(k), np.arange(k)] = diagonal
    blocks = np.concatenate([spd, rank_one, straddling, np.zeros((n, k, k)),
                             *poisoned, subnormal, singular])
    return 0.5 * blocks + 0.5 * blocks.transpose(0, 2, 1)


@pytest.mark.parametrize("k", range(1, 9))
def test_the_certificate_decides_as_the_scalar_elimination(k):
    # 14 400 blocks for each k = 1 .. 8, 115 200 in all: the array form
    # certifies exactly the blocks that the same elimination certifies
    # entry by entry over Python floats, under _check_samples' errstate,
    # also with the blocks of k <= 5 states zero-padded to 5.
    # The singular blocks are decided by rounding, so they hold the
    # elimination to its order of operations
    rng = np.random.default_rng(900 + k)
    n = 1600
    sym = _oracle_blocks(rng, k, n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        certified = _certified(sym)
    expected = np.array([_scalar_certified(b) for b in sym])
    assert len(sym) == 9 * n
    assert np.array_equal(certified, expected)
    if k <= 5:
        # zero-padded to 5 states, as _check_samples stacks its blocks,
        # each block decides as it does alone
        padded = np.zeros((len(sym), 5, 5))
        padded[:, :k, :k] = sym
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert np.array_equal(_certified(padded), expected)
    # positive definite, rank-one and zero blocks pass, a NaN or a -inf
    # pair fails, and the straddling, subnormal and singular blocks go
    # both ways
    kinds = expected.reshape(9, n)
    assert kinds[:4:3].all() and kinds[1].all()
    assert not kinds[4].any() and not kinds[6].any()
    for kind in (kinds[2], kinds[7], kinds[8]):
        assert 0.02 * n < kind.sum() < 0.98 * n


def test_diagnostics_are_the_extrema_of_their_series(space3):
    # two runs of CHECK_CHUNK points and three more: each extremum is the
    # max or min of its series over the whole trajectory, bit for bit, and
    # the excitation gain is the largest step of <N>, the steps across
    # the run boundaries included. Without losses <N> steps up by
    # rounding, and the raw state at n_fock 4 holds population above two
    # excitations, so the gain and the leakage are not 0 throughout
    times = np.linspace(0.0, 15.0, 2 * C + 3)
    space4 = build_space(4)
    real = _gauge_real_states(space3)
    cases = [(name, init, space3)
             for name, init in {**real, **_complex_states(space3)}.items()]
    cases.append(("raw n_fock 4", _raw_state(space4, 3), space4))
    gains, leaks = [], []
    for name, init, space in cases:
        for rates in ({}, {"gamma_cavity": 0.0}):
            gamma_s = 0.0 if rates else 0.2
            traj = evolve(init, space, SystemParams.symmetric(
                gamma_s, n_fock=space.n_fock, **rates), times)
            d = traj.diagnostics
            expect_n = traj.expect_n.tolist()
            steps = [b - a for a, b in zip(expect_n, expect_n[1:])]
            assert len(steps) == len(times) - 1 > 2 * C
            for value, expected in (
                    (d.max_trace_error, max([0.0, *traj.trace_error])),
                    (d.max_hermiticity_error,
                     max([0.0, *traj.hermiticity_error])),
                    (d.min_eigenvalue, min([1.0, *traj.min_eigenvalue])),
                    (d.max_excitation_gain, max([0.0, *steps])),
                    (d.max_sector_leakage,
                     max([0.0, *np.abs(traj.sector_leakage)]))):
                assert repr(value) == repr(float(expected)), (name, rates)
            one_block = name in real
            assert d.real_block_samples == (len(times) if one_block else 0)
            assert traj.reduced.dtype == (float if one_block else complex)
            gains.append(d.max_excitation_gain)
            leaks.append(d.max_sector_leakage)
    assert all(gain > 0.0 for gain in gains[1::2])
    assert leaks[-1] > 0.0 and leaks[-2] > 0.0


def test_the_certificate_moves_only_minima_within_its_margin(space3,
                                                            monkeypatch):
    # every series, the diagnostics' extrema and the first violation past
    # an unstable step are the same bits with the certificate as with
    # every block sent to eigvalsh, but for the smallest eigenvalue, which
    # reads 0 where a certified block's computed value lay in
    # (-1.01e-12, 0). psi, phi and werner are real in the gauge and leave
    # basis states out of every block, so the certificate runs once per
    # run of points, on all their blocks stacked, and at gamma_s 0.2 it
    # takes every block of every sample
    certified = []
    certify = dynamics._certified

    def counting(sym):
        ok = certify(sym)
        certified.append((int(ok.sum()), len(ok)))
        return ok

    monkeypatch.setattr(dynamics, "_certified", counting)
    times = np.linspace(0.0, 15.0, C + 151)
    cases = [(init, SystemParams.symmetric(0.2), times, DEFAULT_STEP)
             for init in _gauge_real_states(space3).values()]
    psi = make_initial(InitialStateSpec("psi", 0.3), space3)
    cases += [(psi, SystemParams.symmetric(2000.0),
               np.linspace(0.0, 3.0, 3001), DEFAULT_STEP),
              (psi, SystemParams.symmetric(6.0, gamma_cavity=4.0),
               np.linspace(0.0, 2.0 * C, 2 * C + 1), 1.0)]
    extrema = ("max_trace_error", "max_hermiticity_error",
               "max_excitation_gain", "max_sector_leakage",
               "real_block_samples", "step_count")

    def outcomes():
        seen = []
        for init, params, grid, step in cases:
            try:
                traj = evolve(init, space3, params, grid, step_size=step)
            except IntegrationError as err:
                # repr tells -0.0 from 0.0, and is exact
                seen.append((err.invariant, repr(err.time), repr(err.value),
                             err.limit))
                continue
            seen.append(([getattr(traj, f).tobytes() for f in (
                "reduced", "expect_n", "trace_error", "hermiticity_error",
                "sector_leakage")] + [
                repr(getattr(traj.diagnostics, f)) for f in extrema],
                traj.min_eigenvalue, traj.diagnostics.min_eigenvalue))
        return seen

    checked = outcomes()
    assert [c[0] for c in checked[-2:]] == ["positivity"] * 2
    # two blocks a sample, psi's and werner's of 5 and 3 states, phi's
    # of 1 and 3, in one stack a run; the runs that fail are refused some
    # of their blocks
    healthy = certified[:3 * 2]
    assert [total for _, total in healthy] == [2 * C, 2 * 151] * 3
    assert all(ok == total for ok, total in healthy)
    monkeypatch.setattr(dynamics, "_certified",
                        lambda sym: np.zeros(len(sym), dtype=bool))
    every = outcomes()
    assert every[-2:] == checked[-2:]
    for (bits, got, least), (bits_every, mins, least_every) in zip(
            checked[:3], every[:3]):
        assert bits == bits_every
        assert (mins < 0.0).sum() > 100
        _assert_within_the_margin(got, mins)
        assert least == got.min() and least_every == mins.min()


def test_lapack_takes_what_the_certificate_cannot_decide(space3,
                                                         monkeypatch):
    # psi real in the gauge: at gamma_s 0.2 the certificate takes every
    # block of every sample, one stack a run, and eigvalsh runs on none;
    # at gamma_s 20 RK4 error leaves four samples of its 3-state block
    # below -margin, and eigvalsh runs on exactly those, cut from the
    # stack's zero padding to their own size, whose minima the series
    # reports; every block of a complex run goes whole
    stacks = _record_eigvalsh(monkeypatch)
    refused = []
    certify = dynamics._certified

    def recording(sym):
        ok = certify(sym)
        refused.append(sym[~ok])
        return ok

    monkeypatch.setattr(dynamics, "_certified", recording)
    times = np.linspace(0.0, 15.0, C + 151)
    psi = make_initial(InitialStateSpec("psi", 0.3), space3)
    evolve(psi, space3, SystemParams.symmetric(0.2), times)
    assert stacks == [] and len(refused) == 2
    refused.clear()
    traj = evolve(psi, space3, SystemParams.symmetric(20.0), times)
    assert [a.shape for a in stacks] == [(4, 3, 3)]
    refused = np.concatenate(refused)
    assert refused.shape == (4, 5, 5)
    assert not refused[:, 3:].any() and not refused[:, :, 3:].any()
    assert np.array_equal(stacks[0], refused[:, :3, :3])
    lows = np.linalg.eigvalsh(stacks[0])[:, 0]
    assert (lows < -1e-12).all()
    assert np.array_equal(np.sort(traj.min_eigenvalue[
        traj.min_eigenvalue != 0]), np.sort(lows))
    params = SystemParams.symmetric(0.2)
    m = liouvillian_matrix(space3, params)
    for name, init in _complex_states(space3).items():
        stacks.clear()
        evolve(init, space3, params, times)
        sizes = [len(b) for b in diagonal_blocks(
            reachable_entries(m, init.rho_tilde), space3.dim_total)]
        assert [a.shape for a in stacks] == [(run, k, k) for run in (C, 151)
                          for k in sizes], name


def test_blocks_that_cover_every_basis_state_all_go_to_lapack(
        space3, monkeypatch):
    # a raw real state whose four 3-state blocks cover all 12 basis
    # states: no exact 0 clamps the minimum, so the smallest block
    # eigenvalue is reported itself and every sample of every block goes
    # to eigvalsh, although each block is positive definite
    dim, n = space3.dim_total, 40
    triples = np.arange(dim).reshape(4, 3)
    entries = np.sort(np.concatenate(
        [(t[:, None] * dim + t).ravel() for t in triples]))
    build = _layout_build(entries, space3.n_fock)
    assert build.block_sizes == (3,) * 4
    rng = np.random.default_rng(7)
    pops = rng.uniform(0.5, 1.0, dim)
    pops /= pops.sum()
    rho = np.zeros((n, dim, dim))
    for t in triples:
        coupling = rng.uniform(-0.3, 0.3, (n, 3, 3))
        coupling = 0.5 * (coupling + coupling.transpose(0, 2, 1))
        coupling[:, np.arange(3), np.arange(3)] = 1.0
        scale = np.sqrt(pops[t])
        rho[:, t[:, None], t] = coupling * scale[:, None] * scale
    sub = np.zeros((1, n, len(entries) + 1))
    sub[0, :, :-1] = rho.reshape(n, -1)[:, entries]
    stacks = _record_eigvalsh(monkeypatch)
    weights = number_operator(space3).diagonal().real
    min_eig = _check_samples(
        sub, np.linspace(0.0, 1.0, n), weights, build, math.inf)[3]
    assert [a.shape for a in stacks] == [(n, 3, 3)] * 4
    # each block as _check_samples reads it: its symmetric part
    expected = np.min([np.linalg.eigvalsh(
        0.5 * b + 0.5 * b.transpose(0, 2, 1))[:, 0]
        for b in (rho[:, t[:, None], t] for t in triples)], axis=0)
    assert (min_eig > 0).all()
    assert np.array_equal(min_eig, expected)


def _zero_pivot_run(space):
    """Two samples on a slice of a 1-state block and the 2-state block
    [[-t, t], [t, 2 t]], t the smallest normal double, whose trace t is
    its margin, so that its first shifted pivot is exactly 0: the
    arguments of _check_samples."""
    dim, tiny = space.dim_total, np.finfo(float).tiny
    entries = np.array([0, dim + 1, dim + 2, 2 * dim + 1, 2 * dim + 2])
    sub = np.zeros((1, 2, len(entries) + 1))
    sub[0, :, :-1] = [1.0, -tiny, tiny, tiny, 2 * tiny]
    return (sub, np.array([0.0, 1.0]), number_operator(space).diagonal().real,
            _layout_build(entries, space.n_fock), math.inf)


def test_a_zero_pivot_is_refused_without_a_warning(space3, monkeypatch):
    # the certificate divides by the exact 0 pivot of the 2-state block;
    # _check_samples must refuse the block without a floating-point
    # warning (the suite turns RuntimeWarning into an error) and send it
    # to eigvalsh, cut from the stack to its own size, while the 1-state
    # block beside it is certified
    tiny = np.finfo(float).tiny
    stacks = _record_eigvalsh(monkeypatch)
    min_eig = _check_samples(*_zero_pivot_run(space3))[3]
    block = np.array([[-tiny, tiny], [tiny, 2 * tiny]])
    assert [a.shape for a in stacks] == [(2, 2, 2)]
    assert np.array_equal(stacks[0], [block, block])
    low = np.linalg.eigvalsh(stacks[0])[:, 0]
    assert (low < 0.0).all() and np.array_equal(min_eig, low)


def _margin_run(space, n):
    """psi's slice, its 5-state block planted with n rank-deficient blocks
    of trace 0.9 shifted by -0.5 and n by -4 times the certificate's
    margin, beside a positive definite 3-state block of trace 0.1, the
    2 n samples ordered so that none gains excitations on the one before
    it: the arguments of _check_samples, the planted blocks and the
    planted block of each sample."""
    rng = np.random.default_rng(26)
    params = SystemParams.symmetric(0.2)
    psi = make_initial(InitialStateSpec("psi", 0.3), space)
    build = _layout_build(reachable_entries(
        liouvillian_matrix(space, params), psi.rho_tilde), space.n_fock)
    assert build.block_sizes == (5, 3)
    five, three = build.block_map
    three = three[:3, :3]
    assert (five >= 0).all() and (three >= 0).all()
    planted = 0.9 * np.concatenate([_shifted_rank_deficient(
        rng, 5, n, shift) for shift in (-0.5, -4.0)])
    q = np.linalg.qr(rng.standard_normal((2 * n, 3, 3)))[0]
    w = rng.uniform(0.1, 1.0, (2 * n, 3))
    w *= 0.1 / w.sum(axis=1, keepdims=True)
    sub = np.zeros((1, 2 * n, len(build.entries) + 1))
    sub[0][:, five] = planted
    sub[0][:, three] = (q * w[:, None, :]) @ q.transpose(0, 2, 1)
    weights = number_operator(space).diagonal().real
    order = np.argsort(-(sub[0].take(build.diagonal, axis=1) @ weights))
    return ((sub[:, order], np.linspace(0.0, 1.0, 2 * n), weights, build,
             math.inf), planted, order)


def test_planted_blocks_past_the_margin_keep_lapacks_minimum(space3,
                                                            monkeypatch):
    # the certificate takes the blocks within the margin, which read 0,
    # and refuses those past it, which go to eigvalsh as one stack and
    # keep its minima bit for bit
    n = 200
    run, planted, order = _margin_run(space3, n)
    stacks = _record_eigvalsh(monkeypatch)
    min_eig = _check_samples(*run)[3]
    past = order >= n
    assert [a.shape for a in stacks] == [(n, 5, 5)]
    assert np.array_equal(stacks[0], planted[order[past]])
    low = np.linalg.eigvalsh(planted[order[past]])[:, 0]
    assert (low < -3.9 * CERT_MARGIN * 0.9).all()
    assert (np.linalg.eigvalsh(planted[:n])[:, 0] < 0.0).all()
    assert np.array_equal(min_eig[past], low)
    assert not min_eig[~past].view(np.int64).any()


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _per_block_checks(sub, times, weights, build, prev_expect_n):
    """_check_samples as it was before its checks reduced across the
    samples, the reference they must match bit for bit: each sample's
    hermiticity error is the max along its row of every entry against its
    transpose, and each diagonal block is gathered, symmetrised and
    certified on its own, one block at a time."""
    entries, dim = build.entries, len(build.diagonal)
    where = np.full(dim * dim, -1)
    where[entries] = np.arange(len(entries))
    rows, cols = np.divmod(entries, dim)
    mirror = where[cols * dim + rows]
    blocks = [where[blk[:, None] * dim + blk]
              for blk in diagonal_blocks(entries, dim)]
    n_ok = sub.shape[1]
    if not np.isfinite(sub.sum()):
        finite = np.isfinite(sub).all(axis=(0, 2))
        n_ok = n_ok if finite.all() else int(finite.argmin())
    ok = sub[:, :n_ok]
    body, mirrored = ok[..., :-1], ok.take(mirror, axis=2)
    on_diagonal = ok.take(build.diagonal, axis=2)
    if len(ok) == 1:
        herm = np.abs(body[0] - mirrored[0])
    else:
        herm = np.abs(dynamics._complex((body[0] - mirrored[0],
                                         body[1] + mirrored[1])))
    herm = herm.max(axis=1)
    tr_err = np.abs(dynamics._complex(on_diagonal).sum(axis=1) - 1.0)
    min_eig = np.full(n_ok, math.inf)
    clamped = sum(map(len, blocks)) < dim
    for index in blocks:
        blk = ok.take(index, axis=2)
        blk = blk[0] if len(ok) == 1 else dynamics._complex(blk)
        sym = 0.5 * blk + 0.5 * blk.conj().transpose(0, 2, 1)
        todo = slice(None)
        if clamped and len(ok) == 1:
            todo = np.flatnonzero(~_certified(sym))
            sym = sym[todo]
        if len(sym):
            min_eig[todo] = np.minimum(min_eig[todo],
                                       np.linalg.eigvalsh(sym)[:, 0])
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


def _check_outcome(check, args):
    """The five series check returns on args, by dtype, shape and bytes,
    or the invariant, time, value and limit of the IntegrationError it
    raises (repr tells -0.0 from 0.0, and is exact)."""
    try:
        series = check(*args)
    except IntegrationError as err:
        return err.invariant, repr(err.time), repr(err.value), repr(err.limit)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in series]


def test_checks_across_samples_match_the_per_block_reference(space3,
                                                             monkeypatch):
    # every run of points that evolve checks, on psi, phi at theta = 0.4
    # (two row-blocks), werner at n_fock 4 and a complex raw state that is
    # no X-state (every block to eigvalsh); on psi at gamma_s 20, where
    # the certificate refuses some 3-state blocks, and at 1000 and 2000,
    # whose cells fail; on a generator whose slice lacks a transpose (see
    # _one_way); and planted runs, with NaN and inf entries, a zero pivot
    # and blocks at -0.5 and -4 times the certificate's margin; the
    # one-way run and each planted one also as two row-blocks: the five
    # series, or the IntegrationError with its time, value and limit, are
    # the reference's bit for bit
    runs = []
    check = dynamics._check_samples

    def recording(sub, times, *args):
        # evolve fills its next run into the same buffer
        runs.append((sub.copy(), times.copy(), *args))
        return check(sub, times, *args)

    monkeypatch.setattr(dynamics, "_check_samples", recording)
    space4 = build_space(4)
    psi = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 15.0, C + 151)
    cases = [
        (psi, space3, 0.2, times),
        (make_initial(InitialStateSpec("phi", 0.3, theta=0.4), space3),
         space3, 0.2, times),
        (make_initial(InitialStateSpec("werner_psi", 0.3, r=0.6), space4),
         space4, 0.2, times),
        (_raw_state(space3, 2), space3, 0.2, times),
        (psi, space3, 20.0, times),
        (psi, space3, 1000.0, np.linspace(0.0, 1.0, 1001)),
        (psi, space3, 2000.0, np.linspace(0.0, 3.0, 3001)),
        (psi, space3, 2000.0, np.linspace(0.0, 4.0, 2))]
    failed = []
    for init, space, gamma_s, grid in cases:
        params = SystemParams.symmetric(gamma_s, n_fock=space.n_fock)
        try:
            evolve(init, space, params, grid)
        except IntegrationError as err:
            failed.append(err.invariant)
    assert failed == ["positivity", "positivity", "finite"]
    assert [len(run[0]) for run in runs[:8]] == [1, 1, 2, 2, 1, 1, 2, 2]
    # a generator that does not preserve hermiticity: the slice lacks the
    # transpose of the entry it feeds (see _one_way)
    with monkeypatch.context() as patch:
        init, m, _ = _one_way(space3, False, 1e-11)
        _generator(patch, m)
        evolve(init, space3, SystemParams.symmetric(0.2), times[:C])
    sub, grid, *rest = runs[0]
    for sample, entry, value in ((0, 3, math.nan), (77, 0, math.nan),
                                 (C - 1, 20, math.inf),
                                 (300, 5, -math.inf)):
        planted = sub.copy()
        planted[0, sample, entry] = value
        runs.append((planted, grid, *rest))
    runs += [_zero_pivot_run(space3), _margin_run(space3, 100)[0]]
    for sub, *rest in runs[-7:]:
        runs.append((np.concatenate((sub, np.zeros_like(sub))), *rest))
    outcomes = [_check_outcome(_per_block_checks, run) for run in runs]
    assert {o[0] for o in outcomes if isinstance(o, tuple)} == {
        "positivity", "finite"}
    for run, expected in zip(runs, outcomes):
        assert _check_outcome(check, run) == expected


def test_block_products_match_a_per_point_loop(space3):
    # each run of CHECK_CHUNK points is filled by doubling from the
    # squarings of P, and each run starts one step past the last point of
    # the run before it; one matvec per point on the same entries, across
    # the 19 run boundaries here, is the reference
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 10.0, 10001)
    m = liouvillian_matrix(space3, params)
    entries = reachable_entries(m, init.rho_tilde)
    prop = np.eye(len(entries)) + interval_increment(
        m[np.ix_(entries, entries)], times[1] - times[0], 1)
    traj = evolve(init, space3, params, times, store_full=True)
    v = init.rho_tilde.reshape(-1)[entries]
    worst = 0.0
    for state in traj.full_states[1:]:
        v = prop @ v
        worst = max(worst, float(np.abs(
            state.rho_tilde.reshape(-1)[entries] - v).max()))
    assert worst <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("gamma_s", [0.02, 2.0])
def test_propagator_is_the_rounded_power_of_the_step(space3, gamma_s):
    # S^n is powered as S^k - I from the step's increment X, and the
    # identity is never formed, so P - I is the exact n-th power of the
    # double step matrix I + X, less I, rounded once: within one ulp of
    # the diagonal's 1s, and within a few ulps of its own largest entry,
    # also at a step so small that the increment is far below the 1s.
    # The reference powers the increment in long double as
    # (I + A)(I + X) - I = A + X + A X, one step at a time
    eps = np.finfo(float).eps
    m = liouvillian_matrix(space3, SystemParams.symmetric(gamma_s))
    for family in ("psi", "phi"):
        init = make_initial(InitialStateSpec(family, 0.3), space3)
        entries = reachable_entries(m, init.rho_tilde)
        sliced = m[np.ix_(entries, entries)]
        for h in (1e-3, 1e-9):
            step = rk4_step_matrix(sliced, h).astype(np.clongdouble)
            exact, acc = {}, step
            for n in range(2, 101):
                acc = acc + step + acc @ step
                if n in (37, 100):
                    exact[n] = acc
            for n_sub in (37, 100):
                err = np.abs(interval_increment(sliced, h, n_sub)
                             - exact[n_sub]).max()
                assert err <= eps, (family, h, n_sub)
                assert err <= 3 * eps * np.abs(exact[n_sub]).max(), (
                    family, h, n_sub)


@pytest.fixture()
def builds(monkeypatch):
    """Step of every RK4 step increment evolve builds, substep count of
    every interval increment it builds, params of every generator it
    builds."""
    record = SimpleNamespace(steps=[], n_sub=[], generators=[])
    step, increment = dynamics.rk4_step_matrix, dynamics.interval_increment
    generator = dynamics.gauged_generator

    def recording_generator(space, params):
        record.generators.append(params)
        return generator(space, params)

    def recording_step(m, h):
        record.steps.append(h)
        return step(m, h)

    def recording_increment(m, h, n_sub):
        record.n_sub.append(n_sub)
        return increment(m, h, n_sub)

    monkeypatch.setattr(dynamics, "rk4_step_matrix", recording_step)
    monkeypatch.setattr(dynamics, "interval_increment", recording_increment)
    monkeypatch.setattr(dynamics, "gauged_generator", recording_generator)
    return record


@pytest.fixture()
def checked_slices(monkeypatch):
    """(times, <N> carried in) of every run of points evolve checks."""
    calls = []
    check = dynamics._check_samples

    def recording(sub, times, weights, build, prev_expect_n):
        calls.append((times.copy(), prev_expect_n))
        return check(sub, times, weights, build, prev_expect_n)

    monkeypatch.setattr(dynamics, "_check_samples", recording)
    return calls


def test_dense_grid_builds_one_propagator(space3, builds, checked_slices):
    # linspace spacing jitters by ~1e-15 between intervals; one run still
    # builds exactly one RK4 step matrix, and each slice of CHECK_CHUNK
    # samples starts from the <N> the slice before it ended on
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 10.0, 10001)
    traj = evolve(init, space3, params, times)
    assert len(builds.steps) == 1
    assert traj.diagnostics.step_count == 10000
    assert [t[0] for t, _ in checked_slices] == list(times[::CHECK_CHUNK])
    assert [n for _, n in checked_slices] == [
        math.inf, *traj.expect_n[CHECK_CHUNK - 1:-1:CHECK_CHUNK]]


def test_squarings_fill_runs_of_check_chunk_points(space3, checked_slices):
    # the builds hold the read-only squarings P^(2^j) - I for every
    # doubling a run of CHECK_CHUNK points may take, whatever the width:
    # a generic state at n_fock = 4 reaches 144 of 256 entries, psi at
    # n_fock = 3 reaches 34; each run but the last is CHECK_CHUNK points
    space4 = build_space(4)
    for init, space, params, width in (
            (_raw_state(space4, 3), space4,
             SystemParams.symmetric(0.2, n_fock=4), 144),
            (make_initial(InitialStateSpec("psi", 0.3), space3), space3,
             SystemParams.symmetric(0.2), 34)):
        shared = {}
        checked_slices.clear()
        evolve(init, space, params, np.linspace(0.0, 1.0, 1001),
               shared=shared)
        squarings = shared["build"].squarings
        assert squarings.shape == (CHECK_CHUNK.bit_length(), width, width)
        with pytest.raises(ValueError, match="read-only"):
            squarings[0, 0, 0] = 0
        assert [len(t) for t, _ in checked_slices] == [
            CHECK_CHUNK, 1001 - CHECK_CHUNK]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs an extended-precision long double")
def test_squarings_keep_the_increments_precision(space3):
    # X_j = P^(2^j) - I, squared as 2X + X^2, stays within 4 eps of the
    # exact power of P = I + X_0, X_0 in double; powering P itself in
    # double rounds the increment against the diagonal's 1s, up to 5.8e-14
    # off at 1 step a sample (j = 9, 144 entries). The Build keeps no P:
    # its increment is rebuilt from the build's real generator in the
    # photon-number gauge (gauged_generator) at the Build's step, and X_0
    # is that increment, bit for bit
    psi = make_initial(InitialStateSpec("psi", 0.3), space3)
    space4 = build_space(4)
    for init, space, times in (
            (psi, space3, np.linspace(0.0, 1.0, 1001)),
            (psi, space3, np.linspace(0.0, 200.0, 201)),
            (_raw_state(space4, 3), space4, np.linspace(0.0, 1.0, 1001))):
        shared = {}
        params = SystemParams.symmetric(0.2, n_fock=space.n_fock)
        evolve(init, space, params, times, shared=shared)
        build = shared["build"]
        dt = (times[-1] - times[0]) / (len(times) - 1)
        n_sub = interval_steps(dt, DEFAULT_STEP)
        assert build.key[2:4] == (dt / n_sub, n_sub)
        generator = dynamics.gauged_generator(space, params)
        assert generator.values.dtype == np.float64
        gauged = np.zeros((space.dim_total ** 2,) * 2)
        gauged[generator.rows, generator.cols] = generator.values
        increment = interval_increment(
            gauged[np.ix_(build.entries, build.entries)], dt / n_sub, n_sub)
        eye = np.eye(len(increment))
        assert increment.dtype == np.float64
        assert _same_bits(build.squarings[0], increment)
        prop = eye + increment.astype(np.clongdouble)
        for j, x in enumerate(build.squarings):
            exact = np.linalg.matrix_power(prop, 2**j) - eye
            assert np.abs(x - exact).max() <= 4 * np.finfo(float).eps, j


def test_long_interval_takes_one_propagator(space3, builds, checked_slices):
    # an interval of any length is one propagator of ceil(dt / step_size)
    # steps, and only the samples are checked; they agree with shorter
    # sample intervals at the same step
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    one = evolve(init, space3, params, np.array([0.0, 10.0]))
    assert builds.steps == [10.0 / 10000] and builds.n_sub == [10000]
    assert one.diagnostics.step_count == 10000
    assert [list(t) for t, _ in checked_slices] == [[0.0, 10.0]]
    ten = evolve(init, space3, params, np.linspace(0.0, 10.0, 11))
    assert builds.steps[1] == builds.steps[0] and builds.n_sub[1] == 1000
    assert np.abs(one.reduced[-1] - ten.reduced[-1]).max() <= 1e-12
    # many long intervals, against ten times as many in more than one
    # slice of checks
    checked_slices.clear()
    coarse = evolve(init, space3, params, np.linspace(0.0, 1800.0, 181))
    assert [len(t) for t, _ in checked_slices] == [181]
    fine = evolve(init, space3, params, np.linspace(0.0, 1800.0, 1801))
    assert builds.steps[-1] == builds.steps[0] and len(fine) > CHECK_CHUNK
    assert np.abs(coarse.reduced - fine.reduced[::10]).max() <= 1e-12
    assert np.abs(coarse.expect_n - fine.expect_n[::10]).max() <= 1e-12


def _assert_same_trajectory(got, expected):
    # every field but the stage timers, which are wall-clock seconds
    for f in fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if f.name == "diagnostics":
            a, b = ([getattr(d, g.name) for g in fields(d)
                     if not g.name.endswith("_s")] for d in (a, b))
        elif f.name == "full_states":
            assert [s.time for s in a] == [s.time for s in b]
            a, b = ([s.rho_tilde for s in x] for x in (a, b))
        assert np.array_equal(a, b), f.name


def test_shared_builds_are_keyed_on_every_input(space3, builds):
    # one dict through calls that change one input at a time: every result
    # equals a call without it, a call that changes nothing the Build
    # depends on builds no generator and no propagator, and any other
    # change, the initial state's nonzero pattern alone among them, builds
    # one of each
    psi = make_initial(InitialStateSpec("psi", 0.3, theta=0.4), space3)
    phi = make_initial(InitialStateSpec("phi", 0.3, theta=0.4), space3)
    short = np.linspace(0.0, 2.0, 21)    # 100 steps a sample
    long = np.linspace(0.0, 20.0, 201)   # same steps, more points
    fine = np.linspace(0.0, 2.0, 41)     # 50 steps a sample
    calls = [(psi, 0.2, short, 1, 34),
             (psi, 0.2, short, 0, 34),   # a repeat of the first call
             (psi, 0.2, long, 0, 34),
             (psi, 0.2, short, 0, 34),   # fewer points again
             (phi, 0.2, short, 1, 10),
             (phi, 0.0, short, 1, 10),   # a zero rate thins out M
             (phi, 0.0, fine, 1, 10)]
    shared = {}
    for init, gamma_s, times, new, width in calls:
        params = SystemParams.symmetric(gamma_s)
        before = (len(builds.steps), len(builds.n_sub),
                  len(builds.generators))
        got = evolve(init, space3, params, times, store_full=True,
                     shared=shared)
        assert (len(builds.steps), len(builds.n_sub),
                len(builds.generators)) == tuple(b + new for b in before)
        build = shared["build"]
        assert build.key[:2] == (space3, params)
        assert len(build.entries) == width
        _assert_same_trajectory(got, evolve(init, space3, params, times,
                                            store_full=True))
    nonzero = [np.count_nonzero(dynamics.gauged_generator(space3, p).values)
               for p in map(SystemParams.symmetric, (0.0, 0.2))]
    assert nonzero[0] < nonzero[1]
    # the dict holds one frozen Build and the grid memo. The Build holds
    # the entries, the squarings, the entries' turns, one padded position
    # map for the blocks with their sizes, the diagonal and two-qubit
    # gathers, and no generator or propagator (see
    # test_squarings_keep_the_increments_precision for P); the squarings
    # are real, in the photon-number gauge
    assert shared.keys() == {"build", "grid"}
    with pytest.raises(AttributeError):
        build.entries = build.turns
    values = [getattr(build, f.name) for f in fields(build)]
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    assert len(arrays) == 6
    assert all(type(k) is int for k in build.block_sizes)
    assert build.squarings.dtype == np.float64
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_a_failing_trace_law_leaves_shared_as_it_was(space3, monkeypatch):
    # the law is checked before the generator is stored, so a generator
    # that breaks it leaves the dict untouched, fails again on a repeat of
    # its call, and a healthy call afterwards equals a fresh one
    psi = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 2.0, 21)
    shared = {}
    evolve(psi, space3, SystemParams.symmetric(0.2), times, shared=shared)
    before = dict(shared)
    monkeypatch.setattr(dynamics, "gauged_generator", lambda space, params:
                        _gauged_entries(liouvillian_matrix(space, params)
                                        - 1e-3 * np.eye(144), space.n_fock))
    broken = SystemParams.symmetric(0.3)
    for _ in range(2):
        with pytest.raises(IntegrationError) as err:
            evolve(psi, space3, broken, times, shared=shared)
        assert err.value.invariant == "trace"
        assert err.value.value == pytest.approx(1e-3, rel=1e-12)
        assert shared.keys() == before.keys()
        assert all(shared[k] is v for k, v in before.items())
    monkeypatch.undo()
    _assert_same_trajectory(
        evolve(psi, space3, broken, times, store_full=True, shared=shared),
        evolve(psi, space3, broken, times, store_full=True))


@pytest.mark.parametrize("n_fock", [1, 2, 3, 4, 5, 6])
def test_every_generator_is_real_in_the_gauge(n_fock):
    # H only trades a photon for a qubit excitation and each jump operator
    # moves at most one photon, so i^(t_k - t_l) M[k, l] is real, exactly,
    # with t the photon turns of each entry of vec(rho); on the whole grid
    # of rates and couplings, symmetric and asymmetric, at every n_fock.
    # The generator a build forms from the unit generators has the nonzero
    # pattern and the bits of liouvillian_matrix gauged, and its trace-law
    # measure stays within the TRACE_LAW_TOL units of eps max|M| that the
    # build allows (within 1 for M). The oracle is the sum of the 11
    # Kronecker products of M's terms (n_fock <= 4): gauged, it has no
    # imaginary part and every bit of the build's generator, and
    # liouvillian_matrix equals it in value
    space = build_space(n_fock)
    turns = _photon_turns(space.dim_total).reshape(-1)
    phase = np.array([1, 1j, -1, -1j])[turns]
    eps = np.finfo(float).eps
    for gamma_s, gamma_cavity, omega, ratio in itertools.product(
            (0.0, 0.02, 0.2, 2.0, 2000.0), (0.0, math.sqrt(0.05), 1.0, 100.0),
            (0.0, 0.2, 3.3, -1.7), (1.0, 0.3)):
        params = SystemParams(omega=omega, gamma_cavity=gamma_cavity,
                              gamma_a=gamma_s, gamma_b=ratio * gamma_s,
                              n_fock=n_fock)
        m = liouvillian_matrix(space, params)
        gauged = phase[:, None] * m * phase.conj()
        assert not gauged.imag.any(), params
        scale = np.abs(m).max()
        law = np.abs(m[::space.dim_total + 1].sum(axis=0)).max()
        assert law <= eps * scale, params
        units = dynamics.gauged_generator(space, params)
        assert units.values.dtype == np.float64
        at = (units.rows, units.cols)
        assert np.array_equal(units.values != 0, gauged.real[at] != 0)
        assert np.count_nonzero(units.values) == np.count_nonzero(gauged)
        assert np.array_equal(units.values, gauged.real[at]), params
        on_trace = units.rows % (space.dim_total + 1) == 0
        law = np.abs(np.bincount(units.cols[on_trace], units.values[on_trace],
                                 len(m))).max()
        assert law <= TRACE_LAW_TOL * eps * np.abs(units.values).max(), params
        if n_fock <= 4:
            oracle = eleven_kron_liouvillian(space, params)
            assert np.array_equal(m, oracle), params
            oracle = phase[:, None] * oracle * phase.conj()
            assert not oracle.imag.any(), params
            assert np.array_equal(units.values, oracle.real[at]), params


@pytest.mark.parametrize("n_fock", range(1, 7))
def test_unit_generators_are_real_in_the_gauge(n_fock):
    # the four units of an n_fock are built once, read-only and real in the
    # photon-number gauge, on the union of their nonzero patterns in
    # row-major order; the Hamiltonian's unit shares no entry with a
    # dissipator's, and the dissipators' units overlap only where all
    # have one sign, so the build's sum of four scaled units rounds each
    # entry at most twice per overlap (9 to 534 such entries at n_fock
    # 1-6)
    units = dynamics.unit_generators(n_fock)
    assert dynamics.unit_generators(n_fock) is units
    dim = (4 * n_fock) ** 2
    assert units.values.dtype == np.float64
    assert units.values.shape == (4, len(units.rows))
    assert (np.diff(units.rows * dim + units.cols) > 0).all()
    assert units.values.any(axis=0).all()
    for a in units:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
    hamiltonian, dissipators = units.values[0], units.values[1:]
    assert not (hamiltonian != 0)[(dissipators != 0).any(axis=0)].any()
    signs = np.sign(dissipators)
    assert ((signs.min(axis=0) >= 0) | (signs.max(axis=0) <= 0)).all()


@pytest.mark.parametrize("n_fock", range(1, 7))
def test_liouvillian_keeps_every_bit_of_the_kron_build(n_fock):
    # liouvillian_matrix, the sum of the unit generators taken out of the
    # photon-number gauge, equals the sum of the 11 Kronecker products of
    # its terms in value, also with zero rates, and keeps every bit of each
    # nonzero real and imaginary part: only the signs of zeros may differ
    rng = np.random.default_rng(n_fock)
    space = build_space(n_fock)
    draws = [np.zeros(4), np.full(4, 0.5)] + [
        rng.uniform(0.0, 3.0, 4) * (rng.random(4) < 0.7)
        * 10.0 ** rng.integers(-2, 4) for _ in range(30)]
    for i, (omega, gamma_cavity, gamma_a, gamma_b) in enumerate(draws):
        params = SystemParams(omega=omega * (-1) ** i,
                              gamma_cavity=gamma_cavity, gamma_a=gamma_a,
                              gamma_b=gamma_b, n_fock=n_fock)
        m = liouvillian_matrix(space, params)
        reference = eleven_kron_liouvillian(space, params)
        assert m.dtype == reference.dtype and m.shape == reference.shape
        assert np.array_equal(m, reference), params
        parts, expected = m.view(float), reference.view(float)
        nonzero = parts != 0
        assert np.array_equal(parts[nonzero].view(np.int64),
                              expected[nonzero].view(np.int64)), params


def test_interval_propagator_matches_a_generic_step_loop():
    # a generic generator, unlike a physical one, tells every power of the
    # step apart: P v must be v after exactly n_sub steps of the loop
    rng = np.random.default_rng(5)
    m = (rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))) / 12
    v = rng.normal(size=144) + 1j * rng.normal(size=144)
    h, n_sub = 1e-2, 37
    prop = np.eye(len(m)) + interval_increment(m, h, n_sub)
    step = _step(m, h)
    w = v
    for _ in range(n_sub):
        w = step @ w
    assert np.abs(prop @ v - w).max() <= 1e-12 * np.abs(w).max()


def _first_violation(states, times, space):
    """Per-sample reference order: (invariant, time) of the first failure."""
    weights = np.array([sum(space.unflatten(f))
                        for f in range(space.dim_total)])
    prev = math.inf
    for rho, t in zip(states, times):
        if not np.all(np.isfinite(rho.view(float))):
            return "finite", t
        if np.abs(rho - rho.conj().T).max() > HERM_TOL:
            return "hermiticity", t
        if abs(np.trace(rho) - 1.0) > TRACE_TOL:
            return "trace", t
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < EIG_FLOOR:
            return "positivity", t
        expn = weights @ np.real(np.diag(rho))
        if expn - prev > EXCITATION_GAIN_TOL:
            return "excitation_monotone", t
        prev = expn
    return None


def _non_hermitian(rho):
    rho = rho.copy()
    rho[0, 1] += 1e-6
    return rho


def _negative(rho):
    # move weight 1e-6 from the smallest eigenvalue (zero for these
    # rank-deficient states) to the largest: trace and hermiticity stay
    w, u = np.linalg.eigh(rho)
    w[0] -= 1e-6
    w[-1] += 1e-6
    return (u * w) @ u.conj().T


def _negative_gauge_real(rho):
    """_negative taken on the real matrix of rho in the photon-number
    gauge, so the planted state is real in that gauge too."""
    gauged, dropped = _photon_gauge(rho)
    assert not dropped.any()
    w, u = np.linalg.eigh(gauged)
    w[0] -= 1e-6
    w[-1] += 1e-6
    # back by i^(n_r - n_c): exact, as multiplying by +-1 or +-i is
    return ((u * w) @ u.T) * np.array([1, -1j, -1, 1j])[
        _photon_turns(len(rho))]


def _short_trace(rho):
    return rho * (1.0 - 1e-8)


def _nan(rho):
    rho = rho.copy()
    rho[3, 3] = math.nan
    return rho


def _huge(rho):
    """Finite entries whose sum overflows: no sample is non-finite."""
    return 1.5e308 * rho


C = CHECK_CHUNK
# sample index -> how to corrupt it: a function of the state, or the index
# of an earlier (more excited) state to repeat there
CHUNK_CASES = {
    "hermiticity_in_second_chunk": {C + 5: _non_hermitian},
    "positivity_in_second_chunk": {C + 9: _negative},
    "positivity_gauge_real_in_second_chunk": {C + 11: _negative_gauge_real},
    "gain_straddles_boundary": {C: C - 3},
    "gain_at_first_of_third_chunk": {2 * C: 2},
    "hermiticity_before_positivity": {
        C + 7: lambda rho: _negative(_non_hermitian(rho))},
    "trace_in_second_chunk": {C + 6: _short_trace},
    "hermiticity_before_trace": {
        C + 8: lambda rho: _short_trace(_non_hermitian(rho))},
    "trace_before_positivity": {
        C + 10: lambda rho: _short_trace(_negative(rho))},
    "earlier_gain_wins": {C + 2: C - 10, C + 20: _non_hermitian},
    "finite_first": {C + 3: _nan, C + 7: _non_hermitian},
    "hermiticity_before_later_nan": {C + 3: _non_hermitian, C + 4: _nan},
    "overflowing_sum_is_finite": {C + 5: _huge},
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_checks_report_the_per_sample_first_violation(
        space3, monkeypatch, case):
    # psi at theta = 0 is real in the photon-number gauge, so each run
    # takes the real blocks unless a plant moves it off them
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 30.0, 3 * C + 1)
    states = [s.rho_tilde for s in
              evolve(init, space3, params, times, store_full=True).full_states]
    for i, plant in CHUNK_CASES[case].items():
        states[i] = states[plant] if isinstance(plant, int) else plant(
            states[i])
    expected = _first_violation(states, times, space3)
    assert expected is not None and expected[1] >= times[C - 1]

    # the slices of points evolve checks, with <N> carried from one to the
    # next; the slice of vec(rho) is the states' support with its
    # transpose, so every planted entry lies inside it and the entries
    # outside are exactly 0. The runs are read in the photon-number gauge
    # twice: as the fewest row-blocks that hold each run (its real part
    # alone where its imaginary part is 0), and as two row-blocks each;
    # each row ends in the pad entry, +0.0, that the maps' -1 entries read
    rho = np.array(states)
    flat = rho.reshape(len(rho), -1)
    support = (flat != 0).any(axis=0)
    support |= support.reshape(space3.dim_total, -1).T.reshape(-1)
    entries = np.flatnonzero(support)
    build = _layout_build(entries, space3.n_fock)
    weights = number_operator(space3).diagonal().real
    gauged = np.zeros((2, len(rho), len(entries) + 1))
    for part, out in zip(_photon_gauge(rho), gauged):
        out[:, :-1] = part.reshape(len(rho), -1)[:, entries]
    stacks = _record_eigvalsh(monkeypatch)
    blocks = len(build.block_sizes)
    clamped = sum(build.block_sizes) < space3.dim_total
    for fewest in (True, False):
        stacks.clear()
        starts = []  # where each run's eigvalsh stacks begin
        prev_expect_n = math.inf
        with pytest.raises(IntegrationError) as err:
            for lo in range(0, len(rho), C):
                starts.append(len(stacks))
                run = gauged[:, lo:lo + C]
                if fewest and not run[1].any():
                    run = run[:1]
                prev_expect_n = _check_samples(
                    run, times[lo:lo + C], weights, build,
                    prev_expect_n)[0][-1]
        assert (err.value.invariant, err.value.time) == expected, fewest
        runs = [[a.dtype.kind for a in stacks[lo:hi]]
                for lo, hi in zip(starts, starts[1:] + [len(stacks)])]
        if not fewest:
            assert runs == [["c"] * blocks] * len(runs)
            continue
        # the runs before the one that fails hold no plant and are real in
        # the gauge: where the blocks leave a basis state out, the
        # certificate takes every block of every sample, and otherwise
        # every block goes to eigvalsh. The run that fails is real there
        # unless a plant moved it off, and then takes every block complex;
        # a real one sends only the blocks the certificate refuses, among
        # them the one that fails positivity
        *clean, failing = runs
        assert clean and clean == [[] if clamped else ["f"] * blocks] * len(
            clean)
        real = (_negative_gauge_real, _short_trace, _nan, _huge)
        if not all(isinstance(plant, int) or plant in real
                   for plant in CHUNK_CASES[case].values()):
            assert failing == ["c"] * blocks
        elif not clamped:
            assert failing == ["f"] * blocks
        else:
            assert set(failing) <= {"f"}
            assert failing or expected[0] != "positivity"


def _record_eigvalsh(monkeypatch):
    """Every stack of matrices eigvalsh is called on (FullState.validate
    takes one matrix alone)."""
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        if a.ndim == 3:
            stacks.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return stacks


def _gauged_entries(m, n_fock):
    """The full-width generator m as gauged_generator gives one: its
    nonzero entries in the photon-number gauge, where m must be real."""
    phase = np.array([1, 1j, -1, -1j])[dynamics.photon_turns(n_fock)]
    gauged = phase[:, None] * m * phase.conj()
    assert not gauged.imag.any()
    rows, cols = np.nonzero(gauged)
    return dynamics.GeneratorEntries(rows, cols, gauged.real[rows, cols])


def _generator(monkeypatch, m):
    """Every build takes m as its generator, gauged as the build's own."""
    monkeypatch.setattr(dynamics, "gauged_generator",
                        lambda space, params: _gauged_entries(m, space.n_fock))


def test_trace_failure_waits_for_earlier_samples(space3, monkeypatch,
                                                 builds):
    # the trace law is checked when the generator is built, so a generator
    # that breaks it fails the run at the initial time, before any step
    # and before the checks of any sample, even one that would fail them:
    # -0.1 I takes 0.1 from the trace of each diagonal entry
    rho = make_initial(InitialStateSpec("psi", 0.3), space3).rho_tilde
    params = SystemParams.symmetric(0.1)
    _generator(monkeypatch, -0.1 * np.eye(space3.dim_total ** 2))
    # the initial state is checked as sample 0, so the generator's law is
    # reported first also for an initial state that is not Hermitian
    for state in (_non_hermitian(rho), rho):
        with pytest.raises(IntegrationError) as err:
            evolve(FullState(state, 0.5), space3, params,
                   np.array([0.5, 1.5]))
        assert (err.value.invariant, err.value.time, err.value.value,
                err.value.limit) == (
            "trace", 0.5, 0.1, TRACE_LAW_TOL * np.finfo(float).eps * 0.1)
    assert builds.steps == []


# Samples 0 .. B - 1 of a run are filled before the doubling by P^B fills
# samples B .. 2B - 1 from them.
B = 128


@pytest.mark.parametrize("n_samples,step", [
    (3 * B + 1, 1270),  # last step into sample B - 1
    (3 * B + 1, 1271),  # first step past it
    (3 * B + 1, 1280),  # last step into sample B, the first of a doubling
    (3 * B + 1, 1281),
    (2, 3335),          # steps of one interval longer than 4096 steps
    (2, 5000),
])
def test_trace_failure_time_across_blocks_and_segments(space3, monkeypatch,
                                                       builds, n_samples,
                                                       step):
    # the ground-state population eps grows by r = exp(0.1) per RK4 step
    # and nothing else moves, so the trace error after q steps would be
    # eps (r^q - 1), and eps would put TRACE_TOL half a step before `step`.
    # The generator breaks the trace law by its one entry, 0.1 / h at the
    # ground state, so its build fails the run at the initial time with
    # that value, before any step, wherever that step would fall
    times = np.linspace(0.0, 10.0 if n_samples == 2 else 3.84, n_samples)
    h = (times[1] - times[0]) / round((times[1] - times[0]) / 1e-3)
    ground = space3.flat_index(0, 0, 0) * (space3.dim_total + 1)
    m = np.zeros((space3.dim_total ** 2,) * 2)
    m[ground, ground] = 0.1 / h
    r = _step(m, h)[ground, ground].real
    eps = TRACE_TOL / (r ** (step - 0.5) - 1.0)
    rho = np.zeros((space3.dim_total,) * 2, dtype=complex)
    rho[0, 0], rho[1, 1] = eps, 1.0 - eps
    assert rho.reshape(-1)[ground] == eps
    _generator(monkeypatch, m)
    with pytest.raises(IntegrationError) as err:
        evolve(FullState(rho), space3, SystemParams.symmetric(0.1), times)
    assert (err.value.invariant, err.value.time, err.value.value,
            err.value.limit) == (
        "trace", 0.0, 0.1 / h, TRACE_LAW_TOL * np.finfo(float).eps * 0.1 / h)
    assert builds.steps == []


def test_sample_violation_wins_over_a_later_block_of_its_slice(
        space3, monkeypatch):
    # a slice is filled doubling by doubling and checked once; a violation
    # at one of its first B samples must win over the violations in the
    # samples the later doublings fill. The coherence rho[1, 2] grows alone
    # from 1e-12-ish, a generator that keeps the trace law (no diagonal
    # entry moves), so the hermiticity error crosses HERM_TOL half a sample
    # before t[60] and keeps growing to the end of the slice
    times = np.linspace(0.0, 3.84, 3 * B + 1)
    assert len(times) <= CHECK_CHUNK
    h = (times[1] - times[0]) / 10
    dim = space3.dim_total
    coherence = 1 * dim + 2
    m = np.zeros((dim ** 2,) * 2)
    m[coherence, coherence] = 0.0077 / h
    grow = _step(m, h)[coherence, coherence].real
    rho = np.zeros((dim, dim), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = HERM_TOL / (grow ** 595 - 1.0)
    _generator(monkeypatch, m)
    with pytest.raises(IntegrationError) as err:
        evolve(FullState(rho), space3, SystemParams.symmetric(0.1), times)
    assert (err.value.invariant, err.value.time) == ("hermiticity", times[60])
    assert err.value.value > HERM_TOL


def _one_way(space, two_blocks, rate):
    """A state and a generator that does not preserve hermiticity: the
    coherence (r, c) of r = |01,0> and c = |10,0> is fed at `rate` from
    the population (r, r), and its transpose (c, r) from nothing, so the
    slice holds (r, c) alone. The state has 1/4 at |00,0>, r, c and
    |11,0>, and with two_blocks the Hermitian coherence 0.1i at
    (|00,0>, |11,0>), which also feeds (r, c) at `rate`: imaginary in the
    photon-number gauge, so the run takes two row-blocks and the fed
    entry is complex. Every basis state here has no photon, so the gauge
    leaves these entries as they are and the gauged generator is real."""
    dim = space.dim_total
    ground, r, c, top = (space.flat_index(a, b, 0)
                         for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[[ground, r, c, top], [ground, r, c, top]] = 0.25
    m = np.zeros((dim * dim,) * 2)
    m[r * dim + c, r * dim + r] = rate
    if two_blocks:
        rho[ground, top], rho[top, ground] = 0.1j, -0.1j
        m[r * dim + c, ground * dim + top] = rate
    return FullState(rho), m, (r * dim + c, c * dim + r)


@pytest.mark.parametrize("two_blocks", [False, True])
def test_hermiticity_reads_an_absent_transpose_as_zero(space3, monkeypatch,
                                                       two_blocks):
    # the hermiticity error is read from the diagonal blocks, where the
    # transpose of an entry that the slice lacks reads the pad's +0.0:
    # with a generator that feeds (r, c) and never (c, r), the error of
    # each sample is that of its full state bit for bit, over two runs of
    # points, with HERM_TOL lifted so that the run completes. Checked, the
    # run fails at the first sample past HERM_TOL, in the second run, with
    # that sample's value
    times = np.linspace(0.0, 2.0, C + 101)
    amplitude = abs(0.25 + (0.1j if two_blocks else 0.0))
    init, m, (fed, transpose) = _one_way(space3, two_blocks,
                                         HERM_TOL / (1.8 * amplitude))
    params = SystemParams.symmetric(0.1)
    _generator(monkeypatch, m)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "HERM_TOL", math.inf)
        shared = {}
        traj = evolve(init, space3, params, times, store_full=True,
                      shared=shared)
    entries = shared["build"].entries
    assert fed in entries and transpose not in entries
    assert traj.diagnostics.real_block_samples == (
        0 if two_blocks else len(times))
    rho = np.array([s.rho_tilde for s in traj.full_states])
    herm = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    assert _same_bits(traj.hermiticity_error, herm)
    first = int(np.argmax(herm > HERM_TOL))
    assert C < first < len(times) - 1 and herm[first - 1] <= HERM_TOL
    with pytest.raises(IntegrationError) as err:
        evolve(init, space3, params, times)
    assert (err.value.invariant, err.value.time, err.value.value,
            err.value.limit) == ("hermiticity", times[first], herm[first],
                                 HERM_TOL)


def _damping_kraus(p: float):
    return (np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex),
            np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex))


def test_independent_damping_oracle_elementwise(space3):
    # omega = 0 decouples the mode, so the reduced state must follow the
    # closed-form two-channel amplitude-damping map; asymmetric rates
    # also pin down which qubit each collapse operator acts on
    params = SystemParams(omega=0.0, gamma_cavity=0.4, gamma_a=0.7,
                          gamma_b=0.3)
    init = make_initial(InitialStateSpec("psi", 0.3, theta=0.6), space3)
    times = np.linspace(0.0, 3.0, 7)
    traj = evolve(init, space3, params, times)
    rho0 = traj.reduced[0]
    worst = 0.0
    for k, t in enumerate(times):
        ka = _damping_kraus(1.0 - math.exp(-0.7 * t))
        kb = _damping_kraus(1.0 - math.exp(-0.3 * t))
        out = np.zeros((4, 4), dtype=complex)
        for a_op in ka:
            for b_op in kb:
                op = np.kron(b_op, a_op)  # qubit B is the high bit
                out += op @ rho0 @ op.conj().T
        worst = max(worst, float(np.abs(traj.reduced[k] - out).max()))
    assert worst <= 1e-8


class TestEvolveValidation:
    def test_times_must_be_ordered(self, space3):
        params = SystemParams.symmetric(0.1)
        init = make_initial(InitialStateSpec("psi", 0.5), space3)
        with pytest.raises(ValueError):
            evolve(init, space3, params, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            evolve(init, space3, params, np.array([]))
        with pytest.raises(ValueError):
            evolve(init, space3, params, np.array([-1.0, 0.0]))

    def test_bad_method_and_step(self, space3):
        params = SystemParams.symmetric(0.1)
        init = make_initial(InitialStateSpec("psi", 0.5), space3)
        for step in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="step_size"):
                evolve(init, space3, params, np.array([0.0, 1.0]),
                       step_size=step)

    def test_step_count_beyond_the_float_range(self, space3):
        # dt / step_size overflows to inf: a ValueError, without a
        # floating-point warning (the suite turns RuntimeWarning into an
        # error); a count just inside the float range is still a count
        params = SystemParams.symmetric(0.1)
        init = make_initial(InitialStateSpec("psi", 0.5), space3)
        with pytest.raises(ValueError, match="float range"):
            evolve(init, space3, params, [0.0, 1.0], step_size=5e-324)
        assert dynamics.interval_steps(1.0, 1e-308) == math.ceil(1e308)

    def test_times_spanning_beyond_the_float_range(self, space3):
        # times[-1] - times[0] overflows to inf: rejected for its span,
        # before np.diff or np.linspace could warn (the suite turns
        # RuntimeWarning into an error), also for an initial time far
        # from the first sample
        params = SystemParams.symmetric(0.1)
        rho = make_initial(InitialStateSpec("psi", 0.5), space3).rho_tilde
        with pytest.raises(ValueError, match="span"):
            evolve(FullState(rho, -1e308), space3, params, [-1e308, 1e308])
        with pytest.raises(ValueError, match="span"):
            evolve(FullState(rho, -1e308), space3, params,
                   [-1e308, 0.0, 1e308])
        with pytest.raises(ValueError, match="start at the initial"):
            evolve(FullState(rho, -1e308), space3, params, [1e308])

    def test_times_must_be_evenly_spaced_from_the_initial_time(self, space3):
        params = SystemParams.symmetric(0.1)
        init = make_initial(InitialStateSpec("psi", 0.5), space3)
        for times in ([0.0, 1.0, 3.0], [0.5, 1.0, 1.5], [0.0, math.nan],
                      [0.0, 1.0, math.nan], [0.0, math.inf], [math.nan],
                      [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="times"):
                evolve(init, space3, params, np.array(times))
        traj = evolve(init, space3, params, np.array([0.0, 0.1, 0.2, 0.3]))
        assert traj.diagnostics.step_count == 300
        one = evolve(init, space3, params, np.array([0.0]))
        assert one.diagnostics.step_count == 0
        assert np.abs(one.reduced[0] - traj.reduced[0]).max() == 0.0

    def test_a_shared_dict_checks_each_grid_once(self, space3, monkeypatch):
        # a grid is checked once per shared dict, told apart by its bits
        # and the initial time, also across the builds of other rates; a
        # direct call checks it every time, and a dict that has seen a
        # good grid still rejects every bad one
        checked = []
        check = dynamics._check_times

        def recording(times, start):
            checked.append(len(times))
            check(times, start)

        monkeypatch.setattr(dynamics, "_check_times", recording)
        init = make_initial(InitialStateSpec("psi", 0.5), space3)
        times = np.linspace(0.0, 1.0, 11)
        shared = {}
        for gamma_s in (0.1, 0.1, 0.2, 0.1):
            evolve(init, space3, SystemParams.symmetric(gamma_s),
                   times.copy(), shared=shared)
        assert checked == [11]
        params = SystemParams.symmetric(0.1)
        for _ in range(2):
            evolve(init, space3, params, times)
        assert checked == [11] * 3
        later = FullState(init.rho_tilde, 0.5)
        evolve(init, space3, params, np.linspace(0.0, 1.0, 21),
               shared=shared)
        evolve(later, space3, params, times + 0.5, shared=shared)
        assert checked == [11] * 3 + [21, 11]
        for bad in ([0.0, 1.0, 3.0], [0.0, math.nan], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="times"):
                evolve(init, space3, params, np.array(bad), shared=shared)
        with pytest.raises(ValueError, match="start at the initial"):
            evolve(later, space3, params, times, shared=shared)

    def test_dimension_mismatch(self, space3):
        params = SystemParams.symmetric(0.1)
        bad = FullState(rho_tilde=np.eye(8, dtype=complex) / 8.0)
        with pytest.raises(ValueError):
            evolve(bad, space3, params, np.array([0.0, 1.0]))

    def test_invalid_initial_state(self, space3, monkeypatch):
        # the initial state is checked as sample 0, on the slice, with the
        # full-matrix checks and tolerances of FullState.validate, which
        # evolve must not call; each violation is reported at initial.time
        # (not at times[0], 2e-13 later) with the failing check's value
        # and limit, and that check is the cause
        monkeypatch.setattr(FullState, "validate", None)
        params = SystemParams.symmetric(0.1)
        psi = make_initial(InitialStateSpec("psi", 0.3), space3).rho_tilde
        negative = np.zeros_like(psi)
        for (i_a, i_b), pop in zip(((0, 0), (1, 0), (0, 1)), (0.6, 0.5, -0.1)):
            i = space3.flat_index(i_a, i_b, 0)
            negative[i, i] = pop
        nan = psi.copy()
        nan[0, 0] = math.nan
        cases = [(0.9 * psi, "trace", pytest.approx(0.1), TRACE_TOL),
                 (_non_hermitian(psi), "hermiticity", 1e-6, HERM_TOL),
                 (negative, "positivity", -0.1, EIG_FLOOR),
                 (nan, "finite", math.inf, 0.0)]
        for rho, check, value, limit in cases:
            with pytest.raises(IntegrationError) as err:
                evolve(FullState(rho, 0.5), space3, params,
                       np.array([0.5 + 2e-13, 1.5]))
            assert (err.value.invariant, err.value.time, err.value.value,
                    err.value.limit) == ("initial_state", 0.5, value, limit)
            assert err.value.__cause__.invariant == check
        # a matrix that is not square fails before any build: its entries
        # per row against its rows
        with pytest.raises(IntegrationError) as err:
            evolve(FullState(np.zeros((12, 13), dtype=complex), 0.5), space3,
                   params, np.array([0.5, 1.5]))
        assert (err.value.invariant, err.value.time, err.value.value,
                err.value.limit) == ("initial_state", 0.5, 13.0, 12.0)

    def test_fock_cutoff_must_hold_the_initial_excitations(self):
        # psi reaches |00,2>, so it needs three Fock levels; phi (one
        # excitation) is exact with two and has no coupling left with one
        times = np.linspace(0.0, 20.0, 201)
        excitations = {"psi": 2, "phi": 1}
        runs = {}
        for n_fock in (1, 2, 3):
            space = build_space(n_fock)
            params = SystemParams.symmetric(0.1, n_fock=n_fock)
            for family, top in excitations.items():
                init = make_initial(InitialStateSpec(family, 0.3), space)
                if top > n_fock - 1:
                    with pytest.raises(ValueError, match="n_fock >="):
                        evolve(init, space, params, times)
                else:
                    runs[family, n_fock] = evolve(init, space, params, times)
        assert set(runs) == {("phi", 2), ("phi", 3), ("psi", 3)}
        two, three = runs["phi", 2], runs["phi", 3]
        assert np.abs(two.reduced - three.reduced).max() <= 1e-12
        assert np.abs(two.expect_n - three.expect_n).max() <= 1e-12


def test_unstable_step_aborts_with_diagnostic(space3):
    # a step far outside the stability region must abort, not return garbage
    params = SystemParams.symmetric(6.0, gamma_cavity=4.0)
    init = make_initial(InitialStateSpec("psi", 0.5), space3)
    with pytest.raises(IntegrationError) as err:
        evolve(init, space3, params, np.array([0.0, 50.0]), step_size=1.0)
    assert err.value.invariant in ("trace", "finite", "hermiticity",
                                   "positivity")
    assert err.value.time > 0.0


def test_an_overflowing_interval_fails_the_finite_check(space3):
    # 111 unstable steps in one interval overflow P while it is powered;
    # the run fails on its first non-finite sample, without a
    # floating-point warning (the suite turns RuntimeWarning into an error)
    params = SystemParams.symmetric(6.0, gamma_cavity=4.0)
    init = make_initial(InitialStateSpec("psi", 0.5), space3)
    with pytest.raises(IntegrationError) as err:
        evolve(init, space3, params, [0, 111], step_size=1.0)
    assert (err.value.invariant, err.value.time) == ("finite", 111.0)


def test_overflow_past_an_unstable_step_reports_the_first_violation(
        space3, monkeypatch):
    # a whole run is propagated before it is checked, so the states
    # overflow past the first bad sample; that sample must still be
    # reported, as a sample-by-sample run reports it, without a
    # floating-point warning
    params = SystemParams.symmetric(6.0, gamma_cavity=4.0)
    init = make_initial(InitialStateSpec("psi", 0.5), space3)
    times = np.linspace(0.0, 2.0 * C, 2 * C + 1)
    stacks = _record_eigvalsh(monkeypatch)
    with pytest.raises(IntegrationError) as err:
        evolve(init, space3, params, times, step_size=1.0)
    assert (err.value.invariant, err.value.time) == ("positivity", 1.0)
    # the whole first run of CHECK_CHUNK samples is propagated, so it
    # holds the overflowed states; psi at theta = 0 is one real row-block,
    # so its violation is read on the real blocks of psi
    assert [a.dtype.kind for a in stacks] == ["f", "f"]
    # one step a sample at gamma_s = 2000: the last finite states of the
    # run come within a factor 2 of the largest float, where the checks'
    # own sums and the blocks' symmetric parts must not overflow into an
    # error of their own
    with pytest.raises(IntegrationError) as err:
        evolve(make_initial(InitialStateSpec("psi", 0.3), space3), space3,
               SystemParams.symmetric(2000.0), np.linspace(0.0, 3.0, 3001))
    assert (err.value.invariant, err.value.time) == ("positivity", 1e-3)


@pytest.mark.parametrize("alpha2,value", [
    (0.1, float.fromhex("-0x1.3bb07521b2523p-21")),   # -5.88017e-07
    (0.3, float.fromhex("-0x1.eb127d50dc7fbp-22")),   # -4.57347e-07
    (0.5, float.fromhex("-0x1.5ec4105e545b9p-22")),   # -3.26676e-07
])
def test_a_stiff_psi_cell_fails_positivity_at_its_first_step(space3, alpha2,
                                                              value):
    # psi at gamma_s 1000 gamma0, t_max 1 in 1000 steps: the default RK4
    # step is unstable there, and the first step leaves a block eigenvalue
    # far below EIG_FLOOR, which the certificate refuses; the cell fails
    # 'positivity' at t = 0.001 with the value bits of every block sent to
    # eigvalsh. An exact interval propagator (ROADMAP item 4) turns these
    # cells healthy, and must restate this test
    init = make_initial(InitialStateSpec("psi", alpha2), space3)
    with pytest.raises(IntegrationError) as err:
        evolve(init, space3, SystemParams.symmetric(1000.0),
               np.linspace(0.0, 1.0, 1001))
    assert (err.value.invariant, err.value.time, err.value.limit) == (
        "positivity", 0.001, EIG_FLOOR)
    assert err.value.value.hex() == value.hex()


def test_the_pad_entry_reads_an_exact_zero(space3, monkeypatch):
    # each run ends every row of the slice in one pad entry, which the -1
    # entries of the gauge and gather maps read through a plain take: it
    # must read +0.0 in every run, also once the states past an unstable
    # step overflow, and for a raw state at n_fock = 4, two row-blocks
    # whose maps hold many -1 entries; and the checks must still report
    # the first violation of the full matrices, sample by sample
    runs = []
    check = dynamics._check_samples

    def recording(sub, times, *args):
        runs.append((sub.copy(), times.copy()))
        return check(sub, times, *args)

    monkeypatch.setattr(dynamics, "_check_samples", recording)
    space4 = build_space(4)
    psi = make_initial(InitialStateSpec("psi", 0.3), space3)
    cases = [
        (psi, space3, SystemParams.symmetric(2000.0),
         np.linspace(0.0, 3.0, 3001), DEFAULT_STEP, ("positivity", 1e-3)),
        (_raw_state(space4, 3), space4,
         SystemParams.symmetric(6.0, gamma_cavity=4.0, n_fock=4),
         np.linspace(0.0, 2.0 * C, 2 * C + 1), 1.0, ("positivity", 1.0)),
        (_raw_state(space4, 3), space4, SystemParams.symmetric(0.2, n_fock=4),
         np.linspace(0.0, 2.0, 2 * C + 1), DEFAULT_STEP, None)]
    phases = np.array([1, 1j, -1, -1j])
    for init, space, params, times, step, expected in cases:
        runs.clear()
        shared = {}
        if expected is None:
            evolve(init, space, params, times, step_size=step, shared=shared)
        else:
            with pytest.raises(IntegrationError) as err:
                evolve(init, space, params, times, step_size=step,
                       shared=shared)
            assert (err.value.invariant, err.value.time) == expected
        build = shared["build"]
        entries = build.entries
        # the entries outside the slice, without the blocks' zero padding
        maps = [index[:k, :k] for index, k in zip(build.block_map,
                                                   build.block_sizes)]
        maps += [build.diagonal, build.qubits]
        assert sum(int((index < 0).sum()) for index in maps) >= 20
        maps.append(build.block_map)
        assert runs and all(sub.shape[0] == (1 if space is space3 else 2)
                            for sub, _ in runs)
        states = []
        for sub, _ in runs:
            assert sub.shape[-1] == len(entries) + 1
            for index in maps:
                outside = sub.take(index, axis=-1)[..., index < 0]
                assert not (outside != 0.0).any()
                assert not np.signbit(outside).any()
            with np.errstate(all="ignore"):
                parts = sub[..., :-1] if len(sub) == 2 else (
                    sub[0, :, :-1], 0.0 * sub[0, :, :-1])
                full = np.zeros((sub.shape[1], space.dim_total ** 2),
                                dtype=complex)
                full[:, entries] = (parts[0] + 1j * parts[1]) * phases[
                    -dynamics.photon_turns(space.n_fock)[entries] % 4]
            states.extend(full.reshape(-1, space.dim_total, space.dim_total))
        with np.errstate(all="ignore"):
            first = _first_violation(states, np.concatenate(
                [t for _, t in runs]), space)
        assert first == expected


def test_unitary_limit_conserves_purity(space3):
    params = SystemParams.symmetric(0.0, omega=0.2, gamma_cavity=0.0)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 10.0, 41)
    traj = evolve(init, space3, params, times, store_full=True)
    purities = [np.trace(s.rho_tilde @ s.rho_tilde).real
                for s in traj.full_states]
    assert max(abs(p - 1.0) for p in purities) <= 1e-10
    assert np.abs(traj.expect_n - traj.expect_n[0]).max() <= 1e-10


def test_expectation_and_sector_bookkeeping(space3):
    params = SystemParams.symmetric(0.05)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 5.0, 26)
    traj = evolve(init, space3, params, times)
    # two excitations with weight beta^2 = 0.7
    assert traj.expect_n[0] == pytest.approx(1.4, abs=1e-12)
    assert np.all(np.diff(traj.expect_n) <= 1e-10)
    # nothing can enter the >2 excitation sector from these initial states
    assert np.abs(traj.sector_leakage).max() == 0.0
    assert traj.diagnostics.step_count == 5000
    assert traj.diagnostics.max_trace_error <= 1e-9


def test_store_full_round_trip(space3):
    params = SystemParams.symmetric(0.1)
    init = make_initial(InitialStateSpec("phi", 0.4), space3)
    times = np.linspace(0.0, 2.0, 5)
    traj = evolve(init, space3, params, times, store_full=True)
    assert len(traj.full_states) == 5
    for state, t in zip(traj.full_states, times):
        assert state.time == t
        state.validate()
    assert np.abs(traj.full_states[0].rho_tilde - init.rho_tilde).max() == 0.0


def test_full_state_validation():
    with pytest.raises(ValueError):
        FullState(np.zeros((3, 4), dtype=complex)).validate()
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 1e-6
    with pytest.raises(ValueError):
        FullState(rho).validate()
    nan_rho = np.eye(4, dtype=complex) / 4.0
    nan_rho[2, 2] = math.nan
    with pytest.raises(ValueError):
        FullState(nan_rho).validate()
    neg = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        FullState(neg).validate()
    FullState(np.eye(4, dtype=complex) / 4.0).validate()
