import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_density_matrix
from pseudomode import (
    FullState,
    IntegrationError,
    SystemParams,
    build_space,
    evolve,
    lindblad_rhs,
    liouvillian_matrix,
    make_initial,
    number_operator,
)
from pseudomode import dynamics
from pseudomode.dynamics import (
    CHECK_CHUNK,
    EIG_FLOOR,
    EXCITATION_GAIN_TOL,
    HERM_TOL,
    MAX_SEGMENT,
    SAMPLE_CHUNK,
    TABLE_BYTES,
    TRACE_TOL,
    IntegrationDiagnostics,
    _check_samples,
    diagonal_blocks,
    gather_maps,
    interval_propagator,
    reachable_entries,
    rk4_step_matrix,
    slice_maps,
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
    assert np.abs(rk4_step_matrix(m, h) @ v - staged).max() <= 1e-12


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
    # is the reference for the sampled states and for the trace after
    # every step
    params = SystemParams.symmetric(gamma_s)
    m = liouvillian_matrix(space3, params)
    times = np.linspace(0.0, 150.0, 1501)
    n_sub = 100
    h = (times[1] - times[0]) / n_sub
    step = rk4_step_matrix(m, h)
    _, trace_rows = interval_propagator(m, h, n_sub, np.arange(len(m)))
    diag = slice(None, None, space3.dim_total + 1)
    for spec in (InitialStateSpec("psi", 0.3, theta=0.4),
                 InitialStateSpec("phi", 0.3),
                 InitialStateSpec("werner_psi", 0.3, r=0.6)):
        init = make_initial(spec, space3)
        sampled = evolve(init, space3, params, times,
                         store_full=True).full_states
        substeps = np.empty((n_sub + 1, space3.dim_total ** 2), dtype=complex)
        substeps[-1] = init.rho_tilde.reshape(-1)
        worst_state = worst_trace = 0.0
        for i in range(1, len(times)):
            substeps[0] = substeps[-1]
            for k in range(n_sub):
                np.matmul(step, substeps[k], out=substeps[k + 1])
            traces = substeps[1:, diag].sum(axis=1)
            worst_trace = max(worst_trace, float(
                np.abs(trace_rows @ substeps[0] - traces).max()))
            worst_state = max(worst_state, float(np.abs(
                sampled[i].rho_tilde.reshape(-1) - substeps[-1]).max()))
        assert worst_state <= 1e-12, spec
        assert worst_trace <= 1e-12, spec


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


def test_reachable_entries_hold_every_transpose(space3):
    # the checks read an entry's transpose inside the slice, so the slice
    # must hold it, also for a state whose nonzero pattern is not
    # symmetric and for a generator that does not preserve hermiticity
    dim = space3.dim_total
    m = liouvillian_matrix(space3, SystemParams.symmetric(0.2))
    states = {name: init.rho_tilde for name, init in
              _test_states(space3).items() if name != "raw"}
    skew = np.zeros((dim, dim), dtype=complex)
    skew[0, 0] = 1.0
    skew[space3.flat_index(1, 0, 0), space3.flat_index(0, 1, 1)] = 1e-3
    states["asymmetric"] = skew
    one_way = np.zeros_like(m)
    one_way[5, 0] = 1.0  # links entry (0, 0) to (0, 5) only
    for name, rho in states.items():
        for gen in (m, one_way):
            entries = reachable_entries(gen, rho)
            rows, cols = np.divmod(entries, dim)
            assert np.array_equal(np.sort(cols * dim + rows), entries), name
            outside = np.setdiff1d(np.arange(len(gen)), entries)
            assert not gen[np.ix_(outside, entries)].any(), name
            mirror, _ = slice_maps(entries, dim)
            assert np.array_equal(entries[mirror], cols * dim + rows), name
            v = np.arange(dim * dim) * (1 + 2j)
            assert np.array_equal(
                v[entries][mirror],
                v.reshape(dim, dim).T.reshape(-1)[entries]), name
    with pytest.raises(ValueError, match="transpose"):
        slice_maps(np.array([1]), dim)


def test_slice_checks_equal_the_full_width_values(space3):
    # hermiticity and each diagonal block are read from the slice; the
    # full-width matrices give the same bits
    params = SystemParams.symmetric(0.2)
    times = np.linspace(0.0, 5.0, 301)
    for name, init in _test_states(space3).items():
        traj = evolve(init, space3, params, times, store_full=True)
        rho = np.array([s.rho_tilde for s in traj.full_states])
        herm = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        assert np.array_equal(traj.hermiticity_error, herm), name
        m = liouvillian_matrix(space3, params)
        entries = reachable_entries(m, init.rho_tilde)
        blocks = diagonal_blocks(entries, space3.dim_total)
        # every test state leaves some basis state untouched: an exact 0
        assert sum(map(len, blocks)) < space3.dim_total, name
        mins = [np.zeros(len(rho))]
        for blk in blocks:
            sub = rho[:, blk[:, None], blk]
            mins.append(np.linalg.eigvalsh(
                0.5 * (sub + sub.conj().transpose(0, 2, 1)))[:, 0])
        assert np.array_equal(traj.min_eigenvalue, np.min(mins, axis=0)), name


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes())


@pytest.mark.parametrize("n_fock", [3, 4])
def test_sums_over_the_slice_equal_the_full_width_formulas(n_fock):
    # the trace, <N>, the leakage and the reduced states add the slice's
    # entries, gathered with exact zeros for the rest; the formulas over
    # the full matrices give the same bits, signed zeros included. <N> is
    # one product per propagation block (numpy takes a single row through
    # BLAS dot), and the 257 and 226 samples end on a block of one point
    # at the block lengths here (128, and 25 for the raw state at
    # n_fock = 4); [0, 20] in two intervals of 10 000 steps takes three
    # segments each
    space = build_space(n_fock)
    params = SystemParams.symmetric(0.2, n_fock=n_fock)
    m = liouvillian_matrix(space, params)
    weights = number_operator(space).diagonal().real
    grids = [np.linspace(0.0, 5.0, 203), np.linspace(0.0, 5.0, 257),
             np.linspace(0.0, 4.5, 226), np.linspace(0.0, 20.0, 3)]
    for name, init in _test_states(space).items():
        block = dynamics._block_length(len(reachable_entries(
            m, init.rho_tilde)))
        for times in grids:
            traj = evolve(init, space, params, times, store_full=True)
            rho = np.array([s.rho_tilde for s in traj.full_states])
            pops = np.real(rho.diagonal(axis1=1, axis2=2))
            assert _same_bits(traj.trace_error, np.abs(
                np.trace(rho, axis1=1, axis2=2) - 1.0)), name
            per_block = np.concatenate([
                pops[lo:lo + block] @ weights
                for lo in range(0, len(pops), block)])
            assert _same_bits(traj.expect_n, per_block), name
            assert _same_bits(traj.sector_leakage,
                              pops[:, weights > 2].sum(axis=1)), name
            assert _same_bits(traj.reduced,
                              partial_trace_cavity(rho, space)), name
    assert traj.diagnostics.step_count == 2 * 3 * 3334


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
    _, blocks = slice_maps(reachable_entries(m, rho), space3.dim_total)
    assert (blocks[0] < 0).sum() == 2
    traj = evolve(FullState(rho), space3, params, np.linspace(0.0, 1.0, 3))
    low = np.linalg.eigvalsh(rho)[0]
    assert EIG_FLOOR < low < -4e-9
    assert np.abs(traj.min_eigenvalue - low).max() <= 1e-15


@pytest.mark.parametrize("n_fock", [3, 4])
def test_sliced_evolution_matches_the_full_width_loop(n_fock):
    # only the reachable entries are propagated; a full-width loop of
    # single RK4 steps is the reference, and every other entry of the
    # returned states is exactly 0
    space = build_space(n_fock)
    params = SystemParams.symmetric(0.2, n_fock=n_fock)
    m = liouvillian_matrix(space, params)
    times = np.linspace(0.0, 4.0, 41)
    n_sub = 100
    step = rk4_step_matrix(m, (times[1] - times[0]) / n_sub)
    for name, init in _test_states(space).items():
        outside = np.setdiff1d(np.arange(len(m)),
                               reachable_entries(m, init.rho_tilde))
        sampled = evolve(init, space, params, times,
                         store_full=True).full_states
        v = init.rho_tilde.reshape(-1)
        worst = 0.0
        for state in sampled[1:]:
            for _ in range(n_sub):
                v = step @ v
            got = state.rho_tilde.reshape(-1)
            worst = max(worst, float(np.abs(got - v).max()))
            assert not got[outside].any(), name
        assert worst <= 1e-12, name


def test_positivity_per_block_matches_full_eigvalsh(space3):
    params = SystemParams.symmetric(0.2)
    times = np.linspace(0.0, 20.0, 201)
    for name, init in _test_states(space3).items():
        traj = evolve(init, space3, params, times, store_full=True)
        rho = np.array([s.rho_tilde for s in traj.full_states])
        full = np.linalg.eigvalsh(
            0.5 * (rho + rho.conj().transpose(0, 2, 1)))[:, 0]
        assert np.abs(traj.min_eigenvalue - full).max() <= 1e-14, name


def test_block_products_match_a_per_point_loop(space3):
    # each block is one product with the table of powers of P; one matvec
    # per point on the same entries is the reference
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 10.0, 10001)
    m = liouvillian_matrix(space3, params)
    entries = reachable_entries(m, init.rho_tilde)
    prop, _ = interval_propagator(m, times[1] - times[0], 1, entries)
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
    # S^n is powered as S^k - I, so P is the exact n-th power of the double
    # step matrix rounded once, up to about one ulp of the diagonal's 1s
    m = liouvillian_matrix(space3, SystemParams.symmetric(gamma_s))
    for family in ("psi", "phi"):
        init = make_initial(InitialStateSpec(family, 0.3), space3)
        entries = reachable_entries(m, init.rho_tilde)
        step = rk4_step_matrix(m[np.ix_(entries, entries)], 1e-3)
        for n_sub in (37, 100):
            prop, _ = interval_propagator(m, 1e-3, n_sub, entries)
            exact = np.linalg.matrix_power(step.astype(np.clongdouble), n_sub)
            assert np.abs(prop - exact).max() <= np.finfo(float).eps


@pytest.fixture()
def builds(monkeypatch):
    """Step of every RK4 step matrix evolve builds, rows of every trace
    table it builds."""
    record = SimpleNamespace(steps=[], rows=[])
    step, propagator = dynamics.rk4_step_matrix, dynamics.interval_propagator

    def recording_step(m, h):
        record.steps.append(h)
        return step(m, h)

    def recording_propagator(m, h, n_sub, entries):
        prop, rows = propagator(m, h, n_sub, entries)
        record.rows.append(len(rows))
        return prop, rows

    monkeypatch.setattr(dynamics, "rk4_step_matrix", recording_step)
    monkeypatch.setattr(dynamics, "interval_propagator", recording_propagator)
    return record


@pytest.fixture()
def checked_slices(monkeypatch):
    """(times, <N> carried in) of every run of points evolve checks."""
    calls = []
    check = dynamics._check_samples

    def recording(sub, times, weights, mirror, blocks, diagonal, block,
                  prev_expect_n, diag):
        calls.append((times.copy(), prev_expect_n))
        return check(sub, times, weights, mirror, blocks, diagonal, block,
                     prev_expect_n, diag)

    monkeypatch.setattr(dynamics, "_check_samples", recording)
    return calls


def test_dense_grid_builds_one_propagator(space3, builds, checked_slices):
    # linspace spacing jitters by ~1e-15 between intervals; one run still
    # builds exactly one RK4 step matrix, and each slice of CHECK_CHUNK
    # samples (four blocks of SAMPLE_CHUNK) starts from the <N> the slice
    # before it ended on
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 10.0, 10001)
    traj = evolve(init, space3, params, times)
    assert len(builds.steps) == 1
    assert traj.diagnostics.step_count == 10000
    assert CHECK_CHUNK % SAMPLE_CHUNK == 0
    assert [t[0] for t, _ in checked_slices] == list(times[::CHECK_CHUNK])
    assert [n for _, n in checked_slices] == [
        math.inf, *traj.expect_n[CHECK_CHUNK - 1:-1:CHECK_CHUNK]]


def test_power_table_stays_within_its_byte_budget(space3, monkeypatch,
                                                  checked_slices):
    # a generic state at n_fock = 4 reaches 144 of 256 entries, where a
    # SAMPLE_CHUNK-row table would take 42 MB; the blocks shrink instead,
    # and the checks take the whole blocks that fit in CHECK_CHUNK points
    tables = []
    build = dynamics.power_table

    def recording(p, n):
        tables.append(build(p, n))
        return tables[-1]

    monkeypatch.setattr(dynamics, "power_table", recording)
    space = build_space(4)
    params = SystemParams.symmetric(0.2, n_fock=4)
    init = _raw_state(space, 3)
    m = liouvillian_matrix(space, params)
    assert len(reachable_entries(m, init.rho_tilde)) == 144
    evolve(init, space, params, np.linspace(0.0, 1.0, 1001))
    rows = TABLE_BYTES // (16 * 144 ** 2)
    assert 0 < rows < SAMPLE_CHUNK
    assert [t.shape for t in tables] == [(rows, 144, 144)]
    assert tables[0].nbytes <= TABLE_BYTES
    span = CHECK_CHUNK // rows * rows
    assert span < CHECK_CHUNK
    assert [len(t) for t, _ in checked_slices] == [span] * 2 + [1]
    # psi at n_fock = 3 reaches 34 entries: full blocks
    tables.clear()
    evolve(make_initial(InitialStateSpec("psi", 0.3), space3), space3,
           SystemParams.symmetric(0.2), np.linspace(0.0, 1.0, 201))
    assert [t.shape for t in tables] == [(SAMPLE_CHUNK, 34, 34)]
    assert tables[0].nbytes <= TABLE_BYTES


def test_long_interval_is_cut_into_equal_segments(space3, builds,
                                                 checked_slices):
    # an interval longer than MAX_SEGMENT steps becomes equal segments of
    # one propagator, each end checked like a sample; only the requested
    # samples come back, and they agree with shorter sample intervals
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    one = evolve(init, space3, params, np.array([0.0, 10.0]))
    assert len(builds.steps) == len(builds.rows) == 1
    h, n_sub = builds.steps[0], builds.rows[0]
    assert 10000 > MAX_SEGMENT >= n_sub and h <= 1e-3
    assert one.diagnostics.step_count == 3 * n_sub
    checked = np.concatenate([t for t, _ in checked_slices])
    assert np.abs(checked - np.arange(4) * n_sub * h).max() <= 1e-12
    assert checked[-1] == 10.0 and len(one) == 2
    ten = evolve(init, space3, params, np.linspace(0.0, 10.0, 11))
    assert max(builds.rows) <= MAX_SEGMENT and max(builds.steps) <= 1e-3
    assert np.abs(one.reduced[-1] - ten.reduced[-1]).max() <= 1e-12
    # past the first slice of checks (CHECK_CHUNK is not a multiple of 3)
    # the samples are still every third segment end
    checked_slices.clear()
    coarse = evolve(init, space3, params, np.linspace(0.0, 1800.0, 181))
    assert [len(t) for t, _ in checked_slices] == [CHECK_CHUNK, 29]
    fine = evolve(init, space3, params, np.linspace(0.0, 1800.0, 541))
    assert CHECK_CHUNK % 3 and len(fine) > CHECK_CHUNK
    assert np.abs(coarse.reduced - fine.reduced[::3]).max() <= 1e-12
    assert np.abs(coarse.expect_n - fine.expect_n[::3]).max() <= 1e-12


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
    # equals a call without it, a call that changes nothing the builds
    # depend on builds no propagator, and any other change builds one
    psi = make_initial(InitialStateSpec("psi", 0.3, theta=0.4), space3)
    phi = make_initial(InitialStateSpec("phi", 0.3, theta=0.4), space3)
    short = np.linspace(0.0, 2.0, 21)    # 100 steps a sample
    long = np.linspace(0.0, 20.0, 201)   # same steps, a longer power table
    fine = np.linspace(0.0, 2.0, 41)     # 50 steps a sample
    calls = [(psi, 0.2, short, 1, 34),
             (psi, 0.2, short, 0, 34),   # a repeat of the first call
             (psi, 0.2, long, 0, 34),
             (psi, 0.2, short, 0, 34),   # a prefix of the longer table
             (phi, 0.2, short, 1, 10),
             (phi, 0.0, short, 1, 10),   # a zero rate thins out M
             (phi, 0.0, fine, 1, 10)]
    shared = {}
    for init, gamma_s, times, new, width in calls:
        params = SystemParams.symmetric(gamma_s)
        before = len(builds.steps), len(builds.rows)
        got = evolve(init, space3, params, times, store_full=True,
                     shared=shared)
        assert (len(builds.steps), len(builds.rows)) == (
            before[0] + new, before[1] + new)
        assert len(shared["entries"]) == width
        _assert_same_trajectory(got, evolve(init, space3, params, times,
                                            store_full=True))
    nonzero = [np.count_nonzero(liouvillian_matrix(space3, p))
               for p in map(SystemParams.symmetric, (0.0, 0.2))]
    assert nonzero[0] < nonzero[1]
    # the generator, entries, mirror, diagonal and two-qubit gathers,
    # propagator, trace rows and table; the blocks
    arrays = [v for v in shared.values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 8
    for a in arrays + list(shared["blocks"]):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_trace_rows_follow_each_step():
    # a physical generator preserves the trace, so every row of the table
    # is e^T up to rounding; a generic generator tells the rows apart
    rng = np.random.default_rng(5)
    m = (rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))) / 12
    v = rng.normal(size=144) + 1j * rng.normal(size=144)
    h, n_sub = 1e-2, 37
    prop, trace_rows = interval_propagator(m, h, n_sub, np.arange(144))
    step = rk4_step_matrix(m, h)
    traces = []
    w = v
    for _ in range(n_sub):
        w = step @ w
        traces.append(w[::13].sum())
    traces = np.array(traces)
    scale = np.abs(traces).max()
    assert np.abs(trace_rows @ v - traces).max() <= 1e-12 * scale
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


def _nan(rho):
    rho = rho.copy()
    rho[3, 3] = math.nan
    return rho


C = CHECK_CHUNK
# sample index -> how to corrupt it: a function of the state, or the index
# of an earlier (more excited) state to repeat there
CHUNK_CASES = {
    "hermiticity_in_second_chunk": {C + 5: _non_hermitian},
    "positivity_in_second_chunk": {C + 9: _negative},
    "gain_straddles_boundary": {C: C - 3},
    "gain_at_first_of_third_chunk": {2 * C: 2},
    "hermiticity_before_positivity": {
        C + 7: lambda rho: _negative(_non_hermitian(rho))},
    "earlier_gain_wins": {C + 2: C - 10, C + 20: _non_hermitian},
    "finite_first": {C + 3: _nan, C + 7: _non_hermitian},
    "hermiticity_before_later_nan": {C + 3: _non_hermitian, C + 4: _nan},
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_checks_report_the_per_sample_first_violation(space3, case):
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
    # outside are exactly 0
    rho = np.array(states)
    flat = rho.reshape(len(rho), -1)
    support = (flat != 0).any(axis=0)
    support |= support.reshape(space3.dim_total, -1).T.reshape(-1)
    entries = np.flatnonzero(support)
    mirror, blocks = slice_maps(entries, space3.dim_total)
    diagonal, _ = gather_maps(entries, space3.n_fock)
    weights = number_operator(space3).diagonal().real
    prev_expect_n = math.inf
    with pytest.raises(IntegrationError) as err:
        for lo in range(0, len(rho), C):
            prev_expect_n = _check_samples(
                flat[lo:lo + C, entries], times[lo:lo + C], weights, mirror,
                blocks, diagonal, SAMPLE_CHUNK, prev_expect_n,
                IntegrationDiagnostics())[0][-1]
    assert (err.value.invariant, err.value.time) == expected


def _generator(monkeypatch, m):
    monkeypatch.setattr(dynamics, "liouvillian_matrix",
                        lambda space, params: m)


def test_trace_failure_waits_for_earlier_samples(space3, monkeypatch):
    # a violation at a sample before the interval whose step breaks the
    # trace is reported first, as it would have been had it been checked
    # at once; the failing step comes before the sample that ends it
    rho = make_initial(InitialStateSpec("psi", 0.3), space3).rho_tilde
    params = SystemParams.symmetric(0.1)
    _generator(monkeypatch, -0.1 * np.eye(space3.dim_total ** 2))
    times = np.array([0.0, 1.0])
    monkeypatch.setattr(FullState, "validate", lambda self: None)
    with pytest.raises(IntegrationError) as err:
        evolve(FullState(_non_hermitian(rho)), space3, params, times)
    assert (err.value.invariant, err.value.time) == ("hermiticity", 0.0)
    with pytest.raises(IntegrationError) as err:
        evolve(FullState(rho), space3, params, times)
    assert err.value.invariant == "trace"
    assert err.value.time == pytest.approx(1e-3)


B = SAMPLE_CHUNK


@pytest.mark.parametrize("n_samples,step", [
    (3 * B + 1, 1270),  # last step of the first block
    (3 * B + 1, 1271),  # first step of the second block
    (3 * B + 1, 1280),  # last step into the second block's first sample
    (3 * B + 1, 1281),
    (2, 3335),          # first step of the second of three segments
    (2, 5000),
])
def test_trace_failure_time_across_blocks_and_segments(space3, monkeypatch,
                                                       n_samples, step):
    # the ground-state population eps grows by r = exp(0.1) per RK4 step
    # and nothing else moves, so the trace error after q steps is
    # eps (r^q - 1); eps puts TRACE_TOL half a step before `step`
    times = np.linspace(0.0, 10.0 if n_samples == 2 else 3.84, n_samples)
    total = round((times[1] - times[0]) / 1e-3)
    refine = math.ceil(total / MAX_SEGMENT)
    h = (times[1] - times[0]) / (refine * math.ceil(total / refine))
    ground = space3.flat_index(0, 0, 0) * (space3.dim_total + 1)
    m = np.zeros((space3.dim_total ** 2,) * 2)
    m[ground, ground] = 0.1 / h
    r = rk4_step_matrix(m, h)[ground, ground].real
    eps = TRACE_TOL / (r ** (step - 0.5) - 1.0)
    rho = np.zeros((space3.dim_total,) * 2, dtype=complex)
    rho[0, 0], rho[1, 1] = eps, 1.0 - eps
    assert rho.reshape(-1)[ground] == eps
    _generator(monkeypatch, m)
    with pytest.raises(IntegrationError) as err:
        evolve(FullState(rho), space3, SystemParams.symmetric(0.1), times)
    assert err.value.invariant == "trace"
    assert err.value.time == pytest.approx(step * h, rel=1e-12)


def test_sample_violation_wins_over_a_later_block_of_its_slice(
        space3, monkeypatch):
    # a slice is propagated block by block and checked once; a violation
    # at a sample of its first block must still win over a failing step
    # in its third block, as a step-by-step check would report it. The
    # ground population grows as in the test above and puts the failing
    # step at 3005; the coherence rho[1, 2] grows alone from 1e-12-ish, so
    # the hermiticity error crosses HERM_TOL half a sample before t[60]
    times = np.linspace(0.0, 3.84, 3 * B + 1)
    assert len(times) <= CHECK_CHUNK
    h = (times[1] - times[0]) / 10
    dim = space3.dim_total
    ground, coherence = 0, 1 * dim + 2
    m = np.zeros((dim ** 2,) * 2)
    m[ground, ground] = 0.1 / h
    step = rk4_step_matrix(m, h)[ground, ground].real
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = TRACE_TOL / (step ** 3004.5 - 1.0)
    rho[1, 1], rho[2, 2] = 0.5, 0.5 - rho[0, 0]
    _generator(monkeypatch, m)
    params = SystemParams.symmetric(0.1)
    with pytest.raises(IntegrationError) as err:
        evolve(FullState(rho), space3, params, times)
    assert err.value.invariant == "trace"
    assert err.value.time == pytest.approx(3005 * h, rel=1e-12)
    assert 2 * B * 10 < 3005 <= 3 * B * 10
    m[coherence, coherence] = 0.0077 / h
    grow = rk4_step_matrix(m, h)[coherence, coherence].real
    rho[1, 2] = rho[2, 1] = HERM_TOL / (grow ** 595 - 1.0)
    with pytest.raises(IntegrationError) as err:
        evolve(FullState(rho), space3, params, times)
    assert (err.value.invariant, err.value.time) == ("hermiticity", times[60])


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

    def test_dimension_mismatch(self, space3):
        params = SystemParams.symmetric(0.1)
        bad = FullState(rho_tilde=np.eye(8, dtype=complex) / 8.0)
        with pytest.raises(ValueError):
            evolve(bad, space3, params, np.array([0.0, 1.0]))

    def test_invalid_initial_state(self, space3):
        params = SystemParams.symmetric(0.1)
        bad = FullState(rho_tilde=np.eye(12, dtype=complex) * 0.075)
        with pytest.raises(IntegrationError) as err:
            evolve(bad, space3, params, np.array([0.0, 1.0]))
        assert err.value.invariant == "initial_state"

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


def test_overflow_past_an_unstable_step_reports_the_first_violation(space3):
    # a whole block is propagated before it is checked, so the states
    # overflow past the first bad sample; that sample must still be
    # reported, as a sample-by-sample run reports it, without a
    # floating-point warning
    params = SystemParams.symmetric(6.0, gamma_cavity=4.0)
    init = make_initial(InitialStateSpec("psi", 0.5), space3)
    times = np.linspace(0.0, 2.0 * C, 2 * C + 1)
    with pytest.raises(IntegrationError) as err:
        evolve(init, space3, params, times, step_size=1.0)
    assert (err.value.invariant, err.value.time) == ("positivity", 1.0)


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
