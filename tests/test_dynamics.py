import math
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
)
from pseudomode import dynamics
from pseudomode.dynamics import (
    EIG_FLOOR,
    EXCITATION_GAIN_TOL,
    HERM_TOL,
    MAX_SEGMENT,
    SAMPLE_CHUNK,
    TRACE_TOL,
    IntegrationDiagnostics,
    _check_samples,
    _excitation_weights,
    interval_propagator,
    rk4_step_matrix,
)
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
    ref = partial_trace_cavity(expected, space3).rho
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
    _, trace_rows = interval_propagator(m, h, n_sub)
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


@pytest.fixture()
def builds(monkeypatch):
    """Step of every RK4 step matrix evolve builds, rows of every trace
    table it builds."""
    record = SimpleNamespace(steps=[], rows=[])
    step, propagator = dynamics.rk4_step_matrix, dynamics.interval_propagator

    def recording_step(m, h):
        record.steps.append(h)
        return step(m, h)

    def recording_propagator(m, h, n_sub):
        prop, rows = propagator(m, h, n_sub)
        record.rows.append(len(rows))
        return prop, rows

    monkeypatch.setattr(dynamics, "rk4_step_matrix", recording_step)
    monkeypatch.setattr(dynamics, "interval_propagator", recording_propagator)
    return record


@pytest.fixture()
def checked_blocks(monkeypatch):
    """(times, <N> carried in) of every block evolve checks."""
    calls = []
    check = dynamics._check_samples

    def recording(rho, times, weights, prev_expect_n, diag):
        calls.append((times.copy(), prev_expect_n))
        return check(rho, times, weights, prev_expect_n, diag)

    monkeypatch.setattr(dynamics, "_check_samples", recording)
    return calls


def test_dense_grid_builds_one_propagator(space3, builds, checked_blocks):
    # linspace spacing jitters by ~1e-15 between intervals; one run still
    # builds exactly one RK4 step matrix, and each block of SAMPLE_CHUNK
    # samples starts from the <N> the block before it ended on
    params = SystemParams.symmetric(0.2)
    init = make_initial(InitialStateSpec("psi", 0.3), space3)
    times = np.linspace(0.0, 10.0, 10001)
    traj = evolve(init, space3, params, times)
    assert len(builds.steps) == 1
    assert traj.diagnostics.step_count == 10000
    assert [t[0] for t, _ in checked_blocks] == list(times[::SAMPLE_CHUNK])
    assert [n for _, n in checked_blocks] == [
        math.inf, *traj.expect_n[SAMPLE_CHUNK - 1:-1:SAMPLE_CHUNK]]


def test_long_interval_is_cut_into_equal_segments(space3, builds,
                                                 checked_blocks):
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
    checked = np.concatenate([t for t, _ in checked_blocks])
    assert np.abs(checked - np.arange(4) * n_sub * h).max() <= 1e-12
    assert checked[-1] == 10.0 and len(one) == 2
    ten = evolve(init, space3, params, np.linspace(0.0, 10.0, 11))
    assert max(builds.rows) <= MAX_SEGMENT and max(builds.steps) <= 1e-3
    assert np.abs(one.reduced[-1] - ten.reduced[-1]).max() <= 1e-12
    # past the first block (SAMPLE_CHUNK is not a multiple of 3) the
    # samples are still every third segment end
    coarse = evolve(init, space3, params, np.linspace(0.0, 490.0, 50))
    fine = evolve(init, space3, params, np.linspace(0.0, 490.0, 148))
    assert SAMPLE_CHUNK % 3 and len(fine) > SAMPLE_CHUNK
    assert np.abs(coarse.reduced - fine.reduced[::3]).max() <= 1e-12
    assert np.abs(coarse.expect_n - fine.expect_n[::3]).max() <= 1e-12


def test_trace_rows_follow_each_step():
    # a physical generator preserves the trace, so every row of the table
    # is e^T up to rounding; a generic generator tells the rows apart
    rng = np.random.default_rng(5)
    m = (rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))) / 12
    v = rng.normal(size=144) + 1j * rng.normal(size=144)
    h, n_sub = 1e-2, 37
    prop, trace_rows = interval_propagator(m, h, n_sub)
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


C = SAMPLE_CHUNK
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

    # the blocks evolve checks, with <N> carried from one to the next
    rho = np.array(states)
    weights = _excitation_weights(space3)
    prev_expect_n = math.inf
    with pytest.raises(IntegrationError) as err:
        for lo in range(0, len(rho), C):
            prev_expect_n = _check_samples(
                rho[lo:lo + C], times[lo:lo + C], weights, prev_expect_n,
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


@pytest.mark.parametrize("n_samples,step", [
    (3 * C + 1, 1270),  # last step of the first block
    (3 * C + 1, 1271),  # first step of the second block
    (3 * C + 1, 1280),  # last step into the second block's first sample
    (3 * C + 1, 1281),
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
