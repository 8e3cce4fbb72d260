import math
import warnings

import numpy as np
import pytest

from conftest import random_density_matrix, random_x_state
from pseudomode.dynamics import evolve
from pseudomode.entanglement import (
    _CHECK_SLICE,
    X_TOLERANCE,
    _input_errors,
    concurrence_general,
    concurrence_x_state,
    independent_decay_concurrence,
    independent_decay_death_time,
    partial_trace_cavity,
    x_form_deviation,
)
from pseudomode.operators import SystemParams, build_space
from pseudomode.states import InitialStateSpec, make_initial


def bell_psi_plus() -> np.ndarray:
    # (|01> + |10>)/sqrt(2) in the {|00>,|10>,|01>,|11>} ordering
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


def bell_phi_plus() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


# reduced index k = i_a + 2*i_b; A-major kron index j = 2*i_a + i_b
_KRON_FROM_REDUCED = [0, 2, 1, 3]


def to_kron_layout(rho4: np.ndarray) -> np.ndarray:
    p = _KRON_FROM_REDUCED
    return rho4[np.ix_(p, p)]


class TestPartialTrace:
    def test_product_with_vacuum(self, space3):
        rng = np.random.default_rng(7)
        rho_q = random_density_matrix(rng, 4)
        vac = np.zeros((3, 3), dtype=complex)
        vac[0, 0] = 1.0
        full = np.kron(to_kron_layout(rho_q), vac)
        out = partial_trace_cavity(full, space3)
        assert isinstance(out, np.ndarray) and out.shape == (4, 4)
        assert np.abs(out - rho_q).max() < 1e-15

    def test_maximally_mixed(self, space3):
        full = np.eye(12, dtype=complex) / 12.0
        out = partial_trace_cavity(full, space3)
        assert np.abs(out - np.eye(4) / 4.0).max() < 1e-15

    def test_single_excitation_superposition(self, space3):
        # (|100> + |001>)/sqrt(2): the photon branch traces to |00>, so the
        # reduced state has no coherence between |10> and |00>
        v = np.zeros(12, dtype=complex)
        v[space3.flat_index(1, 0, 0)] = 1.0 / math.sqrt(2.0)
        v[space3.flat_index(0, 0, 1)] = 1.0 / math.sqrt(2.0)
        out = partial_trace_cavity(np.outer(v, v.conj()), space3)
        assert out[1, 1] == pytest.approx(0.5)
        assert out[0, 0] == pytest.approx(0.5)
        assert abs(out[1, 0]) < 1e-15
        assert abs(out[2, 2]) < 1e-15

    def test_trace_preserved(self, space3):
        rng = np.random.default_rng(11)
        full = random_density_matrix(rng, 12)
        out = partial_trace_cavity(full, space3)
        assert abs(np.trace(out) - 1.0) < 1e-14

    def test_dimension_mismatch(self, space3):
        with pytest.raises(ValueError):
            partial_trace_cavity(np.eye(10, dtype=complex) / 10.0, space3)

    def test_accepts_int_cutoff(self):
        full = np.eye(8, dtype=complex) / 8.0
        out = partial_trace_cavity(full, 2)
        assert np.abs(out - np.eye(4) / 4.0).max() < 1e-15


class TestConcurrenceGeneral:
    def test_bell_state(self):
        assert concurrence_general(bell_psi_plus()).c == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence_general(np.eye(4, dtype=complex) / 4.0).c == 0.0

    def test_werner_cross_check(self):
        rho = 0.6 * bell_psi_plus() + 0.4 * np.eye(4) / 4.0
        g = concurrence_general(rho)
        x = concurrence_x_state(rho)
        assert abs(g.c - x.c) <= 1e-10
        assert g.c == pytest.approx(0.4, abs=1e-12)

    def test_report_fields(self):
        rep = concurrence_general(bell_psi_plus())
        assert rep.path == "general"
        assert rep.lambdas is not None and len(rep.lambdas) == 4
        assert rep.c1 is None and rep.c2 is None
        # spectrum sorted decreasing
        assert np.all(np.diff(rep.lambdas) <= 0)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.3
        with pytest.raises(ValueError):
            concurrence_general(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            concurrence_general(np.eye(4, dtype=complex) * 0.225)

    def test_rejects_negative_state(self):
        rho = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError):
            concurrence_general(rho)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density_matrix(rng, 4)
            c0 = concurrence_general(rho).c
            us = []
            for _ in range(2):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                q, r = np.linalg.qr(g)
                us.append(q * (np.diag(r) / np.abs(np.diag(r))))
            # basis is i_a + 2*i_b, so A varies fastest: U = U_b (x) U_a
            u = np.kron(us[1], us[0])
            c1 = concurrence_general(u @ rho @ u.conj().T).c
            assert abs(c0 - c1) <= 1e-10

    def test_mixing_monotonicity(self):
        values = []
        for r in np.linspace(0.0, 1.0, 11):
            rho = r * bell_psi_plus() + (1.0 - r) * np.eye(4) / 4.0
            values.append(concurrence_general(rho).c)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestConcurrenceXState:
    def test_two_photon_bell(self):
        rep = concurrence_x_state(bell_phi_plus())
        assert rep.c == pytest.approx(1.0, abs=1e-14)
        assert rep.path == "x_state"
        assert rep.c1 == pytest.approx(1.0, abs=1e-14)
        assert rep.lambdas is None

    def test_diagonal_state(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert concurrence_x_state(rho).c == 0.0

    def test_rejects_non_x(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = 0.1
        with pytest.raises(ValueError):
            concurrence_x_state(rho)

    def test_x_tolerance_is_configurable(self):
        rho = bell_phi_plus()
        rho[0, 1] = rho[1, 0] = 1e-10
        concurrence_x_state(rho)  # inside X_TOLERANCE
        rho[0, 1] = rho[1, 0] = 1e-8
        with pytest.raises(ValueError, match="not an X state"):
            concurrence_x_state(rho)
        assert X_TOLERANCE == 1e-9

    def test_dual_path_on_random_states(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            rho = random_x_state(rng)
            gap = abs(concurrence_x_state(rho).c - concurrence_general(rho).c)
            assert gap <= 1e-10

    def test_dual_path_on_pure_states(self):
        # rank-deficient input is the hard case for the general path
        rng = np.random.default_rng(5)
        for _ in range(25):
            a2 = rng.uniform(0.05, 0.95)
            th = rng.uniform(0, 2 * np.pi)
            v = np.zeros(4, dtype=complex)
            v[0] = math.sqrt(a2)
            v[3] = math.sqrt(1 - a2) * np.exp(1j * th)
            rho = np.outer(v, v.conj())
            gap = abs(concurrence_x_state(rho).c - concurrence_general(rho).c)
            assert gap <= 1e-10

    @pytest.mark.parametrize("gamma_s, t_max, n_steps",
                             [(2.0, 30.0, 3000), (0.02, 150.0, 1500)])
    def test_dual_path_on_evolved_states(self, space3, gamma_s, t_max,
                                         n_steps):
        # evolved states are nearly rank deficient (P(11) and the bright
        # population decay to ~1e-12 and below); a square root taken of a
        # rounded near-zero eigenvalue of R shows up here as ~1e-6 error
        times = np.linspace(0.0, t_max, n_steps + 1)
        state = make_initial(InitialStateSpec("psi", 0.05), space3)
        traj = evolve(state, space3, SystemParams.symmetric(gamma_s), times)
        gap = np.abs(concurrence_x_state(traj.reduced).c
                     - concurrence_general(traj.reduced).c).max()
        assert gap <= 1e-10, f"dual-path gap {gap:.3e} on an evolved state"


def test_x_form_deviation():
    rho = bell_phi_plus()
    assert x_form_deviation(rho) == 0.0
    rho[1, 3] = 1e-4
    assert x_form_deviation(rho) == pytest.approx(1e-4)


def test_stacked_forms_equal_the_per_matrix_loop(space3):
    # the sweep and the sampler reduce and evaluate whole stacks; each
    # stacked result must be bit-for-bit the per-matrix one
    rng = np.random.default_rng(11)
    full = np.stack([random_density_matrix(rng, space3.dim_total)
                     for _ in range(6)])
    reduced = partial_trace_cavity(full, space3)
    assert reduced.shape == (6, 4, 4)
    for rho, one in zip(full, reduced):
        assert np.array_equal(partial_trace_cavity(rho, space3), one)

    xs = np.stack([random_x_state(rng) for _ in range(50)])
    stacked = concurrence_x_state(xs)
    assert stacked.c.shape == stacked.c1.shape == stacked.c2.shape == (50,)
    for i, rho in enumerate(xs):
        rep = concurrence_x_state(rho)
        assert (rep.c, rep.c1, rep.c2) == (stacked.c[i], stacked.c1[i],
                                           stacked.c2[i])
    off = xs.copy()
    off[17, 1, 3] = off[17, 3, 1] = 1e-4
    assert x_form_deviation(off) == max(x_form_deviation(r) for r in off)
    with pytest.raises(ValueError, match="not an X state"):
        concurrence_x_state(off)

    # random full-rank states, and an evolved trajectory whose P(11) and
    # bright population decay to ~1e-12 and below (near rank deficient)
    state = make_initial(InitialStateSpec("psi", 0.05), space3)
    traj = evolve(state, space3, SystemParams.symmetric(2.0),
                  np.linspace(0.0, 30.0, 301))
    for stack in (np.stack([random_density_matrix(rng, 4)
                            for _ in range(50)]), traj.reduced):
        stacked = concurrence_general(stack)
        assert stacked.c.shape == (len(stack),)
        assert stacked.lambdas.shape == (len(stack), 4)
        loop = [concurrence_general(rho) for rho in stack]
        assert np.array_equal(stacked.c, [rep.c for rep in loop])
        assert np.array_equal(stacked.lambdas, [rep.lambdas for rep in loop])

    for bad, match in (((31, 0, 1), "Hermitian"), ((40, 0, 0), "trace")):
        # one bad matrix rejects the stack, on both paths
        stack = xs.copy()
        stack[bad] += 1e-6
        for concurrence in (concurrence_x_state, concurrence_general):
            with pytest.raises(ValueError, match=match):
                concurrence(stack)
    stack = xs.copy()
    stack[23] = np.diag([0.6, 0.5, -0.05, -0.05])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        concurrence_general(stack)


def test_long_stack_reports_its_largest_hermiticity_gap():
    # the check takes a long stack a slice at a time; the gap it reports is
    # the largest of the whole stack, wherever that lies
    n = 2 * _CHECK_SLICE + 5
    stack = np.stack([random_x_state(np.random.default_rng(12))] * n)
    for where, size in ((3, 2e-6), (_CHECK_SLICE, 5e-6), (n - 1, 7e-6)):
        stack[where, 0, 3] += size
    gap = np.abs(stack - stack.conj().swapaxes(-1, -2)).max()
    assert gap == np.abs(stack[n - 1] - stack[n - 1].conj().T).max()
    for concurrence in (concurrence_x_state, concurrence_general):
        with pytest.raises(ValueError, match=f"deviation {gap:.3g}$"):
            concurrence(stack)
        concurrence(stack[_CHECK_SLICE + 1:n - 1])  # no planted gap


@np.errstate(invalid="ignore", over="ignore")
def _input_errors_all_entries(rho: np.ndarray) -> np.ndarray:
    """_input_errors with every one of the 16 entries read against its
    transpose: the reference the entry pairs must match bit for bit."""
    flat = rho.reshape(-1, 16)
    errors = np.zeros((3, len(flat)))
    if not np.isfinite(flat.sum()):
        errors[0] = ~np.isfinite(flat.T).all(axis=0)
    transposed = np.arange(16).reshape(4, 4).T.reshape(-1)
    for lo in range(0, len(flat), _CHECK_SLICE):
        part = flat[lo:lo + _CHECK_SLICE].T
        np.abs(part - part[transposed].conj()).max(
            axis=0, out=errors[1, lo:lo + _CHECK_SLICE])
    errors[2] = np.abs(rho.trace(axis1=1, axis2=2) - 1.0)
    return errors


def test_input_errors_read_each_entry_pair_once():
    # the hermiticity deviation taken over the 10 entries (i, j), i <= j,
    # against their transposes is that over all 16, bit for bit, as are
    # the other two rows: on real and complex stacks longer than one check
    # slice, with gaps of either sign, imaginary diagonals, and NaN, +inf
    # and -inf in real and imaginary parts, alone or facing each other
    rng = np.random.default_rng(31)
    n = _CHECK_SLICE + 8
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(n)])
    stack += 1e-9 * (rng.standard_normal((n, 4, 4))
                     + 1j * rng.standard_normal((n, 4, 4)))
    plants = [(math.nan, 0), (math.inf, 0), (-math.inf, 0), (math.nan, 1),
              (math.inf, 1), (-math.inf, 1)]
    for where in rng.choice(n, 60, replace=False):
        i, j = rng.integers(4, size=2)
        for _ in range(rng.integers(1, 3)):  # sometimes its transpose too
            value, imag = plants[rng.integers(len(plants))]
            if imag:
                stack[where, i, j] = stack[where, i, j].real + 1j * value
            else:
                stack[where, i, j] = value + 1j * stack[where, i, j].imag
            i, j = j, i
    assert np.isnan(_input_errors_all_entries(stack)[1]).sum() > 10
    for rho in (stack, stack.real.copy()):
        expected = _input_errors_all_entries(rho)
        assert expected[1, -1] > 0 and np.isinf(expected[1]).any()
        assert _input_errors(rho).tobytes() == expected.tobytes()


@pytest.mark.parametrize("concurrence",
                         [concurrence_x_state, concurrence_general])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_input_is_rejected(concurrence, stacked, value):
    # NaN fails every comparison and inf turns the Hermiticity check into
    # inf - inf, so both must be caught before any check runs
    rng = np.random.default_rng(3)
    rho = np.stack([random_x_state(rng) for _ in range(5)])
    rho[2, 3, 0] = rho[2, 0, 3] = value
    if not stacked:
        rho = rho[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            concurrence(rho)


class TestIndependentDecayOracle:
    def test_spot_values(self):
        # alpha2 = 1/4, rate 1: C(0) = sqrt(3)/2, C(ln 2) evaluated by hand
        assert independent_decay_concurrence(0.25, 1.0, 0.0) == pytest.approx(
            0.8660254037844386, abs=1e-15)
        assert independent_decay_concurrence(0.25, 1.0, math.log(2.0)) == pytest.approx(
            0.0580127018922193, abs=1e-15)
        assert independent_decay_concurrence(0.4, 2.0, 0.3) == pytest.approx(
            0.24058248031475954, abs=1e-15)

    def test_death_time(self):
        td = independent_decay_death_time(0.25, 1.0)
        assert td == pytest.approx(0.8612115025164905, abs=1e-12)
        # zero at and after the root, positive before
        assert independent_decay_concurrence(0.25, 1.0, td + 1e-9) == 0.0
        assert independent_decay_concurrence(0.25, 1.0, td - 1e-3) > 0.0
        assert independent_decay_death_time(0.5, 1.0) is None
        assert independent_decay_death_time(0.7, 1.0) is None
        assert independent_decay_death_time(0.25, 0.0) is None
        assert independent_decay_death_time(0.0, 1.0) == 0.0

    def test_matches_amplitude_damping_kraus_map(self):
        # independent check: apply the single-qubit amplitude-damping channel
        # to each qubit of alpha|00> + beta|11| and run the general algorithm
        rng = np.random.default_rng(31)
        for _ in range(20):
            a2 = rng.uniform(0.0, 1.0)
            g, t = rng.uniform(0.2, 2.0), rng.uniform(0.0, 3.0)
            p = 1.0 - math.exp(-g * t)
            k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
            k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
            v = np.zeros(4, dtype=complex)
            v[0], v[3] = math.sqrt(a2), math.sqrt(1.0 - a2)
            rho = np.outer(v, v.conj())
            out = np.zeros_like(rho)
            for ka in (k0, k1):
                for kb in (k0, k1):
                    # basis i_a + 2*i_b: A is the fast factor
                    k = np.kron(kb, ka)
                    out += k @ rho @ k.conj().T
            expected = concurrence_general(out).c
            got = float(independent_decay_concurrence(a2, g, t))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            independent_decay_concurrence(1.2, 1.0, 0.0)
        with pytest.raises(ValueError):
            independent_decay_concurrence(0.5, -1.0, 0.0)
        with pytest.raises(ValueError):
            independent_decay_death_time(-0.1, 1.0)
        # a rate that is not finite and >= 0 must not pass as a reference
        for rate in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="gamma_s"):
                independent_decay_concurrence(0.3, rate, np.arange(3.0))
            with pytest.raises(ValueError, match="gamma_s"):
                independent_decay_death_time(0.3, rate)


def test_evolution_preserves_x_form(space3):
    # any X-form initial stays X-form under the master equation
    from pseudomode import SystemParams, evolve, make_initial
    from pseudomode.states import InitialStateSpec

    params = SystemParams.symmetric(0.1)
    times = np.linspace(0.0, 10.0, 51)
    for family, a2 in (("psi", 0.3), ("phi", 0.7), ("werner_psi", 0.5)):
        spec = InitialStateSpec(family, a2, theta=0.9, r=0.8)
        traj = evolve(make_initial(spec, space3), space3, params, times)
        assert x_form_deviation(traj.reduced) <= 1e-9
