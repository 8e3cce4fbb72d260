import math

import numpy as np
import pytest

from pseudomode import SystemParams, evolve, make_initial
from pseudomode.entanglement import (
    concurrence_general,
    concurrence_x_state,
    partial_trace_cavity,
)
from pseudomode.states import InitialStateSpec, _qubit_pure_vector


def reduced_of(spec, space):
    return partial_trace_cavity(make_initial(spec, space), space)


class TestSpecValidation:
    def test_family(self):
        with pytest.raises(ValueError):
            InitialStateSpec("bell", 0.5)

    def test_alpha2_range(self):
        with pytest.raises(ValueError):
            InitialStateSpec("psi", -0.01)
        with pytest.raises(ValueError):
            InitialStateSpec("psi", 1.01)
        InitialStateSpec("psi", 0.0)
        InitialStateSpec("psi", 1.0)

    def test_r_range(self):
        with pytest.raises(ValueError):
            InitialStateSpec("werner_psi", 0.5, r=-0.1)
        with pytest.raises(ValueError):
            InitialStateSpec("werner_psi", 0.5, r=1.1)

    def test_theta_must_be_finite(self):
        with pytest.raises(ValueError):
            InitialStateSpec("psi", 0.5, theta=math.inf)


class TestMakeInitial:
    def test_psi_alpha2_one_is_ground(self, space3):
        state = make_initial(InitialStateSpec("psi", 1.0), space3)
        assert state.rho_tilde[0, 0] == 1.0
        assert np.count_nonzero(state.rho_tilde) == 1
        assert concurrence_x_state(reduced_of(InitialStateSpec("psi", 1.0),
                                              space3)).c == 0.0

    def test_psi_bell_point(self, space3):
        rho = reduced_of(InitialStateSpec("psi", 0.5, theta=0.0), space3)
        assert concurrence_x_state(rho).c == pytest.approx(1.0, abs=1e-14)
        assert concurrence_general(rho).c == pytest.approx(1.0, abs=1e-12)

    def test_werner_r_zero_is_maximally_mixed(self, space3):
        state = make_initial(InitialStateSpec("werner_psi", 0.5, r=0.0), space3)
        rho = partial_trace_cavity(state, space3)
        assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-15
        assert concurrence_general(rho).c == 0.0

    def test_phi_composite_amplitudes(self, space3):
        a2, th = 0.3, 0.8
        state = make_initial(InitialStateSpec("phi", a2, theta=th), space3)
        rho = state.rho_tilde
        i10 = space3.flat_index(1, 0, 0)
        i01 = space3.flat_index(0, 1, 0)
        assert rho[i10, i10] == pytest.approx(a2)
        assert rho[i01, i01] == pytest.approx(1.0 - a2)
        expected = math.sqrt(a2) * math.sqrt(1 - a2) * np.exp(-1j * th)
        assert rho[i10, i01] == pytest.approx(expected)

    def test_psi_composite_amplitudes(self, space3):
        a2 = 0.7
        state = make_initial(InitialStateSpec("psi", a2, theta=0.0), space3)
        rho = state.rho_tilde
        i00 = space3.flat_index(0, 0, 0)
        i11 = space3.flat_index(1, 1, 0)
        assert rho[i00, i00] == pytest.approx(a2)
        assert rho[i11, i11] == pytest.approx(1.0 - a2)

    def test_cavity_starts_in_vacuum(self, space3):
        state = make_initial(InitialStateSpec("werner_psi", 0.4, r=0.7), space3)
        rho = state.rho_tilde.reshape(2, 2, 3, 2, 2, 3)
        mode = np.einsum("abnabm->nm", rho)
        assert mode[0, 0] == pytest.approx(1.0)
        assert np.abs(mode[1:, :]).max() == 0.0

    def test_werner_mixture_structure(self, space3):
        a2, th, r = 0.3, 1.1, 0.6
        pure = reduced_of(InitialStateSpec("psi", a2, theta=th), space3)
        mixed = reduced_of(InitialStateSpec("werner_psi", a2, theta=th, r=r),
                           space3)
        assert np.abs(mixed - (r * pure + (1 - r) * np.eye(4) / 4.0)).max() < 1e-15

    def test_initial_state_is_valid(self, space3):
        for family in ("phi", "psi", "werner_psi"):
            state = make_initial(InitialStateSpec(family, 0.25, 0.3, 0.5),
                                 space3)
            state.validate()
            assert state.time == 0.0

    @pytest.mark.parametrize("family", ["phi", "psi", "werner_psi"])
    def test_same_bits_as_kron_with_the_vacuum(self, space3, family):
        # the broadcast product makes the products np.kron makes, so each
        # state has its bits, signed zeros included
        vacuum = np.zeros((3, 3), dtype=complex)
        vacuum[0, 0] = 1.0
        for theta in (0.0, 0.4, math.pi / 2, math.pi, -0.7, 3 * math.pi / 2):
            for a2 in (0.0, 0.1, 0.5, 0.9, 1.0):
                spec = InitialStateSpec(family, a2, theta, r=0.6)
                v = _qubit_pure_vector(spec)
                rho_q = np.outer(v, v.conj())
                if family == "werner_psi":
                    rho_q = spec.r * rho_q + (1.0 - spec.r) * np.eye(4) / 4.0
                got = make_initial(spec, space3).rho_tilde
                assert got.tobytes() == np.kron(rho_q, vacuum).tobytes(), (
                    theta, a2)


def test_initial_concurrence_formula(space3):
    # C(0) = 2 sqrt(alpha2 (1 - alpha2)) for both pure families, any theta
    for family in ("phi", "psi"):
        for a2 in (0.1, 0.25, 0.5, 0.8):
            for th in (0.0, 1.3, math.pi):
                rho = reduced_of(InitialStateSpec(family, a2, theta=th), space3)
                expected = 2.0 * math.sqrt(a2 * (1.0 - a2))
                assert concurrence_x_state(rho).c == pytest.approx(
                    expected, abs=1e-12)
                assert concurrence_general(rho).c == pytest.approx(
                    expected, abs=1e-10)


def test_quarter_turn_phases_are_exact(space3):
    # a whole number of quarter turns gives the exact phase 1, i, -1 or -i,
    # not np.exp's -1 + 1.2e-16 i at pi: phi and psi at theta = pi are then
    # exactly real, stay real in the photon-number gauge, and every sample
    # takes the real positivity blocks
    beta = math.sqrt(0.7)
    for theta, phase in ((0.0, 1), (math.pi / 2, 1j), (math.pi, -1),
                         (3 * math.pi / 2, -1j), (2 * math.pi, 1),
                         (-math.pi / 2, -1j), (-math.pi, -1)):
        v = _qubit_pure_vector(InitialStateSpec("psi", 0.3, theta=theta))
        assert v[3] == beta * phase, theta
    params = SystemParams.symmetric(0.2)
    times = np.linspace(0.0, 2.0, 201)
    for family in ("phi", "psi"):
        init = make_initial(InitialStateSpec(family, 0.3, theta=math.pi),
                            space3)
        assert not init.rho_tilde.imag.any(), family
        assert init.rho_tilde.real.min() == -math.sqrt(0.3) * beta, family
        traj = evolve(init, space3, params, times)
        assert traj.diagnostics.real_block_samples == len(times), family


def test_theta_does_not_change_concurrence_dynamics(space3):
    # short-time version of the phase-independence property
    params = SystemParams.symmetric(0.02)
    times = np.linspace(0.0, 10.0, 51)
    series = []
    for th in (0.0, math.pi / 2):
        init = make_initial(InitialStateSpec("psi", 0.3, theta=th), space3)
        traj = evolve(init, space3, params, times)
        series.append(np.array([concurrence_x_state(traj.reduced[i]).c
                                for i in range(len(times))]))
    assert np.abs(series[0] - series[1]).max() <= 1e-9
