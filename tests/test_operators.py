import math
import warnings

import numpy as np
import pytest

from pseudomode.operators import (
    SystemParams,
    annihilation,
    build_hamiltonian,
    build_space,
    creation,
    number_operator,
    operator_tables,
    sigma,
)


def test_flat_index_contract(space3):
    # photon index fastest, qubit A slowest, ground = 0
    assert space3.flat_index(0, 0, 0) == 0
    assert space3.flat_index(0, 0, 1) == 1
    assert space3.flat_index(0, 1, 0) == 3
    assert space3.flat_index(1, 0, 0) == 6
    assert space3.flat_index(1, 1, 0) == 9
    assert space3.dim_total == 12


def test_unflatten_round_trip(space3):
    for flat in range(space3.dim_total):
        assert space3.flat_index(*space3.unflatten(flat)) == flat


def test_index_bounds(space3):
    with pytest.raises(IndexError):
        space3.flat_index(0, 0, 3)
    with pytest.raises(IndexError):
        space3.flat_index(2, 0, 0)
    with pytest.raises(IndexError):
        space3.unflatten(12)


def test_build_space_rejects_zero_cutoff():
    with pytest.raises(ValueError):
        build_space(0)
    with pytest.raises(ValueError):
        build_space(-1)


def test_annihilation_matrix_elements(space3):
    a = annihilation(space3)
    ket = space3.flat_index
    assert a[ket(0, 0, 0), ket(0, 0, 1)] == pytest.approx(1.0)
    assert a[ket(0, 0, 1), ket(0, 0, 2)] == pytest.approx(math.sqrt(2.0))
    assert a[ket(1, 0, 0), ket(1, 0, 1)] == pytest.approx(1.0)
    # truncation: a^3 annihilates everything at n_fock = 3
    assert np.abs(np.linalg.matrix_power(a, 3)).max() == 0.0
    assert np.allclose(creation(space3), a.conj().T)


def test_sigma_matrix_elements(space3):
    ket = space3.flat_index
    sm_a = sigma(space3, "A", "lower")
    sm_b = sigma(space3, "B", "lower")
    assert sm_a[ket(0, 0, 0), ket(1, 0, 0)] == 1.0
    assert sm_a[ket(0, 1, 2), ket(1, 1, 2)] == 1.0
    assert sm_b[ket(0, 0, 0), ket(0, 1, 0)] == 1.0
    assert sm_b[ket(1, 0, 1), ket(1, 1, 1)] == 1.0
    # lowering twice on the same qubit gives zero
    assert np.abs(sm_a @ sm_a).max() == 0.0
    assert np.allclose(sigma(space3, "A", "raise"), sm_a.conj().T)


def test_sigma_rejects_bad_labels(space3):
    with pytest.raises(ValueError):
        sigma(space3, "C", "lower")
    with pytest.raises(ValueError):
        sigma(space3, "A", "down")


def test_number_operator(space3):
    n_op = number_operator(space3)
    diag = np.real(np.diag(n_op))
    for flat in range(space3.dim_total):
        i_a, i_b, n = space3.unflatten(flat)
        assert diag[flat] == i_a + i_b + n
    assert np.abs(n_op - np.diag(np.diag(n_op))).max() == 0.0


@pytest.mark.parametrize("n_fock", range(1, 9))
def test_number_operator_matches_the_label_loop(n_fock):
    space = build_space(n_fock)
    weights = [sum(space.unflatten(k)) for k in range(space.dim_total)]
    expected = np.diag(np.array(weights, dtype=complex))
    n_op = number_operator(space)
    assert n_op.dtype == expected.dtype
    assert np.array_equal(n_op.view(np.int64), expected.view(np.int64))
    assert np.array_equal(operator_tables(n_fock).weights, weights)


@pytest.mark.parametrize("n_fock", [1, 3, 5])
def test_operator_tables(n_fock):
    # built once per n_fock, from the same operators a fresh build makes,
    # and read-only, because every caller shares them
    space = build_space(n_fock)
    tables = operator_tables(n_fock)
    assert operator_tables(n_fock) is tables
    ops = (annihilation(space), sigma(space, "A", "lower"),
           sigma(space, "B", "lower"))
    assert len(tables.jumps) == len(ops)
    for (op, ld), expected in zip(tables.jumps, ops):
        assert np.array_equal(op, expected)
        assert np.array_equal(ld, expected.conj().T @ expected)
    a = annihilation(space)
    sp = sigma(space, "A", "raise") + sigma(space, "B", "raise")
    assert np.array_equal(tables.coupling, sp @ a)
    arrays = [tables.weights, tables.coupling] + [
        x for pair in tables.jumps for x in pair]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = 7.0


def test_hamiltonian_keeps_the_bits_of_the_operator_product(space3):
    a = annihilation(space3)
    sp = sigma(space3, "A", "raise") + sigma(space3, "B", "raise")
    for omega in (0.2, -1.7, 3.3e-5, 0.0):
        half = omega * (sp @ a)
        expected = half + half.conj().T
        h = build_hamiltonian(space3, SystemParams.symmetric(0.1, omega))
        assert np.array_equal(h.view(np.int64), expected.view(np.int64))


def test_hamiltonian_elements(space3):
    params = SystemParams.symmetric(0.0, omega=0.2)
    h = build_hamiltonian(space3, params)
    ket = space3.flat_index
    assert h[ket(1, 0, 0), ket(0, 0, 1)] == pytest.approx(0.2)
    assert h[ket(0, 1, 0), ket(0, 0, 1)] == pytest.approx(0.2)
    assert h[ket(1, 0, 1), ket(0, 0, 2)] == pytest.approx(0.2 * math.sqrt(2.0))
    assert np.abs(h - h.conj().T).max() == 0.0


def test_hamiltonian_conserves_excitation(space3):
    h = build_hamiltonian(space3, SystemParams.symmetric(0.3, omega=0.7))
    n_op = number_operator(space3)
    assert np.abs(h @ n_op - n_op @ h).max() < 1e-14


def test_hamiltonian_zero_coupling(space3):
    h = build_hamiltonian(space3, SystemParams.symmetric(1.0, omega=0.0))
    assert np.abs(h).max() == 0.0


def test_hamiltonian_rejects_cutoff_mismatch(space3):
    params = SystemParams.symmetric(0.1, n_fock=4)
    with pytest.raises(ValueError):
        build_hamiltonian(space3, params)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega=0.2, gamma_cavity=-0.1, gamma_a=0, gamma_b=0)
    with pytest.raises(ValueError):
        SystemParams(omega=0.2, gamma_cavity=0.1, gamma_a=-1, gamma_b=0)
    with pytest.raises(ValueError):
        SystemParams(omega=math.inf, gamma_cavity=0.1, gamma_a=0, gamma_b=0)
    with pytest.raises(ValueError):
        SystemParams(omega=0.2, gamma_cavity=0.1, gamma_a=0, gamma_b=0,
                     n_fock=0)


def test_params_reject_rates_that_are_not_real_numbers():
    # a complex rate, also one with a zero imaginary part, or a string is
    # rejected by its type, before it is read as a float: no ComplexWarning
    # and no TypeError, and no generator of the model can be complex
    rates = dict(omega=0.2, gamma_cavity=0.1, gamma_a=0.1, gamma_b=0.1)
    for name in rates:
        for rate in (0.2 + 0.1j, np.complex128(0.2 + 0.1j),
                     np.complex128(0.2), "0.2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match=f"{name} must be a real number"):
                    SystemParams(**{**rates, name: rate})
    # numpy's real and integer scalars are real numbers
    SystemParams(omega=np.float64(0.2), gamma_cavity=np.float32(0.1),
                 gamma_a=np.int64(0), gamma_b=True)


def test_cutoff_must_be_an_integer():
    # a cutoff that is not an integer is rejected with ValueError, also
    # one that holds an integral value
    for n_fock in (3.5, np.float64(3), 3.0, "3"):
        with pytest.raises(ValueError, match="n_fock must be an integer"):
            build_space(n_fock)
        with pytest.raises(ValueError, match="n_fock must be an integer"):
            SystemParams.symmetric(0.1, n_fock=n_fock)
    assert build_space(np.int64(3)) == build_space(3)
    assert SystemParams.symmetric(0.1, n_fock=np.int64(3)) == \
        SystemParams.symmetric(0.1)


def test_symmetric_defaults():
    p = SystemParams.symmetric(0.05)
    assert p.gamma_a == p.gamma_b == 0.05
    assert p.omega == 0.2
    assert p.gamma_cavity == pytest.approx(math.sqrt(0.05))
    assert p.n_fock == 3
