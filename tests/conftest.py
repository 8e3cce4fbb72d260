import math

import numpy as np
import pytest

from pseudomode import annihilation, build_hamiltonian, build_space, sigma


@pytest.fixture(scope="session")
def space3():
    return build_space(3)


def random_x_state(rng: np.random.Generator) -> np.ndarray:
    """Random physical X state: Dirichlet diagonal plus feasible coherences.

    Positivity of the two 2x2 blocks requires |w| <= sqrt(a d) and
    |z| <= sqrt(b c).
    """
    d, c, b, a = rng.dirichlet(np.ones(4))
    w = (np.sqrt(a * d) * rng.uniform(0.0, 1.0)
         * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    z = (np.sqrt(b * c) * rng.uniform(0.0, 1.0)
         * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    rho = np.diag(np.array([d, c, b, a], dtype=complex))
    rho[3, 0] = w
    rho[0, 3] = w.conjugate()
    rho[1, 2] = z
    rho[2, 1] = z.conjugate()
    return rho


def one_excitation_amplitudes(alpha2: float, params, times):
    """Closed-form amplitudes (c_A, c_B) of the phi family, mode in vacuum.

    The phi state alpha|10> + beta|01> (theta = 0; |01> means qubit B
    excited) stays in span{|10,0>, |01,0>, |00,1>} until a jump takes it to
    |00,0>, which has no coherence with that sector. The non-Hermitian
    Hamiltonian splits the sector into the dark amplitude
    c_- = (c_A - c_B)/sqrt(2), which the mode never sees, so
    c_-(t) = c_-(0) e^{-gamma_s t / 2}, and the bright pair (c_+, b) with

        d/dt (c_+, b) = [[-gamma_s/2, -i sqrt(2) omega],
                         [-i sqrt(2) omega, -Gamma/2]] (c_+, b),

    solved as e^{Mt} = e^{-k t} (cosh(s t) + sinh(s t)/s (M + k)), with
    k = (gamma_s + Gamma)/4 and s^2 = ((Gamma - gamma_s)/4)^2 - 2 omega^2.
    The amplitudes are real, and the reduced state has P(11) = 0, so its
    concurrence is 2|c_A c_B|.
    """
    if params.gamma_a != params.gamma_b:
        raise ValueError("the dark/bright split needs gamma_a == gamma_b")
    t = np.asarray(times, dtype=float)
    g = math.sqrt(2.0) * params.omega
    k = (params.gamma_a + params.gamma_cavity) / 4.0
    delta = (params.gamma_cavity - params.gamma_a) / 4.0
    s = np.sqrt(complex(delta * delta - g * g))
    sinh_over_s = np.sinh(s * t) / s if s != 0 else t
    envelope = np.exp(-k * t)
    alpha = math.sqrt(alpha2)
    beta = math.sqrt(1.0 - alpha2)
    bright0 = (alpha + beta) / math.sqrt(2.0)
    dark0 = (alpha - beta) / math.sqrt(2.0)
    # first entry of e^{Mt} (bright0, 0), with (M + k)_{11} = delta; real
    # whether s is real (overdamped) or imaginary (underdamped)
    bright = envelope * (np.cosh(s * t) + delta * sinh_over_s).real * bright0
    dark = np.exp(-params.gamma_a * t / 2.0) * dark0
    c_a = (bright + dark) / math.sqrt(2.0)
    c_b = (bright - dark) / math.sqrt(2.0)
    return c_a, c_b


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random state (normalized Wishart)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def lindblad_rhs(space, params, rho: np.ndarray) -> np.ndarray:
    """Right-hand side d rho / dt in matrix form: the oracle for
    liouvillian_matrix, which sums the same terms as unit generators.
    """
    h = build_hamiltonian(space, params)
    out = -1j * (h @ rho - rho @ h)
    for op, rate in ((annihilation(space), params.gamma_cavity),
                     (sigma(space, "A", "lower"), params.gamma_a),
                     (sigma(space, "B", "lower"), params.gamma_b)):
        if rate == 0.0:
            continue
        ld = op.conj().T @ op
        out += rate * (op @ rho @ op.conj().T - 0.5 * (ld @ rho + rho @ ld))
    return out


def eleven_kron_liouvillian(space, params) -> np.ndarray:
    """The generator as the sum of the 11 Kronecker products of its terms,
    row-major: -i (H x I - I x H^T), and for each nonzero rate
    rate (L x L* - (L^dag L x I + I x (L^dag L)^T) / 2). The oracle for
    liouvillian_matrix, which sums the unit generators instead.
    """
    h = build_hamiltonian(space, params)
    eye = np.eye(space.dim_total, dtype=complex)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in ((annihilation(space), params.gamma_cavity),
                     (sigma(space, "A", "lower"), params.gamma_a),
                     (sigma(space, "B", "lower"), params.gamma_b)):
        if rate == 0.0:
            continue
        ld = op.conj().T @ op
        m += rate * (np.kron(op, op.conj())
                     - 0.5 * (np.kron(ld, eye) + np.kron(eye, ld.T)))
    return m

