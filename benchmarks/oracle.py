"""Independent reference for every concurrence sample of a workload.

Shares no code with the package. The composite space is ordered
mode (x) qubit A (x) qubit B (the package puts the mode last), the
generator acts on column-stacked vec(rho) (the package stacks rows), the
state is propagated exactly from sample to sample with scipy's expm (the
package uses RK4 substeps), and concurrence comes from the singular values
of sqrt(rho) sqrt(rho~) (the package uses the X-state closed form or the
eigenvalues of a Hermitian product).
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from workloads import GAMMA_CAVITY, N_FOCK, OMEGA, Workload

TOLERANCE = 1e-9
ESD_THRESHOLD = 1e-6

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|, basis (g, e)
_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _operators(n_fock: int):
    """Mode lowering a and qubit lowering ops in mode (x) A (x) B order."""
    a = np.diag(np.sqrt(np.arange(1.0, n_fock)), 1)
    i2, im = np.eye(2), np.eye(n_fock)
    mode = np.kron(a, np.eye(4))
    qa = np.kron(im, np.kron(_LOWER, i2))
    qb = np.kron(im, np.kron(i2, _LOWER))
    return mode, qa, qb


def generator(gamma_s: float, omega: float = OMEGA,
              gamma_cavity: float = GAMMA_CAVITY,
              n_fock: int = N_FOCK) -> np.ndarray:
    """L with vec(d rho/dt) = L vec(rho), vec stacking columns.

    Uses vec(X rho Y) = (Y^T (x) X) vec(rho).
    """
    mode, qa, qb = _operators(n_fock)
    coupling = (qa + qb).T @ mode
    h = omega * (coupling + coupling.conj().T)
    dim = h.shape[0]
    eye = np.eye(dim)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in ((mode, gamma_cavity), (qa, gamma_s), (qb, gamma_s)):
        ld = op.conj().T @ op
        gen = gen + rate * (np.kron(op.conj(), op)
                            - 0.5 * (np.kron(eye, ld) + np.kron(ld.T, eye)))
    return gen


def psi_state(alpha2: float, n_fock: int = N_FOCK) -> np.ndarray:
    """|vac> (x) (sqrt(alpha2)|gg> + sqrt(1 - alpha2)|ee>), as a matrix."""
    qubits = np.zeros(4)
    qubits[0] = np.sqrt(alpha2)
    qubits[3] = np.sqrt(1.0 - alpha2)
    vac = np.zeros(n_fock)
    vac[0] = 1.0
    psi = np.kron(vac, qubits).astype(complex)
    return np.outer(psi, psi.conj())


def qubit_states(rho0: np.ndarray, gen: np.ndarray, dt: float,
                 n_steps: int, n_fock: int = N_FOCK) -> np.ndarray:
    """Two-qubit states (mode traced out) at t = k dt, k = 0 .. n_steps."""
    prop = expm(gen * dt)
    dim = rho0.shape[0]
    vecs = np.empty((n_steps + 1, dim * dim), dtype=complex)
    v = rho0.reshape(-1, order="F")
    vecs[0] = v
    for k in range(1, n_steps + 1):
        v = prop @ v
        vecs[k] = v
    # column-stacked vec -> rho[k] with rho[k][i, j] = vecs[k, j*dim + i]
    rho = vecs.reshape(n_steps + 1, dim, dim).transpose(0, 2, 1)
    blocks = rho.reshape(n_steps + 1, n_fock, 4, n_fock, 4)
    return np.einsum("knanb->kab", blocks)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    herm = 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))
    w, u = np.linalg.eigh(herm)
    root = np.sqrt(np.clip(w, 0.0, None))
    return (u * root[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


def concurrence(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of a stack of 4x4 states, shape (..., 4, 4).

    The lambdas of Wootters' formula are the singular values of
    sqrt(rho) sqrt(rho~), rho~ = (sy x sy) rho* (sy x sy).
    """
    tilde = _SIGMA_YY @ np.conj(rho) @ _SIGMA_YY
    s = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(tilde), compute_uv=False)
    return np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])


def dark_intervals(times, conc, threshold: float = ESD_THRESHOLD
                   ) -> list[tuple[float, float | None]]:
    """(death, revival) per maximal run of samples with conc <= threshold;
    revival is None when the run reaches the last sample."""
    dark = np.concatenate(([False], np.asarray(conc) <= threshold, [False]))
    edges = np.flatnonzero(np.diff(dark.astype(np.int8)))
    out = []
    for start, stop in zip(edges[::2], edges[1::2]):
        revival = float(times[stop]) if stop < len(times) else None
        out.append((float(times[start]), revival))
    return out


def reference(workload: Workload) -> dict[float, np.ndarray]:
    """Oracle concurrence series for every alpha2 cell of the workload."""
    gen = generator(workload.gamma_s)
    dt = workload.t_max / workload.n_steps
    return {a2: concurrence(qubit_states(psi_state(a2), gen, dt,
                                         workload.n_steps))
            for a2 in workload.alpha2}


def max_error(conc, ref: np.ndarray) -> float:
    """Largest |conc - ref| over the samples; inf if the lengths differ."""
    conc = np.asarray(conc, dtype=float)
    if conc.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(conc - ref)))

