"""Initial-state construction.

Three families, all with the mode starting in vacuum (zero temperature, at
most two excitations in play):

    phi         alpha|10> + e^{i theta} beta|01>      one shared excitation
    psi         alpha|00> + e^{i theta} beta|11>      zero or two excitations
    werner_psi  r |psi><psi| + (1 - r) I/4            identity on the qubit
                                                      factor only

with beta = sqrt(1 - alpha^2) and alpha taken real non-negative (any
amplitude phase is carried by theta). Initial concurrence of the pure
families is 2 sqrt(alpha2 (1 - alpha2)) independent of theta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FullState
from .operators import CompositeSpace

FAMILIES = ("phi", "psi", "werner_psi")


@dataclass(frozen=True)
class InitialStateSpec:
    """Parameters selecting one initial state.

    r is the purity weight of the werner_psi mixture and is ignored by the
    pure families.
    """

    family: str
    alpha2: float
    theta: float = 0.0
    r: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"family must be one of {FAMILIES}, got {self.family!r}")
        if not 0.0 <= self.alpha2 <= 1.0:
            raise ValueError(f"alpha2 must lie in [0, 1], got {self.alpha2}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")


def _qubit_pure_vector(spec: InitialStateSpec) -> np.ndarray:
    """Two-qubit amplitude vector in the A-major product layout (i_a*2 + i_b)."""
    alpha = math.sqrt(spec.alpha2)
    quarter = spec.theta / (math.pi / 2)
    # np.exp(1j * pi) is -1 + 1.2e-16 i; a whole number of quarter turns
    # gets its exact phase, so such a state is as real as the one asked for
    phase = ((1.0, 1j, -1.0, -1j)[int(quarter) % 4] if quarter.is_integer()
             else np.exp(1j * spec.theta))
    beta = math.sqrt(1.0 - spec.alpha2) * phase
    v = np.zeros(4, dtype=complex)
    if spec.family == "phi":
        v[2] = alpha   # |10>: A excited
        v[1] = beta    # |01>: B excited
    else:
        v[0] = alpha   # |00>
        v[3] = beta    # |11>
    return v


def make_initial(spec: InitialStateSpec, space: CompositeSpace) -> FullState:
    """Build the chosen two-qubit state tensored with the vacuum mode."""
    v = _qubit_pure_vector(spec)
    rho_q = np.outer(v, v.conj())
    if spec.family == "werner_psi":
        rho_q = spec.r * rho_q + (1.0 - spec.r) * np.eye(4) / 4.0
    vacuum = np.zeros((space.n_fock, space.n_fock), dtype=complex)
    vacuum[0, 0] = 1.0
    # rho_q (x) vacuum as one broadcast product: the products np.kron
    # makes, so the same bits, signed zeros included
    rho = rho_q[:, None, :, None] * vacuum[None, :, None, :]
    return FullState(rho_tilde=rho.reshape(space.dim_total, -1), time=0.0)
