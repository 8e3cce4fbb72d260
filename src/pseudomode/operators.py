"""Composite Hilbert space and operator construction.

Two qubits (A, B) share a single damped bosonic mode. The composite space is
the tensor product qubit_A (x) qubit_B (x) mode, with the mode truncated at
``n_fock`` levels. The flat index ordering is part of the external contract:

    flat = i_a * (2 * n_fock) + i_b * n_fock + n_photon

with ``i = 0`` ground and ``i = 1`` excited, photon index fastest. Serialized
states (see the sweep module's raw-state format) use this ordering.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Operator matrices are plain dense complex ndarrays over the composite space.
OperatorMatrix = np.ndarray

DEFAULT_OMEGA = 0.2
DEFAULT_GAMMA_CAVITY = math.sqrt(0.05)


@dataclass(frozen=True)
class SystemParams:
    """Physical rates, all expressed in units of the reference rate gamma0,
    which fixes the time unit (t is t*gamma0).

    omega          qubit-mode coupling strength
    gamma_cavity   mode (cavity) decay rate
    gamma_a        spontaneous emission rate of qubit A
    gamma_b        spontaneous emission rate of qubit B
    n_fock         mode truncation; Fock levels 0 .. n_fock-1 are kept

    The rates must be real numbers (numbers.Real) and n_fock an integer
    (numbers.Integral); anything else, a complex rate among them, raises
    ValueError before it is read as a number, so every generator of the
    model is real in the photon-number gauge (see dynamics).
    """

    omega: float
    gamma_cavity: float
    gamma_a: float
    gamma_b: float
    n_fock: int = 3

    def __post_init__(self) -> None:
        for name in ("omega", "gamma_cavity", "gamma_a", "gamma_b"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        for name in ("gamma_cavity", "gamma_a", "gamma_b"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        build_space(self.n_fock)  # checks n_fock

    @classmethod
    def symmetric(
        cls,
        gamma_s: float,
        omega: float = DEFAULT_OMEGA,
        gamma_cavity: float = DEFAULT_GAMMA_CAVITY,
        n_fock: int = 3,
    ) -> "SystemParams":
        """Both qubits emit at the same rate gamma_s.

        Defaults reproduce the standard strong-coupling configuration
        (omega = 0.2, gamma_cavity = sqrt(0.05), in units of gamma0).
        """
        return cls(omega=omega, gamma_cavity=gamma_cavity, gamma_a=gamma_s,
                   gamma_b=gamma_s, n_fock=n_fock)


@dataclass(frozen=True)
class CompositeSpace:
    """Index bookkeeping for the qubit_A (x) qubit_B (x) mode product space."""

    n_fock: int
    dim_total: int

    def flat_index(self, i_a: int, i_b: int, n_photon: int) -> int:
        if not (0 <= i_a <= 1 and 0 <= i_b <= 1 and 0 <= n_photon < self.n_fock):
            raise IndexError(f"label ({i_a},{i_b},{n_photon}) outside the space")
        return i_a * (2 * self.n_fock) + i_b * self.n_fock + n_photon

    def unflatten(self, flat: int) -> tuple[int, int, int]:
        if not (0 <= flat < self.dim_total):
            raise IndexError(f"flat index {flat} outside the space")
        i_a, rest = divmod(flat, 2 * self.n_fock)
        i_b, n_photon = divmod(rest, self.n_fock)
        return i_a, i_b, n_photon


def build_space(n_fock: int) -> CompositeSpace:
    """Construct the composite space for a given mode truncation; n_fock
    must be an integer >= 1, or ValueError is raised."""
    if not isinstance(n_fock, numbers.Integral):
        raise ValueError(f"n_fock must be an integer, got {n_fock!r}")
    if n_fock < 1:
        raise ValueError("n_fock must be >= 1")
    return CompositeSpace(n_fock=n_fock, dim_total=4 * n_fock)


def _qubit_lower() -> np.ndarray:
    # |0><1| in the (ground, excited) basis
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _embed(op_a: np.ndarray, op_b: np.ndarray,
           op_mode: np.ndarray) -> OperatorMatrix:
    return np.kron(np.kron(op_a, op_b), op_mode)


def annihilation(space: CompositeSpace) -> OperatorMatrix:
    """Mode lowering operator: identity (x) identity (x) a, a|n> = sqrt(n)|n-1>."""
    nf = space.n_fock
    a = np.diag(np.sqrt(np.arange(1, nf, dtype=float)), k=1).astype(complex)
    return _embed(np.eye(2, dtype=complex), np.eye(2, dtype=complex), a)


def creation(space: CompositeSpace) -> OperatorMatrix:
    return annihilation(space).conj().T


def sigma(space: CompositeSpace, which_qubit: str, direction: str) -> OperatorMatrix:
    """Raising or lowering operator on one qubit, identity elsewhere.

    which_qubit: "A" or "B"; direction: "raise" or "lower".
    """
    if which_qubit not in ("A", "B"):
        raise ValueError(f"which_qubit must be 'A' or 'B', got {which_qubit!r}")
    if direction not in ("raise", "lower"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    op = _qubit_lower()
    if direction == "raise":
        op = op.conj().T
    eye2 = np.eye(2, dtype=complex)
    eye_mode = np.eye(space.n_fock, dtype=complex)
    if which_qubit == "A":
        return _embed(op, eye2, eye_mode)
    return _embed(eye2, op, eye_mode)


def number_operator(space: CompositeSpace) -> OperatorMatrix:
    """Total excitation number: both qubit projectors plus the photon number.

    Built directly from the basis labels so the eigenvalues are exact
    integers (a_dag @ a would carry sqrt(n)**2 rounding).
    """
    return np.diag(operator_tables(space.n_fock).weights.astype(complex))


class OperatorTables(NamedTuple):
    """Operators of one mode truncation that depend on nothing else.

    weights   (dim,) total excitation number i_a + i_b + n of each basis
              state, exact integers as floats
    jumps     (L, L^dag L) for the collapse operators a, sm_A and sm_B, in
              that order
    coupling  (sp_A + sp_B) a, the half of H / omega that absorbs a photon
    """

    weights: np.ndarray
    jumps: tuple[tuple[OperatorMatrix, OperatorMatrix], ...]
    coupling: OperatorMatrix


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=8)
def operator_tables(n_fock: int) -> OperatorTables:
    """The OperatorTables of build_space(n_fock), built once per n_fock and
    shared by every caller, so every array is read-only."""
    space = build_space(n_fock)
    flat = np.arange(space.dim_total)
    # flat = i_a (2 n_fock) + i_b n_fock + n_photon
    weights = flat // (2 * n_fock) + flat // n_fock % 2 + flat % n_fock
    a = annihilation(space)
    jumps = tuple((_read_only(op), _read_only(op.conj().T @ op))
                  for op in (a, sigma(space, "A", "lower"),
                             sigma(space, "B", "lower")))
    sp = sigma(space, "A", "raise") + sigma(space, "B", "raise")
    return OperatorTables(weights=_read_only(weights.astype(float)),
                          jumps=jumps, coupling=_read_only(sp @ a))


def build_hamiltonian(space: CompositeSpace, params: SystemParams) -> OperatorMatrix:
    """Resonant excitation-exchange coupling between the qubits and the mode.

    H = omega * [(sp_A + sp_B) a + (sm_A + sm_B) a_dagger]. Hermitian, and it
    commutes with the total excitation number.
    """
    if params.n_fock != space.n_fock:
        raise ValueError("params.n_fock does not match the space")
    half = params.omega * operator_tables(space.n_fock).coupling
    return half + half.conj().T
