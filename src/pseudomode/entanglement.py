"""Two-qubit reduction and concurrence.

Basis-ordering contract
-----------------------
Reduced two-qubit matrices use the basis {|00>, |10>, |01>, |11>} (first
label qubit A, second qubit B), i.e. row index = i_a + 2*i_b. States reached
from the supported initial families keep the "X" sparsity pattern in this
basis:

    [ d    0    0    w* ]
    [ 0    c    z    0  ]
    [ 0    z*   b    0  ]
    [ w    0    0    a  ]

so a = P(11), b = P(01), c = P(10), d = P(00), w = <11|rho|00> is the
two-photon coherence and z = <10|rho|01> the one-excitation coherence. The
closed-form branches read

    C1 = 2|w| - 2 sqrt(b c),   C2 = 2|z| - 2 sqrt(a d),
    C  = max{0, C1, C2}.

The general path computes Wootters concurrence for any two-qubit state; its
lambdas, the square roots of the eigenvalues of
R = rho (sy x sy) rho* (sy x sy), come from a singular value decomposition.

partial_trace_cavity, x_form_deviation and both concurrence paths take one
matrix or a stack of them as a plain array, so a whole trajectory is
reduced and evaluated with array operations; a single matrix is the same
computation on a stack of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

X_TOLERANCE = 1e-9

_HERM_TOL = 1e-8
# Most matrices of a stack the hermiticity check takes at once, so that
# its temporaries stay small however long the stack is.
_CHECK_SLICE = 2048
_TRACE_TOL = 1e-9
_EIG_FLOOR = -1e-8

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# True on the eight entries that must vanish for an X state: those off
# the diagonal and the anti-diagonal.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])

# Positions in a flattened 4 x 4 matrix of the entries (i, j) with i <= j,
# and of their transposes.
_UPPER = np.flatnonzero(np.triu(np.ones((4, 4), dtype=bool)))
_LOWER = np.arange(16).reshape(4, 4).T.reshape(-1)[_UPPER]


@dataclass
class ConcurrenceReport:
    """Concurrence c plus per-path detail, for one matrix or a stack.

    c1, c2 are the closed-form branch values (X-state path only); lambdas
    are the four Wootters lambdas (square roots of the eigenvalues of R) in
    decreasing order (general path only). For a single matrix c, c1 and c2
    are floats and lambdas has shape (4,); for an (n, 4, 4) stack they are
    arrays of shape (n,) and lambdas has shape (n, 4).
    """

    c: float | np.ndarray
    path: str
    c1: float | np.ndarray | None = None
    c2: float | np.ndarray | None = None
    lambdas: np.ndarray | None = None


def _dagger(rho: np.ndarray) -> np.ndarray:
    return rho.swapaxes(-1, -2).conj()


def _rho4(rho) -> np.ndarray:
    """rho as a (4, 4) or (..., 4, 4) array; any other shape raises."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got shape {rho.shape}")
    return rho


# a matrix with a non-finite entry fails on that first, so what its
# hermiticity and trace come to does not matter
@np.errstate(invalid="ignore", over="ignore")
def _input_errors(rho: np.ndarray) -> np.ndarray:
    """(3, n) for an (n, 4, 4) stack: per matrix, 1.0 if it has a
    non-finite entry (else 0.0), its hermiticity deviation and its trace
    error. Their maxima over any set of matrices are what _check_input
    judges.

    A finite sum has only finite terms, so the per-matrix finite flags
    are taken only when the sum is not finite. The hermiticity deviation
    is max |rho - rho^H| over the 10 entries (i, j) with i <= j, each
    against its transpose: |a - b*| = |b - a*| exactly, so this is the max
    over all 16. It is read entry-major, a slice of matrices at a time, so
    that each reduction runs across matrices.
    """
    flat = rho.reshape(-1, 16)
    errors = np.zeros((3, len(flat)))
    if not np.isfinite(flat.sum()):
        errors[0] = ~np.isfinite(flat.T).all(axis=0)
    for lo in range(0, len(flat), _CHECK_SLICE):
        part = flat[lo:lo + _CHECK_SLICE].T
        np.abs(part[_UPPER] - part[_LOWER].conj()).max(
            axis=0, out=errors[1, lo:lo + _CHECK_SLICE])
    errors[2] = np.abs(rho.trace(axis1=1, axis2=2) - 1.0)
    return errors


def _check_input(non_finite, herm, tr_err) -> None:
    """Raise ValueError for the first check the maxima of _input_errors
    fail: finite, Hermitian, unit trace. The comparisons are written so
    that NaN fails them."""
    if non_finite:
        raise ValueError("matrix contains non-finite entries")
    if not herm <= _HERM_TOL:
        raise ValueError(f"matrix not Hermitian: deviation {herm:.3g}")
    if not tr_err <= _TRACE_TOL:
        raise ValueError(f"matrix trace off by {tr_err:.3g}")


def _checked_rho4(rho) -> np.ndarray:
    """rho as a (4, 4) or (..., 4, 4) array, after checking that every
    matrix is finite, Hermitian and of unit trace; the worst value is
    reported."""
    rho = _rho4(rho)
    _check_input(*_input_errors(rho.reshape(-1, 4, 4)).max(axis=1))
    return rho


def partial_trace_cavity(state, space) -> np.ndarray:
    """Trace out the mode: rho[(i,j),(k,l)] = sum_n rho_full[(i,j,n),(k,l,n)].

    Accepts a FullState, a bare composite-space matrix, or a (..., d, d)
    stack of them, and returns the (4, 4) matrix or (..., 4, 4) stack;
    `space` may be a CompositeSpace or the integer Fock cutoff.
    """
    rho_full = np.asarray(getattr(state, "rho_tilde", state))
    n_fock = getattr(space, "n_fock", space)
    dim = 4 * n_fock
    if rho_full.shape[-2:] != (dim, dim):
        raise ValueError(
            f"state shape {rho_full.shape} does not match cutoff {n_fock}")
    lead = rho_full.shape[:-2]
    t = rho_full.reshape(*lead, 2, 2, n_fock, 2, 2, n_fock)
    r = np.einsum("...abncdn->...abcd", t)
    # kron layout is A-major; reorder to the documented i_a + 2*i_b basis
    r = r.swapaxes(-4, -3).swapaxes(-2, -1)
    return r.reshape(*lead, 4, 4).copy()


def _off_x(rho: np.ndarray) -> np.ndarray:
    """Largest magnitude among the off-X entries of each matrix of a
    (..., 4, 4) array."""
    return np.abs(rho[..., _OFF_X]).max(axis=-1)


def x_form_deviation(rho) -> float:
    """Largest magnitude among the eight entries an X state must not have,
    over one (4, 4) matrix or a whole (..., 4, 4) stack."""
    return float(_off_x(_rho4(rho)).max())


def concurrence_general(rho) -> ConcurrenceReport:
    """Wootters concurrence of any two-qubit state, or of each in a stack.

    The Wootters lambdas (square roots of the eigenvalues of
    R = rho (sy x sy) rho* (sy x sy)) are taken as the singular values of
    sqrt(rho) (sy x sy) sqrt(rho)* (sy x sy), whose Gram matrix is the
    Hermitian sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho). No square root
    of a near-zero eigenvalue of R is taken: rounding of size eps there
    would become an error of size sqrt(eps) in a lambda. Rank-deficient
    input (pure states, evolved states with populations near zero)
    therefore keeps double precision. One matrix with an eigenvalue below
    -1e-8 rejects the whole stack.
    """
    rho = _checked_rho4(rho)
    mu, vecs = np.linalg.eigh(0.5 * (rho + _dagger(rho)))
    min_eig = float(mu[..., 0].min())
    if not min_eig >= _EIG_FLOOR:
        raise ValueError(f"matrix has negative eigenvalue {min_eig:.3g}")
    root = np.sqrt(mu.clip(0.0))[..., None, :]
    sqrt_rho = (vecs * root) @ _dagger(vecs)
    sqrt_tilde = _SIGMA_YY @ sqrt_rho.conj() @ _SIGMA_YY
    lambdas = np.linalg.svd(sqrt_rho @ sqrt_tilde, compute_uv=False)
    c = lambdas[..., 0] - lambdas[..., 1] - lambdas[..., 2] - lambdas[..., 3]
    c = np.minimum(np.maximum(c, 0.0), 1.0)
    return ConcurrenceReport(c=float(c) if rho.ndim == 2 else c,
                             path="general", lambdas=lambdas)


def concurrence_x_state(rho) -> ConcurrenceReport:
    """Closed-form concurrence of an X state, or of each in a stack.

    Rejects input with any off-pattern entry above X_TOLERANCE.
    """
    rho = _checked_rho4(rho)
    dev = x_form_deviation(rho)
    if not dev <= X_TOLERANCE:
        raise ValueError(
            f"not an X state: off-pattern entry of magnitude {dev:.3g} "
            f"exceeds tolerance {X_TOLERANCE:.3g}")
    c, c1, c2 = _x_state_values(rho)
    if rho.ndim == 2:
        c, c1, c2 = float(c), float(c1), float(c2)
    return ConcurrenceReport(c=c, path="x_state", c1=c1, c2=c2)


def _x_state_values(rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """C, C1 and C2 of each matrix of a checked (..., 4, 4) X-state array,
    real or complex: |w| of a real w is its magnitude, as of w + 0i."""
    d = np.maximum(rho[..., 0, 0].real, 0.0)
    c_mid = np.maximum(rho[..., 1, 1].real, 0.0)
    b_mid = np.maximum(rho[..., 2, 2].real, 0.0)
    a = np.maximum(rho[..., 3, 3].real, 0.0)
    c1 = 2.0 * (np.abs(rho[..., 3, 0]) - np.sqrt(b_mid * c_mid))
    c2 = 2.0 * (np.abs(rho[..., 1, 2]) - np.sqrt(a * d))
    return np.minimum(np.maximum(np.maximum(c1, c2), 0.0), 1.0), c1, c2


def _check_rate(gamma_s: float) -> None:
    if not (math.isfinite(gamma_s) and gamma_s >= 0):
        raise ValueError("gamma_s must be finite and >= 0")


def independent_decay_concurrence(alpha2: float, gamma_s: float, times):
    """Closed-form concurrence with the mode decoupled (coupling = 0).

    For an initial alpha|00> + beta|11> with alpha^2 = `alpha2`, pure
    independent emission at rate gamma_s on each qubit gives

        C(t) = max{0, 2 e^{-g t} (sqrt(alpha2 beta2) - beta2 (1 - e^{-g t}))}

    with beta2 = 1 - alpha2 and g = gamma_s. Serves as an exact reference
    for the full simulation in the decoupled limit. alpha2 outside [0, 1]
    or a gamma_s that is not finite and >= 0 raises ValueError.
    """
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError("alpha2 must lie in [0, 1]")
    _check_rate(gamma_s)
    t = np.asarray(times, dtype=float)
    beta2 = 1.0 - alpha2
    decay = np.exp(-gamma_s * t)
    c1 = 2.0 * decay * (math.sqrt(alpha2 * beta2) - beta2 * (1.0 - decay))
    return np.maximum(0.0, c1)


def independent_decay_death_time(alpha2: float, gamma_s: float) -> float | None:
    """Time where the decoupled-limit concurrence first hits zero for good.

    Finite only when alpha2 < 1/2 (and the rate is nonzero); returns None
    when the state stays entangled at all finite times. alpha2 outside
    [0, 1] or a gamma_s that is not finite and >= 0 raises ValueError.
    """
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError("alpha2 must lie in [0, 1]")
    _check_rate(gamma_s)
    if gamma_s == 0 or alpha2 >= 0.5:
        return None
    if alpha2 == 0.0:
        return 0.0
    ratio = math.sqrt(alpha2 / (1.0 - alpha2))
    return -math.log(1.0 - ratio) / gamma_s
