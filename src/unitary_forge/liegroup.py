"""Real-vector parametrization of skew-Hermitian matrices.

A d x d skew-Hermitian matrix is determined by d^2 real numbers: one
imaginary coefficient per diagonal entry and a (real, imaginary) pair per
strictly-upper entry. The canonical layout walks the matrix row-major,
emitting each row's diagonal coefficient first and then the pairs of its
upper-triangle entries. For d = 2 the vector (t1, t2, t3, t4) assembles to

    [[ t1*i,       t2 + t3*i ],
     [ -t2 + t3*i, t4*i      ]]

Exponentiating the assembled matrix yields a unitary, and every unitary
arises this way, so a model exposing these vectors searches the whole
group: d^2 parameters for dimension d, hence 2^(2N) for N qubits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import matexp, require_unitary

__all__ = [
    "assemble",
    "disassemble",
    "param_grad",
    "to_unitary",
    "random_params",
    "param_dim",
]

SKEW_TOL = 1e-10


@lru_cache(maxsize=None)
def _slots(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index maps from matrix positions into the length-d^2 vector.

    Returns (diag_slots, rows, cols, re_slots, im_slots): entry (r, c) of
    the upper triangle stores its real part at re_slots and imaginary part
    at im_slots, and diagonal entry r stores its coefficient of i at
    diag_slots[r].
    """
    r = np.arange(d)
    offsets = r + 2 * r * (d - 1) - r * (r - 1)
    rows, cols = np.triu_indices(d, k=1)
    re_slots = offsets[rows] + 1 + 2 * (cols - rows - 1)
    return offsets, rows, cols, re_slots, re_slots + 1


def param_dim(theta: np.ndarray) -> int:
    """Matrix dimension d implied by a length-d^2 parameter vector."""
    theta = np.asarray(theta)
    if theta.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {theta.shape}")
    d = math.isqrt(theta.size)
    if d * d != theta.size or d == 0:
        raise ValueError(f"parameter vector length {theta.size} is not a positive perfect square")
    return d


def assemble(theta: np.ndarray) -> np.ndarray:
    """Skew-Hermitian matrix of a real parameter vector; a (k, d^2) stack gives (k, d, d)."""
    theta = np.asarray(theta, dtype=np.float64)
    d = param_dim(theta[0] if theta.ndim == 2 else theta)
    diag_slots, rows, cols, re_slots, im_slots = _slots(d)
    x = np.zeros((*theta.shape[:-1], d, d), dtype=np.complex128)
    x[..., np.arange(d), np.arange(d)] = 1j * theta[..., diag_slots]
    upper = theta[..., re_slots] + 1j * theta[..., im_slots]
    x[..., rows, cols] = upper
    x[..., cols, rows] = -theta[..., re_slots] + 1j * theta[..., im_slots]
    return x


def disassemble(x: np.ndarray) -> np.ndarray:
    """Read the parameter vector back out of a skew-Hermitian matrix.

    Exact inverse of assemble: no arithmetic touches the stored values.
    Raises ValueError when x is not skew-Hermitian to within 1e-10.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    dev = float(np.abs(x + x.conj().T).max())
    if dev > SKEW_TOL:
        raise ValueError(f"matrix is not skew-Hermitian: max|X + X^H| = {dev:.3e}")
    d = x.shape[0]
    diag_slots, rows, cols, re_slots, im_slots = _slots(d)
    theta = np.empty(d * d, dtype=np.float64)
    theta[diag_slots] = x.diagonal().imag
    theta[re_slots] = x[rows, cols].real
    theta[im_slots] = x[rows, cols].imag
    return theta


def param_grad(abar: np.ndarray) -> np.ndarray:
    """Chain-rule step from a matrix cotangent (or a stack) to parameter gradients.

    Given abar = dL/dX under <X, Y> = Re tr(X^H Y), returns g with
    g_i = Re<abar, dX/dtheta_i>. The matrix need not be skew-Hermitian;
    the projection onto the parametrized directions happens here.
    """
    abar = np.asarray(abar, dtype=np.complex128)
    if abar.ndim not in (2, 3) or abar.shape[-1] != abar.shape[-2]:
        raise ValueError(f"expected a square cotangent or a stack of them, got shape {abar.shape}")
    d = abar.shape[-1]
    diag_slots, rows, cols, re_slots, im_slots = _slots(d)
    g = np.empty((*abar.shape[:-2], d * d), dtype=np.float64)
    g[..., diag_slots] = abar.diagonal(axis1=-2, axis2=-1).imag
    upper = abar[..., rows, cols]
    lower = abar[..., cols, rows]
    g[..., re_slots] = upper.real - lower.real
    g[..., im_slots] = upper.imag + lower.imag
    return g


def to_unitary(theta: np.ndarray) -> np.ndarray:
    """Exponentiate the assembled generator; checks the result is unitary."""
    return require_unitary(matexp(assemble(theta)))


def random_params(d: int, seed: int, scale: float | None = None) -> np.ndarray:
    """Gaussian parameter vector for dimension d, std 1/d unless overridden.

    The 1/d scale keeps the generator norm bounded as d grows, so the
    exponential stays well-conditioned at random initialization.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if scale is None:
        scale = 1.0 / d
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(d * d)

