"""Dense complex linear algebra: the matrix exponential and its adjoint.

All matrices are square complex128 ndarrays, or (k, d, d) stacks that
each function runs in one pass, bitwise equal slice for slice to k single
calls. The exponential takes only a generator A = iH that equals -A^H bit
for bit, as every generator the package builds does, and has one route:
one eigendecomposition H = V diag(w) V^H, then exp(A) = V e^{iw} V^H
(Moler & Van Loan 2003, section 6). The vector-Jacobian product is the
spectral (Daleckii-Krein) form in that basis, reused when the forward
hands it over and computed otherwise, so training costs one eigh per
generator. Any other matrix, or a stack with one, raises ValueError.

Cotangents use the real inner product <X, Y> = Re tr(X^H Y); every
gradient in the package is stated in that convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "matexp",
    "matexp_vjp",
    "unitarity_error",
    "random_unitary",
    "require_unitary",
    "UNITARITY_TOL",
]

# Construction-time tolerance on max|U^H U - I| for anything claiming to be unitary.
UNITARITY_TOL = 1e-6


def _as_square_complex(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {a.shape}")
    return a


def _skew_generator(a: np.ndarray, g: np.ndarray | None = None) -> tuple:
    """a (and the cotangent g) as complex128 after the checks matexp and
    matexp_vjp share: square and matching shapes and finite entries first,
    then a == -a^H bitwise. Raises ValueError naming the first that fails."""
    a = _as_square_complex(a, "a")
    if not np.isfinite(a).all():
        raise ValueError("a must have finite entries")
    if g is not None:
        g = _as_square_complex(g, "g")
        if a.shape != g.shape:
            raise ValueError(f"cotangent shape {g.shape} does not match matrix shape {a.shape}")
        if not np.isfinite(g).all():
            raise ValueError("the cotangent g must have finite entries")
    if not np.array_equal(a, -a.conj().swapaxes(-1, -2)):
        raise ValueError("the exponential takes only skew-Hermitian generators, a == -a^H exactly")
    return a, g


def matexp(a: np.ndarray, *, basis: bool = False):
    """Matrix exponential exp(a) of a skew-Hermitian generator a = i H.

    One eigh of H = -1j a gives w, V, and exp(a) = V e^{iw} V^H, unitary to
    working precision. With basis=True the return value is the pair
    (exp(a), (w, V)); pass the basis to matexp_vjp to skip its own
    decomposition. Raises ValueError if a is not square, has a non-finite
    entry, or does not equal -a^H bitwise.
    """
    a, _ = _skew_generator(a)
    w, v = np.linalg.eigh(-1j * a)
    u = (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (u, (w, v)) if basis else u


def matexp_vjp(a: np.ndarray, g: np.ndarray, basis: tuple | None = None) -> np.ndarray:
    """Adjoint of the differential of matexp at a, applied to cotangent g.

    Returns abar such that Re<g, d/dt exp(a + t e)|_0> = Re<abar, e> for
    every direction e, under <X, Y> = Re tr(X^H Y). The result is the full
    adjoint over all directions e, not only skew-Hermitian ones.

    a = i H must equal -a^H bitwise, as for matexp. The adjoint is
    V (conj(F) * (V^H g V)) V^H from H = V diag(w) V^H, with
    F_jk = exp(i (w_j + w_k) / 2) sinc((w_j - w_k) / 2); the sinc form stays
    accurate on repeated eigenvalues. `basis` is the (w, V) that
    matexp(a, basis=True) returned; given it, the adjoint costs four
    products, and without it one d x d eigh more. Raises ValueError on
    non-square, mismatched or non-finite input, and on an a that is not
    bitwise skew-Hermitian, with or without a basis.
    """
    a, g = _skew_generator(a, g)
    return _spectral_vjp(basis or np.linalg.eigh(-1j * a), g)


def _spectral_vjp(basis: tuple[np.ndarray, np.ndarray], g: np.ndarray) -> np.ndarray:
    """Daleckii-Krein adjoint of exp at a = i V diag(w) V^H, from basis = (w, V)."""
    w, v = basis
    half = np.exp(-0.5j * w)
    # conj(F); np.sinc(x) is sin(pi x) / (pi x), so this is sin(dw / 2) / (dw / 2).
    dw = w[..., :, None] - w[..., None, :]
    f_conj = half[..., :, None] * half[..., None, :] * np.sinc(dw / (2.0 * np.pi))
    vh = v.conj().swapaxes(-1, -2)
    # np.multiply, not *: numpy swaps the operands of * on a large temporary, changing the rounding.
    return v @ (np.multiply(f_conj, vh @ g @ v) @ vh)


def unitarity_error(m: np.ndarray) -> float:
    """Max-abs entry of M^H M - I (over a whole stack); zero exactly when M is unitary."""
    m = _as_square_complex(m)
    return float(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max())


def require_unitary(m: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    """Return m unchanged after checking the unitarity invariant."""
    err = unitarity_error(m)
    if err > tol:
        raise ValueError(f"matrix fails the unitarity check: max|M^H M - I| = {err:.3e} > {tol:.1e}")
    return m


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Deterministic Haar-flavored random d x d unitary.

    Draws a complex Gaussian matrix x, antisymmetrizes it to the
    skew-Hermitian x - x^H, and exponentiates.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return require_unitary(matexp(x - x.conj().T))
