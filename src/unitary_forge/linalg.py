"""Dense complex linear algebra: the matrix exponential and its adjoint.

All matrices are square complex128 ndarrays. The matrix exponential has
two routes. A plain call uses scaling-and-squaring with diagonal Pade
approximants (orders 3/5/7/9/13 selected by the 1-norm), which is
accurate on the whole norm range and for any square matrix. A call with
basis=True takes an exactly skew-Hermitian A = iH, as every generator the
package builds is, through one eigendecomposition H = V diag(w) V^H and
returns V e^{iw} V^H together with (w, V). The vector-Jacobian product of
a skew-Hermitian A is the spectral (Daleckii-Krein) form in that basis,
reused when the forward hands it over and computed otherwise; any other
matrix takes the exponential of the doubled block matrix
[[A^H, G], [0, A^H]]. Training therefore costs one eigh per generator.

Cotangents use the real inner product <X, Y> = Re tr(X^H Y); every
gradient in the package is stated in that convention.
"""

from __future__ import annotations

import math

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

# Pade numerator coefficients b_0..b_m for orders 3, 5, 7, 9, 13 and the
# 1-norm thresholds theta_m below which each order meets double precision.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0,
        8821612800.0,
        2075673600.0,
        302702400.0,
        30270240.0,
        2162160.0,
        110880.0,
        3960.0,
        90.0,
        1.0,
    ),
    13: (
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ),
}

_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


def _as_square_complex(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _pade_uv(a: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd part U and even part V of the order-m Pade numerator at a."""
    b = _PADE_COEFFS[order]
    d = a.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    a2 = a @ a
    if order == 3:
        u = a @ (b[3] * a2 + b[1] * eye)
        v = b[2] * a2 + b[0] * eye
        return u, v
    a4 = a2 @ a2
    if order == 5:
        u = a @ (b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = b[4] * a4 + b[2] * a2 + b[0] * eye
        return u, v
    a6 = a4 @ a2
    if order == 7:
        u = a @ (b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        return u, v
    if order == 9:
        a8 = a6 @ a2
        u = a @ (b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        return u, v
    # order 13
    w1 = b[13] * a6 + b[11] * a4 + b[9] * a2
    w2 = b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    u = a @ (a6 @ w1 + w2)
    z1 = b[12] * a6 + b[10] * a4 + b[8] * a2
    v = a6 @ z1 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return u, v


def matexp(a: np.ndarray, *, basis: bool = False):
    """Matrix exponential exp(a) of a square complex matrix.

    Raises ValueError if a is not square or contains non-finite entries.
    For skew-Hermitian a the result is unitary to working precision.

    With basis=True, a must also equal -a^H bitwise (ValueError otherwise).
    One eigh of H = -1j a gives w, V, and the return value is the pair
    (V e^{iw} V^H, (w, V)); pass the basis to matexp_vjp to skip its own
    decomposition. Without it the exponential is the Pade route.
    """
    a = _as_square_complex(a)
    if not np.isfinite(a).all():
        raise ValueError("matexp requires finite entries")
    if basis:
        if not np.array_equal(a, -a.conj().T):
            raise ValueError("matexp with basis=True requires a == -a^H exactly")
        w, v = np.linalg.eigh(-1j * a)
        return (v * np.exp(1j * w)) @ v.conj().T, (w, v)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = 0
    order = 13
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            order = m
            break
    else:
        if norm > _PADE_THETA[13]:
            squarings = int(math.ceil(math.log2(norm / _PADE_THETA[13])))
            a = a * (2.0 ** -squarings)
    u, v = _pade_uv(a, order)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def matexp_vjp(a: np.ndarray, g: np.ndarray, basis: tuple | None = None) -> np.ndarray:
    """Adjoint of the differential of matexp at a, applied to cotangent g.

    Returns abar such that Re<g, d/dt exp(a + t e)|_0> = Re<abar, e> for
    every direction e, under <X, Y> = Re tr(X^H Y). The result is the full
    adjoint over all directions e, not only skew-Hermitian ones.

    When a equals -a^H bitwise it is i H with H Hermitian, and the adjoint
    is V (conj(F) * (V^H g V)) V^H from H = V diag(w) V^H, with
    F_jk = exp(i (w_j + w_k) / 2) sinc((w_j - w_k) / 2); the sinc form stays
    accurate on repeated eigenvalues. `basis` is the (w, V) that
    matexp(a, basis=True) returned; given it, the adjoint costs four
    products, and without it one d x d eigh more. Every other a takes the
    upper-right block of exp([[a^H, g], [0, a^H]]), a 2d x 2d exponential
    and roughly 8x the cost of the forward one. Raises ValueError on
    non-square, mismatched or non-finite input, and when a basis comes
    with an a that is not bitwise skew-Hermitian.
    """
    a = _as_square_complex(a, "a")
    g = _as_square_complex(g, "g")
    if a.shape != g.shape:
        raise ValueError(f"cotangent shape {g.shape} does not match matrix shape {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(g).all()):
        raise ValueError("matexp_vjp requires finite entries in a and g")
    if np.array_equal(a, -a.conj().T):
        return _spectral_vjp(basis or np.linalg.eigh(-1j * a), g)
    if basis is not None:
        raise ValueError("matexp_vjp with a basis requires a == -a^H exactly")
    d = a.shape[0]
    ah = a.conj().T
    block = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    block[:d, :d] = ah
    block[:d, d:] = g
    block[d:, d:] = ah
    return matexp(block)[:d, d:]


def _spectral_vjp(basis: tuple[np.ndarray, np.ndarray], g: np.ndarray) -> np.ndarray:
    """Daleckii-Krein adjoint of exp at a = i V diag(w) V^H, from basis = (w, V)."""
    w, v = basis
    half = np.exp(-0.5j * w)
    # conj(F); np.sinc(x) is sin(pi x) / (pi x), so this is sin(dw / 2) / (dw / 2).
    f_conj = np.outer(half, half) * np.sinc(np.subtract.outer(w, w) / (2.0 * np.pi))
    vh = v.conj().T
    return v @ ((f_conj * (vh @ g @ v)) @ vh)


def unitarity_error(m: np.ndarray) -> float:
    """Max-abs entry of M^H M - I; zero exactly when M is unitary."""
    m = _as_square_complex(m)
    d = m.shape[0]
    return float(np.abs(m.conj().T @ m - np.eye(d)).max())


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
