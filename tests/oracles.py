"""Independent reference implementations used only to check the library.

Nothing here may import from unitary_forge: these are the brute-force
routes (series summation, explicit dense operators, finite differences)
that the fast implementations are judged against.
"""

from __future__ import annotations

import math

import numpy as np


def taylor_expm(a: np.ndarray, max_terms: int = 200) -> np.ndarray:
    """Matrix exponential by scaled Taylor series in extended precision.

    Scales a down to 1-norm <= 0.5, sums the series until terms vanish at
    extended precision, then squares back up, all in clongdouble.
    """
    a = np.asarray(a, dtype=np.clongdouble)
    d = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max().real)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = a / np.clongdouble(2.0 ** squarings)
    total = np.eye(d, dtype=np.clongdouble)
    term = np.eye(d, dtype=np.clongdouble)
    for k in range(1, max_terms + 1):
        term = term @ a / np.clongdouble(k)
        total = total + term
        if float(np.abs(term).max().real) < 1e-24 * float(np.abs(total).max().real):
            break
    for _ in range(squarings):
        total = total @ total
    return total.astype(np.complex128)


def random_skew_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (x - x.conj().T) / 2.0


def fd_expm_vjp(a: np.ndarray, g: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Finite-difference reconstruction of the exponential's adjoint map.

    Entry (i, j) of the result collects Re<g, d exp(a)/d Re(a_ij)> and the
    matching imaginary-direction derivative, each by central differences
    of the Taylor exponential.
    """
    a = np.asarray(a, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    d = a.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)

    def pair(direction: np.ndarray) -> float:
        plus = taylor_expm(a + h * direction)
        minus = taylor_expm(a - h * direction)
        return float(np.real(np.trace(g.conj().T @ (plus - minus))) / (2.0 * h))

    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            re = pair(e)
            e[i, j] = 1.0j
            im = pair(e)
            out[i, j] = re + 1j * im
    return out


def central_diff_grad(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a real vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


# -- dense circuit oracles ------------------------------------------------
#
# Gate matrices restated here from the standard definitions so the test
# route shares no code with the library.

def oracle_rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def oracle_ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def oracle_rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


ORACLE_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def embed_dense(u_small: np.ndarray, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Dense 2^N operator embedding u_small on the listed wires.

    Brute force over basis states: wire 0 is the most-significant index
    bit, and the first listed wire is the most-significant bit of the
    small operator's index space.
    """
    k = len(wires)
    dim = 2 ** n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n_qubits - 1 - i)) & 1 for i in range(n_qubits)]
        small_col = 0
        for w in wires:
            small_col = (small_col << 1) | bits[w]
        for small_row in range(2 ** k):
            new_bits = list(bits)
            for pos, w in enumerate(wires):
                new_bits[w] = (small_row >> (k - 1 - pos)) & 1
            row = 0
            for i, bb in enumerate(new_bits):
                row |= bb << (n_qubits - 1 - i)
            out[row, col] += u_small[small_row, small_col]
    return out


def dense_circuit_matrix(ops, n_qubits: int) -> np.ndarray:
    """Dense product of a gate list, later gates multiplying from the left."""
    u = np.eye(2 ** n_qubits, dtype=complex)
    table = {"RX": oracle_rx, "RY": oracle_ry, "RZ": oracle_rz}
    for kind, wires, theta in ops:
        small = ORACLE_CNOT if kind == "CNOT" else table[kind](theta)
        u = embed_dense(small, tuple(wires), n_qubits) @ u
    return u


def encode_rows(features: np.ndarray) -> np.ndarray:
    """Per-row tensor product of single-wire RX(x)|0> columns."""
    features = np.asarray(features, dtype=float)
    rows = []
    for x in features:
        amp = np.array([1.0 + 0j])
        for xi in x:
            q = np.array([math.cos(xi / 2), -1j * math.sin(xi / 2)])
            amp = np.kron(amp, q)
        rows.append(amp)
    return np.array(rows)


def z_values(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """Brute-force per-wire Z expectations of each row."""
    b = amps.shape[0]
    out = np.zeros((b, n_qubits))
    for r in range(b):
        for j in range(2 ** n_qubits):
            p = abs(amps[r, j]) ** 2
            for i in range(n_qubits):
                bit = (j >> (n_qubits - 1 - i)) & 1
                out[r, i] += p * (1.0 if bit == 0 else -1.0)
    return out


def quanv_maps(
    pixels: np.ndarray,
    generators,
    out_channels: int,
    channel_block: int,
    kernel: int,
    stride: int,
) -> np.ndarray:
    """State-route quanvolution: (B, out_channels, H', W') feature maps.

    Every patch of each channel block's mean image is RX-encoded as a
    Kronecker product state, evolved by the Taylor exponential of its
    circuit's generator and decoded to the mean of its brute-force Z
    values; the blocks are averaged. `generators` holds the skew-Hermitian
    (2^N, 2^N) matrices in circuit order: output channel o reads block b
    through circuit o * n_blocks + b.
    """
    pixels = np.asarray(pixels, dtype=float)
    b, c, h, w = pixels.shape
    n_blocks = c // channel_block
    hp, wp = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    unitaries = [taylor_expm(g) for g in generators]
    out = np.zeros((b, out_channels, hp, wp))
    for blk in range(n_blocks):
        means = pixels[:, blk * channel_block : (blk + 1) * channel_block].mean(axis=1)
        angles = [
            means[i, r * stride : r * stride + kernel, q * stride : q * stride + kernel].ravel()
            for i in range(b)
            for r in range(hp)
            for q in range(wp)
        ]
        amps = encode_rows(np.array(angles))
        for o in range(out_channels):
            evolved = amps @ unitaries[o * n_blocks + blk].T
            out[:, o] += z_values(evolved, kernel * kernel).mean(axis=1).reshape(b, hp, wp)
    return out / n_blocks
