"""Batched statevector simulation: encode, apply unitaries, decode.

A batch of B states on N wires is a (B, 2^N) complex array with unit-norm
rows. Wire 0 is the most-significant bit of the basis-state index,
project-wide: basis state |q0 q1 ... q_{N-1}> sits at index
sum(q_i << (N-1-i)).

Subsystem unitaries are applied by index gymnastics (reshape to a rank-N
tensor, move the target axes, one matmul) rather than by building the
dense 2^N x 2^N operator; the dense route exists only as a test oracle.

Each circuit family has one forward walk, shared with its model, so the
circuit checked against dense oracles is the one that trains: a gate
circuit compiles (`AnsatzCircuit.chain`) to steps that `run_ansatz_raw`
walks, and a partitioned unitary's same-size groups take one stack of
unitaries that `run_partitioned_raw` applies in order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .liegroup import disassemble, param_dim, to_unitary

__all__ = [
    "StateBatch",
    "GateOp",
    "AnsatzCircuit",
    "WirePartition",
    "PartitionedUnitary",
    "rx_encode",
    "apply_group",
    "apply_partitioned",
    "run_ansatz",
    "z_expectations",
    "random_layer",
    "cyclic_partitions",
    "CNOT_MATRIX",
    "rx_ry_generator_params",
]

NORM_TOL = 1e-8

ROTATION_KINDS = ("RX", "RY", "RZ")

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)


# Pauli generator G of each rotation kind: the gate is exp(-i theta G / 2).
ROTATION_PAULIS = {
    "RX": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "RY": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "RZ": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class StateBatch:
    """B statevectors on N wires; rows stay normalized to 1e-8."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 2:
            raise ValueError(f"amplitudes must be (batch, 2^N), got shape {amps.shape}")
        b, dim = amps.shape
        if b < 1 or dim < 2 or (dim & (dim - 1)) != 0:
            raise ValueError(f"invalid batch shape {amps.shape}: width must be a power of two >= 2")
        norms = np.abs(amps) ** 2
        dev = float(np.abs(norms.sum(axis=1) - 1.0).max())
        if not dev <= NORM_TOL:  # also catches a NaN deviation
            raise ValueError(f"rows are not normalized: max|norm^2 - 1| = {dev:.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def batch(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


@dataclass(frozen=True)
class GateOp:
    """One gate: RX/RY/RZ with an angle on one wire, or CNOT on two."""

    kind: str
    wires: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if self.kind in ROTATION_KINDS:
            if len(self.wires) != 1:
                raise ValueError(f"{self.kind} acts on exactly one wire, got {self.wires}")
            if self.theta is None:
                raise ValueError(f"{self.kind} requires an angle")
            object.__setattr__(self, "theta", float(self.theta))
            if not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} angle must be finite, got {self.theta}")
        elif self.kind == "CNOT":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError(f"CNOT needs distinct control and target, got {self.wires}")
            if self.theta is not None:
                raise ValueError("CNOT takes no angle")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class AnsatzCircuit:
    """Ordered gate list on a fixed wire count."""

    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        for op in self.ops:
            if any(w < 0 or w >= self.n_qubits for w in op.wires):
                raise ValueError(f"gate {op} uses wires outside 0..{self.n_qubits - 1}")

    @property
    def n_rotations(self) -> int:
        return sum(1 for op in self.ops if op.kind in ROTATION_KINDS)

    def angles(self) -> np.ndarray:
        return np.array([op.theta for op in self.ops if op.kind in ROTATION_KINDS])

    def with_angles(self, angles: np.ndarray) -> "AnsatzCircuit":
        angles = np.asarray(angles, dtype=np.float64)
        if angles.size != self.n_rotations:
            raise ValueError(f"expected {self.n_rotations} angles, got {angles.size}")
        it = iter(angles)
        ops = tuple(
            GateOp(op.kind, op.wires, float(next(it))) if op.kind in ROTATION_KINDS else op
            for op in self.ops
        )
        return AnsatzCircuit(self.n_qubits, ops)

    def chain(self) -> tuple[list, np.ndarray]:
        """Compile to (wires, angle index) steps, None for a CNOT, and the
        (R, 2, 2) stack of each rotation's Pauli, in angle order."""
        rotations = [op for op in self.ops if op.kind in ROTATION_KINDS]
        paulis = np.array([ROTATION_PAULIS[op.kind] for op in rotations]).reshape(-1, 2, 2)
        index = iter(range(len(rotations)))
        steps = [(op.wires, next(index) if op.kind in ROTATION_KINDS else None) for op in self.ops]
        return steps, paulis

    def to_json(self) -> str:
        payload = {
            "n_qubits": self.n_qubits,
            "ops": [
                {"kind": op.kind, "wires": list(op.wires)}
                | ({"theta": op.theta} if op.theta is not None else {})
                for op in self.ops
            ],
        }
        return json.dumps(payload)


@dataclass(frozen=True)
class WirePartition:
    """Disjoint wire groups covering all of 0..N-1."""

    n_qubits: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(int(w) for w in g) for g in self.groups)
        )
        seen: list[int] = []
        for g in self.groups:
            if not g:
                raise ValueError("empty wire group")
            seen.extend(g)
        if sorted(seen) != list(range(self.n_qubits)):
            raise ValueError(
                f"groups {self.groups} are not a disjoint cover of 0..{self.n_qubits - 1}"
            )


@dataclass(frozen=True)
class PartitionedUnitary:
    """m layers of wire partitions, each group with its own generator vector.

    Every group has the same size k and carries a dim-2^k parameter
    vector, so m layers of N/k groups hold (N*m/k) * 2^(2k) parameters.
    """

    n_qubits: int
    layers: tuple[tuple[WirePartition, tuple[np.ndarray, ...]], ...]

    def __post_init__(self):
        d = 2 ** len(partition_groups(self.n_qubits, [p for p, _ in self.layers])[0])
        layers = []
        for partition, thetas in self.layers:
            thetas = tuple(np.asarray(t, dtype=np.float64) for t in thetas)
            if len(thetas) != len(partition.groups):
                raise ValueError("one parameter vector per group is required")
            if any(param_dim(t) != d for t in thetas):
                dims = [param_dim(t) for t in thetas]
                raise ValueError(f"each group needs a dim-{d} parameter vector, got dims {dims}")
            layers.append((partition, thetas))
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def n_params(self) -> int:
        return sum(t.size for _, thetas in self.layers for t in thetas)

    def to_json(self) -> str:
        payload = {
            "n_qubits": self.n_qubits,
            "layers": [
                {
                    "groups": [
                        {"wires": list(g), "theta": t.tolist()}
                        for g, t in zip(partition.groups, thetas)
                    ]
                }
                for partition, thetas in self.layers
            ],
        }
        return json.dumps(payload)


def partition_groups(n_qubits: int, partitions: list[WirePartition]) -> tuple:
    """Every group's wires, layer by layer; raises unless all are on n_qubits wires and one size."""
    if any(p.n_qubits != n_qubits for p in partitions):
        raise ValueError(f"partition wire count does not match {n_qubits}")
    groups = tuple(g for p in partitions for g in p.groups)
    sizes = sorted({len(g) for g in groups})
    if len(sizes) != 1:
        raise ValueError(f"all groups must share one size, got sizes {sizes}")
    return groups


def cyclic_partitions(n_qubits: int, group_size: int, n_layers: int) -> list[WirePartition]:
    """n_layers partitions into contiguous size-k groups, shifted one wire per layer.

    Shifting the group boundaries between layers lets wires from different
    groups interact once several layers are stacked. Requires k | N.
    """
    if group_size < 1 or n_qubits % group_size != 0:
        raise ValueError(f"group size {group_size} must divide the wire count {n_qubits}")
    if n_layers < 1:
        raise ValueError(f"partition_layers must be >= 1, got {n_layers}")
    partitions = []
    for layer in range(n_layers):
        groups = tuple(
            tuple((layer + base + t) % n_qubits for t in range(group_size))
            for base in range(0, n_qubits, group_size)
        )
        partitions.append(WirePartition(n_qubits, groups))
    return partitions


# -- raw array engine ---------------------------------------------------
#
# The functions below act on bare (B, 2^N) arrays with no normalization
# checks, so the same machinery can push cotangent vectors around during
# backpropagation.


def apply_group_raw(amps: np.ndarray, n_qubits: int, wires: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed wires of every batch row.

    The first listed wire is the most-significant bit of the small index.
    Single-wire gates take a cheap path: with wire w sitting between 2^w
    higher and 2^(N-1-w) lower index bits, the two wire slices are plain
    views and the update is four scalar multiplies; no axis shuffling.
    """
    b = amps.shape[0]
    k = len(wires)
    if k == 1:
        w = wires[0]
        low = 1 << (n_qubits - 1 - w)
        t = amps.reshape(-1, 2, low)
        t0, t1 = t[:, 0, :], t[:, 1, :]
        out = np.empty_like(t)
        out[:, 0, :] = u[0, 0] * t0 + u[0, 1] * t1
        out[:, 1, :] = u[1, 0] * t0 + u[1, 1] * t1
        return out.reshape(b, -1)
    # Keep `mat` alive through the copy: freed sooner, glibc re-faults the heap (+30% at N=10).
    mat = _to_subsystem_matrix(amps, n_qubits, wires)
    out = (mat @ u.T).reshape((b,) + (2,) * n_qubits)
    out = np.moveaxis(out, list(range(n_qubits + 1 - k, n_qubits + 1)), [1 + w for w in wires])
    return out.reshape(b, -1)


def group_cotangent(
    cot: np.ndarray, in_amps: np.ndarray, n_qubits: int, wires: tuple[int, ...]
) -> np.ndarray:
    """Cotangent for the small matrix of apply_group_raw.

    With out = U psi_in on the subsystem, dL = Re<cot, dU psi_in> defines
    Ubar[a, b] = sum over batch and spectator indices of
    cot[(a, rest)] * conj(psi_in[(b, rest)]).
    """
    if len(wires) == 1:
        low = 1 << (n_qubits - 1 - wires[0])
        c = cot.reshape(-1, 2, low)
        p = in_amps.reshape(-1, 2, low)
        return np.einsum("ail,ajl->ij", c, p.conj())
    c = _to_subsystem_matrix(cot, n_qubits, wires)
    p = _to_subsystem_matrix(in_amps, n_qubits, wires)
    return c.T @ p.conj()


def run_ansatz_raw(amps: np.ndarray, n_qubits: int, steps: list, paulis: np.ndarray, theta: np.ndarray):
    """Walk compiled gate-chain steps; returns the outputs and the rotations.

    One vectorized cos/sin builds every rotation exp(-i theta G / 2) =
    cos(theta/2) I - i sin(theta/2) G, then each step is one application.
    """
    half = 0.5 * theta[:, None, None]
    rot = np.cos(half) * np.eye(2) - 1j * np.sin(half) * paulis
    out = amps
    for wires, r in steps:
        out = apply_group_raw(out, n_qubits, wires, CNOT_MATRIX if r is None else rot[r])
    return out, rot


def run_partitioned_raw(amps: np.ndarray, n_qubits: int, groups: tuple, u: np.ndarray):
    """Apply u[i] to the wires groups[i] in order; returns the outputs and each group's input."""
    inputs = []
    for wires, u_group in zip(groups, u):
        inputs.append(amps)
        amps = apply_group_raw(amps, n_qubits, wires, u_group)
    return amps, inputs


def _to_subsystem_matrix(amps: np.ndarray, n_qubits: int, wires: tuple[int, ...]) -> np.ndarray:
    b = amps.shape[0]
    k = len(wires)
    t = amps.reshape((b,) + (2,) * n_qubits)
    src = [1 + w for w in wires]
    dst = list(range(n_qubits + 1 - k, n_qubits + 1))
    t = np.moveaxis(t, src, dst)
    return t.reshape(-1, 2 ** k)


@lru_cache(maxsize=None)
def z_signs(n_qubits: int) -> np.ndarray:
    """(2^N, N) matrix of +-1: sign of Z on wire i for each basis state."""
    idx = np.arange(2 ** n_qubits)
    shifts = n_qubits - 1 - np.arange(n_qubits)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return 1.0 - 2.0 * bits


def z_expectations_raw(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    probs = np.abs(amps) ** 2
    return probs @ z_signs(n_qubits)


def z_expectations_vjp(g: np.ndarray, amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """State cotangent of E = |psi|^2 @ signs under Re<c, psi>, given g = dL/dE."""
    return 2.0 * (g @ z_signs(n_qubits).T) * amps


def rx_encode_raw(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    b, n = features.shape
    c = np.cos(features / 2.0)
    s = -1j * np.sin(features / 2.0)
    amps = np.ones((b, 1), dtype=np.complex128)
    for i in range(n):
        qubit = np.stack([c[:, i], s[:, i]], axis=1)
        amps = (amps[:, :, None] * qubit[:, None, :]).reshape(b, -1)
    return amps


# -- public operations ---------------------------------------------------


def rx_encode(features: np.ndarray) -> StateBatch:
    """Encode a (B, N) real feature array as per-wire RX rotations of |0>.

    Row b becomes the product state with wire i in RX(x[b, i])|0>, i.e.
    amplitudes (cos x/2, -i sin x/2) per wire. The feature dimension fixes
    the wire count.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be (batch, wires), got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    return StateBatch(rx_encode_raw(features))


def apply_group(s: StateBatch, wires: tuple[int, ...], u_small: np.ndarray) -> StateBatch:
    """Apply a small unitary to a subset of wires.

    Equivalent to the dense operator with the identity everywhere else and
    u_small permuted onto the listed wires; the first listed wire is the
    most-significant bit of u_small's index space.
    """
    wires = tuple(int(w) for w in wires)
    if len(set(wires)) != len(wires) or not wires:
        raise ValueError(f"wires must be non-empty and distinct, got {wires}")
    if any(w < 0 or w >= s.n_qubits for w in wires):
        raise ValueError(f"wires {wires} out of range for {s.n_qubits} qubits")
    u_small = np.asarray(u_small, dtype=np.complex128)
    k = len(wires)
    if u_small.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {u_small.shape} does not match {k} wires")
    return StateBatch(apply_group_raw(s.amplitudes, s.n_qubits, wires, u_small))


def apply_partitioned(s: StateBatch, pu: PartitionedUnitary) -> StateBatch:
    """Apply each layer's per-group unitaries in order, all exponentiated as one stack."""
    if pu.n_qubits != s.n_qubits:
        raise ValueError("partitioned unitary wire count does not match the state")
    u = to_unitary(np.array([t for _, thetas in pu.layers for t in thetas]))
    groups = partition_groups(pu.n_qubits, [partition for partition, _ in pu.layers])
    out, _ = run_partitioned_raw(s.amplitudes, s.n_qubits, groups, u)
    return StateBatch(out)


def run_ansatz(s: StateBatch, c: AnsatzCircuit) -> StateBatch:
    if c.n_qubits != s.n_qubits:
        raise ValueError("circuit wire count does not match the state")
    out, _ = run_ansatz_raw(s.amplitudes, s.n_qubits, *c.chain(), c.angles())
    return StateBatch(out)


def z_expectations(s: StateBatch) -> np.ndarray:
    """Per-wire Z expectation of each row: probability-weighted +-1 by bit."""
    return z_expectations_raw(s.amplitudes, s.n_qubits)


def random_layer(n_qubits: int, n_params: int, seed: int) -> AnsatzCircuit:
    """Composed-gate baseline circuit with exactly n_params trainable angles.

    Gate kinds are drawn uniformly from RX/RY/RZ on uniform wires with
    angles uniform in (-pi, pi); after each rotation a CNOT on a random
    distinct pair is inserted with probability 0.3 (wire counts >= 2).
    Deterministic for a fixed seed.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if n_params < 1:
        raise ValueError("n_params must be >= 1")
    rng = np.random.default_rng(seed)
    ops: list[GateOp] = []
    for _ in range(n_params):
        kind = ROTATION_KINDS[rng.integers(0, 3)]
        wire = int(rng.integers(0, n_qubits))
        theta = float(rng.uniform(-math.pi, math.pi))
        ops.append(GateOp(kind, (wire,), theta))
        if n_qubits >= 2 and rng.random() < 0.3:
            control, target = (int(w) for w in rng.choice(n_qubits, size=2, replace=False))
            ops.append(GateOp("CNOT", (control, target)))
    return AnsatzCircuit(n_qubits, tuple(ops))


def rx_ry_generator_params(theta1: float, theta2: float) -> np.ndarray:
    """Generator vector whose exponential is RX(theta1) on wire 0 times RY(theta2) on wire 1.

    The two single-wire generators commute after embedding, so the sum of
    kron(-i*theta1/2 * X, I) and kron(I, -i*theta2/2 * Y) exponentiates to
    the tensor product of the two rotations. Demonstrates that the
    composed-gate family sits inside the full parametrization.
    """
    gen_rx = np.array([[0.0, -0.5j * theta1], [-0.5j * theta1, 0.0]], dtype=np.complex128)
    gen_ry = np.array([[0.0, -0.5 * theta2], [0.5 * theta2, 0.0]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    generator = np.kron(gen_rx, eye) + np.kron(eye, gen_ry)
    return disassemble(generator)
