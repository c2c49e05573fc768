"""Differentiable circuit models sharing one forward/backward protocol.

Every model owns a flat real parameter vector and maps a (B, 2^N) batch of
input amplitudes to output amplitudes. `forward` returns the outputs plus
whatever the reverse pass needs; `backward` turns a state cotangent (under
Re<c, psi>) into a gradient on the flat vector. One private base holds the
vector and the rest of the protocol (`n_params`, `get_params`,
`set_params`, `apply`, `serialized`); a model adds only its own
constructors, `forward`, `backward` and serialization payload. This is the
only module that runs the generator -> unitary -> adjoint chain: the
quanv layer runs all its circuits as one stacked FullUnitaryModel.
`forward` exponentiates each generator with matexp(x, basis=True), the
package's one exponential kernel (one eigh), and caches the eigenbasis,
which `backward` hands to matexp_vjp, so a training step decomposes each
generator once. `apply` is `forward`. The circuit functions run the same
kernels (the gate chain is compiled and walked in circuit.py, for the
model and `run_ansatz` alike), so inference, training and the circuit
path agree bit for bit.

Three families cover the expressivity spectrum:

* FullUnitaryModel - one generator vector of length 2^(2N), or a (k, 2^(2N))
  stack of k circuits; the whole unitary group, applied as a matrix product.
* PartitionedModel - per-layer wire partitions with one small generator
  per group; parameter count scales linearly in N for fixed group size.
* AnsatzModel - a composed-gate circuit whose rotation angles are the
  parameters; the classic restricted search space, and the slow baseline
  in the benchmarks (one 2x2 application per gate instead of one matmul).
"""

from __future__ import annotations

import json

import numpy as np

from .circuit import (
    AnsatzCircuit,
    CNOT_MATRIX,
    PartitionedUnitary,
    StateBatch,
    WirePartition,
    apply_group_raw,
    cyclic_partitions,
    group_cotangent,
    random_layer,
    run_ansatz_raw,
)
from .liegroup import assemble, param_grad, random_params
from .linalg import matexp, matexp_vjp

__all__ = ["FullUnitaryModel", "PartitionedModel", "AnsatzModel", "MODEL_KINDS"]

MODEL_KINDS = ("FullUnitary", "Partitioned", "Ansatz")


class _Model:
    """Shared protocol: a subclass sets `kind` and `n_qubits`, stores `theta`
    through _set_theta, and adds `forward`, `backward` and `_payload()`."""

    @property
    def n_params(self) -> int:
        return self.theta.size

    def get_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_params(self, theta: np.ndarray) -> None:
        self._set_theta(theta, self.theta.shape)

    def _set_theta(self, theta: np.ndarray, shape: tuple[int, ...]) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.size != np.prod(shape):
            raise ValueError(f"parameter vector length {theta.size}, expected {np.prod(shape)}")
        self.theta = theta.reshape(shape).copy()

    def apply(self, s: StateBatch) -> StateBatch:
        out, _ = self.forward(s.amplitudes)
        return StateBatch(out)

    def serialized(self) -> dict:
        return {"model_kind": self.kind, "n_qubits": self.n_qubits, "payload": self._payload()}


class FullUnitaryModel(_Model):
    """U(2^N) model: theta -> exp(assemble(theta)) applied to all wires."""

    kind = "FullUnitary"

    def __init__(self, n_qubits: int, theta: np.ndarray):
        self.n_qubits = n_qubits
        self.dim = 2 ** n_qubits
        self._set_theta(theta, (*np.shape(theta)[:-1], self.dim ** 2))

    @classmethod
    def random(cls, n_qubits: int, seed: int, scale: float | None = None) -> "FullUnitaryModel":
        return cls(n_qubits, random_params(2 ** n_qubits, seed, scale))

    def forward(self, amps: np.ndarray):
        x = assemble(self.theta)
        u, basis = matexp(x, basis=True)
        out = amps @ u.swapaxes(-1, -2)
        return out, (amps, x, basis)

    def backward(self, cache, cot: np.ndarray) -> np.ndarray:
        in_amps, x, basis = cache
        ubar = cot.swapaxes(-1, -2) @ in_amps.conj()
        return param_grad(matexp_vjp(x, ubar, basis))

    def _payload(self) -> dict:
        return {"dim": self.dim, "theta": self.theta.tolist()}


class PartitionedModel(_Model):
    """Stack of wire partitions, each group carrying its own small generator."""

    kind = "Partitioned"

    def __init__(self, n_qubits: int, partitions: list[WirePartition], theta: np.ndarray):
        self.n_qubits = n_qubits
        self.partitions = list(partitions)
        if any(p.n_qubits != n_qubits for p in self.partitions):
            raise ValueError("partition wire count does not match the model")
        # Flat layout: layers in order, groups in order within each layer.
        self._slices: list[tuple[tuple[int, ...], slice]] = []
        offset = 0
        for p in self.partitions:
            for group in p.groups:
                size = (2 ** len(group)) ** 2
                self._slices.append((group, slice(offset, offset + size)))
                offset += size
        self._set_theta(theta, (offset,))

    @classmethod
    def random(
        cls,
        n_qubits: int,
        group_size: int,
        n_layers: int,
        seed: int,
        scale: float | None = None,
    ) -> "PartitionedModel":
        partitions = cyclic_partitions(n_qubits, group_size, n_layers)
        rng = np.random.default_rng(seed)
        chunks = []
        for p in partitions:
            for group in p.groups:
                d = 2 ** len(group)
                s = (1.0 / d) if scale is None else scale
                chunks.append(s * rng.standard_normal(d * d))
        return cls(n_qubits, partitions, np.concatenate(chunks))

    def forward(self, amps: np.ndarray):
        apps = []
        out = amps
        for group, sl in self._slices:
            x = assemble(self.theta[sl])
            u, basis = matexp(x, basis=True)
            apps.append((group, sl, x, basis, u, out))
            out = apply_group_raw(out, self.n_qubits, group, u)
        return out, apps

    def backward(self, cache, cot: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(self.theta)
        for group, sl, x, basis, u, in_amps in reversed(cache):
            ubar = group_cotangent(cot, in_amps, self.n_qubits, group)
            grad[sl] = param_grad(matexp_vjp(x, ubar, basis))
            cot = apply_group_raw(cot, self.n_qubits, group, u.conj().T)
        return grad

    def as_partitioned_unitary(self) -> PartitionedUnitary:
        thetas = iter(self.theta[sl].copy() for _, sl in self._slices)
        layers = tuple((p, tuple(next(thetas) for _ in p.groups)) for p in self.partitions)
        return PartitionedUnitary(self.n_qubits, layers)

    def _payload(self) -> dict:
        return json.loads(self.as_partitioned_unitary().to_json())


class AnsatzModel(_Model):
    """Composed-gate circuit whose rotation angles are the parameters.

    The template is compiled once by AnsatzCircuit.chain; `forward` is the
    walk `run_ansatz` runs (circuit.run_ansatz_raw) and caches its rotation
    stack. The reverse pass is adjoint-style (Jones & Gacon 2020): it
    caches no state per gate but walks the stacked [psi; cot] back through
    each inverse gate in one application. With M the gate's matrix
    cotangent at its output, d/dtheta Re<cot, U psi_in> = 0.5 Im
    sum(conj(M) * G).
    """

    kind = "Ansatz"

    def __init__(self, template: AnsatzCircuit):
        self.n_qubits = template.n_qubits
        self.template = template
        self.theta = template.angles()
        self._chain, self._paulis = template.chain()

    @classmethod
    def random(cls, n_qubits: int, n_gates: int, seed: int, angle_scale: float = 1.0) -> "AnsatzModel":
        circuit = random_layer(n_qubits, n_gates, seed)
        model = cls(circuit)
        if angle_scale != 1.0:
            model.set_params(model.theta * angle_scale)
        return model

    def forward(self, amps: np.ndarray):
        out, rot = run_ansatz_raw(amps, self.n_qubits, self._chain, self._paulis, self.theta)
        return out, (out, rot)

    def backward(self, cache, cot: np.ndarray) -> np.ndarray:
        psi, rot = cache
        b = len(psi)
        inverse = rot.conj().transpose(0, 2, 1)
        walk = np.concatenate([psi, cot])
        m = np.empty_like(rot)
        for wires, r in reversed(self._chain):
            if r is not None:
                m[r] = group_cotangent(walk[b:], walk[:b], self.n_qubits, wires)
            # CNOT is its own inverse.
            walk = apply_group_raw(walk, self.n_qubits, wires, CNOT_MATRIX if r is None else inverse[r])
        return 0.5 * np.sum(m.conj() * self._paulis, axis=(1, 2)).imag

    def circuit(self) -> AnsatzCircuit:
        return self.template.with_angles(self.theta)

    def _payload(self) -> dict:
        return json.loads(self.circuit().to_json())
