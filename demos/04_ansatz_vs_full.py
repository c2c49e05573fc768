"""A fixed gate ansatz is a slice of the full unitary search space.

The two-qubit circuit "RX on wire 0, RY on wire 1" spans a 2-parameter
family of unitaries. The full parametrization has 16 parameters and
contains that family exactly: build the product's generator, read off its
vector, exponentiate, and recover the same matrix. The converse fails -
a random 16-parameter unitary is generally NOT a product of an RX and an
RY, which is the whole point of searching the full group.

Partitioned models sit in between: small unitaries on wire groups trade
expressivity for a parameter count linear in N.
"""

import numpy as np

from unitary_forge.circuit import (
    AnsatzCircuit,
    GateOp,
    StateBatch,
    run_ansatz,
    rx_ry_generator_params,
)
from unitary_forge.liegroup import to_unitary
from unitary_forge.models import FullUnitaryModel, PartitionedModel

np.set_printoptions(precision=4, suppress=True)

t1, t2 = 0.9, -1.7
circuit = AnsatzCircuit(2, (GateOp("RX", (0,), t1), GateOp("RY", (1,), t2)))
# Row j of the output is the circuit applied to basis state j: U's column j.
product = run_ansatz(StateBatch(np.eye(4)), circuit).amplitudes.T
theta = rx_ry_generator_params(t1, t2)
rebuilt = to_unitary(theta)

print("RX ⊗ RY product reproduced from the 16-parameter family:")
print(f"  max deviation: {np.abs(product - rebuilt).max():.2e}")
print(f"  generator vector uses {np.count_nonzero(theta)} of 16 slots\n")

# Separable states stay separable under RX⊗RY, but a generic full
# unitary entangles: compare the two on |00>.
rng = np.random.default_rng(3)
full = FullUnitaryModel.random(2, seed=3)
ground = np.zeros((1, 4), dtype=complex)
ground[0, 0] = 1.0
entangled = (full.forward(ground)[0])[0]
# Schmidt test: reshape to 2x2 and look at the singular values.
svals = np.linalg.svd(entangled.reshape(2, 2), compute_uv=False)
print("singular values of the full-unitary output (two nonzero => entangled):")
print(f"  {svals}\n")

print("parameter counts, 8 wires:")
print(f"  full unitary:            {FullUnitaryModel.random(8, seed=0).n_params:>6d}")
for k, m in ((1, 1), (2, 3), (4, 2)):
    model = PartitionedModel.random(8, group_size=k, n_layers=m, seed=0)
    print(f"  partitioned k={k}, m={m}:     {model.n_params:>6d}")
