"""A convolution whose filter is a quantum circuit.

Thirty-two four-qubit circuits slide over 2x2 patches of a 16-channel
image: each patch is averaged per channel block, encoded as RX angles,
evolved by the circuit's unitary, and decoded to a Z-expectation mean.
That value is a trigonometric polynomial of degree 1 in each angle, so
each circuit runs only on the 81 states of a fixed probe grid and every
patch value is an exact interpolation of those 81 values. A
linear-softmax head on the resulting 8-channel feature maps classifies
bright-top vs bright-bottom synthetic images; circuits and head train
jointly through the exponential adjoint.
"""

import numpy as np

from unitary_forge.optim import TrainConfig
from unitary_forge.quanv import (
    quanv_forward,
    random_quanv_spec,
    synthetic_two_class,
    train_quanv_demo,
)

imgs, labels = synthetic_two_class(64, seed=0)
print(f"dataset: {imgs.batch} images, {imgs.channels} channels, "
      f"{imgs.height}x{imgs.width}, classes balanced at {labels.mean():.2f}")

spec = random_quanv_spec(seed=0)
feats = quanv_forward(imgs, spec)
print(f"quanv features: {feats.shape}, range [{feats.min():.2f}, {feats.max():.2f}]")
print(f"circuits: {spec.n_circuits} on {spec.n_qubits} qubits, "
      f"{sum(t.size for t in spec.circuits)} circuit parameters\n")

cfg = TrainConfig(learning_rate=0.05, epochs=30, batch_size=64, seed=0)
report = train_quanv_demo(imgs, labels, cfg)

print(f"untrained accuracy: {report.initial_accuracy:.2f}")
print("epoch  loss      accuracy")
for e in (0, 1, 2, 4, 9, 19, 29):
    print(f"{e:>5d}  {report.loss_curve[e]:.4f}    {report.accuracy_curve[e]:.2f}")
print(f"\nmean epoch time: {1e3 * float(np.mean(report.epoch_times)):.0f} ms")
