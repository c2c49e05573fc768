"""Losses, Adam updates, the one minibatch-Adam loop (fit), and the identity task.

The training chain is: RX-encode features, push the batch through a model
(full unitary, partitioned, or composed-gate), decode per-wire Z
expectations, score against targets with mean squared error. Gradients
run the chain in reverse: loss gradient -> state cotangent -> matrix
cotangent -> exponential adjoint -> parameter vector.

Targets for the identity task are the decoded outputs of the untouched
encoding, cos(x) per feature, so a model acting as the identity achieves
zero loss exactly.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .circuit import rx_encode, rx_encode_raw, z_expectations_raw, z_expectations_vjp
from .models import AnsatzModel, FullUnitaryModel, MODEL_KINDS, PartitionedModel

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainReport",
    "adam_init",
    "adam_step",
    "fit",
    "mse_loss",
    "loss_and_grad",
    "build_model",
    "identity_dataset",
    "train_identity",
    "train_report_to_json",
    "loss_curve_csv",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    model_kind: str = "FullUnitary"
    # Model-kind extras. init_scale of None means the per-model default
    # (1/d Gaussian for generator vectors, uniform angles for circuits);
    # 0.0 pins the initial parameters at zero.
    partition_group_size: int = 1
    partition_layers: int = 1
    init_scale: float | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown TrainConfig fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        self.first_moment = np.asarray(self.first_moment, dtype=np.float64)
        self.second_moment = np.asarray(self.second_moment, dtype=np.float64)
        if self.first_moment.shape != self.second_moment.shape:
            raise ValueError("moment vectors must have equal length")
        if self.step_count < 0:
            raise ValueError("step_count must be non-negative")


@dataclass
class TrainReport:
    loss_curve: list[float]
    epoch_times: list[float]
    final_params: dict


def adam_init(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError("params, grads, and state lengths must agree")
    t = state.step_count + 1
    m = cfg.beta1 * state.first_moment + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * state.second_moment + (1.0 - cfg.beta2) * grads * grads
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return new_params, AdamState(m, v, t)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def loss_and_grad(model, features: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and parameter gradient of the encode -> model -> Z-decode chain.

    The decode step's state cotangent (z_expectations_vjp) goes to the
    model, which maps it back to its flat parameter vector (summing the
    per-row outer products into a matrix cotangent, then through the
    exponential adjoint where applicable).
    """
    s0 = rx_encode(features)
    n = s0.n_qubits
    if targets.shape != (s0.batch, n):
        raise ValueError(f"targets shape {targets.shape} does not match ({s0.batch}, {n})")
    if model.n_qubits != n:
        raise ValueError("model wire count does not match the feature dimension")
    out, cache = model.forward(s0.amplitudes)
    pred = z_expectations_raw(out, n)
    loss, g_pred = mse_loss(pred, targets)
    return loss, model.backward(cache, z_expectations_vjp(g_pred, out, n))


def build_model(cfg: TrainConfig, n_qubits: int, seed: int):
    """Instantiate the model named by cfg; an Ansatz gets 4^N angles, as many as FullUnitary."""
    if cfg.model_kind == "FullUnitary":
        return FullUnitaryModel.random(n_qubits, seed, cfg.init_scale)
    if cfg.model_kind == "Partitioned":
        return PartitionedModel.random(
            n_qubits, cfg.partition_group_size, cfg.partition_layers, seed, cfg.init_scale
        )
    angle_scale = 1.0 if cfg.init_scale is None else cfg.init_scale
    return AnsatzModel.random(n_qubits, 4 ** n_qubits, seed, angle_scale)


def derive_seeds(seed: int, n: int) -> list[int]:
    """Deterministic per-component child seeds from one root seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def identity_dataset(n_qubits: int, dataset_size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features uniform in [-pi/2, pi/2]^N; targets are their decoded encodings.

    Targets are computed by decoding the untouched encoding, which equals
    cos(x) per feature. Going through the same decode path as predictions
    makes the identity circuit an exact fixed point of training: the
    gradient there is bitwise zero, not merely rounding-level small.
    """
    rng = np.random.default_rng(seed)
    features = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=(dataset_size, n_qubits))
    targets = z_expectations_raw(rx_encode_raw(features), n_qubits)
    return features, targets


def fit(params, batch_loss_grad, n_rows: int, cfg: TrainConfig, step, after_epoch=None):
    """cfg.epochs passes of minibatch Adam over the flat vector params.

    batch_loss_grad(params, rows) gives the loss and gradient of the rows
    slice of 0..n_rows. step is the Adam update; each caller passes its own
    module binding, which tracing wraps. after_epoch(params) runs inside
    the epoch's timing. Returns the final vector and each epoch's mean batch
    loss and wall time. A non-finite batch loss or gradient raises
    FloatingPointError naming the 1-based epoch and batch, before the update.
    """
    state = adam_init(params.size)
    loss_curve: list[float] = []
    epoch_times: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()
        losses = []
        for batch, start in enumerate(range(0, n_rows, cfg.batch_size), start=1):
            loss, grad = batch_loss_grad(params, slice(start, start + cfg.batch_size))
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                raise FloatingPointError(f"non-finite loss or gradient at epoch {epoch}, batch {batch}")
            params, state = step(params, grad, state, cfg)
            losses.append(loss)
        if after_epoch is not None:
            after_epoch(params)
        epoch_times.append(time.perf_counter() - tic)
        loss_curve.append(float(np.mean(losses)))
    return params, loss_curve, epoch_times


def train_identity(
    cfg: TrainConfig, n_qubits: int, dataset_size: int, warmup: bool = False
) -> TrainReport:
    """Train a model to act as the identity on encoded random data.

    Runs cfg.epochs passes of minibatch Adam (fit) over a seeded dataset
    and logs the wall-clock time of every epoch. The loss recorded per
    epoch is the mean of the minibatch losses evaluated before each update.
    With warmup=True one untimed epoch runs first from the same initial
    parameters and is discarded, so allocation stays out of the timings.
    """
    data_seed, model_seed = derive_seeds(cfg.seed, 2)
    features, targets = identity_dataset(n_qubits, dataset_size, data_seed)
    model = build_model(cfg, n_qubits, model_seed)

    def batch_loss_grad(params, rows):
        model.set_params(params)
        return loss_and_grad(model, features[rows], targets[rows])

    initial = model.get_params()
    if warmup:
        fit(initial, batch_loss_grad, dataset_size, replace(cfg, epochs=1), adam_step)
    params, loss_curve, epoch_times = fit(initial, batch_loss_grad, dataset_size, cfg, adam_step)
    model.set_params(params)
    return TrainReport(loss_curve, epoch_times, model.serialized())


def train_report_to_json(report: TrainReport, context: dict | None = None) -> str:
    payload = asdict(report)
    if context:
        payload["context"] = context
    return json.dumps(payload, indent=2)


def loss_curve_csv(report: TrainReport) -> str:
    """Loss curve as CSV text with columns epoch,loss,seconds."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epoch", "loss", "seconds"])
    for i, (loss, seconds) in enumerate(zip(report.loss_curve, report.epoch_times)):
        writer.writerow([i, repr(loss), repr(seconds)])
    return buf.getvalue()
