"""Quanvolutional layer: quantum circuits sliding over image patches.

Each output channel owns one four-qubit circuit per input-channel block.
At every patch location the 2x2 spatial patch is averaged over the block's
channels, the four means become four RX angles, the circuit's full
unitary is applied, and the four Z expectations are averaged into a
scalar. Averaging keeps every value inside [-1, 1]. With the default
16 -> 8 channel map and blocks of 4 this builds 8 * 4 = 32 circuits.

Every circuit is a FullUnitaryModel, so the forward and reverse passes go
through the same generator -> unitary -> adjoint chain as the identity
task. The demo classifier puts a linear-softmax head on the flattened
feature maps and trains head and circuits jointly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass

import numpy as np

from .circuit import rx_encode_raw, z_expectations_raw, z_expectations_vjp
from .liegroup import random_params
# Unused here (circuits exponentiate in FullUnitaryModel), but kept bound:
# perfbench/test_perfbench.py asserts that tracing wraps quanv.matexp.
from .linalg import matexp  # noqa: F401
from .models import FullUnitaryModel
# The quanv_c32 benchmark times steps with a shim on quanv.adam_step.
from .optim import TrainConfig, adam_init, adam_step, derive_seeds

__all__ = [
    "PIXEL_RANGE",
    "ImageBatch",
    "QuanvSpec",
    "QuanvReport",
    "random_quanv_spec",
    "extract_patches",
    "quanv_forward",
    "train_quanv_demo",
    "synthetic_two_class",
    "scale_pixels",
    "load_image_csv",
    "images_to_csv",
]

PIXEL_RANGE = (-np.pi / 2.0, np.pi / 2.0)


@dataclass(frozen=True)
class ImageBatch:
    """(B, C, H, W) pixel tensor scaled into [-pi/2, pi/2]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 4:
            raise ValueError(f"pixels must be (batch, channels, height, width), got {px.shape}")
        lo, hi = PIXEL_RANGE
        if px.size and (px.min() < lo - 1e-9 or px.max() > hi + 1e-9):
            raise ValueError(
                f"pixels outside [{lo:.4f}, {hi:.4f}]; rescale at ingestion (see scale_pixels)"
            )
        object.__setattr__(self, "pixels", px)

    @property
    def batch(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[2]

    @property
    def width(self) -> int:
        return self.pixels.shape[3]


@dataclass(frozen=True)
class QuanvSpec:
    """Wiring of the quanvolutional layer plus its circuit parameters.

    Input channels are split into blocks of channel_block; output channel
    o reads block b through circuit index o * n_blocks + b. Kernel width
    squared must equal the qubit count so a spatial patch fills the
    register.
    """

    in_channels: int = 16
    out_channels: int = 8
    kernel: int = 2
    stride: int = 1
    n_qubits: int = 4
    channel_block: int = 4
    circuits: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.kernel ** 2 != self.n_qubits:
            raise ValueError(f"kernel^2 = {self.kernel ** 2} must equal n_qubits = {self.n_qubits}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.in_channels % self.channel_block != 0:
            raise ValueError("channel_block must divide in_channels")
        circuits = tuple(np.asarray(t, dtype=np.float64) for t in self.circuits)
        expected = self.out_channels * self.n_blocks
        if len(circuits) != expected:
            raise ValueError(f"need {expected} circuits, got {len(circuits)}")
        dim = 2 ** self.n_qubits
        for t in circuits:
            if t.size != dim * dim:
                raise ValueError(f"each circuit needs {dim * dim} parameters, got {t.size}")
        object.__setattr__(self, "circuits", circuits)

    @property
    def n_blocks(self) -> int:
        return self.in_channels // self.channel_block

    @property
    def n_circuits(self) -> int:
        return len(self.circuits)


def random_quanv_spec(seed: int, **overrides) -> QuanvSpec:
    """QuanvSpec with independently seeded generator vectors per circuit."""
    settings = {
        f.name: f.default for f in dataclasses.fields(QuanvSpec) if f.name != "circuits"
    }
    settings.update(overrides)
    n_circuits = settings["out_channels"] * (settings["in_channels"] // settings["channel_block"])
    dim = 2 ** settings["n_qubits"]
    circuits = tuple(random_params(dim, s) for s in derive_seeds(seed, n_circuits))
    return QuanvSpec(circuits=circuits, **settings)


def extract_patches(imgs: ImageBatch, kernel: int, stride: int) -> np.ndarray:
    """All valid kernel x kernel windows: (B, C, H', W', k, k).

    H' = floor((H - k) / stride) + 1 and likewise for W'.
    """
    if kernel < 1 or kernel > imgs.height or kernel > imgs.width:
        raise ValueError(f"kernel {kernel} does not fit a {imgs.height}x{imgs.width} image")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    windows = np.lib.stride_tricks.sliding_window_view(imgs.pixels, (kernel, kernel), axis=(2, 3))
    return windows[:, :, ::stride, ::stride].copy()


def _patch_angles(imgs: ImageBatch, spec: QuanvSpec) -> np.ndarray:
    """(B, n_blocks, H', W', k^2) per-block mean patches, flattened row-major."""
    patches = extract_patches(imgs, spec.kernel, spec.stride)
    b, _, hp, wp, k, _ = patches.shape
    blocked = patches.reshape(b, spec.n_blocks, spec.channel_block, hp, wp, k, k)
    means = blocked.mean(axis=2)
    return means.reshape(b, spec.n_blocks, hp, wp, k * k)


def _forward_cached(imgs: ImageBatch, spec: QuanvSpec):
    if imgs.channels != spec.in_channels:
        raise ValueError(f"image has {imgs.channels} channels, spec expects {spec.in_channels}")
    angles = _patch_angles(imgs, spec)
    b, n_blocks, hp, wp, _ = angles.shape
    rows = b * hp * wp
    encoded = []
    for blk in range(n_blocks):
        encoded.append(rx_encode_raw(angles[:, blk].reshape(rows, spec.n_qubits)))
    out = np.zeros((b, spec.out_channels, hp, wp))
    circuit_cache = []
    for o in range(spec.out_channels):
        for blk in range(n_blocks):
            model = FullUnitaryModel(spec.n_qubits, spec.circuits[o * n_blocks + blk])
            states, model_cache = model.forward(encoded[blk])
            zmean = z_expectations_raw(states, spec.n_qubits).mean(axis=1)
            out[:, o] += zmean.reshape(b, hp, wp)
            circuit_cache.append((o, model, states, model_cache))
    out /= n_blocks
    return out, circuit_cache


def quanv_forward(imgs: ImageBatch, spec: QuanvSpec) -> np.ndarray:
    """Feature maps (B, out_channels, H', W'), each value in [-1, 1]."""
    out, _ = _forward_cached(imgs, spec)
    return out


def _backward_circuits(spec: QuanvSpec, cache, d_out: np.ndarray) -> list[np.ndarray]:
    """Per-circuit parameter gradients given dL/d(feature maps)."""
    scale = 1.0 / (spec.n_blocks * spec.n_qubits)
    grads = []
    for o, model, states, model_cache in cache:
        g_rows = d_out[:, o].reshape(-1) * scale
        gz = g_rows[:, None] * np.ones((1, spec.n_qubits))
        grads.append(model.backward(model_cache, z_expectations_vjp(gz, states, spec.n_qubits)))
    return grads


@dataclass
class QuanvReport:
    initial_accuracy: float
    accuracy_curve: list[float]
    loss_curve: list[float]
    epoch_times: list[float]
    final_params: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Loss, dL/dlogits, and accuracy for integer labels."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    return loss, dlogits, accuracy


def train_quanv_demo(
    imgs: ImageBatch,
    labels: np.ndarray,
    cfg: TrainConfig,
    spec: QuanvSpec | None = None,
) -> QuanvReport:
    """Jointly train the quanv circuits and a linear-softmax head.

    Minibatch Adam over the flattened (circuits + head) parameter vector;
    accuracy over the full dataset is logged after every epoch, plus once
    before training starts.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (imgs.batch,):
        raise ValueError("labels must be one integer per image")
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise ValueError("need at least two classes")
    spec_seed, head_seed = derive_seeds(cfg.seed, 2)
    if spec is None:
        spec = random_quanv_spec(spec_seed)

    probe, _ = _forward_cached(ImageBatch(imgs.pixels[:1]), spec)
    n_features = probe[0].size
    rng = np.random.default_rng(head_seed)
    weights = 0.01 * rng.standard_normal((n_features, n_classes))
    bias = np.zeros(n_classes)

    flat = np.concatenate([np.concatenate(list(spec.circuits)), weights.ravel(), bias])

    def unpack(vec):
        thetas = []
        off = 0
        for t in spec.circuits:
            thetas.append(vec[off : off + t.size])
            off += t.size
        w = vec[off : off + weights.size].reshape(weights.shape)
        b = vec[off + weights.size :]
        return thetas, w, b

    def evaluate(vec, batch: ImageBatch, batch_labels, want_grad: bool):
        thetas, w, b = unpack(vec)
        current = dataclasses.replace(spec, circuits=tuple(thetas))
        out, cache = _forward_cached(batch, current)
        feats = out.reshape(batch.batch, -1)
        logits = feats @ w + b
        loss, dlogits, acc = _softmax_cross_entropy(logits, batch_labels)
        if not want_grad:
            return loss, acc, None
        d_w = feats.T @ dlogits
        d_b = dlogits.sum(axis=0)
        d_feats = dlogits @ w.T
        d_out = d_feats.reshape(out.shape)
        circuit_grads = _backward_circuits(current, cache, d_out)
        grad = np.concatenate([np.concatenate(circuit_grads), d_w.ravel(), d_b])
        return loss, acc, grad

    _, initial_accuracy, _ = evaluate(flat, imgs, labels, want_grad=False)

    state = adam_init(flat.size)
    loss_curve: list[float] = []
    accuracy_curve: list[float] = []
    epoch_times: list[float] = []
    for _ in range(cfg.epochs):
        tic = time.perf_counter()
        losses = []
        for start in range(0, imgs.batch, cfg.batch_size):
            rows = slice(start, min(start + cfg.batch_size, imgs.batch))
            batch = ImageBatch(imgs.pixels[rows])
            loss, _, grad = evaluate(flat, batch, labels[rows], want_grad=True)
            flat, state = adam_step(flat, grad, state, cfg)
            losses.append(loss)
        _, acc, _ = evaluate(flat, imgs, labels, want_grad=False)
        epoch_times.append(time.perf_counter() - tic)
        loss_curve.append(float(np.mean(losses)))
        accuracy_curve.append(acc)

    thetas, w, b = unpack(flat)
    final_params = {
        "circuits": [t.tolist() for t in thetas],
        "head_weights": w.tolist(),
        "head_bias": b.tolist(),
    }
    return QuanvReport(initial_accuracy, accuracy_curve, loss_curve, epoch_times, final_params)


def synthetic_two_class(
    n_images: int,
    seed: int,
    channels: int = 16,
    height: int = 8,
    width: int = 8,
    noise: float = 0.15,
) -> tuple[ImageBatch, np.ndarray]:
    """Separable bright-top vs bright-bottom images, balanced and shuffled."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.2, 1.2
    pixels = np.empty((n_images, channels, height, width))
    labels = np.empty(n_images, dtype=np.int64)
    half = height // 2
    for i in range(n_images):
        label = i % 2
        base = np.full((height, width), lo)
        if label == 0:
            base[:half] = hi
        else:
            base[half:] = hi
        img = base[None, :, :] + noise * rng.standard_normal((channels, height, width))
        pixels[i] = img
        labels[i] = label
    order = rng.permutation(n_images)
    pixels = np.clip(pixels[order], *PIXEL_RANGE)
    return ImageBatch(pixels), labels[order]


def scale_pixels(raw: np.ndarray, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Affinely map raw values into the pixel range; constants map to 0."""
    raw = np.asarray(raw, dtype=np.float64)
    lo = float(raw.min()) if lo is None else lo
    hi = float(raw.max()) if hi is None else hi
    if hi <= lo:
        return np.zeros_like(raw)
    unit = (raw - lo) / (hi - lo)
    a, b = PIXEL_RANGE
    return a + unit * (b - a)


def load_image_csv(
    path, channels: int, height: int, width: int, rescale: bool = True
) -> tuple[ImageBatch, np.ndarray]:
    """Read images from CSV rows of label followed by C*H*W flat pixels.

    Raises ValueError naming the 1-based row for a row of the wrong width,
    a label that is not a non-negative integer, or a pixel that is not a
    finite number, and for a file without rows.
    """
    n_pixels = channels * height * width
    labels = []
    rows = []
    with open(path, newline="") as fh:
        for row, record in enumerate(csv.reader(fh), start=1):
            if not record:
                continue
            where = f"{path} row {row}"
            if len(record) != 1 + n_pixels:
                raise ValueError(f"{where}: expected a label and {n_pixels} pixels, got {len(record)} values")
            try:
                label = int(record[0])
            except ValueError:
                raise ValueError(f"{where}: label {record[0]!r} is not an integer") from None
            if label < 0:
                raise ValueError(f"{where}: label {label} is negative")
            try:
                pixels = [float(v) for v in record[1:]]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not np.isfinite(pixels).all():
                raise ValueError(f"{where}: pixel values must be finite")
            rows.append(pixels)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path} holds no image rows")
    pixels = np.asarray(rows).reshape(len(rows), channels, height, width)
    if rescale:
        pixels = scale_pixels(pixels)
    return ImageBatch(pixels), np.asarray(labels, dtype=np.int64)


def images_to_csv(imgs: ImageBatch, labels: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for label, img in zip(labels, imgs.pixels):
            writer.writerow([int(label), *img.ravel().tolist()])
