"""Quanvolutional layer: quantum circuits sliding over image patches.

Each output channel owns one four-qubit circuit per input-channel block.
At every patch location the 2x2 spatial patch is averaged over the block's
channels, the four means become four RX angles, the circuit's full
unitary is applied, and the four Z expectations are averaged into a
scalar. Averaging keeps every value inside [-1, 1]. With the default
16 -> 8 channel map and blocks of 4 this builds 8 * 4 = 32 circuits.

Every circuit is a FullUnitaryModel, so the forward and reverse passes go
through the same generator -> unitary -> adjoint chain as the identity
task, but no circuit runs on a patch state. RX(x)|0> has Bloch vector
(0, -sin x, cos x), so a circuit's value on a patch, Tr(U^H S U rho(x))/4
with S the sum of the Z_i, lies in span{1, cos x_i, sin x_i} on each wire:
a trigonometric polynomial of degree 1 in every angle (Schuld, Sweke &
Meyer 2021). Three equally spaced probe angles p_a in {0, 2pi/3, -2pi/3}
fix such a function through l_a(x) = (1 + 2 cos(x - p_a)) / 3, which is 1
at p_a and 0 at the other two, so over the 3^N probe grid

    g(x) = sum_j prod_i l_{j_i}(x_i) g(p_j)

holds exactly. Each circuit therefore runs on the 3^N = 81 probe states
whatever the image count, and a block's feature values are one real
(patches, 81) @ (81, out_channels) product. The reverse pass is its
transpose: weights^T @ dL/d(maps) is the cotangent of the probe values,
which goes back through the decode and the circuit. The grid grows as
3^N against the 2^N amplitudes of a patch state: at kernel 3 (9 qubits)
each circuit runs on 19,683 probe states of 512 amplitudes (161 MB), and
each patch carries 19,683 weights.

The forward splits into a parameter-free encoder (_encode: patch means ->
interpolation weights, plus the probe states) and a circuit pass over the
probe states (_run_circuits). The demo classifier puts a linear-softmax
head on the flattened feature maps and trains head and circuits jointly;
it encodes its images once and runs one circuit pass per parameter vector.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .circuit import rx_encode_raw, z_expectations_raw, z_expectations_vjp
from .liegroup import random_params
# Unused here (circuits exponentiate in FullUnitaryModel), but kept bound:
# perfbench/test_perfbench.py lists (quanv, "matexp") among the import
# sites that tracing must wrap, so this import stays until that test changes.
from .linalg import matexp  # noqa: F401
from .models import FullUnitaryModel
# The quanv_c32 benchmark times steps with a shim on quanv.adam_step.
from .optim import TrainConfig, adam_step, derive_seeds, fit

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

# Per-wire probe angles: three equally spaced points fix any
# a + b cos(x) + c sin(x) (see the module docstring).
_PROBES = np.array([0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0])


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
    """(B, n_blocks, H', W', k^2) patches of the per-block channel means,
    flattened row-major."""
    if imgs.channels != spec.in_channels:
        raise ValueError(f"image has {imgs.channels} channels, spec expects {spec.in_channels}")
    px = imgs.pixels
    means = px.reshape(imgs.batch, spec.n_blocks, spec.channel_block, *px.shape[2:]).mean(axis=2)
    patches = extract_patches(ImageBatch(means), spec.kernel, spec.stride)
    return patches.reshape(*patches.shape[:4], -1)


def _interpolation_weights(angles: np.ndarray) -> np.ndarray:
    """(..., N) angles -> (3^N, ...) weights: row j is prod_i l_{j_i}(x_i)
    with l_a(x) = (1 + 2 cos(x - p_a)) / 3, wire 0 slowest. The patch axes
    stay innermost, so every product runs over long contiguous rows."""
    wires = np.ascontiguousarray(np.moveaxis(angles, -1, 0))[:, None]
    # l_a(x) = 1/3 + (2/3) cos(p_a) cos(x) + (2/3) sin(p_a) sin(x): cos and
    # sin run once per angle, not once per angle and probe.
    probes = _PROBES.reshape(-1, *[1] * (wires.ndim - 2))
    cos_p, sin_p = 2.0 / 3.0 * np.cos(probes), 2.0 / 3.0 * np.sin(probes)
    lagrange = 1.0 / 3.0 + np.cos(wires) * cos_p + np.sin(wires) * sin_p
    weights = np.ones((1, *lagrange.shape[2:]))
    for wire in lagrange:
        weights = (weights[:, None] * wire).reshape(-1, *wire.shape[1:])
    return weights


def _probe_states(n_qubits: int) -> np.ndarray:
    """(3^N, 2^N) RX product states on the probe grid, in weight order."""
    return rx_encode_raw(np.array(list(itertools.product(_PROBES, repeat=n_qubits))))


def _encode(imgs: ImageBatch, spec: QuanvSpec) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-free half of the forward: the (n_blocks, 3^N, B, H', W')
    interpolation weights of every patch, and the probe states.
    weights[:, :, start:stop] holds images [start, stop)."""
    angles = _patch_angles(imgs, spec).transpose(1, 0, 2, 3, 4)
    return np.moveaxis(_interpolation_weights(angles), 1, 0), _probe_states(spec.n_qubits)


def _run_circuits(probes: np.ndarray, spec: QuanvSpec):
    """Circuit half of the forward: each circuit's value (its mean Z) on the
    probe states as (n_blocks, 3^N, out_channels), and per circuit, in
    circuit order, the (model, states, cache) _backward_circuits needs."""
    n_blocks = spec.n_blocks
    values = np.empty((n_blocks, probes.shape[0], spec.out_channels))
    circuits = []
    for o in range(spec.out_channels):
        for blk in range(n_blocks):
            model = FullUnitaryModel(spec.n_qubits, spec.circuits[o * n_blocks + blk])
            states, model_cache = model.forward(probes)
            values[blk, :, o] = z_expectations_raw(states, spec.n_qubits).mean(axis=1)
            circuits.append((model, states, model_cache))
    return values, circuits


def _feature_maps(block_weights, values: np.ndarray) -> np.ndarray:
    """(B, out_channels, H', W') maps: the mean over blocks of each block's
    probe values times its (3^N, B, H', W') weights, one GEMM a block."""
    total = None
    for weights, block_values in zip(block_weights, values):
        part = block_values.T @ weights.reshape(weights.shape[0], -1)
        total = part if total is None else total + part
    maps = (total / len(values)).reshape(-1, *weights.shape[1:])
    return np.ascontiguousarray(maps.swapaxes(0, 1))


def _forward_cached(imgs: ImageBatch, spec: QuanvSpec):
    weights, probes = _encode(imgs, spec)
    values, circuits = _run_circuits(probes, spec)
    return _feature_maps(weights, values), (weights, circuits)


def quanv_forward(imgs: ImageBatch, spec: QuanvSpec) -> np.ndarray:
    """Feature maps (B, out_channels, H', W'), each value in [-1, 1]. Builds
    one block's weights at a time, and keeps no circuit states, since
    inference runs no backward pass."""
    angles = _patch_angles(imgs, spec)
    values = _run_circuits(_probe_states(spec.n_qubits), spec)[0]
    return _feature_maps((_interpolation_weights(angles[:, blk]) for blk in range(spec.n_blocks)), values)


def _backward_circuits(spec: QuanvSpec, cache, d_out: np.ndarray) -> list[np.ndarray]:
    """Per-circuit parameter gradients given dL/d(feature maps): a block's
    (3^N, patches) weights times dL/d(maps) is the cotangent of its
    circuits' probe values."""
    weights, circuits = cache
    n_blocks, n_qubits = spec.n_blocks, spec.n_qubits
    d_rows = d_out.transpose(0, 2, 3, 1).reshape(-1, spec.out_channels) / (n_blocks * n_qubits)
    d_values = [w.reshape(w.shape[0], -1) @ d_rows for w in weights]
    grads = []
    for c, (model, states, model_cache) in enumerate(circuits):
        o, blk = divmod(c, n_blocks)
        gz = np.repeat(d_values[blk][:, o, None], n_qubits, axis=1)
        grads.append(model.backward(model_cache, z_expectations_vjp(gz, states, n_qubits)))
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


def _n_classes(labels: np.ndarray) -> int:
    """Class count of integer labels 0..max; raises ValueError naming each
    class in that range without an image."""
    counts = np.bincount(labels)
    missing = np.flatnonzero(counts == 0).tolist()
    if missing:
        raise ValueError(f"labels 0..{counts.size - 1} have no image of class {missing}")
    if counts.size < 2:
        raise ValueError("need at least two classes")
    return counts.size


def train_quanv_demo(
    imgs: ImageBatch,
    labels: np.ndarray,
    cfg: TrainConfig,
    spec: QuanvSpec | None = None,
) -> QuanvReport:
    """Jointly train the quanv circuits and a linear-softmax head.

    Minibatch Adam (optim.fit) over the flat vector of circuits, then head
    weights and bias; accuracy over the full dataset is logged after every
    epoch, plus once before training starts. The images are encoded once
    per call, and the circuits run one forward on the probe states per
    parameter vector and image range: when the batch is the whole set,
    each epoch's loss reuses the forward of the accuracy pass before it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (imgs.batch,):
        raise ValueError("labels must be one integer per image")
    n_classes = _n_classes(labels)
    spec_seed, head_seed = derive_seeds(cfg.seed, 2)
    if spec is None:
        spec = random_quanv_spec(spec_seed)

    patch_weights, probes = _encode(imgs, spec)
    n_features = spec.out_channels * patch_weights.shape[3] * patch_weights.shape[4]
    rng = np.random.default_rng(head_seed)
    weights = 0.01 * rng.standard_normal((n_features, n_classes))
    bias = np.zeros(n_classes)

    flat = np.concatenate([np.concatenate(list(spec.circuits)), weights.ravel(), bias])
    n_circuit_params = sum(t.size for t in spec.circuits)

    def unpack(vec):
        """Views of vec: circuits as (n_circuits, d^2), head weights, bias."""
        thetas, w, b = np.split(vec, [n_circuit_params, n_circuit_params + weights.size])
        return thetas.reshape(spec.n_circuits, -1), w.reshape(weights.shape), b

    last = {}  # the latest forward, keyed on its image range and parameter values

    def forward(vec, rows):
        images = rows.indices(imgs.batch)[:2]
        if last.get("images") != images or not np.array_equal(last["vec"], vec):
            last.clear()  # free the old states before the new ones are made
            thetas, _, _ = unpack(vec)
            current = dataclasses.replace(spec, circuits=tuple(thetas))
            block_weights = patch_weights[:, :, slice(*images)]
            values, circuits = _run_circuits(probes, current)
            out = _feature_maps(block_weights, values)
            last.update(images=images, vec=vec.copy(), out=out, cache=(block_weights, circuits))
        return last["out"], last["cache"]

    def evaluate(vec, rows, want_grad: bool):
        _, w, b = unpack(vec)
        out, cache = forward(vec, rows)
        feats = out.reshape(out.shape[0], -1)
        logits = feats @ w + b
        loss, dlogits, acc = _softmax_cross_entropy(logits, labels[rows])
        if not want_grad:
            return acc
        d_w = feats.T @ dlogits
        d_b = dlogits.sum(axis=0)
        d_feats = dlogits @ w.T
        d_out = d_feats.reshape(out.shape)
        circuit_grads = _backward_circuits(spec, cache, d_out)
        grad = np.concatenate([np.concatenate(circuit_grads), d_w.ravel(), d_b])
        return loss, grad

    all_rows = slice(None)
    initial_accuracy = evaluate(flat, all_rows, want_grad=False)
    accuracy_curve: list[float] = []
    flat, loss_curve, epoch_times = fit(
        flat,
        lambda vec, rows: evaluate(vec, rows, want_grad=True),
        imgs.batch,
        cfg,
        adam_step,
        lambda vec: accuracy_curve.append(evaluate(vec, all_rows, want_grad=False)),
    )

    thetas, w, b = unpack(flat)
    final_params = {
        "circuits": thetas.tolist(),
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
