"""Patch extraction, quanvolutional forward pass, and the demo classifier."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from unitary_forge.liegroup import assemble, random_params
from unitary_forge.optim import TrainConfig, adam_init, adam_step, derive_seeds
from unitary_forge.quanv import (
    ImageBatch,
    QuanvSpec,
    _backward_circuits,
    _forward_cached,
    _softmax_cross_entropy,
    extract_patches,
    images_to_csv,
    load_image_csv,
    quanv_forward,
    random_quanv_spec,
    scale_pixels,
    synthetic_two_class,
    train_quanv_demo,
)

from oracles import central_diff_grad, encode_rows, quanv_maps, taylor_expm, z_values


def small_spec(seed=0, **overrides):
    settings = dict(in_channels=4, out_channels=2, channel_block=2)
    settings.update(overrides)
    return random_quanv_spec(seed, **settings)


def random_images(batch, channels, height, width, seed):
    rng = np.random.default_rng(seed)
    return ImageBatch(rng.uniform(-np.pi / 2, np.pi / 2, (batch, channels, height, width)))


def mixing_spec(seed, kernel, stride, in_channels=4, out_channels=2, channel_block=2):
    """A spec whose circuits are far from the identity: unit-scale generators."""
    n_qubits = kernel * kernel
    n_circuits = out_channels * (in_channels // channel_block)
    circuits = tuple(random_params(2 ** n_qubits, s, scale=1.0) for s in derive_seeds(seed, n_circuits))
    return QuanvSpec(in_channels=in_channels, out_channels=out_channels, kernel=kernel, stride=stride,
                     n_qubits=n_qubits, channel_block=channel_block, circuits=circuits)


def images_with_extreme_angles(seed, batch, channels, height, width, channel_block):
    """`batch` uniform images, then `batch` whose block means are all exactly +-pi/2."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(-np.pi / 2, np.pi / 2, (batch, channels, height, width))
    signs = rng.choice([-1.0, 1.0], (batch, channels // channel_block, height, width))
    extreme = np.repeat(signs * (np.pi / 2), channel_block, axis=1)
    return ImageBatch(np.concatenate([uniform, extreme]))


def oracle_maps(imgs, spec):
    generators = [assemble(t) for t in spec.circuits]
    return quanv_maps(imgs.pixels, generators, spec.out_channels, spec.channel_block, spec.kernel, spec.stride)


def reference_train(imgs, labels, cfg, spec):
    """train_quanv_demo as a plain loop: a fresh _forward_cached for every
    loss, gradient and accuracy, and one adam_step per minibatch.

    Returns the initial accuracy, the loss and accuracy curves and the
    final parameters in the report's layout."""
    _, head_seed = derive_seeds(cfg.seed, 2)
    n_classes = int(labels.max()) + 1
    probe, _ = _forward_cached(ImageBatch(imgs.pixels[:1]), spec)
    weights = 0.01 * np.random.default_rng(head_seed).standard_normal((probe[0].size, n_classes))
    n_circuit = spec.n_circuits * spec.circuits[0].size
    vec = np.concatenate([np.concatenate(list(spec.circuits)), weights.ravel(), np.zeros(n_classes)])

    def evaluate(vec, rows):
        w = vec[n_circuit:n_circuit + weights.size].reshape(weights.shape)
        b = vec[n_circuit + weights.size:]
        current = dataclasses.replace(spec, circuits=tuple(vec[:n_circuit].reshape(spec.n_circuits, -1)))
        out, cache = _forward_cached(ImageBatch(imgs.pixels[rows]), current)
        feats = out.reshape(out.shape[0], -1)
        loss, dlogits, acc = _softmax_cross_entropy(feats @ w + b, labels[rows])
        d_out = (dlogits @ w.T).reshape(out.shape)
        circuit_grads = _backward_circuits(current, cache, d_out)
        grad = np.concatenate([np.concatenate(circuit_grads), (feats.T @ dlogits).ravel(), dlogits.sum(axis=0)])
        return loss, grad, acc

    initial = evaluate(vec, slice(None))[2]
    state = adam_init(vec.size)
    losses, accuracies = [], []
    for _ in range(cfg.epochs):
        batch_losses = []
        for start in range(0, imgs.batch, cfg.batch_size):
            loss, grad, _ = evaluate(vec, slice(start, start + cfg.batch_size))
            vec, state = adam_step(vec, grad, state, cfg)
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
        accuracies.append(evaluate(vec, slice(None))[2])
    final_params = {
        "circuits": vec[:n_circuit].reshape(spec.n_circuits, -1).tolist(),
        "head_weights": vec[n_circuit:n_circuit + weights.size].reshape(weights.shape).tolist(),
        "head_bias": vec[n_circuit + weights.size:].tolist(),
    }
    return initial, losses, accuracies, final_params


class TestImageBatch:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError, match="rescale"):
            ImageBatch(np.full((1, 1, 2, 2), 3.0))

    def test_scale_pixels_maps_into_range(self):
        raw = np.array([[0.0, 128.0], [255.0, 64.0]])
        scaled = scale_pixels(raw)
        assert scaled.min() == pytest.approx(-np.pi / 2)
        assert scaled.max() == pytest.approx(np.pi / 2)

    def test_scale_pixels_constant_input(self):
        assert not scale_pixels(np.full((2, 2), 7.0)).any()


class TestExtractPatches:
    def test_kernel_equal_to_image_gives_one_patch(self):
        imgs = random_images(2, 3, 2, 2, seed=0)
        patches = extract_patches(imgs, kernel=2, stride=1)
        assert patches.shape == (2, 3, 1, 1, 2, 2)
        assert np.array_equal(patches[..., 0, 0, :, :], imgs.pixels)

    def test_three_by_three_gives_four_patches(self):
        imgs = random_images(1, 1, 3, 3, seed=1)
        patches = extract_patches(imgs, kernel=2, stride=1)
        assert patches.shape == (1, 1, 2, 2, 2, 2)

    def test_matches_naive_indexing(self):
        imgs = random_images(2, 2, 6, 5, seed=2)
        k, s = 2, 2
        patches = extract_patches(imgs, kernel=k, stride=s)
        hp = (6 - k) // s + 1
        wp = (5 - k) // s + 1
        assert patches.shape == (2, 2, hp, wp, k, k)
        for b in range(2):
            for c in range(2):
                for i in range(hp):
                    for j in range(wp):
                        want = imgs.pixels[b, c, i * s : i * s + k, j * s : j * s + k]
                        assert np.array_equal(patches[b, c, i, j], want)

    def test_kernel_too_large(self):
        imgs = random_images(1, 1, 2, 2, seed=3)
        with pytest.raises(ValueError, match="does not fit"):
            extract_patches(imgs, kernel=3, stride=1)


class TestQuanvSpec:
    def test_default_circuit_count(self):
        spec = random_quanv_spec(seed=0)
        assert spec.n_circuits == 32
        assert spec.n_blocks == 4
        assert all(t.size == 256 for t in spec.circuits)

    def test_kernel_qubit_consistency(self):
        with pytest.raises(ValueError, match="n_qubits"):
            QuanvSpec(kernel=3, circuits=())

    def test_block_must_divide_channels(self):
        with pytest.raises(ValueError, match="divide"):
            random_quanv_spec(seed=0, in_channels=6, channel_block=4)


class TestQuanvForward:
    def test_identity_circuits_on_constant_image(self):
        v = 0.9
        spec = small_spec()
        zeros = tuple(np.zeros(256) for _ in spec.circuits)
        spec = QuanvSpec(
            in_channels=4, out_channels=2, channel_block=2, circuits=zeros
        )
        imgs = ImageBatch(np.full((2, 4, 3, 3), v))
        out = quanv_forward(imgs, spec)
        assert out.shape == (2, 2, 2, 2)
        assert np.allclose(out, np.cos(v), atol=1e-12)

    def test_zero_image_is_location_independent(self):
        spec = small_spec(seed=4)
        imgs = ImageBatch(np.zeros((1, 4, 4, 4)))
        out = quanv_forward(imgs, spec)
        for o in range(out.shape[1]):
            assert np.ptp(out[0, o]) <= 1e-12

    def test_single_patch_matches_brute_force(self):
        spec = small_spec(seed=5)
        imgs = random_images(1, 4, 2, 2, seed=5)
        out = quanv_forward(imgs, spec)
        # independent route: block-mean angles -> kron encoding -> series
        # exponential -> explicit Z sums
        for o in range(spec.out_channels):
            vals = []
            for blk in range(spec.n_blocks):
                block_pixels = imgs.pixels[0, blk * 2 : blk * 2 + 2]
                angles = block_pixels.mean(axis=0).ravel()
                amps = encode_rows(angles[None, :])
                u = taylor_expm(assemble(spec.circuits[o * spec.n_blocks + blk]))
                evolved = amps @ u.T
                vals.append(z_values(evolved, 4).mean())
            assert out[0, o, 0, 0] == pytest.approx(float(np.mean(vals)), abs=1e-10)

    def test_output_bounded(self):
        spec = small_spec(seed=6)
        out = quanv_forward(random_images(2, 4, 5, 5, seed=6), spec)
        assert (out <= 1.0 + 1e-12).all() and (out >= -1.0 - 1e-12).all()

    def test_translation_consistency(self):
        spec = small_spec(seed=7)
        rng = np.random.default_rng(7)
        base = rng.uniform(-1.0, 1.0, (1, 4, 5, 5))
        shifted = np.roll(base, 1, axis=2)
        out_a = quanv_forward(ImageBatch(base), spec)
        out_b = quanv_forward(ImageBatch(shifted), spec)
        # rows of the shifted output overlap the original one cell down
        assert np.allclose(out_b[:, :, 1:, :], out_a[:, :, :-1, :], atol=1e-12)

    def test_channel_mismatch(self):
        spec = small_spec(seed=8)
        with pytest.raises(ValueError, match="channels"):
            quanv_forward(random_images(1, 6, 3, 3, seed=8), spec)

    def test_inference_keeps_no_circuit_states(self):
        # 256 default images: 32 circuits x 12,544 patch rows of 16 amplitudes
        # would hold ~103 MB of states for a 0.8 MB output.
        imgs, _ = synthetic_two_class(256, seed=9)
        spec = random_quanv_spec(9)
        tracemalloc.start()
        try:
            out = quanv_forward(imgs, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40e6
        assert np.array_equal(out, _forward_cached(imgs, spec)[0])


class TestProbeGridExactness:
    """The probe-grid interpolation against the state route of tests/oracles.py."""

    @pytest.mark.parametrize("kernel, stride", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_forward_matches_the_state_route(self, kernel, stride):
        spec = mixing_spec(20, kernel, stride)
        imgs = images_with_extreme_angles(20, 2, 4, 5, 5, spec.channel_block)
        assert (np.abs(imgs.pixels[2:]) == np.pi / 2).all()
        out = quanv_forward(imgs, spec)
        want = oracle_maps(imgs, spec)
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-13

    @pytest.mark.parametrize("kernel", [1, 2])
    def test_circuit_gradients_match_the_oracles_finite_differences(self, kernel):
        spec = mixing_spec(21, kernel, stride=1)
        imgs = images_with_extreme_angles(21, 1, 4, 3, 3, spec.channel_block)
        out, cache = _forward_cached(imgs, spec)
        d_out = np.random.default_rng(21).standard_normal(out.shape)
        grads = _backward_circuits(spec, cache, d_out)
        probe = spec.n_circuits - 1  # output channel 1 reading block 1

        def loss(theta):
            circuits = list(spec.circuits)
            circuits[probe] = theta
            return float(np.sum(d_out * oracle_maps(imgs, dataclasses.replace(spec, circuits=tuple(circuits)))))

        fd = central_diff_grad(loss, spec.circuits[probe])
        assert np.abs(fd).max() > 1e-3
        assert np.allclose(grads[probe], fd, rtol=1e-6, atol=1e-9)


class TestTrainQuanvDemo:
    def test_untrained_accuracy_near_chance(self):
        imgs, labels = synthetic_two_class(40, seed=9)
        cfg = TrainConfig(epochs=1, batch_size=40, seed=9)
        report = train_quanv_demo(imgs, labels, cfg)
        assert abs(report.initial_accuracy - 0.5) <= 0.1

    def test_learns_separable_classes(self):
        imgs, labels = synthetic_two_class(32, seed=10, channels=4, height=4, width=4)
        spec = small_spec(seed=10)
        cfg = TrainConfig(epochs=40, batch_size=32, seed=10, learning_rate=0.05)
        report = train_quanv_demo(imgs, labels, cfg, spec=spec)
        assert max(report.accuracy_curve) >= 0.9
        assert len(report.accuracy_curve) == 40
        assert len(report.epoch_times) == 40

    def test_deterministic(self):
        imgs, labels = synthetic_two_class(16, seed=11, channels=4, height=4, width=4)
        spec = small_spec(seed=11)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=11)
        a = train_quanv_demo(imgs, labels, cfg, spec=spec)
        b = train_quanv_demo(imgs, labels, cfg, spec=spec)
        assert a.loss_curve == b.loss_curve
        assert a.accuracy_curve == b.accuracy_curve

    def test_circuit_gradients_match_finite_differences(self):
        # joint loss as a function of one circuit's parameters
        imgs, labels = synthetic_two_class(6, seed=12, channels=4, height=2, width=2)
        spec = small_spec(seed=12)
        cfg = TrainConfig(epochs=1, batch_size=6, seed=12)

        rng = np.random.default_rng(12)
        w = 0.05 * rng.standard_normal((spec.out_channels, labels.max() + 1))

        def forward_loss(thetas):
            current = dataclasses.replace(spec, circuits=tuple(thetas))
            out, cache = _forward_cached(imgs, current)
            feats = out.reshape(imgs.batch, -1)
            logits = feats @ w
            loss, dlogits, _ = _softmax_cross_entropy(logits, labels)
            return loss, cache, dlogits @ w.T, current, out

        thetas0 = [t.copy() for t in spec.circuits]
        loss0, cache, d_feats, current, out = forward_loss(thetas0)
        d_out = d_feats.reshape(out.shape)
        grads = _backward_circuits(current, cache, d_out)

        probe = 1  # check one circuit end to end

        def f(theta):
            thetas = [t.copy() for t in thetas0]
            thetas[probe] = theta
            loss, *_ = forward_loss(thetas)
            return loss

        fd = central_diff_grad(f, thetas0[probe], h=1e-5)
        assert np.allclose(grads[probe], fd, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("batch", [4, 3])
    def test_matches_a_fresh_forward_for_every_evaluation(self, batch):
        # The demo encodes once and reuses a forward across evaluations at
        # equal parameters; a loop that recomputes everything must agree bitwise.
        imgs, labels = synthetic_two_class(4, seed=14, channels=4, height=3, width=3)
        spec = small_spec(seed=14)
        cfg = TrainConfig(epochs=3, batch_size=batch, seed=14, learning_rate=0.05)
        report = train_quanv_demo(imgs, labels, cfg, spec=spec)
        initial, losses, accuracies, final_params = reference_train(imgs, labels, cfg, spec)
        assert report.initial_accuracy == initial
        assert report.loss_curve == losses
        assert report.accuracy_curve == accuracies
        assert report.final_params == final_params

    @pytest.mark.parametrize("batch", [8, 3])
    def test_inference_on_the_final_params_gives_the_last_accuracy(self, batch):
        # what perfbench's check_quanv asserts after every benchmark call
        imgs, labels = synthetic_two_class(8, seed=15, channels=4, height=4, width=4)
        cfg = TrainConfig(epochs=4, batch_size=batch, seed=15, learning_rate=0.05)
        spec = small_spec(seed=15)
        report = train_quanv_demo(imgs, labels, cfg, spec=spec)
        params = report.final_params
        spec = dataclasses.replace(spec, circuits=tuple(np.asarray(c) for c in params["circuits"]))
        maps = quanv_forward(imgs, spec)
        logits = maps.reshape(imgs.batch, -1) @ np.asarray(params["head_weights"]) + params["head_bias"]
        assert float(np.mean(np.argmax(logits, axis=1) == labels)) == report.accuracy_curve[-1]

    def test_training_keeps_no_patch_states(self):
        # At batch < dataset the accuracy pass runs its own forward; over
        # patch states that was ~103 MB at 256 default images, built and
        # dropped every epoch. Each circuit now runs on the 81 probe states.
        imgs, labels = synthetic_two_class(256, seed=9)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=9, learning_rate=0.05)
        spec = random_quanv_spec(9)
        tracemalloc.start()
        try:
            report = train_quanv_demo(imgs, labels, cfg, spec=spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 70e6
        assert len(report.loss_curve) == 1

    @pytest.mark.parametrize("labels, missing", [([0, 2, 0, 2], r"\[1\]"), ([3, 0, 3, 0], r"\[1, 2\]")])
    def test_labels_that_skip_a_class_are_named(self, labels, missing):
        imgs, _ = synthetic_two_class(4, seed=13, channels=4, height=4, width=4)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=13)
        with pytest.raises(ValueError, match=f"no image of class {missing}"):
            train_quanv_demo(imgs, np.array(labels), cfg, spec=small_spec(seed=13))

    def test_label_shape_validation(self):
        imgs, labels = synthetic_two_class(4, seed=13, height=4, width=4)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=13)
        with pytest.raises(ValueError, match="one integer per image"):
            train_quanv_demo(imgs, labels[:-1], cfg)


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        imgs, labels = synthetic_two_class(6, seed=14, channels=2, height=3, width=3)
        path = tmp_path / "images.csv"
        images_to_csv(imgs, labels, path)
        loaded, got_labels = load_image_csv(path, channels=2, height=3, width=3, rescale=False)
        assert np.array_equal(got_labels, labels)
        assert np.allclose(loaded.pixels, imgs.pixels, atol=1e-12)

    def test_rescaling_on_load(self, tmp_path):
        path = tmp_path / "raw.csv"
        with open(path, "w") as fh:
            fh.write("0," + ",".join(str(v) for v in range(4)) + "\n")
            fh.write("1," + ",".join(str(v) for v in range(4, 8)) + "\n")
        loaded, labels = load_image_csv(path, channels=1, height=2, width=2)
        assert labels.tolist() == [0, 1]
        assert loaded.pixels.min() == pytest.approx(-np.pi / 2)
        assert loaded.pixels.max() == pytest.approx(np.pi / 2)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no image rows"):
            load_image_csv(path, channels=1, height=2, width=2)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("1,0.1,0.2,0.3", "row 3: expected a label and 4 pixels, got 4 values"),
            ("1,0.1,0.2,0.3,0.4,0.5", "row 3: expected a label and 4 pixels, got 6 values"),
            ("1.5,0.1,0.2,0.3,0.4", "row 3: label '1.5' is not an integer"),
            ("cat,0.1,0.2,0.3,0.4", "row 3: label 'cat' is not an integer"),
            ("-1,0.1,0.2,0.3,0.4", "row 3: label -1 is negative"),
            ("1,0.1,x,0.3,0.4", "row 3: could not convert"),
            ("1,0.1,nan,0.3,0.4", "row 3: pixel values must be finite"),
            ("1,0.1,0.2,inf,0.4", "row 3: pixel values must be finite"),
        ],
    )
    def test_bad_row_is_named(self, tmp_path, bad_row, message):
        imgs, labels = synthetic_two_class(2, seed=15, channels=1, height=2, width=2)
        path = tmp_path / "bad.csv"
        images_to_csv(imgs, labels, path)
        with open(path, "a") as fh:
            fh.write(bad_row + "\n")
        with pytest.raises(ValueError, match=message):
            load_image_csv(path, channels=1, height=2, width=2)
