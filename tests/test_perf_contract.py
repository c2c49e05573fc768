"""The benchmark's hold on the package, checked on tiny inputs.

perfbench/ times layers by wrapping public functions at every import site
(harness.Tracer) and times quanv steps with a shim on quanv's own
`adam_step` binding. A change that routes around either still trains
correctly, so only these checks catch it before a full benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

import unitary_forge  # noqa: E402
from unitary_forge import circuit, linalg, optim, quanv  # noqa: E402
from unitary_forge.models import FullUnitaryModel, PartitionedModel  # noqa: E402


@pytest.fixture
def tracer():
    t = harness.Tracer()
    t.install(unitary_forge)
    try:
        yield t
    finally:
        t.restore()


def tiny_quanv():
    imgs, labels = quanv.synthetic_two_class(4, seed=0, channels=4, height=3, width=3)
    spec = quanv.random_quanv_spec(0, in_channels=4, out_channels=2, channel_block=2)
    cfg = optim.TrainConfig(epochs=2, batch_size=4, seed=0, learning_rate=0.05)
    return imgs, labels, spec, cfg


def missing_spans(tracer, workload):
    return [s for s in workloads.EXPECTED_SPANS[workload] if tracer.calls[s] == 0]


def test_full_unitary_step_records_every_full_n8_span(tracer):
    model = FullUnitaryModel.random(2, seed=0)
    x, y = optim.identity_dataset(2, 4, seed=0)
    _, grad = optim.loss_and_grad(model, x, y)
    state = optim.adam_init(model.n_params)
    params, _ = optim.adam_step(model.get_params(), grad, state, optim.TrainConfig())
    model.set_params(params)
    model.apply(circuit.rx_encode(x))
    assert missing_spans(tracer, "full_n8") == []


def test_quanv_demo_records_every_quanv_c32_span(tracer):
    imgs, labels, spec, cfg = tiny_quanv()
    quanv.train_quanv_demo(imgs, labels, cfg, spec)
    quanv.quanv_forward(imgs, spec)
    assert missing_spans(tracer, "quanv_c32") == []


def test_quanv_demo_steps_through_its_adam_step_binding(monkeypatch):
    imgs, labels, spec, cfg = tiny_quanv()
    inner = quanv.adam_step
    calls = []

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(quanv, "adam_step", counted)
    report = quanv.train_quanv_demo(imgs, labels, cfg, spec)
    assert len(report.loss_curve) == cfg.epochs
    assert len(calls) == cfg.epochs  # one minibatch per epoch


def test_train_identity_steps_through_the_traced_adam_step(tracer):
    cfg = optim.TrainConfig(epochs=2, batch_size=2, seed=0)
    optim.train_identity(cfg, 2, 4)
    assert tracer.calls["optim.adam_step"] == 4  # 2 epochs x 2 minibatches


def test_quanv_demo_records_one_adam_step_per_minibatch(tracer):
    imgs, labels, spec, _ = tiny_quanv()
    quanv.train_quanv_demo(imgs, labels, optim.TrainConfig(epochs=2, batch_size=3, seed=0), spec)
    assert tracer.calls["optim.adam_step"] == 4  # 2 epochs x ceil(4 / 3) minibatches


@pytest.mark.parametrize("batch, passes", [
    (4, 3),  # initial accuracy + one per epoch; each loss reuses the accuracy pass before it
    (3, 7),  # initial accuracy + per epoch two minibatches and one accuracy pass
])
def test_quanv_demo_encodes_once_and_runs_one_forward_per_parameter_vector(tracer, batch, passes):
    imgs, labels, spec, _ = tiny_quanv()
    quanv.train_quanv_demo(imgs, labels, optim.TrainConfig(epochs=2, batch_size=batch, seed=0), spec)
    assert tracer.calls["circuit.encode"] == 1
    assert tracer.calls["models.forward"] == passes * spec.n_circuits


@pytest.mark.parametrize("n_images", [4, 10])
def test_quanv_circuits_run_on_the_probe_grid_whatever_the_image_count(monkeypatch, n_images):
    imgs, labels = quanv.synthetic_two_class(n_images, seed=0)
    spec = quanv.random_quanv_spec(0)
    inner = FullUnitaryModel.forward
    rows = []

    def recorded(self, amps):
        rows.append(amps.shape[0])
        return inner(self, amps)

    monkeypatch.setattr(FullUnitaryModel, "forward", recorded)
    cfg = optim.TrainConfig(epochs=2, batch_size=3, seed=0, learning_rate=0.05)
    quanv.train_quanv_demo(imgs, labels, cfg, spec)
    quanv.quanv_forward(imgs, spec)
    assert len(rows) > spec.n_circuits
    assert set(rows) == {3 ** spec.n_qubits} == {81}


@pytest.mark.parametrize("build, generators", [
    (lambda: FullUnitaryModel.random(3, seed=0), 1),
    (lambda: PartitionedModel.random(4, 2, 3, seed=0), 6),  # 3 layers of 2 groups
    (lambda: PartitionedModel.random(3, 1, 2, seed=0), 6),  # 2 layers of 3 groups
], ids=["full", "partitioned-pairs", "partitioned-single-wires"])
def test_training_step_runs_one_eigh_per_generator_and_no_pade(monkeypatch, build, generators):
    model = build()
    calls = {"eigh": 0, "pade": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(linalg, "_pade_uv", counted("pade", linalg._pade_uv))
    x, y = optim.identity_dataset(model.n_qubits, 4, seed=0)
    _, grad = optim.loss_and_grad(model, x, y)
    assert calls == {"eigh": generators, "pade": 0}
    assert np.isfinite(grad).all()

    # Inference is the training forward, bit for bit.
    states = circuit.rx_encode(x)
    out, _ = model.forward(states.amplitudes)
    assert np.array_equal(model.apply(states).amplitudes, out)
