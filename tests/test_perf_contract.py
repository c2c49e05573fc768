"""The benchmark's hold on the package, checked on tiny inputs.

perfbench/ times layers by wrapping public functions at every import site
(harness.Tracer) and times quanv steps with a shim on quanv's own
`adam_step` binding. A change that routes around either still trains
correctly, so only these checks catch it before a full benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

import unitary_forge  # noqa: E402
from unitary_forge import circuit, optim, quanv  # noqa: E402
from unitary_forge.models import FullUnitaryModel  # noqa: E402


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
