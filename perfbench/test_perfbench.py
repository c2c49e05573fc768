"""Tests of the benchmark's own arithmetic and of span install/restore.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import numpy as np
import pytest

import harness


def test_tail_keeps_ten_samples_above():
    samples = list(range(1, 101))
    value, percentile, n = harness.tail(reversed(samples))
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_at_the_smallest_sample_count():
    value, percentile, n = harness.tail([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
    assert (value, n) == (1.0, 11)
    assert percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        harness.tail(range(10))


def test_median_even_and_odd():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_time_to_tol_sums_through_the_first_step_below():
    times = [1.0, 2.0, 3.0, 4.0]
    assert harness.time_to_tol(times, [5.0, 3.0, 0.5, 0.1], 1.0) == (2, 6.0)
    assert harness.time_to_tol(times, [0.1, 3.0, 0.5, 0.1], 1.0) == (0, 1.0)
    # Strictly below: a loss equal to the tolerance has not reached it.
    assert harness.time_to_tol(times, [5.0, 1.0, 1.0, 1.0], 1.0) is None


def test_self_time_subtracts_child_spans_and_skips_same_layer_calls():
    now = [0]
    tracer = harness.Tracer(clock=lambda: now[0])

    def tick(ns):
        now[0] += ns

    inner_same_layer = tracer.span("linalg.matexp", lambda: tick(3))
    inner = tracer.span("linalg.matexp_vjp", lambda: (tick(5), inner_same_layer()))

    def outer_body():
        tick(1)
        inner()
        tick(2)

    outer = tracer.span("models.forward", outer_body)
    outer()
    assert tracer.calls["models.forward"] == 1
    assert tracer.self_ns["models.forward"] == 3
    assert tracer.calls["linalg.matexp_vjp"] == 1
    assert tracer.self_ns["linalg.matexp_vjp"] == 8
    assert tracer.calls["linalg.matexp"] == 0
    assert tracer.top_ns == 11


def test_self_time_is_kept_when_a_span_raises():
    now = [0]
    tracer = harness.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 4
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tracer.span("optim.adam_step", boom)()
    assert tracer.calls["optim.adam_step"] == 1
    assert tracer.self_ns["optim.adam_step"] == 4
    assert tracer.top_ns == 4


def test_install_wraps_every_import_site_and_restore_undoes_it():
    import unitary_forge
    import unitary_forge.quanv  # noqa: F401  (loads every layer module)
    from unitary_forge import linalg, liegroup, models, optim, quanv

    bindings = [
        (linalg, "matexp"), (models, "matexp"), (quanv, "matexp"), (liegroup, "matexp"),
        (optim, "loss_and_grad"), (quanv, "adam_step"), (optim, "adam_step"),
    ]
    before = {(m.__name__, a): getattr(m, a) for m, a in bindings}
    forward = models.FullUnitaryModel.__dict__["forward"]

    tracer = harness.Tracer()
    tracer.install(unitary_forge)
    try:
        for module, attr in bindings:
            assert getattr(getattr(module, attr), "__wrapped_span__", None), (module.__name__, attr)
        assert models.FullUnitaryModel.__dict__["forward"].__wrapped_span__ == "models.forward"
        model = models.FullUnitaryModel.random(1, seed=0)
        x, y = optim.identity_dataset(1, 4, seed=0)
        loss, grad = optim.loss_and_grad(model, x, y)
        assert np.isfinite(loss) and np.isfinite(grad).all()
    finally:
        tracer.restore()

    # matexp_vjp's own call to matexp stays inside the linalg.matexp_vjp span.
    assert tracer.calls["linalg.matexp"] == 1
    assert tracer.calls["linalg.matexp_vjp"] == 1
    assert tracer.calls["optim.loss_and_grad"] == 1
    assert tracer.calls["models.forward"] == tracer.calls["models.backward"] == 1
    for module, attr in bindings:
        assert getattr(module, attr) is before[(module.__name__, attr)]
    assert models.FullUnitaryModel.__dict__["forward"] is forward
