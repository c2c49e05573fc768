"""Gradient chains, Adam, and the identity-learning loop."""

import numpy as np
import pytest

from unitary_forge import models
from unitary_forge.circuit import (
    AnsatzCircuit,
    GateOp,
    WirePartition,
    apply_group_raw,
    cyclic_partitions,
    group_cotangent,
    rx_encode,
    z_expectations,
)
from unitary_forge.liegroup import assemble, param_grad
from unitary_forge.linalg import matexp, matexp_vjp
from unitary_forge.models import AnsatzModel, FullUnitaryModel, PartitionedModel
from unitary_forge.optim import (
    AdamState,
    TrainConfig,
    adam_init,
    adam_step,
    build_model,
    fit,
    identity_dataset,
    loss_and_grad,
    loss_curve_csv,
    mse_loss,
    train_identity,
    train_report_to_json,
)

from oracles import central_diff_grad


def fd_model_grad(model, features, targets, h=1e-5):
    theta0 = model.get_params()

    def f(theta):
        model.set_params(theta)
        loss, _ = loss_and_grad(model, features, targets)
        return loss

    fd = central_diff_grad(f, theta0, h)
    model.set_params(theta0)
    return fd


def check_partitioned_fd(n_qubits, group_size, batch, seed):
    model = PartitionedModel.random(n_qubits, group_size=group_size, n_layers=2, seed=seed)
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1, 1, (batch, n_qubits))
    targets = rng.uniform(-1, 1, (batch, n_qubits))
    _, grad = loss_and_grad(model, features, targets)
    fd = fd_model_grad(model, features, targets)
    assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8)


class PerGroupPartitioned:
    """A PartitionedModel's chain run one group at a time: assemble and
    matexp per group forward, matexp_vjp and param_grad per group back."""

    def __init__(self, model):
        self.n_qubits = model.n_qubits
        self.groups = [g for p in model.partitions for g in p.groups]
        self.thetas = np.split(model.get_params(), len(self.groups))

    def forward(self, amps):
        cache = []
        for group, theta in zip(self.groups, self.thetas):
            x = assemble(theta)
            u, basis = matexp(x, basis=True)
            cache.append((group, x, basis, u, amps))
            amps = apply_group_raw(amps, self.n_qubits, group, u)
        return amps, cache

    def backward(self, cache, cot):
        grads = []
        for group, x, basis, u, in_amps in reversed(cache):
            ubar = group_cotangent(cot, in_amps, self.n_qubits, group)
            grads.append(param_grad(matexp_vjp(x, ubar, basis)))
            cot = apply_group_raw(cot, self.n_qubits, group, u.conj().T)
        return np.concatenate(grads[::-1])


class TestMseLoss:
    def test_zero_at_equality(self):
        pred = np.array([[0.5, -0.5]])
        loss, grad = mse_loss(pred, pred.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_unit_difference(self):
        loss, grad = mse_loss(np.array([[1.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(1.0)
        assert grad == pytest.approx(np.array([[2.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 4))

        def f(flat):
            loss, _ = mse_loss(flat.reshape(3, 4), target)
            return loss

        _, grad = mse_loss(pred, target)
        fd = central_diff_grad(f, pred.ravel())
        assert np.allclose(grad.ravel(), fd, rtol=1e-6, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss(np.zeros((1, 2)), np.zeros((2, 1)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        cfg = TrainConfig()
        params = np.array([1.0, -2.0])
        out, state = adam_step(params, np.zeros(2), adam_init(2), cfg)
        assert np.array_equal(out, params)
        assert state.step_count == 1

    def test_first_step_hand_value(self):
        # Bias correction makes the first step lr * g / (|g| + eps).
        cfg = TrainConfig(learning_rate=0.1)
        out, _ = adam_step(np.array([0.0]), np.array([1.0]), adam_init(1), cfg)
        assert out[0] == pytest.approx(-0.09999999900000002, abs=1e-15)

    def test_deterministic_trajectory(self):
        cfg = TrainConfig(learning_rate=0.05)
        rng = np.random.default_rng(1)
        grads = rng.standard_normal((20, 3))

        def run():
            p = np.zeros(3)
            st = adam_init(3)
            for g in grads:
                p, st = adam_step(p, g, st, cfg)
            return p

        assert np.array_equal(run(), run())

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="agree"):
            adam_step(np.zeros(2), np.zeros(3), adam_init(2), TrainConfig())

    def test_state_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            AdamState(np.zeros(2), np.zeros(3))


class TestLossAndGrad:
    def test_zero_loss_at_matching_targets(self):
        model = FullUnitaryModel.random(2, seed=3)
        rng = np.random.default_rng(3)
        features = rng.uniform(-1, 1, (4, 2))
        targets = z_expectations(model.apply(rx_encode(features)))
        loss, grad = loss_and_grad(model, features, targets)
        assert loss == 0.0
        assert not grad.any()

    def test_full_unitary_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = FullUnitaryModel.random(2, seed=4)
        features = rng.uniform(-1.5, 1.5, (5, 2))
        targets = rng.uniform(-1, 1, (5, 2))
        _, grad = loss_and_grad(model, features, targets)
        fd = fd_model_grad(model, features, targets)
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_stacked_full_unitary_matches_finite_differences(self):
        # Three circuits on one input batch: Re<c, outputs> against central
        # differences of the flat (3 * 16)-vector.
        rng = np.random.default_rng(6)
        model = FullUnitaryModel(2, np.stack([FullUnitaryModel.random(2, seed=s).theta for s in range(3)]))
        amps = rx_encode(rng.uniform(-1.5, 1.5, (5, 2))).amplitudes
        cot = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        out, cache = model.forward(amps)
        assert out.shape == (3, 5, 4)
        grad = model.backward(cache, cot)
        assert grad.shape == (3, 16)
        theta0 = model.get_params()

        def f(flat):
            model.set_params(flat)
            return float(np.sum(cot.conj() * model.forward(amps)[0]).real)

        fd = central_diff_grad(f, theta0.ravel())
        assert np.allclose(grad.ravel(), fd, rtol=1e-5, atol=1e-8)
        for i in range(3):
            single = FullUnitaryModel(2, theta0[i])
            out_i, cache_i = single.forward(amps)
            assert np.array_equal(out[i], out_i)
            assert np.array_equal(grad[i], single.backward(cache_i, cot[i]))

    def test_two_gate_ansatz_matches_finite_differences(self):
        circuit = AnsatzCircuit(2, (GateOp("RX", (0,), 0.3), GateOp("RY", (1,), -0.7)))
        model = AnsatzModel(circuit)
        rng = np.random.default_rng(5)
        features = rng.uniform(-1, 1, (4, 2))
        targets = rng.uniform(-1, 1, (4, 2))
        _, grad = loss_and_grad(model, features, targets)
        fd = fd_model_grad(model, features, targets)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("n_qubits", [3, 4, 5])
    def test_ansatz_with_cnots_matches_finite_differences(self, n_qubits):
        model = AnsatzModel.random(n_qubits, 12, seed=6)
        assert {op.kind for op in model.template.ops} == {"RX", "RY", "RZ", "CNOT"}
        rng = np.random.default_rng(6)
        features = rng.uniform(-1, 1, (3, n_qubits))
        targets = rng.uniform(-1, 1, (3, n_qubits))
        _, grad = loss_and_grad(model, features, targets)
        fd = fd_model_grad(model, features, targets)
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_ansatz_applies_each_op_once_forward_and_once_backward(self, monkeypatch):
        # The forward is circuit.py's walk; the reverse pass walks the
        # stacked [psi; cot], so each op is one application to 2B rows.
        calls = []

        def counting(amps, n_qubits, wires, u):
            calls.append(len(amps))
            return apply_group_raw(amps, n_qubits, wires, u)

        monkeypatch.setattr("unitary_forge.circuit.apply_group_raw", counting)
        monkeypatch.setattr(models, "apply_group_raw", counting)
        model = AnsatzModel.random(4, 12, seed=6)
        features = np.random.default_rng(6).uniform(-1, 1, (3, 4))
        out, cache = model.forward(rx_encode(features).amplitudes)
        assert calls == [3] * len(model.template.ops)
        calls.clear()
        model.backward(cache, out)
        assert calls == [6] * len(model.template.ops)

    def test_partitioned_matches_finite_differences(self):
        check_partitioned_fd(3, group_size=1, batch=4, seed=7)

    def test_partitioned_multiwire_groups(self):
        check_partitioned_fd(4, group_size=2, batch=2, seed=8)

    def test_partitioned_three_wire_groups(self):
        check_partitioned_fd(6, group_size=3, batch=2, seed=9)

    @pytest.mark.parametrize("n_qubits, group_size, n_layers", [
        (2, 1, 8), (3, 1, 2), (4, 2, 3), (6, 2, 8), (6, 3, 3), (4, 4, 2), (8, 4, 2),
    ])
    def test_partitioned_stack_equals_a_per_group_loop(self, n_qubits, group_size, n_layers):
        model = PartitionedModel.random(n_qubits, group_size, n_layers, seed=n_layers, scale=1.0)
        loop = PerGroupPartitioned(model)
        features, targets = identity_dataset(n_qubits, 3, seed=group_size)
        loss, grad = loss_and_grad(model, features, targets)
        loop_loss, loop_grad = loss_and_grad(loop, features, targets)
        assert loss == loop_loss
        assert np.array_equal(grad, loop_grad)
        amps = rx_encode(features).amplitudes
        assert np.array_equal(model.apply(rx_encode(features)).amplitudes, loop.forward(amps)[0])

    def test_feature_dimension_must_match_model(self):
        model = FullUnitaryModel.random(2, seed=9)
        with pytest.raises(ValueError, match="wire count"):
            loss_and_grad(model, np.zeros((2, 3)), np.zeros((2, 3)))


class TestModelSurface:
    def test_parameter_counts(self):
        assert FullUnitaryModel.random(3, seed=0).n_params == 64
        assert PartitionedModel.random(8, 2, 3, seed=0).n_params == 192
        assert AnsatzModel.random(2, 16, seed=0).n_params == 16

    def test_set_params_rejects_length_change(self):
        model = FullUnitaryModel.random(1, seed=0)
        with pytest.raises(ValueError, match="length"):
            model.set_params(np.zeros(5))

    def test_set_params_keeps_a_stacked_shape(self):
        model = FullUnitaryModel(1, np.zeros((3, 4)))
        assert model.n_params == 12
        model.set_params(np.arange(12.0))
        assert model.theta.shape == (3, 4)
        assert np.array_equal(model.get_params(), np.arange(12.0).reshape(3, 4))
        with pytest.raises(ValueError, match="length 8, expected 12"):
            model.set_params(np.zeros(8))
        with pytest.raises(ValueError, match="length 6, expected 8"):  # two rows of 4
            FullUnitaryModel(1, np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameters_are_rejected(self, bad):
        for model in (
            FullUnitaryModel.random(1, seed=0),
            PartitionedModel.random(2, 1, 2, seed=0),
            AnsatzModel.random(2, 4, seed=0),
        ):
            theta = model.get_params()
            with pytest.raises(ValueError, match="finite"):
                model.set_params(np.where(np.arange(theta.size) == 1, bad, theta))
            assert np.array_equal(model.get_params(), theta)
        with pytest.raises(ValueError, match="finite"):
            FullUnitaryModel(1, [0.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            PartitionedModel(2, cyclic_partitions(2, 1, 1), [bad] + [0.0] * 7)

    def test_partitioned_groups_must_share_one_size(self):
        partitions = [WirePartition(3, ((0,), (1, 2)))]
        with pytest.raises(ValueError, match=r"one size, got sizes \[1, 2\]"):
            PartitionedModel(3, partitions, np.zeros(4 + 16))
        partitions = cyclic_partitions(2, 1, 1) + cyclic_partitions(2, 2, 1)
        with pytest.raises(ValueError, match=r"one size, got sizes \[1, 2\]"):
            PartitionedModel(2, partitions, np.zeros(8 + 16))

    def test_serialized_payloads(self):
        m = FullUnitaryModel.random(2, seed=1)
        payload = m.serialized()
        assert payload["model_kind"] == "FullUnitary"
        assert len(payload["payload"]["theta"]) == 16
        p = PartitionedModel.random(4, 2, 2, seed=1)
        assert p.serialized()["payload"]["n_qubits"] == 4
        a = AnsatzModel.random(2, 4, seed=1)
        assert a.serialized()["payload"]["n_qubits"] == 2


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(model_kind="Magic")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_dict({"lr": 0.1})

    def test_build_model_kinds(self):
        assert build_model(TrainConfig(), 2, seed=0).kind == "FullUnitary"
        assert build_model(TrainConfig(model_kind="Partitioned"), 2, seed=0).kind == "Partitioned"
        assert build_model(TrainConfig(model_kind="Ansatz"), 2, seed=0).kind == "Ansatz"

    def test_ansatz_default_gate_count_matches_full_model(self):
        model = build_model(TrainConfig(model_kind="Ansatz"), 3, seed=0)
        assert model.n_params == 64


class TestTrainIdentity:
    def test_identity_start_is_a_fixed_point(self):
        cfg = TrainConfig(epochs=5, batch_size=8, seed=1, init_scale=0.0)
        report = train_identity(cfg, n_qubits=2, dataset_size=8)
        assert all(loss <= 1e-10 for loss in report.loss_curve)

    def test_converges_on_small_instance(self):
        cfg = TrainConfig(epochs=300, batch_size=16, seed=2)
        report = train_identity(cfg, n_qubits=2, dataset_size=16)
        assert min(report.loss_curve) < 1e-4

    def test_single_datapoint_dataset(self):
        cfg = TrainConfig(epochs=3, batch_size=1, seed=3)
        report = train_identity(cfg, n_qubits=2, dataset_size=1)
        assert len(report.loss_curve) == 3
        assert len(report.epoch_times) == 3

    def test_bitwise_deterministic(self):
        cfg = TrainConfig(epochs=4, batch_size=4, seed=4)
        a = train_identity(cfg, n_qubits=2, dataset_size=8)
        b = train_identity(cfg, n_qubits=2, dataset_size=8)
        assert a.loss_curve == b.loss_curve
        assert a.final_params == b.final_params

    def test_warmup_does_not_change_results(self):
        cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
        a = train_identity(cfg, n_qubits=2, dataset_size=4, warmup=False)
        b = train_identity(cfg, n_qubits=2, dataset_size=4, warmup=True)
        assert a.loss_curve == b.loss_curve

    def test_dataset_is_seeded_and_in_range(self):
        f1, t1 = identity_dataset(3, 16, seed=6)
        f2, _ = identity_dataset(3, 16, seed=6)
        assert np.array_equal(f1, f2)
        assert (np.abs(f1) <= np.pi / 2).all()
        assert np.allclose(t1, np.cos(f1), atol=1e-12)

    def test_report_serialization(self):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=7)
        report = train_identity(cfg, n_qubits=1, dataset_size=4)
        text = train_report_to_json(report, context={"n_qubits": 1})
        assert '"loss_curve"' in text
        csv_text = loss_curve_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "epoch,loss,seconds"
        assert len(lines) == 3


class TestFit:
    def test_returns_epoch_losses_and_runs_after_epoch_per_epoch(self):
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.1)
        seen_rows, after = [], []

        def batch_loss_grad(params, rows):
            seen_rows.append((rows.start, rows.stop))
            return float(params @ params), 2.0 * params

        params, losses, times = fit(np.ones(2), batch_loss_grad, 3, cfg, adam_step, after.append)
        assert seen_rows == [(0, 2), (2, 4)] * 3
        assert len(losses) == len(times) == len(after) == 3
        assert np.array_equal(after[-1], params)
        assert losses[0] > losses[-1]

    def test_non_finite_batch_stops_before_the_update_naming_epoch_and_batch(self):
        cfg = TrainConfig(epochs=3, batch_size=2)
        calls, steps = [], []

        def batch_loss_grad(params, rows):
            calls.append(rows.start)
            bad = len(calls) == 3  # epoch 2, batch 1
            return 0.5, np.full(2, np.nan if bad else 1.0)

        def counted_step(*args):
            steps.append(1)
            return adam_step(*args)

        with pytest.raises(FloatingPointError, match="epoch 2, batch 1"):
            fit(np.zeros(2), batch_loss_grad, 4, cfg, counted_step)
        assert len(steps) == 2
