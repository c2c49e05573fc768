"""Statevector batch operations against dense brute-force oracles."""

import json

import numpy as np
import pytest

from unitary_forge.circuit import (
    AnsatzCircuit,
    GateOp,
    PartitionedUnitary,
    StateBatch,
    WirePartition,
    apply_group,
    apply_partitioned,
    cyclic_partitions,
    partition_groups,
    random_layer,
    run_ansatz,
    rx_encode,
    rx_ry_generator_params,
    z_expectations,
)
from unitary_forge.liegroup import random_params, to_unitary
from unitary_forge.linalg import random_unitary
from unitary_forge.models import AnsatzModel, PartitionedModel

from oracles import (
    dense_circuit_matrix,
    embed_dense,
    encode_rows,
    oracle_rx,
    oracle_ry,
    z_values,
)


def random_state(n_qubits, batch, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((batch, 2 ** n_qubits)) + 1j * rng.standard_normal(
        (batch, 2 ** n_qubits)
    )
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return StateBatch(amps)


class TestStateBatch:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="normalized"):
            StateBatch(np.ones((1, 4), dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            StateBatch(np.full((1, 2), np.nan))

    def test_rejects_non_power_of_two_width(self):
        bad = np.zeros((1, 3), dtype=complex)
        bad[0, 0] = 1.0
        with pytest.raises(ValueError, match="power of two"):
            StateBatch(bad)

    def test_shape_properties(self):
        s = random_state(3, 5, 0)
        assert (s.batch, s.dim, s.n_qubits) == (5, 8, 3)


class TestRxEncode:
    def test_zero_features_give_ground_state(self):
        s = rx_encode(np.zeros((2, 3)))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(s.amplitudes, expected[None, :], atol=1e-15)

    def test_pi_rotation_on_one_wire(self):
        s = rx_encode(np.array([[np.pi]]))
        assert np.allclose(s.amplitudes, [[0.0, -1j]], atol=1e-15)

    def test_decoded_encoding_is_cosine(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-np.pi / 2, np.pi / 2, (4, 2))
        assert np.allclose(z_expectations(rx_encode(x)), np.cos(x), atol=1e-12)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-np.pi, np.pi, (5, 4))
        assert np.allclose(rx_encode(x).amplitudes, encode_rows(x), atol=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rx_encode(np.array([[np.nan]]))


class TestApplyAllWires:
    """apply_group with every wire listed, in order: one unitary on the whole state."""

    def test_identity_is_noop(self):
        s = random_state(3, 4, 3)
        assert np.allclose(apply_group(s, (0, 1, 2), np.eye(8)).amplitudes, s.amplitudes)

    def test_unitary_then_adjoint_restores(self):
        s = random_state(3, 4, 4)
        u = random_unitary(8, seed=0)
        back = apply_group(apply_group(s, (0, 1, 2), u), (0, 1, 2), u.conj().T)
        assert np.abs(back.amplitudes - s.amplitudes).max() <= 1e-8

    def test_norms_preserved(self):
        s = random_state(5, 32, 5)
        out = apply_group(s, tuple(range(5)), random_unitary(32, seed=1))
        norms = np.sum(np.abs(out.amplitudes) ** 2, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_group(random_state(2, 1, 0), (0, 1), np.eye(8))


class TestApplyGroup:
    def test_all_wires_equals_dense_product(self):
        s = random_state(3, 2, 6)
        u = random_unitary(8, seed=2)
        a = apply_group(s, (0, 1, 2), u)
        assert np.allclose(a.amplitudes, s.amplitudes @ u.T, atol=1e-12)

    def test_single_wire_rotation_matches_encoding(self):
        theta = 0.83
        start = rx_encode(np.zeros((1, 2)))
        via_group = apply_group(start, (0,), oracle_rx(theta))
        via_encode = rx_encode(np.array([[theta, 0.0]]))
        assert np.allclose(via_group.amplitudes, via_encode.amplitudes, atol=1e-14)

    def test_permuted_wires_match_dense_oracle(self):
        s = random_state(3, 2, 7)
        u = random_unitary(4, seed=3)
        got = apply_group(s, (2, 0), u)
        dense = embed_dense(u, (2, 0), 3)
        want = s.amplitudes @ dense.T
        assert np.abs(got.amplitudes - want).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 3) + 1))
        wires = tuple(int(w) for w in rng.choice(n, size=k, replace=False))
        u = random_unitary(2 ** k, seed=seed)
        s = random_state(n, 3, seed)
        got = apply_group(s, wires, u)
        want = s.amplitudes @ embed_dense(u, wires, n).T
        assert np.abs(got.amplitudes - want).max() <= 1e-9

    def test_wire_validation(self):
        s = random_state(2, 1, 8)
        with pytest.raises(ValueError, match="out of range"):
            apply_group(s, (2,), np.eye(2))
        with pytest.raises(ValueError, match="distinct"):
            apply_group(s, (0, 0), np.eye(4))
        with pytest.raises(ValueError, match="does not match"):
            apply_group(s, (0,), np.eye(4))


class TestApplyPartitioned:
    def test_single_full_group_equals_dense_product(self):
        theta = random_params(8, seed=9)
        pu = PartitionedUnitary(
            3, ((WirePartition(3, ((0, 1, 2),)), (theta,)),)
        )
        s = random_state(3, 2, 9)
        got = apply_partitioned(s, pu)
        want = s.amplitudes @ to_unitary(theta).T
        assert np.allclose(got.amplitudes, want, atol=1e-12)

    def test_parameter_count_formula(self):
        # m layers of N/k size-k groups expose (N*m/k) * 2^(2k) parameters.
        partitions = cyclic_partitions(8, 2, 3)
        layers = tuple(
            (p, tuple(random_params(4, seed=i * 10 + j) for j in range(len(p.groups))))
            for i, p in enumerate(partitions)
        )
        pu = PartitionedUnitary(8, layers)
        assert pu.n_params == 192

    def test_two_groups_match_kron_oracle(self):
        t1 = random_params(4, seed=20)
        t2 = random_params(4, seed=21)
        pu = PartitionedUnitary(
            4, ((WirePartition(4, ((0, 1), (2, 3))), (t1, t2)),)
        )
        s = random_state(4, 3, 22)
        got = apply_partitioned(s, pu)
        dense = np.kron(to_unitary(t1), to_unitary(t2))
        want = s.amplitudes @ dense.T
        assert np.abs(got.amplitudes - want).max() <= 1e-10

    def test_partition_must_cover_all_wires(self):
        with pytest.raises(ValueError, match="cover"):
            WirePartition(3, ((0, 1),))
        with pytest.raises(ValueError, match="cover"):
            WirePartition(2, ((0, 1), (1,)))

    def test_group_parameter_dimension_checked(self):
        with pytest.raises(ValueError, match="dim"):
            PartitionedUnitary(
                2, ((WirePartition(2, ((0, 1),)), (random_params(2, seed=0),)),)
            )

    def test_groups_must_share_one_size(self):
        layers = (
            (WirePartition(3, ((0,), (1, 2))), (random_params(2, seed=0), random_params(4, seed=1))),
        )
        with pytest.raises(ValueError, match=r"one size, got sizes \[1, 2\]"):
            PartitionedUnitary(3, layers)
        layers = (
            (WirePartition(2, ((0,), (1,))), (random_params(2, seed=0), random_params(2, seed=1))),
            (WirePartition(2, ((1, 0),)), (random_params(4, seed=2),)),
        )
        with pytest.raises(ValueError, match=r"one size, got sizes \[1, 2\]"):
            PartitionedUnitary(2, layers)

    def test_groups_run_layer_by_layer(self):
        assert partition_groups(4, cyclic_partitions(4, 2, 2)) == ((0, 1), (2, 3), (1, 2), (3, 0))

    def test_to_json_format(self):
        pu = PartitionedUnitary(
            2,
            (
                (WirePartition(2, ((0,), (1,))), ([0.5, 0.0, 0.0, -0.25], [1.0, 2.0, 3.0, 4.0])),
                (WirePartition(2, ((1,), (0,))), (np.arange(4) / 8, [-1.0, 0.0, 0.5, 2.0])),
            ),
        )
        assert json.loads(pu.to_json()) == {
            "n_qubits": 2,
            "layers": [
                {
                    "groups": [
                        {"wires": [0], "theta": [0.5, 0.0, 0.0, -0.25]},
                        {"wires": [1], "theta": [1.0, 2.0, 3.0, 4.0]},
                    ]
                },
                {
                    "groups": [
                        {"wires": [1], "theta": [0.0, 0.125, 0.25, 0.375]},
                        {"wires": [0], "theta": [-1.0, 0.0, 0.5, 2.0]},
                    ]
                },
            ],
        }


def one_gate(s, op):
    return run_ansatz(s, AnsatzCircuit(s.n_qubits, (op,)))


class TestOneGateCircuit:
    def test_zero_angle_rotation_is_identity(self):
        s = random_state(2, 2, 30)
        out = one_gate(s, GateOp("RX", (0,), 0.0))
        assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_ry_half_pi_on_ground_state(self):
        s = rx_encode(np.zeros((1, 1)))
        out = one_gate(s, GateOp("RY", (0,), np.pi / 2))
        assert np.allclose(
            out.amplitudes, [[np.cos(np.pi / 4), np.sin(np.pi / 4)]], atol=1e-14
        )

    def test_cnot_flips_target_when_control_set(self):
        amps = np.zeros((1, 4), dtype=complex)
        amps[0, 2] = 1.0  # |10>: wire 0 (control) set
        out = one_gate(StateBatch(amps), GateOp("CNOT", (0, 1)))
        expected = np.zeros(4)
        expected[3] = 1.0  # |11>
        assert np.allclose(out.amplitudes, expected[None, :])

    def test_gate_validation(self):
        with pytest.raises(ValueError, match="angle"):
            GateOp("RX", (0,))
        with pytest.raises(ValueError, match="distinct"):
            GateOp("CNOT", (1, 1))
        with pytest.raises(ValueError, match="unknown"):
            GateOp("H", (0,), 0.0)
        for angle in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="RZ angle must be finite"):
                GateOp("RZ", (0,), angle)

    def test_run_ansatz_rejects_inf_angle(self):
        circuit = AnsatzCircuit(1, (GateOp("RX", (0,), 0.5),))
        with pytest.raises(ValueError, match="RX angle must be finite"):
            run_ansatz(random_state(1, 2, 37), circuit.with_angles([np.inf]))

    def test_model_with_inf_angle_fails_on_set_params(self):
        # Model parameters skip GateOp's check; the model's own finiteness
        # check rejects them before any walk runs.
        model = AnsatzModel(AnsatzCircuit(1, (GateOp("RX", (0,), 0.5),)))
        for angle in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                model.set_params([angle])
        assert model.get_params().tolist() == [0.5]


class TestRunAnsatz:
    def test_empty_circuit_is_noop(self):
        s = random_state(2, 2, 31)
        out = run_ansatz(s, AnsatzCircuit(2, ()))
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_two_gate_tensor_product(self):
        t1, t2 = 0.4, -1.1
        c = AnsatzCircuit(2, (GateOp("RX", (0,), t1), GateOp("RY", (1,), t2)))
        s = random_state(2, 3, 32)
        got = run_ansatz(s, c)
        dense = np.kron(oracle_rx(t1), oracle_ry(t2))
        want = s.amplitudes @ dense.T
        assert np.abs(got.amplitudes - want).max() <= 1e-12

    def test_random_circuit_matches_dense_product(self):
        circuit = random_layer(4, 20, seed=33)
        # keep exactly the first 20 rotations plus inserted CNOTs
        s = random_state(4, 2, 33)
        got = run_ansatz(s, circuit)
        ops = [(op.kind, op.wires, op.theta) for op in circuit.ops]
        dense = dense_circuit_matrix(ops, 4)
        want = s.amplitudes @ dense.T
        assert np.abs(got.amplitudes - want).max() <= 1e-9

    def test_to_json_format(self):
        circuit = AnsatzCircuit(
            3, (GateOp("RX", (0,), 0.25), GateOp("CNOT", (2, 1)), GateOp("RZ", (1,), -1.5))
        )
        assert json.loads(circuit.to_json()) == {
            "n_qubits": 3,
            "ops": [
                {"kind": "RX", "wires": [0], "theta": 0.25},
                {"kind": "CNOT", "wires": [2, 1]},
                {"kind": "RZ", "wires": [1], "theta": -1.5},
            ],
        }


class TestZExpectations:
    def test_ground_state_is_all_ones(self):
        s = rx_encode(np.zeros((1, 4)))
        assert np.allclose(z_expectations(s), np.ones((1, 4)))

    def test_excited_single_wire(self):
        amps = np.zeros((1, 2), dtype=complex)
        amps[0, 1] = 1.0
        assert np.allclose(z_expectations(StateBatch(amps)), [[-1.0]])

    def test_matches_brute_force(self):
        s = random_state(4, 5, 35)
        assert np.allclose(z_expectations(s), z_values(s.amplitudes, 4), atol=1e-12)

    def test_values_bounded(self):
        s = random_state(3, 10, 36)
        z = z_expectations(s)
        assert (z >= -1.0 - 1e-12).all() and (z <= 1.0 + 1e-12).all()


class TestRandomLayer:
    def test_rejects_zero_params(self):
        with pytest.raises(ValueError, match="n_params"):
            random_layer(2, 0, seed=0)

    def test_single_param_is_one_rotation(self):
        c = random_layer(1, 1, seed=0)
        assert c.n_rotations == 1

    def test_rotation_count_matches_request(self):
        c = random_layer(3, 64, seed=41)
        assert c.n_rotations == 64
        assert all(op.kind in ("RX", "RY", "RZ", "CNOT") for op in c.ops)

    def test_deterministic(self):
        assert random_layer(3, 16, seed=5) == random_layer(3, 16, seed=5)
        assert random_layer(3, 16, seed=5) != random_layer(3, 16, seed=6)

    def test_contains_cnots_at_default_rate(self):
        c = random_layer(4, 200, seed=42)
        n_cnot = sum(1 for op in c.ops if op.kind == "CNOT")
        assert 30 <= n_cnot <= 90  # ~0.3 insertion probability


class TestContainment:
    def test_rx_ry_product_lies_in_full_parametrization(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            t1, t2 = rng.uniform(-np.pi, np.pi, 2)
            theta = rx_ry_generator_params(t1, t2)
            u = to_unitary(theta)
            want = np.kron(oracle_rx(t1), oracle_ry(t2))
            assert np.abs(u - want).max() <= 1e-8


class TestNormPreservation:
    @pytest.mark.parametrize("seed", range(3))
    def test_pipeline_preserves_norms(self, seed):
        s = random_state(4, 8, seed + 60)
        s = apply_group(s, (1, 3), random_unitary(4, seed=seed))
        s = one_gate(s, GateOp("RZ", (2,), 0.5))
        s = run_ansatz(s, random_layer(4, 10, seed=seed))
        norms = np.sum(np.abs(s.amplitudes) ** 2, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-8


class TestModelForwardMatchesCircuitPath:
    """Training runs the models' own forward loops; they must apply the same
    operator as the circuit functions that are checked against dense oracles."""

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ansatz_model_matches_run_ansatz(self, n_qubits, seed):
        model = AnsatzModel.random(n_qubits, 6 * n_qubits, seed)
        assert any(op.kind == "CNOT" for op in model.circuit().ops)
        s = random_state(n_qubits, 3, seed)
        expected = run_ansatz(s, model.circuit()).amplitudes
        assert np.array_equal(model.apply(s).amplitudes, expected)

    @pytest.mark.parametrize("n_qubits, group_size", [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (5, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partitioned_model_matches_apply_partitioned(self, n_qubits, group_size, seed):
        model = PartitionedModel.random(n_qubits, group_size, 2, seed, scale=1.0)
        s = random_state(n_qubits, 3, seed)
        expected = apply_partitioned(s, model.as_partitioned_unitary()).amplitudes
        assert np.array_equal(model.apply(s).amplitudes, expected)
