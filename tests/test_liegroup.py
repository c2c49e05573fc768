"""Parameter-vector layout, its inverse, and the chain rule into it."""

import numpy as np
import pytest

from unitary_forge.liegroup import (
    assemble,
    disassemble,
    param_dim,
    param_grad,
    random_params,
    to_unitary,
)
from unitary_forge.linalg import unitarity_error

from oracles import central_diff_grad


class TestAssemble:
    def test_first_slot_is_diagonal_imaginary(self):
        x = assemble(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(x, np.array([[1j, 0], [0, 0]]))

    def test_zero_vector_gives_zero_matrix(self):
        assert not assemble(np.zeros(16)).any()

    def test_off_diagonal_pair_layout(self):
        x = assemble(np.array([0.0, 1.0, 2.0, 0.0]))
        expected = np.array([[0, 1 + 2j], [-1 + 2j, 0]])
        assert np.array_equal(x, expected)

    def test_dim_four_slot_order(self):
        # Row-major: each row's diagonal coefficient first, then its
        # (real, imag) pairs. Spot-check the diagonal landing slots.
        theta = np.zeros(16)
        for slot, row in [(0, 0), (7, 1), (12, 2), (15, 3)]:
            theta[:] = 0.0
            theta[slot] = 1.0
            x = assemble(theta)
            assert x[row, row] == 1j
            assert np.count_nonzero(x) == 1

    def test_always_skew_hermitian(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 3, 5, 8):
            x = assemble(rng.standard_normal(d * d))
            assert not (x + x.conj().T).any()

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            assemble(np.zeros(5))


class TestDisassemble:
    def test_zero_matrix(self):
        assert not disassemble(np.zeros((3, 3), dtype=complex)).any()

    def test_diagonal_readoff(self):
        theta = disassemble(np.array([[1j, 0], [0, -1j]]))
        assert np.array_equal(theta, np.array([1.0, 0.0, 0.0, -1.0]))

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(16)
        assert np.array_equal(disassemble(assemble(theta)), theta)

    def test_matrix_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        x = assemble(rng.standard_normal(36))
        assert np.array_equal(assemble(disassemble(x)), x)

    def test_rejects_non_skew_hermitian(self):
        with pytest.raises(ValueError, match="skew"):
            disassemble(np.eye(2))


class TestParamGrad:
    def test_zero_cotangent(self):
        assert not param_grad(np.zeros((4, 4), dtype=complex)).any()

    def test_diagonal_unit_cotangent(self):
        g = param_grad(np.array([[1j, 0], [0, 0]]))
        assert np.allclose(g, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_finite_differences(self, d):
        rng = np.random.default_rng(d + 10)
        abar = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

        def f(theta):
            return float(np.real(np.trace(abar.conj().T @ assemble(theta))))

        theta0 = rng.standard_normal(d * d)
        fd = central_diff_grad(f, theta0)
        assert np.allclose(param_grad(abar), fd, rtol=1e-6, atol=1e-9)


class TestStack:
    """A (k, d^2) stack assembles to (k, d, d) and back, equal to k single calls bitwise."""

    @pytest.mark.parametrize("k", [1, 3, 32])
    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    def test_equals_per_slice_calls_bitwise(self, d, k):
        rng = np.random.default_rng(500 + d + k)
        thetas = rng.standard_normal((k, d * d))
        abar = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
        x = assemble(thetas)
        g = param_grad(abar)
        assert x.shape == (k, d, d) and g.shape == (k, d * d)
        for i in range(k):
            assert np.array_equal(x[i], assemble(thetas[i]))
            assert np.array_equal(g[i], param_grad(abar[i]))

    def test_bad_stack_shapes_raise(self):
        with pytest.raises(ValueError, match="perfect square"):
            assemble(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="1-D"):
            assemble(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            param_grad(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="square"):
            param_grad(np.zeros((2, 3, 4, 4)))


class TestToUnitary:
    def test_zero_parameters_give_identity(self):
        assert np.allclose(to_unitary(np.zeros(9)), np.eye(3), atol=1e-15)

    def test_single_real_pair_is_planar_rotation(self):
        t = 0.7
        u = to_unitary(np.array([0.0, t, 0.0, 0.0]))
        expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        assert np.allclose(u, expected, atol=1e-14)

    def test_five_qubit_dimension_uses_1024_parameters(self):
        theta = random_params(32, seed=0)
        assert theta.size == 1024
        assert unitarity_error(to_unitary(theta)) <= 1e-6

    @pytest.mark.parametrize("n", range(1, 8))
    def test_parameter_count_is_four_to_the_n(self, n):
        assert random_params(2 ** n, seed=1).size == 4 ** n

    def test_end_to_end_gradient(self):
        # Smooth scalar of the unitary, differentiated through the
        # exponential and the layout, against central differences.
        from unitary_forge.linalg import matexp_vjp

        rng = np.random.default_rng(9)
        for d in (2, 4, 8):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            theta0 = random_params(d, seed=d)

            def loss(theta):
                return float(np.real(np.trace(m.conj().T @ to_unitary(theta))))

            grad = param_grad(matexp_vjp(assemble(theta0), m))
            fd = central_diff_grad(loss, theta0)
            assert np.allclose(grad, fd, rtol=1e-4, atol=1e-7)


class TestSerialization:
    def test_param_dim(self):
        assert param_dim(np.zeros(49)) == 7
        with pytest.raises(ValueError):
            param_dim(np.zeros(50))


class TestRandomParams:
    def test_deterministic(self):
        assert np.array_equal(random_params(8, seed=2), random_params(8, seed=2))

    def test_scale_override(self):
        zeros = random_params(4, seed=0, scale=0.0)
        assert not zeros.any()
