"""Matrix exponential, its adjoint, and unitarity checks."""

import numpy as np
import pytest

from unitary_forge.circuit import rx_ry_generator_params
from unitary_forge.liegroup import assemble
from unitary_forge.linalg import (
    UNITARITY_TOL,
    matexp,
    matexp_vjp,
    random_unitary,
    require_unitary,
    unitarity_error,
)

from oracles import fd_expm_vjp, random_skew_hermitian, taylor_expm


class TestMatexp:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(matexp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_scalar_euler_identity(self):
        out = matexp(np.array([[1j * np.pi]]))
        assert np.allclose(out, [[-1.0]], atol=1e-12)

    def test_planar_rotation_generator(self):
        theta = 0.3
        a = np.array([[0.0, theta], [-theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert np.allclose(matexp(a), expected, atol=1e-14)

    def test_matches_series_on_random_skew_hermitian(self):
        rng = np.random.default_rng(7)
        a = random_skew_hermitian(8, rng)
        got = matexp(a)
        ref = taylor_expm(a)
        rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert rel <= 1e-10
        assert unitarity_error(got) <= 1e-6

    @pytest.mark.parametrize("scale", [0.01, 0.5, 3.0, 20.0])
    def test_matches_series_across_norm_range(self, scale):
        rng = np.random.default_rng(int(scale * 100))
        a = random_skew_hermitian(5, rng, scale=scale)
        got = matexp(a)
        ref = taylor_expm(a)
        rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert rel <= 1e-10

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_inverse_relation(self, d):
        rng = np.random.default_rng(d)
        a = random_skew_hermitian(d, rng)
        prod = matexp(a) @ matexp(-a)
        assert np.abs(prod - np.eye(d)).max() <= 1e-8

    def test_block_diagonal_structure(self):
        rng = np.random.default_rng(11)
        a1 = random_skew_hermitian(3, rng)
        a2 = random_skew_hermitian(4, rng)
        full = np.zeros((7, 7), dtype=complex)
        full[:3, :3] = a1
        full[3:, 3:] = a2
        got = matexp(full)
        assert np.abs(got[:3, :3] - matexp(a1)).max() <= 1e-10
        assert np.abs(got[3:, 3:] - matexp(a2)).max() <= 1e-10
        assert np.abs(got[:3, 3:]).max() <= 1e-10

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            matexp(bad)
        with pytest.raises(ValueError, match="finite"):
            matexp(np.array([[np.inf]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matexp(np.zeros((2, 3)))


class TestMatexpVjp:
    def test_zero_base_point_returns_cotangent(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(matexp_vjp(np.zeros((3, 3)), g), g, atol=1e-12)

    def test_diagonal_case(self):
        # For diagonal a the adjoint acts entrywise: conj-exponential weights.
        a = np.diag([1j, 2j])
        g = np.diag([1.0 + 0j, 1.0 + 0j])
        expected = np.diag([np.exp(-1j), np.exp(-2j)])
        got = matexp_vjp(a, g)
        assert np.allclose(got, expected, atol=1e-10)
        fd = fd_expm_vjp(a, g)
        assert np.allclose(got, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_finite_differences(self, d):
        rng = np.random.default_rng(d + 40)
        a = random_skew_hermitian(d, rng)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = matexp_vjp(a, g)
        fd = fd_expm_vjp(a, g)
        assert np.allclose(got, fd, rtol=1e-5, atol=1e-7)

    def test_skew_hermitian_base_point(self):
        rng = np.random.default_rng(3)
        a = random_skew_hermitian(4, rng)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(matexp_vjp(a, g), fd_expm_vjp(a, g), rtol=1e-5, atol=1e-7)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="match"):
            matexp_vjp(np.zeros((2, 2)), np.zeros((3, 3)))


def taylor_vjp(a, g):
    """The adjoint as the upper-right block of exp([[a^H, g], [0, a^H]]),
    exponentiated by the extended-precision series."""
    d = a.shape[0]
    block = np.zeros((2 * d, 2 * d), dtype=complex)
    block[:d, :d] = block[d:, d:] = a.conj().T
    block[:d, d:] = g
    return taylor_expm(block)[:d, d:]


def rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def random_cotangent(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def skew_with_spectrum(w, seed):
    """i Q diag(w) Q^H for a random unitary Q, returned as it rounds (not symmetrized)."""
    q = random_unitary(len(w), seed=seed)
    return q @ np.diag(1j * np.asarray(w, dtype=float)) @ q.conj().T


def exactly_skew(a):
    out = (a - a.conj().T) / 2.0
    assert np.array_equal(out, -out.conj().T)
    return out


class TestSpectralVjp:
    """Bitwise skew-Hermitian generators take the eigenbasis (Daleckii-Krein) branch."""

    def test_library_generators_are_bitwise_skew(self):
        rng = np.random.default_rng(1)
        for a in (
            assemble(rng.standard_normal(16)),
            random_skew_hermitian(5, rng, scale=3.0),
            assemble(rx_ry_generator_params(0.3, 0.7)),
        ):
            assert np.array_equal(a, -a.conj().T)

    def test_zero_generator_returns_cotangent(self):
        g = random_cotangent(4, np.random.default_rng(2))
        assert np.allclose(matexp_vjp(np.zeros((4, 4), dtype=complex), g), g, atol=1e-14)

    def test_scalar_multiple_of_identity(self):
        # exp(A^H) commutes with everything here, so the adjoint is exp(-2i) g.
        g = random_cotangent(3, np.random.default_rng(3))
        got = matexp_vjp(2j * np.eye(3), g)
        assert np.allclose(got, np.exp(-2j) * g, atol=1e-14)
        assert np.allclose(got, fd_expm_vjp(2j * np.eye(3), g), rtol=1e-5, atol=1e-7)

    def test_rx_ry_generator(self):
        a = assemble(rx_ry_generator_params(0.3, 0.7))
        g = random_cotangent(4, np.random.default_rng(4))
        got = matexp_vjp(a, g)
        assert rel_err(got, taylor_vjp(a, g)) <= 1e-13
        assert np.allclose(got, fd_expm_vjp(a, g), rtol=1e-5, atol=1e-7)

    def test_near_degenerate_spectrum(self):
        w = [0.5, 0.5 + 1e-9, 0.5 + 2e-9, -1.0, -1.0 + 1e-9, 2.0]
        a = exactly_skew(skew_with_spectrum(w, seed=5))
        g = random_cotangent(6, np.random.default_rng(5))
        got = matexp_vjp(a, g)
        assert rel_err(got, taylor_vjp(a, g)) <= 1e-13
        assert np.allclose(got, fd_expm_vjp(a, g), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("scale", [20.0, 50.0])
    def test_large_generators(self, scale):
        rng = np.random.default_rng(int(scale))
        a = random_skew_hermitian(6, rng, scale=scale)
        g = random_cotangent(6, rng)
        got = matexp_vjp(a, g)
        assert rel_err(got, taylor_vjp(a, g)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_agrees_with_block_series(self, d):
        rng = np.random.default_rng(100 + d)
        a = random_skew_hermitian(d, rng)
        g = random_cotangent(d, rng)
        assert rel_err(matexp_vjp(a, g), taylor_vjp(a, g)) <= 1e-12

    def test_skew_only_to_rounding_raises(self):
        a = skew_with_spectrum([0.3, -1.2, 0.7, 2.5, -0.1], seed=6)
        assert not np.array_equal(a, -a.conj().T)
        assert np.abs(a + a.conj().T).max() <= 1e-14
        g = random_cotangent(5, np.random.default_rng(6))
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp(a)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp_vjp(a, g)

    @pytest.mark.parametrize("scale", [1.0, 20.0, 50.0])
    def test_matches_scipy_expm_frechet(self, scale):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(200 + int(scale))
        a = random_skew_hermitian(8, rng, scale=scale)
        g = random_cotangent(8, rng)
        ref = scipy_linalg.expm_frechet(a.conj().T, g, compute_expm=False)
        assert rel_err(matexp_vjp(a, g), ref) <= 1e-12


class TestMatexpVjpNonFinite:
    """Non-finite input raises before the skew check and any decomposition."""

    @staticmethod
    def skew(d=3):
        return random_skew_hermitian(d, np.random.default_rng(9))

    def test_nan_in_skew_generator(self):
        a = self.skew()
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            matexp_vjp(a, np.eye(3))

    def test_infinite_skew_generator(self):
        # 1j*inf on the diagonal still satisfies a == -a^H bitwise.
        a = self.skew()
        a[1, 1] = complex(0.0, np.inf)
        assert np.array_equal(a, -a.conj().T)
        with pytest.raises(ValueError, match="finite"):
            matexp_vjp(a, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("skew", [True, False])
    def test_non_finite_cotangent(self, bad, skew):
        a = self.skew() if skew else np.arange(9.0).reshape(3, 3)
        g = np.eye(3, dtype=complex)
        g[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            matexp_vjp(a, g)

    def test_nan_in_general_matrix(self):
        a = np.arange(9.0).reshape(3, 3).astype(complex)
        a[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            matexp_vjp(a, np.eye(3))


class TestSharedBasis:
    """matexp(a, basis=True) builds U from one eigh and hands its basis to the adjoint."""

    @pytest.mark.parametrize("d", [2, 16, 64, 256])
    def test_is_bitwise_the_plain_exponential(self, d):
        a = random_skew_hermitian(d, np.random.default_rng(300 + d), scale=1.0 / np.sqrt(d))
        u, (w, v) = matexp(a, basis=True)
        assert w.shape == (d,) and v.shape == (d, d)
        assert np.array_equal(u, matexp(a))
        if d <= 64:
            ref = taylor_expm(a)
        else:  # the extended-precision series takes seconds at d=256
            ref = pytest.importorskip("scipy.linalg").expm(a)
        assert np.abs(u - ref).max() <= 1e-13

    @pytest.mark.parametrize("scale", [0.1, 1.0, 20.0])
    def test_matches_series(self, scale):
        a = random_skew_hermitian(8, np.random.default_rng(310), scale=scale)
        u, _ = matexp(a, basis=True)
        assert rel_err(u, taylor_expm(a)) <= 1e-13

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_vjp_with_basis_is_bitwise_the_vjp_without(self, d):
        rng = np.random.default_rng(320 + d)
        a = random_skew_hermitian(d, rng)
        g = random_cotangent(d, rng)
        _, basis = matexp(a, basis=True)
        assert np.array_equal(matexp_vjp(a, g, basis), matexp_vjp(a, g))

    def test_near_degenerate_spectrum(self):
        w = [0.5, 0.5 + 1e-9, 0.5 + 2e-9, -1.0, -1.0 + 1e-9, 2.0]
        a = exactly_skew(skew_with_spectrum(w, seed=7))
        g = random_cotangent(6, np.random.default_rng(7))
        u, basis = matexp(a, basis=True)
        assert rel_err(u, taylor_expm(a)) <= 1e-13
        assert rel_err(matexp_vjp(a, g, basis), taylor_vjp(a, g)) <= 1e-13

    def test_skew_only_to_rounding_raises(self):
        a = skew_with_spectrum([0.3, -1.2, 0.7], seed=8)
        assert not np.array_equal(a, -a.conj().T)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp(a, basis=True)
        _, basis = matexp(exactly_skew(a), basis=True)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp_vjp(a, np.eye(3), basis)

    def test_general_matrix_raises(self):
        a = np.arange(9.0).reshape(3, 3)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp(a, basis=True)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp(a)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp_vjp(a, np.eye(3))

    def test_non_finite_raises(self):
        a = random_skew_hermitian(3, np.random.default_rng(9))
        _, basis = matexp(a, basis=True)
        g = np.eye(3, dtype=complex)
        g[0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            matexp_vjp(a, g, basis)
        a[1, 1] = complex(0.0, np.inf)  # still a == -a^H bitwise
        assert np.array_equal(a, -a.conj().T)
        with pytest.raises(ValueError, match="finite"):
            matexp(a, basis=True)
        with pytest.raises(ValueError, match="finite"):
            matexp_vjp(a, np.eye(3), basis)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            matexp(np.zeros((2, 3)), basis=True)

    @pytest.mark.parametrize("d", [512, 1024])
    def test_unitary_at_large_dimension(self, d):
        a = assemble(np.random.default_rng(d).standard_normal(d * d) / d)
        u, _ = matexp(a, basis=True)
        assert unitarity_error(u) <= UNITARITY_TOL


class TestStack:
    """A (k, d, d) stack runs as one call and equals k single calls bitwise."""

    @staticmethod
    def stack(d, k, seed):
        rng = np.random.default_rng(seed)
        a = np.stack([random_skew_hermitian(d, rng) for _ in range(k)])
        g = np.stack([random_cotangent(d, rng) for _ in range(k)])
        return a, g

    @pytest.mark.parametrize("k", [1, 3, 32])
    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    def test_equals_per_slice_calls_bitwise(self, d, k):
        a, g = self.stack(d, k, seed=400 + d + k)
        u, (w, v) = matexp(a, basis=True)
        assert u.shape == v.shape == (k, d, d) and w.shape == (k, d)
        assert np.array_equal(matexp(a), u)
        abar = matexp_vjp(a, g, (w, v))
        assert np.array_equal(matexp_vjp(a, g), abar)
        for i in range(k):
            u_i, (w_i, v_i) = matexp(a[i], basis=True)
            assert np.array_equal(u[i], u_i)
            assert np.array_equal(w[i], w_i) and np.array_equal(v[i], v_i)
            assert np.array_equal(abar[i], matexp_vjp(a[i], g[i], (w_i, v_i)))
        assert unitarity_error(u) == max(unitarity_error(u_i) for u_i in u)

    def test_vjp_matches_the_series_and_scipy_slice_by_slice(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        a, g = self.stack(8, 3, seed=410)
        a[2] *= 20.0
        got = matexp_vjp(a, g, matexp(a, basis=True)[1])
        for a_i, g_i, got_i in zip(a, g, got):
            assert rel_err(got_i, taylor_vjp(a_i, g_i)) <= 1e-12
            assert rel_err(got_i, scipy_linalg.expm_frechet(a_i.conj().T, g_i, compute_expm=False)) <= 1e-12

    def test_one_non_skew_slice_raises(self):
        a, g = self.stack(4, 3, seed=420)
        a[1] = skew_with_spectrum([0.3, -1.2, 0.7, 2.5], seed=420)
        assert not np.array_equal(a[1], -a[1].conj().T)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp(a, basis=True)
        with pytest.raises(ValueError, match="a == -a\\^H"):
            matexp_vjp(a, g)

    @pytest.mark.parametrize("where", ["a", "g"])
    def test_one_non_finite_slice_raises(self, where):
        a, g = self.stack(4, 3, seed=430)
        _, basis = matexp(a, basis=True)
        if where == "a":
            a[2, 1, 1] = complex(0.0, np.inf)  # still a == -a^H bitwise
            assert np.array_equal(a, -a.conj().swapaxes(-1, -2))
            with pytest.raises(ValueError, match="finite"):
                matexp(a)
        else:
            g[2, 0, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            matexp_vjp(a, g, basis)

    def test_mismatched_cotangent_stack_raises(self):
        a, g = self.stack(4, 3, seed=440)
        for bad in (g[:2], g[0], g[:, :3, :3]):
            with pytest.raises(ValueError, match="match|square"):
                matexp_vjp(a, bad)

    def test_more_than_one_stack_axis_raises(self):
        a, _ = self.stack(2, 4, seed=450)
        with pytest.raises(ValueError, match="square"):
            matexp(a.reshape(2, 2, 2, 2))


class TestUnitarityError:
    def test_identity_is_exact(self):
        assert unitarity_error(np.eye(4)) == 0.0

    def test_scaled_identity(self):
        assert unitarity_error(2.0 * np.eye(2)) == pytest.approx(3.0)

    def test_exponential_of_skew_hermitian(self):
        rng = np.random.default_rng(16)
        a = random_skew_hermitian(16, rng)
        assert unitarity_error(matexp(a)) <= 1e-6

    def test_require_unitary_raises_on_failure(self):
        with pytest.raises(ValueError, match="unitarity"):
            require_unitary(2.0 * np.eye(2))


class TestRandomUnitary:
    def test_scalar_case_has_unit_modulus(self):
        u = random_unitary(1, seed=5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-10

    def test_unitary_at_seed_zero(self):
        assert unitarity_error(random_unitary(4, seed=0)) <= 1e-6

    def test_deterministic_for_fixed_seed(self):
        a = random_unitary(6, seed=123)
        b = random_unitary(6, seed=123)
        assert np.array_equal(a, b)
        c = random_unitary(6, seed=124)
        assert not np.allclose(a, c)

    def test_rejects_non_positive_dimension(self):
        with pytest.raises(ValueError):
            random_unitary(0, seed=1)
