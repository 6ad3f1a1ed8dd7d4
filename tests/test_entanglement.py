import numpy as np
import pytest

from glme import bosonic, entanglement, fermionic, model, oracle
from glme.errors import StructuralError

from conftest import (
    bell_pair_sigma,
    near_dark_pair_model,
    random_physical_sigma,
    random_physical_v,
    tmsv_cov,
)


def rotation(theta):
    return np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])


@pytest.mark.parametrize("measure", [entanglement.duan_bosonic, entanglement.log_negativity_bosonic])
def test_bosonic_measures_read_the_symmetric_part(measure):
    # a one-sided Cov(q1, q2) read from either triangle alone gives another state's verdict
    v = np.eye(4)
    v[0, 2] = 0.9
    with pytest.raises(StructuralError, match="symmetric"):
        measure(v)
    inside = tmsv_cov(0.3)
    inside[0, 2] += 2e-11
    assert measure(inside) == measure(0.5 * (inside + inside.T))


class TestDuanBosonic:
    def test_vacuum_sits_on_the_bound(self):
        state = bosonic.GaussianState(np.zeros(4), np.eye(4))
        result = entanglement.duan_bosonic(state, alpha=1.0, beta=1.0)
        assert result.quantity == pytest.approx(2.0)
        assert result.bound == pytest.approx(2.0)
        assert not result.entangled_flag

    @pytest.mark.parametrize("r", [0.1, 0.4, 0.9])
    def test_two_mode_squeezing_closed_form(self, r):
        state = bosonic.GaussianState(np.zeros(4), tmsv_cov(r))
        result = entanglement.duan_bosonic(state, alpha=1.0, beta=-1.0)
        assert result.quantity == pytest.approx(2.0 * np.exp(-2.0 * r), rel=1e-12)
        assert result.entangled_flag

    @pytest.mark.parametrize("r", [0.5, -0.5])
    def test_each_pairing_detects_one_correlation_sign(self, r):
        state = bosonic.GaussianState(np.zeros(4), tmsv_cov(r))
        minus = entanglement.duan_bosonic(state, alpha=1.0, beta=-1.0)
        plus = entanglement.duan_bosonic(state, alpha=1.0, beta=1.0)
        low, high = 2.0 * np.exp(-2.0 * abs(r)), 2.0 * np.exp(2.0 * abs(r))
        detecting, other = (minus, plus) if r > 0 else (plus, minus)
        assert detecting.quantity == pytest.approx(low, rel=1e-12)
        assert other.quantity == pytest.approx(high, rel=1e-12)
        assert detecting.entangled_flag and not other.entangled_flag

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.7, -1.2)])
    def test_thermal_product_never_flags(self, alpha, beta):
        nbar = 0.8
        v = (2.0 * nbar + 1.0) * np.eye(4)
        result = entanglement.duan_bosonic(bosonic.GaussianState(np.zeros(4), v), alpha, beta)
        expected = (alpha ** 2 + beta ** 2) * (2.0 * nbar + 1.0)
        assert result.quantity == pytest.approx(expected, rel=1e-12)
        assert result.quantity >= result.bound
        assert not result.entangled_flag

    def test_wrong_mode_count_rejected(self):
        with pytest.raises(StructuralError):
            entanglement.duan_bosonic(bosonic.GaussianState(np.zeros(2), np.eye(2)))

    def test_invariance_under_counter_rotations(self, rng):
        # rotating mode 1 by theta and mode 2 by -theta mixes the collective
        # quadrature pair into itself, so the total variance cannot change
        for _ in range(10):
            v = random_physical_v(rng, 2)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            s = np.zeros((4, 4))
            s[:2, :2] = rotation(theta)
            s[2:, 2:] = rotation(-theta)
            rotated = s @ v @ s.T
            q0 = entanglement.duan_bosonic(bosonic.GaussianState(np.zeros(4), v), 1.0, 1.0)
            q1 = entanglement.duan_bosonic(bosonic.GaussianState(np.zeros(4), rotated), 1.0, 1.0)
            assert q1.quantity == pytest.approx(q0.quantity, rel=1e-10)


class TestLogNegativityBosonic:
    def test_vacuum(self):
        result = entanglement.log_negativity_bosonic(np.eye(4))
        assert result.value == 0.0
        assert result.auxiliary_spectrum[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 1.0])
    def test_two_mode_squeezing_closed_form(self, r):
        result = entanglement.log_negativity_bosonic(tmsv_cov(r))
        assert result.auxiliary_spectrum[0] == pytest.approx(np.exp(-2.0 * r), rel=1e-12)
        assert result.value == pytest.approx(2.0 * r, rel=1e-12)

    def test_product_states_have_zero_negativity(self, rng):
        for _ in range(20):
            v = np.zeros((4, 4))
            v[:2, :2] = random_physical_v(rng, 1)
            v[2:, 2:] = random_physical_v(rng, 1)
            result = entanglement.log_negativity_bosonic(v)
            assert result.value == 0.0
            assert result.auxiliary_spectrum[0] >= 1.0 - 1e-12

    def test_near_dark_steady_state(self):
        # ||V|| ~ 5e6: a block-determinant formula cancels here
        dd = bosonic.build_drift_diffusion(near_dark_pair_model(1e-8))
        v = bosonic.steady_state(dd).v
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        eta = np.min(np.abs(np.linalg.eigvals(1j * model.symplectic_form(2) @ flip @ v @ flip)))
        result = entanglement.log_negativity_bosonic(v)
        assert result.auxiliary_spectrum[0] == pytest.approx(eta, rel=1e-8)
        assert result.value == max(0.0, -np.log(eta))

    def test_monotone_in_squeezing(self):
        rs = np.linspace(0.0, 2.0, 21)
        values = [entanglement.log_negativity_bosonic(tmsv_cov(r)).value for r in rs]
        assert np.all(np.diff(values) > 0.0)

    def test_matches_dense_fock_oracle(self):
        for r in (0.2, 0.35, 0.5):
            rho = oracle.fock_tmsv(r, 16)
            dense = oracle.dense_negativity_bosonic(rho, (16, 16))
            analytic = entanglement.log_negativity_bosonic(tmsv_cov(r)).value
            assert analytic == pytest.approx(dense, abs=1e-3)

    def test_thermal_product_dense_zero(self):
        rho = np.kron(oracle.fock_thermal(0.3, 10), oracle.fock_thermal(0.6, 10))
        assert oracle.dense_negativity_bosonic(rho, (10, 10)) == pytest.approx(0.0, abs=1e-12)


class TestSigmaCross:
    def test_maximally_mixed_gives_zeros(self):
        spectrum = entanglement.sigma_cross(np.zeros((4, 4)))
        np.testing.assert_allclose(spectrum, np.zeros(4), atol=1e-14)

    @pytest.mark.parametrize("lam1, lam2", [(0.6, 0.3), (0.5, 0.5)])
    def test_product_state_block_structure(self, rng, lam1, lam2):
        sigma = np.zeros((4, 4))
        sigma[0, 1], sigma[1, 0] = lam1, -lam1
        sigma[2, 3], sigma[3, 2] = lam2, -lam2
        # a mode-local orthogonal change of basis, improper on mode 1, keeps the spectrum
        local = np.zeros((4, 4))
        local[:2, :2] = rotation(rng.uniform(0.0, 2.0 * np.pi)) @ np.diag([1.0, -1.0])
        local[2:, 2:] = rotation(rng.uniform(0.0, 2.0 * np.pi))
        spectrum = entanglement.sigma_cross(local @ sigma @ local.T)
        mags = np.sort(np.abs(spectrum.imag))
        expected = np.sort([2 * lam1 / (1 + lam1 ** 2)] * 2 + [2 * lam2 / (1 + lam2 ** 2)] * 2)
        np.testing.assert_allclose(np.sort(mags), expected, atol=1e-12)

    def test_bell_pair_matches_dense_oracle(self):
        sigma = bell_pair_sigma()
        value = entanglement.log_negativity_fermionic(sigma).value
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        dense = oracle.dense_negativity_fermionic(np.outer(psi, psi.conj()))
        assert value == pytest.approx(dense, abs=1e-8)


class TestLogNegativityFermionic:
    def test_product_of_pure_modes_is_zero(self):
        sigma = np.zeros((4, 4))
        sigma[0, 1], sigma[1, 0] = 1.0, -1.0
        sigma[2, 3], sigma[3, 2] = 1.0, -1.0
        assert entanglement.log_negativity_fermionic(sigma).value == pytest.approx(0.0, abs=1e-7)

    def test_bell_pair_value(self):
        assert entanglement.log_negativity_fermionic(bell_pair_sigma()).value == pytest.approx(
            np.log(2.0), abs=1e-8
        )

    def test_maximally_mixed_is_zero(self):
        assert entanglement.log_negativity_fermionic(np.zeros((4, 4))).value == pytest.approx(
            0.0, abs=1e-14
        )

    def test_matches_dense_oracle_on_random_states(self, rng):
        for _ in range(40):
            sigma = random_physical_sigma(rng, 2, lam_max=0.95)
            value = entanglement.log_negativity_fermionic(sigma).value
            kernel = fermionic.covariance_to_gibbs(sigma)
            rho = oracle.fermionic_gibbs_state(kernel, 2)
            dense = oracle.dense_negativity_fermionic(rho)
            assert value == pytest.approx(dense, abs=1e-6)

    def test_pure_states_give_reduced_renyi_half_entropy(self, rng):
        # for a pure state the log negativity is the Renyi-1/2 entropy of one mode,
        # whose magnitude nu is that of the mode's own 2 x 2 block
        core = np.zeros((4, 4))
        core[0, 1] = core[2, 3] = 1.0
        core -= core.T
        for _ in range(200):
            q, r = np.linalg.qr(rng.standard_normal((4, 4)))
            q *= np.sign(np.diag(r))
            sigma = q @ core @ q.T
            nu = abs(sigma[0, 1])
            expected = 2.0 * np.log(np.sqrt((1.0 + nu) / 2.0) + np.sqrt((1.0 - nu) / 2.0))
            value = entanglement.log_negativity_fermionic(sigma).value
            assert abs(value - expected) <= 1e-12

    def test_purity_path_consistency(self, rng):
        sigma = random_physical_sigma(rng, 2, lam_max=0.9)
        lams = fermionic.mode_spectrum(sigma)
        assert fermionic.purity(sigma) == pytest.approx(float(np.prod((1 + lams ** 2) / 2)))


class TestDuanFermionic:
    def test_identity_for_any_physical_state(self, rng):
        for _ in range(20):
            sigma = random_physical_sigma(rng, 2)
            result = entanglement.duan_fermionic(sigma, alpha=1.0, beta=1.0)
            assert result.quantity == pytest.approx(2.0, abs=1e-12)
            assert not result.entangled_flag

    def test_single_coefficient_reduction(self):
        result = entanglement.duan_fermionic(np.zeros((4, 4)), alpha=2.0, beta=0.0)
        assert result.quantity == pytest.approx(4.0)
        assert result.bound == pytest.approx(4.0)

    def test_dense_variance_oracle(self, rng):
        # the collective-Majorana variances really are state independent
        alpha, beta = 0.8, -1.3
        sigma = random_physical_sigma(rng, 2, lam_max=0.8)
        kernel = fermionic.covariance_to_gibbs(sigma)
        rho = oracle.fermionic_gibbs_state(kernel, 2)
        w = oracle.jordan_wigner_majoranas(2)
        u = alpha * w[0] + beta * w[2]
        v = alpha * w[1] - beta * w[3]
        var = 0.0
        for op in (u, v):
            mean = np.trace(op @ rho).real
            var += np.trace(op @ op @ rho).real - mean ** 2
        result = entanglement.duan_fermionic(sigma, alpha, beta)
        assert result.quantity == pytest.approx(var, abs=1e-12)
