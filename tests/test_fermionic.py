import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.stats import ortho_group

import glme
from glme import _util, bosonic, fermionic, oracle
from glme.errors import BoundaryError, PositivityError, StabilityError, StructuralError

from conftest import (
    fermionic_decay_model,
    random_fermionic_model,
    random_hermitian_psd,
    random_physical_sigma,
    random_stable_fermionic,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestBuildDriftDiffusion:
    def test_single_mode_decay_closed_form(self):
        gamma = 0.5
        dd = fermionic.build_drift_diffusion(fermionic_decay_model(gamma=gamma))
        np.testing.assert_allclose(dd.x, -(gamma / 2.0) * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(dd.y, gamma * J, atol=1e-15)

    def test_zero_decoherence(self):
        g = np.array([[0.0, -1.3], [1.3, 0.0]])
        m = glme.GeneralizedLindbladModel(
            "fermionic", 1, g, np.zeros((1, 2), dtype=complex), np.zeros((1, 1), dtype=complex)
        )
        dd = fermionic.build_drift_diffusion(m)
        np.testing.assert_allclose(dd.x, g)
        np.testing.assert_allclose(dd.y, np.zeros((2, 2)))

    def test_standard_form_cross_path(self, rng):
        for _ in range(10):
            n_modes = int(rng.integers(1, 4))
            rates = rng.uniform(0.1, 1.0, size=3)
            f = rng.standard_normal((3, 2 * n_modes)) + 1j * rng.standard_normal((3, 2 * n_modes))
            g = rng.standard_normal((2 * n_modes, 2 * n_modes))
            g = 0.5 * (g - g.T)
            m = glme.GeneralizedLindbladModel(
                "fermionic", n_modes, g, f, np.diag(rates).astype(complex)
            )
            dd = fermionic.build_drift_diffusion(m)
            c = np.diag(np.sqrt(rates)) @ f
            x_ref = g - (c.conj().T @ c).real
            y_ref = -2.0 * (c.conj().T @ c).imag
            assert np.max(np.abs(dd.x - x_ref)) <= 1e-12
            assert np.max(np.abs(dd.y - y_ref)) <= 1e-12

    def test_non_hermitian_gamma_rejected(self):
        m = glme.GeneralizedLindbladModel(
            "fermionic", 1, np.zeros((2, 2)),
            np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
            np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
        )
        with pytest.raises(PositivityError):
            fermionic.build_drift_diffusion(m)

    def test_gamma_inside_validation_slack_builds_in_both_flavors(self, rng):
        # a Hermitian defect of 1e-11 passes validation, so neither builder may refuse it
        f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gamma = random_hermitian_psd(rng, 2) + 1e-11 * J
        bosonic.build_drift_diffusion(
            glme.GeneralizedLindbladModel("bosonic", 1, np.zeros((2, 2)), f, gamma))
        dd = fermionic.build_drift_diffusion(
            glme.GeneralizedLindbladModel("fermionic", 1, np.zeros((2, 2)), f, gamma))
        assert np.array_equal(dd.y, -dd.y.T)

    def test_y_exactly_antisymmetric_for_hermitian_gamma(self, rng):
        for _ in range(10):
            m = random_fermionic_model(rng, int(rng.integers(1, 4)))
            dd = fermionic.build_drift_diffusion(m)
            assert np.max(np.abs(dd.y + dd.y.T)) <= 1e-14


class TestPropagation:
    def test_single_mode_relaxation_closed_form(self):
        gamma = 0.7
        dd = fermionic.build_drift_diffusion(fermionic_decay_model(gamma=gamma))
        times = np.linspace(0.0, 6.0, 13)
        states = fermionic.propagate_covariance(dd, np.zeros((2, 2)), times)
        for t, state in zip(times, states):
            assert state.sigma[0, 1] == pytest.approx(1.0 - np.exp(-gamma * t), abs=1e-12)

    def test_closed_dynamics_preserves_spectrum(self, rng):
        g = rng.standard_normal((6, 6))
        g = 0.5 * (g - g.T)
        dd = fermionic.FermionicDriftDiffusion(x=g, y=np.zeros((6, 6)))
        sigma0 = random_physical_sigma(rng, 3)
        states = fermionic.propagate_covariance(dd, sigma0, np.linspace(0.0, 3.0, 7))
        ref = np.sort(fermionic.mode_spectrum(sigma0))
        for state in states:
            lams = np.sort(fermionic.mode_spectrum(state.sigma))
            assert np.max(np.abs(lams - ref)) <= 1e-10

    def test_exact_vs_rk4(self, rng):
        times = np.linspace(0.0, 5.0, 501)
        for _ in range(4):
            n_modes = int(rng.integers(1, 5))
            _, dd = random_stable_fermionic(rng, n_modes, norm_cap=1.0)
            sigma0 = random_physical_sigma(rng, n_modes)
            exact = fermionic.propagate_covariance(dd, sigma0, times, method="exact")
            rk4 = fermionic.propagate_covariance(dd, sigma0, times, method="rk4")
            dev = max(np.max(np.abs(a.sigma - b.sigma)) for a, b in zip(exact, rk4))
            assert dev <= 1e-8

    def test_antisymmetry_and_positivity_preserved(self, rng):
        times = np.linspace(0.0, 4.0, 21)
        for _ in range(10):
            n_modes = int(rng.integers(1, 4))
            m = random_fermionic_model(rng, n_modes)
            dd = fermionic.build_drift_diffusion(m)
            sigma0 = random_physical_sigma(rng, n_modes)
            states = fermionic.propagate_covariance(dd, sigma0, times)
            for state in states:
                assert np.max(np.abs(state.sigma + state.sigma.T)) <= 1e-10
                ok, max_lam = fermionic.check_physicality(state.sigma)
                assert max_lam <= 1.0 + 1e-8

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_propagated_trajectory_equals_checked_construction(self, rng, method):
        # propagate_covariance wraps its stack unchecked; the checks would store the same bits
        _, dd = random_stable_fermionic(rng, 3)
        times = [0.0, 0.05, 0.5, 2.0, 2.1]
        traj = fermionic.propagate_covariance(dd, random_physical_sigma(rng, 3), times, method=method)
        checked = bosonic.Trajectory(times, traj.covs)
        assert traj.means is None and checked.means is None
        for name in ("times", "covs"):
            got, expected = getattr(traj, name), getattr(checked, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_trajectory_rejected(self):
        dd = fermionic.FermionicDriftDiffusion(x=50.0 * np.eye(2), y=np.zeros((2, 2)))
        with pytest.raises(StructuralError, match="non-finite"):
            fermionic.propagate_covariance(dd, 0.5 * J, [0.0, 5.0, 10.0])

    def test_spectral_pairing(self, rng):
        sigma = random_physical_sigma(rng, 4)
        eigs = np.linalg.eigvals(sigma)
        sorted_imag = np.sort(eigs.imag)
        assert np.max(np.abs(sorted_imag + sorted_imag[::-1])) <= 1e-10
        assert np.max(np.abs(eigs.real)) <= 1e-10


class TestSteadyState:
    def test_single_mode_decay_reaches_vacuum(self):
        dd = fermionic.build_drift_diffusion(fermionic_decay_model(gamma=0.5))
        state = fermionic.steady_state(dd)
        np.testing.assert_allclose(state.sigma, J, atol=1e-12)

    def test_zero_drift_rejected(self):
        dd = fermionic.FermionicDriftDiffusion(x=np.zeros((2, 2)), y=np.zeros((2, 2)))
        with pytest.raises(StabilityError):
            fermionic.steady_state(dd)

    def test_random_model_residual_and_convergence(self, rng):
        _, dd = random_stable_fermionic(rng, 3)
        state = fermionic.steady_state(dd)
        residual = np.max(np.abs(dd.x @ state.sigma + state.sigma @ dd.x.T + dd.y))
        assert residual <= 1e-10
        _, abscissa = fermionic.is_hurwitz(dd)
        t_long = 20.0 / abs(abscissa)
        final = fermionic.propagate_covariance(dd, np.zeros_like(dd.x), [0.0, t_long])[-1]
        assert np.max(np.abs(final.sigma - state.sigma)) <= 1e-8


class TestPhysicalityAndPurity:
    def test_stacked_matches_per_state_loop(self, rng):
        _, dd = random_stable_fermionic(rng, 2)
        traj = fermionic.propagate_covariance(dd, random_physical_sigma(rng, 2),
                                              np.linspace(0.0, 3.0, 101))
        assert traj.means is None
        assert all(isinstance(s, fermionic.FermionicGaussianState) for s in traj)
        ok, max_lam = fermionic.check_physicality(traj.covs)
        assert max_lam == max(fermionic.check_physicality(s)[1] for s in traj.covs)
        assert ok
        assert not fermionic.check_physicality(np.stack([J, 1.5 * J]))[0]

    def test_mode_spectrum_matches_general_eigenvalues(self, rng):
        # reference: the general eigvals path, imaginary parts paired by sorted magnitude
        sigmas = [random_physical_sigma(rng, n) for n in range(1, 6)]
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sigmas.append(q @ np.kron(np.eye(3), 0.6 * J) @ q.T)   # threefold degenerate
        for sigma in sigmas:
            sigma = 0.5 * (sigma - sigma.T)
            lams = np.sort(np.abs(np.linalg.eigvals(sigma).imag))[::-1]
            expect = 0.5 * (lams[0::2] + lams[1::2])
            assert np.max(np.abs(fermionic.mode_spectrum(sigma) - expect)) <= 1e-12

    def test_vacuum_is_pure_boundary(self):
        ok, max_lam = fermionic.check_physicality(J)
        assert ok
        assert max_lam == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        ok, max_lam = fermionic.check_physicality(np.zeros((2, 2)))
        assert ok
        assert max_lam == 0.0

    def test_overfilled_unphysical(self):
        ok, max_lam = fermionic.check_physicality(1.5 * J)
        assert not ok
        assert max_lam == pytest.approx(1.5, abs=1e-14)

    def test_physicality_matches_general_eigenvalues(self, rng):
        for n_modes in (1, 3, 20):
            for scale in (0.5, 1.0, 1.7):
                sigma = scale * random_physical_sigma(rng, n_modes)
                _, max_lam = fermionic.check_physicality(sigma)
                reference = np.max(np.abs(np.linalg.eigvals(sigma).imag))
                assert abs(max_lam - reference) <= 1e-13 * max(1.0, reference)

    def test_purity_values(self):
        assert fermionic.purity(J) == pytest.approx(1.0)
        for n_modes in (1, 2, 3):
            sigma = np.zeros((2 * n_modes, 2 * n_modes))
            assert fermionic.purity(sigma) == pytest.approx(0.5 ** n_modes)

    def test_purity_matches_dense_oracle(self, rng):
        for n_modes in (1, 2, 3):
            sigma = random_physical_sigma(rng, n_modes, lam_max=0.9)
            kernel = fermionic.covariance_to_gibbs(sigma)
            rho = oracle.fermionic_gibbs_state(kernel, n_modes)
            tr_sq = float(np.trace(rho @ rho).real)
            assert fermionic.purity(sigma) == pytest.approx(tr_sq, abs=1e-8)


class TestGibbsMapping:
    def test_zero_kernel_is_maximally_mixed(self):
        state = fermionic.gibbs_to_covariance(np.zeros((4, 4)))
        np.testing.assert_allclose(state.sigma, np.zeros((4, 4)))

    def test_closed_form(self, rng):
        kappa = 2.0 * np.arctanh(0.5)
        state = fermionic.gibbs_to_covariance(kappa * J)
        assert state.sigma[0, 1] == pytest.approx(0.5, abs=1e-14)
        # a degenerate pair and a nearly maximally mixed mode, in a rotated basis
        lam = 0.7
        q = ortho_group.rvs(6, random_state=rng)
        sigma = q @ block_diag(lam * J, lam * J, 1e-13 * J) @ q.T
        kappa = 2.0 * np.arctanh(lam)
        expected = q @ block_diag(kappa * J, kappa * J, 2.0 * np.arctanh(1e-13) * J) @ q.T
        kernel = fermionic.covariance_to_gibbs(sigma)
        assert np.max(np.abs(kernel.k - expected)) <= 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            fermionic.covariance_to_gibbs(J)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    def test_round_trip(self, seed, n_modes):
        rng = np.random.default_rng(seed)
        sigma = random_physical_sigma(rng, n_modes, lam_max=0.95)
        kernel = fermionic.covariance_to_gibbs(sigma)
        back = fermionic.gibbs_to_covariance(kernel)
        assert np.max(np.abs(back.sigma - sigma)) <= 1e-10

    def test_dense_state_matches_covariance(self, rng):
        sigma = random_physical_sigma(rng, 2, lam_max=0.8)
        kernel = fermionic.covariance_to_gibbs(sigma)
        rho = oracle.fermionic_gibbs_state(kernel, 2)
        engine_w = oracle.jordan_wigner_majoranas(2)
        measured = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                comm = engine_w[i] @ engine_w[j] - engine_w[j] @ engine_w[i]
                val = (1j * np.trace(comm @ rho)).real
                measured[i, j] = val
                measured[j, i] = -val
        assert np.max(np.abs(measured - sigma)) <= 1e-10


class TestStructure:
    def test_state_requires_antisymmetry(self):
        with pytest.raises(StructuralError):
            fermionic.FermionicGaussianState(np.eye(2))

    # Each way in to an antisymmetric matrix, returning what it stores.
    antisymmetric_inputs = {
        "state": lambda m: fermionic.FermionicGaussianState(m).sigma,
        "drift_diffusion": lambda m: fermionic.FermionicDriftDiffusion(x=np.eye(2), y=m).y,
        "gibbs_kernel": lambda m: fermionic.GibbsKernel(m).k,
        "free_check": lambda m: _util.exact_part(m, "m", antisymmetric=True),
        "trajectory": lambda m: bosonic.Trajectory([0.0, 1.0], np.stack([m, m])).covs[1],
    }

    @pytest.mark.parametrize("store", list(antisymmetric_inputs))
    def test_one_antisymmetry_bound_and_exact_storage(self, store):
        store = self.antisymmetric_inputs[store]
        J = np.array([[0.0, 0.3], [-0.3, 0.0]])
        stored = store(J + 2e-11 * np.ones((2, 2)))
        assert np.array_equal(stored + stored.T, np.zeros((2, 2)))
        assert np.max(np.abs(stored - J)) <= 1e-15
        with pytest.raises(StructuralError, match="antisymmetric"):
            store(J + 1e-6 * np.ones((2, 2)))

    @pytest.mark.parametrize("build", ["checked", "steady_state", "trajectory"])
    def test_states_read_only(self, build):
        # an in-place edit that broke antisymmetry would reach the writers' mirror
        sigma = np.array([[0.0, 0.4], [-0.4, 0.0]])
        if build == "checked":
            state = fermionic.FermionicGaussianState(sigma)
        elif build == "steady_state":
            state = fermionic.steady_state(fermionic.build_drift_diffusion(fermionic_decay_model()))
        else:
            state = bosonic.Trajectory([0.0], sigma[None]).states[0]
        with pytest.raises(ValueError):
            state.sigma[1, 0] = -0.3
        assert sigma.flags.writeable

    def test_flavor_mismatch_rejected(self):
        from conftest import damped_oscillator_model

        with pytest.raises(StructuralError):
            fermionic.build_drift_diffusion(damped_oscillator_model())
