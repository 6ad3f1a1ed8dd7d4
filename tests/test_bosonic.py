import numpy as np
import pytest
from scipy.linalg import expm

import glme
from glme import bosonic, lyapunov, model, oracle
from glme.errors import (
    DomainError,
    PositivityError,
    StabilityError,
    StructuralError,
)

from conftest import (
    collective_decay_model,
    damped_oscillator_model,
    near_dark_pair_model,
    random_bosonic_model,
    random_physical_v,
    random_stable_bosonic,
)


def _count_expm(monkeypatch) -> list[int]:
    """Stack sizes of the calls through ``lyapunov.expm``, recorded as they happen."""
    calls = []
    kernel = lyapunov.expm
    monkeypatch.setattr(lyapunov, "expm", lambda m: calls.append(m.shape[0]) or kernel(m))
    return calls


class TestBuildDriftDiffusion:
    def test_damped_oscillator_closed_form(self):
        m = damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.0)
        dd = bosonic.build_drift_diffusion(m)
        np.testing.assert_allclose(dd.a, [[-0.25, 2.0], [-2.0, -0.25]], atol=1e-14)
        np.testing.assert_allclose(dd.d, 0.5 * np.eye(2), atol=1e-14)

    def test_zero_decoherence_is_closed_dynamics(self):
        h = np.array([[1.0, 0.3], [0.3, 2.0]])
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, h, np.zeros((1, 2), dtype=complex), np.zeros((1, 1), dtype=complex)
        )
        dd = bosonic.build_drift_diffusion(m)
        np.testing.assert_allclose(dd.a, model.symplectic_form(1) @ h, atol=1e-15)
        np.testing.assert_allclose(dd.d, np.zeros((2, 2)), atol=1e-15)

    def test_non_hermitian_gamma_mentions_split(self):
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, np.eye(2),
            model.ladder_to_canonical(np.eye(2, dtype=complex), "bosonic"),
            np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
        )
        with pytest.raises(PositivityError, match="split_non_hermitian"):
            bosonic.build_drift_diffusion(m)

    def test_indefinite_gamma_rejected(self):
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, np.eye(2),
            model.ladder_to_canonical(np.eye(2, dtype=complex), "bosonic"),
            np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex),
        )
        with pytest.raises(PositivityError):
            bosonic.build_drift_diffusion(m)

    def test_diffusion_checked_although_gamma_validated(self):
        # Gamma's eigenvalue -1e-11 is inside the validation slack; F scales it to -2e-5 in D
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, np.eye(2), np.diag([1.0, 1e3]).astype(complex),
            np.diag([1.0, -1e-11]).astype(complex),
        )
        assert model.validate_model(m).is_valid
        with pytest.raises(PositivityError, match="diffusion matrix has negative eigenvalue -2.000e-05"):
            bosonic.build_drift_diffusion(m)

    def test_asymmetric_hamiltonian_rejected(self):
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, np.array([[1.0, 0.5], [0.0, 1.0]]),
            model.ladder_to_canonical(np.eye(2, dtype=complex), "bosonic"),
            np.eye(2, dtype=complex),
        )
        with pytest.raises(StructuralError, match="symmetric"):
            bosonic.build_drift_diffusion(m)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_drift_rejected(self):
        # F^dag Gamma^T F overflows although every model entry is finite
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, np.eye(2), np.array([[1e160, 1e160j]]), np.eye(1, dtype=complex)
        )
        with pytest.raises(StructuralError, match="non-finite"):
            bosonic.build_drift_diffusion(m)

    def test_standard_form_known_formulas(self, rng):
        # diagonal decoherence must match the C = sqrt(Gamma) F expressions
        for _ in range(10):
            n_modes = int(rng.integers(1, 3))
            rates = rng.uniform(0.1, 1.0, size=3)
            f = rng.standard_normal((3, 2 * n_modes)) + 1j * rng.standard_normal((3, 2 * n_modes))
            h = rng.standard_normal((2 * n_modes, 2 * n_modes))
            h = 0.5 * (h + h.T)
            m = glme.GeneralizedLindbladModel(
                "bosonic", n_modes, h, f, np.diag(rates).astype(complex)
            )
            dd = bosonic.build_drift_diffusion(m)
            c = np.diag(np.sqrt(rates)) @ f
            omega = model.symplectic_form(n_modes)
            a_ref = omega @ (h + (c.conj().T @ c).imag)
            d_ref = 2.0 * omega @ (c.conj().T @ c).real @ omega.T
            assert np.max(np.abs(dd.a - a_ref)) <= 1e-12
            assert np.max(np.abs(dd.d - d_ref)) <= 1e-12


class TestPropagatedMean:
    def test_zero_time_identity(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        traj = bosonic.propagate_covariance(dd, np.eye(2), [0.0], mean0=[0.3, -0.2])
        np.testing.assert_allclose(traj.means[0], [0.3, -0.2])

    def test_quarter_rotation(self):
        dd = bosonic.BosonicDriftDiffusion(
            a=(np.pi / 2) * model.symplectic_form(1), d=np.zeros((2, 2))
        )
        traj = bosonic.propagate_covariance(dd, np.eye(2), [0.0, 1.0], mean0=[1.0, 0.0])
        np.testing.assert_allclose(traj.means[1], [0.0, -1.0], atol=1e-15)

    def test_damping_factor(self):
        gamma = 0.8
        dd = bosonic.build_drift_diffusion(damped_oscillator_model(gamma=gamma, omega=1.3))
        mean0 = np.array([1.0, 0.5])
        times = [0.0, 0.5, 1.0, 2.5]
        traj = bosonic.propagate_covariance(dd, np.eye(2), times, mean0=mean0)
        for t, mean_t in zip(times[1:], traj.means[1:]):
            assert np.linalg.norm(mean_t) == pytest.approx(
                np.exp(-gamma * t / 2.0) * np.linalg.norm(mean0), rel=1e-12
            )


class TestPropagateCovariance:
    def test_rotation_preserves_determinant(self):
        dd = bosonic.BosonicDriftDiffusion(a=1.1 * model.symplectic_form(1), d=np.zeros((2, 2)))
        v0 = np.diag([2.0, 0.7])
        traj = bosonic.propagate_covariance(dd, v0, np.linspace(0, 3, 7), method="exact")
        for state in traj.states:
            assert np.linalg.det(state.v) == pytest.approx(np.linalg.det(v0), rel=1e-12)
            e = state.v  # rotated covariance stays symmetric
            assert np.max(np.abs(e - e.T)) <= 1e-12

    def test_damped_closed_form(self):
        gamma = 0.5
        m = damped_oscillator_model(gamma=gamma, omega=2.0, nbar=0.0)
        dd = bosonic.build_drift_diffusion(m)
        times = np.linspace(0, 4, 9)
        traj = bosonic.propagate_covariance(dd, 3.0 * np.eye(2), times)
        for t, state in zip(times, traj.states):
            expected = (1.0 + 2.0 * np.exp(-gamma * t)) * np.eye(2)
            assert np.max(np.abs(state.v - expected)) <= 1e-12

    def test_exact_vs_rk4(self, rng):
        times = np.linspace(0.0, 5.0, 501)
        for _ in range(5):
            n_modes = int(rng.integers(1, 3))
            _, dd = random_stable_bosonic(rng, n_modes, norm_cap=1.0)
            v0 = random_physical_v(rng, n_modes)
            exact = bosonic.propagate_covariance(dd, v0, times, method="exact")
            rk4 = bosonic.propagate_covariance(dd, v0, times, method="rk4")
            dev = max(np.max(np.abs(a.v - b.v)) for a, b in zip(exact.states, rk4.states))
            assert dev <= 1e-8

    def test_non_hurwitz_quadrature_path(self):
        dd = bosonic.BosonicDriftDiffusion(a=1.3 * model.symplectic_form(1), d=0.4 * np.eye(2))
        times = np.linspace(0, 3, 13)
        exact = bosonic.propagate_covariance(dd, np.eye(2), times, method="exact")
        rk4 = bosonic.propagate_covariance(dd, np.eye(2), times, method="rk4", rk4_substeps=400)
        dev = max(np.max(np.abs(a.v - b.v)) for a, b in zip(exact.states, rk4.states))
        assert dev <= 1e-9

    def test_mean_evolves_alongside(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        traj = bosonic.propagate_covariance(dd, np.eye(2), [0.0, 1.0], mean0=[1.0, 0.0])
        np.testing.assert_allclose(
            traj.states[1].mean, expm(dd.a * 1.0) @ [1.0, 0.0], atol=1e-14
        )

    def test_mean_matches_expm_on_nonuniform_grid(self, rng):
        n = 40
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        a -= (lyapunov.spectral_abscissa(a) + 0.2) * np.eye(n)
        dd = bosonic.BosonicDriftDiffusion(a=a, d=np.eye(n))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.005, 0.05, size=200))])
        mean0 = rng.standard_normal(n)
        exact = bosonic.propagate_covariance(dd, np.eye(n), times, mean0=mean0)
        rk4 = bosonic.propagate_covariance(dd, np.eye(n), times, method="rk4", mean0=mean0,
                                           rk4_substeps=4)
        for t, a_state, b_state in zip(times, exact.states, rk4.states):
            expected = expm(dd.a * t) @ mean0
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(a_state.mean - expected)) <= 1e-12 * scale
            assert np.max(np.abs(b_state.mean - expected)) <= 1e-8 * scale

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rate, mean0", [(50.0, None), (50.0, [1.0, 1.0]), (1.0, [1e305, 0.0])])
    def test_overflowing_trajectory_rejected(self, rate, mean0):
        # a covariance (or a mean) that overflows past the first state
        dd = bosonic.BosonicDriftDiffusion(a=rate * np.eye(2), d=np.eye(2))
        with pytest.raises(StructuralError, match="non-finite"):
            bosonic.propagate_covariance(dd, np.eye(2), [0.0, 5.0, 10.0], mean0=mean0)

    def test_decreasing_times_rejected(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        with pytest.raises(StructuralError):
            bosonic.propagate_covariance(dd, np.eye(2), [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("times", [[np.inf], [0.0, np.nan], [-np.inf, 0.0], [0.0, 1.0, np.inf]])
    def test_non_finite_times_rejected(self, times):
        # [inf] alone used to pass, and the JSON writer then wrote "times": [inf]
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        with pytest.raises(StructuralError, match="times must be finite"):
            bosonic.propagate_covariance(dd, np.eye(2), times)

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_near_dark_pair_matches_rk4(self, eps):
        dd = bosonic.build_drift_diffusion(near_dark_pair_model(eps))
        times = np.linspace(0.0, 2.0, 1001)
        exact = bosonic.propagate_covariance(dd, np.eye(4), times, method="exact")
        rk4 = bosonic.propagate_covariance(dd, np.eye(4), times, method="rk4", rk4_substeps=4)
        for a, b in zip(exact.states, rk4.states):
            assert np.max(np.abs(a.v - b.v)) <= 1e-12 * np.max(np.abs(b.v))

    @pytest.mark.parametrize("times, flows", [
        (np.linspace(0.0, 2.0, 1001), 1),
        (np.linspace(0.0, 5.0, 501), 1),
        (np.linspace(-2.0, 0.0, 101), 1),
        (np.array([0.0, 0.5, 1.0, 1.25, 1.5, 2.5]), 3),
    ])
    def test_one_flow_per_distinct_step(self, monkeypatch, times, flows):
        # linspace steps differ by a few ulps; the grid still takes one flow,
        # and all distinct steps share one stacked exponential
        calls = _count_expm(monkeypatch)
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        bosonic.propagate_covariance(dd, np.eye(2), times)
        assert calls == [flows]

    def test_mixed_doublings_in_one_stack(self, monkeypatch, rng):
        # one step needs no doubling and one needs at least 10, in one stack
        _, dd = random_stable_bosonic(rng, 2)
        norm = max(np.abs(dd.a).sum(axis=0).max(), np.abs(dd.a).sum(axis=1).max())
        times = np.array([0.0, 1e-3, 1e-3 + 1e4 / norm])
        steps = np.diff(times)
        assert norm * steps[0] < lyapunov.BASE_STEP_NORM
        assert norm * steps[1] >= lyapunov.BASE_STEP_NORM * 2.0 ** 9
        calls = _count_expm(monkeypatch)
        v0 = random_physical_v(rng, 2)
        v_inf = bosonic.steady_state(dd).v
        traj = bosonic.propagate_covariance(dd, v0, times)
        assert calls == [2]
        for t, v in zip(times, traj.covs):
            e = expm(dd.a * t)
            closed = e @ (v0 - v_inf) @ e.T + v_inf
            assert np.max(np.abs(v - closed)) <= 1e-12 * np.max(np.abs(closed))

    @pytest.mark.parametrize("norm_dt", [50.0, 1000.0])
    def test_large_norm_step_matches_closed_form(self, rng, norm_dt):
        # one step far beyond ||A||_1 dt = 1 exercises the doubling of the base step
        _, dd = random_stable_bosonic(rng, 2)
        v0 = random_physical_v(rng, 2)
        v_inf = bosonic.steady_state(dd).v
        dt = norm_dt / np.max(np.sum(np.abs(dd.a), axis=0))
        v = bosonic.propagate_covariance(dd, v0, [0.0, dt]).states[1].v
        e = expm(dd.a * dt)
        closed = e @ (v0 - v_inf) @ e.T + v_inf
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v - closed)) <= 1e-12 * np.max(np.abs(closed))


class TestTrajectory:
    def test_reads_as_sequence_of_cached_states(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        times = np.linspace(0.0, 1.0, 5)
        traj = bosonic.propagate_covariance(dd, np.eye(2), times, mean0=[1.0, 0.0])
        assert traj.covs.shape == (5, 2, 2) and traj.means.shape == (5, 2)
        assert len(traj) == 5
        assert traj.states is traj.states
        assert all(a is b for a, b in zip(traj, traj.states))
        assert traj[-1] is traj.states[4]
        for i, state in enumerate(traj):
            assert isinstance(state, bosonic.GaussianState)
            np.testing.assert_array_equal(state.v, traj.covs[i])
            np.testing.assert_array_equal(state.mean, traj.means[i])

    @pytest.mark.parametrize("method, mean0", [("exact", None), ("exact", "random"), ("rk4", "random")])
    def test_propagated_trajectory_equals_checked_construction(self, rng, method, mean0):
        # propagate_covariance wraps its stacks unchecked; the checks would store the same bits
        _, dd = random_stable_bosonic(rng, 3)
        mean0 = rng.standard_normal(6) if mean0 else None
        times = [0.0, 0.05, 0.5, 2.0, 2.1]
        traj = bosonic.propagate_covariance(dd, random_physical_v(rng, 3), times,
                                            method=method, mean0=mean0)
        checked = bosonic.Trajectory(times, traj.covs, traj.means)
        for name in ("times", "covs", "means"):
            got, expected = getattr(traj, name), getattr(checked, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("build", ["checked", "propagated"])
    def test_covariances_read_only(self, build):
        # the writers copy upper-triangle texts to the mirror, so the stored part stays exact
        v = np.array([[1.0, 0.3], [0.3, 2.0]])
        if build == "checked":
            traj = bosonic.Trajectory([0.0], v[None], np.zeros((1, 2)))
        else:
            traj = bosonic.propagate_covariance(bosonic.build_drift_diffusion(damped_oscillator_model()),
                                                v, [0.0, 1.0])
        with pytest.raises(ValueError):
            traj.covs[0, 1, 0] = 0.5
        with pytest.raises(ValueError):
            traj[0].v[1, 0] = 0.5
        assert v.flags.writeable

    @pytest.mark.parametrize("build", ["checked", "steady_state", "trajectory"])
    def test_states_read_only(self, build):
        # an in-place edit after construction would reach the writers
        mean, v = np.array([0.1, -0.2]), np.array([[1.0, 0.3], [0.3, 2.0]])
        if build == "checked":
            state = bosonic.GaussianState(mean, v)
            assert not np.shares_memory(state.mean, mean)
        elif build == "steady_state":
            state = bosonic.steady_state(bosonic.build_drift_diffusion(damped_oscillator_model()))
        else:
            state = bosonic.Trajectory([0.0], v[None], mean[None]).states[0]
        with pytest.raises(ValueError):
            state.v[1, 0] = 0.5
        with pytest.raises(ValueError):
            state.mean[0] = 0.5
        assert mean.flags.writeable and v.flags.writeable

    def test_trajectory_means_read_only_copy(self):
        means = np.zeros((1, 2))
        traj = bosonic.Trajectory([0.0], np.eye(2)[None], means)
        with pytest.raises(ValueError):
            traj.means[0, 0] = 0.5
        assert means.flags.writeable and not np.shares_memory(traj.means, means)

    def test_zero_means_without_mean0(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        traj = bosonic.propagate_covariance(dd, np.eye(2), [0.0, 1.0])
        np.testing.assert_array_equal(traj.means, np.zeros((2, 2)))

    @pytest.mark.parametrize("times, covs, means", [
        ([0.0, 1.0, 2.0], np.zeros((2, 2, 2)), None),
        ([0.0, 1.0], np.zeros((2, 3, 3)), None),
        ([0.0, 1.0], np.zeros((2, 2)), None),
        ([0.0, 1.0], np.zeros((2, 2, 2)), np.zeros((2, 3))),
        ([1.0, 0.0], np.zeros((2, 2, 2)), None),
    ])
    def test_malformed_arrays_rejected(self, times, covs, means):
        with pytest.raises(StructuralError):
            bosonic.Trajectory(times, covs, means)

    # Each way in to a bosonic covariance, returning what it stores.
    symmetric_inputs = {
        "state": lambda v: bosonic.GaussianState(np.zeros(2), v).v,
        "trajectory": lambda v: bosonic.Trajectory([0.0, 1.0], np.stack([v, v]),
                                                   np.zeros((2, 2))).covs[1],
        "drift_diffusion": lambda v: bosonic.BosonicDriftDiffusion(a=np.eye(2), d=v).d,
    }

    @pytest.mark.parametrize("store", list(symmetric_inputs))
    def test_one_symmetry_bound_and_exact_storage(self, store):
        store = self.symmetric_inputs[store]
        v = np.array([[1.0, 0.3], [0.3, 2.0]])
        stored = store(v + np.array([[0.0, 2e-11], [0.0, 0.0]]))
        assert np.array_equal(stored, stored.T)
        # the symmetric part moves each off-diagonal entry by half the defect
        assert np.max(np.abs(stored - v - 1e-11 * (1.0 - np.eye(2)))) <= 1e-16
        with pytest.raises(StructuralError, match="symmetric"):
            store(v + np.array([[0.0, 1e-6], [0.0, 0.0]]))


class TestHurwitz:
    def test_damped_oscillator(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model(gamma=0.5, omega=2.0))
        stable, abscissa = bosonic.is_hurwitz(dd)
        assert stable
        assert abscissa == pytest.approx(-0.25, abs=1e-12)

    def test_pure_rotation_not_hurwitz(self):
        dd = bosonic.BosonicDriftDiffusion(a=2.0 * model.symplectic_form(1), d=np.zeros((2, 2)))
        stable, abscissa = bosonic.is_hurwitz(dd)
        assert not stable
        assert abscissa == pytest.approx(0.0, abs=1e-12)

    def test_collective_decay_dark_mode(self):
        dd = bosonic.build_drift_diffusion(collective_decay_model())
        stable, abscissa = bosonic.is_hurwitz(dd)
        assert not stable
        assert abs(abscissa) <= 1e-10


class TestSteadyState:
    def test_vacuum_fixed_point(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model(nbar=0.0))
        state = bosonic.steady_state(dd)
        np.testing.assert_allclose(state.v, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(state.mean, np.zeros(2))

    def test_thermal_fixed_point(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model(nbar=0.5))
        state = bosonic.steady_state(dd)
        np.testing.assert_allclose(state.v, 2.0 * np.eye(2), atol=1e-12)

    def test_residual_bound(self, rng):
        for _ in range(10):
            _, dd = random_stable_bosonic(rng, int(rng.integers(1, 4)))
            v = bosonic.steady_state(dd).v
            assert np.max(np.abs(dd.a @ v + v @ dd.a.T + dd.d)) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_near_dark_pair_is_the_long_time_limit(self, eps):
        # ||V_ss|| grows like 1/eps; the backward-error gate still returns it
        dd = bosonic.build_drift_diffusion(near_dark_pair_model(eps))
        v_ss = bosonic.steady_state(dd).v
        late = bosonic.propagate_covariance(dd, np.eye(4), [0.0, 40.0 / eps]).covs[-1]
        assert np.max(np.abs(late - v_ss)) <= 1e-8 * np.max(np.abs(v_ss))

    def test_diffusion_scale_invariance(self, rng):
        # scaling D by 10^k scales V by 10^k: the gate has no absolute scale
        for _ in range(40):
            _, dd = random_stable_bosonic(rng, int(rng.integers(1, 4)))
            v0 = bosonic.steady_state(dd).v
            for k in range(-6, 9):
                scaled = bosonic.BosonicDriftDiffusion(dd.a, 10.0 ** k * dd.d)
                vk = bosonic.steady_state(scaled).v
                assert np.max(np.abs(vk / 10.0 ** k - v0)) <= 1e-12 * np.max(np.abs(v0))

    def test_exponential_convergence(self):
        gamma = 0.5
        dd = bosonic.build_drift_diffusion(damped_oscillator_model(gamma=gamma, omega=2.0))
        v_ss = bosonic.steady_state(dd).v
        v0 = 3.0 * np.eye(2)
        t = 5.0 / gamma
        traj = bosonic.propagate_covariance(dd, v0, [0.0, t])
        lhs = np.linalg.norm(traj.states[1].v - v_ss)
        assert lhs <= np.exp(-5.0) * np.linalg.norm(v0 - v_ss) * 1.01

    def test_stable_form_matches_general_form(self, rng):
        # e^{At}(V0 - Vss)e^{A^T t} + Vss against the stepwise exact propagator
        _, dd = random_stable_bosonic(rng, 2)
        v0 = random_physical_v(rng, 2)
        times = np.linspace(0.0, 2.0, 5)
        v_ss = bosonic.steady_state(dd).v
        traj = bosonic.propagate_covariance(dd, v0, times, method="exact")
        for t, state in zip(times, traj.states):
            e = expm(dd.a * t)
            closed = e @ (v0 - v_ss) @ e.T + v_ss
            assert np.max(np.abs(closed - state.v)) <= 1e-10

    def test_non_hurwitz_rejected_with_abscissa(self):
        dd = bosonic.build_drift_diffusion(collective_decay_model())
        with pytest.raises(StabilityError) as err:
            bosonic.steady_state(dd)
        assert abs(err.value.spectral_abscissa) <= 1e-10


class TestPhysicalityAndPurity:
    def test_vacuum_boundary(self):
        ok, min_eig = bosonic.check_physicality(np.eye(2))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-14)

    def test_sub_vacuum_unphysical(self):
        ok, min_eig = bosonic.check_physicality(0.5 * np.eye(2))
        assert not ok
        assert min_eig == pytest.approx(-0.5, abs=1e-14)

    def test_stacked_matches_per_state_loop(self, rng):
        _, dd = random_stable_bosonic(rng, 2)
        v0 = random_physical_v(rng, 2)
        traj = bosonic.propagate_covariance(dd, v0, np.linspace(0.0, 3.0, 101))
        ok, min_eig = bosonic.check_physicality(traj.covs)
        assert min_eig == min(bosonic.check_physicality(v)[1] for v in traj.covs)
        assert ok
        assert not bosonic.check_physicality(np.stack([np.eye(2), 0.5 * np.eye(2)]))[0]

    def test_margin_is_smallest_eigenvalue_with_loop_built_omega(self, rng):
        v = random_physical_v(rng, 3)
        omega = np.zeros((6, 6))
        for j in range(3):
            omega[2 * j, 2 * j + 1], omega[2 * j + 1, 2 * j] = 1.0, -1.0
        # the margin is read of V's symmetric part, not of its lower triangle
        expected = float(np.min(np.linalg.eigvalsh(0.5 * (v + v.T) + 1j * omega)))
        assert bosonic.check_physicality(v)[1] == expected

    def test_thermal_physical(self):
        ok, min_eig = bosonic.check_physicality(2.0 * np.eye(2))
        assert ok
        assert min_eig == pytest.approx(1.0, abs=1e-14)

    def test_purity_values(self):
        assert bosonic.purity(np.eye(2)) == pytest.approx(1.0)
        assert bosonic.purity(2.0 * np.eye(2)) == pytest.approx(0.5)

    def test_purity_reads_the_symmetric_part(self):
        v = np.array([[2.0, 0.3], [0.3, 2.0]])
        one_sided = v + np.array([[0.0, 2e-11], [0.0, 0.0]])
        assert bosonic.purity(one_sided) == bosonic.purity(0.5 * (one_sided + one_sided.T))
        with pytest.raises(StructuralError, match="symmetric"):
            bosonic.purity([[2.0, 3.0], [-3.0, 2.0]])

    def test_purity_rejects_unphysical(self):
        with pytest.raises(DomainError):
            bosonic.purity(0.25 * np.eye(2))

    def test_purity_matches_dense_oracle(self):
        for nbar in (0.0, 0.4, 1.1):
            rho = oracle.fock_thermal(nbar, 40)
            tr_sq = float(np.trace(rho @ rho).real)
            v = (2.0 * nbar + 1.0) * np.eye(2)
            assert bosonic.purity(v) == pytest.approx(tr_sq, abs=1e-6)
        for r in (0.2, 0.5):
            rho = oracle.fock_squeezed_vacuum(r, 40)
            tr_sq = float(np.trace(rho @ rho).real)
            v = np.diag([np.exp(-2 * r), np.exp(2 * r)])
            assert bosonic.purity(v) == pytest.approx(tr_sq, abs=1e-6)


class TestWigner:
    def test_vacuum_peak(self):
        state = bosonic.GaussianState(np.zeros(2), np.eye(2))
        assert bosonic.wigner(state, [0.0, 0.0]) == pytest.approx(1.0 / np.pi)

    def test_gaussian_decay(self):
        state = bosonic.GaussianState(np.zeros(2), np.eye(2))
        assert bosonic.wigner(state, [30.0, 0.0]) <= 1e-100

    @pytest.mark.slow
    def test_normalization_by_quadrature(self):
        state = bosonic.GaussianState(np.array([0.4, -0.2]), np.array([[1.5, 0.2], [0.2, 0.9]]))
        xs = np.linspace(-8.0, 8.0, 501)
        grid = np.array([[bosonic.wigner(state, [x, y]) for y in xs] for x in xs])
        integral = np.trapezoid(np.trapezoid(grid, xs, axis=1), xs)
        assert integral == pytest.approx(1.0, abs=1e-6)


class TestInvariants:
    def test_symmetry_and_physicality_preserved(self, rng):
        times = np.linspace(0.0, 4.0, 21)
        for _ in range(10):
            n_modes = int(rng.integers(1, 3))
            m = random_bosonic_model(rng, n_modes)
            dd = bosonic.build_drift_diffusion(m)
            v0 = random_physical_v(rng, n_modes)
            traj = bosonic.propagate_covariance(dd, v0, times)
            for state in traj.states:
                assert np.max(np.abs(state.v - state.v.T)) <= 1e-10
                _, min_eig = bosonic.check_physicality(state.v)
                assert min_eig >= -1e-8

    def test_solution_satisfies_ode_by_finite_differences(self, rng):
        _, dd = random_stable_bosonic(rng, 2, norm_cap=1.5)
        v0 = random_physical_v(rng, 2)
        t = 0.7

        def v_at(time):
            return bosonic.propagate_covariance(dd, v0, [0.0, time]).states[1].v

        v_t = v_at(t)
        rhs = dd.a @ v_t + v_t @ dd.a.T + dd.d
        errors = []
        for h in (0.08, 0.04):
            fd = (v_at(t + h) - v_at(t - h)) / (2.0 * h)
            errors.append(np.max(np.abs(fd - rhs)))
        order = np.log2(errors[0] / errors[1])
        assert order == pytest.approx(2.0, abs=0.1)
