import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import glme
from glme import bosonic, fermionic, model, oracle
from glme.errors import DomainError, StructuralError, TruncationError

from conftest import (
    damped_oscillator_model,
    fermionic_decay_model,
    random_bosonic_model,
    random_fermionic_model,
)


class TestDenseBosonicEngine:
    def test_vacuum_is_fixed_point(self):
        m = damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.0)
        engine = oracle.DenseBosonicEngine(m, fock_dim=20)
        rhos = engine.evolve(engine.vacuum(), np.linspace(0.0, 3.0, 7), method="expm")
        for rho in rhos:
            _, v = engine.extract_mean_and_v(rho)
            assert np.max(np.abs(v - np.eye(2))) <= 1e-8

    def test_thermal_relaxation_closed_form(self):
        gamma = 0.5
        m = damped_oscillator_model(gamma=gamma, omega=2.0, nbar=0.0)
        engine = oracle.DenseBosonicEngine(m, fock_dim=30)
        rho0 = oracle.fock_thermal(1.0, 30)  # covariance 3I
        times = np.linspace(0.0, 2.0, 5)
        rhos = engine.evolve(rho0, times, method="expm")
        for t, rho in zip(times, rhos):
            _, v = engine.extract_mean_and_v(rho)
            expected = (1.0 + 2.0 * np.exp(-gamma * t)) * np.eye(2)
            assert np.max(np.abs(v - expected)) <= 1e-6

    def test_krylov_agrees_with_exact_exponential(self):
        # the default method is "krylov"
        m = damped_oscillator_model(gamma=0.4, omega=1.0, nbar=0.1)
        engine = oracle.DenseBosonicEngine(m, fock_dim=12)
        rho0 = oracle.fock_thermal(0.3, 12)
        times = np.linspace(0.0, 1.5, 4)
        ref = engine.evolve(rho0, times, method="expm")
        kry = engine.evolve(rho0, times)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(ref, kry))
        assert dev <= 1e-10

    @pytest.mark.parametrize("times,method", [([0.0, 1.0], "rk4"), ([0.0, 1.0, 1.0], "krylov"),
                                              ([0.0, 2.0, 1.0], "expm")])
    def test_evolve_rejects_unknown_method_and_non_increasing_grid(self, times, method):
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(), fock_dim=6)
        with pytest.raises(StructuralError):
            engine.evolve(engine.vacuum(), times, method=method)

    @pytest.mark.parametrize("method", ["expm", "krylov"])
    def test_evolve_rejects_non_finite_state(self, method):
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(), fock_dim=6)
        rho0 = engine.vacuum()
        rho0[1, 1] = np.nan
        with pytest.raises(StructuralError, match="non-finite"):
            engine.evolve(rho0, [0.0, 1.0], method=method)

    def test_truncation_diagnostic(self):
        m = damped_oscillator_model()
        engine = oracle.DenseBosonicEngine(m, fock_dim=10)
        hot = oracle.fock_thermal(5.0, 10)
        assert engine.truncation_diagnostic(hot) > 1e-3
        with pytest.raises(TruncationError):
            engine.check_truncation(hot)
        assert engine.truncation_diagnostic(engine.vacuum()) == 0.0

    def test_dimension_limit(self):
        m = random_bosonic_model(np.random.default_rng(0), 2)
        with pytest.raises(StructuralError, match="4096"):
            oracle.DenseBosonicEngine(m, fock_dim=80)

    def test_mixed_channel_application_is_identical(self, rng):
        # the internally diagonalized fast path is the same linear map
        m = random_bosonic_model(rng, 1, 4)
        direct = oracle.DenseBosonicEngine(m, fock_dim=12)
        mixed = oracle.DenseBosonicEngine(m, fock_dim=12, mix_channels=True)
        for _ in range(3):
            rho = oracle.random_density(rng, direct.dim)
            dev = np.max(np.abs(direct.liouvillian(rho) - mixed.liouvillian(rho)))
            assert dev <= 1e-12
            dev_adj = np.max(np.abs(direct.liouvillian_adjoint(rho) - mixed.liouvillian_adjoint(rho)))
            assert dev_adj <= 1e-12


def _relative_deviation(got, ref) -> float:
    got = got.toarray() if sp.issparse(got) else np.asarray(got)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _quadratures(n_modes, fock_dim) -> list[np.ndarray]:
    """q_1, p_1, ..., q_N, p_N built from Kronecker-embedded ladder operators."""
    a = np.diag(np.sqrt(np.arange(1.0, fock_dim)), 1)
    out = []
    for j in range(n_modes):
        a_j = np.eye(1)
        for site in range(n_modes):
            a_j = np.kron(a_j, a if site == j else np.eye(fock_dim))
        out += [(a_j.T + a_j) / np.sqrt(2.0), 1j * (a_j.T - a_j) / np.sqrt(2.0)]
    return out


def _assert_operators_match_definitions(engine, m, ops, h_scale):
    """H = h_scale * sum_jk h_jk o_j o_k, f_l = sum_k F_lk o_k, K = sum_jk Gamma_jk f_k^dag f_j."""
    n2 = len(ops)
    h_ref = h_scale * sum(m.hamiltonian[j, k] * ops[j] @ ops[k] for j in range(n2) for k in range(n2))
    f_ref = [sum(m.f[l, k] * ops[k] for k in range(n2)) for l in range(m.f.shape[0])]
    k_ref = sum(m.gamma[j, k] * f_ref[k].conj().T @ f_ref[j]
                for j in range(len(f_ref)) for k in range(len(f_ref)))
    assert _relative_deviation(engine.hamiltonian_op, h_ref) <= 1e-13
    for got, ref in zip(engine.f_ops, f_ref, strict=True):
        assert _relative_deviation(got, ref) <= 1e-13
    assert _relative_deviation(engine._k_op, k_ref) <= 1e-13


class TestOperatorBuilders:
    @pytest.mark.parametrize("n_modes,fock_dim", [(1, 12), (2, 8), (2, 9)])
    def test_bosonic_operators_match_double_sums(self, rng, n_modes, fock_dim):
        # dimensions 12 and 64 keep dense operators, 81 sparse ones
        m = random_bosonic_model(rng, n_modes, 2 * n_modes + 1)
        engine = oracle.DenseBosonicEngine(m, fock_dim=fock_dim)
        assert sp.issparse(engine.hamiltonian_op) == (engine.dim > 64)
        _assert_operators_match_definitions(engine, m, _quadratures(n_modes, fock_dim), 0.5)

    def test_fermionic_operators_match_double_sums(self, rng):
        m = random_fermionic_model(rng, 3, 5)
        engine = oracle.DenseFermionicEngine(m)
        _assert_operators_match_definitions(engine, m, oracle.jordan_wigner_majoranas(3), 0.5j)

    def test_fermionic_gibbs_state_is_normalized_exponential(self, rng):
        n_modes = 2
        kernel = rng.standard_normal((2 * n_modes, 2 * n_modes))
        kernel = kernel - kernel.T
        w = oracle.jordan_wigner_majoranas(n_modes)
        quad = sum(0.5j * kernel[j, k] * w[j] @ w[k]
                   for j in range(2 * n_modes) for k in range(2 * n_modes))
        ref = expm(quad)
        ref /= np.trace(ref).real
        assert _relative_deviation(oracle.fermionic_gibbs_state(kernel, n_modes), ref) <= 1e-13


def _superoperator_deviation(engine, rng) -> float:
    """Relative deviation of the CSR superoperator from the operator-form generator."""
    sup = engine.superoperator()
    assert sup.shape == (engine.dim ** 2, engine.dim ** 2)
    worst = 0.0
    general = rng.standard_normal((engine.dim,) * 2) + 1j * rng.standard_normal((engine.dim,) * 2)
    for rho in (oracle.random_density(rng, engine.dim), general):
        ref = engine.liouvillian(rho)
        got = (sup @ rho.reshape(-1)).reshape(engine.dim, engine.dim)
        worst = max(worst, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    return worst


class TestSuperoperator:
    @pytest.mark.parametrize("mix_channels", [False, True])
    @pytest.mark.parametrize("n_modes,fock_dim", [(1, 12), (2, 9)])
    def test_bosonic_matches_liouvillian(self, rng, n_modes, fock_dim, mix_channels):
        # fock_dim 12 keeps dense operators, two modes at 9 sparse ones
        m = random_bosonic_model(rng, n_modes, 2 * n_modes + 1)
        engine = oracle.DenseBosonicEngine(m, fock_dim=fock_dim, mix_channels=mix_channels)
        assert _superoperator_deviation(engine, rng) <= 1e-12

    def test_fermionic_matches_liouvillian(self, rng):
        engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 3))
        assert _superoperator_deviation(engine, rng) <= 1e-12

    def test_built_once(self, rng):
        engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 2))
        assert engine.superoperator() is engine.superoperator()

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.5, 4), np.array([0.0, 0.2, 0.9, 1.5])])
    def test_two_mode_mixed_krylov_agrees_with_exact_exponential(self, rng, times):
        m = random_bosonic_model(rng, 2, 5)
        engine = oracle.DenseBosonicEngine(m, fock_dim=5, mix_channels=True)
        rho0 = oracle.random_density(rng, engine.dim)
        ref = engine.evolve(rho0, times, method="expm")
        kry = engine.evolve(rho0, times, method="krylov")
        dev = max(np.max(np.abs(a - b)) for a, b in zip(ref, kry))
        assert dev <= 1e-10

    def test_dense_exponential_dimension_limit(self, rng):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 2), fock_dim=6)
        with pytest.raises(StructuralError, match="32"):
            engine.evolve(engine.vacuum(), [0.0, 1.0], method="expm")


def _full_exponential_evolution(engine, rho0, times) -> list[np.ndarray]:
    """The state on the grid from the dense exponential of the whole superoperator."""
    dense = engine.superoperator().toarray()
    vec = rho0.reshape(-1)
    out = [rho0]
    for dt in np.diff(times):
        vec = expm(dense * dt) @ vec
        out.append(vec.reshape(engine.dim, engine.dim))
    return out


def _dark_third_mode_model(rng):
    """Three fermionic modes; the third appears in neither H nor any channel."""
    inner = random_fermionic_model(rng, 2)
    h = np.zeros((6, 6))
    h[:4, :4] = inner.hamiltonian
    f = np.zeros((inner.f.shape[0], 6), dtype=complex)
    f[:, :4] = inner.f
    return model.GeneralizedLindbladModel(flavor="fermionic", n_modes=3, hamiltonian=h,
                                          f=f, gamma=inner.gamma)


def _squeezing_only_model():
    """H = (q^2 - p^2) / 2 = (a^2 + a^dag^2) / 2 with no decoherence."""
    f = model.ladder_to_canonical(np.array([[1.0, 0.0]], dtype=complex), "bosonic")
    return model.GeneralizedLindbladModel(flavor="bosonic", n_modes=1,
                                          hamiltonian=np.diag([1.0, -1.0]), f=f,
                                          gamma=np.zeros((1, 1), dtype=complex))


def _counting_expm(monkeypatch) -> list[tuple[int, int]]:
    shapes = []
    monkeypatch.setattr(oracle, "expm", lambda m: shapes.append(m.shape) or expm(m))
    return shapes


class TestSectorExponential:
    times = np.array([0.0, 0.3, 1.0, 1.2, 2.0])

    @pytest.mark.parametrize("build,sectors", [
        # generic quadratic H with squeezing terms: the parity of m + n
        (lambda rng: oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=12), 2),
        # the dark mode keeps its ket and bra occupations: 4 x 2 parity sectors
        (lambda rng: oracle.DenseFermionicEngine(_dark_third_mode_model(rng)), 8),
        # purely imaginary couplings still join states: the parities of m and of n
        (lambda rng: oracle.DenseBosonicEngine(_squeezing_only_model(), fock_dim=12), 4),
    ])
    def test_matches_full_exponential(self, rng, build, sectors):
        engine = build(rng)
        assert len(oracle._sectors(engine.superoperator())) == sectors
        rho0 = oracle.random_density(rng, engine.dim)
        got = engine.evolve(rho0, self.times, method="expm")
        ref = _full_exponential_evolution(engine, rho0, self.times)
        for a, b in zip(got, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_sectors_partition_the_states(self, rng):
        engine = oracle.DenseFermionicEngine(_dark_third_mode_model(rng))
        sup = engine.superoperator()
        sectors = oracle._sectors(sup)
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(engine.dim ** 2))
        for idx in sectors:
            outside = np.setdiff1d(np.arange(engine.dim ** 2), idx)
            assert sup[idx][:, outside].nnz == 0
            assert sup[outside][:, idx].nnz == 0

    @pytest.mark.parametrize("times,steps", [(np.linspace(0.0, 1.0, 4), 1),
                                             (np.array([0.0, 0.5, 1.0, 1.25]), 2)])
    def test_one_exponential_per_sector_and_distinct_step(self, rng, monkeypatch, times, steps):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=30)
        shapes = _counting_expm(monkeypatch)
        engine.evolve(oracle.random_density(rng, engine.dim), times, method="expm")
        assert shapes == [(450, 450)] * (2 * steps)

    def test_sector_without_weight_is_skipped(self, rng, monkeypatch):
        # a diagonal state has no weight where m + n is odd
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=30)
        shapes = _counting_expm(monkeypatch)
        rhos = engine.evolve(oracle.fock_thermal(0.2, 30), np.linspace(0.0, 1.0, 4), method="expm")
        assert shapes == [(450, 450)]
        odd = np.add.outer(np.arange(30), np.arange(30)) % 2 == 1
        assert all(np.all(rho[odd] == 0) for rho in rhos)

    @pytest.mark.parametrize("noise,shapes", [(1e-17, [(450, 450)]), (1e-12, [(450, 450)] * 2)])
    def test_sector_below_rounding_floor_is_skipped(self, rng, monkeypatch, noise, shapes):
        # rounding-sized weight where m + n is odd does not count; weight above it does
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=30)
        odd = np.add.outer(np.arange(30), np.arange(30)) % 2 == 1
        rho0 = oracle.fock_thermal(0.2, 30) + noise * odd
        counted = _counting_expm(monkeypatch)
        rhos = engine.evolve(rho0, np.linspace(0.0, 1.0, 4), method="expm")
        assert counted == shapes
        if len(shapes) == 1:
            assert all(np.all(rho[odd] == 0) for rho in rhos[1:])

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.5, 4), np.array([0.0, 0.2, 0.9, 1.5])])
    @pytest.mark.parametrize("fock_dim", [5, 6])
    def test_krylov_evolves_only_the_occupied_sector(self, rng, monkeypatch, fock_dim, times):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 2, 5), fock_dim=fock_dim)
        rho0 = np.kron(oracle.fock_thermal(0.3, fock_dim), oracle.fock_squeezed_vacuum(0.2, fock_dim))
        shapes = []
        monkeypatch.setattr(oracle, "expm_multiply",
                            lambda op, *a, **k: shapes.append(op.shape) or expm_multiply(op, *a, **k))
        got = engine.evolve(rho0, times, method="krylov")
        # the states |m1 m2><n1 n2| with m1 + m2 + n1 + n2 even
        levels = np.add.outer(np.arange(fock_dim), np.arange(fock_dim)).reshape(-1)
        even = np.add.outer(levels, levels).reshape(-1) % 2 == 0
        assert set(shapes) == {(even.sum(), even.sum())}
        full = engine.superoperator()
        vec, ref = rho0.reshape(-1), [rho0]
        for dt in np.diff(times):
            vec = expm_multiply(full * dt, vec)
            ref.append(vec.reshape(engine.dim, engine.dim))
        for a, b in zip(got, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            assert np.all(a.reshape(-1)[~even] == 0)

    @pytest.mark.parametrize("method,times", [("expm", np.linspace(0.0, 1.0, 4)),
                                              ("krylov", np.linspace(0.0, 1.0, 4)),
                                              ("krylov", np.array([0.0, 0.5, 1.0, 1.25]))])
    def test_zero_state_stays_zero(self, rng, method, times):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=5)
        rhos = engine.evolve(np.zeros((5, 5)), times, method=method)
        assert len(rhos) == times.size
        assert all(np.all(rho == 0) for rho in rhos)

    def test_returned_states_do_not_alias(self, rng):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=8)
        rhos = engine.evolve(oracle.random_density(rng, engine.dim), np.linspace(0.0, 1.0, 4),
                             method="expm")
        kept = rhos[2].copy()
        rhos[1][...] = 0.0
        assert np.array_equal(rhos[2], kept)
        for i in range(len(rhos)):
            for j in range(i):
                assert not np.shares_memory(rhos[i], rhos[j])

    @pytest.mark.parametrize("times,calls", [(np.linspace(0.0, 1.5, 4), 1),
                                             (np.linspace(-1.0, 0.5, 4), 1),
                                             (np.array([0.0, 0.2, 0.9, 1.5]), 3)])
    def test_krylov_takes_one_interval_call_on_uniform_grid(self, rng, monkeypatch, times, calls):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=6)
        counted = []
        monkeypatch.setattr(oracle, "expm_multiply",
                            lambda *a, **k: counted.append(k["num"]) or expm_multiply(*a, **k))
        engine.evolve(engine.vacuum(), times, method="krylov")
        assert len(counted) == calls


class TestDenseFermionicEngine:
    def test_anticommutator_self_test_passes(self):
        for n_modes in (1, 2, 3):
            ws = oracle.jordan_wigner_majoranas(n_modes)
            ident = np.eye(2 ** n_modes)
            worst = 0.0
            for i, wi in enumerate(ws):
                for j, wj in enumerate(ws):
                    delta = 1.0 if i == j else 0.0
                    worst = max(worst, np.max(np.abs(wi @ wj + wj @ wi - delta * ident)))
            assert worst <= 1e-14

    def test_relaxation_closed_form(self):
        gamma = 0.5
        engine = oracle.DenseFermionicEngine(fermionic_decay_model(gamma=gamma))
        times = np.linspace(0.0, 4.0, 9)
        rhos = engine.evolve(engine.maximally_mixed(), times, method="expm")
        for t, rho in zip(times, rhos):
            sigma = engine.extract_sigma(rho)
            assert sigma[0, 1] == pytest.approx(1.0 - np.exp(-gamma * t), abs=1e-10)

    def test_covariance_engine_agreement_random_model(self, rng):
        m = random_fermionic_model(rng, 3)
        engine = oracle.DenseFermionicEngine(m)
        dd = fermionic.build_drift_diffusion(m)
        times = np.linspace(0.0, 3.0, 7)
        rho0 = engine.maximally_mixed()
        rhos = engine.evolve(rho0, times, method="expm")
        states = fermionic.propagate_covariance(dd, np.zeros((6, 6)), times)
        for rho, state in zip(rhos, states):
            assert np.max(np.abs(engine.extract_sigma(rho) - state.sigma)) <= 1e-6


class TestGeneratorChecks:
    @pytest.mark.parametrize("flavor", ["bosonic", "fermionic"])
    def test_trace_and_hermiticity_preservation(self, rng, flavor):
        if flavor == "bosonic":
            engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=12)
        else:
            engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 3))
        assert oracle.trace_preservation_check(engine) <= 1e-12
        assert oracle.hermiticity_preservation_check(engine) <= 1e-12

    def test_adjoint_identity_observable(self, rng):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=10)
        rho = oracle.random_density(rng, engine.dim)
        # the identity is conserved, so both sides vanish
        dev = oracle.adjoint_consistency_check(engine, np.eye(engine.dim, dtype=complex), rho)
        assert dev <= 1e-12

    def test_adjoint_random_observables(self, rng):
        engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 2))
        for _ in range(5):
            obs = oracle.random_density(rng, engine.dim)
            obs = obs + obs.conj().T
            rho = oracle.random_density(rng, engine.dim)
            assert oracle.adjoint_consistency_check(engine, obs, rho) <= 1e-12

    def test_adjoint_reproduces_mean_drift(self):
        m = damped_oscillator_model(gamma=0.5, omega=2.0)
        engine = oracle.DenseBosonicEngine(m, fock_dim=24)
        dd = bosonic.build_drift_diffusion(m)
        # displaced state with nonzero mean, supported well below truncation
        rho = oracle._supported_density(np.random.default_rng(2), engine, 8)
        mean, _ = engine.extract_mean_and_v(rho)
        q_dot = np.trace(engine.liouvillian_adjoint(engine.x_ops[0]) @ rho).real
        p_dot = np.trace(engine.liouvillian_adjoint(engine.x_ops[1]) @ rho).real
        np.testing.assert_allclose([q_dot, p_dot], dd.a @ mean, atol=1e-8)

    def test_moment_closure_random_models(self, rng):
        closure_b = oracle.moment_closure_check(random_bosonic_model(rng, 1), fock_dim=20)
        assert closure_b["mean"] <= 1e-8
        assert closure_b["covariance"] <= 1e-8
        closure_f = oracle.moment_closure_check(random_fermionic_model(rng, 3))
        assert closure_f["covariance"] <= 1e-10


class TestDissipatorLinearity:
    def test_degenerate_combination(self):
        a = oracle._destroy(8)
        dev = oracle.dissipator_linearity_check(a, a.conj().T, 1.0, 0.0)
        assert dev <= 1e-14

    def test_ladder_pair(self):
        a = oracle._destroy(10)
        dev = oracle.dissipator_linearity_check(a, a.conj().T, 1.0, 1.0)
        assert dev <= 1e-12

    def test_random_complex_coefficients(self, rng):
        for _ in range(5):
            dim = 6
            l_j = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            l_k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            beta = complex(rng.standard_normal(), rng.standard_normal())
            dev = oracle.dissipator_linearity_check(l_j, l_k, alpha, beta)
            assert dev <= 1e-12

    def test_literal_dagger_reading_breaks_identity(self):
        # regression pin: the dagger on the cross terms is notational, not
        # an operator to apply again
        a = oracle._destroy(10)
        a_dag = a.conj().T
        good = oracle.dissipator_linearity_check(a, a_dag, 1.0, 1.0)
        bad = 0.0
        for rho in oracle._density_basis(10):
            lhs = oracle._standard_dissipator(a + a_dag, rho)
            literal = (oracle._standard_dissipator(a, rho) + oracle._standard_dissipator(a_dag, rho)
                       + oracle._pair_dissipator(a, a_dag.conj().T, rho)
                       + oracle._pair_dissipator(a_dag, a.conj().T, rho))
            bad = max(bad, np.max(np.abs(lhs - literal)))
        assert good <= 1e-12
        assert bad > 1e-2


class TestDenseNegativities:
    def test_bosonic_product_state(self):
        rho = np.kron(oracle.fock_thermal(0.4, 8), oracle.fock_thermal(0.2, 8))
        assert oracle.dense_negativity_bosonic(rho, (8, 8)) == pytest.approx(0.0, abs=1e-12)

    def test_bosonic_two_mode_squeezing(self):
        rho = oracle.fock_tmsv(0.3, 16)
        assert oracle.dense_negativity_bosonic(rho, (16, 16)) == pytest.approx(0.6, abs=1e-3)

    def test_fermionic_bell_pair(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        assert oracle.dense_negativity_fermionic(rho) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_fermionic_product_and_mixed(self):
        prod = np.kron(np.diag([0.8, 0.2]), np.diag([0.55, 0.45])).astype(complex)
        assert oracle.dense_negativity_fermionic(prod) == pytest.approx(0.0, abs=1e-12)
        assert oracle.dense_negativity_fermionic(np.eye(4, dtype=complex) / 4.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_parity_odd_rejected(self):
        rho = np.full((4, 4), 0.25, dtype=complex)  # superposes even and odd sectors
        with pytest.raises(DomainError):
            oracle.dense_negativity_fermionic(rho)


class TestStateBuilders:
    def test_squeezed_vacuum_covariance(self):
        r = 0.4
        m = damped_oscillator_model()
        engine = oracle.DenseBosonicEngine(m, fock_dim=40)
        rho = oracle.fock_squeezed_vacuum(r, 40)
        _, v = engine.extract_mean_and_v(rho)
        np.testing.assert_allclose(v, np.diag([np.exp(-2 * r), np.exp(2 * r)]), atol=1e-8)

    def test_tmsv_covariance(self):
        r = 0.3
        f = model.ladder_to_canonical(np.eye(4, dtype=complex), "bosonic")
        m = glme.GeneralizedLindbladModel(
            "bosonic", 2, np.eye(4), f, np.zeros((4, 4), dtype=complex)
        )
        engine = oracle.DenseBosonicEngine(m, fock_dim=14)
        rho = oracle.fock_tmsv(r, 14)
        _, v = engine.extract_mean_and_v(rho)
        from conftest import tmsv_cov

        assert np.max(np.abs(v - tmsv_cov(r))) <= 1e-6
