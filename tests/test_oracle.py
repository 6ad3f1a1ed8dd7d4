import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import glme
from glme import bosonic, fermionic, model, oracle
from glme.errors import (
    DomainError,
    NumericalError,
    PositivityError,
    StructuralError,
    TruncationError,
)

from conftest import (
    damped_oscillator_model,
    fermionic_decay_model,
    random_bosonic_model,
    random_fermionic_model,
    random_hermitian_psd,
)


class TestDenseBosonicEngine:
    def test_vacuum_is_fixed_point(self):
        m = damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.0)
        engine = oracle.DenseBosonicEngine(m, fock_dim=20)
        rhos = engine.evolve(engine.vacuum(), np.linspace(0.0, 3.0, 7))
        for rho in rhos:
            _, v = engine.extract_mean_and_v(rho)
            assert np.max(np.abs(v - np.eye(2))) <= 1e-8

    def test_thermal_relaxation_closed_form(self):
        gamma = 0.5
        m = damped_oscillator_model(gamma=gamma, omega=2.0, nbar=0.0)
        engine = oracle.DenseBosonicEngine(m, fock_dim=30)
        rho0 = oracle.fock_thermal(1.0, 30)  # covariance 3I
        times = np.linspace(0.0, 2.0, 5)
        rhos = engine.evolve(rho0, times)
        for t, rho in zip(times, rhos):
            _, v = engine.extract_mean_and_v(rho)
            expected = (1.0 + 2.0 * np.exp(-gamma * t)) * np.eye(2)
            assert np.max(np.abs(v - expected)) <= 1e-6

    def test_krylov_agrees_with_exact_exponential(self):
        m = damped_oscillator_model(gamma=0.4, omega=1.0, nbar=0.1)
        engine = oracle.DenseBosonicEngine(m, fock_dim=12)
        rho0 = oracle.fock_thermal(0.3, 12)
        times = np.linspace(0.0, 1.5, 4)
        ref = _full_exponential_evolution(engine, rho0, times)
        kry = engine.evolve(rho0, times)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(ref, kry))
        assert dev <= 1e-10

    def test_method_and_mix_channels_are_inert_aliases(self, rng):
        # both keywords stay for callers that still pass them; dimension 36 is
        # beyond the dense exponential that "expm" once named
        m = random_bosonic_model(rng, 2, 5)
        engine = oracle.DenseBosonicEngine(m, fock_dim=6)
        rho0 = oracle.random_density(rng, engine.dim)
        times = np.linspace(0.0, 1.0, 4)
        for a, b in zip(engine.evolve(rho0, times, method="expm"), engine.evolve(rho0, times),
                        strict=True):
            assert np.array_equal(a, b)
        with pytest.raises(StructuralError, match="unknown dense integration method"):
            engine.evolve(rho0, times, method="rk4")
        mixed = oracle.DenseBosonicEngine(m, fock_dim=6, mix_channels=True)
        assert np.array_equal(mixed.liouvillian(rho0), engine.liouvillian(rho0))

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_evolve_rejects_non_increasing_grid(self, times):
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(), fock_dim=6)
        with pytest.raises(StructuralError):
            engine.evolve(engine.vacuum(), times)

    def test_evolve_rejects_non_finite_state(self):
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(), fock_dim=6)
        rho0 = engine.vacuum()
        rho0[1, 1] = np.nan
        with pytest.raises(StructuralError, match="non-finite"):
            engine.evolve(rho0, [0.0, 1.0])

    @pytest.mark.parametrize("times", [[0.0, np.inf], [0.0, np.nan], [-np.inf, 0.0]])
    def test_evolve_rejects_non_finite_times(self, times):
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(), fock_dim=6)
        with pytest.raises(StructuralError, match="times must be finite"):
            engine.evolve(engine.vacuum(), times)

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
    """H = h_scale * sum_jk h_jk o_j o_k, f_l = sum_k F_lk o_k, K = sum_jk Gamma_jk f_k^dag f_j = -(G + G')."""
    n2 = len(ops)
    h_ref = h_scale * sum(m.hamiltonian[j, k] * ops[j] @ ops[k] for j in range(n2) for k in range(n2))
    f_ref = [sum(m.f[l, k] * ops[k] for k in range(n2)) for l in range(m.f.shape[0])]
    k_ref = sum(m.gamma[j, k] * f_ref[k].conj().T @ f_ref[j]
                for j in range(len(f_ref)) for k in range(len(f_ref)))
    assert _relative_deviation(engine.hamiltonian_op, h_ref) <= 1e-13
    for got, ref in zip(engine.f_ops, f_ref, strict=True):
        assert _relative_deviation(got, ref) <= 1e-13
    assert _relative_deviation(-(engine._g + engine._g_prime), k_ref) <= 1e-13


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
    @pytest.mark.parametrize("n_modes,fock_dim", [(1, 12), (2, 9)])
    def test_bosonic_matches_liouvillian(self, rng, n_modes, fock_dim):
        # fock_dim 12 keeps dense operators, two modes at 9 sparse ones
        m = random_bosonic_model(rng, n_modes, 2 * n_modes + 1)
        engine = oracle.DenseBosonicEngine(m, fock_dim=fock_dim)
        assert _superoperator_deviation(engine, rng) <= 1e-12

    def test_fermionic_matches_liouvillian(self, rng):
        engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 3))
        assert _superoperator_deviation(engine, rng) <= 1e-12

    def test_built_once(self, rng):
        engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 2))
        assert engine.superoperator() is engine.superoperator()

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.5, 4), np.array([0.0, 0.2, 0.9, 1.5])])
    def test_two_mode_krylov_agrees_with_exact_exponential(self, rng, times):
        m = random_bosonic_model(rng, 2, 5)
        engine = oracle.DenseBosonicEngine(m, fock_dim=5)
        rho0 = oracle.random_density(rng, engine.dim)
        ref = _full_exponential_evolution(engine, rho0, times)
        kry = engine.evolve(rho0, times)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(ref, kry))
        assert dev <= 1e-10


def _zero_row_gamma(rng) -> np.ndarray:
    """Three channels; the third has a zero row (and column) in the decoherence matrix."""
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[:2, :2] = random_hermitian_psd(rng, 2)
    return gamma


def _cross_coupled_gamma(rng) -> np.ndarray:
    """Three channels in a chain of cross couplings, with each diagonal entry the sum of
    the magnitudes in its row: diagonally dominant, so positive semidefinite as the
    engines require."""
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    off = np.array([[0.0, c[0], 0.0], [np.conj(c[0]), 0.0, c[1]], [0.0, np.conj(c[1]), 0.0]])
    return off + np.diag(np.abs(off).sum(axis=1))


class TestGroupedSandwiches:
    """liouvillian = G rho + rho G' + sum_j F_j rho B_j with one pair per nonzero row of Gamma."""

    engines = {
        "bosonic_dense": lambda m: oracle.DenseBosonicEngine(m, fock_dim=12),
        "bosonic_sparse": lambda m: oracle.DenseBosonicEngine(m, fock_dim=9),
        "fermionic": oracle.DenseFermionicEngine,
    }

    @staticmethod
    def _model(rng, kind, gamma):
        if kind == "fermionic":
            base = random_fermionic_model(rng, 2, 3)
        else:
            base = random_bosonic_model(rng, 1 if kind == "bosonic_dense" else 2, 3)
        return model.GeneralizedLindbladModel(base.flavor, base.n_modes, base.hamiltonian,
                                              base.f, gamma)

    @pytest.mark.parametrize("gamma_of", [_zero_row_gamma, _cross_coupled_gamma],
                             ids=["zero_row", "cross_coupled"])
    @pytest.mark.parametrize("kind", list(engines))
    def test_generator_and_adjoint_match_superoperator(self, rng, kind, gamma_of):
        gamma = gamma_of(rng)
        engine = self.engines[kind](self._model(rng, kind, gamma))
        assert len(engine._sandwiches) == np.count_nonzero(np.any(gamma != 0, axis=1))
        assert _superoperator_deviation(engine, rng) <= 1e-12
        # Tr(O L(rho)) = vec(O^T) . S vec(rho), so L^dag(O)^T = unvec(S^T vec(O^T))
        d = engine.dim
        sup = engine.superoperator()
        obs = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ref = (sup.T @ obs.T.reshape(-1)).reshape(d, d).T
        assert _relative_deviation(engine.liouvillian_adjoint(obs), ref) <= 1e-12


class TestMomentReadout:
    @pytest.mark.parametrize("fock_dim", [6, 9])   # dense (dim 36) and sparse (dim 81) storage
    def test_bosonic_moments_match_dense_traces(self, rng, fock_dim):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 2), fock_dim=fock_dim)
        x = _quadratures(2, fock_dim)
        rho = oracle.random_density(rng, engine.dim)
        mean_ref = np.array([np.trace(xj @ rho).real for xj in x])
        second = np.array([[np.trace(xk @ (xj @ rho + rho @ xj)).real for xk in x] for xj in x])
        mean, v = engine.extract_mean_and_v(rho)
        assert np.max(np.abs(mean - mean_ref)) <= 1e-13
        assert np.max(np.abs(v - (second - 2.0 * np.outer(mean_ref, mean_ref)))) <= 1e-13

    def test_readout_triplets_built_once(self, rng, monkeypatch):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 2), fock_dim=9)
        engine.extract_mean_and_v(oracle.random_density(rng, engine.dim))
        built = []
        monkeypatch.setattr(oracle, "_triplets", lambda op: built.append(op) or (None,) * 3)
        mean, v = engine.extract_mean_and_v(oracle.random_density(rng, engine.dim))
        assert built == []
        assert np.all(np.isfinite(v))

    def test_fermionic_sigma_matches_dense_traces(self, rng):
        engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 3))
        w = oracle.jordan_wigner_majoranas(3)
        rho = oracle.random_density(rng, engine.dim)
        # i Tr([w_j, w_k] rho) = i Tr(w_k (rho w_j - w_j rho))
        ref = np.array([[(1j * np.trace(wk @ (rho @ wj - wj @ rho))).real for wk in w] for wj in w])
        assert np.max(np.abs(engine.extract_sigma(rho) - ref)) <= 1e-13


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


def _matrix_unions(mat: sp.csr_matrix, swap: bool = False) -> list[np.ndarray]:
    """Weakly connected components of the pattern of an assembled superoperator.

    The reference for ``oracle._union_labels``: every stored entry is an
    edge, and with ``swap`` every |m><n| is also joined to |n><m|.
    """
    from scipy.sparse.csgraph import connected_components

    size = mat.shape[0]
    dim = math.isqrt(size)
    pattern = sp.csr_matrix((np.ones(mat.indices.size), mat.indices, mat.indptr), shape=mat.shape)
    if swap:
        transposed = np.arange(size).reshape(dim, dim).T.ravel()
        pattern = pattern + sp.csr_matrix((np.ones(size), transposed, np.arange(size + 1)),
                                          shape=mat.shape)
    count, labels = connected_components(pattern, directed=True, connection="weak")
    return [np.flatnonzero(labels == c) for c in range(count)]


def _unions(engine) -> list[np.ndarray]:
    labels = oracle._union_labels(engine._superoperator_terms(), engine.dim)
    return [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]


def _counting_products(monkeypatch) -> list[int]:
    """Sizes of the vectors the real generators are applied to."""
    sizes = []
    product = oracle._RealGenerator.product
    monkeypatch.setattr(oracle._RealGenerator, "product",
                        lambda gen, c: sizes.append(c.shape[0]) or product(gen, c))
    return sizes


def _counting_expv(monkeypatch) -> list[int]:
    """Sizes of the vectors ``oracle._expv`` propagates, one per call."""
    sizes = []
    expv = oracle._expv
    monkeypatch.setattr(oracle, "_expv",
                        lambda product, vec, times: sizes.append(vec.size)
                        or expv(product, vec, times))
    return sizes


def _off_diagonal_plus_density(rng, dim) -> np.ndarray:
    """|0><1| plus a random density matrix: neither Hermitian nor anti-Hermitian."""
    rho = oracle.random_density(rng, dim)
    rho[0, 1] += 1.0
    return rho


class TestSectorExponential:
    times = np.array([0.0, 0.3, 1.0, 1.2, 2.0])

    _rho0s = pytest.mark.parametrize("rho0_of", [lambda rng, d: oracle.random_density(rng, d),
                                                 _off_diagonal_plus_density],
                                     ids=["hermitian", "non_hermitian"])
    _engines = pytest.mark.parametrize("build,sectors,unions", [
        # generic quadratic H with squeezing terms: the parity of m + n, closed under transposition
        (lambda rng: oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=12), 2, 2),
        # the dark mode keeps its ket and bra occupations: 4 x 2 parity sectors, and the
        # transposition joins ket 0, bra 1 with ket 1, bra 0
        (lambda rng: oracle.DenseFermionicEngine(_dark_third_mode_model(rng)), 8, 6),
        # purely imaginary couplings still join states: the parities of m and of n, and the
        # transposition joins (even, odd) with (odd, even)
        (lambda rng: oracle.DenseBosonicEngine(_squeezing_only_model(), fock_dim=12), 4, 3),
    ])

    @_rho0s
    @_engines
    def test_matches_full_exponential(self, rng, build, sectors, unions, rho0_of):
        engine = build(rng)
        assert len(_matrix_unions(engine.superoperator())) == sectors
        assert len(_matrix_unions(engine.superoperator(), swap=True)) == unions
        assert len(_unions(engine)) == unions
        rho0 = rho0_of(rng, engine.dim)
        got = engine.evolve(rho0, self.times)
        ref = _full_exponential_evolution(engine, rho0, self.times)
        for a, b in zip(got, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @_rho0s
    @_engines
    def test_krylov_matches_full_exponential(self, rng, build, sectors, unions, rho0_of):
        # an uneven grid that starts after 0: the Arnoldi steps run from times[0]
        engine = build(rng)
        rho0 = rho0_of(rng, engine.dim)
        times = np.array([0.7, 0.75, 1.6, 2.9])
        got = engine.evolve(rho0, times)
        ref = _full_exponential_evolution(engine, rho0, times)
        for a, b in zip(got, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("rho0_of,sizes", [
        (lambda rng, d: oracle.random_density(rng, d), [900]),
        # an anti-Hermitian part is a second real column of the same generator
        (_off_diagonal_plus_density, [900, 900]),
    ], ids=["hermitian", "non_hermitian"])
    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 4), np.array([0.0, 0.5, 1.0, 1.25])])
    def test_one_arnoldi_run_per_column_on_any_grid(self, rng, monkeypatch, times, rho0_of, sizes):
        # both parity unions are occupied and share one generator; repeated or
        # distinct steps do not split the run
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=30)
        counted = _counting_expv(monkeypatch)
        engine.evolve(rho0_of(rng, engine.dim), times)
        assert counted == sizes

    def test_sectors_partition_the_states(self, rng):
        engine = oracle.DenseFermionicEngine(_dark_third_mode_model(rng))
        sup = engine.superoperator()
        d = engine.dim
        labels = oracle._union_labels(engine._superoperator_terms(), d)
        # closed under |m><n| -> |n><m|
        assert np.array_equal(labels.reshape(d, d), labels.reshape(d, d).T)
        for idx in _unions(engine):
            outside = np.setdiff1d(np.arange(engine.dim ** 2), idx)
            assert sup[idx][:, outside].nnz == 0
            assert sup[outside][:, idx].nnz == 0

    def test_sector_without_weight_is_skipped(self, rng, monkeypatch):
        # a diagonal state has no weight where m + n is odd
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=30)
        sizes = _counting_expv(monkeypatch)
        rhos = engine.evolve(oracle.fock_thermal(0.2, 30), np.linspace(0.0, 1.0, 4))
        assert sizes == [450]
        odd = np.add.outer(np.arange(30), np.arange(30)) % 2 == 1
        assert all(np.all(rho[odd] == 0) for rho in rhos)

    @pytest.mark.parametrize("noise,sizes", [(1e-17, [450]), (1e-12, [900])])
    def test_sector_below_rounding_floor_is_skipped(self, rng, monkeypatch, noise, sizes):
        # rounding-sized weight where m + n is odd does not count; weight above it does
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=30)
        odd = np.add.outer(np.arange(30), np.arange(30)) % 2 == 1
        rho0 = oracle.fock_thermal(0.2, 30) + noise * odd
        counted = _counting_expv(monkeypatch)
        rhos = engine.evolve(rho0, np.linspace(0.0, 1.0, 4))
        assert counted == sizes
        if sizes == [450]:
            assert all(np.all(rho[odd] == 0) for rho in rhos[1:])

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.5, 4), np.array([0.0, 0.2, 0.9, 1.5])])
    @pytest.mark.parametrize("fock_dim", [5, 6])
    def test_krylov_evolves_only_the_occupied_sector(self, rng, monkeypatch, fock_dim, times):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 2, 5), fock_dim=fock_dim)
        rho0 = np.kron(oracle.fock_thermal(0.3, fock_dim), oracle.fock_squeezed_vacuum(0.2, fock_dim))
        sizes = _counting_expv(monkeypatch)
        got = engine.evolve(rho0, times)
        # the states |m1 m2><n1 n2| with m1 + m2 + n1 + n2 even
        levels = np.add.outer(np.arange(fock_dim), np.arange(fock_dim)).reshape(-1)
        even = np.add.outer(levels, levels).reshape(-1) % 2 == 0
        assert sizes == [even.sum()]
        full = engine.superoperator()
        vec, ref = rho0.reshape(-1), [rho0]
        for dt in np.diff(times):
            vec = expm_multiply(full * dt, vec)
            ref.append(vec.reshape(engine.dim, engine.dim))
        for a, b in zip(got, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            assert np.all(a.reshape(-1)[~even] == 0)

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 4), np.array([0.0, 0.5, 1.0, 1.25]),
                                       np.array([0.4, 2.0])])
    def test_zero_state_stays_zero(self, rng, times):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=5)
        rhos = engine.evolve(np.zeros((5, 5)), times)
        assert len(rhos) == times.size
        assert all(np.all(rho == 0) for rho in rhos)

    def test_single_time_returns_rho0(self, rng):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=5)
        rho0 = _off_diagonal_plus_density(rng, engine.dim)
        rhos = engine.evolve(rho0, [0.5])
        assert len(rhos) == 1
        assert np.array_equal(rhos[0], rho0)

    def test_returned_states_do_not_alias(self, rng):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=8)
        rhos = engine.evolve(oracle.random_density(rng, engine.dim), np.linspace(0.0, 1.0, 4))
        kept = rhos[2].copy()
        rhos[1][...] = 0.0
        assert np.array_equal(rhos[2], kept)
        for i in range(len(rhos)):
            for j in range(i):
                assert not np.shares_memory(rhos[i], rhos[j])

    @pytest.mark.parametrize("times,steps", [(np.linspace(0.0, 1.0, 4), 1),
                                             (np.array([0.0, 0.2, 0.25, 0.9, 1.0]), 1),
                                             (np.linspace(-1.0, 0.5, 31), 2)])
    def test_grid_points_inside_a_step_add_no_products(self, rng, monkeypatch, times, steps):
        # the 36 coordinates of fock_dim 6 take one Arnoldi step to t = 1 here, two to t = 1.5
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.2),
                                           fock_dim=6)
        rho0 = oracle.random_density(rng, engine.dim)
        sizes = _counting_products(monkeypatch)
        ends = engine.evolve(rho0, times[[0, -1]])
        assert len(sizes) == steps * (oracle._KRYLOV_DIM + 1)
        got = engine.evolve(rho0, times)
        assert len(sizes) == 2 * steps * (oracle._KRYLOV_DIM + 1)
        assert np.array_equal(got[-1], ends[-1])
        ref = _full_exponential_evolution(engine, rho0, times)
        for a, b in zip(got, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("times", [np.linspace(0.0, 6.0, 4),
                                       np.array([0.0, 0.1, 2.5, 2.6, 6.0])])
    @pytest.mark.parametrize("rho0_of", [lambda rng, d: oracle.random_density(rng, d),
                                         _off_diagonal_plus_density],
                             ids=["hermitian", "non_hermitian"])
    def test_krylov_steps_match_full_exponential(self, rng, monkeypatch, rho0_of, times):
        # fock_dim 12 to t = 6 takes several Arnoldi steps
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.2),
                                           fock_dim=12)
        rho0 = rho0_of(rng, engine.dim)
        sizes = _counting_products(monkeypatch)
        got = engine.evolve(rho0, times)
        assert len(sizes) > 2 * (oracle._KRYLOV_DIM + 1)
        ref = _full_exponential_evolution(engine, rho0, times)
        for a, b in zip(got, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("n", [1, 2, 5, 28, 40])
    def test_expv_matches_expm_on_small_matrices(self, rng, n):
        # up to n = 28 the Krylov space is the whole space: a breakdown at its last vector,
        # after n products, and one step to the end
        a = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
        vec = rng.standard_normal(n)
        times = np.array([0.0, 0.3, 1.0, 2.5])
        calls = []
        got = oracle._expv(lambda c: calls.append(1) or a @ c, vec, times)
        if n <= oracle._KRYLOV_DIM:
            assert len(calls) == n
        for t, state in zip(times[1:], got, strict=True):
            ref = expm(a * t) @ vec
            assert np.max(np.abs(state - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_vacuum_under_pure_loss_is_an_exact_breakdown(self, monkeypatch):
        # R applied to the vacuum is exactly zero: one product, and the vacuum at every time
        engine = oracle.DenseBosonicEngine(damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.0),
                                           fock_dim=8)
        sizes = _counting_products(monkeypatch)
        rhos = engine.evolve(engine.vacuum(), [0.0, 1.0, 2.5, 40.0])
        assert len(sizes) == 1
        assert all(np.array_equal(rho, engine.vacuum()) for rho in rhos)

    def test_step_beyond_the_rejection_limit_raises(self, rng, monkeypatch):
        # the first trial step, at ||H||_1 tau = _STEP_REACH, is far beyond the tolerance
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=12)
        monkeypatch.setattr(oracle, "_MAX_REJECTIONS", 0)
        with pytest.raises(NumericalError, match="error estimate") as info:
            engine.evolve(oracle.random_density(rng, engine.dim), [0.0, 100.0])
        assert info.value.residual > 0


_ENGINES = {
    "bosonic": lambda m: oracle.DenseBosonicEngine(m, fock_dim=6),
    "fermionic": oracle.DenseFermionicEngine,
}


def _random_model(rng, flavor):
    if flavor == "bosonic":
        return random_bosonic_model(rng, 1, 3)
    return random_fermionic_model(rng, 2, 3)


class TestEngineValidation:
    """The engines build from validated models, with the Hermitian part of Gamma."""

    @staticmethod
    def _with_gamma(m, gamma):
        return model.GeneralizedLindbladModel(m.flavor, m.n_modes, m.hamiltonian, m.f, gamma)

    @pytest.mark.parametrize("defect", ["non_hermitian", "negative_eigenvalue"])
    @pytest.mark.parametrize("flavor", list(_ENGINES))
    def test_gamma_beyond_validation_slack_raises(self, rng, flavor, defect):
        m = _random_model(rng, flavor)
        gamma = m.gamma.copy()
        if defect == "non_hermitian":
            gamma[0, 2] += 1e-6
            match = "not Hermitian"
        else:
            gamma -= (np.linalg.eigvalsh(gamma).min() + 1e-6) * np.eye(3)
            match = "negative eigenvalue"
        with pytest.raises(PositivityError, match=match):
            _ENGINES[flavor](self._with_gamma(m, gamma))

    @pytest.mark.parametrize("flavor", list(_ENGINES))
    def test_gamma_inside_slack_is_taken_hermitian(self, rng, flavor):
        m = _random_model(rng, flavor)
        gamma = m.gamma.copy()
        gamma[0, 2] += 1e-12
        engine = _ENGINES[flavor](self._with_gamma(m, gamma))
        assert np.array_equal(engine.gamma, engine.gamma.conj().T)
        assert np.max(np.abs(engine.gamma - gamma)) <= 1e-12

    @pytest.mark.parametrize("flavor", list(_ENGINES))
    def test_generator_is_real_on_the_hermitian_basis(self, rng, flavor):
        engine = _ENGINES[flavor](_random_model(rng, flavor))
        basis = _hermitian_basis(engine.dim)
        d2 = engine.dim ** 2
        assert np.max(np.abs((basis.conj().T @ basis).toarray() - np.eye(d2))) <= 1e-15
        real = (basis.conj().T @ engine.superoperator() @ basis).toarray()
        assert np.max(np.abs(real.imag)) <= 1e-13 * np.max(np.abs(real))
        # a Hermitian matrix has real coordinates; i times one has imaginary ones
        rho = oracle.random_density(rng, engine.dim)
        rho = 0.5 * (rho + rho.conj().T)
        coords = basis.conj().T @ rho.reshape(-1)
        assert np.all(coords.imag == 0)
        assert np.all((basis.conj().T @ (1j * rho).reshape(-1)).real == 0)


def _hermitian_basis(dim: int) -> sp.csr_matrix:
    """Unitary U from real coordinates to the row-major vec(rho) of a Hermitian rho.

    Each coordinate sits at the index of one |m><n|: z = rho_mm on the
    diagonal, x = sqrt(2) Re rho_mn at m < n and y = sqrt(2) Im rho_mn at the
    transposed index. The columns are an orthonormal basis of Hermitian
    matrices, built entry by entry as the reference for the engines' real
    generator.
    """
    size = dim * dim
    u = np.zeros((size, size), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    for m in range(dim):
        u[m * dim + m, m * dim + m] = 1.0
        for n in range(m + 1, dim):
            x, y = m * dim + n, n * dim + m
            u[x, x], u[y, x] = s, s             # (|m><n| + |n><m|) / sqrt 2
            u[x, y], u[y, y] = 1j * s, -1j * s  # i (|m><n| - |n><m|) / sqrt 2
    return sp.csr_matrix(u)


def _engine(rng, flavor, n_modes, fock_dim=None):
    if flavor == "bosonic":
        return oracle.DenseBosonicEngine(random_bosonic_model(rng, n_modes, 2 * n_modes + 1),
                                         fock_dim=fock_dim)
    return oracle.DenseFermionicEngine(random_fermionic_model(rng, n_modes))


class TestRealGenerator:
    """The rows m <= n of S, on the real coordinates of transposition-closed unions."""

    @pytest.mark.parametrize("flavor,n_modes,fock_dim", [
        *(("bosonic", n, d) for n in (1, 2) for d in (4, 5, 6)),
        *(("fermionic", n, None) for n in (1, 2, 3)),
    ])
    def test_product_matches_reference(self, rng, flavor, n_modes, fock_dim):
        engine = _engine(rng, flavor, n_modes, fock_dim)
        terms = engine._superoperator_terms()
        sup = engine.superoperator()
        basis = _hermitian_basis(engine.dim)
        ref = (basis.conj().T @ sup @ basis).toarray()
        for idx in _unions(engine):
            gen = oracle._RealGenerator(terms, engine.dim, idx)
            assert gen.rows.shape == (gen.n_rows, idx.size)     # the rows m <= n only
            order = np.concatenate([gen.diag, gen.upper, gen.lower])
            assert np.array_equal(np.sort(order), idx)
            block = ref[np.ix_(order, order)]
            tol = 1e-14 * np.max(np.abs(sup.data))
            assert np.max(np.abs(gen.product(np.eye(idx.size)) - block.real)) <= tol

    @pytest.mark.parametrize("build", [
        lambda rng: oracle.DenseBosonicEngine(random_bosonic_model(rng, 2), fock_dim=5),
        lambda rng: oracle.DenseBosonicEngine(_squeezing_only_model(), fock_dim=12),
        lambda rng: oracle.DenseFermionicEngine(_dark_third_mode_model(rng)),
        # G = -i omega (n + 1/2) - K / 2 is diagonal: every level is its own component of G
        lambda rng: oracle.DenseBosonicEngine(
            damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.2), fock_dim=8),
    ], ids=["bosonic", "squeezing_only", "fermionic_dark", "diagonal_g"])
    def test_term_unions_match_the_whole_matrix(self, rng, build):
        engine = build(rng)
        got = _unions(engine)
        ref = _matrix_unions(engine.superoperator(), swap=True)
        assert sorted(map(tuple, got)) == sorted(map(tuple, ref))

    @pytest.mark.parametrize("perturbation,columns", [(1e-19, 1), (1e-6, 2)])
    def test_anti_hermitian_part_below_the_floor_is_zero(self, rng, monkeypatch, perturbation,
                                                         columns):
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=6)
        # |0><2| lies in the occupied even sector; the diagonal state stores 1e-19 there exactly
        rho0 = oracle.fock_thermal(0.3, 6)
        rho0[0, 2] = perturbation
        calls = _counting_expv(monkeypatch)
        times = np.linspace(0.0, 1.0, 4)
        got = engine.evolve(rho0, times)
        assert len(calls) == columns
        hermitian = [np.array_equal(rho, rho.conj().T) for rho in got[1:]]
        assert hermitian == [columns == 1] * (times.size - 1)
        dense = engine.superoperator().toarray()
        for t, rho in zip(times, got):
            ref = (expm(dense * t) @ rho0.reshape(-1)).reshape(engine.dim, engine.dim)
            assert np.max(np.abs(rho - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestDenseFermionicEngine:
    def test_anticommutator_self_test_passes(self):
        # the engine takes 1..5 modes and trusts this identity without re-checking it
        for n_modes in (1, 2, 3, 4, 5):
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
        rhos = engine.evolve(engine.maximally_mixed(), times)
        for t, rho in zip(times, rhos):
            sigma = engine.extract_sigma(rho)
            assert sigma[0, 1] == pytest.approx(1.0 - np.exp(-gamma * t), abs=1e-10)

    def test_covariance_engine_agreement_random_model(self, rng):
        m = random_fermionic_model(rng, 3)
        engine = oracle.DenseFermionicEngine(m)
        dd = fermionic.build_drift_diffusion(m)
        times = np.linspace(0.0, 3.0, 7)
        rho0 = engine.maximally_mixed()
        rhos = engine.evolve(rho0, times)
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

    @pytest.mark.parametrize("fock_dim", [6, 9])   # dense (dim 36) and sparse (dim 81) storage
    def test_adjoint_traces_match_matrix_products(self, rng, monkeypatch, fock_dim):
        # a map that is not the adjoint gives an O(1) deviation: both ways of taking it agree
        engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 2), fock_dim=fock_dim)
        obs = oracle.random_density(rng, engine.dim)
        obs = obs + obs.conj().T
        rho = oracle.random_density(rng, engine.dim)
        monkeypatch.setattr(engine, "liouvillian_adjoint", engine.liouvillian)
        ref = abs(np.trace(obs @ engine.liouvillian(rho)) - np.trace(engine.liouvillian(obs) @ rho))
        assert ref > 1e-3
        assert oracle.adjoint_consistency_check(engine, obs, rho) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n_modes, fock_dim", [(1, 24), (2, 9)])
    def test_adjoint_reproduces_mean_drift(self, n_modes, fock_dim):
        # two modes at fock_dim 9 (dim 81) store x_ops sparse
        m = (damped_oscillator_model(gamma=0.5, omega=2.0) if n_modes == 1
             else random_bosonic_model(np.random.default_rng(5), 2))
        engine = oracle.DenseBosonicEngine(m, fock_dim=fock_dim)
        dd = bosonic.build_drift_diffusion(m)
        # displaced state with nonzero mean, supported well below truncation
        rho = oracle._supported_density(np.random.default_rng(2), engine, fock_dim // 3)
        mean, _ = engine.extract_mean_and_v(rho)
        drift = [np.trace(engine.liouvillian_adjoint(x) @ rho).real for x in engine.x_ops]
        np.testing.assert_allclose(drift, dd.a @ mean, atol=1e-8)

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
