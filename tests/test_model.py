import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import glme
from glme import bosonic, fermionic, model, oracle
from glme.errors import PositivityError, StructuralError

from conftest import damped_oscillator_model, random_bosonic_model, random_fermionic_model


class TestSymplecticForm:
    def test_single_mode_block(self):
        np.testing.assert_array_equal(model.symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_direct_sum(self):
        omega = model.symplectic_form(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = [[0, 1], [-1, 0]]
        expected[2:, 2:] = [[0, 1], [-1, 0]]
        np.testing.assert_array_equal(omega, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orthogonal_and_squares_to_minus_identity(self, n):
        omega = model.symplectic_form(n)
        np.testing.assert_array_equal(omega @ omega.T, np.eye(2 * n))
        np.testing.assert_array_equal(omega @ omega, -np.eye(2 * n))
        np.testing.assert_array_equal(omega.T, -omega)

    def test_zero_modes_rejected(self):
        with pytest.raises(StructuralError):
            model.symplectic_form(0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_cached_read_only_array_per_mode_count(self, n):
        omega = model.symplectic_form(n)
        assert model.symplectic_form(n) is omega
        assert not omega.flags.writeable
        with pytest.raises(ValueError):
            omega[0, 0] = 1.0
        expected = np.zeros((2 * n, 2 * n))
        for j in range(n):
            expected[2 * j, 2 * j + 1] = 1.0
            expected[2 * j + 1, 2 * j] = -1.0
        assert omega.tobytes() == expected.tobytes()


class TestValidateModel:
    def test_diagonal_real_gamma_is_valid(self):
        m = damped_oscillator_model(gamma=1.0, omega=1.0, nbar=0.5)
        report = model.validate_model(m)
        assert report.is_valid
        assert report.hermitian_defect == 0.0

    def test_non_hermitian_gamma_reported(self):
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, np.eye(2),
            model.ladder_to_canonical(np.eye(2, dtype=complex), "bosonic"),
            np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex),
        )
        report = model.validate_model(m)
        assert report.hermitian_defect == pytest.approx(2.0)
        assert not report.is_valid

    def test_indefinite_gamma_reported(self):
        m = glme.GeneralizedLindbladModel(
            "bosonic", 1, np.eye(2),
            model.ladder_to_canonical(np.eye(2, dtype=complex), "bosonic"),
            np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex),
        )
        report = model.validate_model(m)
        assert report.min_gamma_eigenvalue == pytest.approx(-1.0)
        assert not report.is_valid

    def test_dimension_mismatch_names_matrix(self):
        with pytest.raises(StructuralError, match="Gamma"):
            glme.GeneralizedLindbladModel(
                "bosonic", 1, np.eye(2), np.ones((2, 2), dtype=complex),
                np.eye(3, dtype=complex),
            )
        with pytest.raises(StructuralError, match="F"):
            glme.GeneralizedLindbladModel(
                "bosonic", 2, np.eye(4), np.ones((2, 2), dtype=complex),
                np.eye(2, dtype=complex),
            )
        with pytest.raises(StructuralError, match="hamiltonian"):
            glme.GeneralizedLindbladModel(
                "bosonic", 1, np.eye(3), np.ones((2, 2), dtype=complex),
                np.eye(2, dtype=complex),
            )


class TestExactParts:
    @pytest.mark.parametrize("flavor", ["bosonic", "fermionic"])
    def test_builders_and_engines_read_only_the_exact_parts(self, rng, flavor):
        m = (random_bosonic_model if flavor == "bosonic" else random_fermionic_model)(rng, 1)
        ham, gamma = m.hamiltonian.copy(), m.gamma.copy()
        ham[0, 1] += 1e-12
        gamma[0, 1] += 1e-12j
        slack = glme.GeneralizedLindbladModel(flavor, 1, ham, m.f, gamma)
        ham_exact, gamma_exact = model.require_valid(slack)
        sign = 1.0 if flavor == "bosonic" else -1.0
        assert np.array_equal(ham_exact, sign * ham_exact.T)
        assert np.array_equal(gamma_exact, gamma_exact.conj().T)
        assert np.max(np.abs(ham_exact - ham)) <= 1e-12
        assert np.max(np.abs(gamma_exact - gamma)) <= 1e-12
        exact = glme.GeneralizedLindbladModel(flavor, 1, ham_exact, m.f, gamma_exact)
        module = bosonic if flavor == "bosonic" else fermionic
        for got, want in zip(vars(module.build_drift_diffusion(slack)).values(),
                             vars(module.build_drift_diffusion(exact)).values()):
            assert np.array_equal(got, want)
        engine = oracle.DenseBosonicEngine if flavor == "bosonic" else oracle.DenseFermionicEngine
        kwargs = {"fock_dim": 4} if flavor == "bosonic" else {}
        built = [engine(x, **kwargs) for x in (slack, exact)]
        assert np.array_equal(built[0].gamma, built[1].gamma)
        assert np.array_equal(built[0].hamiltonian_op, built[1].hamiltonian_op)


class TestSplitNonHermitian:
    def test_hermitian_input_passes_through(self):
        gamma = np.array([[2.0, 1j], [-1j, 3.0]])
        herm, anti = model.split_non_hermitian(gamma)
        np.testing.assert_allclose(herm, gamma)
        np.testing.assert_allclose(anti, np.zeros((2, 2)))

    def test_nilpotent_example(self):
        gamma = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        herm, anti = model.split_non_hermitian(gamma)
        np.testing.assert_allclose(herm, [[0.0, 0.5], [0.5, 0.0]])
        np.testing.assert_allclose(anti, [[0.0, 0.5], [-0.5, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(StructuralError):
            model.split_non_hermitian(np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6))
    def test_parts_structure_and_reconstruction(self, seed, size):
        rng = np.random.default_rng(seed)
        gamma = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        herm, anti = model.split_non_hermitian(gamma)
        assert np.max(np.abs(herm - herm.conj().T)) <= 1e-14
        assert np.max(np.abs(anti + anti.conj().T)) <= 1e-14
        # halves recombine to within a rounding unit per real component
        err = np.abs(herm + anti - gamma)
        assert np.all(err <= 2.0 * np.spacing(np.abs(gamma) + 1.0))


class TestToStandardForm:
    def test_diagonal_gamma_keeps_rows(self):
        gamma = np.diag([0.25, 1.5]).astype(complex)
        f = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        sf = model.to_standard_form(gamma, f)
        np.testing.assert_allclose(sf.rates, [1.5, 0.25])
        np.testing.assert_allclose(np.abs(sf.operator_rows), [[0.0, 1.0], [1.0, 0.0]])

    def test_rank_one_gamma(self):
        g = 0.7
        gamma = g * np.ones((2, 2), dtype=complex)
        f = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        sf = model.to_standard_form(gamma, f)
        np.testing.assert_allclose(sf.rates, [2.0 * g, 0.0], atol=1e-14)
        expected = (f[0] + f[1]) / np.sqrt(2.0)
        phase = sf.operator_rows[0, 0] / expected[0]
        np.testing.assert_allclose(sf.operator_rows[0], phase * expected, atol=1e-14)
        assert abs(abs(phase) - 1.0) < 1e-14

    def test_negative_eigenvalue_rejected(self):
        gamma = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        with pytest.raises(PositivityError):
            model.to_standard_form(gamma, np.eye(2, dtype=complex))

    def test_small_negative_clamped_to_zero(self):
        gamma = np.diag([1.0, -1e-12]).astype(complex)
        sf = model.to_standard_form(gamma, np.eye(2, dtype=complex))
        assert np.all(sf.rates >= 0.0)

    def test_non_hermitian_rejected(self):
        gamma = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(PositivityError, match="Hermitian"):
            model.to_standard_form(gamma, np.eye(2, dtype=complex))

    def test_drift_diffusion_cross_path(self, rng):
        # diagonalized channels must reproduce the same moment dynamics
        for _ in range(20):
            n_modes = int(rng.integers(1, 4))
            m = random_bosonic_model(rng, n_modes, int(rng.integers(1, 7)))
            dd = bosonic.build_drift_diffusion(m)
            sf = model.to_standard_form(m.gamma, m.f)
            m_diag = glme.GeneralizedLindbladModel(
                "bosonic", n_modes, m.hamiltonian, sf.operator_rows,
                np.diag(sf.rates).astype(complex),
            )
            dd_diag = bosonic.build_drift_diffusion(m_diag)
            assert np.max(np.abs(dd.a - dd_diag.a)) <= 1e-10
            assert np.max(np.abs(dd.d - dd_diag.d)) <= 1e-10

    def test_dense_dissipator_rebuild_matches(self, rng):
        # the diagonalized channel list must generate the same dense action
        m = random_bosonic_model(rng, 1, 3)
        engine = oracle.DenseBosonicEngine(m, fock_dim=8)
        sf = model.to_standard_form(m.gamma, m.f)
        m_diag = glme.GeneralizedLindbladModel(
            "bosonic", 1, m.hamiltonian, sf.operator_rows, np.diag(sf.rates).astype(complex)
        )
        engine_diag = oracle.DenseBosonicEngine(m_diag, fock_dim=8)
        rho = oracle.random_density(np.random.default_rng(5), engine.dim)
        out = engine.liouvillian(rho)
        out_diag = engine_diag.liouvillian(rho)
        assert np.max(np.abs(out - out_diag)) <= 1e-10


class TestLadderConversion:
    def test_bosonic_lowering_row(self):
        rows = model.ladder_to_canonical(np.array([[1.0, 0.0]], dtype=complex), "bosonic")
        np.testing.assert_allclose(rows, [[1 / np.sqrt(2), 1j / np.sqrt(2)]])

    def test_fermionic_lowering_row(self):
        rows = model.ladder_to_canonical(np.array([[1.0, 0.0]], dtype=complex), "fermionic")
        np.testing.assert_allclose(rows, [[1 / np.sqrt(2), -1j / np.sqrt(2)]])

    def test_odd_column_count_rejected(self):
        with pytest.raises(StructuralError):
            model.ladder_to_canonical(np.ones((1, 3), dtype=complex), "bosonic")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from(["bosonic", "fermionic"]))
    def test_round_trip_identity(self, seed, n_modes, flavor):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((3, 2 * n_modes)) + 1j * rng.standard_normal((3, 2 * n_modes))
        back = model.canonical_to_ladder(model.ladder_to_canonical(rows, flavor), flavor)
        assert np.max(np.abs(back - rows)) <= 1e-14
        forward = model.ladder_to_canonical(model.canonical_to_ladder(rows, flavor), flavor)
        assert np.max(np.abs(forward - rows)) <= 1e-14

    def test_transform_is_unitary(self):
        for flavor in ("bosonic", "fermionic"):
            t = model.ladder_transform(3, flavor)
            np.testing.assert_allclose(t @ t.conj().T, np.eye(6), atol=1e-15)


class TestScaleRelativeGates:
    """Scaling H and Gamma by c scales the drift and the diffusion by c and keeps the fixed point."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(["bosonic", "fermionic"]),
           st.integers(1, 2), st.booleans())
    def test_verdicts_do_not_depend_on_scale(self, seed, flavor, n_modes, indefinite):
        rng = np.random.default_rng(seed)
        module = bosonic if flavor == "bosonic" else fermionic
        draw = random_bosonic_model if flavor == "bosonic" else random_fermionic_model
        m = draw(rng, n_modes, damping=1.0)
        gamma = m.gamma
        if indefinite:
            eigs = np.linalg.eigvalsh(gamma)
            gamma = gamma - (eigs[0] + 0.1 * eigs[-1]) * np.eye(gamma.shape[0])

        def scaled(k):
            return glme.GeneralizedLindbladModel(flavor, n_modes, 10.0 ** k * m.hamiltonian,
                                                 m.f, 10.0 ** k * gamma)

        if indefinite:
            for k in range(-3, 4):
                assert not model.validate_model(scaled(k)).is_valid
            return
        dd = module.build_drift_diffusion(m)
        drift = dd.a if flavor == "bosonic" else dd.x
        stable, abscissa = module.is_hurwitz(dd)
        # HURWITZ_TOL is absolute: only drifts that clear it at every scale
        assume(abscissa <= -1e-3 * np.linalg.norm(drift, 2))
        ref = module.steady_state(dd)
        ref_x = ref.v if flavor == "bosonic" else ref.sigma
        physical, _ = module.check_physicality(ref_x)
        for k in range(-3, 4):
            assert model.validate_model(scaled(k)).is_valid
            dd_k = module.build_drift_diffusion(scaled(k))
            assert module.is_hurwitz(dd_k)[0] == stable
            state = module.steady_state(dd_k)
            x = state.v if flavor == "bosonic" else state.sigma
            assert np.max(np.abs(x - ref_x)) <= 1e-9 * np.max(np.abs(ref_x))
            assert module.check_physicality(x)[0] == physical
