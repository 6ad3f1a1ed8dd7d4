"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line with the measured figure of merit when it
succeeds (run with -s or -rP to see them).
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

import glme
from glme import bosonic, entanglement, fermionic, model, oracle, reservoir
from glme.lyapunov import spectral_abscissa as lyapunov_abscissa

from conftest import (
    bell_pair_sigma,
    damped_oscillator_model,
    random_bosonic_model,
    random_fermionic_model,
    random_physical_sigma,
    random_physical_v,
    random_stable_bosonic,
    tmsv_cov,
)


def _report(n, label, detail):
    print(f"ACCEPTANCE {n} PASS - {label}: {detail}")


def test_criterion_1_generalized_standard_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for i in range(100):
        n_modes = int(rng.integers(1, 4))
        n_channels = int(rng.integers(1, 7))
        if i % 2 == 0:
            m = random_bosonic_model(rng, n_modes, n_channels)
            dd = bosonic.build_drift_diffusion(m)
            sf = model.to_standard_form(m.gamma, m.f)
            m2 = glme.GeneralizedLindbladModel(
                "bosonic", n_modes, m.hamiltonian, sf.operator_rows,
                np.diag(sf.rates).astype(complex),
            )
            dd2 = bosonic.build_drift_diffusion(m2)
            worst = max(worst, np.max(np.abs(dd.a - dd2.a)), np.max(np.abs(dd.d - dd2.d)))
        else:
            m = random_fermionic_model(rng, n_modes, n_channels)
            dd = fermionic.build_drift_diffusion(m)
            sf = model.to_standard_form(m.gamma, m.f)
            m2 = glme.GeneralizedLindbladModel(
                "fermionic", n_modes, m.hamiltonian, sf.operator_rows,
                np.diag(sf.rates).astype(complex),
            )
            dd2 = fermionic.build_drift_diffusion(m2)
            worst = max(worst, np.max(np.abs(dd.x - dd2.x)), np.max(np.abs(dd.y - dd2.y)))
    elapsed = time.monotonic() - started
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(1, "generalized vs standard-form drift/diffusion",
            f"max deviation {worst:.3e} over 100 models in {elapsed:.2f}s")


def test_criterion_2_damped_oscillator_closed_forms():
    started = time.monotonic()
    omega_block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    worst_matrix = 0.0
    worst_residual = 0.0
    for gamma in (0.5, 2.0):
        for omega in (0.0, 1.0, 2.0):
            for nbar in (0.0, 0.5, 2.0):
                dd = bosonic.build_drift_diffusion(
                    damped_oscillator_model(gamma=gamma, omega=omega, nbar=nbar)
                )
                a_ref = -(gamma / 2.0) * np.eye(2) + omega * omega_block
                d_ref = gamma * (2.0 * nbar + 1.0) * np.eye(2)
                worst_matrix = max(worst_matrix, np.max(np.abs(dd.a - a_ref)),
                                   np.max(np.abs(dd.d - d_ref)))
                state = bosonic.steady_state(dd)
                worst_matrix = max(worst_matrix,
                                   np.max(np.abs(state.v - (2.0 * nbar + 1.0) * np.eye(2))))
                residual = np.max(np.abs(dd.a @ state.v + state.v @ dd.a.T + dd.d))
                worst_residual = max(worst_residual, residual)
    elapsed = time.monotonic() - started
    assert worst_matrix <= 1e-10
    assert worst_residual <= 1e-10
    assert elapsed < 1.0
    _report(2, "damped-oscillator closed forms",
            f"max matrix deviation {worst_matrix:.3e}, max residual {worst_residual:.3e}, "
            f"{elapsed:.2f}s")


def _squeezed_thermal_initial(rng, n_modes, dim, nbar_max, r_max):
    """Dense product state plus its exact covariance for the dense comparison."""
    rhos, blocks = [], []
    for _ in range(n_modes):
        nbar = float(rng.uniform(0.0, nbar_max))
        r = float(rng.uniform(-r_max, r_max))
        a = oracle._destroy(dim)
        squeeze = expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
        rhos.append(squeeze @ oracle.fock_thermal(nbar, dim) @ squeeze.conj().T)
        blocks.append(np.diag([np.exp(-2 * r) * (2 * nbar + 1), np.exp(2 * r) * (2 * nbar + 1)]))
    rho = rhos[0]
    for extra in rhos[1:]:
        rho = np.kron(rho, extra)
    v0 = np.zeros((2 * n_modes, 2 * n_modes))
    for j, block in enumerate(blocks):
        v0[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    return rho, v0


def _max_mode_occupation(v):
    occupations = [(v[2 * j, 2 * j] + v[2 * j + 1, 2 * j + 1] - 2.0) / 4.0
                   for j in range(v.shape[0] // 2)]
    return max(occupations)


def _cool_stable_bosonic(rng, n_modes, times, v0, nbar_cap):
    """Stable random model whose trajectory stays below the occupation cap,
    so the Fock truncation of the dense run is negligible."""
    while True:
        m, dd = random_stable_bosonic(rng, n_modes, norm_cap=1.0)
        v_ss = bosonic.steady_state(dd).v
        if _max_mode_occupation(v_ss) >= nbar_cap:
            continue
        dense_grid = np.linspace(times[0], times[-1], 21)
        traj = bosonic.propagate_covariance(dd, v0, dense_grid)
        if max(_max_mode_occupation(s.v) for s in traj.states) < nbar_cap:
            return m, dd


@pytest.mark.slow
def test_criterion_3_dense_oracle_moment_closure():
    rng = np.random.default_rng(303)
    started = time.monotonic()
    times = np.linspace(0.0, 5.0, 6)
    worst_bosonic = 0.0
    for i in range(20):
        n_modes = 2 if i < 4 else 1
        fock_dim = 16 if n_modes == 2 else 30
        nbar_cap = 0.15 if n_modes == 2 else 0.35
        rho0, v0 = _squeezed_thermal_initial(
            rng, n_modes, fock_dim,
            nbar_max=0.08 if n_modes == 2 else 0.15,
            r_max=0.08 if n_modes == 2 else 0.15,
        )
        m, dd = _cool_stable_bosonic(rng, n_modes, times, v0, nbar_cap)
        if n_modes == 1:
            engine = oracle.DenseBosonicEngine(m, fock_dim=fock_dim)
            method = "expm"
        else:
            engine = oracle.DenseBosonicEngine(m, fock_dim=fock_dim, mix_channels=True)
            method = "krylov"
        rhos = engine.evolve(rho0, times, method=method)
        traj = bosonic.propagate_covariance(dd, v0, times)
        for rho, state in zip(rhos, traj.states):
            engine.check_truncation(rho)
            mean, v = engine.extract_mean_and_v(rho)
            worst_bosonic = max(worst_bosonic, np.max(np.abs(v - state.v)),
                                np.max(np.abs(mean - state.mean)))
    worst_fermionic = 0.0
    for i in range(20):
        n_modes = int(rng.integers(1, 4))
        m = random_fermionic_model(rng, n_modes)
        engine = oracle.DenseFermionicEngine(m)
        dd = fermionic.build_drift_diffusion(m)
        sigma0 = random_physical_sigma(rng, n_modes, lam_max=0.8)
        rho0 = oracle.fermionic_gibbs_state(fermionic.covariance_to_gibbs(sigma0), n_modes)
        rhos = engine.evolve(rho0, times, method="expm")
        states = fermionic.propagate_covariance(dd, sigma0, times)
        for rho, state in zip(rhos, states):
            worst_fermionic = max(worst_fermionic,
                                  np.max(np.abs(engine.extract_sigma(rho) - state.sigma)))
    elapsed = time.monotonic() - started
    assert worst_bosonic <= 1e-6
    assert worst_fermionic <= 1e-6
    assert elapsed < 180.0
    _report(3, "dense density-matrix vs covariance trajectories",
            f"bosonic {worst_bosonic:.3e}, fermionic {worst_fermionic:.3e}, {elapsed:.1f}s")


def test_criterion_4_lyapunov_solution_identity():
    rng = np.random.default_rng(404)
    # central finite differences of the closed-form solution against the ODE
    orders = []
    for _ in range(3):
        _, dd = random_stable_bosonic(rng, 2, norm_cap=1.5)
        v0 = random_physical_v(rng, 2)

        def v_at(t):
            return bosonic.propagate_covariance(dd, v0, [0.0, t]).states[1].v

        t_probe = 0.7
        v_t = v_at(t_probe)
        rhs = dd.a @ v_t + v_t @ dd.a.T + dd.d
        errors = []
        for h in (0.08, 0.04):
            fd = (v_at(t_probe + h) - v_at(t_probe - h)) / (2.0 * h)
            errors.append(np.max(np.abs(fd - rhs)))
        orders.append(np.log2(errors[0] / errors[1]))
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.1)

    times = np.linspace(0.0, 5.0, 501)
    worst = 0.0
    for _ in range(3):
        n_modes = int(rng.integers(1, 3))
        _, dd = random_stable_bosonic(rng, n_modes, norm_cap=1.0)
        v0 = random_physical_v(rng, n_modes)
        exact = bosonic.propagate_covariance(dd, v0, times, method="exact")
        rk4 = bosonic.propagate_covariance(dd, v0, times, method="rk4")
        worst = max(worst, max(np.max(np.abs(a.v - b.v))
                               for a, b in zip(exact.states, rk4.states)))
    assert worst <= 1e-8
    _report(4, "closed-form solution satisfies the ODE",
            f"FD orders {[f'{o:.3f}' for o in orders]}, exact vs rk4 {worst:.3e}")


def test_criterion_5_physicality_preservation():
    rng = np.random.default_rng(505)
    times = np.linspace(0.0, 4.0, 50)
    worst_bosonic = 0.0
    for _ in range(100):
        n_modes = int(rng.integers(1, 3))
        m = random_bosonic_model(rng, n_modes)
        dd = bosonic.build_drift_diffusion(m)
        # keep exponential growth bounded so the absolute eigenvalue
        # tolerance stays resolvable in double precision
        abscissa = lyapunov_abscissa(dd.a)
        if abscissa > 0.3:
            factor = 0.3 / abscissa
            m = glme.GeneralizedLindbladModel(
                "bosonic", n_modes, factor * m.hamiltonian, m.f, factor * m.gamma
            )
            dd = bosonic.build_drift_diffusion(m)
        v0 = random_physical_v(rng, n_modes)
        traj = bosonic.propagate_covariance(dd, v0, times)
        for state in traj.states:
            _, min_eig = bosonic.check_physicality(state.v)
            worst_bosonic = min(worst_bosonic, min_eig)
    worst_fermionic = 0.0
    for _ in range(100):
        n_modes = int(rng.integers(1, 4))
        m = random_fermionic_model(rng, n_modes)
        dd = fermionic.build_drift_diffusion(m)
        sigma0 = random_physical_sigma(rng, n_modes)
        states = fermionic.propagate_covariance(dd, sigma0, times)
        for state in states:
            _, max_lam = fermionic.check_physicality(state.sigma)
            worst_fermionic = max(worst_fermionic, max_lam)
    assert worst_bosonic >= -1e-8
    assert worst_fermionic <= 1.0 + 1e-8
    _report(5, "physicality preserved on 200 random models x 50 times",
            f"min uncertainty eigenvalue {worst_bosonic:.3e}, "
            f"max mode magnitude {worst_fermionic:.12f}")


def test_criterion_6_entanglement_measures():
    rng = np.random.default_rng(606)
    # two-mode squeezing, analytic path
    worst_logneg = max(
        abs(entanglement.log_negativity_bosonic(tmsv_cov(r)).value - 2.0 * r)
        for r in (0.1, 0.25, 0.5, 1.0)
    )
    assert worst_logneg <= 1e-9
    # against the dense Fock partial-transpose oracle
    worst_dense_b = 0.0
    for r in (0.2, 0.35, 0.5):
        dense = oracle.dense_negativity_bosonic(oracle.fock_tmsv(r, 16), (16, 16))
        analytic = entanglement.log_negativity_bosonic(tmsv_cov(r)).value
        worst_dense_b = max(worst_dense_b, abs(dense - analytic))
    assert worst_dense_b <= 1e-3
    # collective-quadrature variance closed form
    worst_duan = max(
        abs(entanglement.duan_bosonic(bosonic.GaussianState(np.zeros(4), tmsv_cov(r)),
                                      1.0, -1.0).quantity - 2.0 * np.exp(-2.0 * r))
        for r in (0.1, 0.5, 1.0)
    )
    assert worst_duan <= 1e-12
    # maximally entangled fermion pair against the dense time-reversal oracle
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    dense_bell = oracle.dense_negativity_fermionic(np.outer(psi, psi.conj()))
    cov_bell = entanglement.log_negativity_fermionic(bell_pair_sigma()).value
    assert cov_bell == pytest.approx(np.log(2.0), abs=1e-8)
    assert dense_bell == pytest.approx(np.log(2.0), abs=1e-12)
    # random two-mode states against the dense oracle
    worst_dense_f = 0.0
    for _ in range(200):
        sigma = random_physical_sigma(rng, 2, lam_max=0.95)
        value = entanglement.log_negativity_fermionic(sigma).value
        rho = oracle.fermionic_gibbs_state(fermionic.covariance_to_gibbs(sigma), 2)
        worst_dense_f = max(worst_dense_f, abs(value - oracle.dense_negativity_fermionic(rho)))
    assert worst_dense_f <= 1e-6
    _report(6, "entanglement measures",
            f"TMSV analytic {worst_logneg:.2e}, vs dense {worst_dense_b:.2e}, "
            f"Duan {worst_duan:.2e}, Bell ln2 ok, fermionic vs dense {worst_dense_f:.2e}")


def test_criterion_7_fermionic_duan_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        sigma = random_physical_sigma(rng, 2)
        alpha = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(-2.0, 2.0))
        result = entanglement.duan_fermionic(sigma, alpha, beta)
        worst = max(worst, abs(result.quantity - (alpha ** 2 + beta ** 2)))
        assert not result.entangled_flag
    assert worst <= 1e-12
    _report(7, "fermionic collective-variance identity",
            f"max |quantity - bound| = {worst:.3e} over 100 states")


def test_criterion_8_assembler_pipeline():
    omega1, kappa, nbar = 2.0, 0.5, 0.25
    table = reservoir.CouplingTable(
        n_modes=1, mode_frequencies=[omega1],
        terms=(reservoir.CouplingTerm(0, 0, "-", 1.0, 0.0),),
    )
    spectral = reservoir.SpectralFunctions.flat(kappa=kappa, nbar=nbar)
    built = reservoir.assemble_model(table, spectral)
    dd = bosonic.build_drift_diffusion(built)
    gamma_eff = kappa
    a_ref = -(gamma_eff / 2.0) * np.eye(2) + omega1 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    d_ref = gamma_eff * (2.0 * nbar + 1.0) * np.eye(2)
    dev_ad = max(np.max(np.abs(dd.a - a_ref)), np.max(np.abs(dd.d - d_ref)))
    assert dev_ad <= 1e-12

    rng = np.random.default_rng(808)
    freqs = rng.uniform(0.5, 2.0, size=3)
    terms = []
    for mode in range(3):
        for channel in range(2):
            for sign in ("+", "-"):
                terms.append(reservoir.CouplingTerm(
                    mode, channel, sign,
                    c=float(rng.uniform(0.1, 1.0)),
                    omega=float(rng.choice([0.0, freqs[mode], 1.0])),
                ))
    messy = reservoir.CouplingTable(3, freqs, tuple(terms))
    spectral_c = reservoir.SpectralFunctions(
        s1=lambda f: 0.3 + 0.1j * np.sin(f), s2=lambda f: 0.1 + 0.02j * np.cos(f)
    )
    rates = reservoir.assemble_rates(messy, spectral_c)
    sym_defect = rates.symmetry_defect()
    assert sym_defect <= 1e-12

    shared = reservoir.CouplingTable(
        n_modes=2, mode_frequencies=[1.5, 1.5],
        terms=(reservoir.CouplingTerm(0, 0, "-", 1.0, 0.0),
               reservoir.CouplingTerm(1, 0, "-", 1.0, 0.0)),
    )
    built_shared = reservoir.assemble_model(shared, reservoir.SpectralFunctions.flat(kappa=1.0))
    block = built_shared.gamma[:2, :2].real
    assert np.linalg.matrix_rank(block, tol=1e-10) == 1
    dd_shared = bosonic.build_drift_diffusion(built_shared)
    stable, abscissa = bosonic.is_hurwitz(dd_shared)
    assert not stable
    assert abs(abscissa) <= 1e-10
    _report(8, "microscopic assembler",
            f"flat-spectrum deviation {dev_ad:.3e}, rate symmetry defect {sym_defect:.3e}, "
            f"dark-mode abscissa {abscissa:.3e}")


def test_criterion_9_gibbs_roundtrip_and_purity():
    rng = np.random.default_rng(909)
    worst_roundtrip = 0.0
    for _ in range(100):
        n_modes = int(rng.integers(1, 5))
        sigma = random_physical_sigma(rng, n_modes, lam_max=0.95)
        kernel = fermionic.covariance_to_gibbs(sigma)
        back = fermionic.gibbs_to_covariance(kernel)
        worst_roundtrip = max(worst_roundtrip, np.max(np.abs(back.sigma - sigma)))
    assert worst_roundtrip <= 1e-10
    worst_purity = 0.0
    for n_modes in (1, 2, 3):
        for _ in range(5):
            sigma = random_physical_sigma(rng, n_modes, lam_max=0.9)
            rho = oracle.fermionic_gibbs_state(fermionic.covariance_to_gibbs(sigma), n_modes)
            tr_sq = float(np.trace(rho @ rho).real)
            worst_purity = max(worst_purity, abs(fermionic.purity(sigma) - tr_sq))
    assert worst_purity <= 1e-8
    _report(9, "thermal kernel roundtrip and purity",
            f"roundtrip {worst_roundtrip:.3e}, purity vs dense {worst_purity:.3e}")


def test_criterion_10_dissipator_and_adjoint_algebra():
    rng = np.random.default_rng(1010)
    a = oracle._destroy(10)
    worst_linearity = oracle.dissipator_linearity_check(a, a.conj().T, 1.0, 1.0)
    for _ in range(5):
        l_j = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        l_k = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        worst_linearity = max(worst_linearity,
                              oracle.dissipator_linearity_check(l_j, l_k, alpha, beta))
    assert worst_linearity <= 1e-12

    worst_adjoint = 0.0
    for flavor in ("bosonic", "fermionic"):
        if flavor == "bosonic":
            engine = oracle.DenseBosonicEngine(random_bosonic_model(rng, 1), fock_dim=12)
        else:
            engine = oracle.DenseFermionicEngine(random_fermionic_model(rng, 3))
        for _ in range(5):
            obs = oracle.random_density(rng, engine.dim)
            obs = obs + obs.conj().T
            state = oracle.random_density(rng, engine.dim)
            worst_adjoint = max(worst_adjoint,
                                oracle.adjoint_consistency_check(engine, obs, state))
    assert worst_adjoint <= 1e-12
    _report(10, "dissipator linearity and adjoint consistency",
            f"linearity {worst_linearity:.3e}, adjoint {worst_adjoint:.3e}")
