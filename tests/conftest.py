"""Shared model and state generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import glme
from glme import bosonic, fermionic, model


def make_bosonic_model(n_modes, hamiltonian, f, gamma):
    return glme.GeneralizedLindbladModel(
        flavor="bosonic", n_modes=n_modes, hamiltonian=hamiltonian, f=f, gamma=gamma
    )


def make_fermionic_model(n_modes, hamiltonian, f, gamma):
    return glme.GeneralizedLindbladModel(
        flavor="fermionic", n_modes=n_modes, hamiltonian=hamiltonian, f=f, gamma=gamma
    )


def damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.0):
    """Single bosonic mode with ordinary thermal damping."""
    f = model.ladder_to_canonical(np.eye(2, dtype=complex), "bosonic")
    gam = np.diag([gamma * (nbar + 1.0), gamma * nbar]).astype(complex)
    return make_bosonic_model(1, omega * np.eye(2), f, gam)


def damped_modes_model(n_modes, gamma=0.5, omega=2.0, nbar=0.2):
    """``n_modes`` uncoupled copies of ``damped_oscillator_model``."""
    f = model.ladder_to_canonical(np.eye(2 * n_modes, dtype=complex), "bosonic")
    gam = np.diag([gamma * (nbar + 1.0)] * n_modes + [gamma * nbar] * n_modes).astype(complex)
    return make_bosonic_model(n_modes, omega * np.eye(2 * n_modes), f, gam)


def fermionic_decay_model(gamma=0.5, omega=0.0):
    """Single fermionic mode with plain decay."""
    g = np.array([[0.0, -omega], [omega, 0.0]])
    f = model.ladder_to_canonical(np.array([[1.0 + 0j, 0.0]]), "fermionic")
    return make_fermionic_model(1, g, f, np.array([[gamma]], dtype=complex))


def collective_decay_model(gamma=0.5, omega=0.0):
    """Two bosonic modes damped through one shared channel (dark mode)."""
    f = model.ladder_to_canonical(
        np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex), "bosonic"
    )
    ham = omega * np.eye(4)
    gam = gamma * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    return make_bosonic_model(2, ham, f, gam)


def near_dark_pair_model(eps):
    """Collective decay of two modes whose antisymmetric mode decays at eps / 2.

    F holds a1, a2, (q1 - q2)/sqrt(2) and (p1 - p2)/sqrt(2); Gamma is
    [[1 + eps, 1], [1, 1 + eps]] plus 0.05 on each dephasing row, and H = 0.
    """
    f = np.zeros((4, 4), dtype=complex)
    f[:2] = model.ladder_to_canonical(np.eye(4, dtype=complex), "bosonic")[:2]
    f[2, 0], f[2, 2] = np.sqrt(0.5), -np.sqrt(0.5)
    f[3, 1], f[3, 3] = np.sqrt(0.5), -np.sqrt(0.5)
    gam = np.zeros((4, 4), dtype=complex)
    gam[:2, :2] = [[1.0 + eps, 1.0], [1.0, 1.0 + eps]]
    gam[2, 2] = gam[3, 3] = 0.05
    return make_bosonic_model(2, np.zeros((4, 4)), f, gam)


def random_hermitian_psd(rng, size, scale=1.0):
    b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return scale * (b @ b.conj().T) / size


def random_bosonic_model(rng, n_modes, n_channels=None, scale=1.0, damping=0.0):
    """Random valid bosonic model (Hermitian PSD decoherence, symmetric H).

    ``damping`` > 0 appends one plain lowering channel per mode, which pushes
    the drift spectrum toward the stable half plane.
    """
    if n_channels is None:
        n_channels = 2 * n_modes
    n2 = 2 * n_modes
    h = rng.standard_normal((n2, n2))
    h = scale * 0.5 * (h + h.T)
    f = (rng.standard_normal((n_channels, n2)) + 1j * rng.standard_normal((n_channels, n2)))
    f = f / np.sqrt(n2)
    gamma = random_hermitian_psd(rng, n_channels, scale)
    if damping > 0:
        lowering = np.zeros((n_modes, 2 * n_modes), dtype=complex)
        lowering[:, ::2] = np.eye(n_modes)
        lowering[:, 1::2] = 1j * np.eye(n_modes)
        lowering /= np.sqrt(2.0)
        f = np.vstack([f, lowering])
        full = np.zeros((n_channels + n_modes,) * 2, dtype=complex)
        full[:n_channels, :n_channels] = gamma
        full[n_channels:, n_channels:] = damping * np.diag(rng.uniform(0.5, 1.0, n_modes))
        gamma = full
    return make_bosonic_model(n_modes, h, f, gamma)


def random_fermionic_model(rng, n_modes, n_channels=None, scale=1.0, damping=0.0):
    if n_channels is None:
        n_channels = 2 * n_modes
    n2 = 2 * n_modes
    g = rng.standard_normal((n2, n2))
    g = scale * 0.5 * (g - g.T)
    f = (rng.standard_normal((n_channels, n2)) + 1j * rng.standard_normal((n_channels, n2)))
    f = f / np.sqrt(n2)
    gamma = random_hermitian_psd(rng, n_channels, scale)
    if damping > 0:
        lowering = np.zeros((n_modes, 2 * n_modes), dtype=complex)
        lowering[:, ::2] = np.eye(n_modes)
        lowering[:, 1::2] = -1j * np.eye(n_modes)
        lowering /= np.sqrt(2.0)
        f = np.vstack([f, lowering])
        full = np.zeros((n_channels + n_modes,) * 2, dtype=complex)
        full[:n_channels, :n_channels] = gamma
        full[n_channels:, n_channels:] = damping * np.diag(rng.uniform(0.5, 1.0, n_modes))
        gamma = full
    return make_fermionic_model(n_modes, g, f, gamma)


def random_stable_bosonic(rng, n_modes, n_channels=None, norm_cap=None, max_tries=120):
    """Random bosonic model with a Hurwitz drift, optionally norm-limited.

    Scaling the Hamiltonian and the decoherence matrix by a common factor
    scales the drift and diffusion by the same factor, so the cap is applied
    by rescaling the model after a stable draw.
    """
    for attempt in range(max_tries):
        damping = 0.0 if attempt < 10 else 0.6 * (1 + attempt // 20)
        m = random_bosonic_model(rng, n_modes, n_channels, damping=damping)
        dd = bosonic.build_drift_diffusion(m)
        stable, _ = bosonic.is_hurwitz(dd)
        if not stable:
            continue
        if norm_cap is not None:
            factor = norm_cap / max(np.linalg.norm(dd.a, 2), norm_cap)
            m = make_bosonic_model(n_modes, factor * m.hamiltonian, m.f, factor * m.gamma)
            dd = bosonic.build_drift_diffusion(m)
        return m, dd
    raise RuntimeError("failed to draw a stable bosonic model")


def random_stable_fermionic(rng, n_modes, n_channels=None, norm_cap=None, max_tries=120):
    for attempt in range(max_tries):
        damping = 0.0 if attempt < 10 else 0.6 * (1 + attempt // 20)
        m = random_fermionic_model(rng, n_modes, n_channels, damping=damping)
        dd = fermionic.build_drift_diffusion(m)
        stable, _ = fermionic.is_hurwitz(dd)
        if not stable:
            continue
        if norm_cap is not None:
            factor = norm_cap / max(np.linalg.norm(dd.x, 2), norm_cap)
            m = make_fermionic_model(n_modes, factor * m.hamiltonian, m.f, factor * m.gamma)
            dd = fermionic.build_drift_diffusion(m)
        return m, dd
    raise RuntimeError("failed to draw a stable fermionic model")


def random_symplectic(rng, n_modes, scale=0.5):
    """Random symplectic matrix from a quadratic Hamiltonian flow."""
    from scipy.linalg import expm

    n2 = 2 * n_modes
    r = rng.standard_normal((n2, n2))
    r = scale * 0.5 * (r + r.T)
    return expm(model.symplectic_form(n_modes) @ r)


def random_physical_v(rng, n_modes, temp_scale=1.0):
    """Random physical bosonic covariance via a symplectic congruence."""
    s = random_symplectic(rng, n_modes)
    nus = 1.0 + temp_scale * rng.uniform(0.0, 1.0, size=n_modes)
    core = np.diag(np.repeat(nus, 2))
    return s @ core @ s.T


def random_physical_sigma(rng, n_modes, lam_max=0.95):
    """Random physical fermionic covariance via an orthogonal congruence."""
    from scipy.stats import ortho_group

    lams = rng.uniform(0.0, lam_max, size=n_modes)
    core = np.zeros((2 * n_modes, 2 * n_modes))
    for j, lam in enumerate(lams):
        core[2 * j, 2 * j + 1] = lam
        core[2 * j + 1, 2 * j] = -lam
    o = ortho_group.rvs(2 * n_modes, random_state=rng)
    return o @ core @ o.T


def tmsv_cov(r):
    """Two-mode squeezed vacuum covariance in the (q1, p1, q2, p2) ordering."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    v = c * np.eye(4)
    v[0, 2] = v[2, 0] = s
    v[1, 3] = v[3, 1] = -s
    return v


def bell_pair_sigma():
    """Majorana covariance of the maximally entangled two-fermion state."""
    sigma = np.zeros((4, 4))
    sigma[0, 3] = 1.0
    sigma[3, 0] = -1.0
    sigma[1, 2] = 1.0
    sigma[2, 1] = -1.0
    return sigma


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
