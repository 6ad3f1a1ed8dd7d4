"""Accuracy of the one-step Van Loan flows behind ``lyapunov.propagate``.

A symmetric drift a = U diag(lam) UT has the closed-form flow
E = U e^{lam h} UT and, with qt = UT q U,
M = U [qt_ij (e^{(lam_i + lam_j) h} - 1) / (lam_i + lam_j)] UT,
computed here with ``expm1``: an independent float64 reference that shares
no code with the Pade kernel.

The rest covers both sides of each choice the module makes: the jump from t0
against point-to-point stepping, the Kronecker fixed point against
Bartels-Stewart, and near-dark fixed points against an mpmath solve.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg

import glme
from glme import _util, bosonic, fermionic, lyapunov

from conftest import near_dark_pair_model


def _symmetric_drift(rng, lams):
    u, _ = np.linalg.qr(rng.standard_normal((lams.size, lams.size)))
    return u @ np.diag(lams) @ u.T, u


def _closed_form(u, lams, q, h):
    e = u @ np.diag(np.exp(lams * h)) @ u.T
    rates = lams[:, None] + lams[None, :]
    m = u @ ((u.T @ q @ u) * np.expm1(rates * h) / rates) @ u.T
    return e, m


def _relative(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("lams", [
    np.array([-0.1, -0.35, -0.8, -1.0]),
    np.array([0.7, 0.3, -0.2, -1.0, -2.5, -4.0]),
])
@pytest.mark.parametrize("ratio", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_one_step_flows_match_closed_form(rng, lams, ratio):
    a, u = _symmetric_drift(rng, lams)
    norm = np.abs(a).sum(axis=0).max()  # a is symmetric: the 1- and inf-norms agree
    g = rng.standard_normal(a.shape)
    q = g + g.T
    q *= ratio * norm / np.abs(q).sum(axis=0).max()
    # steps up to the base-step limit take no doubling: one Pade block each
    steps = lyapunov.BASE_STEP_NORM / norm * np.array([1e-3, 0.1, 0.5, 0.9, 0.999])
    e, m = lyapunov._flows(a, q, steps)
    for h, e_h, m_h in zip(steps, e, m):
        e_ref, m_ref = _closed_form(u, lams, q, h)
        assert _relative(e_h, e_ref) <= 1e-13
        assert _relative(m_h, m_ref) <= 1e-13


# --- both sides of each choice in lyapunov ---------------------------------

LOG_GRID = np.concatenate([[0.0], np.logspace(-2.0, 1.0, 20)])
FLAVORS = {
    "bosonic": (bosonic.BosonicDriftDiffusion, bosonic.propagate_covariance, _util.symmetrize),
    "fermionic": (fermionic.FermionicDriftDiffusion, fermionic.propagate_covariance,
                  _util.antisymmetrize),
}


def _random_drift(rng, flavor, n_modes, shift):
    """(a, q) with a's spectral abscissa at ``shift``; q PSD (bosons) or antisymmetric (fermions)."""
    n = 2 * n_modes
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a += (shift - lyapunov.spectral_abscissa(a)) * np.eye(n)
    g = rng.standard_normal((n, n))
    return a, (g @ g.T if flavor == "bosonic" else g - g.T)


def _flow_steps(monkeypatch) -> list:
    """The steps of every ``lyapunov._flows`` call, recorded as they happen."""
    calls = []
    flows = lyapunov._flows
    monkeypatch.setattr(lyapunov, "_flows", lambda a, q, steps: calls.append(steps) or flows(a, q, steps))
    return calls


def _chain(a, q, x0, y0, times, structure):
    """Point-to-point stepping with one flow per distinct step: the reference loop."""
    steps, which = np.unique(np.diff(times), return_inverse=True)
    e, m = lyapunov._flows(a, q, steps)
    xs, ys = [x0], [y0]
    for j in which:
        xs.append(structure(e[j] @ xs[-1] @ e[j].T + m[j]))
        ys.append(e[j] @ ys[-1])
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("flavor", list(FLAVORS))
@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("shift", [-0.3, 0.15])     # Hurwitz and gain drifts
def test_direct_path_matches_chain_on_log_grid(monkeypatch, rng, flavor, n_modes, shift):
    cls, propagate_covariance, structure = FLAVORS[flavor]
    a, q = _random_drift(rng, flavor, n_modes, shift)
    x0 = structure(rng.standard_normal(a.shape))
    y0 = rng.standard_normal(a.shape[0])
    calls = _flow_steps(monkeypatch)
    if flavor == "bosonic":
        traj = propagate_covariance(cls(a, q), x0, LOG_GRID, mean0=y0)
        got, got_means = traj.covs, traj.means
    else:
        got, got_means = propagate_covariance(cls(a, q), x0, LOG_GRID).covs, None
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], LOG_GRID[1:])   # one flow per point, all from t0
    xs, ys = _chain(a, q, x0, y0, LOG_GRID, structure)
    for k in range(LOG_GRID.size):
        assert _relative(got[k], xs[k]) <= 1e-12
        if got_means is not None:
            assert _relative(got_means[k], ys[k]) <= 1e-12


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_one_repeated_step_takes_the_chain(monkeypatch, rng, flavor):
    cls, propagate_covariance, structure = FLAVORS[flavor]
    a, q = _random_drift(rng, flavor, 2, -0.3)
    x0 = structure(rng.standard_normal(a.shape))
    times = np.array([0.0, 0.25, 0.75, 1.0, 2.0, 3.5])  # 0.25 twice; 0.5, 1.0 and 1.5 once
    calls = _flow_steps(monkeypatch)
    got = propagate_covariance(cls(a, q), x0, times).covs
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], [0.25, 0.5, 1.0, 1.5])   # the distinct steps
    xs, _ = _chain(a, q, x0, np.zeros(a.shape[0]), times, structure)
    np.testing.assert_array_equal(got, xs)


def _bartels_stewart_calls(monkeypatch):
    calls = []
    solve = scipy.linalg.solve_continuous_lyapunov
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov",
                        lambda a, q: calls.append(a.shape[0]) or solve(a, q))
    return calls


def _kronecker_reference(a, q):
    n = a.shape[0]
    coeff = np.kron(a, np.eye(n)) + np.kron(np.eye(n), a)
    return np.linalg.solve(coeff, -q.reshape(-1)).reshape(n, n)


@pytest.mark.parametrize("flavor", list(FLAVORS))
@pytest.mark.parametrize("n", [8, 10])
def test_kronecker_and_bartels_stewart_agree(monkeypatch, rng, flavor, n):
    a, q = _random_drift(rng, flavor, n // 2, -0.3)
    calls = _bartels_stewart_calls(monkeypatch)
    x = lyapunov.solve_fixed_point(a, q)
    kronecker = n <= lyapunov.KRONECKER_MAX_DIM
    assert calls == ([] if kronecker else [n])
    other = (scipy.linalg.solve_continuous_lyapunov(a, -q) if kronecker
             else _kronecker_reference(a, q))
    assert _relative(x, other) <= 1e-12


def _mpmath_fixed_point(a, q):
    """a X + X aT + q = 0 solved in 40-digit arithmetic, from the float a and q."""
    n = a.shape[0]
    coeff, rhs = mpmath.matrix(n * n, n * n), mpmath.matrix(n * n, 1)
    for i in range(n):
        for j in range(n):
            rhs[i * n + j] = -mpmath.mpf(q[i, j])
            for k in range(n):
                coeff[i * n + j, k * n + j] += mpmath.mpf(a[i, k])
                coeff[i * n + j, i * n + k] += mpmath.mpf(a[j, k])
    with mpmath.workdps(40):
        x = mpmath.lu_solve(coeff, rhs)
    return np.array([[float(x[i * n + j]) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("omega", [0.0, 0.7])
@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 3e-10])   # 3e-10: abscissa -1.5e-10
def test_near_dark_steady_state_within_conditioning(eps, omega):
    # the abscissa is -eps / 2, so the Lyapunov operator's condition number grows as 1 / eps
    pair = near_dark_pair_model(eps)
    m = glme.GeneralizedLindbladModel("bosonic", 2, omega * np.eye(4), pair.f, pair.gamma)
    dd = bosonic.build_drift_diffusion(m)
    x = bosonic.steady_state(dd).v
    exact = _mpmath_fixed_point(dd.a, dd.d)
    n = dd.a.shape[0]
    kappa = np.linalg.cond(np.kron(dd.a, np.eye(n)) + np.kron(np.eye(n), dd.a))
    err = np.linalg.norm(x - exact) / np.linalg.norm(exact)
    assert err <= kappa * 2.0 ** -53


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_one_abscissa_per_drift(monkeypatch, rng, flavor):
    cls, _, _ = FLAVORS[flavor]
    module = bosonic if flavor == "bosonic" else fermionic
    a, q = _random_drift(rng, flavor, 2, -0.3)
    calls = []
    abscissa = lyapunov.spectral_abscissa
    monkeypatch.setattr(lyapunov, "spectral_abscissa", lambda m: calls.append(1) or abscissa(m))
    dd = cls(a, q)
    stable, value = module.is_hurwitz(dd)
    module.steady_state(dd)
    assert stable and value == dd.spectral_abscissa == abscissa(a)
    assert calls == [1]
    # the record owns read-only copies, so the cached value cannot go stale
    a[0, 0] += 1.0
    arrays = (dd.a, dd.d) if flavor == "bosonic" else (dd.x, dd.y)
    assert not any(arr.flags.writeable for arr in arrays)
    assert module.is_hurwitz(dd)[1] == value
