"""Accuracy of the one-step Van Loan flows behind ``lyapunov.propagate``.

A symmetric drift a = U diag(lam) UT has the closed-form flow
E = U e^{lam h} UT and, with qt = UT q U,
M = U [qt_ij (e^{(lam_i + lam_j) h} - 1) / (lam_i + lam_j)] UT,
computed here with ``expm1``: an independent float64 reference that shares
no code with the Pade kernel.
"""

import numpy as np
import pytest

from glme import lyapunov


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

