"""Entanglement measures on two-mode covariance data.

Bosonic measures take the symmetric quadrature covariance (vacuum = identity)
in the interleaved ordering (q1, p1, q2, p2); fermionic measures take the
antisymmetric Majorana covariance over (w1, w2, w3, w4) with modes grouped in
consecutive pairs. Every spectrum here is that of a Hermitian matrix, so the
module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bosonic, fermionic
from .errors import NumericalError, StructuralError
from .model import symplectic_form

# Slack above 1 allowed in the composite spectrum.
COMPOSITE_TOL = 1e-9

# Partial transpose of a two-mode covariance (p2 -> -p2) as entrywise signs.
_PARTIAL_TRANSPOSE = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
_OMEGA_2 = symplectic_form(2)


@dataclass(frozen=True)
class DuanResult:
    """Total collective variance against the separability bound alpha^2 + beta^2."""

    quantity: float
    bound: float
    entangled_flag: bool


@dataclass(frozen=True)
class NegativityResult:
    """Logarithmic negativity in nats plus the auxiliary spectrum behind it."""

    value: float
    auxiliary_spectrum: np.ndarray


def duan_bosonic(state, alpha: float = 1.0, beta: float = -1.0) -> DuanResult:
    """Collective-quadrature variance test for two bosonic modes.

    Computes Var(alpha q1 + beta q2) + Var(alpha p1 - beta p2) from the
    covariance matrix; the state is inseparable when the total variance drops
    strictly below alpha^2 + beta^2. On two-mode squeezing the default (1, -1)
    reads 2 e^{-2|r|} if Cov(q1, q2) > 0 > Cov(p1, p2), else 2 e^{2|r|}; (1, +1)
    reads the reverse and so detects dissipative two-mode squeezing.
    """
    v = bosonic._as_symmetric(state)
    if v.shape[0] != 4:
        raise StructuralError(f"Duan criterion needs exactly two modes, got shape {v.shape}")
    # Var(x_j) = V[j, j] / 2 and Cov(x_j, x_k) = V[j, k] / 2 in this convention.
    var_u = 0.5 * (alpha ** 2 * v[0, 0] + beta ** 2 * v[2, 2] + 2.0 * alpha * beta * v[0, 2])
    var_v = 0.5 * (alpha ** 2 * v[1, 1] + beta ** 2 * v[3, 3] - 2.0 * alpha * beta * v[1, 3])
    quantity = float(var_u + var_v)
    bound = float(alpha ** 2 + beta ** 2)
    return DuanResult(quantity=quantity, bound=bound, entangled_flag=quantity < bound)


def log_negativity_bosonic(v) -> NegativityResult:
    """Logarithmic negativity of a two-mode Gaussian state.

    The auxiliary quantity eta is the smaller symplectic eigenvalue of the
    partially transposed covariance Vt: the smallest eigenvalue magnitude of
    the Hermitian i LT Omega L, where Vt = L LT (Cholesky), which is similar
    to i Omega Vt. The eigenproblem stays accurate on near-dark steady states
    of large norm, where a closed form in block determinants cancels.
    In this covariance convention (vacuum = identity) the measure is
    max(0, -ln eta).
    """
    v = bosonic._as_symmetric(v)
    if v.shape[0] != 4:
        raise StructuralError(f"log negativity needs exactly two modes, got shape {v.shape}")
    try:
        low = np.linalg.cholesky(v * _PARTIAL_TRANSPOSE)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("invalid covariance: not positive definite") from exc
    eta = float(np.min(np.abs(np.linalg.eigvalsh(1j * (low.T @ _OMEGA_2 @ low)))))
    if not eta > 0.0:
        raise NumericalError("eta vanished; covariance is singular or unphysical")
    return NegativityResult(value=float(max(0.0, -np.log(eta))), auxiliary_spectrum=np.array([eta]))


def sigma_cross(sigma) -> np.ndarray:
    """Spectrum of the composite covariance behind the fermionic negativity.

    The composite covariance is F^{-1} blockdiag(sigma_1, -sigma_2) for a
    two-mode covariance split into mode blocks, with the factor
    F = (1 - sigma^2) / 2 (Shapourian, Shiozaki & Ryu, PRB 95:165101, 2017).
    F is positive definite, with eigenvalues (1 + lambda^2) / 2 >= 1/2, so
    with F = L LT (Cholesky) the composite is similar to the antisymmetric
    C = L^{-1} blockdiag(sigma_1, -sigma_2) L^{-T}. Returns the eigenvalues
    of C, +-(i lambda_cross) pairs sorted by imaginary part.
    """
    sigma = fermionic._as_antisymmetric(sigma)
    if sigma.shape[0] != 4:
        raise StructuralError(f"sigma_cross needs exactly two modes, got shape {sigma.shape}")
    low = np.linalg.cholesky(0.5 * (np.eye(4) - sigma @ sigma))
    local = np.zeros((4, 4))
    local[:2, :2] = sigma[:2, :2]
    local[2:, 2:] = -sigma[2:, 2:]
    composite = np.linalg.solve(low, np.linalg.solve(low, local).T).T
    return 1j * np.linalg.eigvalsh(-1j * composite)


def log_negativity_fermionic(sigma) -> NegativityResult:
    """Logarithmic negativity of a two-mode fermionic Gaussian state.

    Combines a Renyi-1/2 entropy of the composite spectrum with the Renyi-2
    entropy of the state itself, both evaluated as closed products over the
    eigenvalue magnitudes, each +-(i lambda) pair once.
    """
    sigma = fermionic._as_antisymmetric(sigma)
    if sigma.shape[0] != 4:
        raise StructuralError(f"log negativity needs exactly two modes, got shape {sigma.shape}")
    s2 = -np.log(fermionic.purity(sigma))

    # the upper half of the sorted +-(i lambda_cross), descending
    cross_lams = sigma_cross(sigma).imag[:1:-1]
    if np.any(cross_lams > 1.0 + COMPOSITE_TOL):
        raise NumericalError(
            f"composite spectrum magnitude {np.max(cross_lams):.6e} exceeds 1"
        )
    cross_lams = np.clip(cross_lams, 0.0, 1.0)
    tr_half = float(np.prod(np.sqrt((1.0 + cross_lams) / 2.0) + np.sqrt((1.0 - cross_lams) / 2.0)))
    s_half = 2.0 * np.log(tr_half)

    value = 0.5 * (s_half - s2)
    return NegativityResult(value=float(max(0.0, value)), auxiliary_spectrum=cross_lams)


def duan_fermionic(sigma, alpha: float = 1.0, beta: float = 1.0) -> DuanResult:
    """Collective-Majorana variance test for two fermionic modes.

    Var(alpha w1 + beta w3) + Var(alpha w2 - beta w4) computed from second
    moments: squares contribute one half each and symmetrized cross moments
    vanish by the anticommutation relation, so for every parity-even state
    the quantity equals alpha^2 + beta^2 exactly and the strict inequality
    never fires at this normalization.
    """
    sigma = fermionic._as_antisymmetric(sigma)
    if sigma.shape[0] != 4:
        raise StructuralError(f"Duan criterion needs exactly two modes, got shape {sigma.shape}")
    moments = 0.5 * np.eye(4)  # symmetrized Majorana second moments, state independent
    var_u = alpha ** 2 * moments[0, 0] + beta ** 2 * moments[2, 2] + 2.0 * alpha * beta * moments[0, 2]
    var_v = alpha ** 2 * moments[1, 1] + beta ** 2 * moments[3, 3] - 2.0 * alpha * beta * moments[1, 3]
    quantity = float(var_u + var_v)
    bound = float(alpha ** 2 + beta ** 2)
    return DuanResult(quantity=quantity, bound=bound, entangled_flag=quantity < bound)
