"""Fermionic covariance dynamics in the Majorana representation.

Majorana normalization: anticommutators equal the Kronecker delta, so each
operator squares to one half. The covariance matrix sigma[j, k] is i times
the expectation of the Majorana commutator; it is real antisymmetric with
spectrum +-(i lambda_j), physical when every |lambda_j| <= 1 and pure when
all |lambda_j| = 1. First moments vanish identically by parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from . import lyapunov
from ._util import antisymmetrize, max_abs, require_square, require_squares
from .bosonic import Trajectory
from .errors import BoundaryError, StructuralError
from .model import FERMIONIC, GeneralizedLindbladModel, require_valid

# Slack above the physical bound |lambda| <= 1.
PHYSICALITY_TOL = 1e-9
# Relative gap within which two eigenvalue magnitudes of sigma count as one
# +-(i lambda) pair.
PAIRING_TOL = 1e-9
# A real Schur subdiagonal entry above SCHUR_TOL times max(1, max|m|) opens a
# 2x2 block.
SCHUR_TOL = 1e-12
# Modes with |lambda| >= 1 - BOUNDARY_TOL are pure: their thermal kernel diverges.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class FermionicGaussianState:
    """Antisymmetric Majorana covariance matrix; means are identically zero."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = require_square(self.sigma, "sigma", dtype=float)
        if sigma.shape[0] % 2 != 0 or sigma.shape[0] == 0:
            raise StructuralError(f"sigma must be 2N x 2N, got shape {sigma.shape}")
        defect = max_abs(sigma + sigma.T)
        if defect > 1e-10 * max(1.0, max_abs(sigma)):
            raise StructuralError(f"sigma must be antisymmetric (defect {defect:.3e})")
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def _trusted(cls, sigma: np.ndarray) -> "FermionicGaussianState":
        """Wrap a float array already checked by its builder, skipping ``__post_init__``."""
        state = object.__new__(cls)
        object.__setattr__(state, "sigma", sigma)
        return state

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2


@dataclass(frozen=True)
class FermionicDriftDiffusion:
    """Drift matrix ``x`` and antisymmetric diffusion matrix ``y``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = require_square(self.x, "X", dtype=float)
        y = require_square(self.y, "Y", dtype=float)
        if y.shape != x.shape:
            raise StructuralError("X and Y must have matching shapes")
        if max_abs(y + y.T) > 1e-12 * max(1.0, max_abs(y)):
            raise StructuralError("Y must be antisymmetric")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_modes(self) -> int:
        return self.x.shape[0] // 2


@dataclass(frozen=True)
class GibbsKernel:
    """Antisymmetric quadratic kernel of the thermal-state representation."""

    k: np.ndarray

    def __post_init__(self):
        k = require_square(self.k, "K", dtype=float)
        if max_abs(k + k.T) > 1e-10 * max(1.0, max_abs(k)):
            raise StructuralError("K must be antisymmetric")
        object.__setattr__(self, "k", k)


def build_drift_diffusion(model: GeneralizedLindbladModel) -> FermionicDriftDiffusion:
    """Assemble (X, Y) from a validated fermionic model.

    X = G - Re(F^dag Gamma^T F) and Y = -2 Im(F^dag Gamma^T F); Hermiticity
    of the decoherence matrix makes Y exactly antisymmetric. The transpose
    mirrors the bosonic construction: it is fixed by the requirement that
    diagonalizing the decoherence matrix leaves the dynamics unchanged, and
    is validated against dense brute-force moment derivatives.
    """
    if model.flavor != FERMIONIC:
        raise StructuralError(f"expected a fermionic model, got {model.flavor!r}")
    require_valid(model)
    s = model.f.conj().T @ model.gamma.T @ model.f
    x = model.hamiltonian - s.real
    y_raw = -2.0 * s.imag
    if max_abs(y_raw + y_raw.T) > 1e-12 * max(1.0, max_abs(y_raw)):
        raise StructuralError("diffusion matrix lost antisymmetry; check Gamma Hermiticity")
    return FermionicDriftDiffusion(x=x, y=antisymmetrize(y_raw))


def propagate_covariance(dd: FermionicDriftDiffusion, sigma0, times,
                         method: str = "exact",
                         rk4_substeps: int = 1) -> Trajectory:
    """Propagate the Majorana covariance; output is antisymmetrized each step.

    The returned trajectory has no means, since they vanish by parity.
    """
    sigma0 = require_square(sigma0, "sigma0", dtype=float)
    sigmas, _ = lyapunov.propagate(dd.x, dd.y, sigma0, times, antisymmetrize,
                                   method=method, rk4_substeps=rk4_substeps)
    return Trajectory(times, sigmas)


def is_hurwitz(dd: FermionicDriftDiffusion) -> tuple[bool, float]:
    return lyapunov.is_hurwitz_matrix(dd.x)


def steady_state(dd: FermionicDriftDiffusion) -> FermionicGaussianState:
    """Fixed point of the covariance dynamics for a Hurwitz drift."""
    sigma = lyapunov.steady_state(dd.x, dd.y, antisymmetrize)
    return FermionicGaussianState(sigma=sigma)


def check_physicality(sigma) -> tuple[bool, float]:
    """Positivity test: all eigenvalue magnitudes of sigma must be <= 1 + PHYSICALITY_TOL.

    ``sigma`` is one covariance or a (T, 2N, 2N) stack, tested with one
    ``eigvalsh``; the largest magnitude over the stack is returned.
    """
    if isinstance(sigma, FermionicGaussianState):
        sigma = sigma.sigma
    else:
        sigma = _antisymmetric(require_squares(sigma, "sigma"))
    # i sigma is Hermitian with real eigenvalues +-lambda_j
    max_lambda = max_abs(np.linalg.eigvalsh(1j * sigma))
    return max_lambda <= 1.0 + PHYSICALITY_TOL, max_lambda


def mode_spectrum(sigma) -> np.ndarray:
    """Per-mode eigenvalue magnitudes lambda_j, each +-(i lambda) pair once.

    Pairs are matched by sorted magnitude with a greedy tolerance check, so
    degenerate spectra resolve deterministically.
    """
    sigma = _as_antisymmetric(sigma)
    lams = np.sort(np.abs(np.linalg.eigvalsh(1j * sigma)))[::-1]
    paired = []
    for i in range(0, lams.size, 2):
        if abs(lams[i] - lams[i + 1]) > PAIRING_TOL * max(1.0, lams[i]):
            raise StructuralError(
                f"eigenvalues of sigma failed to pair: {lams[i]:.6e} vs {lams[i + 1]:.6e}"
            )
        paired.append(0.5 * (lams[i] + lams[i + 1]))
    return np.asarray(paired)


def purity(sigma) -> float:
    """Trace of rho squared, as a product over the mode spectrum."""
    lams = mode_spectrum(sigma)
    return float(np.prod((1.0 + lams ** 2) / 2.0))


def schur_blocks(m) -> tuple[np.ndarray, list[tuple[int, float]], list[int]]:
    """Real Schur reduction of an antisymmetric matrix into 2x2 blocks.

    Returns (q, pairs, singles): q is orthogonal, pairs lists (index, lam)
    where rows (index, index + 1) of qT m q form [[0, lam], [-lam, 0]], and
    singles lists leftover 1x1 zero positions.
    """
    m = _as_antisymmetric(m)
    t, q = schur(m, output="real")
    scale = max(1.0, max_abs(m))
    pairs: list[tuple[int, float]] = []
    singles: list[int] = []
    i = 0
    n = m.shape[0]
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > SCHUR_TOL * scale:
            lam = 0.5 * (t[i, i + 1] - t[i + 1, i])
            pairs.append((i, lam))
            i += 2
        else:
            singles.append(i)
            i += 1
    return q, pairs, singles


def _rebuild_from_blocks(q: np.ndarray, pairs: list[tuple[int, float]], n: int) -> np.ndarray:
    t = np.zeros((n, n))
    for idx, lam in pairs:
        t[idx, idx + 1] = lam
        t[idx + 1, idx] = -lam
    return antisymmetrize(q @ t @ q.T)


def covariance_to_gibbs(sigma) -> GibbsKernel:
    """Map a strictly mixed covariance to its thermal quadratic kernel.

    Blockwise inverse hyperbolic tangent: a mode with magnitude lambda maps
    to kernel parameter 2 artanh(lambda). Pure modes sit at the boundary
    where the kernel diverges and are rejected.
    """
    sigma = _as_antisymmetric(sigma)
    q, pairs, _singles = schur_blocks(sigma)
    kernel_pairs = []
    for idx, lam in pairs:
        if abs(lam) >= 1.0 - BOUNDARY_TOL:
            raise BoundaryError(
                f"mode magnitude {abs(lam):.12f} is at the pure-state boundary; "
                "the thermal kernel diverges"
            )
        kernel_pairs.append((idx, 2.0 * np.arctanh(lam)))
    return GibbsKernel(k=_rebuild_from_blocks(q, kernel_pairs, sigma.shape[0]))


def gibbs_to_covariance(kernel) -> FermionicGaussianState:
    """Inverse of :func:`covariance_to_gibbs`: blockwise tanh(kappa / 2)."""
    k = kernel.k if isinstance(kernel, GibbsKernel) else _as_antisymmetric(kernel)
    q, pairs, _singles = schur_blocks(k)
    sigma_pairs = [(idx, np.tanh(0.5 * kappa)) for idx, kappa in pairs]
    return FermionicGaussianState(sigma=_rebuild_from_blocks(q, sigma_pairs, k.shape[0]))


def _as_antisymmetric(sigma) -> np.ndarray:
    if isinstance(sigma, FermionicGaussianState):
        return sigma.sigma
    return _antisymmetric(require_square(sigma, "sigma", dtype=float))


def _antisymmetric(sigma: np.ndarray) -> np.ndarray:
    """Antisymmetric part over the last two axes, after a defect check."""
    sigma_t = np.swapaxes(sigma, -1, -2)
    defect = max_abs(sigma + sigma_t)
    if defect > 1e-9 * max(1.0, max_abs(sigma)):
        raise StructuralError(f"matrix must be antisymmetric (defect {defect:.3e})")
    return 0.5 * (sigma - sigma_t)
