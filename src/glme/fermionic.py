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
from ._util import antisymmetrize, max_abs, require_finite, require_square
from .errors import (
    BoundaryError,
    PositivityError,
    StabilityError,
    StructuralError,
)
from .model import DEFAULT_TOL, FERMIONIC, GeneralizedLindbladModel, validate_model


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


def build_drift_diffusion(model: GeneralizedLindbladModel,
                          tol: float = DEFAULT_TOL) -> FermionicDriftDiffusion:
    """Assemble (X, Y) from a validated fermionic model.

    X = G - Re(F^dag Gamma^T F) and Y = -2 Im(F^dag Gamma^T F); Hermiticity
    of the decoherence matrix makes Y exactly antisymmetric. The transpose
    mirrors the bosonic construction: it is fixed by the requirement that
    diagonalizing the decoherence matrix leaves the dynamics unchanged, and
    is validated against dense brute-force moment derivatives.
    """
    if model.flavor != FERMIONIC:
        raise StructuralError(f"expected a fermionic model, got {model.flavor!r}")
    report = validate_model(model, tol)
    gamma_scale = max(1.0, max_abs(model.gamma))
    if report.hermitian_defect > tol * gamma_scale:
        raise PositivityError(
            f"decoherence matrix is not Hermitian (defect {report.hermitian_defect:.3e}); "
            "split it with model.split_non_hermitian before building dynamics"
        )
    if report.min_gamma_eigenvalue < -tol * gamma_scale:
        raise PositivityError(
            f"decoherence matrix has negative eigenvalue {report.min_gamma_eigenvalue:.3e}"
        )
    if report.hamiltonian_symmetry_defect > tol * max(1.0, max_abs(model.hamiltonian)):
        raise StructuralError(
            f"fermionic hamiltonian matrix must be antisymmetric "
            f"(defect {report.hamiltonian_symmetry_defect:.3e})"
        )
    s = model.f.conj().T @ model.gamma.T @ model.f
    x = model.hamiltonian - s.real
    y_raw = -2.0 * s.imag
    if max_abs(y_raw + y_raw.T) > 1e-12 * max(1.0, max_abs(y_raw)):
        raise StructuralError("diffusion matrix lost antisymmetry; check Gamma Hermiticity")
    return FermionicDriftDiffusion(x=x, y=antisymmetrize(y_raw))


def propagate_covariance(dd: FermionicDriftDiffusion, sigma0, times,
                         method: str = "exact",
                         rk4_substeps: int = 1) -> list[FermionicGaussianState]:
    """Propagate the Majorana covariance; output is antisymmetrized each step.

    The first state is validated in full; the later ones have its shape and
    exact antisymmetry by construction, so one finiteness test over the
    whole trajectory completes their checks.
    """
    sigma0 = require_square(sigma0, "sigma0", dtype=float)
    sigmas, _ = lyapunov.propagate(dd.x, dd.y, sigma0, times, antisymmetrize,
                                   method=method, rk4_substeps=rk4_substeps)
    require_finite(sigmas, "sigma")
    return [FermionicGaussianState(sigma=sigmas[0])] + [
        FermionicGaussianState._trusted(s) for s in sigmas[1:]]


def is_hurwitz(dd: FermionicDriftDiffusion,
               tol: float = lyapunov.DEFAULT_HURWITZ_TOL) -> tuple[bool, float]:
    return lyapunov.is_hurwitz_matrix(dd.x, tol)


def steady_state(dd: FermionicDriftDiffusion,
                 hurwitz_tol: float = lyapunov.DEFAULT_HURWITZ_TOL,
                 residual_tol: float = lyapunov.DEFAULT_RESIDUAL_TOL) -> FermionicGaussianState:
    """Fixed point of the covariance dynamics.

    Dissipation-free directions (dark modes) leave the fixed point
    non-unique, so a drift spectrum touching the imaginary axis is rejected.
    """
    stable, abscissa = is_hurwitz(dd, hurwitz_tol)
    if not stable:
        raise StabilityError(
            f"drift matrix is not Hurwitz (spectral abscissa {abscissa:.3e})",
            spectral_abscissa=abscissa,
        )
    sigma = antisymmetrize(lyapunov.solve_fixed_point(dd.x, dd.y, residual_tol))
    return FermionicGaussianState(sigma=sigma)


def check_physicality(sigma, tol: float = 1e-9) -> tuple[bool, float]:
    """Positivity test: all eigenvalue magnitudes of sigma must be <= 1."""
    sigma = _as_antisymmetric(sigma)
    # i sigma is Hermitian with real eigenvalues +-lambda_j
    max_lambda = max_abs(np.linalg.eigvalsh(1j * sigma))
    return max_lambda <= 1.0 + tol, max_lambda


def mode_spectrum(sigma, tol: float = 1e-9) -> np.ndarray:
    """Per-mode eigenvalue magnitudes lambda_j, each +-(i lambda) pair once.

    Pairs are matched by sorted magnitude with a greedy tolerance check, so
    degenerate spectra resolve deterministically.
    """
    sigma = _as_antisymmetric(sigma)
    eigs = np.linalg.eigvals(sigma)
    if eigs.size and max_abs(eigs.real) > 1e-9 * max(1.0, max_abs(sigma)):
        raise StructuralError("sigma spectrum is not purely imaginary")
    lams = np.sort(np.abs(eigs.imag))[::-1]
    paired = []
    for i in range(0, lams.size, 2):
        if abs(lams[i] - lams[i + 1]) > tol * max(1.0, lams[i]):
            raise StructuralError(
                f"eigenvalues of sigma failed to pair: {lams[i]:.6e} vs {lams[i + 1]:.6e}"
            )
        paired.append(0.5 * (lams[i] + lams[i + 1]))
    return np.asarray(paired)


def purity(sigma) -> float:
    """Trace of rho squared, as a product over the mode spectrum."""
    lams = mode_spectrum(sigma)
    return float(np.prod((1.0 + lams ** 2) / 2.0))


def schur_blocks(m, tol: float = 1e-12) -> tuple[np.ndarray, list[tuple[int, float]], list[int]]:
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
        if i + 1 < n and abs(t[i + 1, i]) > tol * scale:
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


def covariance_to_gibbs(sigma, boundary_tol: float = 1e-9) -> GibbsKernel:
    """Map a strictly mixed covariance to its thermal quadratic kernel.

    Blockwise inverse hyperbolic tangent: a mode with magnitude lambda maps
    to kernel parameter 2 artanh(lambda). Pure modes sit at the boundary
    where the kernel diverges and are rejected.
    """
    sigma = _as_antisymmetric(sigma)
    q, pairs, _singles = schur_blocks(sigma)
    kernel_pairs = []
    for idx, lam in pairs:
        if abs(lam) >= 1.0 - boundary_tol:
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
    sigma = require_square(sigma, "sigma", dtype=float)
    defect = max_abs(sigma + sigma.T)
    if defect > 1e-9 * max(1.0, max_abs(sigma)):
        raise StructuralError(f"matrix must be antisymmetric (defect {defect:.3e})")
    return antisymmetrize(sigma)
