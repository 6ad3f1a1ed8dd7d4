"""Fermionic covariance dynamics in the Majorana representation.

Majorana normalization: anticommutators equal the Kronecker delta, so each
operator squares to one half. The covariance matrix sigma[j, k] is i times
the expectation of the Majorana commutator; it is real antisymmetric with
spectrum +-(i lambda_j), physical when every |lambda_j| <= 1 and pure when
all |lambda_j| = 1. First moments vanish identically by parity. Since
i sigma is Hermitian, every spectral quantity here (mode magnitudes, the
Gibbs kernel and its inverse) comes from one ``eigh`` of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lyapunov
from ._util import (
    antisymmetrize,
    exact_part,
    max_abs,
    read_only,
    require_finite,
    require_square,
    require_squares,
)
from .bosonic import Trajectory
from .errors import BoundaryError, StructuralError
from .model import FERMIONIC, GeneralizedLindbladModel, drift_matrices

# Slack above the physical bound |lambda| <= 1.
PHYSICALITY_TOL = 1e-9
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
        object.__setattr__(self, "sigma", read_only(exact_part(sigma, "sigma", antisymmetric=True)))

    @classmethod
    def _trusted(cls, sigma: np.ndarray) -> "FermionicGaussianState":
        """Wrap a read-only float array checked where it was made, skipping ``__post_init__``.

        It is a view of a ``Trajectory``'s read-only stack, or an array the
        caller owns and passed through ``read_only``.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "sigma", sigma)
        return state

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2


@dataclass(frozen=True)
class FermionicDriftDiffusion:
    """Drift matrix ``x`` and antisymmetric diffusion matrix ``y``.

    Both are read-only arrays the record owns, so ``spectral_abscissa`` is
    computed once and read by ``is_hurwitz`` and ``steady_state`` alike.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = require_square(self.x, "X", dtype=float)
        y = require_square(self.y, "Y", dtype=float)
        if y.shape != x.shape:
            raise StructuralError("X and Y must have matching shapes")
        object.__setattr__(self, "x", read_only(x.copy()))
        object.__setattr__(self, "y", read_only(exact_part(y, "Y", antisymmetric=True)))

    @classmethod
    def _trusted(cls, x: np.ndarray, y: np.ndarray) -> "FermionicDriftDiffusion":
        """Wrap float arrays already checked by their builder, which hands them over."""
        dd = object.__new__(cls)
        object.__setattr__(dd, "x", read_only(x))
        object.__setattr__(dd, "y", read_only(y))
        return dd

    @property
    def n_modes(self) -> int:
        return self.x.shape[0] // 2

    @cached_property
    def spectral_abscissa(self) -> float:
        return lyapunov.spectral_abscissa(self.x)


@dataclass(frozen=True)
class GibbsKernel:
    """Antisymmetric quadratic kernel of the thermal-state representation."""

    k: np.ndarray

    def __post_init__(self):
        k = require_square(self.k, "K", dtype=float)
        object.__setattr__(self, "k", exact_part(k, "K", antisymmetric=True))


def build_drift_diffusion(model: GeneralizedLindbladModel) -> FermionicDriftDiffusion:
    """Assemble (X, Y) from a validated fermionic model.

    X = G - Re(F^dag Gamma^T F) and Y = -2 Im(F^dag Gamma^T F), with G and
    S = F^dag Gamma^T F from ``model.drift_matrices``; S is Hermitian up to
    rounding, and Y is antisymmetrized as the bosonic D is symmetrized. The
    transpose mirrors the bosonic construction: it is fixed by the
    requirement that diagonalizing the decoherence matrix leaves the
    dynamics unchanged, and is validated against dense brute-force moment
    derivatives. The arrays built here are only tested for overflow.
    """
    if model.flavor != FERMIONIC:
        raise StructuralError(f"expected a fermionic model, got {model.flavor!r}")
    ham, s = drift_matrices(model)
    return FermionicDriftDiffusion._trusted(require_finite(ham - s.real, "X"),
                                            require_finite(antisymmetrize(-2.0 * s.imag), "Y"))


def propagate_covariance(dd: FermionicDriftDiffusion, sigma0, times,
                         method: str = "exact",
                         rk4_substeps: int = 1) -> Trajectory:
    """Propagate the Majorana covariance; output is antisymmetrized each step.

    The returned trajectory has no means, since they vanish by parity.
    """
    sigma0 = require_square(sigma0, "sigma0", dtype=float)
    sigmas, _ = lyapunov.propagate(dd.x, dd.y, sigma0, times, antisymmetrize,
                                   method=method, rk4_substeps=rk4_substeps)
    # propagate validated the times
    return Trajectory._trusted(np.asarray(times, dtype=float), sigmas)


def is_hurwitz(dd: FermionicDriftDiffusion) -> tuple[bool, float]:
    """Whether the drift matrix is stable, plus its spectral abscissa."""
    return lyapunov.is_stable(dd.spectral_abscissa), dd.spectral_abscissa


def steady_state(dd: FermionicDriftDiffusion) -> FermionicGaussianState:
    """Fixed point of the covariance dynamics for a Hurwitz drift."""
    # the backward-error gate rejects non-finite solutions and antisymmetrize makes sigma exact
    sigma = lyapunov.steady_state(dd.x, dd.y, dd.spectral_abscissa, antisymmetrize)
    return FermionicGaussianState._trusted(read_only(sigma))


def check_physicality(sigma) -> tuple[bool, float]:
    """Positivity test: all eigenvalue magnitudes of sigma must be <= 1 + PHYSICALITY_TOL.

    ``sigma`` is one covariance or a (T, 2N, 2N) stack, tested with one
    ``eigvalsh``; the largest magnitude over the stack is returned.
    """
    sigma = _as_antisymmetric(sigma, stack=True)
    # i sigma is Hermitian with real eigenvalues +-lambda_j
    max_lambda = max_abs(np.linalg.eigvalsh(1j * sigma))
    return max_lambda <= 1.0 + PHYSICALITY_TOL, max_lambda


def mode_spectrum(sigma) -> np.ndarray:
    """Per-mode eigenvalue magnitudes lambda_j, descending, each +-(i lambda) pair once.

    These are the N largest eigenvalues of the Hermitian i sigma.
    """
    sigma = _as_antisymmetric(sigma)
    return np.linalg.eigvalsh(1j * sigma)[::-1][:sigma.shape[0] // 2]


def purity(sigma) -> float:
    """Trace of rho squared, as a product over the mode spectrum."""
    lams = mode_spectrum(sigma)
    return float(np.prod((1.0 + lams ** 2) / 2.0))


def covariance_to_gibbs(sigma) -> GibbsKernel:
    """Map a strictly mixed covariance to its thermal quadratic kernel.

    Modewise inverse hyperbolic tangent: a mode with magnitude lambda maps
    to kernel parameter 2 artanh(lambda). Pure modes sit at the boundary
    where the kernel diverges and are rejected.
    """
    def kernel_parameters(mu):
        lam = max_abs(mu)
        if lam >= 1.0 - BOUNDARY_TOL:
            raise BoundaryError(
                f"mode magnitude {lam:.12f} is at the pure-state boundary; "
                "the thermal kernel diverges"
            )
        return 2.0 * np.arctanh(mu)

    return GibbsKernel(k=_map_modes(_as_antisymmetric(sigma), kernel_parameters))


def gibbs_to_covariance(kernel) -> FermionicGaussianState:
    """Inverse of :func:`covariance_to_gibbs`: modewise tanh(kappa / 2)."""
    k = kernel.k if isinstance(kernel, GibbsKernel) else _as_antisymmetric(kernel)
    return FermionicGaussianState(sigma=_map_modes(k, lambda mu: np.tanh(0.5 * mu)))


def _map_modes(m: np.ndarray, f) -> np.ndarray:
    """Antisymmetric ``m`` with each +-(i lambda) pair mapped to +-(i f(lambda)).

    ``f`` is an odd real function, applied to the eigenvalues mu of the
    Hermitian i m = U diag(mu) U^dag; the result is the real part of
    -i U diag(f(mu)) U^dag, antisymmetrized.
    """
    mu, u = np.linalg.eigh(1j * m)
    return antisymmetrize((-1j * (u * f(mu)) @ u.conj().T).real)


def _as_antisymmetric(sigma, stack: bool = False) -> np.ndarray:
    """A state's covariance, or the antisymmetric part of a raw square (or ``stack``) after its check."""
    if isinstance(sigma, FermionicGaussianState):
        return sigma.sigma
    sigma = require_squares(sigma, "sigma") if stack else require_square(sigma, "sigma", dtype=float)
    return exact_part(sigma, "sigma", antisymmetric=True)
