"""Bosonic covariance dynamics: drift/diffusion, propagation, steady states.

Covariance convention: V[j, k] is the expectation of the anticommutator of
the centered quadratures, so the vacuum covariance is the identity and the
purity of a Gaussian state is 1/sqrt(det V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lyapunov
from ._util import (
    exact_part,
    read_only,
    require_finite,
    require_matrix,
    require_square,
    require_squares,
    require_vector,
    slack,
    symmetrize,
)
from .errors import DomainError, NumericalError, PositivityError, StructuralError
from .model import BOSONIC, GeneralizedLindbladModel, drift_matrices, symplectic_form

# Slack below the uncertainty bounds (V + i Omega >= 0, det V >= 1) that still
# counts as physical.
PHYSICALITY_TOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """First and second quadrature moments of a bosonic state."""

    mean: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        v = require_square(self.v, "V", dtype=float)
        if v.shape[0] % 2 != 0 or v.shape[0] == 0:
            raise StructuralError(f"V must be 2N x 2N, got shape {v.shape}")
        # require_vector may return the caller's array, which is never frozen
        mean = require_vector(self.mean, "mean", length=v.shape[0]).copy()
        object.__setattr__(self, "mean", read_only(mean))
        object.__setattr__(self, "v", read_only(exact_part(v, "V")))

    @classmethod
    def _trusted(cls, mean: np.ndarray, v: np.ndarray) -> "GaussianState":
        """Wrap read-only float arrays checked where they were made, skipping ``__post_init__``.

        They are views of a ``Trajectory``'s read-only stacks, or arrays the
        caller owns and passed through ``read_only``: setting the flag here
        would cost about 0.8 us per array, for every state of a trajectory.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "v", v)
        return state

    @property
    def n_modes(self) -> int:
        return self.v.shape[0] // 2


@dataclass(frozen=True)
class BosonicDriftDiffusion:
    """Drift matrix ``a`` and diffusion matrix ``d`` of the moment dynamics.

    Both are read-only arrays the record owns, so ``spectral_abscissa`` is
    computed once and read by ``is_hurwitz`` and ``steady_state`` alike.
    """

    a: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = require_square(self.a, "A", dtype=float)
        d = require_matrix(self.d, "D", shape=a.shape, dtype=float)
        object.__setattr__(self, "a", read_only(a.copy()))
        object.__setattr__(self, "d", read_only(exact_part(d, "D")))

    @classmethod
    def _trusted(cls, a: np.ndarray, d: np.ndarray) -> "BosonicDriftDiffusion":
        """Wrap float arrays already checked by their builder, which hands them over."""
        dd = object.__new__(cls)
        object.__setattr__(dd, "a", read_only(a))
        object.__setattr__(dd, "d", read_only(d))
        return dd

    @property
    def n_modes(self) -> int:
        return self.a.shape[0] // 2

    @cached_property
    def spectral_abscissa(self) -> float:
        return lyapunov.spectral_abscissa(self.a)


@dataclass(frozen=True)
class Trajectory:
    """Moments of either flavor on a time grid, as stacked arrays.

    ``covs`` is (T, 2N, 2N); ``means`` is (T, 2N) for bosons and None for
    fermions. The covariances are checked symmetric (bosons) or
    antisymmetric (fermions) by ``_util.exact_part``, the rule of the state
    containers, and stored read-only as that exact part, which the
    trajectory writers rely on. It reads as a sequence of per-time states,
    built once on first use.

    Both flavors' ``propagate_covariance`` wrap their output with
    ``_trusted``, which checks shapes and finiteness only: ``lyapunov.propagate``
    has validated the times and passed every state through the exact
    (anti)symmetrization, so the checks would store the same bits.
    """

    times: np.ndarray
    covs: np.ndarray = field(repr=False)
    means: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        means = None if self.means is None else np.array(self.means, dtype=float)  # owned copy
        self._store(lyapunov.validate_times(self.times), np.asarray(self.covs, dtype=float),
                    means, exact=False)

    @classmethod
    def _trusted(cls, times: np.ndarray, covs: np.ndarray,
                 means: np.ndarray | None = None) -> "Trajectory":
        """Wrap validated float ``times`` and exactly (anti)symmetric float stacks it then owns."""
        traj = object.__new__(cls)
        traj._store(times, covs, means, exact=True)
        return traj

    def _store(self, times, covs, means, exact: bool):
        """Check shapes and finiteness, then store; the (anti)symmetric part unless ``exact``."""
        if covs.ndim != 3 or covs.shape[1] != covs.shape[2] or covs.shape[1] % 2 or not covs.shape[1]:
            raise StructuralError(f"covs must have shape (T, 2N, 2N), got {covs.shape}")
        if covs.shape[0] != times.size:
            raise StructuralError("times and states must have equal length")
        if means is not None and means.shape != covs.shape[:2]:
            raise StructuralError(f"means must have shape {covs.shape[:2]}, got {means.shape}")
        covs = require_finite(covs, "covariance")
        if means is not None:
            means = require_finite(means, "mean")
        if not exact:
            covs = exact_part(covs, "covariance", antisymmetric=means is None)
        # owned: the (anti)symmetric part and a copy of the means, or handed over to _trusted
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "covs", read_only(covs))
        object.__setattr__(self, "means", None if means is None else read_only(means))

    @cached_property
    def states(self) -> list:
        if self.means is None:
            from .fermionic import FermionicGaussianState  # fermionic imports this module
            return [FermionicGaussianState._trusted(sigma) for sigma in self.covs]
        return [GaussianState._trusted(m, v) for m, v in zip(self.means, self.covs)]

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, index):
        return self.states[index]


def build_drift_diffusion(model: GeneralizedLindbladModel) -> BosonicDriftDiffusion:
    """Assemble (A, D) from a validated bosonic model.

    A = Omega (H + Im(F^dag Gamma^T F)) and D = 2 Omega Re(F^dag Gamma^T F)
    Omega^T, which requires a Hermitian decoherence matrix for the covariance
    to stay real. H and S come from ``model.drift_matrices``. The model is
    validated once, with one eigensolve of the decoherence matrix and one of
    D; the arrays built here are only tested for overflow.
    """
    if model.flavor != BOSONIC:
        raise StructuralError(f"expected a bosonic model, got {model.flavor!r}")
    ham, s = drift_matrices(model)
    omega = symplectic_form(model.n_modes)
    a = omega @ (ham + s.imag)
    d = symmetrize(2.0 * omega @ s.real @ omega.T)
    # not redundant: Gamma's allowed negative eigenvalue grows by |F|^2 in D, past D's own bound
    d_min = float(np.min(np.linalg.eigvalsh(d)))
    if d_min < -slack(d):
        raise PositivityError(f"diffusion matrix has negative eigenvalue {d_min:.3e}")
    return BosonicDriftDiffusion._trusted(require_finite(a, "A"), require_finite(d, "D"))


def propagate_covariance(dd: BosonicDriftDiffusion, v0, times,
                         method: str = "exact",
                         mean0=None,
                         rk4_substeps: int = 1) -> Trajectory:
    """Propagate the covariance (and optionally the mean) over a time grid.

    The first grid time carries the initial condition. Covariances are
    symmetrized at every step, and the mean takes the same steps (see
    ``lyapunov.propagate``); without ``mean0`` the means are zero.
    """
    v0 = require_square(v0, "V0", dtype=float)
    if mean0 is not None:
        mean0 = require_vector(mean0, "mean0", length=dd.a.shape[0])
    vs, means = lyapunov.propagate(dd.a, dd.d, v0, times, symmetrize, method=method,
                                   rk4_substeps=rk4_substeps, y0=mean0)
    if means is None:
        means = np.zeros(vs.shape[:2])
    # propagate validated the times
    return Trajectory._trusted(np.asarray(times, dtype=float), vs, means)


def is_hurwitz(dd: BosonicDriftDiffusion) -> tuple[bool, float]:
    """Whether the drift matrix is stable, plus its spectral abscissa."""
    return lyapunov.is_stable(dd.spectral_abscissa), dd.spectral_abscissa


def steady_state(dd: BosonicDriftDiffusion) -> GaussianState:
    """Unique fixed point of the moment dynamics for a Hurwitz drift."""
    # the backward-error gate rejects non-finite solutions and symmetrize makes V exact
    v = lyapunov.steady_state(dd.a, dd.d, dd.spectral_abscissa, symmetrize)
    return GaussianState._trusted(read_only(np.zeros(dd.a.shape[0])), read_only(v))


def check_physicality(v) -> tuple[bool, float]:
    """Uncertainty-relation test: V + i Omega must be positive semidefinite.

    Physical means the smallest eigenvalue is at least -PHYSICALITY_TOL.

    ``v`` is one covariance or a (T, 2N, 2N) stack, read as its symmetric
    part after ``exact_part``'s check and tested with one ``eigvalsh``; the
    smallest eigenvalue over the stack is returned.
    """
    v = _as_symmetric(v, stack=True)
    if v.shape[-1] % 2 != 0:
        raise StructuralError("V must be 2N x 2N")
    omega = symplectic_form(v.shape[-1] // 2)
    min_eig = float(np.linalg.eigvalsh(v + 1j * omega).min())
    return min_eig >= -PHYSICALITY_TOL, min_eig


def purity(v) -> float:
    """Gaussian purity 1/sqrt(det V); raises when det V < 1 - PHYSICALITY_TOL."""
    det = float(np.linalg.det(_as_symmetric(v)))
    if det < 1.0 - PHYSICALITY_TOL:
        raise DomainError(f"det V = {det:.6e} is below the physical bound 1")
    return 1.0 / np.sqrt(max(det, 1e-300))


def wigner(state: GaussianState, point) -> float:
    """Gaussian phase-space density at a point, normalized to unit integral."""
    point = require_vector(point, "point", length=state.v.shape[0])
    n = state.n_modes
    det = float(np.linalg.det(state.v))
    if det <= 0:
        raise NumericalError(f"covariance determinant {det:.3e} is not positive")
    dx = point - state.mean
    try:
        y = np.linalg.solve(state.v, dx)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance matrix is singular") from exc
    return float(np.exp(-dx @ y) / (np.pi ** n * np.sqrt(det)))


def _as_symmetric(v, stack: bool = False) -> np.ndarray:
    """A state's covariance, or the symmetric part of a raw square (or ``stack``) after its check."""
    if isinstance(v, GaussianState):
        return v.v
    return exact_part(require_squares(v, "V") if stack else require_square(v, "V", dtype=float), "V")
