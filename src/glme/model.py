"""Model container, validation, and basis conversions for linear open systems.

A model pairs a quadratic Hamiltonian matrix with a set of linear decoherence
channels. The channels are rows of a coefficient matrix ``f`` expressed in the
canonical basis (quadratures for bosons, Majorana operators for fermions), and
a decoherence matrix ``gamma`` weights products of channels: diagonal entries
are ordinary independent damping, off-diagonal entries are cross-damping
mediated by a common reservoir. Complete positivity of the induced dynamics
requires ``gamma`` to be Hermitian positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import max_abs, require_matrix, require_square
from .errors import PositivityError, StructuralError

BOSONIC = "bosonic"
FERMIONIC = "fermionic"
FLAVORS = (BOSONIC, FERMIONIC)

# Defects and negative eigenvalues are allowed up to VALIDATION_TOL times the
# largest entry of the matrix under test, floored at 1.
VALIDATION_TOL = 1e-10


# symplectic_form's arrays, built on first request for each mode count.
_SYMPLECTIC_FORMS: dict[int, np.ndarray] = {}


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form in the interleaved (q1, p1, ...) ordering.

    Each mode contributes a [[0, 1], [-1, 0]] block, so the output is
    antisymmetric and squares to minus the identity. One read-only array is
    kept per mode count and returned on every call.
    """
    omega = _SYMPLECTIC_FORMS.get(n_modes)
    if omega is None:
        if n_modes < 1:
            raise StructuralError("n_modes must be at least 1")
        omega = np.zeros((2 * n_modes, 2 * n_modes))
        for j in range(n_modes):
            omega[2 * j, 2 * j + 1] = 1.0
            omega[2 * j + 1, 2 * j] = -1.0
        omega.flags.writeable = False
        _SYMPLECTIC_FORMS[n_modes] = omega
    return omega


@dataclass(frozen=True)
class ValidationReport:
    """Numeric defects of a model against its positivity and symmetry invariants."""

    hermitian_defect: float
    min_gamma_eigenvalue: float
    hamiltonian_symmetry_defect: float
    is_valid: bool


@dataclass(frozen=True)
class StandardForm:
    """Diagonalized decoherence data.

    ``rates`` are nonnegative reals and ``operator_rows[l]`` holds the
    canonical-basis coefficients of the decoherence operator attached to
    ``rates[l]``. Rows are ordered by descending rate, ties broken by
    lexicographic order of the rows.
    """

    rates: np.ndarray
    operator_rows: np.ndarray


@dataclass(frozen=True)
class GeneralizedLindbladModel:
    """Linear open-system model data.

    Attributes
    ----------
    flavor:
        "bosonic" or "fermionic".
    n_modes:
        Number of modes N; canonical vectors have length 2N.
    hamiltonian:
        Real 2N x 2N quadratic-form matrix: symmetric for bosons,
        antisymmetric for fermions.
    f:
        Complex M x 2N channel coefficient matrix, canonical basis.
    gamma:
        Complex M x M decoherence matrix.
    """

    flavor: str
    n_modes: int
    hamiltonian: np.ndarray
    f: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise StructuralError(f"unknown flavor {self.flavor!r}, expected one of {FLAVORS}")
        if int(self.n_modes) < 1:
            raise StructuralError("n_modes must be at least 1")
        n2 = 2 * int(self.n_modes)
        ham = require_matrix(self.hamiltonian, "hamiltonian", (n2, n2), dtype=float)
        f = np.asarray(self.f, dtype=complex)
        if f.ndim != 2 or f.shape[1] != n2:
            raise StructuralError(f"F must have {n2} columns for {self.n_modes} modes, got shape {f.shape}")
        gamma = require_square(self.gamma, "Gamma")
        if gamma.shape[0] != f.shape[0]:
            raise StructuralError(
                f"Gamma is {gamma.shape[0]}x{gamma.shape[0]} but F has {f.shape[0]} rows"
            )
        object.__setattr__(self, "n_modes", int(self.n_modes))
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "f", require_matrix(f, "F"))
        object.__setattr__(self, "gamma", gamma)

    @property
    def n_channels(self) -> int:
        return self.f.shape[0]


def _checked(model: GeneralizedLindbladModel) -> tuple[ValidationReport, np.ndarray, np.ndarray]:
    """The validation report, H's exact (anti)symmetric part and Gamma's Hermitian part."""
    gamma = model.gamma
    gamma_dag = gamma.conj().T
    gamma_scale = max(1.0, max_abs(gamma))
    hermitian_defect = max_abs(gamma - gamma_dag)
    gamma_h = 0.5 * (gamma + gamma_dag)
    min_eig = float(np.linalg.eigvalsh(gamma_h).min()) if gamma.shape[0] > 0 else 0.0

    ham = model.hamiltonian
    ham_t = ham.T if model.flavor == BOSONIC else -ham.T
    ham_defect = max_abs(ham - ham_t)

    is_valid = (
        hermitian_defect <= VALIDATION_TOL * gamma_scale
        and min_eig >= -VALIDATION_TOL * gamma_scale
        and ham_defect <= VALIDATION_TOL * max(1.0, max_abs(ham))
    )
    report = ValidationReport(
        hermitian_defect=hermitian_defect,
        min_gamma_eigenvalue=min_eig,
        hamiltonian_symmetry_defect=ham_defect,
        is_valid=is_valid,
    )
    return report, 0.5 * (ham + ham_t), gamma_h


def validate_model(model: GeneralizedLindbladModel) -> ValidationReport:
    """Check the decoherence-matrix and Hamiltonian-matrix invariants.

    The bound is VALIDATION_TOL relative to the largest entry of the matrix
    under test (floored at 1), so a zero matrix validates cleanly.
    """
    return _checked(model)[0]


def _require_positive(hermitian_defect: float, min_eigenvalue: float, gamma: np.ndarray):
    """Raise unless the decoherence matrix is Hermitian and PSD to within VALIDATION_TOL."""
    bound = VALIDATION_TOL * max(1.0, max_abs(gamma))
    if hermitian_defect > bound:
        raise PositivityError(
            f"decoherence matrix is not Hermitian (defect {hermitian_defect:.3e}); "
            "split it with model.split_non_hermitian and fold the anti-Hermitian "
            "part into the Hamiltonian"
        )
    if min_eigenvalue < -bound:
        raise PositivityError(f"decoherence matrix has negative eigenvalue {min_eigenvalue:.3e}")


def require_valid(model: GeneralizedLindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """Validate a model, raising the error for the first invariant it breaks.

    Returns the exact parts it validated, which are all the dynamics read of
    H and Gamma: the Hamiltonian matrix's symmetric (bosons) or
    antisymmetric (fermions) part, and the decoherence matrix's Hermitian
    part. Both differ from the model's arrays by at most the validation slack.
    """
    report, ham, gamma = _checked(model)
    if report.is_valid:
        return ham, gamma
    _require_positive(report.hermitian_defect, report.min_gamma_eigenvalue, model.gamma)
    symmetry = "symmetric" if model.flavor == BOSONIC else "antisymmetric"
    raise StructuralError(
        f"{model.flavor} hamiltonian matrix must be {symmetry} "
        f"(defect {report.hamiltonian_symmetry_defect:.3e})"
    )


def drift_matrices(model: GeneralizedLindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """(H, S) of a validated model, with S = F^dag Gamma^T F.

    Both are formed from the exact parts ``require_valid`` returns, so S is
    Hermitian up to the rounding of its products. Both flavors' drift and
    diffusion matrices are built from these two alone.
    """
    ham, gamma = require_valid(model)
    return ham, model.f.conj().T @ gamma.T @ model.f


def split_non_hermitian(gamma) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into its Hermitian and anti-Hermitian parts.

    The parts sum back to the input (to a rounding unit at worst). Callers
    with a non-Hermitian decoherence matrix can fold the anti-Hermitian part
    into their Hamiltonian themselves; the dynamics builders only accept the
    Hermitian part.
    """
    gamma = require_square(gamma, "Gamma")
    dag = gamma.conj().T
    return 0.5 * (gamma + dag), 0.5 * (gamma - dag)


def to_standard_form(gamma, f) -> StandardForm:
    """Unitarily diagonalize the decoherence matrix into independent channels.

    With gamma = U diag(rates) U^dag, the returned operator rows are U^T f,
    so that the weighted sum of pair dissipators over (gamma, f) equals the
    sum of ordinary dissipators over the returned (rate, row) list.
    Eigenvalues in [-VALIDATION_TOL, 0) scaled by the matrix magnitude are
    clamped to zero; anything lower raises.
    """
    gamma = require_square(gamma, "Gamma")
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] != gamma.shape[0]:
        raise StructuralError(
            f"F must have one row per Gamma row ({gamma.shape[0]}), got shape {f.shape}"
        )
    evals, vecs = np.linalg.eigh(0.5 * (gamma + gamma.conj().T))
    _require_positive(max_abs(gamma - gamma.conj().T), np.min(evals), gamma)
    rates = np.clip(evals, 0.0, None)
    rows = vecs.T @ f

    order = _standard_form_order(rates, rows)
    return StandardForm(rates=rates[order], operator_rows=rows[order])


def _standard_form_order(rates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # np.lexsort sorts by the last key first; feed row components in reverse
    # significance so ties in rate fall back to lexicographic row order.
    keys = []
    for col in reversed(range(rows.shape[1])):
        keys.append(rows[:, col].imag)
        keys.append(rows[:, col].real)
    keys.append(-rates)
    return np.lexsort(keys)


def ladder_transform(n_modes: int, flavor: str) -> np.ndarray:
    """Unitary T expressing ladder operators in the canonical basis.

    Row j holds the canonical coefficients of the j-th lowering operator and
    row N+j those of the j-th raising operator, using a = (q + ip)/sqrt(2)
    for bosons and c = (w1 - i w2)/sqrt(2) per mode for fermions.
    """
    if flavor not in FLAVORS:
        raise StructuralError(f"unknown flavor {flavor!r}")
    if n_modes < 1:
        raise StructuralError("n_modes must be at least 1")
    t = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    sign = 1.0 if flavor == BOSONIC else -1.0
    for j in range(n_modes):
        c1, c2 = 2 * j, 2 * j + 1
        t[j, c1] = s
        t[j, c2] = sign * 1j * s
        t[n_modes + j, c1] = s
        t[n_modes + j, c2] = -sign * 1j * s
    return t


def ladder_to_canonical(rows, flavor: str) -> np.ndarray:
    """Convert channel rows from the ladder basis (a1..aN, a1+..aN+) to canonical."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] % 2 != 0 or rows.shape[1] == 0:
        raise StructuralError(f"ladder rows must have a positive even column count, got shape {rows.shape}")
    t = ladder_transform(rows.shape[1] // 2, flavor)
    return rows @ t


def canonical_to_ladder(rows, flavor: str) -> np.ndarray:
    """Inverse of :func:`ladder_to_canonical`."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] % 2 != 0 or rows.shape[1] == 0:
        raise StructuralError(f"canonical rows must have a positive even column count, got shape {rows.shape}")
    t = ladder_transform(rows.shape[1] // 2, flavor)
    return rows @ t.conj().T
