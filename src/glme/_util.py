"""Small shared numerical helpers."""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

# The one rule: a matrix that should be Hermitian (real: symmetric), anti-Hermitian
# or positive semidefinite may miss by SYMMETRY_TOL * max(1, max|m|), ``slack``;
# what is accepted is read as its exact part.
SYMMETRY_TOL = 1e-10
# Largest max|m| whose exact part 0.5 (m + m^dag) cannot overflow: at DBL_MAX / 2
# the sum is at most DBL_MAX, and halving it is exact.
PART_LIMIT = np.finfo(float).max / 2

# Coefficients b_0..b_13 of the Pade [13/13] approximant of exp (Higham, SIAM
# J. Matrix Anal. Appl. 26:1179, 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def pade13_expm(a: np.ndarray) -> np.ndarray:
    """Pade [13/13] approximant of e^a for every matrix of a (K, m, m) stack.

    There is no scaling: the approximant is accurate to the unit roundoff
    only for ||a||_1 <= theta_13 = 5.37 (Higham, 2005), which callers keep.
    Six stacked products and one stacked solve.
    """
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def max_abs(m) -> float:
    """Largest absolute entry; 0.0 for empty input."""
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0


# The ndarray method, not np.swapaxes: the function costs about 0.5 us a call,
# which a 1001-step propagation pays once per step.
def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part over the last two axes, of one matrix or a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def antisymmetrize(m: np.ndarray) -> np.ndarray:
    """Antisymmetric part over the last two axes, of one matrix or a stack."""
    return 0.5 * (m - m.swapaxes(-1, -2))


def _slack_of(scale: float) -> float:
    return SYMMETRY_TOL * max(1.0, scale)


def slack(m) -> float:
    """Largest defect, or negative eigenvalue, accepted of ``m`` by the one rule."""
    return _slack_of(max_abs(m))


def part_and_defect(m: np.ndarray, antisymmetric: bool = False) -> tuple[np.ndarray, float, float]:
    """(Anti-)Hermitian part over the last two axes, its defect max|m -+ m^dag| and ``slack(m)``.

    The defect is not checked against the slack. An ``m`` with max|m| over
    PART_LIMIT raises StructuralError carrying max|m|, since its part could
    overflow to inf.
    """
    scale = max_abs(m)
    if scale > PART_LIMIT:
        raise StructuralError(f"matrix entries too large for an exact part (max|m| {scale:.3e} "
                              f"exceeds {PART_LIMIT:.3e})", max_abs=scale)
    m_dag = m.swapaxes(-1, -2).conj()   # conj of a real array is the array itself
    defect_op, part_op = (np.add, np.subtract) if antisymmetric else (np.subtract, np.add)
    return 0.5 * part_op(m, m_dag), max_abs(defect_op(m, m_dag)), _slack_of(scale)


def exact_part(m: np.ndarray, name: str, antisymmetric: bool = False) -> np.ndarray:
    """``part_and_defect``'s part, after raising StructuralError for a defect over the slack."""
    part, defect, bound = part_and_defect(m, antisymmetric)
    if defect > bound:
        kind = "antisymmetric" if antisymmetric else "Hermitian" if np.iscomplexobj(m) else "symmetric"
        raise StructuralError(f"{name} must be {kind} (defect {defect:.3e})")
    return part


def require_finite(m: np.ndarray, name: str) -> np.ndarray:
    if m.size and not np.isfinite(m).all():
        raise StructuralError(f"{name} contains non-finite entries")
    return m


def require_square(m, name: str, dtype=complex) -> np.ndarray:
    arr = np.asarray(m, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StructuralError(f"{name} must be square, got shape {arr.shape}")
    return require_finite(arr, name)


def require_squares(m, name: str) -> np.ndarray:
    """A square float matrix, or a stack of them along a leading axis."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise StructuralError(f"{name} must be square or a stack of squares, got shape {arr.shape}")
    return require_finite(arr, name)


def require_matrix(m, name: str, shape: tuple[int, int] | None = None, dtype=complex) -> np.ndarray:
    arr = np.asarray(m, dtype=dtype)
    if arr.ndim != 2:
        raise StructuralError(f"{name} must be a matrix, got ndim {arr.ndim}")
    if shape is not None and arr.shape != shape:
        raise StructuralError(f"{name} must have shape {shape}, got {arr.shape}")
    return require_finite(arr, name)


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` with its writeable flag cleared; only for arrays the caller owns or hands over."""
    arr.flags.writeable = False
    return arr


def require_vector(v, name: str, length: int | None = None, dtype=float) -> np.ndarray:
    arr = np.asarray(v, dtype=dtype)
    if arr.ndim != 1:
        raise StructuralError(f"{name} must be a vector, got ndim {arr.ndim}")
    if length is not None and arr.shape[0] != length:
        raise StructuralError(f"{name} must have length {length}, got {arr.shape[0]}")
    return require_finite(arr, name)
