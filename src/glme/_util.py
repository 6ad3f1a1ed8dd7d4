"""Small shared numerical helpers."""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

# Largest defect max|m -+ m^T| accepted of a matrix that should be symmetric or
# antisymmetric, relative to max(1, max|m|); what is accepted is stored as
# its exact part.
SYMMETRY_TOL = 1e-10

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


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def antisymmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - m.T)


def exact_part(m: np.ndarray, name: str, antisymmetric: bool = False) -> np.ndarray:
    """(Anti)symmetric part over the last two axes, after a defect check at SYMMETRY_TOL."""
    m_t = np.swapaxes(m, -1, -2)
    defect_op, part_op = (np.add, np.subtract) if antisymmetric else (np.subtract, np.add)
    defect = max_abs(defect_op(m, m_t))
    if defect > SYMMETRY_TOL * max(1.0, max_abs(m)):
        kind = "antisymmetric" if antisymmetric else "symmetric"
        raise StructuralError(f"{name} must be {kind} (defect {defect:.3e})")
    return 0.5 * part_op(m, m_t)


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
