"""Shared machinery for matrix equations of the form dX/dt = a X + X aT + q.

Both statistics flavors reduce to this differential Lyapunov equation; they
differ only in the symmetry reimposed on the output, which callers supply as
a structure-enforcing callable. Propagation needs numpy only; scipy.linalg
loads at the first fixed-point solve.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._util import pade13_expm
from .errors import NumericalError, StabilityError, StructuralError

# Absolute, not relative to ||a||: perfbench/workloads.py:HURWITZ_TOL mirrors
# it to tell a correct StabilityError from a failure, and an ||a||-relative
# rule would refuse drifts that the benchmark counts as stable.
HURWITZ_TOL = 1e-10
# Bound on the normwise backward error of a fixed-point solve (Higham, BIT
# 33:124, 1993): scale-free, so near-dark steady states of large norm pass.
RESIDUAL_TOL = 1e-10
# Base steps keep max(||a||_1, ||a||_inf) h below this, so the diagonal blocks
# of every Van Loan block stay inside theta_13 = 5.37 of the Pade kernel.
BASE_STEP_NORM = 4.0
expm = pade13_expm  # a module global, which callers may replace


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part over the eigenvalues of ``a``."""
    return float(np.linalg.eigvals(a).real.max())


def is_hurwitz_matrix(a: np.ndarray) -> tuple[bool, float]:
    """Whether every eigenvalue of ``a`` has real part below -HURWITZ_TOL, plus the abscissa."""
    abscissa = spectral_abscissa(a)
    return abscissa < -HURWITZ_TOL, abscissa


def solve_fixed_point(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve a X + X aT + q = 0 by Bartels-Stewart (``solve_continuous_lyapunov``).

    The solution is returned when its backward error
    ||a X + X aT + q||_F / (2 ||a||_F ||X||_F + ||q||_F) is at most
    RESIDUAL_TOL; otherwise NumericalError carries that error. scipy.linalg
    loads at the first call, not with glme.
    """
    from scipy.linalg import solve_continuous_lyapunov

    x = solve_continuous_lyapunov(a, -q)
    residual = float(np.linalg.norm(a @ x + x @ a.T + q))
    scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
    error = residual / scale if scale > 0 else residual
    if not error <= RESIDUAL_TOL:
        raise NumericalError(
            f"fixed-point solve residual {error:.3e} exceeds {RESIDUAL_TOL:.1e} (relative)",
            residual=error,
        )
    return x


def steady_state(a: np.ndarray, q: np.ndarray,
                 structure: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Unique fixed point of dX/dt = a X + X aT + q, passed through ``structure``.

    Dissipation-free directions (dark modes) leave the fixed point
    non-unique, so a drift spectrum touching the imaginary axis is rejected.
    """
    stable, abscissa = is_hurwitz_matrix(a)
    if not stable:
        raise StabilityError(
            f"drift matrix is not Hurwitz (spectral abscissa {abscissa:.3e})",
            spectral_abscissa=abscissa,
        )
    return structure(solve_fixed_point(a, q))


def validate_times(times) -> np.ndarray:
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError("times must be a non-empty 1-D array")
    if not np.isfinite(arr).all():
        raise StructuralError("times must be finite")
    if arr.size > 1 and np.min(np.diff(arr)) <= 0:
        raise StructuralError("times must be strictly increasing")
    return arr


def propagate(a: np.ndarray, q: np.ndarray, x0: np.ndarray, times,
              structure: Callable[[np.ndarray], np.ndarray],
              method: str = "exact",
              rk4_substeps: int = 1,
              y0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Propagate dX/dt = a X + X aT + q through the given time grid.

    The first grid point carries the initial condition. "exact" steps the
    closed-form flow X <- E X ET + M, with E = e^{a dt} and M the integral
    over [0, dt] of e^{a s} q e^{aT s} ds, for Hurwitz and non-Hurwitz ``a``
    alike. Each distinct step dt doubles up from the base step h = dt / 2^k,
    the smallest k with max(||a||_1, ||a||_inf) h < BASE_STEP_NORM = 4. The
    Van Loan blocks [[-a h, q h], [0, aT h]] of all base steps (Van Loan,
    IEEE TAC 23:395, 1978) go through one stacked Pade [13/13] exponential,
    which needs no scaling there (Higham, SIAM J. Matrix Anal. Appl.
    26:1179, 2005; see ``_flows``). "rk4" integrates the ODE on the grid with
    ``rk4_substeps`` internal steps per interval. Every output passes through
    ``structure`` to reimpose the exact matrix symmetry.

    Returns the stacked X of shape (T, n, n) and, when ``y0`` is given, the
    stacked solution of dy/dt = a y of shape (T, n), else None. The vector
    takes the same steps as X: y <- E y with the same E, or the same rk4
    substeps.
    """
    times = validate_times(times)
    x0 = structure(np.asarray(x0, dtype=float))
    xs = np.empty((times.size,) + x0.shape)
    xs[0] = x0
    ys = None
    if y0 is not None:
        ys = np.empty((times.size, len(y0)))
        ys[0] = y0
    if method == "exact":
        _propagate_exact(a, q, xs, ys, times, structure)
    elif method == "rk4":
        _propagate_rk4(a, q, xs, ys, times, structure, rk4_substeps)
    else:
        raise StructuralError(f"unknown propagation method {method!r}")
    return xs, ys


def grid_steps(times: np.ndarray) -> np.ndarray:
    """Steps of an increasing grid; all set to h = (t_end - t0) / (T - 1) when uniform.

    A grid is uniform when every step lies within 4 ulps of h, as
    ``np.linspace`` gives them, so such a grid has exactly one distinct step.
    """
    steps = np.diff(times)
    if steps.size:
        h = (times[-1] - times[0]) / steps.size
        if np.max(np.abs(steps - h)) <= 4.0 * np.spacing(max(abs(times[0]), abs(times[-1]))):
            steps[:] = h
    return steps


def _flows(a: np.ndarray, q: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (E, M) for each of the ascending ``steps``, from one ``expm`` call.

    Each step's base step h (see ``propagate``) gives E_h as the transpose of
    the lower-right block of the Van Loan exponential and M_h = E_h times its
    upper-right block; q enters that block linearly, so only the diagonal
    blocks bound the kernel's error. Doubling M <- E M ET + M, E <- E E then
    reaches dt. The doubling keeps large ||a|| dt steps accurate: over a long
    step the upper-left block e^{-a dt} of a stable ``a`` grows without
    bound, and the upper-right block M is read from inherits its rounding
    error.
    """
    n = a.shape[0]
    a_abs = np.abs(a)
    a_norm = max(a_abs.sum(axis=0).max(), a_abs.sum(axis=1).max())
    # ascending steps take non-decreasing doubling counts
    doublings = np.maximum(np.frexp(a_norm * steps / BASE_STEP_NORM)[1], 0)
    blocks = np.zeros((steps.size, 2 * n, 2 * n))
    blocks[:, :n, :n] = -a
    blocks[:, :n, n:] = q
    blocks[:, n:, n:] = a.T
    blocks *= (steps / 2.0 ** doublings)[:, None, None]
    big = expm(blocks)
    e = big[:, n:, n:].transpose(0, 2, 1).copy()
    m = e @ big[:, :n, n:]
    for r in range(int(doublings[-1])):
        first = int(np.searchsorted(doublings, r, side="right"))
        e_r, m_r = e[first:], m[first:]
        m[first:] = e_r @ m_r @ e_r.transpose(0, 2, 1) + m_r
        e[first:] = e_r @ e_r
    return e, m


def _propagate_exact(a, q, xs, ys, times, structure):
    """Fill xs[1:] (and ys[1:]) in place with the flow of each distinct step."""
    steps, which = np.unique(grid_steps(times), return_inverse=True)
    if not steps.size:
        return
    flows = [(e, e.T, m) for e, m in zip(*_flows(a, q, steps))]
    for i, j in enumerate(which.tolist(), start=1):
        e, e_t, m = flows[j]
        xs[i] = structure(e @ xs[i - 1] @ e_t + m)
        if ys is not None:
            ys[i] = e @ ys[i - 1]


def _rk4_step(f, x, h):
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _propagate_rk4(a, q, xs, ys, times, structure, substeps):
    """Fill xs[1:] (and ys[1:]) in place with ``substeps`` rk4 steps per interval."""
    if substeps < 1:
        raise StructuralError("rk4_substeps must be at least 1")

    def rhs(x):
        return a @ x + x @ a.T + q

    x, y = xs[0], None if ys is None else ys[0]
    for i in range(1, times.size):
        h = (times[i] - times[i - 1]) / substeps
        for _ in range(substeps):
            x = structure(_rk4_step(rhs, x, h))
            if y is not None:
                y = _rk4_step(a.__matmul__, y, h)
        xs[i] = x
        if y is not None:
            ys[i] = y
