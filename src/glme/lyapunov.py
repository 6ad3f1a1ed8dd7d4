"""Shared machinery for matrix equations of the form dX/dt = a X + X aT + q.

Both statistics flavors reduce to this differential Lyapunov equation; they
differ only in the symmetry reimposed on the output, which callers supply as
a structure-enforcing callable. scipy.linalg loads at the first solve or exponential.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._util import scipy_linalg
from .errors import NumericalError, StabilityError, StructuralError

# Absolute, not relative to ||a||: perfbench/workloads.py:HURWITZ_TOL mirrors
# it to tell a correct StabilityError from a failure, and an ||a||-relative
# rule would refuse drifts that the benchmark counts as stable.
HURWITZ_TOL = 1e-10
# Bound on the normwise backward error of a fixed-point solve (Higham, BIT
# 33:124, 1993): scale-free, so near-dark steady states of large norm pass.
RESIDUAL_TOL = 1e-10
expm = scipy_linalg("expm")  # a module global, which callers may replace
solve_continuous_lyapunov = scipy_linalg("solve_continuous_lyapunov")


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
    RESIDUAL_TOL; otherwise NumericalError carries that error.
    """
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
    alike (see ``_flow``). "rk4" integrates the ODE on the grid with
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


def _flow(block: np.ndarray, a_norm: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, M) over one step dt from the Van Loan block [[-a, q], [0, aT]].

    One block exponential on the base step h = dt / 2^k, the smallest k with
    ||a||_1 h < 1, gives E_h as the transpose of its lower-right block and
    M_h = E_h times its upper-right block (Van Loan, IEEE TAC 23:395, 1978).
    Doubling M <- E M ET + M, E <- E E then reaches dt. The doubling is what
    keeps large ||a|| dt steps accurate: over a long step the upper-left block
    e^{-a dt} of a stable ``a`` grows without bound, and the upper-right block
    M is read from inherits its rounding error.
    """
    n = block.shape[0] // 2
    doublings = max(0, math.frexp(a_norm * dt)[1])
    big = expm(block * (dt / 2.0 ** doublings))
    e = big[n:, n:].T
    m = e @ big[:n, n:]
    for _ in range(doublings):
        m = e @ m @ e.T + m
        e = e @ e
    return e, m


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


def _propagate_exact(a, q, xs, ys, times, structure):
    """Fill xs[1:] (and ys[1:]) in place with the cached flow of each distinct step."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = q
    block[n:, n:] = a.T
    a_norm = float(np.abs(a).sum(axis=0).max())
    flows = {}
    for i, dt in enumerate(grid_steps(times).tolist(), start=1):
        if dt not in flows:
            flows[dt] = _flow(block, a_norm, dt)
        e, m = flows[dt]
        xs[i] = structure(e @ xs[i - 1] @ e.T + m)
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
