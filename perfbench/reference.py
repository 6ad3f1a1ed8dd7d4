"""Independent numpy references the benchmark checks glme against.

Nothing here imports glme. Each function re-derives a quantity from the
generated model data with plain numpy, by a different route from the
library wherever one exists: the matrix exponential is a scaled Taylor
series rather than scipy's Pade, transients come from the Van Loan block
exponential with doubling rather than glme's fixed-point or quadrature
paths, and the bosonic negativity comes from the symplectic spectrum of the
partial transpose rather than from block determinants.
"""

from __future__ import annotations

import numpy as np

BOSONIC = "bosonic"
FERMIONIC = "fermionic"
SQRT_HALF = 1.0 / np.sqrt(2.0)


def ladder_transform(n_modes: int, flavor: str) -> np.ndarray:
    """Rows: lowering operators then raising operators, in the canonical basis.

    a = (q + ip)/sqrt(2) for bosons and c = (w1 - i w2)/sqrt(2) for fermions,
    the documented glme conventions.
    """
    sign = 1.0 if flavor == BOSONIC else -1.0
    t = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for j in range(n_modes):
        t[j, 2 * j] = SQRT_HALF
        t[j, 2 * j + 1] = sign * 1j * SQRT_HALF
        t[n_modes + j, 2 * j] = SQRT_HALF
        t[n_modes + j, 2 * j + 1] = -sign * 1j * SQRT_HALF
    return t


def omega(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def drift_diffusion(flavor, hamiltonian, f, gamma):
    """(A, Q) of dX/dt = A X + X A^T + Q from the model data (glme's stated formulas)."""
    s = f.conj().T @ gamma.T @ f
    if flavor == BOSONIC:
        om = omega(hamiltonian.shape[0] // 2)
        a = om @ (hamiltonian + s.imag)
        q = 2.0 * om @ s.real @ om.T
        return a, 0.5 * (q + q.T)
    y = -2.0 * s.imag
    return hamiltonian - s.real, 0.5 * (y - y.T)


def abscissa(a: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(a).real))


def expm(a: np.ndarray) -> np.ndarray:
    """Scaling and squaring with an 18-term Taylor series (||a/2^s||_1 <= 1/2)."""
    norm = float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0 ** squarings)
    out = np.eye(a.shape[0], dtype=a.dtype)
    term = np.eye(a.shape[0], dtype=a.dtype)
    for k in range(1, 19):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def lyapunov_flow(a: np.ndarray, q: np.ndarray, t: float):
    """(E, M) with E = e^{a t} and M = integral_0^t e^{a s} q e^{a^T s} ds.

    One Van Loan block exponential on a base step with ||a||_1 h <= 1/2, then
    doubling: M <- E M E^T + M, E <- E E.
    """
    n = a.shape[0]
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    doublings = max(0, int(np.ceil(np.log2(max(norm * t, 1e-300) / 0.5))))
    h = t / (2.0 ** doublings)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = q
    block[n:, n:] = a.T
    big = expm(block * h)
    e = big[n:, n:].T
    m = e @ big[:n, n:]
    for _ in range(doublings):
        m = e @ m @ e.T + m
        e = e @ e
    return e, m


def propagate_to(a, q, x0, t):
    e, m = lyapunov_flow(a, q, t)
    return e @ x0 @ e.T + m


def steady_state(a, q) -> np.ndarray:
    """Solve a X + X a^T + q = 0 by the Kronecker linear system (small a only)."""
    n = a.shape[0]
    coeff = np.kron(a, np.eye(n)) + np.kron(np.eye(n), a)
    return np.linalg.solve(coeff, -q.reshape(-1)).reshape(n, n)


def backward_error(a, x, q) -> float:
    """Normwise backward error of a Lyapunov solution (Higham 1993)."""
    num = np.linalg.norm(a @ x + x @ a.T + q)
    den = 2.0 * np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
    return float(num / den) if den > 0 else float(num)


def uncertainty_min_eig(v) -> float:
    """Smallest eigenvalue of V + i Omega (>= 0 for a physical bosonic state)."""
    return float(np.min(np.linalg.eigvalsh(v + 1j * omega(v.shape[0] // 2))))


def fermionic_max_magnitude(sigma) -> float:
    """Largest |lambda| of an antisymmetric covariance, from Hermitian i*sigma."""
    return float(np.max(np.abs(np.linalg.eigvalsh(1j * sigma))))


def log_negativity_bosonic(v) -> float:
    """-ln of the smallest symplectic eigenvalue of the partial transpose."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    vt = flip @ v @ flip
    nus = np.abs(np.linalg.eigvals(1j * omega(2) @ vt))
    return max(0.0, -float(np.log(np.min(nus))))


def duan_bosonic(v, alpha: float, beta: float) -> float:
    """Var(alpha q1 + beta q2) + Var(alpha p1 - beta p2) with Var = u^T V u / 2."""
    u = np.array([alpha, 0.0, beta, 0.0])
    w = np.array([0.0, alpha, 0.0, -beta])
    return 0.5 * float(u @ v @ u + w @ v @ w)


def tmsv_cov(r: float) -> np.ndarray:
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    v = c * np.eye(4)
    v[0, 2] = v[2, 0] = s
    v[1, 3] = v[3, 1] = -s
    return v


def majoranas(n_modes: int) -> list[np.ndarray]:
    """Jordan-Wigner Majoranas with {w_j, w_k} = delta_jk."""
    z = np.diag([1.0, -1.0]).astype(complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = []
    for j in range(n_modes):
        c = np.eye(1, dtype=complex)
        for site in range(n_modes):
            c = np.kron(c, z if site < j else lower if site == j else np.eye(2))
        out.append(SQRT_HALF * (c.conj().T + c))
        out.append(-1j * SQRT_HALF * (c.conj().T - c))
    return out


def measured_sigma(rho, ws) -> np.ndarray:
    """sigma_jk = i Tr(rho [w_j, w_k]) from a dense state."""
    n2 = len(ws)
    sigma = np.zeros((n2, n2))
    for j in range(n2):
        for k in range(j + 1, n2):
            val = (1j * np.trace(rho @ (ws[j] @ ws[k] - ws[k] @ ws[j]))).real
            sigma[j, k], sigma[k, j] = val, -val
    return sigma


def squeezed_thermal(nbar: float, r: float, dim: int) -> np.ndarray:
    """Truncated S(r) rho_th S(r)^dag with S = exp(r (a^2 - a^dag^2) / 2), via eigh."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    gen = 0.5 * r * (a @ a - a.conj().T @ a.conj().T)     # anti-Hermitian
    evals, vecs = np.linalg.eigh(1j * gen)
    squeeze = vecs @ np.diag(np.exp(-1j * evals)) @ vecs.conj().T
    x = nbar / (nbar + 1.0)
    pops = x ** np.arange(dim)
    rho = squeeze @ np.diag(pops / pops.sum()).astype(complex) @ squeeze.conj().T
    return rho / np.trace(rho).real


def relative_error(x, ref) -> float:
    x = np.asarray(x)
    ref = np.asarray(ref)
    return float(np.max(np.abs(x - ref)) / max(1.0, float(np.max(np.abs(ref)))))
