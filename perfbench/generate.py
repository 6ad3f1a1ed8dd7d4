"""Seeded input generation with numpy only.

Every input glme receives is built here from ``numpy.random.default_rng``,
keyed by the command-line seed and the round number, so the same seed gives
the same inputs. A spec is a plain dict of arrays and numbers; the workloads
turn it into glme objects inside the timed region.

Each spec carries its drift class, measured here from the model data:
"stable" when the drift abscissa alpha < -1e-3 * max(1, ||A||_2), otherwise
"marginal" (near-dark, exactly dark or non-Hurwitz drift). The two classes
take different paths through glme's steady-state solve and propagator.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from reference import BOSONIC, FERMIONIC

STABLE = "stable"
MARGINAL = "marginal"


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(k) for k in keys]])


def classify(a: np.ndarray) -> tuple[str, float]:
    alpha = ref.abscissa(a)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    return (STABLE if alpha < -1e-3 * scale else MARGINAL), alpha


def _crandn(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _psd(rng, size: int, top: float) -> np.ndarray:
    """Random Hermitian PSD matrix with largest eigenvalue ``top``."""
    b = _crandn(rng, size, size)
    g = b @ b.conj().T
    return top * g / float(np.max(np.linalg.eigvalsh(g)))


def _block_diag(*blocks) -> np.ndarray:
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size), dtype=complex)
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out


def model_spec(kind, flavor, hamiltonian, f, gamma, **extra) -> dict:
    a, q = ref.drift_diffusion(flavor, hamiltonian, f, gamma)
    cls, alpha = classify(a)
    spec = {"kind": kind, "flavor": flavor, "n_modes": hamiltonian.shape[0] // 2,
            "hamiltonian": hamiltonian, "f": f, "gamma": gamma,
            "a": a, "q": q, "cls": cls, "alpha": alpha}
    spec.update(extra)
    return spec


def random_cross_damped(rng, flavor: str, n_modes: int, target_alpha: float, kind: str) -> dict:
    """Random channels under a full decoherence matrix, shifted to a target abscissa.

    The random part is scaled so its drift has unit spectral norm, which
    keeps the cost of each item steady across seeds. Uniform loss (a_j) or,
    for bosons, gain (a_j^dag) channels on every mode then shift
    the drift by a multiple of the identity, so the abscissa lands on
    ``target_alpha`` while the cross-damped part stays generic.
    """
    n2 = 2 * n_modes
    m = int(rng.integers(1, n2 + 2))
    h = rng.standard_normal((n2, n2))
    h = 0.5 * (h + h.T) if flavor == BOSONIC else 0.5 * (h - h.T)
    f = _crandn(rng, m, n2) / np.sqrt(n2)
    gamma = _psd(rng, m, 1.0)
    a, _ = ref.drift_diffusion(flavor, h, f, gamma)
    scale = 1.0 / float(np.linalg.norm(a, 2))
    h, gamma = h * scale, gamma * scale
    shift = target_alpha - scale * ref.abscissa(a)
    ladder = ref.ladder_transform(n_modes, flavor)
    eye = np.eye(n_modes)
    if flavor == FERMIONIC:
        # both c_j and c_j^dag damp a fermion by half their rate; mixing them
        # keeps the steady state away from the pure-state boundary
        f = np.vstack([f, ladder])
        gamma = _block_diag(gamma, 1.5 * abs(shift) * eye, 0.5 * abs(shift) * eye)
    else:
        f = np.vstack([f, ladder[:n_modes] if shift < 0 else ladder[n_modes:]])
        gamma = _block_diag(gamma, 2.0 * abs(shift) * eye)
    return model_spec(kind, flavor, h, f, gamma)


def collective_pair(eps: float, omega: float = 0.0, kind: str = "collective") -> dict:
    """Collective decay of two modes with a near-dark antisymmetric mode.

    F holds a1, a2, (q1 - q2)/sqrt(2), (p1 - p2)/sqrt(2); Gamma is
    [[1 + eps, 1], [1, 1 + eps]] + 0.05 I on the two dephasing rows. The dark
    mode decays at eps / 2 while the dephasing heats it, so |V_ss| ~ 0.05 / eps.
    """
    f = np.zeros((4, 4), dtype=complex)
    f[:2] = ref.ladder_transform(2, BOSONIC)[:2]
    f[2, 0], f[2, 2] = ref.SQRT_HALF, -ref.SQRT_HALF
    f[3, 1], f[3, 3] = ref.SQRT_HALF, -ref.SQRT_HALF
    gamma = np.zeros((4, 4), dtype=complex)
    gamma[:2, :2] = [[1.0 + eps, 1.0], [1.0, 1.0 + eps]]
    gamma[2, 2] = gamma[3, 3] = 0.05
    return model_spec(kind, BOSONIC, omega * np.eye(4), f, gamma, eps=eps)


def fermionic_dark(rng, n_modes: int, eps: float, kind: str) -> dict:
    """Fermionic model whose last mode only rotates; ``eps`` > 0 gives it weak damping.

    The weak damping mixes c and c^dag (rates 1.5 eps and 0.5 eps) so the
    dark mode relaxes to a mixed state, not to the pure-state boundary.
    """
    inner = random_cross_damped(rng, FERMIONIC, n_modes - 1, -rng.uniform(0.1, 0.5), kind)
    n2 = 2 * n_modes
    h = np.zeros((n2, n2))
    h[:n2 - 2, :n2 - 2] = inner["hamiltonian"]
    w = rng.uniform(0.5, 1.5)
    h[n2 - 2, n2 - 1], h[n2 - 1, n2 - 2] = w, -w
    f = np.zeros((inner["f"].shape[0] + 2, n2), dtype=complex)
    f[:-2, :n2 - 2] = inner["f"]
    ladder = ref.ladder_transform(n_modes, FERMIONIC)
    f[-2], f[-1] = ladder[n_modes - 1], ladder[2 * n_modes - 1]
    gamma = _block_diag(inner["gamma"], np.diag([1.5 * eps, 0.5 * eps]))
    return model_spec(kind, FERMIONIC, h, f, gamma, eps=eps)


def cool_bosonic(rng, n_modes: int, nbar_cap: float, times, x0) -> dict:
    """Loss-dominated model with ||A||_2 = 1 whose occupation stays below nbar_cap.

    The decoherence matrix has a fixed spectrum (rates in the ratio
    0.6 : 0.3 : 0.1) under random eigenvectors and the mode frequencies are fixed,
    so the dense generator's norm, and with it the Krylov cost, is steady
    across seeds. Each mode's occupation (V_qq + V_pp - 2) / 4 is checked at
    the steady state and along the grid from ``x0``, so a dense Fock
    truncation holds; the raising-operator admixture halves until it does.
    """
    admix = 0.2
    m = n_modes + 1
    rates = np.array([0.6, 0.3, 0.1, 0.05][:m])
    while True:
        rows = np.hstack([_crandn(rng, m, n_modes), admix * _crandn(rng, m, n_modes)])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        f = rows @ ref.ladder_transform(n_modes, BOSONIC)
        u, _ = np.linalg.qr(_crandn(rng, m, m))
        gamma = u @ np.diag(rates) @ u.conj().T
        h = np.kron(np.diag(1.0 + 0.4 * np.arange(n_modes)), np.eye(2))
        c = 0.05 * rng.standard_normal((2 * n_modes, 2 * n_modes))
        h = h + 0.5 * (c + c.T)
        a, _ = ref.drift_diffusion(BOSONIC, h, f, gamma)
        scale = 1.0 / float(np.linalg.norm(a, 2))
        spec = model_spec("cool", BOSONIC, h * scale, f, gamma * scale)
        if spec["cls"] == STABLE:
            covs = [ref.steady_state(spec["a"], spec["q"])]
            covs += [ref.propagate_to(spec["a"], spec["q"], x0, t) for t in times[1:]]
            if max(occupation(v) for v in covs) < nbar_cap:
                return spec
        admix *= 0.5


def occupation(v) -> float:
    return max((v[2 * j, 2 * j] + v[2 * j + 1, 2 * j + 1] - 2.0) / 4.0
               for j in range(v.shape[0] // 2))


def dephasing_oscillator(rng) -> dict:
    """One mode that rotates and dephases through the Hermitian channel q: alpha = 0."""
    w, rate = rng.uniform(0.5, 1.5), rng.uniform(0.005, 0.02)
    return model_spec("dephasing", BOSONIC, w * np.eye(2), np.array([[1.0, 0.0]], dtype=complex),
                      np.array([[rate]], dtype=complex))


def damped_oscillator(rng) -> dict:
    g, w, nbar = rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
    f = ref.ladder_transform(1, BOSONIC)
    gamma = np.diag([g * (nbar + 1.0), g * nbar]).astype(complex)
    return model_spec("damped_oscillator", BOSONIC, w * np.eye(2), f, gamma,
                      rate=g, nbar=nbar)


def tmsv_engineering(rng) -> dict:
    """L1 = cosh r a1 + sinh r a2^dag, L2 = cosh r a2 + sinh r a1^dag.

    The unique steady state is the two-mode squeezed vacuum; in glme's
    covariance convention it is tmsv_cov(-r), so log negativity = 2r and the
    (1, 1) Duan sum = 2 e^{-2r}.
    """
    r = rng.uniform(0.05, 1.0)
    ch, sh = np.cosh(r), np.sinh(r)
    rows = np.array([[ch, 0, 0, sh], [0, ch, sh, 0]], dtype=complex)
    f = rows @ ref.ladder_transform(2, BOSONIC)
    return model_spec("tmsv", BOSONIC, np.zeros((4, 4)), f,
                      rng.uniform(0.3, 1.5) * np.eye(2, dtype=complex), r=r)


def reservoir_spec(rng, flavor: str, n_modes: int, dark: bool) -> dict:
    """Coupling table on a flat thermal reservoir, with its closed-form model.

    Every term lowers its mode at Omega = 0, so only the (-, -) pairs of rate
    families 1 and 4 survive, on modes of equal frequency that share a
    channel: Gamma = blockdiag(kappa (nbar + 1) C, kappa nbar C) with
    C_jk = sum over channels of c_j c_k. ``dark`` makes two modes degenerate on
    a single shared channel, so C is rank deficient and one mode is dark.
    """
    kappa, nbar = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5)
    if dark:
        freqs = np.full(n_modes, rng.uniform(0.5, 2.0))
        channels = 1
    else:
        freqs = 0.5 + 0.7 * np.arange(n_modes) + rng.uniform(0.0, 0.2, n_modes)
        channels = int(rng.integers(1, 3))
    terms = []
    c = np.zeros((n_modes, n_modes))
    for ch in range(channels):
        amps = rng.uniform(0.3, 1.0, n_modes)
        for mode in range(n_modes):
            terms.append((mode, ch, "-", float(amps[mode]), 0.0))
        same = np.abs(freqs[:, None] - freqs[None, :]) <= 1e-9 * max(1.0, float(np.max(freqs)))
        c += np.outer(amps, amps) * same
    gamma = _block_diag(kappa * (nbar + 1.0) * c, kappa * nbar * c)
    w = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    w[n_modes:, :n_modes] = np.diag(freqs)
    t = ref.ladder_transform(n_modes, flavor)
    mq = t.T @ w @ t
    ham = (mq + mq.T) if flavor == BOSONIC else (-1j * (mq - mq.T))
    return model_spec("reservoir_dark" if dark else "reservoir", flavor, ham.real, t, gamma,
                      table={"freqs": freqs, "terms": terms}, kappa=kappa, nbar=nbar)


def initial_cov(rng, spec) -> np.ndarray:
    """Physical initial covariance: thermal-squeezed product (bosons), random (fermions)."""
    n = spec["n_modes"]
    if spec["flavor"] == BOSONIC:
        diag = []
        for _ in range(n):
            nu, r = 1.0 + rng.uniform(0.0, 1.0), rng.uniform(-0.3, 0.3)
            diag += [nu * np.exp(-2 * r), nu * np.exp(2 * r)]
        return np.diag(diag)
    return random_sigma(rng, n, 0.8)


def random_sigma(rng, n_modes: int, lam_max: float) -> np.ndarray:
    """Orthogonal congruence of a block-diagonal core with |lambda_j| <= lam_max."""
    core = np.zeros((2 * n_modes, 2 * n_modes))
    for j, lam in enumerate(rng.uniform(0.05, lam_max, n_modes)):
        core[2 * j, 2 * j + 1], core[2 * j + 1, 2 * j] = lam, -lam
    o, r = np.linalg.qr(rng.standard_normal((2 * n_modes, 2 * n_modes)))
    o = o * np.sign(np.diag(r))
    return o @ core @ o.T
