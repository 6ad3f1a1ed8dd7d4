"""From microscopic couplings and reservoir spectra to a full model.

The pipeline mirrors a weak-coupling, Markovian derivation with a sharp
secular selection rule: time-dependent couplings are lists of monochromatic
terms, pairs of terms that beat at the same effective frequency survive, and
every surviving pair is weighted by a half-Fourier transform of a reservoir
correlation function evaluated at that frequency. Real parts of the resulting
rates build the decoherence matrix; imaginary parts build a Lamb-shift
Hamiltonian correction.

Effective frequencies: a term with sign "-" couples the lowering operator of
its mode and beats at Omega_term + omega_mode; a "+" term couples the raising
operator and beats at Omega_term - omega_mode.

Spectral conventions: ``s1`` is evaluated against the kernel e^{+i Omega s}
of the (b b+) correlation and ``s2`` against the kernel e^{-i Omega s} of the
(b+ b) correlation, so both are queried at the positive resonance frequency
itself. The flat built-in, s1 = (kappa/2)(nbar + 1) and s2 = (kappa/2) nbar,
reproduces ordinary thermal damping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import max_abs
from .errors import EvaluationError, NumericalError, PositivityError, StructuralError
from .model import (
    BOSONIC,
    FLAVORS,
    GeneralizedLindbladModel,
    ladder_transform,
    validate_model,
)

SIGNS = ("+", "-")

# For each rate family m and correlation index n: which coupling signs the
# (j, k) term pair must carry. Family m tags the operator bilinear the pair
# multiplies (1: raise-lower, 2: lower-lower, 3: raise-raise, 4: lower-raise).
_PAIR_RULES: dict[int, dict[int, tuple[str, str]]] = {
    1: {1: ("-", "-"), 2: ("+", "+")},
    2: {1: ("+", "-"), 2: ("-", "+")},
    3: {1: ("-", "+"), 2: ("+", "-")},
    4: {1: ("+", "+"), 2: ("-", "-")},
}


@dataclass(frozen=True)
class CouplingTerm:
    """One monochromatic component of a time-dependent coupling."""

    mode: int
    channel: int
    sign: str
    c: float
    omega: float

    def __post_init__(self):
        if self.sign not in SIGNS:
            raise StructuralError(f"coupling sign must be '+' or '-', got {self.sign!r}")
        if not np.isfinite(self.c) or not np.isfinite(self.omega):
            raise StructuralError("coupling amplitude and frequency must be finite")


@dataclass(frozen=True)
class CouplingTable:
    """Mode frequencies plus the list of coupling terms per (mode, channel)."""

    n_modes: int
    mode_frequencies: np.ndarray
    terms: tuple[CouplingTerm, ...]

    def __post_init__(self):
        if self.n_modes < 1:
            raise StructuralError("n_modes must be at least 1")
        freqs = np.asarray(self.mode_frequencies, dtype=float)
        if freqs.shape != (self.n_modes,):
            raise StructuralError(
                f"mode_frequencies must have length {self.n_modes}, got shape {freqs.shape}"
            )
        terms = tuple(self.terms)
        for term in terms:
            if not 0 <= term.mode < self.n_modes:
                raise StructuralError(f"coupling term references unknown mode {term.mode}")
        object.__setattr__(self, "mode_frequencies", freqs)
        object.__setattr__(self, "terms", terms)

    def channels(self) -> list[int]:
        return sorted({t.channel for t in self.terms})

    def effective_frequency(self, term: CouplingTerm) -> float:
        if term.sign == "-":
            return term.omega + float(self.mode_frequencies[term.mode])
        return term.omega - float(self.mode_frequencies[term.mode])

    def default_tol_freq(self) -> float:
        magnitudes = [abs(f) for f in self.mode_frequencies]
        magnitudes += [abs(t.omega) for t in self.terms]
        return 1e-9 * max(1.0, max(magnitudes, default=1.0))


@dataclass(frozen=True)
class SpectralFunctions:
    """Half-Fourier reservoir correlation evaluators, shared or per channel."""

    s1: Callable[[float], complex]
    s2: Callable[[float], complex]
    per_channel: dict[int, tuple[Callable, Callable]] = field(default_factory=dict)

    @classmethod
    def flat(cls, kappa: float, nbar: float = 0.0) -> "SpectralFunctions":
        """Frequency-independent thermal reservoir at occupation nbar."""
        if kappa < 0 or nbar < 0:
            raise StructuralError("flat spectrum needs kappa >= 0 and nbar >= 0")
        return cls(
            s1=lambda _freq: complex(0.5 * kappa * (nbar + 1.0)),
            s2=lambda _freq: complex(0.5 * kappa * nbar),
        )

    @classmethod
    def tabulated(cls, s1_points, s2_points) -> "SpectralFunctions":
        """Linear interpolation of (frequency, complex value) rows.

        Evaluation outside the tabulated frequency range is an error rather
        than an extrapolation.
        """
        return cls(s1=_interpolator(s1_points, "s1"), s2=_interpolator(s2_points, "s2"))

    def with_channel(self, channel: int, s1, s2) -> "SpectralFunctions":
        per = dict(self.per_channel)
        per[channel] = (s1, s2)
        return SpectralFunctions(s1=self.s1, s2=self.s2, per_channel=per)

    def evaluate(self, n: int, channel: int, frequency: float) -> complex:
        s1, s2 = self.per_channel.get(channel, (self.s1, self.s2))
        func = s1 if n == 1 else s2
        try:
            value = complex(func(frequency))
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"spectral function s{n} failed at frequency {frequency!r}: {exc}"
            ) from exc
        if not np.isfinite(value.real) or not np.isfinite(value.imag):
            raise EvaluationError(f"spectral function s{n} is not finite at frequency {frequency!r}")
        if value.real < -1e-12 * max(1.0, abs(value)):
            raise EvaluationError(
                f"spectral function s{n} has negative real part {value.real:.3e} "
                f"at frequency {frequency!r}; rates must be nonnegative"
            )
        return value


def _interpolator(points, name: str) -> Callable[[float], complex]:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
        raise StructuralError(f"{name} table must be rows of [frequency, re, im]")
    order = np.argsort(arr[:, 0])
    freqs, re, im = arr[order, 0], arr[order, 1], arr[order, 2]

    def evaluate(frequency: float) -> complex:
        if frequency < freqs[0] - 1e-12 or frequency > freqs[-1] + 1e-12:
            raise EvaluationError(
                f"{name} table covers [{freqs[0]}, {freqs[-1]}] but frequency "
                f"{frequency!r} was requested"
            )
        return complex(np.interp(frequency, freqs, re), np.interp(frequency, freqs, im))

    return evaluate


@dataclass(frozen=True)
class Contribution:
    """One surviving term pair of the secular selection rule."""

    j: int
    k: int
    channel: int
    amplitude_product: float
    eval_frequency: float
    correlation_index: int


@dataclass(frozen=True)
class RateSet:
    """The four complex rate matrices of the microscopic derivation."""

    gammas: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        if len(self.gammas) != 4:
            raise StructuralError("RateSet needs exactly four matrices")
        n = self.gammas[0].shape[0]
        gams = tuple(np.asarray(g, dtype=complex) for g in self.gammas)
        for g in gams:
            if g.shape != (n, n):
                raise StructuralError("rate matrices must share a square shape")
        object.__setattr__(self, "gammas", gams)

    @property
    def n_modes(self) -> int:
        return self.gammas[0].shape[0]

    def gamma(self, m: int) -> np.ndarray:
        return self.gammas[m - 1]

    def big_gamma(self, m: int) -> np.ndarray:
        """Decoherence block: twice the real part of the complex rates."""
        return 2.0 * self.gammas[m - 1].real

    def upsilon(self, m: int) -> np.ndarray:
        """Lamb-shift block: the imaginary part of the complex rates."""
        return self.gammas[m - 1].imag.copy()

    def symmetry_defect(self) -> float:
        g1, g2, g3, g4 = self.gammas
        return max(
            max_abs(g1 - g1.T),
            max_abs(g4 - g4.T),
            max_abs(g2 - g3.T),
        )


def resonant_contributions(table: CouplingTable, m: int,
                           tol_freq: float | None = None) -> list[Contribution]:
    """Enumerate the (term, term) pairs that survive the secular rule for family m.

    A pair survives when the effective frequencies of its two terms agree
    within ``tol_freq``; the evaluation frequency is the common resonant
    frequency (taken from the k side). Both correlation indices are scanned.
    """
    if m not in _PAIR_RULES:
        raise StructuralError(f"rate family m must be 1..4, got {m}")
    if tol_freq is None:
        tol_freq = table.default_tol_freq()
    if tol_freq < 0:
        raise StructuralError("tol_freq must be nonnegative")
    out: list[Contribution] = []
    for channel in table.channels():
        channel_terms = [t for t in table.terms if t.channel == channel]
        for n, (sign_j, sign_k) in sorted(_PAIR_RULES[m].items()):
            j_terms = [t for t in channel_terms if t.sign == sign_j]
            k_terms = [t for t in channel_terms if t.sign == sign_k]
            for tj in j_terms:
                fj = table.effective_frequency(tj)
                for tk in k_terms:
                    fk = table.effective_frequency(tk)
                    if abs(fj - fk) <= tol_freq:
                        out.append(Contribution(
                            j=tj.mode,
                            k=tk.mode,
                            channel=channel,
                            amplitude_product=tj.c * tk.c,
                            eval_frequency=fk,
                            correlation_index=n,
                        ))
    return out


def assemble_rates(table: CouplingTable, spectral: SpectralFunctions,
                   tol_freq: float | None = None) -> RateSet:
    """Sum spectral weights over all resonant contributions into rate matrices."""
    n = table.n_modes
    gammas = [np.zeros((n, n), dtype=complex) for _ in range(4)]
    for m in range(1, 5):
        for contrib in resonant_contributions(table, m, tol_freq):
            value = spectral.evaluate(contrib.correlation_index, contrib.channel,
                                      contrib.eval_frequency)
            gammas[m - 1][contrib.j, contrib.k] += contrib.amplitude_product * value
    rates = RateSet(gammas=tuple(gammas))
    defect = rates.symmetry_defect()
    scale = max(1.0, max(max_abs(g) for g in gammas))
    if defect > 1e-12 * scale:
        raise NumericalError(
            f"assembled rates broke their symmetry relations (defect {defect:.3e})",
            residual=defect,
        )
    return rates


def build_model(rates: RateSet, table: CouplingTable,
                flavor: str = BOSONIC) -> GeneralizedLindbladModel:
    """Assemble the full model from rate matrices and the coupling table.

    The decoherence matrix is the 2N x 2N block matrix over the ladder-basis
    channel vector (all lowering operators, then all raising operators); the
    Hamiltonian is the free part plus the Lamb-shift correction, both
    converted to the canonical basis.
    """
    if flavor not in FLAVORS:
        raise StructuralError(f"unknown flavor {flavor!r}")
    n = table.n_modes
    if rates.n_modes != n:
        raise StructuralError(
            f"rate matrices are {rates.n_modes}-mode but the table has {n} modes"
        )
    gamma_big = np.zeros((2 * n, 2 * n), dtype=complex)
    gamma_big[:n, :n] = rates.big_gamma(1)
    gamma_big[:n, n:] = rates.big_gamma(2)
    gamma_big[n:, :n] = rates.big_gamma(3)
    gamma_big[n:, n:] = rates.big_gamma(4)

    # Quadratic form W over the ladder vector (lowering ops first): the free
    # Hamiltonian populates the raise-lower block, the Lamb-shift blocks
    # follow the operator ordering of their families.
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        w[n + j, j] += table.mode_frequencies[j]
    w[n:, :n] += rates.upsilon(1)
    w[n:, n:] += rates.upsilon(2)
    w[:n, :n] += rates.upsilon(3)
    w[:n, n:] += rates.upsilon(4)

    t = ladder_transform(n, flavor)
    m = t.T @ w @ t
    if flavor == BOSONIC:
        ham_c = m + m.T
    else:
        ham_c = -1j * (m - m.T)
    imag_defect = max_abs(ham_c.imag)
    if imag_defect > 1e-10 * max(1.0, max_abs(ham_c)):
        raise NumericalError(
            f"assembled hamiltonian failed to be real (defect {imag_defect:.3e})",
            residual=imag_defect,
        )

    model = GeneralizedLindbladModel(
        flavor=flavor,
        n_modes=n,
        hamiltonian=ham_c.real,
        f=t,
        gamma=gamma_big,
    )
    report = validate_model(model)
    if not report.is_valid:
        raise PositivityError(
            "assembled decoherence matrix failed validation: "
            f"hermitian defect {report.hermitian_defect:.3e}, "
            f"min eigenvalue {report.min_gamma_eigenvalue:.3e}; "
            "check the spectral inputs"
        )
    return model


def assemble_model(table: CouplingTable, spectral: SpectralFunctions,
                   flavor: str = BOSONIC,
                   tol_freq: float | None = None) -> GeneralizedLindbladModel:
    """One-call pipeline: rates from the table and spectra, then the model."""
    return build_model(assemble_rates(table, spectral, tol_freq), table, flavor)
