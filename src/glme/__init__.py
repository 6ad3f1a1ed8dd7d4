"""Linear open quantum system dynamics with cross-damping.

Covariance-level simulation of bosonic and fermionic modes whose density
matrix evolution couples decoherence channels through a full decoherence
matrix, with dense brute-force oracles for validation. Only ``model`` loads
with the package; the other submodules load on first access (PEP 562).
"""

import importlib

from .model import (
    BOSONIC,
    FERMIONIC,
    GeneralizedLindbladModel,
    StandardForm,
    ValidationReport,
    ladder_to_canonical,
    canonical_to_ladder,
    split_non_hermitian,
    symplectic_form,
    to_standard_form,
    validate_model,
)

_LAZY = ("bosonic", "entanglement", "fermionic", "io", "lyapunov", "oracle", "reservoir")

__all__ = sorted([
    "BOSONIC",
    "FERMIONIC",
    "GeneralizedLindbladModel",
    "StandardForm",
    "ValidationReport",
    "canonical_to_ladder",
    "ladder_to_canonical",
    "model",
    "split_non_hermitian",
    "symplectic_form",
    "to_standard_form",
    "validate_model",
    *_LAZY,
])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
