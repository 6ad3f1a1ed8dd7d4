"""File formats and deterministic serialization.

Model files, state files, coupling tables, and spectral data are JSON;
trajectories are CSV or JSON. All floats are rendered with 17 significant
digits and a lowercase exponent so identical inputs produce byte-identical
output.

A float rendered on its own goes through ``format_float``. A float array
(a JSON value, or the stacked rows of a CSV trajectory) is rendered with one
``%`` operation: a template repeating ``"%.17g"`` in the array's layout is
applied to all its numbers at once. ``"%.17g" % x`` and
``format(x, ".17g")`` give the same text for every double, including
``-0``, subnormals, ``inf`` and ``nan``, so both paths write the same bytes.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .bosonic import GaussianState, Trajectory
from .errors import ParseError, StructuralError
from .fermionic import FermionicGaussianState
from .model import BOSONIC, FERMIONIC, FLAVORS, GeneralizedLindbladModel, ladder_to_canonical
from .reservoir import CouplingTable, CouplingTerm, SpectralFunctions


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def dumps(obj) -> str:
    """Deterministic JSON with fixed float formatting."""
    pieces: list[str] = []
    _render(obj, pieces)
    return "".join(pieces)


def _render(obj, out: list[str]):
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _render(value, out)
        out.append("]")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        out.append(_template(obj.shape) % tuple(obj.ravel().tolist()))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise StructuralError(f"cannot serialize object of type {type(obj).__name__}")


def _template(shape: tuple[int, ...]) -> str:
    """``%`` template rendering a float array of ``shape`` as nested JSON lists."""
    if not shape:
        return "%.17g"
    return "[" + ", ".join([_template(shape[1:])] * shape[0]) + "]"


def _csv(header: list[str], rows: np.ndarray) -> str:
    """Header line plus one line per row of a 2-D float array."""
    row_template = ",".join(["%.17g"] * rows.shape[1])
    lines = [",".join(header)]
    lines += [row_template % tuple(row) for row in rows.tolist()]
    return "\n".join(lines) + "\n"


def atomic_write(path: str, text: str):
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _real_matrix(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} must be a rectangular array of reals") from exc
    if arr.ndim != 2:
        raise ParseError(f"{name} must be a matrix, got ndim {arr.ndim}")
    return arr


def _complex_matrix(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} must be an array of [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError(f"{name} must be a matrix of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_pairs(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix, dtype=complex)]


def load_model(path: str) -> GeneralizedLindbladModel:
    """Read a model file, enforcing all type invariants."""
    data = _load_json(path)
    try:
        kind = data["kind"]
        n_modes = int(data["n_modes"])
        hamiltonian = _real_matrix(data["hamiltonian"], "hamiltonian")
        f = _complex_matrix(data["F"], "F")
        gamma = _complex_matrix(data["Gamma"], "Gamma")
    except KeyError as exc:
        raise ParseError(f"{path}: missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if kind not in FLAVORS:
        raise ParseError(f"{path}: kind must be one of {FLAVORS}, got {kind!r}")
    if data.get("ladder_basis", False):
        try:
            f = ladder_to_canonical(f, kind)
        except StructuralError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    try:
        return GeneralizedLindbladModel(
            flavor=kind, n_modes=n_modes, hamiltonian=hamiltonian, f=f, gamma=gamma
        )
    except StructuralError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def model_payload(model: GeneralizedLindbladModel) -> dict:
    return {
        "kind": model.flavor,
        "n_modes": model.n_modes,
        "hamiltonian": model.hamiltonian,
        "F": _complex_pairs(model.f),
        "Gamma": _complex_pairs(model.gamma),
    }


def save_model(model: GeneralizedLindbladModel, path: str):
    atomic_write(path, dumps(model_payload(model)) + "\n")


def load_state(path: str):
    """Read a state file; returns a bosonic or fermionic state by kind."""
    data = _load_json(path)
    kind = data.get("kind")
    if kind == BOSONIC:
        try:
            v = _real_matrix(data["V"], "V")
            mean = np.asarray(data.get("mean", np.zeros(v.shape[0])), dtype=float)
            return GaussianState(mean=mean, v=v)
        except KeyError as exc:
            raise ParseError(f"{path}: missing required field {exc}") from exc
        except (StructuralError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if kind == FERMIONIC:
        try:
            sigma = _real_matrix(data["sigma"], "sigma")
            return FermionicGaussianState(sigma=sigma)
        except KeyError as exc:
            raise ParseError(f"{path}: missing required field {exc}") from exc
        except (StructuralError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(f"{path}: kind must be one of {FLAVORS}, got {kind!r}")


def save_state(state, path: str):
    if isinstance(state, GaussianState):
        payload = {"kind": BOSONIC, "mean": state.mean, "V": state.v}
    elif isinstance(state, FermionicGaussianState):
        payload = {"kind": FERMIONIC, "sigma": state.sigma}
    else:
        raise StructuralError(f"cannot serialize state of type {type(state).__name__}")
    atomic_write(path, dumps(payload) + "\n")


def bosonic_trajectory_csv(trajectory: Trajectory) -> str:
    """CSV rows t, mean_1..mean_2N, V_11..V_2N2N (row-major full matrix)."""
    states = trajectory.states
    n2 = states[0].v.shape[0]
    header = ["t"]
    header += [f"mean_{j + 1}" for j in range(n2)]
    header += [f"V_{j + 1}{k + 1}" for j in range(n2) for k in range(n2)]
    rows = np.empty((len(states), 1 + n2 + n2 * n2))
    rows[:, 0] = trajectory.times
    rows[:, 1:1 + n2] = [s.mean for s in states]
    rows[:, 1 + n2:] = np.reshape([s.v for s in states], (len(states), -1))
    return _csv(header, rows)


def fermionic_trajectory_csv(times, states) -> str:
    """CSV rows t, sigma_12, sigma_13, ... (strict upper triangle, row-major)."""
    if len(times) != len(states):
        raise StructuralError("times and states must have equal length")
    n2 = states[0].sigma.shape[0]
    upper = np.triu_indices(n2, 1)
    header = ["t"] + [f"sigma_{j + 1}{k + 1}" for j, k in zip(*upper)]
    rows = np.empty((len(states), 1 + upper[0].size))
    rows[:, 0] = times
    rows[:, 1:] = np.array([s.sigma for s in states])[:, upper[0], upper[1]]
    return _csv(header, rows)


def bosonic_trajectory_json(trajectory: Trajectory) -> str:
    payload = {
        "kind": BOSONIC,
        "times": trajectory.times,
        "states": [{"mean": s.mean, "V": s.v} for s in trajectory.states],
    }
    return dumps(payload) + "\n"


def fermionic_trajectory_json(times, states) -> str:
    payload = {
        "kind": FERMIONIC,
        "times": np.asarray(times),
        "states": [{"sigma": s.sigma} for s in states],
    }
    return dumps(payload) + "\n"


def load_coupling_table(path: str) -> CouplingTable:
    """Read mode frequencies and coupling terms from a table file."""
    data = _load_json(path)
    try:
        freqs = np.asarray(data["mode_frequencies"], dtype=float)
        raw_terms = data.get("couplings", [])
        terms = [
            CouplingTerm(
                mode=int(t["mode"]),
                channel=int(t["channel"]),
                sign=str(t["sign"]),
                c=float(t["c"]),
                omega=float(t["Omega"]),
            )
            for t in raw_terms
        ]
        return CouplingTable(n_modes=freqs.shape[0], mode_frequencies=freqs, terms=tuple(terms))
    except KeyError as exc:
        raise ParseError(f"{path}: missing required field {exc}") from exc
    except (StructuralError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_spectral(path: str) -> SpectralFunctions:
    """Read spectral data: a flat builtin or tabulated half-Fourier values.

    A single object applies to every channel; a list of objects with
    "channel" keys assigns tables per channel (the first entry without a
    channel key becomes the shared default).
    """
    data = _load_json(path)
    entries = data if isinstance(data, list) else [data]
    base: SpectralFunctions | None = None
    per_channel: list[tuple[int, SpectralFunctions]] = []
    try:
        for entry in entries:
            spec = _spectral_entry(entry, path)
            channel = entry.get("channel")
            if channel is None:
                if base is None:
                    base = spec
            else:
                per_channel.append((int(channel), spec))
        if base is None:
            if not per_channel:
                raise ParseError(f"{path}: no spectral entries found")
            base = per_channel[0][1]
        for channel, spec in per_channel:
            base = base.with_channel(channel, spec.s1, spec.s2)
        return base
    except (StructuralError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _spectral_entry(entry: dict, path: str) -> SpectralFunctions:
    if "builtin" in entry:
        if entry["builtin"] != "flat":
            raise ParseError(f"{path}: unknown builtin {entry['builtin']!r}")
        return SpectralFunctions.flat(kappa=float(entry["kappa"]),
                                      nbar=float(entry.get("nbar", 0.0)))
    if "table" in entry:
        s1 = entry["table"]
        s2 = entry.get("table_s2", [[row[0], 0.0, 0.0] for row in s1])
        return SpectralFunctions.tabulated(s1, s2)
    raise ParseError(f"{path}: spectral entry needs either 'builtin' or 'table'")
