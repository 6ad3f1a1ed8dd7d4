"""File formats and deterministic serialization.

Model files, state files, coupling tables, and spectral data are JSON;
trajectories are CSV or JSON. All floats are rendered with 17 significant
digits and a lowercase exponent so identical inputs produce byte-identical
output.

A float rendered on its own goes through ``format_float``. A float array in
a JSON payload is rendered with one ``%`` operation: a template repeating
``"%.17g"`` in the array's layout is applied to all its numbers at once.
``"%.17g" % x`` and ``format(x, ".17g")`` give the same text for every
double, including ``-0``, subnormals, ``inf`` and ``nan``, so both paths
write the same bytes.

The trajectory writers call ``%`` once per state (a CSV row), on each
distinct number once, taking the states in bounded slabs. Formatting is
nearly all their cost. A stored covariance is exactly symmetric (bosons) or
antisymmetric (fermions), since ``Trajectory`` and the state containers keep
only that exact part, so the writers format its upper triangle and copy the
texts to the mirrored positions. A bosonic mirror entry is the same double,
with the same text. A fermionic one is the exact negation, whose text is the
upper text with its sign toggled, except at zeros: the antisymmetric part of
equal entries is +0 on both sides, so a zero's mirror text is read from its
own sign bit. The texts fill a fixed ``%s`` template of the state's JSON
object, or join into its CSV line, giving the bytes of the per-number
rendering.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from operator import itemgetter

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


def _template(shape: tuple[int, ...], spec: str = "%.17g") -> str:
    """``%`` template rendering an array of ``shape`` as nested JSON lists, ``spec`` per entry."""
    if not shape:
        return spec
    return "[" + ", ".join([_template(shape[1:], spec)] * shape[0]) + "]"


# Numbers per slab that the trajectory writers turn into Python floats at once.
_SLAB = 1 << 16


def _csv_rows(values: np.ndarray):
    """Each row of a 2-D float array as ``%.17g`` texts joined by commas, one ``%`` per row."""
    template = ",".join(["%.17g"] * values.shape[1])
    step = max(1, _SLAB // values.shape[1])
    for start in range(0, len(values), step):
        for row in values[start:start + step].tolist():
            yield template % tuple(row)


def _mirror(n: int, upper: tuple[np.ndarray, np.ndarray], offset: int, shift: int = 0,
            fill: int = 0) -> list[int]:
    """For each row-major entry of an n x n matrix, its index into a state's texts.

    The ``upper`` entries' texts start at ``offset``; each mirrored entry's
    text sits ``shift`` after its upper entry's, and entries in neither
    triangle (the fermionic diagonal) take index ``fill``.
    """
    index = np.full((n, n), fill)
    index[upper] = offset + np.arange(upper[0].size)
    index[upper[::-1]] = index[upper] + shift
    return index.ravel().tolist()


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


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


@contextmanager
def _parsing(path: str):
    """Report what a file's contents break as ``ParseError("{path}: ...")``."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{path}: missing required field {exc}") from exc
    except (StructuralError, TypeError, ValueError, IndexError) as exc:
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


def _complex_pairs(matrix: np.ndarray) -> np.ndarray:
    """A complex matrix as its float array of [re, im] pairs, rendered by ``dumps``'s template."""
    return np.stack([matrix.real, matrix.imag], axis=-1)


def load_model(path: str) -> GeneralizedLindbladModel:
    """Read a model file, enforcing all type invariants."""
    data = _load_json(path)
    with _parsing(path):
        kind = data["kind"]
        n_modes = data["n_modes"]
        hamiltonian = _real_matrix(data["hamiltonian"], "hamiltonian")
        f = _complex_matrix(data["F"], "F")
        gamma = _complex_matrix(data["Gamma"], "Gamma")
        if kind not in FLAVORS:
            raise ParseError(f"{path}: kind must be one of {FLAVORS}, got {kind!r}")
        if data.get("ladder_basis", False):
            f = ladder_to_canonical(f, kind)
        return GeneralizedLindbladModel(
            flavor=kind, n_modes=n_modes, hamiltonian=hamiltonian, f=f, gamma=gamma
        )


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
    with _parsing(path):
        if not isinstance(data, dict):
            raise TypeError(f"top level must be a JSON object, got {type(data).__name__}")
        kind = data.get("kind")
        if kind not in FLAVORS:
            raise ParseError(f"{path}: kind must be one of {FLAVORS}, got {kind!r}")
        if kind == FERMIONIC:
            return FermionicGaussianState(sigma=_real_matrix(data["sigma"], "sigma"))
        v = _real_matrix(data["V"], "V")
        mean = np.asarray(data.get("mean", np.zeros(v.shape[0])), dtype=float)
        return GaussianState(mean=mean, v=v)


def save_state(state, path: str):
    if isinstance(state, GaussianState):
        payload = {"kind": BOSONIC, "mean": state.mean, "V": state.v}
    elif isinstance(state, FermionicGaussianState):
        payload = {"kind": FERMIONIC, "sigma": state.sigma}
    else:
        raise StructuralError(f"cannot serialize state of type {type(state).__name__}")
    atomic_write(path, dumps(payload) + "\n")


def _require_means(trajectory: Trajectory):
    if trajectory.means is None:
        raise StructuralError("bosonic trajectory writers need means; this trajectory is fermionic")


def bosonic_trajectory_csv(trajectory: Trajectory) -> str:
    """CSV rows t, mean_1..mean_2N, V_11..V_2N2N (row-major full matrix)."""
    _require_means(trajectory)
    n_times, n2 = trajectory.means.shape
    header = ["t"]
    header += [f"mean_{j + 1}" for j in range(n2)]
    header += [f"V_{j + 1}{k + 1}" for j in range(n2) for k in range(n2)]
    upper = np.triu_indices(n2)
    values = np.empty((n_times, 1 + n2 + upper[0].size))
    values[:, 0] = trajectory.times
    values[:, 1:1 + n2] = trajectory.means
    values[:, 1 + n2:] = trajectory.covs[:, upper[0], upper[1]]
    pick = itemgetter(*range(1 + n2), *_mirror(n2, upper, 1 + n2))
    lines = [",".join(header)]
    lines += [",".join(pick(row.split(","))) for row in _csv_rows(values)]
    return "\n".join(lines) + "\n"


def _sigmas(times, states) -> np.ndarray:
    """Stacked covariances of a fermionic ``Trajectory`` or list of states."""
    if len(times) != len(states):
        raise StructuralError("times and states must have equal length")
    if not isinstance(states, Trajectory):
        return np.array([s.sigma for s in states])
    if states.means is not None:
        raise StructuralError("fermionic trajectory writers need no means; this trajectory is bosonic")
    return states.covs


def fermionic_trajectory_csv(times, states) -> str:
    """CSV rows t, sigma_12, sigma_13, ... (strict upper triangle, row-major)."""
    sigmas = _sigmas(times, states)
    if sigmas.ndim != 3:
        raise StructuralError("an empty list of states has no mode count, so no CSV header")
    upper = np.triu_indices(sigmas.shape[1], 1)
    header = ["t"] + [f"sigma_{j + 1}{k + 1}" for j, k in zip(*upper)]
    rows = np.empty((len(sigmas), 1 + upper[0].size))
    rows[:, 0] = times
    rows[:, 1:] = sigmas[:, upper[0], upper[1]]
    return "\n".join([",".join(header), *_csv_rows(rows)]) + "\n"


def _trajectory_json(kind: str, times: np.ndarray, states: list[str]) -> str:
    """The text of ``dumps({"kind": kind, "times": times, "states": [...]})``, states pre-rendered."""
    return "".join(['{"kind": ', json.dumps(kind), ', "times": ', dumps(times),
                    ', "states": [', ", ".join(states), "]}\n"])


def bosonic_trajectory_json(trajectory: Trajectory) -> str:
    _require_means(trajectory)
    n2 = trajectory.means.shape[1]
    upper = np.triu_indices(n2)
    values = np.concatenate([trajectory.means, trajectory.covs[:, upper[0], upper[1]]], axis=1)
    pick = itemgetter(*range(n2), *_mirror(n2, upper, n2))
    template = '{"mean": ' + _template((n2,), "%s") + ', "V": ' + _template((n2, n2), "%s") + "}"
    states = [template % pick(row.split(",")) for row in _csv_rows(values)]
    return _trajectory_json(BOSONIC, trajectory.times, states)


def fermionic_trajectory_json(times, states) -> str:
    sigmas = _sigmas(times, states)
    times = np.asarray(times)
    if not len(sigmas):
        return _trajectory_json(FERMIONIC, times, [])
    n = sigmas.shape[1]
    upper = np.triu_indices(n, 1)
    values = sigmas[:, upper[0], upper[1]]
    # the mirror text of a zero is read from the mirror's sign bit, not toggled
    rows, cols = np.nonzero(values == 0)
    negative = np.signbit(sigmas[rows, upper[1][cols], upper[0][cols]])
    zeros: dict[int, list[tuple[int, str]]] = {}
    for i, k, neg in zip(rows.tolist(), cols.tolist(), negative.tolist()):
        zeros.setdefault(i, []).append((k, "-0" if neg else "0"))
    # a state's texts: the upper triangle, its mirror, then "0" for the diagonal (x - x is +0)
    m = upper[0].size
    pick = itemgetter(*_mirror(n, upper, 0, shift=m, fill=2 * m))
    template = '{"sigma": ' + _template((n, n), "%s") + "}"
    rendered = []
    for i, row in enumerate(_csv_rows(values)):
        texts = row.split(",")
        mirror = [t[1:] if t[0] == "-" else "-" + t for t in texts]
        for k, text in zeros.get(i, ()):
            mirror[k] = text
        rendered.append(template % pick(texts + mirror + ["0"]))
    return _trajectory_json(FERMIONIC, times, rendered)


def load_coupling_table(path: str) -> CouplingTable:
    """Read mode frequencies and coupling terms from a table file."""
    data = _load_json(path)
    with _parsing(path):
        freqs = np.asarray(data["mode_frequencies"], dtype=float)
        terms = [
            CouplingTerm(
                mode=int(t["mode"]),
                channel=int(t["channel"]),
                sign=str(t["sign"]),
                c=float(t["c"]),
                omega=float(t["Omega"]),
            )
            for t in data.get("couplings", [])
        ]
        return CouplingTable(n_modes=freqs.shape[0], mode_frequencies=freqs, terms=tuple(terms))


def load_spectral(path: str) -> SpectralFunctions:
    """Read spectral data: a flat builtin or tabulated half-Fourier values.

    A single object applies to every channel; a list of objects with
    "channel" keys assigns tables per channel. The one entry without a
    channel key is the shared default; without one, the first entry serves
    the channels the file does not list. A repeated channel, or a second
    entry without one, raises ``ParseError``.
    """
    data = _load_json(path)
    entries = data if isinstance(data, list) else [data]
    specs: dict[int | None, SpectralFunctions] = {}     # None keys the shared default
    with _parsing(path):
        for entry in entries:
            spec = _spectral_entry(entry, path)
            channel = entry.get("channel")
            channel = None if channel is None else int(channel)
            if channel in specs:
                which = "entry without a channel" if channel is None else f"entry for channel {channel}"
                raise ParseError(f"{path}: duplicate spectral {which}")
            specs[channel] = spec
        if not specs:
            raise ParseError(f"{path}: no spectral entries found")
        base = specs.pop(None) if None in specs else next(iter(specs.values()))
        for channel, spec in specs.items():
            base = base.with_channel(channel, spec.s1, spec.s2)
        return base


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
