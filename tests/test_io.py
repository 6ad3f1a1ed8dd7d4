import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glme import bosonic, fermionic, io
from glme.errors import ParseError, StructuralError

from conftest import damped_oscillator_model, random_bosonic_model, random_fermionic_model


class TestDeterministicJson:
    def test_float_formatting(self):
        assert io.format_float(0.1) == "0.10000000000000001"
        assert io.format_float(1e-300) == "1e-300"
        assert "e" in io.format_float(3.5e120) and "E" not in io.format_float(3.5e120)
        assert io.dumps({"a": [1, 2.5, True, None, "x"]}) == '{"a": [1, 2.5, true, null, "x"]}'

    def test_byte_determinism(self):
        payload = {"v": np.linspace(0, 1, 7), "n": 3, "flag": False}
        assert io.dumps(payload) == io.dumps(payload)

    @pytest.mark.parametrize("arr, text", [
        (np.array(1.5), "1.5"),
        (np.array(-0.0), "-0"),
        (np.array([]), "[]"),
        (np.zeros((2, 0)), "[[], []]"),
        (np.zeros((0, 3)), "[]"),
        (np.array([0.1, 1.0], dtype=np.float32), "[0.10000000149011612, 1]"),
        (np.array([[1, -2], [3, 4]]), "[[1, -2], [3, 4]]"),
        (np.array([True, False]), "[true, false]"),
        (np.array([[1.0, 5e-324], [1e16, -2.5e120]]),
         "[[1, 4.9406564584124654e-324], [10000000000000000, -2.5000000000000001e+120]]"),
    ])
    def test_array_rendering(self, arr, text):
        assert io.dumps(arr) == text
        assert io.dumps({"x": [arr]}) == '{"x": [' + text + "]}"

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2), (1, 1, 1, 1)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_array_rendering_matches_per_number_reference(self, rng, shape, dtype):
        span = np.finfo(dtype).maxexp * 0.29    # decimal exponents that stay finite
        arr = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-span, span, size=shape)).astype(dtype)
        arr.flat[0] = -0.0
        assert io.dumps(arr) == _reference_render(arr.tolist())

    def test_complex_array_rejected(self):
        with pytest.raises(StructuralError, match="complex"):
            io.dumps({"z": np.array([1.0 + 2.0j])})

    @settings(max_examples=500, deadline=None)
    @given(st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
    def test_percent_format_matches_format_float(self, x):
        assert "%.17g" % x == format(x, ".17g") == io.format_float(x)
        assert io.dumps(np.array([x])) == "[" + io.format_float(x) + "]"


class TestModelFiles:
    def test_round_trip(self, tmp_path, rng):
        m = random_bosonic_model(rng, 2, 3)
        path = str(tmp_path / "model.json")
        io.save_model(m, path)
        loaded = io.load_model(path)
        assert loaded.flavor == m.flavor
        assert loaded.n_modes == m.n_modes
        assert np.max(np.abs(loaded.hamiltonian - m.hamiltonian)) == 0.0
        assert np.max(np.abs(loaded.f - m.f)) == 0.0
        assert np.max(np.abs(loaded.gamma - m.gamma)) == 0.0

    def test_fermionic_round_trip(self, tmp_path, rng):
        m = random_fermionic_model(rng, 2)
        path = str(tmp_path / "model.json")
        io.save_model(m, path)
        loaded = io.load_model(path)
        assert loaded.flavor == "fermionic"
        assert np.max(np.abs(loaded.gamma - m.gamma)) == 0.0

    def test_ladder_basis_flag(self, tmp_path):
        m = damped_oscillator_model()
        payload = io.model_payload(m)
        payload["F"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        payload["ladder_basis"] = True
        path = str(tmp_path / "ladder.json")
        io.atomic_write(path, io.dumps(payload))
        loaded = io.load_model(path)
        assert np.max(np.abs(loaded.f - m.f)) <= 1e-16

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            io.load_model(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"kind": "bosonic", "n_modes": 1}')
        with pytest.raises(ParseError, match="missing"):
            io.load_model(str(path))

    def test_inconsistent_shapes(self, tmp_path):
        m = damped_oscillator_model()
        payload = io.model_payload(m)
        payload["Gamma"] = [[[1.0, 0.0]]]
        path = str(tmp_path / "shape.json")
        io.atomic_write(path, io.dumps(payload))
        with pytest.raises(ParseError):
            io.load_model(path)


class TestStateFiles:
    def test_bosonic_state_round_trip(self, tmp_path):
        state = bosonic.GaussianState(np.array([0.5, -1.0]), np.array([[2.0, 0.1], [0.1, 1.0]]))
        path = str(tmp_path / "state.json")
        io.save_state(state, path)
        loaded = io.load_state(path)
        assert isinstance(loaded, bosonic.GaussianState)
        assert np.max(np.abs(loaded.v - state.v)) == 0.0
        assert np.max(np.abs(loaded.mean - state.mean)) == 0.0

    def test_fermionic_state_round_trip(self, tmp_path):
        sigma = np.array([[0.0, 0.4], [-0.4, 0.0]])
        path = str(tmp_path / "state.json")
        io.save_state(fermionic.FermionicGaussianState(sigma), path)
        loaded = io.load_state(path)
        assert isinstance(loaded, fermionic.FermionicGaussianState)
        assert np.max(np.abs(loaded.sigma - sigma)) == 0.0

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"kind": "anyonic"}')
        with pytest.raises(ParseError, match="kind"):
            io.load_state(str(path))


def _reference_render(value) -> str:
    """Per-number JSON rendering of a nested list, the bytes io.dumps must produce."""
    if isinstance(value, list):
        return "[" + ", ".join(_reference_render(v) for v in value) + "]"
    return io.format_float(value)


# Edge values: signed zero, the smallest subnormal, tiny, integer-valued and
# huge floats, and ones that need all 17 significant digits.
_EDGE_VALUES = np.array([-0.0, 5e-324, 1e-300, 1e16, -2.5e120, 1.0, 0.1, -3.0, 2.0 / 3.0, 123456789.0])

# sha256 of each trajectory writer's output in _pinned_outputs(); the
# writers' bytes must never change.
_PINNED_SHA256 = {
    "bosonic_csv": "b254dd5bfbe6e5d702649e9a3bfae465dc93a371526f6aa6f1083765c33a0e46",
    "bosonic_json": "a730ee91ecb663c91ace5b42374cb51cd849f6f37fca3f510c82bab1a2eb87e4",
    "fermionic_csv": "193735ba518aea5936844e8b0167c05f7f26932f8d8d84a378daa161b752eea3",
    "fermionic_json": "ab4b04ed8b24f1434dd7fa1b7cd946763b44a6d79d2be451b6e2c6a9c99604c8",
}


def _pinned_outputs() -> dict[str, str]:
    """The four writers on fixed two-mode trajectories built from _EDGE_VALUES."""
    times = np.array([0.0, 0.1, 1.0, 2.5])
    upper, strict = np.triu_indices(4), np.triu_indices(4, 1)
    means, covs, fermionic_states = [], [], []
    for k in range(times.size):
        vals = np.roll(_EDGE_VALUES, k)
        v = np.zeros((4, 4))
        v[upper] = vals
        v[upper[1], upper[0]] = vals
        sigma = np.zeros((4, 4))
        sigma[strict] = vals[:6]
        sigma[strict[1], strict[0]] = -vals[:6]
        means.append(vals[:4])
        covs.append(v)
        fermionic_states.append(fermionic.FermionicGaussianState(sigma))
    traj = bosonic.Trajectory(times=times, covs=np.array(covs), means=np.array(means))
    return {
        "bosonic_csv": io.bosonic_trajectory_csv(traj),
        "bosonic_json": io.bosonic_trajectory_json(traj),
        "fermionic_csv": io.fermionic_trajectory_csv(times, fermionic_states),
        "fermionic_json": io.fermionic_trajectory_json(times, fermionic_states),
    }


def _edge_pairs(rng, n_times: int, dim: int, sign: float) -> np.ndarray:
    """Stacked matrices with m[k, j] = sign * m[j, k] above the diagonal.

    Even states put _EDGE_VALUES first in the upper triangle, odd ones put
    zero pairs there with each combination of signs: (+0, +0), which a
    fermionic antisymmetric part stores, (+0, -0), (-0, +0) and (-0, -0).
    Other upper entries are random 17-digit values across many decades. The
    bosonic diagonal cycles through _EDGE_VALUES; the fermionic one is 0.
    """
    upper = np.triu_indices(dim, 1)
    size = upper[0].size
    exponents = rng.integers(-30, 30, size=(n_times, size))
    vals = rng.standard_normal((n_times, size)) * 10.0 ** exponents
    for t in range(0, n_times, 2):
        vals[t, :min(size, 10)] = np.roll(_EDGE_VALUES, t // 2)[:size]
    m = np.zeros((n_times, dim, dim))
    m[:, upper[0], upper[1]] = vals
    m[:, upper[1], upper[0]] = sign * vals
    zeros = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]
    for t in range(1, n_times, 2):
        for p in range(min(size, 4)):
            m[t, upper[0][p], upper[1][p]], m[t, upper[1][p], upper[0][p]] = zeros[(p + t // 2) % 4]
    if sign > 0:
        for t in range(n_times):
            m[t, range(dim), range(dim)] = np.resize(np.roll(_EDGE_VALUES, t), dim)
    return m


_EDGE_TEXTS = {"0", "-0", "4.9406564584124654e-324", "10000000000000000", "0.66666666666666663"}


def _reference_csv(header: list[str], rows) -> str:
    return "".join(",".join(line) + "\n" for line in [header] + [
        [io.format_float(x) for x in row] for row in rows])


def _reference_json(kind: str, times, states: list[dict]) -> str:
    """A trajectory JSON with every number rendered by format_float."""
    rendered = ", ".join("{" + ", ".join(f'"{key}": {_reference_render(value.tolist())}'
                                         for key, value in state.items()) + "}" for state in states)
    times = _reference_render(np.asarray(times, dtype=float).tolist())
    return f'{{"kind": "{kind}", "times": {times}, "states": [{rendered}]}}\n'


class TestTrajectorySerialization:
    @pytest.mark.parametrize("writer", sorted(_PINNED_SHA256))
    def test_writer_bytes_pinned(self, writer):
        text = _pinned_outputs()[writer]
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_SHA256[writer]

    @pytest.mark.parametrize("n_modes, n_times", [(1, 9), (2, 5), (3, 4), (20, 4)])
    def test_bosonic_writers_match_per_number_rendering(self, rng, n_modes, n_times):
        dim = 2 * n_modes
        times = np.cumsum(rng.choice(_EDGE_VALUES[5:], size=n_times) ** 2) - 1.0
        means = rng.choice(_EDGE_VALUES, size=(n_times, dim))
        traj = bosonic.Trajectory(times, _edge_pairs(rng, n_times, dim, 1.0), means)
        assert _EDGE_TEXTS <= {io.format_float(x) for x in traj.covs.ravel()}
        header = ["t"] + [f"mean_{j + 1}" for j in range(dim)]
        header += [f"V_{j + 1}{k + 1}" for j in range(dim) for k in range(dim)]
        rows = [[t, *mean, *v.ravel()] for t, mean, v in zip(traj.times, traj.means, traj.covs)]
        assert io.bosonic_trajectory_csv(traj) == _reference_csv(header, rows)
        states = [{"mean": mean, "V": v} for mean, v in zip(traj.means, traj.covs)]
        assert io.bosonic_trajectory_json(traj) == _reference_json("bosonic", traj.times, states)

    @pytest.mark.parametrize("n_modes, n_times", [(1, 9), (2, 5), (3, 4), (20, 4)])
    @pytest.mark.parametrize("container", ["trajectory", "states"])
    def test_fermionic_writers_match_per_number_rendering(self, rng, n_modes, n_times, container):
        dim = 2 * n_modes
        times = np.cumsum(rng.choice(_EDGE_VALUES[5:], size=n_times) ** 2) - 1.0
        traj = bosonic.Trajectory(times, _edge_pairs(rng, n_times, dim, -1.0))
        sigmas = traj.covs
        if n_modes > 1:
            assert _EDGE_TEXTS <= {io.format_float(x) for x in sigmas.ravel()}
        # every sign combination of a zero pair survives the antisymmetric part
        pairs = {(np.signbit(s[j, k]), np.signbit(s[k, j]))
                 for s in sigmas for j, k in zip(*np.triu_indices(dim, 1)) if s[j, k] == 0}
        assert pairs == {(False, False), (False, True), (True, False)}
        if container == "states":
            times, states = times.tolist(), [fermionic.FermionicGaussianState(s) for s in sigmas]
        else:
            states = traj
        upper = np.triu_indices(dim, 1)
        header = ["t"] + [f"sigma_{j + 1}{k + 1}" for j, k in zip(*upper)]
        rows = [[t, *s[upper]] for t, s in zip(traj.times, sigmas)]
        assert io.fermionic_trajectory_csv(times, states) == _reference_csv(header, rows)
        expected = _reference_json("fermionic", times, [{"sigma": s} for s in sigmas])
        assert io.fermionic_trajectory_json(times, states) == expected

    def test_fermionic_writers_reject_bosonic_trajectory(self):
        traj = bosonic.Trajectory([0.0], np.eye(2)[None], np.zeros((1, 2)))
        for writer in (io.fermionic_trajectory_csv, io.fermionic_trajectory_json):
            with pytest.raises(StructuralError, match="bosonic"):
                writer(traj.times, traj)

    def test_empty_fermionic_json(self):
        assert io.fermionic_trajectory_json([], []) == '{"kind": "fermionic", "times": [], "states": []}\n'

    def test_empty_fermionic_csv_refused(self):
        # the mode count, and so the header, is unknown without a state
        with pytest.raises(StructuralError, match="empty"):
            io.fermionic_trajectory_csv([], [])

    def test_bosonic_csv_layout(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        traj = bosonic.propagate_covariance(dd, np.eye(2), np.linspace(0, 1, 3))
        text = io.bosonic_trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,mean_1,mean_2,V_11,V_12,V_21,V_22"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] == "1"

    def test_fermionic_csv_layout(self):
        from conftest import fermionic_decay_model

        dd = fermionic.build_drift_diffusion(fermionic_decay_model())
        times = np.linspace(0, 1, 3)
        states = fermionic.propagate_covariance(dd, np.zeros((2, 2)), times)
        text = io.fermionic_trajectory_csv(times, states)
        lines = text.strip().split("\n")
        assert lines[0] == "t,sigma_12"
        assert len(lines) == 4

    def test_fermionic_csv_upper_triangle_order(self, rng):
        sigma = 0.1 * (lambda a: a - a.T)(rng.standard_normal((4, 4)))
        states = [fermionic.FermionicGaussianState(sigma)]
        text = io.fermionic_trajectory_csv([0.0], states)
        header = text.split("\n")[0]
        assert header == "t,sigma_12,sigma_13,sigma_14,sigma_23,sigma_24,sigma_34"

    def test_fermionic_csv_length_mismatch_rejected(self):
        states = [fermionic.FermionicGaussianState(np.zeros((2, 2)))] * 2
        for writer in (io.fermionic_trajectory_csv, io.fermionic_trajectory_json):
            with pytest.raises(StructuralError, match="equal length"):
                writer([0.0, 1.0, 2.0], states)

    def test_fermionic_writers_take_trajectory_or_list(self):
        from conftest import fermionic_decay_model

        dd = fermionic.build_drift_diffusion(fermionic_decay_model())
        times = np.linspace(0, 1, 4)
        traj = fermionic.propagate_covariance(dd, np.zeros((2, 2)), times)
        for writer in (io.fermionic_trajectory_csv, io.fermionic_trajectory_json):
            assert writer(times, traj) == writer(times, list(traj))

    def test_bosonic_writers_reject_fermionic_trajectory(self):
        from conftest import fermionic_decay_model

        dd = fermionic.build_drift_diffusion(fermionic_decay_model())
        traj = fermionic.propagate_covariance(dd, np.zeros((2, 2)), [0.0, 1.0])
        for writer in (io.bosonic_trajectory_csv, io.bosonic_trajectory_json):
            with pytest.raises(StructuralError, match="fermionic"):
                writer(traj)

    def test_json_trajectory(self):
        dd = bosonic.build_drift_diffusion(damped_oscillator_model())
        traj = bosonic.propagate_covariance(dd, np.eye(2), [0.0, 1.0])
        import json

        payload = json.loads(io.bosonic_trajectory_json(traj))
        assert payload["kind"] == "bosonic"
        assert len(payload["times"]) == 2
        assert len(payload["states"]) == 2
        assert len(payload["states"][0]["V"]) == 2


class TestCouplingAndSpectralFiles:
    def test_coupling_table(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(
            '{"mode_frequencies": [2.0], '
            '"couplings": [{"mode": 0, "channel": 0, "sign": "-", "c": 1.0, "Omega": 0.0}]}'
        )
        table = io.load_coupling_table(str(path))
        assert table.n_modes == 1
        assert table.terms[0].sign == "-"

    def test_flat_spectral(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"builtin": "flat", "kappa": 1.0, "nbar": 0.5}')
        spectral = io.load_spectral(str(path))
        assert spectral.evaluate(1, 0, 3.0) == pytest.approx(0.75)
        assert spectral.evaluate(2, 0, 3.0) == pytest.approx(0.25)

    def test_tabulated_spectral(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"table": [[0.0, 0.0, 0.0], [4.0, 2.0, 0.0]]}')
        spectral = io.load_spectral(str(path))
        assert spectral.evaluate(1, 0, 2.0) == pytest.approx(1.0)
        assert spectral.evaluate(2, 0, 2.0) == 0.0

    def test_per_channel_list(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '[{"builtin": "flat", "kappa": 1.0}, '
            '{"channel": 2, "builtin": "flat", "kappa": 4.0}]'
        )
        spectral = io.load_spectral(str(path))
        assert spectral.evaluate(1, 0, 1.0) == pytest.approx(0.5)
        assert spectral.evaluate(1, 2, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("entries, duplicate", [
        ('{"builtin": "flat", "kappa": 1.0}, {"builtin": "flat", "kappa": 9.0}',
         "entry without a channel"),
        ('{"channel": 2, "builtin": "flat", "kappa": 1.0}, '
         '{"channel": 2, "builtin": "flat", "kappa": 9.0}', "entry for channel 2"),
    ])
    def test_duplicate_spectral_entry_rejected(self, tmp_path, entries, duplicate):
        path = tmp_path / "spec.json"
        path.write_text(f"[{entries}]")
        with pytest.raises(ParseError, match=f"duplicate spectral {duplicate}"):
            io.load_spectral(str(path))

    def test_unlisted_channel_falls_back_to_first_entry(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '[{"channel": 1, "builtin": "flat", "kappa": 2.0}, '
            '{"channel": 3, "builtin": "flat", "kappa": 6.0}]'
        )
        spectral = io.load_spectral(str(path))
        assert spectral.evaluate(1, 0, 1.0) == pytest.approx(1.0)
        assert spectral.evaluate(1, 3, 1.0) == pytest.approx(3.0)

    def test_spectral_entry_missing_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"builtin": "flat"}')
        with pytest.raises(ParseError, match="missing required field 'kappa'"):
            io.load_spectral(str(path))

    def test_bad_builtin(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"builtin": "ohmic"}')
        with pytest.raises(ParseError, match="builtin"):
            io.load_spectral(str(path))
