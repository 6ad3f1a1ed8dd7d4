import json

import numpy as np
import pytest
from click.testing import CliRunner

import glme
from glme import bosonic, fermionic, io, model
from glme.cli import main

from conftest import (
    bell_pair_sigma,
    collective_decay_model,
    damped_oscillator_model,
    fermionic_decay_model,
    near_dark_pair_model,
    tmsv_cov,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def damped_file(tmp_path):
    path = str(tmp_path / "damped.json")
    io.save_model(damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.0), path)
    return path


@pytest.fixture
def thermal_file(tmp_path):
    path = str(tmp_path / "thermal.json")
    io.save_model(damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.5), path)
    return path


@pytest.fixture
def fermionic_file(tmp_path):
    path = str(tmp_path / "fdecay.json")
    io.save_model(fermionic_decay_model(gamma=0.5), path)
    return path


class TestValidate:
    def test_valid_model(self, runner, damped_file):
        result = runner.invoke(main, ["validate", damped_file])
        assert result.exit_code == 0
        assert json.loads(result.output)["is_valid"] is True

    def test_non_hermitian_gamma_exits_one(self, runner, tmp_path):
        m = damped_oscillator_model()
        payload = io.model_payload(m)
        payload["Gamma"] = [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path = str(tmp_path / "bad.json")
        io.atomic_write(path, io.dumps(payload))
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 1
        assert json.loads(result.output)["hermitian_defect"] == pytest.approx(2.0)

    def test_malformed_json_exits_two(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2


class TestEvolve:
    def test_damped_oscillator_csv(self, runner, damped_file, tmp_path):
        out = str(tmp_path / "traj.csv")
        result = runner.invoke(main, [
            "evolve", "--model", damped_file, "--t-final", "10", "--steps", "100",
            "--output", out,
        ])
        assert result.exit_code == 0, result.output
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 102  # header + 101 rows
        last = [float(x) for x in lines[-1].split(",")]
        v_final = np.array(last[3:]).reshape(2, 2)
        assert np.max(np.abs(v_final - np.eye(2))) <= 1e-6
        summary = json.loads(result.output)
        assert summary["final_purity"] == pytest.approx(1.0, abs=1e-6)

    def test_fermionic_decay(self, runner, fermionic_file, tmp_path):
        out = str(tmp_path / "ftraj.csv")
        result = runner.invoke(main, [
            "evolve", "--model", fermionic_file, "--t-final", "40", "--steps", "100",
            "--output", out,
        ])
        assert result.exit_code == 0, result.output
        lines = open(out).read().strip().split("\n")
        final_sigma12 = float(lines[-1].split(",")[1])
        assert final_sigma12 == pytest.approx(1.0, abs=1e-6)

    def test_near_dark_pair(self, runner, tmp_path):
        path = str(tmp_path / "near_dark.json")
        io.save_model(near_dark_pair_model(1e-8), path)
        result = runner.invoke(main, [
            "evolve", "--model", path, "--t-final", "2", "--steps", "1000",
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert result.exit_code == 0, result.output

    def test_zero_horizon_rejected(self, runner, damped_file):
        result = runner.invoke(main, [
            "evolve", "--model", damped_file, "--t-final", "0", "--steps", "1",
        ])
        assert result.exit_code == 1

    def test_byte_determinism(self, runner, damped_file, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            result = runner.invoke(main, [
                "evolve", "--model", damped_file, "--t-final", "3", "--steps", "30",
                "--output", out,
            ])
            assert result.exit_code == 0
            outputs.append(open(out, "rb").read())
        assert outputs[0] == outputs[1]

    def test_explicit_times_file(self, runner, damped_file, tmp_path):
        times_path = tmp_path / "times.txt"
        times_path.write_text("0.0\n0.5\n2.0\n")
        out = str(tmp_path / "traj.csv")
        result = runner.invoke(main, [
            "evolve", "--model", damped_file, "--times", str(times_path), "--output", out,
        ])
        assert result.exit_code == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("text", ["inf\n", "0.0\nnan\n", "0.0\n1.0\ninf\n"])
    def test_non_finite_times_file_rejected(self, runner, damped_file, tmp_path, text, fmt):
        times_path = tmp_path / "times.txt"
        times_path.write_text(text)
        out = tmp_path / f"traj.{fmt}"
        result = runner.invoke(main, [
            "evolve", "--model", damped_file, "--times", str(times_path), "--output", str(out),
            "--format", fmt,
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert error["code"] == "structure"
        assert "times must be finite" in error["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("flavor", ["bosonic", "fermionic"])
    def test_initial_state_file(self, runner, damped_file, fermionic_file, tmp_path, flavor):
        boson = flavor == "bosonic"
        path, out = str(tmp_path / "state.json"), str(tmp_path / "traj.json")
        if boson:
            state = bosonic.GaussianState(np.array([1.0, -0.5]), np.array([[2.0, 0.3], [0.3, 1.5]]))
            extra = {"mean0": state.mean}
        else:
            state = fermionic.FermionicGaussianState(np.array([[0.0, 0.4], [-0.4, 0.0]]))
            extra = {}
        io.save_state(state, path)
        result = runner.invoke(main, [
            "evolve", "--model", damped_file if boson else fermionic_file, "--state", path,
            "--t-final", "2", "--steps", "4", "--output", out, "--format", "json",
        ])
        assert result.exit_code == 0, result.output
        module = bosonic if boson else fermionic
        dd = module.build_drift_diffusion(io.load_model(damped_file if boson else fermionic_file))
        times = np.linspace(0.0, 2.0, 5)
        traj = module.propagate_covariance(dd, state.v if boson else state.sigma, times, **extra)
        expected = (io.bosonic_trajectory_json(traj) if boson
                    else io.fermionic_trajectory_json(times, traj))
        assert open(out).read() == expected
        if boson:
            assert np.max(np.abs(traj.means[-1])) > 0.1

    @pytest.mark.parametrize("state", [
        bosonic.GaussianState(np.zeros(2), np.eye(2)),
        fermionic.FermionicGaussianState(np.zeros((2, 2))),
    ])
    def test_initial_state_flavor_mismatch(self, runner, damped_file, fermionic_file,
                                           tmp_path, state):
        path = str(tmp_path / "state.json")
        io.save_state(state, path)
        mismatched = fermionic_file if isinstance(state, bosonic.GaussianState) else damped_file
        result = runner.invoke(main, ["evolve", "--model", mismatched, "--state", path])
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert error["code"] == "structure"
        assert "flavor" in error["detail"]

    def test_json_format(self, runner, damped_file, tmp_path):
        out = str(tmp_path / "traj.json")
        result = runner.invoke(main, [
            "evolve", "--model", damped_file, "--t-final", "1", "--steps", "4",
            "--output", out, "--format", "json",
        ])
        assert result.exit_code == 0
        payload = json.loads(open(out).read())
        assert payload["kind"] == "bosonic"
        assert len(payload["states"]) == 5


class TestSteadyState:
    def test_thermal_covariance(self, runner, thermal_file):
        result = runner.invoke(main, ["steady-state", "--model", thermal_file])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        np.testing.assert_allclose(payload["V_ss"], 2.0 * np.eye(2), atol=1e-10)
        assert payload["residual"] <= 1e-10

    def test_dark_mode_exits_one(self, runner, tmp_path):
        path = str(tmp_path / "dark.json")
        io.save_model(collective_decay_model(), path)
        result = runner.invoke(main, ["steady-state", "--model", path])
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert error["code"] == "stability"

    def test_near_dark_pair(self, runner, tmp_path):
        path = str(tmp_path / "near_dark.json")
        io.save_model(near_dark_pair_model(1e-8), path)
        result = runner.invoke(main, ["steady-state", "--model", path])
        assert result.exit_code == 0, result.output
        assert np.max(np.abs(json.loads(result.output)["V_ss"])) > 1e6

    def test_fermionic_vacuum(self, runner, fermionic_file):
        result = runner.invoke(main, ["steady-state", "--model", fermionic_file])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        np.testing.assert_allclose(payload["sigma_ss"], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


class TestEntanglement:
    def test_tmsv_logneg(self, runner, tmp_path):
        path = str(tmp_path / "tmsv.json")
        io.save_state(bosonic.GaussianState(np.zeros(4), tmsv_cov(0.5)), path)
        result = runner.invoke(main, ["entanglement", "--state", path, "--measure", "logneg"])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == pytest.approx(1.0, abs=1e-9)

    def test_tmsv_duan(self, runner, tmp_path):
        path = str(tmp_path / "tmsv.json")
        io.save_state(bosonic.GaussianState(np.zeros(4), tmsv_cov(0.5)), path)
        result = runner.invoke(main, [
            "entanglement", "--state", path, "--measure", "duan",
            "--alpha", "1", "--beta", "-1",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["value"] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)
        assert payload["entangled"] is True

    def test_fermionic_bell_logneg(self, runner, tmp_path):
        path = str(tmp_path / "bell.json")
        io.save_state(fermionic.FermionicGaussianState(bell_pair_sigma()), path)
        result = runner.invoke(main, ["entanglement", "--state", path, "--measure", "logneg"])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == pytest.approx(np.log(2.0), abs=1e-8)

    def test_single_mode_rejected(self, runner, tmp_path):
        path = str(tmp_path / "one.json")
        io.save_state(bosonic.GaussianState(np.zeros(2), np.eye(2)), path)
        result = runner.invoke(main, ["entanglement", "--state", path, "--measure", "logneg"])
        assert result.exit_code == 1

    def test_model_steady_state_input(self, runner, tmp_path):
        path = str(tmp_path / "two.json")
        f = model.ladder_to_canonical(np.eye(4, dtype=complex), "bosonic")
        gam = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        io.save_model(glme.GeneralizedLindbladModel("bosonic", 2, np.eye(4), f, gam), path)
        result = runner.invoke(main, ["entanglement", "--model", path, "--measure", "logneg"])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == pytest.approx(0.0)


class TestAssemble:
    def test_flat_pipeline_matches_handwritten(self, runner, tmp_path, damped_file):
        couplings = tmp_path / "couplings.json"
        couplings.write_text(json.dumps({
            "mode_frequencies": [2.0],
            "couplings": [{"mode": 0, "channel": 0, "sign": "-", "c": 1.0, "Omega": 0.0}],
        }))
        spectral = tmp_path / "flat.json"
        spectral.write_text(json.dumps({"builtin": "flat", "kappa": 0.5, "nbar": 0.0}))
        out = str(tmp_path / "assembled.json")
        result = runner.invoke(main, [
            "assemble", "--couplings", str(couplings), "--spectral", str(spectral),
            "--output", out,
        ])
        assert result.exit_code == 0, result.output
        built = io.load_model(out)
        ref = io.load_model(damped_file)
        dd_built = bosonic.build_drift_diffusion(built)
        dd_ref = bosonic.build_drift_diffusion(ref)
        assert np.max(np.abs(dd_built.a - dd_ref.a)) <= 1e-12
        assert np.max(np.abs(dd_built.d - dd_ref.d)) <= 1e-12
        check = runner.invoke(main, ["validate", out])
        assert check.exit_code == 0

    def test_empty_couplings(self, runner, tmp_path):
        couplings = tmp_path / "couplings.json"
        couplings.write_text(json.dumps({"mode_frequencies": [1.0], "couplings": []}))
        spectral = tmp_path / "flat.json"
        spectral.write_text(json.dumps({"builtin": "flat", "kappa": 1.0}))
        out = str(tmp_path / "empty.json")
        result = runner.invoke(main, [
            "assemble", "--couplings", str(couplings), "--spectral", str(spectral),
            "--output", out,
        ])
        assert result.exit_code == 0
        built = io.load_model(out)
        assert np.max(np.abs(built.gamma)) == 0.0


class TestOracleCheck:
    def test_damped_oscillator_passes(self, runner, damped_file):
        result = runner.invoke(main, ["oracle-check", "--model", damped_file, "--fock-dim", "16"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert max(payload["deviations"].values()) <= 1e-8

    def test_fermionic_model_passes(self, runner, fermionic_file):
        result = runner.invoke(main, ["oracle-check", "--model", fermionic_file])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"] is True

    def test_corrupted_gamma_surfaces_validation(self, runner, tmp_path):
        m = damped_oscillator_model()
        corrupted = glme.GeneralizedLindbladModel(
            "bosonic", 1, m.hamiltonian, m.f, -1.0 * m.gamma
        )
        path = str(tmp_path / "corrupt.json")
        io.save_model(corrupted, path)
        result = runner.invoke(main, ["oracle-check", "--model", path, "--fock-dim", "12"])
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert error["code"] == "positivity"

    def test_dimension_limit_exits_one(self, runner, tmp_path, rng):
        from conftest import random_bosonic_model

        path = str(tmp_path / "threemode.json")
        io.save_model(random_bosonic_model(rng, 3), path)
        result = runner.invoke(main, ["oracle-check", "--model", path, "--fock-dim", "30"])
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert "4096" in error["detail"]


class TestFixedTolerances:
    def test_no_tolerance_overrides(self, runner, damped_file, monkeypatch):
        result = runner.invoke(main, ["validate", damped_file, "--tol", "validate=1e-3"])
        assert result.exit_code == 2
        assert "No such option" in result.output
        monkeypatch.setenv("GLME_DEFAULT_TOL", "huge")
        result = runner.invoke(main, ["validate", damped_file])
        assert result.exit_code == 0
