"""What importing glme and running its CLI commands load.

The cold-start checks run in fresh interpreters, since this test process has
long since imported scipy. Each probe prints, as its last stderr line, the
sorted scipy modules in ``sys.modules`` when it ends.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glme
from glme import fermionic, io

from conftest import (
    bell_pair_sigma,
    damped_modes_model,
    damped_oscillator_model,
    fermionic_decay_model,
    near_dark_pair_model,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT = ("sys.stderr.write('\\n' + json.dumps(sorted(m for m in sys.modules "
           "if m.split('.')[0] == 'scipy')) + '\\n')")
_CLI_PROBE = f"""
import json, sys
from glme.cli import main
try:
    main(sys.argv[1:], prog_name="glme")
finally:
    {_REPORT}
"""


def _fresh(code: str, *args: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the scipy modules it had loaded at exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


def _sparse(modules: list[str]) -> list[str]:
    return [m for m in modules if m.startswith("scipy.sparse")]


@pytest.fixture
def model_file(tmp_path):
    path = str(tmp_path / "damped.json")
    io.save_model(damped_oscillator_model(gamma=0.5, omega=2.0, nbar=0.2), path)
    return path


class TestColdStart:
    def test_import_glme_and_cli_load_no_scipy(self):
        code = ("import json, sys\nimport glme\n"
                "assert 'glme.oracle' not in sys.modules\n"
                "import glme.cli\n" + _REPORT)
        assert _fresh(code) == []

    def test_oracle_attribute_loads_scipy_sparse(self):
        code = "import json, sys\nimport glme\nglme.oracle\n" + _REPORT
        loaded = _fresh(code)
        assert "scipy.sparse" in loaded
        # the union grouping imports scipy.sparse.csgraph, and with it
        # scipy.sparse.linalg, at its first call in `evolve`
        assert [m for m in loaded if m.startswith("scipy.sparse.csgraph")] == []
        assert [m for m in loaded if m.startswith("scipy.sparse.linalg")] == []

    def test_oracle_check_loads_no_sparse_linalg(self, model_file):
        loaded = _fresh(_CLI_PROBE, "oracle-check", "--model", model_file, "--fock-dim", "8")
        assert "scipy.sparse" in loaded
        assert [m for m in loaded if m.startswith("scipy.sparse.linalg")] == []

    def test_validate_loads_no_scipy(self, model_file):
        assert _fresh(_CLI_PROBE, "validate", model_file) == []

    def test_assemble_loads_no_scipy(self, tmp_path):
        couplings = tmp_path / "couplings.json"
        couplings.write_text(json.dumps({
            "mode_frequencies": [2.0],
            "couplings": [{"mode": 0, "channel": 0, "sign": "-", "c": 1.0, "Omega": 0.0}],
        }))
        spectral = tmp_path / "flat.json"
        spectral.write_text(json.dumps({"builtin": "flat", "kappa": 0.5, "nbar": 0.0}))
        out = str(tmp_path / "assembled.json")
        assert _fresh(_CLI_PROBE, "assemble", "--couplings", str(couplings),
                      "--spectral", str(spectral), "--output", out) == []

    def test_small_steady_state_loads_no_scipy(self, model_file):
        # up to four modes the fixed point is a numpy Kronecker solve
        assert _fresh(_CLI_PROBE, "steady-state", "--model", model_file) == []

    def test_five_mode_steady_state_loads_scipy_linalg_only(self, tmp_path):
        path = str(tmp_path / "five.json")
        io.save_model(damped_modes_model(5), path)
        loaded = _fresh(_CLI_PROBE, "steady-state", "--model", path)
        assert "scipy.linalg" in loaded
        assert _sparse(loaded) == []

    def test_model_entanglement_loads_no_scipy(self, tmp_path):
        path = str(tmp_path / "pair.json")
        io.save_model(near_dark_pair_model(0.1), path)
        assert _fresh(_CLI_PROBE, "entanglement", "--model", path, "--measure", "logneg") == []

    @pytest.mark.parametrize("fermionic", [False, True])
    def test_evolve_loads_no_scipy(self, model_file, tmp_path, fermionic):
        if fermionic:
            model_file = str(tmp_path / "fermionic.json")
            io.save_model(fermionic_decay_model(gamma=0.5, omega=1.0), model_file)
        assert _fresh(_CLI_PROBE, "evolve", "--model", model_file, "--steps", "4",
                      "--output", str(tmp_path / "traj.csv")) == []

    @pytest.mark.parametrize("module", ["lyapunov", "fermionic", "entanglement", "io", "bosonic",
                                        "model"])
    def test_import_loads_no_scipy(self, module):
        assert _fresh(f"import json, sys\nimport glme.{module}\n" + _REPORT) == []

    def test_fermionic_logneg_loads_no_scipy(self, tmp_path):
        path = str(tmp_path / "bell.json")
        io.save_state(fermionic.FermionicGaussianState(bell_pair_sigma()), path)
        assert _fresh(_CLI_PROBE, "entanglement", "--state", path, "--measure", "logneg") == []


class TestLazyPackage:
    def test_attribute_is_the_imported_module(self):
        assert glme.oracle is importlib.import_module("glme.oracle")
        assert glme.lyapunov is importlib.import_module("glme.lyapunov")

    def test_from_imports(self):
        from glme import oracle
        assert oracle is sys.modules["glme.oracle"]
        namespace = {}
        exec("from glme import *", namespace)
        assert set(glme.__all__) <= set(namespace)
        assert namespace["reservoir"] is sys.modules["glme.reservoir"]

    def test_dir_lists_all(self):
        assert set(glme.__all__) <= set(dir(glme))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="nonexistent"):
            glme.nonexistent
