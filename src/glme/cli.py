"""Command-line front end.

Exit codes: 0 success, 1 domain or physics failure, 2 input or parse
failure. Every error path emits a machine-readable JSON object
{"error", "code", "detail"} on stderr. ``validate`` and ``assemble`` load no
scipy; only ``oracle-check`` imports ``oracle`` and so scipy.sparse.
"""

from __future__ import annotations

import functools
import sys

import click
import numpy as np

from . import bosonic, entanglement, fermionic, io, reservoir
from .errors import (
    DomainError,
    EvaluationError,
    GlmeError,
    NumericalError,
    ParseError,
    PositivityError,
    StabilityError,
    StructuralError,
    TruncationError,
)
from .model import BOSONIC, FERMIONIC, validate_model

# oracle-check passes when every deviation is at most this.
ORACLE_THRESHOLD = 1e-8

_ERROR_CODES = {
    ParseError: ("parse", 2),
    StabilityError: ("stability", 1),
    PositivityError: ("positivity", 1),
    TruncationError: ("truncation", 1),
    EvaluationError: ("spectral", 1),
    NumericalError: ("numerical", 1),
    DomainError: ("domain", 1),
    StructuralError: ("structure", 1),
}


def _dynamics(model):
    """The model's flavor module and its validated drift/diffusion record."""
    module = bosonic if model.flavor == BOSONIC else fermionic
    return module, module.build_drift_diffusion(model)


def _fail(code_name: str, exit_code: int, detail: str):
    sys.stderr.write(io.dumps({"error": True, "code": code_name, "detail": detail}) + "\n")
    sys.exit(exit_code)


def _handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except GlmeError as exc:
            for klass, (name, exit_code) in _ERROR_CODES.items():
                if isinstance(exc, klass):
                    _fail(name, exit_code, str(exc))
            _fail("error", 1, str(exc))
    return wrapper


def _emit(payload: dict):
    click.echo(io.dumps(payload))


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        io.atomic_write(path, text)


def _time_grid(t_final: float, steps: int, times_path: str | None) -> np.ndarray:
    if times_path is not None:
        try:
            with open(times_path) as handle:
                values = [float(line) for line in handle.read().split()]
        except (OSError, ValueError) as exc:
            raise ParseError(f"{times_path}: {exc}")
        if not values:
            raise ParseError(f"{times_path}: no times found")
        return np.asarray(values, dtype=float)
    if t_final <= 0:
        raise DomainError("t-final must be positive")
    if steps < 1:
        raise DomainError("steps must be at least 1")
    return np.linspace(0.0, t_final, steps + 1)


@click.group()
def main():
    """Simulate linear open quantum systems with cross-damping."""


@main.command()
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def validate(model_path):
    """Validate a model file and print its report."""
    model = io.load_model(model_path)
    report = validate_model(model)
    _emit({
        "hermitian_defect": report.hermitian_defect,
        "min_gamma_eigenvalue": report.min_gamma_eigenvalue,
        "hamiltonian_symmetry_defect": report.hamiltonian_symmetry_defect,
        "is_valid": report.is_valid,
    })
    if not report.is_valid:
        sys.exit(1)


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--t-final", type=float, default=1.0, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--times", "times_path", type=click.Path(exists=True, dir_okay=False),
              help="File of explicit times, one per line (overrides --t-final/--steps).")
@click.option("--state", "state_path", type=click.Path(exists=True, dir_okay=False),
              help="Initial state file; defaults to vacuum (bosonic) or maximally mixed (fermionic).")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Trajectory file; '-' or absent writes to stdout.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_handle_errors
def evolve(model_path, t_final, steps, times_path, state_path, output, fmt):
    """Propagate a model's moments and write the trajectory."""
    model = io.load_model(model_path)
    times = _time_grid(t_final, steps, times_path)
    initial = io.load_state(state_path) if state_path else None
    module, dd = _dynamics(model)
    boson = model.flavor == BOSONIC
    if initial is None:
        n2 = 2 * model.n_modes
        x0, extra = (np.eye(n2) if boson else np.zeros((n2, n2))), {}
    elif boson and isinstance(initial, bosonic.GaussianState):
        x0, extra = initial.v, {"mean0": initial.mean}
    elif not boson and isinstance(initial, fermionic.FermionicGaussianState):
        x0, extra = initial.sigma, {}
    else:
        raise StructuralError("initial state flavor does not match the model")
    trajectory = module.propagate_covariance(dd, x0, times, **extra)
    writer = getattr(io, f"{model.flavor}_trajectory_{fmt}")
    _write_output(output, writer(trajectory) if boson else writer(trajectory.times, trajectory))
    # physical when V + i Omega >= 0 (bosons) or every |lambda| <= 1 (fermions)
    margin = module.check_physicality(trajectory.covs)[1]
    _emit({"final_purity": module.purity(trajectory.covs[-1]),
           "physicality_margin": margin if boson else 1.0 - margin})


@main.command("steady-state")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def steady_state_cmd(model_path):
    """Solve for the steady state and report the residual."""
    model = io.load_model(model_path)
    module, dd = _dynamics(model)
    _, abscissa = module.is_hurwitz(dd)
    state = module.steady_state(dd)
    if model.flavor == BOSONIC:
        key, x, a, q = "V_ss", state.v, dd.a, dd.d
    else:
        key, x, a, q = "sigma_ss", state.sigma, dd.x, dd.y
    residual = float(np.max(np.abs(a @ x + x @ a.T + q)))
    _emit({key: x, "residual": residual, "spectral_abscissa": abscissa})


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--state", "state_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--measure", type=click.Choice(["duan", "logneg"]), required=True)
@click.option("--alpha", type=float, default=None, help="Duan coefficient; flavor-specific default.")
@click.option("--beta", type=float, default=None, help="Duan coefficient; flavor-specific default. "
              "Bosonic -1 detects squeezing with Cov(q1, q2) > 0, +1 the opposite sign.")
@_handle_errors
def entanglement_cmd(model_path, state_path, measure, alpha, beta):
    """Entanglement measures for a two-mode state or model steady state."""
    if (model_path is None) == (state_path is None):
        raise click.UsageError("provide exactly one of --model or --state")
    if model_path is not None:
        model = io.load_model(model_path)
        if model.n_modes != 2:
            raise DomainError(f"entanglement measures need two modes, got {model.n_modes}")
        module, dd = _dynamics(model)
        state = module.steady_state(dd)
    else:
        state = io.load_state(state_path)
    if state.n_modes != 2:
        raise DomainError(f"entanglement measures need two modes, got {state.n_modes}")

    boson = isinstance(state, bosonic.GaussianState)
    if measure == "duan":
        duan = entanglement.duan_bosonic if boson else entanglement.duan_fermionic
        default_beta = -1.0 if boson else 1.0
        result = duan(state, alpha=1.0 if alpha is None else alpha,
                      beta=default_beta if beta is None else beta)
        _emit({"measure": "duan", "value": result.quantity, "bound": result.bound,
               "entangled": result.entangled_flag})
    else:
        result = (entanglement.log_negativity_bosonic(state.v) if boson
                  else entanglement.log_negativity_fermionic(state.sigma))
        _emit({"measure": "logneg", "value": result.value,
               "spectrum": result.auxiliary_spectrum})


@main.command()
@click.option("--couplings", "couplings_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--spectral", "spectral_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--output", required=True, type=click.Path(dir_okay=False))
@click.option("--flavor", type=click.Choice([BOSONIC, FERMIONIC]), default=BOSONIC,
              show_default=True)
@_handle_errors
def assemble(couplings_path, spectral_path, output, flavor):
    """Build a model file from microscopic couplings and reservoir spectra."""
    table = io.load_coupling_table(couplings_path)
    spectral = io.load_spectral(spectral_path)
    model = reservoir.assemble_model(table, spectral, flavor=flavor)
    io.save_model(model, output)
    report = validate_model(model)
    _emit({"written": output, "n_modes": model.n_modes,
           "min_gamma_eigenvalue": report.min_gamma_eigenvalue, "is_valid": report.is_valid})


@main.command("oracle-check")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--fock-dim", type=int, default=20, show_default=True,
              help="Per-mode truncation for bosonic dense checks.")
@_handle_errors
def oracle_check(model_path, fock_dim):
    """Run dense brute-force consistency checks against a model."""
    from . import oracle
    model = io.load_model(model_path)
    if model.flavor == BOSONIC:
        engine = oracle.DenseBosonicEngine(model, fock_dim)
    else:
        engine = oracle.DenseFermionicEngine(model)
    rng = np.random.default_rng(11)
    observable = oracle.random_density(rng, engine.dim)
    observable = observable + observable.conj().T
    state = oracle.random_density(rng, engine.dim)
    deviations = {
        "trace_preservation": oracle.trace_preservation_check(engine),
        "hermiticity_preservation": oracle.hermiticity_preservation_check(engine),
        "adjoint_consistency": oracle.adjoint_consistency_check(engine, observable, state),
    }
    closure = oracle.moment_closure_check(model, fock_dim=fock_dim)
    for key, value in closure.items():
        deviations[f"moment_closure_{key}"] = value
    passed = all(value <= ORACLE_THRESHOLD for value in deviations.values())
    _emit({"deviations": deviations, "threshold": ORACLE_THRESHOLD, "passed": passed})
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
