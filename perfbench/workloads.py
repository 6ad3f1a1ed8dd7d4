"""The three workloads: what each runs, how it is checked, and why it exists.

A workload builds one round of items from the seed (untimed), runs each item
through glme's public API (timed), runs its CLI subcommands as fresh
processes (timed), and then checks every output against an independent
reference (untimed). A failure is an exception on an input, or an output
that fails its check. The one allowed exception is a StabilityError on a
drift whose abscissa the benchmark itself measures at or above glme's
Hurwitz tolerance: that is a correct refusal. Failures on the known-defect
inputs (``is_known_defect``) are counted apart from unexpected ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

import generate as gen
import reference as ref
from generate import BOSONIC, FERMIONIC, STABLE

import glme
from glme import bosonic, entanglement, fermionic, oracle, reservoir
from glme import io as gio
from glme import model as gmodel
from glme.errors import StabilityError

# glme's default Hurwitz tolerance: a drift with alpha >= -HURWITZ_TOL is
# non-Hurwitz to the library, and refusing its steady state is correct.
HURWITZ_TOL = 1e-10

# Inputs that hit a known glme defect: near-dark bosonic drift, whose steady
# state grows like 1/eps. The fixed-point solve's absolute residual test
# (1e-10) refuses an accurate solution with NumericalError, and, rarely (about
# one item in 25,000), log_negativity_bosonic's discriminant test refuses an
# accurate steady state of norm ~1e6 whose determinant formula cancels below
# its 1e-9 tolerance. These inputs stay in the data and their failures lower
# ops_ok; any other failure, on them or elsewhere, is unexpected.
KNOWN_DEFECT_KINDS = frozenset({"bosonic.near_dark", "collective_1e-8"})
KNOWN_DEFECT_MESSAGES = ("fixed-point solve residual", "invalid covariance: discriminant")


@dataclass
class Item:
    kind: str
    spec: dict

    @property
    def cls(self) -> str:
        return self.spec["cls"]


@dataclass
class Outcome:
    """What one timed item produced: step results, exceptions, refusals."""

    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    refusals: list = field(default_factory=list)

    def step(self, name, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except StabilityError as exc:
            self.refusals.append((name, exc.spectral_abscissa))
            return None
        except Exception as exc:     # any other exception on an input is a failure
            self.errors.append((name, type(exc).__name__, str(exc)[:160]))
            return None
        self.values[name] = result
        return result


def is_known_defect(item: Item, errors: list) -> bool:
    """True when every exception on ``item`` is the known fixed-point defect."""
    return item.kind in KNOWN_DEFECT_KINDS and all(
        exc == "NumericalError" and msg.startswith(KNOWN_DEFECT_MESSAGES) for _, exc, msg in errors)


class Checks:
    """Worst error per check, as a share of its tolerance, plus the failures.

    A non-finite error is recorded as 1e300 so every figure stays valid JSON.
    """

    def __init__(self):
        self.worst: dict[str, list[float]] = {}
        self.failed: list[tuple] = []

    def within(self, label, name: str, err: float, tol: float) -> bool:
        err = float(err) if np.isfinite(err) else 1e300
        ratio = err / tol
        worst = self.worst.setdefault(name, [0.0, 0.0])
        if ratio > worst[0]:
            worst[:] = [ratio, err]
        if ratio <= 1.0:
            return True
        self.failed.append((label, name, err, tol))
        return False

    def holds(self, label, name: str, condition: bool) -> bool:
        """A pass/fail check: recorded as 0 or 2 times its tolerance."""
        return self.within(label, name, 0.0 if condition else 1.0, 0.5)

    def max_ratio(self) -> float:
        return max((w[0] for w in self.worst.values()), default=0.0)


def _flavor_module(flavor):
    return bosonic if flavor == BOSONIC else fermionic


def _cov(state):
    return state.v if isinstance(state, bosonic.GaussianState) else state.sigma


def _states(traj):
    return traj.states if isinstance(traj, bosonic.Trajectory) else traj


def _model(spec):
    return glme.GeneralizedLindbladModel(spec["flavor"], spec["n_modes"], spec["hamiltonian"],
                                         spec["f"], spec["gamma"])


def _assemble(spec):
    table = spec["table"]
    terms = tuple(reservoir.CouplingTerm(*t) for t in table["terms"])
    coupling = reservoir.CouplingTable(spec["n_modes"], table["freqs"], terms)
    flat = reservoir.SpectralFunctions.flat(kappa=spec["kappa"], nbar=spec["nbar"])
    return reservoir.assemble_model(coupling, flat, flavor=spec["flavor"])


def _drift(flavor, dd):
    return (dd.a, dd.d) if flavor == BOSONIC else (dd.x, dd.y)


def _fermionic_purity(sigma):
    lams = np.sort(np.abs(np.linalg.eigvalsh(1j * sigma)))[::2]
    return float(np.prod((1.0 + lams ** 2) / 2.0))


def _check_physicality(ck, label, flavor, cov, returned):
    if flavor == BOSONIC:
        expect = ref.uncertainty_min_eig(cov)
    else:
        expect = ref.fermionic_max_magnitude(cov)
    ck.within(label, "physicality", abs(returned - expect) / max(1.0, np.max(np.abs(cov))), 1e-9)


def _check_purity(ck, label, flavor, cov, returned):
    expect = (1.0 / np.sqrt(np.linalg.det(cov))) if flavor == BOSONIC else _fermionic_purity(cov)
    ck.within(label, "purity", abs(returned - expect) / max(1e-300, abs(expect)), 1e-8)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class Sweep:
    """Why: a reservoir-engineering design loop over many small models.

    Thousands of 1-3 mode models of both flavours each go through
    construction (reservoir assembly or a direct cross-damped model),
    validation, the standard form, drift/diffusion assembly, the Hurwitz
    test, the steady-state solve, physicality and purity, the two-mode
    entanglement measures and a short 21-point log-spaced transient. Per-call
    overhead in validation, assembly, the fixed-point solve and entanglement
    dominates; propagation runs only on short non-uniform grids. The mix keeps
    near-dark collective-decay pairs (eps from 1e-10 to 1e-4), exactly dark
    models and a non-Hurwitz share, as cross-damping produces routinely.
    """

    name = "sweep"
    min_rounds = 5      # the round medians rest on at least five rounds
    cli_commands = ("validate", "steady-state", "entanglement", "assemble")
    times = np.concatenate([[0.0], np.logspace(-2.0, 1.0, 20)])
    # (kind, flavor, items per round); 200 items, about 62% stable by construction
    mix = (("damped_oscillator", BOSONIC, 8), ("tmsv", BOSONIC, 8),
           ("reservoir", BOSONIC, 16), ("reservoir", FERMIONIC, 8),
           ("reservoir_dark", BOSONIC, 8), ("reservoir_dark", FERMIONIC, 4),
           ("cross_damped", BOSONIC, 44), ("gain", BOSONIC, 20),
           ("near_dark", BOSONIC, 20), ("dark", BOSONIC, 4),
           ("cross_damped", FERMIONIC, 40), ("dark", FERMIONIC, 8),
           ("near_dark", FERMIONIC, 12))

    def __init__(self, seed: int):
        self.seed = seed

    def round_items(self, r: int) -> list[Item]:
        rng = gen.rng_for(self.seed, 1, r)
        items = []
        for kind, flavor, count in self.mix:
            for i in range(count):
                spec = self._spec(rng, kind, flavor, (i + rng.uniform()) / count)
                spec["x0"] = gen.initial_cov(rng, spec)
                items.append(Item(f"{flavor}.{kind}", spec))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    @staticmethod
    def _spec(rng, kind, flavor, stratum):
        """One model; ``stratum`` in [0, 1) places a near-dark eps on its log scale.

        Each near-dark item of a round takes its own slice of the eps range,
        so every round spans 1e-10 to 1e-4 evenly and the share of items that
        hit the near-dark defect barely moves between seeds.
        """
        n = int(rng.integers(1, 4))
        if kind == "damped_oscillator":
            return gen.damped_oscillator(rng)
        if kind == "tmsv":
            return gen.tmsv_engineering(rng)
        if kind in ("reservoir", "reservoir_dark"):
            return gen.reservoir_spec(rng, flavor, max(n, 2) if kind == "reservoir_dark" else n,
                                      kind == "reservoir_dark")
        if kind == "cross_damped":
            return gen.random_cross_damped(rng, flavor, n, -rng.uniform(0.05, 0.5), kind)
        if kind == "gain":
            return gen.random_cross_damped(rng, flavor, n, rng.uniform(0.02, 0.2), kind)
        eps = 0.0 if kind == "dark" else float(10.0 ** (-10.0 + 6.0 * stratum))
        if flavor == BOSONIC:
            return gen.collective_pair(eps, rng.uniform(0.0, 1.5), kind)
        return gen.fermionic_dark(rng, max(n, 2), eps, kind)

    def warmup_items(self) -> list[Item]:
        seen, out = set(), []
        for item in self.round_items(0):
            if item.kind not in seen:
                seen.add(item.kind)
                out.append(item)
        return out

    def run(self, item: Item) -> Outcome:
        s = item.spec
        out = Outcome()
        mod = _flavor_module(s["flavor"])
        m = out.step("assemble", _assemble, s) if "table" in s else out.step("construct", _model, s)
        if m is None:
            return out
        out.step("validate", gmodel.validate_model, m)
        sf = out.step("standard_form", gmodel.to_standard_form, m.gamma, m.f)
        dd = out.step("drift", mod.build_drift_diffusion, m)
        if sf is not None:
            std = out.step("construct_standard", glme.GeneralizedLindbladModel, s["flavor"],
                           s["n_modes"], m.hamiltonian, sf.operator_rows,
                           np.diag(sf.rates).astype(complex))
            if std is not None:
                out.step("drift_standard", mod.build_drift_diffusion, std)
        if dd is None:
            return out
        out.step("hurwitz", mod.is_hurwitz, dd)
        ss = out.step("steady_state", mod.steady_state, dd)
        if ss is not None:
            out.step("physicality", mod.check_physicality, _cov(ss))
            out.step("purity", mod.purity, _cov(ss))
        traj = out.step("transient", mod.propagate_covariance, dd, s["x0"], self.times)
        if s["n_modes"] == 2:
            state = _cov(ss) if ss is not None else (_cov(_states(traj)[-1]) if traj else None)
            if state is not None:
                out.values["entangled_state"] = state
                if s["flavor"] == BOSONIC:
                    out.step("duan", entanglement.duan_bosonic, state, 1.0, 1.0)
                    out.step("log_negativity", entanglement.log_negativity_bosonic, state)
                else:
                    out.step("duan", entanglement.duan_fermionic, state, 1.0, 1.0)
                    out.step("log_negativity", entanglement.log_negativity_fermionic, state)
                    out.step("gibbs", fermionic.covariance_to_gibbs, state)
        return out

    def check(self, item: Item, out: Outcome, ck: Checks, label):
        s, v = item.spec, out.values
        flavor = s["flavor"]
        a_ref, q_ref = s["a"], s["q"]
        m = v.get("assemble", v.get("construct"))
        if "table" in s and m is not None:
            err = max(ref.relative_error(m.gamma, s["gamma"]), ref.relative_error(m.f, s["f"]),
                      ref.relative_error(m.hamiltonian, s["hamiltonian"]))
            ck.within(label, "assembly_closed_form", err, 1e-12)
        if "validate" in v:
            ck.holds(label, "valid", v["validate"].is_valid)
        if "drift" in v:
            a, q = _drift(flavor, v["drift"])
            ck.within(label, "drift", max(ref.relative_error(a, a_ref), ref.relative_error(q, q_ref)),
                      1e-10)
            if "drift_standard" in v:
                a2, q2 = _drift(flavor, v["drift_standard"])
                ck.within(label, "standard_form", max(ref.relative_error(a2, a),
                                                      ref.relative_error(q2, q)), 1e-10)
        if "hurwitz" in v:
            scale = max(1.0, float(np.linalg.norm(a_ref, 2)))
            ck.within(label, "abscissa", abs(v["hurwitz"][1] - s["alpha"]) / scale, 1e-6)
        for _ in out.refusals:
            ck.holds(label, "refusal_is_non_hurwitz", s["alpha"] >= -HURWITZ_TOL)
        if "steady_state" in v:
            x = _cov(v["steady_state"])
            ck.within(label, "steady_backward_error", ref.backward_error(a_ref, x, q_ref), 1e-10)
            if "physicality" in v:
                _check_physicality(ck, label, flavor, x, v["physicality"][1])
            if "purity" in v:
                _check_purity(ck, label, flavor, x, v["purity"])
        if "transient" in v:
            covs = [_cov(st) for st in _states(v["transient"])]
            ck.within(label, "transient_start", ref.relative_error(covs[0], s["x0"]), 1e-14)
            expect = ref.propagate_to(a_ref, q_ref, s["x0"], self.times[-1])
            ck.within(label, "transient_vs_van_loan", ref.relative_error(covs[-1], expect), 1e-8)
        if s["kind"] == "damped_oscillator":
            self._check_damped(ck, label, s, v)
        if s["kind"] == "tmsv" and "steady_state" in v:
            r = s["r"]
            ck.within(label, "tmsv_steady_state",
                      ref.relative_error(_cov(v["steady_state"]), ref.tmsv_cov(-r)), 1e-10)
            if "log_negativity" in v:
                ck.within(label, "tmsv_log_negativity", abs(v["log_negativity"].value - 2 * r), 1e-9)
            if "duan" in v:
                ck.within(label, "tmsv_duan", abs(v["duan"].quantity - 2 * np.exp(-2 * r)), 1e-9)
        state = v.get("entangled_state")
        if state is not None:
            self._check_entanglement(ck, label, flavor, state, v)

    def _check_damped(self, ck, label, s, v):
        g, nbar = s["rate"], s["nbar"]
        w = s["hamiltonian"][0, 0]
        om = ref.omega(1)
        if "drift" in v:
            a, q = _drift(BOSONIC, v["drift"])
            err = max(ref.relative_error(a, -0.5 * g * np.eye(2) + w * om),
                      ref.relative_error(q, g * (2 * nbar + 1) * np.eye(2)))
            ck.within(label, "oscillator_drift_closed_form", err, 1e-12)
        if "steady_state" in v:
            ck.within(label, "oscillator_steady_closed_form",
                      ref.relative_error(v["steady_state"].v, (2 * nbar + 1) * np.eye(2)), 1e-10)
        if "transient" in v:
            worst = 0.0
            for t, st in zip(self.times, v["transient"].states):
                rot = np.cos(w * t) * np.eye(2) + np.sin(w * t) * om
                decay = np.exp(-g * t)
                expect = decay * rot @ s["x0"] @ rot.T + (1 - decay) * (2 * nbar + 1) * np.eye(2)
                worst = max(worst, ref.relative_error(st.v, expect))
            ck.within(label, "oscillator_transient_closed_form", worst, 1e-10)

    @staticmethod
    def _check_entanglement(ck, label, flavor, state, v):
        if flavor == BOSONIC:
            if "duan" in v:
                expect = ref.duan_bosonic(state, 1.0, 1.0)
                ck.within(label, "duan", abs(v["duan"].quantity - expect) / max(1.0, abs(expect)),
                          1e-10)
            if "log_negativity" in v:
                # the determinant formula's forward error grows like ||V||^2 (cancellation)
                scale = float(np.linalg.norm(state, 2)) ** 2
                ck.within(label, "log_negativity",
                          abs(v["log_negativity"].value - ref.log_negativity_bosonic(state)),
                          1e-9 + 1e-15 * scale)
            return
        if "duan" in v:
            ck.within(label, "fermionic_duan_identity", abs(v["duan"].quantity - 2.0), 1e-12)
        if "gibbs" in v:
            rho = oracle.fermionic_gibbs_state(v["gibbs"], 2)
            ck.within(label, "gibbs_roundtrip",
                      ref.relative_error(ref.measured_sigma(rho, ref.majoranas(2)), state), 1e-8)
            if "log_negativity" in v:
                ck.within(label, "fermionic_log_negativity_vs_dense",
                          abs(v["log_negativity"].value - oracle.dense_negativity_fermionic(rho)),
                          1e-6)

    def cli_calls(self, r: int, items: list[Item], workdir: str) -> list[dict]:
        """One subcommand per round, in turn: a coupling table for `assemble`,
        otherwise the round's first stable two-mode bosonic model."""
        command = self.cli_commands[r % len(self.cli_commands)]
        if command == "assemble":
            spec = next(i.spec for i in items if i.spec["kind"] == "reservoir")
            couplings = os.path.join(workdir, f"couplings-{r}.json")
            spectral = os.path.join(workdir, f"spectral-{r}.json")
            output = os.path.join(workdir, f"assembled-{r}.json")
            write_json(couplings, {"mode_frequencies": spec["table"]["freqs"].tolist(), "couplings": [
                {"mode": mo, "channel": ch, "sign": sg, "c": c, "Omega": om}
                for mo, ch, sg, c, om in spec["table"]["terms"]]})
            write_json(spectral, {"builtin": "flat", "kappa": spec["kappa"], "nbar": spec["nbar"]})
            argv = ["assemble", "--couplings", couplings, "--spectral", spectral,
                    "--output", output, "--flavor", spec["flavor"]]
            return [{"command": command, "argv": argv, "spec": spec, "output": output}]
        spec = next(i.spec for i in items
                    if i.spec["n_modes"] == 2 and i.spec["flavor"] == BOSONIC and i.cls == STABLE)
        path = os.path.join(workdir, f"model-{r}.json")
        write_model(path, spec)
        argv = {"validate": ["validate", path],
                "steady-state": ["steady-state", "--model", path],
                "entanglement": ["entanglement", "--model", path, "--measure", "logneg"]}[command]
        return [{"command": command, "argv": argv, "spec": spec}]

    def check_cli(self, call, proc, ck: Checks, label):
        if not ck.holds(label, "cli_exit", proc.returncode == 0):
            return
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        spec = call["spec"]
        if call["command"] == "validate":
            ck.holds(label, "cli_valid", payload["is_valid"] is True)
        elif call["command"] == "steady-state":
            x = np.asarray(payload["V_ss"])
            ck.within(label, "cli_steady_backward_error",
                      ref.backward_error(spec["a"], x, spec["q"]), 1e-10)
        elif call["command"] == "entanglement":
            x = ref.steady_state(spec["a"], spec["q"])
            ck.within(label, "cli_log_negativity",
                      abs(payload["value"] - ref.log_negativity_bosonic(x)), 1e-8)
        else:
            with open(call["output"]) as handle:
                data = json.load(handle)
            gamma = np.asarray(data["Gamma"])[..., 0] + 1j * np.asarray(data["Gamma"])[..., 1]
            ck.within(label, "cli_assembly_closed_form", ref.relative_error(gamma, spec["gamma"]),
                      1e-12)


def write_json(path: str, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _pairs(m):
    return np.stack([np.real(m), np.imag(m)], axis=-1).tolist()


def write_model(path: str, spec: dict):
    """Model file in glme's documented JSON format (floats written by repr)."""
    write_json(path, {"kind": spec["flavor"], "n_modes": spec["n_modes"],
                      "hamiltonian": spec["hamiltonian"].tolist(),
                      "F": _pairs(spec["f"]), "Gamma": _pairs(spec["gamma"])})


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

class Trajectory:
    """Why: a few large propagations on long uniform grids, each serialized.

    Time goes to lyapunov propagation (fixed-point subtraction for Hurwitz
    drift, stepwise quadrature otherwise) and to the io writers, and almost
    none to assembly. Sizes span N = 2, 20 and 100 modes; grids are 1001
    points at N = 2, 51 points at N = 20 and 4 at N = 100, where the
    quadrature path and the writers cost seconds per trajectory (N = 100
    non-Hurwitz is left out: hundreds of seconds on 1001 points). The
    collective-decay reproducer runs at eps = 1e-6 and at eps = 1e-8, where
    glme raises NumericalError on an accurate solution (a known defect that
    counts against ops_ok). Every round repeats the same inputs, so the sha256
    of every serialized trajectory must repeat too.
    """

    name = "trajectory"
    min_rounds = 3
    cli_commands = ("evolve",)
    # (kind, flavor, modes, target abscissa or eps, grid end, points, with mean)
    plan = (("b2_hurwitz", BOSONIC, 2, -0.3, 10.0, 1001, True),
            ("b2_gain", BOSONIC, 2, 0.1, 10.0, 1001, False),
            ("b20_hurwitz", BOSONIC, 20, -0.3, 10.0, 51, True),
            ("b20_gain", BOSONIC, 20, 0.03, 10.0, 51, False),
            ("b100_hurwitz", BOSONIC, 100, -0.3, 10.0, 4, True),
            ("f20_hurwitz", FERMIONIC, 20, -0.3, 10.0, 51, False),
            ("f20_dark", FERMIONIC, 20, 0.0, 10.0, 51, False),
            ("collective_1e-6", BOSONIC, 2, 1e-6, 2.0, 1001, False),
            ("collective_1e-8", BOSONIC, 2, 1e-8, 2.0, 1001, False))

    def __init__(self, seed: int):
        self.seed = seed
        self._items = None
        self.shas: dict[str, str] = {}

    def round_items(self, r: int) -> list[Item]:
        if self._items is None:
            self._items = []
            rng = gen.rng_for(self.seed, 2)
            for kind, flavor, n, target, t_end, points, with_mean in self.plan:
                if kind.startswith("collective"):
                    spec = gen.collective_pair(target, 0.0, kind)
                    spec["x0"] = np.eye(4)
                elif kind == "f20_dark":
                    spec = gen.fermionic_dark(rng, n, 0.0, kind)
                else:
                    spec = gen.random_cross_damped(rng, flavor, n, target * rng.uniform(0.8, 1.2),
                                                   kind)
                if "x0" not in spec:
                    spec["x0"] = gen.initial_cov(rng, spec)
                spec["times"] = np.linspace(0.0, t_end, points)
                spec["mean0"] = rng.standard_normal(2 * n) if with_mean else None
                self._items.append(Item(kind, spec))
        return self._items

    def warmup_items(self) -> list[Item]:
        return [i for i in self.round_items(0) if i.kind in ("b2_hurwitz", "collective_1e-6")]

    def run(self, item: Item) -> Outcome:
        s = item.spec
        out = Outcome()
        mod = _flavor_module(s["flavor"])
        m = out.step("construct", _model, s)
        dd = out.step("drift", mod.build_drift_diffusion, m) if m is not None else None
        if dd is None:
            return out
        if s["flavor"] == BOSONIC:
            traj = out.step("propagate", bosonic.propagate_covariance, dd, s["x0"], s["times"],
                            mean0=s["mean0"])
            if traj is None:
                return out
            out.step("csv", gio.bosonic_trajectory_csv, traj)
            out.step("json", gio.bosonic_trajectory_json, traj)
            out.step("margin", lambda: min(bosonic.check_physicality(st.v)[1] for st in traj.states))
            out.step("purity", bosonic.purity, traj.states[-1].v)
        else:
            states = out.step("propagate", fermionic.propagate_covariance, dd, s["x0"], s["times"])
            if states is None:
                return out
            out.step("csv", gio.fermionic_trajectory_csv, s["times"], states)
            out.step("json", gio.fermionic_trajectory_json, s["times"], states)
            out.step("margin", lambda: max(fermionic.check_physicality(st.sigma)[1] for st in states))
            out.step("purity", fermionic.purity, states[-1].sigma)
        return out

    def check(self, item: Item, out: Outcome, ck: Checks, label):
        s, v = item.spec, out.values
        flavor = s["flavor"]
        if "drift" in v:
            a, q = _drift(flavor, v["drift"])
            ck.within(label, "drift", max(ref.relative_error(a, s["a"]),
                                          ref.relative_error(q, s["q"])), 1e-10)
        if "propagate" not in v:
            return
        states = _states(v["propagate"])
        covs = np.array([_cov(st) for st in states])
        self._check_propagation(ck, label, s, covs, v)
        means = np.array([st.mean for st in states]) if flavor == BOSONIC else None
        for fmt in ("csv", "json"):
            if fmt not in v:
                continue
            text = v[fmt]
            digest = hashlib.sha256(text.encode()).hexdigest()
            key = f"{item.kind}.{fmt}"
            if key not in self.shas:
                self.shas[key] = digest
                err = _roundtrip_error(fmt, flavor, text, s["times"], covs, means)
                ck.holds(label, f"io_{fmt}_roundtrip_exact", err == 0.0)
            ck.holds(label, "byte_determinism", self.shas[key] == digest)
        if "margin" in v:
            if flavor == BOSONIC:
                expect = min(ref.uncertainty_min_eig(c) for c in covs)
            else:
                expect = max(ref.fermionic_max_magnitude(c) for c in covs)
            ck.within(label, "physicality_margin",
                      abs(v["margin"] - expect) / max(1.0, float(np.max(np.abs(covs)))), 1e-9)
        if "purity" in v:
            _check_purity(ck, label, flavor, covs[-1], v["purity"])

    @staticmethod
    def _check_propagation(ck, label, s, covs, v):
        a, q, times = s["a"], s["q"], s["times"]
        ck.within(label, "trajectory_start", ref.relative_error(covs[0], s["x0"]), 1e-14)
        if s["n_modes"] <= 20:
            # method="rk4" is glme's independent integrator (criterion 4)
            dd = v["drift"]
            substeps = max(1, int(np.ceil(np.linalg.norm(a, 2) * (times[1] - times[0]) / 0.02)))
            rk4 = _flavor_module(s["flavor"]).propagate_covariance(
                dd, s["x0"], times, method="rk4", rk4_substeps=substeps)
            worst = max(ref.relative_error(c, _cov(st)) for c, st in zip(covs, _states(rk4)))
            ck.within(label, "exact_vs_rk4", worst, 1e-7)
        expect = ref.propagate_to(a, q, s["x0"], times[-1] - times[0])
        ck.within(label, "trajectory_vs_van_loan", ref.relative_error(covs[-1], expect), 1e-8)
        if s["mean0"] is not None:
            mean = v["propagate"].states[-1].mean
            expect = ref.expm(a * (times[-1] - times[0])) @ s["mean0"]
            ck.within(label, "mean_vs_expm", ref.relative_error(mean, expect), 1e-9)

    def cli_calls(self, r: int, items: list[Item], workdir: str) -> list[dict]:
        """`glme evolve` on the N = 2 Hurwitz item, to CSV and to JSON."""
        item = items[0]
        s = item.spec
        model_path = os.path.join(workdir, "traj-model.json")
        state_path = os.path.join(workdir, "traj-state.json")
        write_model(model_path, s)
        write_json(state_path, {"kind": "bosonic", "mean": s["mean0"].tolist(), "V": s["x0"].tolist()})
        times = s["times"]
        calls = []
        for fmt in ("csv", "json"):
            output = os.path.join(workdir, f"traj-{r}.{fmt}")
            argv = ["evolve", "--model", model_path, "--state", state_path,
                    "--t-final", repr(float(times[-1])), "--steps", str(len(times) - 1),
                    "--format", fmt, "--output", output]
            calls.append({"command": "evolve", "argv": argv, "output": output,
                          "key": f"{item.kind}.{fmt}"})
        return calls

    def check_cli(self, call, proc, ck: Checks, label):
        if not ck.holds(label, "cli_exit", proc.returncode == 0):
            return
        with open(call["output"], "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        ck.holds(label, "cli_bytes_match_in_process", self.shas.get(call["key"]) == digest)


def _roundtrip_error(fmt, flavor, text, times, covs, means) -> float:
    """Max |parsed - in-memory| over every serialized number (0 when lossless)."""
    n2 = covs.shape[1]
    if flavor == BOSONIC:
        expect = np.hstack([times[:, None], means, covs.reshape(len(times), -1)])
    else:
        iu = np.triu_indices(n2, 1)
        expect = np.hstack([times[:, None], covs[:, iu[0], iu[1]]])
    if fmt == "csv":
        lines = text.rstrip("\n").split("\n")
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    else:
        data = json.loads(text)
        if flavor == BOSONIC:
            parsed = np.hstack([np.asarray(data["times"])[:, None],
                                np.array([st["mean"] for st in data["states"]]),
                                np.array([st["V"] for st in data["states"]]).reshape(len(times), -1)])
        else:
            sig = np.array([st["sigma"] for st in data["states"]])
            parsed = np.hstack([np.asarray(data["times"])[:, None], sig[:, iu[0], iu[1]]])
    if parsed.shape != expect.shape:
        return float("inf")
    return float(np.max(np.abs(parsed - expect)))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

class Oracle:
    """Why: criterion-3-style dense cross-checks, nearly all time in `oracle`.

    A two-mode DenseBosonicEngine at fock_dim 16 with mix_channels and the
    matrix-free Krylov method (d^2 = 65,536, criterion 3's truncation), a
    one-mode fock_dim 30 superoperator expm for a stable and an exactly dark
    model, Jordan-Wigner expm for 1-3 fermionic modes including an exactly
    dark one, moment-closure, trace, Hermiticity and adjoint checks, and the
    dense negativities. Each dense run is compared with propagate_covariance
    at criterion 3's 1e-6 under check_truncation. This is where the sparse
    superoperator (ROADMAP item 3) shows; the other workloads do no dense work.
    """

    name = "oracle"
    min_rounds = 3
    cli_commands = ("oracle-check",)
    krylov_times = np.linspace(0.0, 0.5, 6)
    dense_times = np.linspace(0.0, 5.0, 6)

    def __init__(self, seed: int):
        self.seed = seed

    def round_items(self, r: int) -> list[Item]:
        rng = gen.rng_for(self.seed, 3, r)
        items = []
        for kind, n, dim, cap, small, times in (
                ("krylov_fock16x2", 2, 16, 0.15, 0.08, self.krylov_times),
                ("expm_fock30", 1, 30, 0.35, 0.15, self.dense_times)):
            initial = _product_initial(rng, n, dim, small, small)
            spec = gen.cool_bosonic(rng, n, cap, times, initial["x0"])
            spec.update(initial)
            items.append(Item(kind, spec))
        spec = gen.dephasing_oscillator(rng)
        spec.update(_product_initial(rng, 1, 30, 0.15, 0.15))
        items.append(Item("expm_fock30_dark", spec))
        for n in (1, 2, 3):
            spec = gen.random_cross_damped(rng, FERMIONIC, n, -rng.uniform(0.1, 0.5), "jw")
            spec["x0"] = gen.random_sigma(rng, n, 0.8)
            items.append(Item(f"jw_{n}", spec))
        spec = gen.fermionic_dark(rng, 3, 0.0, "jw_dark")
        spec["x0"] = gen.random_sigma(rng, 3, 0.8)
        items.append(Item("jw_dark_3", spec))
        spec = gen.cool_bosonic(rng, 2, 0.15, self.krylov_times, np.eye(4))
        spec.update({"fermionic": gen.random_cross_damped(rng, FERMIONIC, 3, -0.3, "closure")})
        items.append(Item("closure_checks", spec))
        spec = gen.cool_bosonic(rng, 2, 0.15, self.krylov_times, np.eye(4))
        spec.update({"fermionic": gen.random_cross_damped(rng, FERMIONIC, 3, -0.3, "engine"),
                     "r": rng.uniform(0.2, 0.5), "sigma2": gen.random_sigma(rng, 2, 0.95),
                     "check_seed": int(rng.integers(2 ** 31))})
        items.append(Item("engine_checks", spec))
        return items

    def warmup_items(self) -> list[Item]:
        return [i for i in self.round_items(0) if i.kind.startswith("jw")]

    def run(self, item: Item) -> Outcome:
        s = item.spec
        out = Outcome()
        if item.kind == "closure_checks":
            return self._run_closure(s, out)
        if item.kind == "engine_checks":
            return self._run_engine_checks(s, out)
        m = out.step("construct", _model, s)
        if m is None:
            return out
        if s["flavor"] == BOSONIC:
            krylov = item.kind.startswith("krylov")
            times = self.krylov_times if krylov else self.dense_times
            engine = out.step("engine", oracle.DenseBosonicEngine, m,
                              fock_dim=s["fock_dim"], mix_channels=krylov)
            if engine is None:
                return out
            rhos = out.step("evolve", engine.evolve, s["rho0"], times,
                            method="krylov" if krylov else "expm")
            dd = out.step("drift", bosonic.build_drift_diffusion, m)
            traj = out.step("propagate", bosonic.propagate_covariance, dd, s["x0"], times,
                            mean0=np.zeros(2 * s["n_modes"])) if dd is not None else None
            if rhos is None or traj is None:
                return out
            out.step("truncation", lambda: [engine.check_truncation(rho) for rho in rhos])
            out.step("moments", lambda: [engine.extract_mean_and_v(rho) for rho in rhos])
            return out
        engine = out.step("engine", oracle.DenseFermionicEngine, m)
        kernel = out.step("gibbs", fermionic.covariance_to_gibbs, s["x0"])
        if engine is None or kernel is None:
            return out
        rho0 = out.step("rho0", oracle.fermionic_gibbs_state, kernel, s["n_modes"])
        rhos = out.step("evolve", engine.evolve, rho0, self.dense_times, method="expm")
        dd = out.step("drift", fermionic.build_drift_diffusion, m)
        if dd is not None:
            out.step("propagate", fermionic.propagate_covariance, dd, s["x0"], self.dense_times)
        if rhos is not None:
            out.step("moments", lambda: [engine.extract_sigma(rho) for rho in rhos])
        return out

    @staticmethod
    def _run_closure(s, out):
        bos = out.step("construct", _model, s)
        fer = out.step("construct_fermionic", _model, s["fermionic"])
        if bos is not None:
            out.step("closure_bosonic", oracle.moment_closure_check, bos, fock_dim=24)
        if fer is not None:
            out.step("closure_fermionic", oracle.moment_closure_check, fer)
        return out

    @staticmethod
    def _run_engine_checks(s, out):
        bos = out.step("construct", _model, s)
        fer = out.step("construct_fermionic", _model, s["fermionic"])
        rng = np.random.default_rng(s["check_seed"])
        for name, build in (("bosonic", lambda: oracle.DenseBosonicEngine(bos, fock_dim=16)),
                            ("fermionic", lambda: oracle.DenseFermionicEngine(fer))):
            engine = out.step(f"engine_{name}", build)
            if engine is None:
                continue
            obs = oracle.random_density(rng, engine.dim)
            state = oracle.random_density(rng, engine.dim)
            out.step(f"trace_{name}", oracle.trace_preservation_check, engine)
            out.step(f"hermiticity_{name}", oracle.hermiticity_preservation_check, engine)
            out.step(f"adjoint_{name}", oracle.adjoint_consistency_check, engine,
                     obs + obs.conj().T, state)
        out.step("negativity_bosonic", oracle.dense_negativity_bosonic,
                 oracle.fock_tmsv(s["r"], 16), (16, 16))
        kernel = out.step("gibbs", fermionic.covariance_to_gibbs, s["sigma2"])
        if kernel is not None:
            rho = out.step("rho_fermionic", oracle.fermionic_gibbs_state, kernel, 2)
            out.step("negativity_fermionic", oracle.dense_negativity_fermionic, rho)
            out.step("log_negativity_fermionic", entanglement.log_negativity_fermionic, s["sigma2"])
        return out

    def check(self, item: Item, out: Outcome, ck: Checks, label):
        s, v = item.spec, out.values
        if item.kind.endswith("_checks"):
            for key in ("closure_bosonic", "closure_fermionic"):
                if key in v:
                    ck.within(label, "moment_closure", max(v[key].values()), 1e-8)
            for key in ("trace", "hermiticity"):
                for flavor in ("bosonic", "fermionic"):
                    if f"{key}_{flavor}" in v:
                        ck.within(label, f"{key}_preservation", v[f"{key}_{flavor}"], 1e-8)
            for flavor in ("bosonic", "fermionic"):
                if f"adjoint_{flavor}" in v:
                    ck.within(label, "adjoint_consistency", v[f"adjoint_{flavor}"], 1e-12)
            if "negativity_bosonic" in v:
                ck.within(label, "dense_negativity_tmsv", abs(v["negativity_bosonic"] - 2 * s["r"]),
                          1e-3)
            if "negativity_fermionic" in v and "log_negativity_fermionic" in v:
                ck.within(label, "fermionic_negativity_vs_dense",
                          abs(v["negativity_fermionic"] - v["log_negativity_fermionic"].value), 1e-6)
            return
        if "evolve" not in v or "propagate" not in v:
            return
        states = _states(v["propagate"])
        worst = 0.0
        if s["flavor"] == BOSONIC:
            for (mean, cov), st in zip(v.get("moments", []), states):
                worst = max(worst, float(np.max(np.abs(cov - st.v))),
                            float(np.max(np.abs(mean - st.mean))))
        else:
            for sigma, st in zip(v.get("moments", []), states):
                worst = max(worst, float(np.max(np.abs(sigma - st.sigma))))
            if "rho0" in v:
                ck.within(label, "gibbs_initial_state",
                          ref.relative_error(ref.measured_sigma(v["rho0"], ref.majoranas(s["n_modes"])),
                                             s["x0"]), 1e-8)
        ck.holds(label, "moments_extracted", "moments" in v)
        ck.within(label, "dense_vs_covariance", worst, 1e-6)

    def cli_calls(self, r: int, items: list[Item], workdir: str) -> list[dict]:
        """`glme oracle-check` on the round's one-mode bosonic and two-mode fermionic models."""
        calls = []
        for kind in ("expm_fock30", "jw_2"):
            path = os.path.join(workdir, f"oracle-{kind}-{r}.json")
            write_model(path, next(i.spec for i in items if i.kind == kind))
            calls.append({"command": "oracle-check",
                          "argv": ["oracle-check", "--model", path, "--fock-dim", "20"]})
        return calls

    def check_cli(self, call, proc, ck: Checks, label):
        if not ck.holds(label, "cli_exit", proc.returncode == 0):
            return
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        ck.holds(label, "cli_oracle_passed", payload["passed"] is True)


def _product_initial(rng, n_modes: int, dim: int, nbar_max: float, r_max: float) -> dict:
    """Dense squeezed-thermal product state and its closed-form covariance."""
    rho = np.eye(1, dtype=complex)
    diag = []
    for _ in range(n_modes):
        nbar, r = rng.uniform(0.0, nbar_max), rng.uniform(-r_max, r_max)
        rho = np.kron(rho, ref.squeezed_thermal(nbar, r, dim))
        diag += [np.exp(-2 * r) * (2 * nbar + 1), np.exp(2 * r) * (2 * nbar + 1)]
    return {"rho0": rho, "x0": np.diag(diag), "fock_dim": dim}


WORKLOADS = {w.name: w for w in (Sweep, Trajectory, Oracle)}
