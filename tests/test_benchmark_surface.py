"""The library surface the benchmark in perfbench/ calls: its tracer's hooks and the engine keywords.

perfbench/ is read, never changed: the tracer is loaded from its file,
installed and uninstalled again.
"""

import importlib.util
from pathlib import Path

import numpy as np

from glme import oracle

from conftest import damped_oscillator_model, fermionic_decay_model

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_and_workload_keywords():
    spans = _spans_module()
    originals = {key: getattr(oracle, key[0]).__dict__[key[1]] for key in spans.ENGINE_METHODS}
    tracer = spans.Tracer()
    try:
        # a KeyError here: a hooked method is no longer in its class's own __dict__
        tracer.install()
        times = np.linspace(0.0, 1.0, 3)
        # the oracle workload's keywords: two-mode Krylov items pass mix_channels=True
        # with method="krylov", the others method="expm"
        for mix_channels, method in ((True, "krylov"), (False, "expm")):
            engine = oracle.DenseBosonicEngine(damped_oscillator_model(), fock_dim=6,
                                               mix_channels=mix_channels)
            rhos = engine.evolve(engine.vacuum(), times, method=method)
            engine.check_truncation(rhos[-1])
            engine.extract_mean_and_v(rhos[-1])
        engine = oracle.DenseFermionicEngine(fermionic_decay_model())
        engine.extract_sigma(engine.evolve(engine.maximally_mixed(), times, method="expm")[-1])
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["oracle.engine_build.calls"] == 3
    assert metrics["oracle.evolve.calls"] == 3
    assert metrics["oracle.evolve.failed"] == 0
    assert metrics["oracle.moments.calls"] == 3
    assert metrics["oracle.checks.calls"] == 2
    for (cls_name, meth), original in originals.items():
        assert getattr(oracle, cls_name).__dict__[meth] is original
