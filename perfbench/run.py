#!/usr/bin/env python3
"""glme benchmark: drives the library and its CLI from outside, as users do.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are ``sweep``, ``trajectory`` and ``oracle`` (see workloads.py for
what each runs and why); ``--workload all`` runs the three in turn, each in
a fresh process, and prints their results as one object keyed by workload. The
benchmark puts ``src/`` of the checkout first on the import path, so it
measures the source tree it sits in, and exits with code 2 when that tree is
missing.

A run measures the set-up time in fresh processes, then repeats rounds of the
workload's fixed work set until ``--seconds`` have passed (and at least the
workload's minimum number of rounds) and reports medians over rounds. Every
timing metric is CPU time (user + system) of the benchmark process and of the
processes it starts, not wall time: OpenBLAS runs on one thread, so the two
agree on an idle machine. On a shared 2-vCPU virtual machine, over ten seeds,
the wall-time metrics spread (q3 - q1) / median by up to 0.44 while process
CPU time spread by at most 0.044. Wall times are kept in the detail record.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
derived from the traced rounds' spans, which it also writes to
``.perfbench/spans-<workload>-seed<seed>.json``. The last line of standard
output is the result object, whose ``failed`` counts the unexpected failures
only; the line before it carries the detail record (environment, sample
counts, every failure, the known-defect ones among them, worst check errors).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("sweep", "trajectory", "oracle")
CLI_TIMEOUT_S = 120

# Checks whose failure means an operation was refused or did not run, not
# that a wrong result came back.
OPERATION_CHECKS = {"refusal_is_non_hurwitz", "cli_exit", "moments_extracted"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate the first round and warm up, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def set_up(args):
    """Import glme, build the workload and its first round, warm up."""
    import workloads

    import glme
    if not os.path.abspath(glme.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"glme imported from {glme.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    items = workload.round_items(0)
    for item in workload.warmup_items():
        workload.run(item)
    return workload, items


def children_cpu_seconds() -> float:
    """CPU time of every child process that has ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args) -> tuple[list[float], list[float]]:
    """CPU and wall times of fresh processes from start to ready (import, inputs, warm-up)."""
    cpu, wall = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        cpu0, start = children_cpu_seconds(), time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        cpu.append(children_cpu_seconds() - cpu0)
        wall.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{proc.stderr}")
    return cpu, wall


def measure_cli_import() -> list[float]:
    code = ("import time; t = time.process_time(); import glme.cli; "
            "print(time.process_time() - t)")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def run_round(workload, r, items, workdir, tracer):
    """Time one round of items and CLI calls, then check every output."""
    from workloads import Checks, is_known_defect

    import numpy as np

    calls = workload.cli_calls(r, items, workdir)
    # scipy's randomized norm estimators (used by expm_multiply) draw from the
    # global numpy RNG; seeding it per round makes their step counts repeat
    np.random.seed([workload.seed, r])
    if tracer is not None:
        tracer.install()
    cpu0, child0, wall0 = time.process_time(), children_cpu_seconds(), time.perf_counter()
    outcomes, item_s = [], []
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item_id, tracer.item_cls = f"{r}.{idx}", item.cls
            sid = tracer.open("item", item.cls)
        start = time.process_time()
        outcomes.append(workload.run(item))
        item_s.append(time.process_time() - start)
        if tracer is not None:
            tracer.close(sid)
    if tracer is not None:
        tracer.uninstall()
    cli = []
    for call in calls:
        cpu_start, start = children_cpu_seconds(), time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "glme.cli", *call["argv"]],
                                  env=child_env(), cwd=workdir, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(call["argv"], returncode=-1, stdout="", stderr="")
        cli.append((call, proc, children_cpu_seconds() - cpu_start, time.perf_counter() - start))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    cli_cpu = children_cpu_seconds() - child0

    ck = Checks()
    errors, known = {}, set()
    for idx, (item, out) in enumerate(zip(items, outcomes)):
        label = (r, idx, item.kind)
        if out.errors:
            errors[label] = out.errors
            if is_known_defect(item, out.errors):
                known.add(label)
        workload.check(item, out, ck, label)
    for idx, (call, proc, _, _) in enumerate(cli):
        workload.check_cli(call, proc, ck, (r, f"cli{idx}", call["command"]))
    failed = set(errors) | {f[0] for f in ck.failed}
    known -= {f[0] for f in ck.failed}
    wrong = {f[0] for f in ck.failed if f[1] not in OPERATION_CHECKS}
    by_class = {"stable": 0.0, "marginal": 0.0}
    counts = {"stable": 0, "marginal": 0}
    for item, dt in zip(items, item_s):
        by_class[item.cls] += dt
        counts[item.cls] += 1
    return {
        "round": r, "traced": tracer is not None, "run_s": cpu + cli_cpu, "wall_s": wall,
        "cpu_s": cpu, "item_s": item_s, "class_s": by_class, "class_counts": counts,
        "cli": [(call["command"], dt, proc.returncode) for call, proc, dt, _ in cli],
        "cli_wall_s": [dt for _, _, _, dt in cli],
        "attempted": len(items) + len(cli), "failed": len(failed), "known_defect": len(known),
        "wrong": len(wrong),
        "failures": [{"where": list(map(str, label)), "errors": errs} for label, errs in errors.items()]
                    + [{"where": list(map(str, f[0])), "check": f[1], "err": f[2], "tol": f[3]}
                       for f in ck.failed],
        "checks": ck,
    }


def quantile(values, q) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(values), q))


def end_to_end(rounds, setup_samples, rss_mb) -> tuple[dict, dict]:
    """Medians over rounds, item percentiles included; ``setup_samples`` is (cpu, wall).

    A sweep round holds 200 items, so each round's p95 has 10 samples beyond
    it. When item times were wall times, the run's pooled p99 spread 1.5 to
    3.3 times as wide as that p95 across seeds, because bursts of contention
    land in the slowest 1% of items; the pooled p99, with the number of items
    beyond it, stays in the detail record.
    """
    items_ms = [1e3 * dt for rnd in rounds for dt in rnd["item_s"]]
    cli_s = [dt for rnd in rounds for _, dt, _ in rnd["cli"]]
    attempted = sum(rnd["attempted"] for rnd in rounds)
    failed = sum(rnd["failed"] for rnd in rounds)
    known = sum(rnd["known_defect"] for rnd in rounds)
    pooled_p99 = quantile(items_ms, 0.99)

    def per_round(q):
        return statistics.median(quantile([1e3 * dt for dt in rnd["item_s"]], q) for rnd in rounds)

    setup_cpu, setup_wall = setup_samples
    values = {
        "setup_s": statistics.median(setup_cpu),
        "run_s": statistics.median(rnd["run_s"] for rnd in rounds),
        "cpu_s": statistics.median(rnd["cpu_s"] for rnd in rounds),
        "stable_s": statistics.median(rnd["class_s"]["stable"] for rnd in rounds),
        "marginal_s": statistics.median(rnd["class_s"]["marginal"] for rnd in rounds),
        "item_p50_ms": per_round(0.5),
        "item_p95_ms": per_round(0.95),
        "cli_p50_s": statistics.median(cli_s),
        "ops_ok": 1.0 - failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setup_cpu), "rounds": len(rounds), "items": len(items_ms),
        "items_per_round": len(rounds[0]["item_s"]), "cli_calls": len(cli_s),
        "pooled_item_p99_ms": pooled_p99,
        "items_beyond_pooled_p99": sum(1 for x in items_ms if x > pooled_p99),
        "ops_failed": {"value": failed / attempted, "failed": failed, "attempted": attempted,
                       "known_defect": known, "unexpected": failed - known},
        "wall": {"setup_s": statistics.median(setup_wall),
                 "run_s": statistics.median(rnd["wall_s"] for rnd in rounds),
                 "cli_p50_s": statistics.median(dt for rnd in rounds for dt in rnd["cli_wall_s"])},
    }
    return values, samples


def per_layer(workload_name, rounds, traced_metrics, cli_import, overhead) -> dict:
    out = {}
    keys = {k for m in traced_metrics for k in m}
    for key in keys:
        out[key] = statistics.median(m.get(key, 0.0) for m in traced_metrics)
    by_command = {}
    for rnd in rounds:
        for command, dt, _ in rnd["cli"]:
            by_command.setdefault(command, []).append(dt)
    for command, samples in by_command.items():
        out[f"cli.{command}.p50_s"] = statistics.median(samples)
    out["cli.import_s"] = statistics.median(cli_import)
    out["cli.failed"] = sum(1 for rnd in rounds for _, _, code in rnd["cli"] if code != 0)
    out[f"{workload_name}.max_err"] = max(rnd["checks"].max_ratio() for rnd in rounds)
    out["trace.overhead_s"] = overhead
    return out


def worst_checks(rounds) -> dict:
    worst = {}
    for rnd in rounds:
        for name, (ratio, err) in rnd["checks"].worst.items():
            if ratio >= worst.get(name, {"share_of_tol": -1.0})["share_of_tol"]:
                worst[name] = {"share_of_tol": ratio, "err": err}
    return worst


def run_all(argv) -> int:
    """Run every workload in a fresh process, so each peak RSS is its own.

    Each child's metric table goes to standard error as it runs; the last
    line of standard output holds the children's result objects by workload.
    """
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        # a repeated option takes its last value, so the child runs one workload
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), *argv,
                               "--workload", name], stdout=subprocess.PIPE, text=True)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(argv)
    if not os.path.isfile(os.path.join(SRC, "glme", "__init__.py")):
        print(f"perfbench: no glme source tree at {SRC}", file=sys.stderr)
        return 2
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        print(f"perfbench: {bench_path} is missing", file=sys.stderr)
        return 2
    with open(bench_path) as handle:
        bench = json.load(handle)

    import environment
    environment.pin_blas_threads()
    sys.path.insert(0, SRC)
    if args.setup_only:
        set_up(args)
        return 0

    setup_samples = measure_setup(args)
    workload, items = set_up(args)
    import spans

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rounds, tracers = [], []
    try:
        start = time.perf_counter()
        r = 0
        while True:
            tracer = spans.Tracer() if args.trace and r % 2 == 1 else None
            rounds.append(run_round(workload, r, items, workdir, tracer))
            if tracer is not None:
                tracers.append(tracer)
            r += 1
            if r >= workload.min_rounds and time.perf_counter() - start >= args.seconds:
                break
            items = workload.round_items(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [rnd for rnd in rounds if not rnd["traced"]]
    e2e, samples = end_to_end(untraced, setup_samples, rss_mb)
    attempted = sum(rnd["attempted"] for rnd in rounds)
    # the result line's failures are the unexpected ones; known-defect
    # failures show in ops_ok and in the detail record's ops_failed
    failed = sum(rnd["failed"] - rnd["known_defect"] for rnd in rounds)
    correct = all(rnd["wrong"] == 0 for rnd in rounds)
    if args.trace:
        traced = [rnd for rnd in rounds if rnd["traced"]]
        overhead = (statistics.median(rnd["run_s"] for rnd in traced)
                    - statistics.median(rnd["run_s"] for rnd in untraced))
        layer = per_layer(args.workload, rounds, [t.layer_metrics() for t in tracers],
                          measure_cli_import(), overhead)
        chosen, table = layer, bench["per_layer"]
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": [t.spans for t in tracers],
                       "counts": [dict(t.counts) for t in tracers]}, handle)
    else:
        chosen, table = e2e, bench["end_to_end"]
    metrics = {m["name"]: {"value": float(chosen.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in table}

    class_counts = {"stable": 0, "marginal": 0}
    for rnd in rounds:
        for cls, n in rnd["class_counts"].items():
            class_counts[cls] += n
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment.record(args.seed),
        "items_by_class": class_counts,
        "samples": samples,
        "end_to_end": e2e,
        "rounds": [{"round": rnd["round"], "traced": rnd["traced"], "run_s": rnd["run_s"],
                    "wall_s": rnd["wall_s"], "cpu_s": rnd["cpu_s"], "class_s": rnd["class_s"],
                    "attempted": rnd["attempted"], "failed": rnd["failed"],
                    "known_defect": rnd["known_defect"]} for rnd in rounds],
        "worst_checks": worst_checks(rounds),
        "failures": [f for rnd in rounds for f in rnd["failures"]][:40],
        "trajectory_sha256": getattr(workload, "shas", None),
    }
    print(json.dumps({"detail": detail}, default=float))
    for name, metric in metrics.items():
        print(f"{name:>44} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
