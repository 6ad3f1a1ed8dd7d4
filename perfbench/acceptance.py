#!/usr/bin/env python3
"""One-shot acceptance report: each criterion's wall time against its bound.

Runs tests/test_acceptance.py read-only (no pytest cache, no bytecode) and
prints one JSON object with every criterion's outcome, wall time, and the
wall-clock bound its test asserts (``assert elapsed < X``, read from the test
source), so the margin of each timing gate is tracked from a recorded
baseline. It is neither a workload nor gated.

    python3 perfbench/acceptance.py [--output perfbench/baseline/acceptance.json]
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

import environment

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TEST_FILE = os.path.join("tests", "test_acceptance.py")


def wall_clock_bounds(path: str) -> dict[str, float]:
    """Map test name to X for each ``assert elapsed < X`` in its body."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    bounds = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or not node.name.startswith("test_"):
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Assert) and isinstance(sub.test, ast.Compare)
                    and isinstance(sub.test.left, ast.Name) and sub.test.left.id == "elapsed"
                    and isinstance(sub.test.ops[0], ast.Lt)
                    and isinstance(sub.test.comparators[0], ast.Constant)):
                bounds[node.name] = float(sub.test.comparators[0].value)
    return bounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", help="also write the report to this file")
    args = parser.parse_args(argv)
    bounds = wall_clock_bounds(os.path.join(ROOT, TEST_FILE))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        junit = os.path.join(tmp, "acceptance.xml")
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", TEST_FILE, "-q", "-p", "no:cacheprovider",
             f"--junitxml={junit}"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        total = time.perf_counter() - started
        cases = ET.parse(junit).getroot().iter("testcase")
        criteria = {}
        for case in cases:
            name = case.get("name")
            match = re.match(r"test_criterion_(\d+)_", name)
            outcome = "failed" if case.find("failure") is not None or case.find("error") is not None \
                else "skipped" if case.find("skipped") is not None else "passed"
            wall = float(case.get("time"))
            entry = {"test": name, "outcome": outcome, "wall_s": wall}
            if name in bounds:
                entry.update(bound_s=bounds[name], margin_s=bounds[name] - wall,
                             share_of_bound=wall / bounds[name])
            criteria[match.group(1) if match else name] = entry
    report = {"environment": environment.record(seed=0), "pytest_exit_code": proc.returncode,
              "total_s": total, "criteria": dict(sorted(criteria.items(), key=lambda kv: int(kv[0])
                                                          if kv[0].isdigit() else 0))}
    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
