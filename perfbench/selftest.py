"""Self-test of the benchmark, at tiny problem sizes (about three minutes).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

- every workload, untraced and traced, ends with a result line holding
  exactly the contract's keys and every metric BENCHMARK.json names, with
  its unit, and that the traced counts repeat exactly at one seed;
- a deliberately failing experiment is counted in ``failed`` and
  ``pass_fraction`` instead of crashing the benchmark: ``demo-hammerstein``
  given an unknown option exits 2 and writes no outputs;
- without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
from tracer import EXACT

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class FailingDemo(run.OpenDemo):
    """`open_demo` with an option the CLI rejects."""

    name = "failing_demo"

    def steps(self, out, seed):
        return [[*step, "--no-such-option"] for step in super().steps(out, seed)]


def result_of(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_metrics(workload: str, trace: int, expected: dict) -> dict:
    done = result_of(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected, (workload, trace, set(units) ^ set(expected))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    print(f"ok  {workload} --trace {trace}: {len(units)} metrics with units")
    return result["metrics"]


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in bench["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in bench["per_layer"]},
    }
    names = [workload["name"] for workload in bench["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS), names

    for workload in names:
        check_metrics(workload, 0, expected[0])
        first = check_metrics(workload, 1, expected[1])
        again = check_metrics(workload, 1, expected[1])
        for name in EXACT:
            assert first[name]["value"] == again[name]["value"], (workload, name)
        print(f"ok  {workload}: traced counts repeat at one seed")

    run.WORKLOADS[FailingDemo.name] = FailingDemo
    try:
        failing = run.measure(FailingDemo.name, seed=7, seconds=1, trace=False, tiny=True)
    finally:
        del run.WORKLOADS[FailingDemo.name]
    result = failing["result"]
    assert not result["correct"] and result["failed"] == result["attempted"] >= 2, result
    assert result["metrics"]["pass_fraction"]["value"] == 0.0, result
    codes = [e["exit_codes"] for e in failing["details"]["experiments"]]
    assert all(c == [2] for c in codes), codes
    print("ok  failing experiment counted: exit codes", codes)

    bare = run.HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = result_of("open_demo", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout, (done.returncode, done.stdout)
    print("ok  without sources: exit code", done.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
