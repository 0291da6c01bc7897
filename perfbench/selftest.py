"""The benchmark's self-test, at tiny sizes: ``python3 perfbench/run.py --self-test``.

1. Every workload, untraced and traced, exits 0 and ends with one JSON
   result line that carries exactly the metrics ``BENCHMARK.json`` names
   for that mode, each with its declared unit and a finite value.
2. Each correctness gate fails — result ``correct: false``, a failed
   operation counted, exit code 1 — when its reference is fed one corrupted
   update.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import ROOT

TINY = ["--seed", "3", "--seconds", "2", "--scale", "0.03"]


def _declared(mode: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def _check_result(line: str, expected: dict, where: str) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append(f"{where}: correct is {result['correct']!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']!r}")
    if set(result["metrics"]) != set(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        problems.append(f"{where}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        entry = result["metrics"].get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r} != {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_outputs() -> list[str]:
    from run import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", workload, "--trace", str(trace), *TINY],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if not any(line.startswith("env ") for line in lines):
                problems.append(f"{where}: no environment record")
            problems += _check_result(lines[-1], _declared(mode), where)
            print(f"checked {where}", flush=True)
    return problems


def _corrupted(fn, position: int):
    """``fn`` with its reference input corrupted: one update of a
    ``deltas`` array changed (the state gates compare every byte), or every
    delta of the first stream chunk doubled (the serve gate compares
    answers, which a single light update need not move)."""

    def wrapper(*args):
        args = list(args)
        data = args[position]
        if isinstance(data, np.ndarray):
            data = data.copy()
            data[0] += 1
        else:
            items, deltas = data[0]
            data = [(items, 2 * deltas)] + list(data[1:])
        args[position] = data
        return fn(*args)

    return wrapper


def check_gates() -> list[str]:
    import run
    import workloads

    problems = []
    cases = (
        ("ingest-hot", "reference_frame", 3),
        ("dist-two-pass", "single_process_two_pass", 3),
        ("serve-live", "in_process_answers", 2),
    )
    for workload, attr, position in cases:
        original = getattr(workloads, attr)
        setattr(workloads, attr, _corrupted(original, position))
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--trace", "0", *TINY])
        finally:
            setattr(workloads, attr, original)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        if code != 1 or result["correct"] is not False or result["failed"] < 1:
            problems.append(
                f"{workload}: corrupted {attr} was not caught "
                f"(exit {code}, correct {result['correct']}, failed {result['failed']})"
            )
        print(f"checked corrupted {attr}: exit {code}", flush=True)
    return problems


def main() -> int:
    problems = check_outputs() + check_gates()
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
