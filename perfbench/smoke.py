#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload: a 1-op untraced run (3 ops on a workload with a
true p90) and a 2-op traced run print
every metric BENCHMARK.json names, with its unit, and fail nothing; a
planted wrong edge and a perturbed trace value in the reference are each
counted as a failed op, which shows the correctness check can fail.  On
a seed without a reference, the seed-independent check must pass an
op's output and flag it once a wrong edge, a wrong evaluation count or
(where the trace is recomputed) a perturbed trace value is planted.
Finally the benchmark must refuse to run, exiting non-zero without a
result, from a directory that holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def printed_result(argv: list[str]) -> tuple[dict, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv)
    text = buffer.getvalue()
    expect(code == 0, f"{argv} exited {code}")
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics(workload: str, trace: int) -> None:
    argv = ["--workload", workload, "--seconds", "0", "--trace", str(trace)]
    result, text = printed_result(argv)
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace} failed ops")
    expect(result["attempted"] >= 1, "no op attempted")
    expect(set(result["metrics"]) == {m["name"] for m in expected},
           f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        expect(entry["unit"] == metric["unit"], f"{metric['name']} unit")
        expect(f"{metric['name']} " in text, f"{metric['name']} not printed")
    print(f"smoke: {workload} trace={trace}: {result['attempted']} ops, "
          f"{len(expected)} metrics printed with units")


def check_planted(workload: str) -> None:
    reference = run.load_reference(workload)
    wrong_edge = copy.deepcopy(reference)
    edges = wrong_edge[0]["edges"]
    edges.append(next([a, b] for a in range(12) for b in range(a + 1, 12) if [a, b] not in edges))
    edges.sort()
    perturbed = copy.deepcopy(reference)
    step = next(node["trace"][0] for node in perturbed[0]["nodes"] if node["trace"])
    step[2] += 1e-6
    for label, planted in (("wrong edge", wrong_edge), ("perturbed nu_hat", perturbed)):
        with contextlib.redirect_stderr(io.StringIO()):
            result = run.run(workload, run.DEFAULT_SEED, 0, False, trials=1, reference=planted)
        expect(result["attempted"] >= 1 and result["failed"] == result["attempted"]
               and not result["correct"],
               f"{workload}: planted {label} was not counted as a failed op")
    print(f"smoke: {workload}: planted wrong edge and perturbed nu_hat both counted as failed")


def check_planted_without_reference(workload: str) -> None:
    setup = run.setup(run.CONFIRM_SEED, 1)
    case = setup.cases[0]
    outcome = run.OPS[workload](run.program_calls(setup.ml, setup.mlio, None), case)
    expect(run.check(workload, case, outcome, None) == [],
           f"{workload}: seed {run.CONFIRM_SEED} output fails the consistency check")
    plants = {}
    result = copy.deepcopy(outcome.result)
    result.edges.add(next((a, b) for a in range(12) for b in range(a + 1, 12)
                          if (a, b) not in result.edges))
    plants["wrong edge"] = result
    result = copy.deepcopy(outcome.result)
    result.per_node[0].evaluations += 1
    plants["wrong evaluation count"] = result
    if outcome.source is not None:
        result = copy.deepcopy(outcome.result)
        node = next(res for res in result.per_node.values() if res.trace)
        kind, nodes, value = node.trace[0]
        node.trace[0] = (kind, nodes, value + 1e-6)
        plants["perturbed nu_hat"] = result
    for label, planted in plants.items():
        problems = run.check(workload, case, dataclasses.replace(outcome, result=planted), None)
        expect(bool(problems), f"{workload}: planted {label} passed the consistency check")
    print(f"smoke: {workload}: seed {run.CONFIRM_SEED}: planted " + ", ".join(plants)
          + " each flagged without a reference")


def check_refuses_without_sources() -> None:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            CONFIG["command"] + ["--workload", "full", "--seed", "0", "--seconds", "1",
                                 "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0, "benchmark ran without the mrflearn sources")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without sources")
    print("smoke: without src/ the benchmark exits", proc.returncode, "and prints no result")


def main() -> int:
    run.TAIL_MIN_OPS = 3
    for workload in run.WORKLOADS:
        run.TRIALS[workload] = 2
        check_metrics(workload, 0)
        check_metrics(workload, 1)
        check_planted(workload)
        check_planted_without_reference(workload)
    check_refuses_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
