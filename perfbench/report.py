#!/usr/bin/env python3
"""Repeat benchmark runs and summarise them.

    python3 perfbench/report.py spread [--seeds 0-9 | 0*10] [--workloads full,...]
        [--out perfbench/out/spread.json]
    python3 perfbench/report.py trace [--seed 0] [--workloads full,...]
        [--out perfbench/out/trace_report.json]
    python3 perfbench/report.py steadiness SET1.json SET2.json
        [--out perfbench/out/steadiness.json]

``spread`` runs every workload once per seed (``0*10``: seed 0 ten
times), as BENCHMARK.json's command with its run_seconds, cycling through
the workloads, in reverse order every other round, so that each
workload's runs are spread over the whole measurement; per end-to-end metric
it reports the ten values, their median and the interquartile distance
as a share of the median (``statistics.quantiles(values, n=4)``).

``trace`` makes, per workload, an untraced run, then two traced runs and
another untraced run, all at one seed.  It reports the tracing overhead
(traced trial_s.p50 minus untraced trial_s.p50, each averaged over its
two runs), checks that the two traced runs gave identical counters, and
lists each workload's dominant-layer share next to its prediction.

``steadiness`` compares two ``spread`` outputs of the same code: per
metric, both spreads and how much the second median is worse than the
first, against the metric's bound.

Runs are made one at a time, each waited for before the next starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench

ROOT = bench.ROOT
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: bool) -> dict:
    cmd = CONFIG["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(CONFIG["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    print(f"{workload:8s} seed={seed} trace={int(trace)} wall={wall:.1f}s "
          f"ops={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return result


def spread_of(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def cmd_spread(args) -> dict:
    runs = {w: [] for w in args.workloads}
    for i, seed in enumerate(args.seeds):
        for workload in args.workloads[::1 if i % 2 == 0 else -1]:
            runs[workload].append(one_run(workload, seed, False))
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    out = {}
    for workload, results in runs.items():
        metrics = {}
        for name, bound in bounds.items():
            s = spread_of([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            metrics[name] = s
        out[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "max_wall_s": max(r["wall_s"] for r in results),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            flag = "" if s["iqr_share"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:8s} {name:18s} median={s['median']:.6g} "
                  f"iqr/median={s['iqr_share']:.3f} bound={s['bound']}{flag}")
    return out


def cmd_trace(args) -> dict:
    out = {}
    for workload in args.workloads:
        summary_path = bench.OUT_DIR / f"trace-{workload}-seed{args.seed}.json"
        plain = [one_run(workload, args.seed, False)]
        traced, summaries = [], []
        for _ in range(2):
            traced.append(one_run(workload, args.seed, True))
            summaries.append(json.loads(summary_path.read_text()))
        plain.append(one_run(workload, args.seed, False))
        counters = [{k: r["metrics"][k]["value"] for k in bench.COUNTERS} for r in traced]
        untraced_p50 = statistics.mean(r["metrics"]["trial_s.p50"]["value"] for r in plain)
        traced_p50 = statistics.mean(s["trial_s.p50"] for s in summaries)
        out[workload] = {
            "seed": args.seed,
            "correct": all(r["correct"] for r in plain + traced),
            "counters_identical": counters[0] == counters[1],
            "counters": counters[0],
            "untraced_trial_s.p50": untraced_p50,
            "traced_trial_s.p50": traced_p50,
            "tracing_overhead_s": traced_p50 - untraced_p50,
            "dominant_layer": summaries[0]["dominant_layer"],
            "self_share_of_trial_s": summaries[0]["self_share_of_trial_s"],
            "prediction": summaries[0]["prediction"],
            "nu_share_of_learn_s": summaries[0]["nu_share_of_learn_s"],
            "per_layer": {k: v["value"] for k, v in traced[-1]["metrics"].items()},
        }
        print(f"{workload:8s} counters identical={out[workload]['counters_identical']} "
              f"overhead={out[workload]['tracing_overhead_s']:+.4f}s "
              f"dominant={out[workload]['dominant_layer']} "
              f"prediction={json.dumps(out[workload]['prediction'])}")
    return out


def _machine() -> dict:
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "notes": "shared cores; no CPU pinning or frequency control; the box "
                 "alternates between fast and slow phases about 1.4x apart, "
                 "lasting from seconds to several minutes, so per-run medians "
                 "drift together and longer runs do not steady them",
    }


def cmd_steadiness(args) -> dict:
    """Both sets' spreads and the shift of the second set's median."""
    sets = [json.loads(path.read_text()) for path in args.sets]
    out = {"machine": _machine(), "run_seconds": CONFIG["run_seconds"],
           "seeds": sets[0][next(iter(sets[0]))]["seeds"], "workloads": {}}
    for workload in sets[0]:
        rows = {}
        for name, first in sets[0][workload]["metrics"].items():
            second = sets[1][workload]["metrics"][name]
            bound = first["bound"]
            better = next(m["better"] for m in CONFIG["end_to_end"] if m["name"] == name)
            sign = 1.0 if better == "lower" else -1.0
            shift = sign * (second["median"] - first["median"]) / first["median"]
            spreads = [first["iqr_share"], second["iqr_share"]]
            rows[name] = {
                "bound": bound,
                "medians": [first["median"], second["median"]],
                "iqr_share": spreads,
                "worsening_of_second_median": shift,
                "within_bound": shift <= bound and max(spreads) <= bound,
                "below_third_of_bound": max(spreads) < bound / 3,
            }
        out["workloads"][workload] = {
            "correct": all(s[workload]["correct"] for s in sets),
            "failed": sum(s[workload]["failed"] for s in sets),
            "attempted": sum(s[workload]["attempted"] for s in sets),
            "max_wall_s": max(s[workload]["max_wall_s"] for s in sets),
            "metrics": rows,
        }
    return out


def _seeds(text: str) -> list[int]:
    if "*" in text:
        seed, times = text.split("*")
        return [int(seed)] * int(times)
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, default_out in (("spread", "spread.json"), ("trace", "trace_report.json")):
        p = sub.add_parser(name)
        p.add_argument("--workloads", type=lambda s: s.split(","), default=list(bench.WORKLOADS))
        p.add_argument("--out", type=Path, default=bench.OUT_DIR / default_out)
    sub.choices["spread"].add_argument("--seeds", type=_seeds, default=list(range(10)))
    sub.choices["trace"].add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    steady = sub.add_parser("steadiness")
    steady.add_argument("sets", type=Path, nargs=2, help="two outputs of `spread`")
    steady.add_argument("--out", type=Path, default=bench.OUT_DIR / "steadiness.json")
    args = parser.parse_args()
    command = {"spread": cmd_spread, "trace": cmd_trace, "steadiness": cmd_steadiness}
    result = command[args.command](args)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
