#!/usr/bin/env python3
"""Record the reference outputs every benchmark run at DEFAULT_SEED is
checked against: per trial, the learned edges, the per-node traces, the
accounting and (on ``verify``) the verification records' ok flags.

    python3 perfbench/record_reference.py [workload ...]

Run it only on a commit whose outputs are the intended behaviour; a
change to the learner that alters any of these must not re-record them.
"""

from __future__ import annotations

import json
import sys

import run


def record(workload: str) -> None:
    trials = run.TRIALS[workload]
    cases = run.setup(run.DEFAULT_SEED, trials).cases
    call = run.program_calls(sys.modules["mrflearn"], sys.modules["mrflearn.io"], None)
    summaries = []
    for case in cases:
        outcome = run.OPS[workload](call, case)
        problems = run.check(workload, case, outcome, None)
        if problems:
            raise SystemExit(f"{workload} trial {case.index}: " + "; ".join(problems))
        summaries.append(run.summarize(workload, outcome))
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{workload}.json"
    lines = ",\n".join(json.dumps(s) for s in summaries)
    path.write_text(f'{{"workload": "{workload}", "seed": {run.DEFAULT_SEED}, '
                    f'"trials": [\n{lines}\n]}}\n')
    print(f"wrote {path} ({trials} trials)")


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    for name in sys.argv[1:] or run.WORKLOADS:
        record(name)
