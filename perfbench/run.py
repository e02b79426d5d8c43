#!/usr/bin/env python3
"""Benchmark of the mrflearn learner on the n=12 acceptance family.

    python3 perfbench/run.py --workload {full,erased,queried,verify}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from site-packages.

One closed-loop client in one single-threaded process runs one op at a
time for ``--seconds`` seconds of op and checking time (default:
BENCHMARK.json's run_seconds), and for at least one op; a traced run
for at least one op per trial, and a workload in TAIL_WORKLOADS for at
least TAIL_MIN_OPS ops.  Op ``i`` uses trial ``i mod TRIALS[workload]``;
every trial draws its model and sample seeds from ``--seed``, so the
program only ever sees generated inputs.  Models, their exact joint
tables and learner configs are built in set-up, before the loop.  Set-up
is repeated ``SETUP_REPEATS`` times, the repeats spread evenly over the
loop (their time is not op time) so that their median samples the whole
run, and reported as that median.

Workloads (see BENCHMARK.json for why each exists):
  full     sample_exact -> samples_to_text -> samples_from_text ->
           learn_graph_full -> to_json -> score_edges
  erased   sample_exact -> erase -> learn_graph_erased -> score_edges
  queried  QueryOracle.from_joint -> learn_graph_queried -> score_edges
  verify   verify_payoff_bounds + verify_mi_chain +
           verify_conditioned_floor + learn_graph_exact -> score_edges

Every op is checked, on any seed, against what the learner's algorithm
makes of its input: each add clears tau and each prune falls below it,
the neighbourhoods, edges (mutual inclusion) and evaluation counts
follow from the trace, every trace value is recomputed from the
learner's input by an independent nu written out in this file, and the
growth and prune decisions are re-made with it (queried mode, whose
batches are not kept, checks the query accounting instead).  Every
verification record must be ok, and on ``full`` the text round trip
must give back the sampled matrix.  Checking time is not op time, and
trials_per_s leaves it out.  At DEFAULT_SEED each op must also
reproduce the recorded reference (perfbench/reference/): edges, per-node
trace (step kinds and nodes exactly, nu-hat within 1e-9) and accounting.
An op that raises or fails a check counts in ``failed``.
Recovering the true clique graph is not a check: at the tuned tau the
learner misses an edge weaker than tau on a few models in a thousand,
even with the exact estimator, so recovery is reported as
``exact_match_rate``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` wrappers are installed around the program's
functions and the last line carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from spans import Tracer, durations_by_op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

#: seed the reference outputs were recorded at
DEFAULT_SEED = 0
#: seed kept aside for confirming a claimed gain on unseen inputs
CONFIRM_SEED = 1

# the acceptance family (tests/test_acceptance.py, test_08/test_09)
SPEC = dict(n=12, r=2, max_degree=3, max_arity=2, alpha=0.4, beta=1.0)
TAU, BUDGET = 0.009, 6
M_FULL = 50_000
REVEAL = 0.9
# about M_FULL complete rows over the L + 2 columns an evaluation reads
M_ERASED = round(M_FULL / REVEAL ** (BUDGET + 2))  # 116 152
COVERAGE_FLOOR = 50
CAPACITY = math.floor(BUDGET) + SPEC["r"]
M_BATCH = 10_000
MAX_COND_SIZE = 2

WORKLOADS = ("full", "erased", "queried", "verify")
# about one op per trial in a run of run_seconds, so that a run's medians
# rest on many distinct models rather than on repeats of a few
TRIALS = {"full": 24, "erased": 16, "queried": 20, "verify": 48}
SETUP_REPEATS = 11
#: workloads whose tail is a true p90; their runs hold at least
#: TAIL_MIN_OPS ops, so at least ten lie beyond it.  Elsewhere a run
#: holds too few ops and the tail repeats the p50.
TAIL_WORKLOADS = ("verify",)
TAIL_MIN_OPS = 100
#: the one run length: BENCHMARK.json's run_seconds is --seconds' default
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
NU_TOL = 1e-9
#: nodes per op whose decisions the check re-makes, rotating with the op
#: index (default: every node); an erased-mode replay costs about as much
#: as the learn call itself, so erased runs replay two nodes per op
REPLAYED_NODES = {"erased": 2}
ACCOUNTING_KEYS = {
    "full": ("evaluations",),
    "erased": ("evaluations",),
    "queried": ("evaluations", "samples_consumed", "queries_issued", "max_query_size"),
    "verify": ("evaluations",),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "trial_s.p50": "s",
    "trial_s.p90": "s",
    "learn_s.p50": "s",
    "learn_s.p90": "s",
    "trials_per_s": "1/s",
    "exact_match_rate": "fraction",
    "peak_rss_mb": "MB",
}

#: counters that must repeat exactly; reported as the median over trials
COUNTERS = {
    "io.text_bytes": "B",
    "estimation.nu_hat.calls": "count",
    "estimation.nu_hat_erased.calls": "count",
    "estimation.erased.usable_rows_ratio": "fraction",
    "estimation.nu_hat_queried.calls": "count",
    "estimation.oracle_rows": "count",
    "estimation.cells_read": "count",
    "estimation.bytes_read_computed": "B",
    "learner.evals.growth": "count",
    "learner.evals.prune": "count",
    "learner.coverage_drops": "count",
    "inference.exact_nu.calls": "count",
    "game.records": "count",
}

#: per-op times, reported as the median over ops
OP_TIMES = (
    "sampling.sample_exact.s",
    "sampling.erase.s",
    "io.samples_to_text.s",
    "io.samples_from_text.s",
    "estimation.nu_hat.s",
    "estimation.nu_hat_erased.s",
    "estimation.nu_hat_queried.s",
    "estimation.oracle_query.s",
    "learner.growth.s",
    "learner.prune.s",
    "learner.self.s",
    "learner.to_json.s",
    "inference.exact_nu.s",
    "inference.marginal.s",
    "inference.exact_conditional_mi.s",
    "game.verify_payoff_bounds.s",
    "game.verify_mi_chain.s",
    "game.verify_conditioned_floor.s",
    "game.self.s",
    "experiment.score_edges.s",
)

#: per-model set-up times, reported as the median over models and repeats
SETUP_TIMES = ("inference.exact_joint.s", "generate.generate_model.s")

PER_LAYER_UNITS = (
    {name: "s" for name in OP_TIMES + SETUP_TIMES} | COUNTERS
)

#: (numerator spans, denominator, the share predicted before this benchmark existed)
PREDICTED_SHARES = {
    "full": (("io.samples_to_text", "io.samples_from_text"), "trial", 0.70),
    "erased": (("estimation.nu_hat_erased",), "learn", 0.99),
    "queried": (("estimation.oracle_query",), "trial", 0.88),
    "verify": (("inference.exact_nu",), "trial", 0.85),
}

clock = time.perf_counter


def trial_seeds(seed: int, index: int) -> tuple[int, int, int]:
    """(model, sample, erase) seeds of one trial; shared by all workloads."""
    state = np.random.SeedSequence([seed, index]).generate_state(3, np.uint64)
    return tuple(int(s) for s in state)


@dataclass
class Case:
    index: int
    model: object
    joint: object
    truth: set
    config: object
    sample_seed: int
    erase_seed: int


@dataclass
class Setup:
    ml: object
    mlio: object
    cases: list
    seconds: float
    generate_s: list = field(default_factory=list)
    joint_s: list = field(default_factory=list)


def setup(seed: int, trials: int) -> Setup:
    """Import mrflearn afresh and build every trial's model, joint and config."""
    for name in [m for m in sys.modules if m == "mrflearn" or m.startswith("mrflearn.")]:
        del sys.modules[name]
    start = clock()
    ml = importlib.import_module("mrflearn")
    mlio = importlib.import_module("mrflearn.io")
    cases, generate_s, joint_s = [], [], []
    for index in range(trials):
        model_seed, sample_seed, erase_seed = trial_seeds(seed, index)
        t0 = clock()
        model = ml.generate_model(ml.GeneratorSpec(**SPEC, seed=model_seed))
        t1 = clock()
        joint = ml.exact_joint(model)
        t2 = clock()
        generate_s.append(t1 - t0)
        joint_s.append(t2 - t1)
        config = ml.LearnConfig.from_model(
            model, SPEC["alpha"], SPEC["beta"], override_tau=TAU, override_L=BUDGET,
            coverage_floor=COVERAGE_FLOOR,  # read by erased mode only
        )
        assert not config.prune_sets  # consistency() counts one prune call per node
        truth = set(ml.clique_graph(model).edges)
        cases.append(Case(index, model, joint, truth, config, sample_seed, erase_seed))
    return Setup(ml, mlio, cases, clock() - start, generate_s, joint_s)


# --- the program calls each op makes -----------------------------------------


def _sample_attrs(args, result):
    emp, u, group = args[0], args[1], args[2]
    cond = args[3] if len(args) > 3 else ()
    return {"u": int(u), "rows": emp.m, "columns": 1 + len(group) + len(cond),
            "itemsize": emp.samples.data.itemsize}


def _erased_attrs(args, result):
    return _sample_attrs(args, result) | {"usable": 0 if result is None else int(result[1])}


def _u_attr(args, result):
    return {"u": int(args[1])}


def _len_attr(args, result):
    return 0 if result is None else len(result)


def program_calls(ml, mlio, tracer: Tracer | None) -> dict:
    """The public functions each op calls, by span name.

    With a tracer, each is wrapped and the estimator/inference names the
    learner and the game look up are patched in their modules; without
    one, the functions are returned untouched and nothing is patched.
    """
    calls = {
        "sampling.sample_exact": (ml.sample_exact, None),
        "sampling.erase": (ml.erase, None),
        "io.samples_to_text": (mlio.samples_to_text, _len_attr),
        "io.samples_from_text": (mlio.samples_from_text, None),
        "estimation.QueryOracle.from_joint": (ml.QueryOracle.from_joint, None),
        "learner.learn_graph_full": (ml.learn_graph_full, None),
        "learner.learn_graph_erased": (ml.learn_graph_erased, None),
        "learner.learn_graph_queried": (ml.learn_graph_queried, None),
        "learner.learn_graph_exact": (ml.learn_graph_exact, None),
        "learner.to_json": (lambda result: json.dumps(result.to_json_dict()), None),
        "experiment.score_edges": (ml.score_edges, None),
        "game.verify_payoff_bounds": (ml.verify_payoff_bounds, _len_attr),
        "game.verify_mi_chain": (ml.verify_mi_chain, _len_attr),
        "game.verify_conditioned_floor": (ml.verify_conditioned_floor, _len_attr),
    }
    if tracer is None:
        return {name: fn for name, (fn, _) in calls.items()}
    learner = sys.modules["mrflearn.learner"]
    game = sys.modules["mrflearn.game"]
    tracer.patch(learner, "nu_hat", "estimation.nu_hat", _sample_attrs)
    tracer.patch(learner, "nu_hat_erased", "estimation.nu_hat_erased", _erased_attrs)
    tracer.patch(learner, "nu_hat_queried", "estimation.nu_hat_queried", _u_attr)
    tracer.patch(learner, "exact_nu", "inference.exact_nu", _u_attr)
    tracer.patch(game, "exact_nu", "inference.exact_nu")
    tracer.patch(game, "marginal", "inference.marginal")
    tracer.patch(game, "exact_conditional_mi", "inference.exact_conditional_mi")
    tracer.patch(ml.QueryOracle, "query", "estimation.oracle_query",
                 lambda args, result: int(args[2]))
    return {name: tracer.wrap(fn, name, attrs) for name, (fn, attrs) in calls.items()}


@dataclass
class Outcome:
    result: object
    score: object
    learn_s: float
    records: dict | None = None
    #: the learner's input, for reference_nu; None on queried, whose batches are not kept
    source: tuple | None = None
    #: (written, read back) sample sets of the text round trip on full
    round_trip: tuple | None = None


def op_full(call, case: Case) -> Outcome:
    samples = call["sampling.sample_exact"](case.joint, M_FULL, case.sample_seed)
    text = call["io.samples_to_text"](samples)
    loaded = call["io.samples_from_text"](text)
    t0 = clock()
    result = call["learner.learn_graph_full"](loaded, case.config)
    learn_s = clock() - t0
    call["learner.to_json"](result)
    return Outcome(result, call["experiment.score_edges"](case.truth, result.edges), learn_s,
                   source=("complete", loaded.data, loaded.arities),
                   round_trip=(samples, loaded))


def op_erased(call, case: Case) -> Outcome:
    samples = call["sampling.sample_exact"](case.joint, M_ERASED, case.sample_seed)
    erased = call["sampling.erase"](samples, REVEAL, case.erase_seed)
    t0 = clock()
    result = call["learner.learn_graph_erased"](erased, case.config)
    learn_s = clock() - t0
    return Outcome(result, call["experiment.score_edges"](case.truth, result.edges), learn_s,
                   source=("erased", erased.data, erased.arities))


def op_queried(call, case: Case) -> Outcome:
    oracle = call["estimation.QueryOracle.from_joint"](case.joint, CAPACITY, case.sample_seed)
    model = case.model
    t0 = clock()
    result = call["learner.learn_graph_queried"](
        oracle, model.n, model.arities, case.config, M_BATCH
    )
    learn_s = clock() - t0
    return Outcome(result, call["experiment.score_edges"](case.truth, result.edges), learn_s)


def op_verify(call, case: Case) -> Outcome:
    model, joint, alpha = case.model, case.joint, SPEC["alpha"]
    records = {
        "payoff": call["game.verify_payoff_bounds"](model, alpha, joint),
        "chain": call["game.verify_mi_chain"](model, alpha, joint),
        "floor": call["game.verify_conditioned_floor"](model, alpha, MAX_COND_SIZE, joint),
    }
    t0 = clock()
    result = call["learner.learn_graph_exact"](joint, case.config)
    learn_s = clock() - t0
    score = call["experiment.score_edges"](case.truth, result.edges)
    return Outcome(result, score, learn_s, records, source=("joint", joint.probs))


OPS = {"full": op_full, "erased": op_erased, "queried": op_queried, "verify": op_verify}


# --- correctness --------------------------------------------------------------


def nu_of_table(p: np.ndarray, n_group: int) -> float:
    """nu(u, I | S) of a probability table with axes (u, I..., S...),
    written out from its definition and independent of the program: the
    sum over s of p(s) times the mean over (x_u, x_I) of
    |p(x_u, x_I | s) - p(x_u | s) p(x_I | s)|."""
    group_axes = tuple(range(1, 1 + n_group))
    p_s = p.sum(axis=(0,) + group_axes, keepdims=True)
    p_us = p.sum(axis=group_axes, keepdims=True)
    p_is = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(p / p_s - (p_us / p_s) * (p_is / p_s))
    weighted = np.where(p_s > 0, p_s * dev, 0.0)
    return float(weighted.sum()) / math.prod(p.shape[: 1 + n_group])


def nu_of_counts(counts: np.ndarray, u: int, group: tuple, cond: tuple) -> float:
    """nu(u, I | S) from a table of counts or probabilities with one axis
    per node."""
    pool = [u, *group, *cond]
    order = sorted(pool)
    table = counts.sum(axis=tuple(v for v in range(counts.ndim) if v not in pool))
    return nu_of_table(table.transpose([order.index(v) for v in pool]) / table.sum(),
                       len(group))


def nu_of_columns(columns: np.ndarray, arities: tuple, floor: int, u: int,
                  group: tuple, cond: tuple) -> float:
    """nu(u, I | S) over the sample rows that reveal every node of (u, I, S)
    (erased cells hold a negative marker); 0 when fewer than ``floor``
    >= 1 rows do, as erased mode's coverage floor has it.  ``columns``
    holds one row per node."""
    pool = [u, *group, *cond]
    keep = np.logical_and.reduce([columns[v] >= 0 for v in pool])
    usable = int(keep.sum())
    if usable < floor:
        return 0.0
    code = np.zeros(usable, dtype=np.int64)
    for v in pool:
        code = code * arities[v] + columns[v][keep]
    shape = tuple(arities[v] for v in pool)
    counts = np.bincount(code, minlength=math.prod(shape))
    return nu_of_table(counts.reshape(shape) / usable, len(group))


def reference_nu(source: tuple):
    """nu(u, group, cond) computed by this file from the learner's input."""
    kind, *args = source
    if kind == "joint":
        return partial(nu_of_counts, args[0])
    data, arities = args
    if kind == "erased":  # the usable rows differ from call to call
        return partial(nu_of_columns, np.ascontiguousarray(data.T), arities, COVERAGE_FLOOR)
    counts = np.bincount(np.ravel_multi_index(tuple(data.T), arities),
                         minlength=math.prod(arities))
    return partial(nu_of_counts, counts.reshape(arities))


def _fresh_sets(n: int, used: set, max_size: int) -> list[tuple]:
    pool = [v for v in range(n) if v not in used]
    return [c for size in range(1, max_size + 1) for c in combinations(pool, size)]


def replay(nu, u: int, n: int, config, adds: list[tuple], grown: list, pruned: list) -> list[str]:
    """Re-make node u's decisions with the reference nu: each add is a
    maximiser over the fresh candidates, growth stops only when none
    clears tau (or the budget ran out), and exactly the pruned nodes fall
    below tau.  Comparisons allow NU_TOL, so that a float-rounding tie
    between the program's nu and this one cannot fail an op."""
    out, sofar, tau = [], [], config.tau
    rounds = adds + ([None] if len(grown) <= config.budget else [])
    for chosen in rounds:
        values = {c: nu(u, c, tuple(sofar)) for c in _fresh_sets(n, {u, *sofar}, config.r - 1)}
        best = max(values.values(), default=-math.inf)
        if chosen is None and best > tau + NU_TOL:
            out.append(f"node {u}: growth stopped at {sofar} with a candidate at {best:.6g}")
        elif chosen is not None and values.get(chosen, -math.inf) < best - NU_TOL:
            out.append(f"node {u}: add {chosen} at {values.get(chosen)} is not a maximiser "
                       f"({best:.6g})")
        if chosen is not None:
            sofar = sorted({*sofar, *chosen})
    for i in grown:
        value = nu(u, (i,), tuple(v for v in grown if v != i))
        if (i in pruned) != (value < tau) and abs(value - tau) > NU_TOL:
            out.append(f"node {u}: {i} at {value:.6g} is {'' if i in pruned else 'not '}pruned")
    return out


def consistency(case: Case, outcome: Outcome, replayed: set) -> list[str]:
    """How an op's output departs from what the learner's algorithm makes
    of its input; empty when it agrees.  Holds on every seed.

    Per node: adds come first, each a fresh set of at most r-1 nodes
    whose value clears tau; then prunes, in grown order, each below tau;
    the neighbours are the grown nodes left; the evaluations are one
    sweep over the fresh candidates per growth round (plus the round
    that found nothing, unless the budget ran out) and one prune call
    per grown node.  Every trace value is recomputed by reference_nu, and
    the nodes in ``replayed`` have every decision re-made with it
    (replay).  The edges are the mutually included neighbours.  Queried
    mode keeps no input to recompute from: its values must lie in [0, 1]
    and its query accounting must match the evaluations.
    """
    result, config = outcome.result, case.config
    n, tau, r = case.model.n, config.tau, config.r
    nu = None if outcome.source is None else reference_nu(outcome.source)
    out, neighbors, total = [], {}, 0
    for u in range(n):
        res = result.per_node[u]
        trace = [(kind, tuple(int(v) for v in nodes), value) for kind, nodes, value in res.trace]
        adds = [nodes for kind, nodes, _ in trace if kind == "add"]
        if any(kind != "prune" for kind, _, _ in trace[len(adds):]):
            out.append(f"node {u}: an add follows a prune in the trace")
            continue
        grown, evals, steps = [], 0, []
        for _, nodes, value in trace[: len(adds)]:
            evals += len(_fresh_sets(n, {u, *grown}, r - 1))
            if not (0 < len(nodes) < r and value > tau and not set(nodes) & {u, *grown}):
                out.append(f"node {u}: add {nodes} at {value:.6g} is not a fresh set above tau")
            steps.append((nodes, tuple(grown), value))
            grown = sorted({*grown, *nodes})
        if len(grown) <= config.budget:
            evals += len(_fresh_sets(n, {u, *grown}, r - 1))
        evals += len(grown)
        pruned = [nodes[0] for _, nodes, _ in trace[len(adds):]]
        if pruned != [v for v in grown if v in pruned]:
            out.append(f"node {u}: prunes {pruned} are not grown nodes in grown order")
        for (_, _, value), i in zip(trace[len(adds):], pruned):
            if not value < tau:
                out.append(f"node {u}: prune of {i} at {value:.6g} is not below tau")
            steps.append(((i,), tuple(v for v in grown if v != i), value))
        if tuple(int(v) for v in res.neighbors) != tuple(v for v in grown if v not in pruned):
            out.append(f"node {u}: neighbours {res.neighbors} do not follow from the trace")
        if res.evaluations != evals:
            out.append(f"node {u}: {res.evaluations} evaluations, the trace implies {evals}")
        for nodes, cond, value in steps:
            ok = 0.0 <= value <= 1.0 if nu is None else abs(nu(u, nodes, cond) - value) <= NU_TOL
            if not ok:
                out.append(f"node {u}: nu({nodes} | {cond}) = {value!r} is not recomputed")
        if nu is not None and u in replayed:
            out += replay(nu, u, n, config, adds, grown, pruned)
        total += res.evaluations
        neighbors[u] = {int(v) for v in res.neighbors}
    edges = {(u, v) for u in neighbors for v in neighbors[u]
             if u < v and u in neighbors.get(v, ())}
    if {tuple(sorted(int(v) for v in e)) for e in result.edges} != edges:
        out.append("edges are not the mutually included neighbours")
    acc = result.accounting
    if acc.get("evaluations") != total:
        out.append(f"accounting counts {acc.get('evaluations')} evaluations, nodes {total}")
    if acc.get("mode") == "queried" and not (
        acc["queries_issued"] == total and acc["samples_consumed"] == total * M_BATCH
        and acc["max_query_size"] <= CAPACITY
    ):
        out.append(f"query accounting {acc} does not match {total} evaluations")
    if outcome.round_trip is not None:
        written, read = outcome.round_trip
        if tuple(written.arities) != tuple(read.arities) or not np.array_equal(
            written.data, read.data
        ):
            out.append("the text round trip changed the samples")
    return out


def summarize(workload: str, outcome: Outcome) -> dict:
    """The parts of an op's output the reference pins down."""
    result = outcome.result
    out = {
        "edges": sorted(sorted(int(v) for v in e) for e in result.edges),
        "nodes": [
            {
                "trace": [[kind, [int(v) for v in nodes], float(value)]
                          for kind, nodes, value in result.per_node[u].trace],
                "evaluations": result.per_node[u].evaluations,
            }
            for u in sorted(result.per_node)
        ],
        "accounting": {k: result.accounting[k] for k in ACCOUNTING_KEYS[workload]},
    }
    if outcome.records is not None:
        out["records"] = {  # one "1" (ok) or "0" per record
            kind: "".join("1" if rec["ok"] else "0" for rec in recs)
            for kind, recs in outcome.records.items()
        }
    return out


def mismatches(got: dict, want: dict) -> list[str]:
    """How an op's summary departs from its reference; empty when it matches."""
    out = []
    if got["edges"] != want["edges"]:
        out.append(f"edges {got['edges']} != reference {want['edges']}")
    if len(got["nodes"]) != len(want["nodes"]):
        out.append("node count differs from reference")
    for u, (g, w) in enumerate(zip(got["nodes"], want["nodes"])):
        if g["evaluations"] != w["evaluations"]:
            out.append(f"node {u}: {g['evaluations']} evaluations != {w['evaluations']}")
        steps_g = [step[:2] for step in g["trace"]]
        steps_w = [step[:2] for step in w["trace"]]
        if steps_g != steps_w:
            out.append(f"node {u}: trace steps {steps_g} != {steps_w}")
        elif any(abs(a[2] - b[2]) > NU_TOL for a, b in zip(g["trace"], w["trace"])):
            out.append(f"node {u}: trace nu_hat values differ by more than {NU_TOL:g}")
    if got["accounting"] != want["accounting"]:
        out.append(f"accounting {got['accounting']} != {want['accounting']}")
    if got.get("records") != want.get("records"):
        out.append("verification record counts or ok flags differ from reference")
    return out


def records_ok(outcome: Outcome) -> bool:
    return outcome.records is None or all(
        rec["ok"] for recs in outcome.records.values() for rec in recs
    )


def check(workload: str, case: Case, outcome: Outcome, reference: list | None,
          op: int = 0) -> list[str]:
    """Everything wrong with op number ``op``'s output; empty when it is correct."""
    n = case.model.n
    k = REPLAYED_NODES.get(workload, n)
    problems = consistency(case, outcome, {(op * k + j) % n for j in range(k)})
    if not records_ok(outcome):
        problems.append("a verification record is not ok")
    if reference is not None:
        problems += mismatches(summarize(workload, outcome), reference[case.index])
    return problems


def load_reference(workload: str) -> list:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["trials"]


# --- per-layer metrics from the spans ----------------------------------------


def _phase_split(children: list[list], grown: dict[int, int]) -> dict:
    """Growth and prune evaluations of one learn call, told apart from
    outside: with prune_sets off, the last |grown_u| estimator calls for
    node u are its prune calls.  Phase time runs from the first call of
    the phase to the end of its last one."""
    by_node: dict[int, list] = {}
    for span in children:
        by_node.setdefault(span[5]["u"], []).append(span)
    out = {"growth": 0, "prune": 0, "growth_s": 0.0, "prune_s": 0.0}
    for u, spans in by_node.items():
        k = grown.get(u, 0)
        growth, prune = spans[: len(spans) - k], spans[len(spans) - k:]
        for phase, part in (("growth", growth), ("prune", prune)):
            if part:
                out[phase] += len(part)
                out[phase + "_s"] += part[-1][2] - part[0][1]
    return out


def layer_metrics(tracer: Tracer, ops: list[dict], setups: list[Setup]) -> tuple[dict, dict]:
    """Per-layer metrics and per-op counters from the recorded spans.

    ``ops`` holds, per completed op, its id, trial index and the number
    of nodes each node's growth added."""
    spans = tracer.spans
    seconds, calls, self_time = durations_by_op(spans)
    by_op: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_op.setdefault(span[4], []).append(i)
    times = {name: [] for name in OP_TIMES}
    counters_by_op = {}
    shares = []
    for op in ops:
        idx = by_op.get(op["op"], [])
        sec, cnt = seconds.get(op["op"], {}), calls.get(op["op"], {})
        learn = next(i for i in idx if spans[i][0].startswith("learner.learn_graph_"))
        children = [spans[i] for i in idx if spans[i][3] == learn]
        phases = _phase_split(children, op["grown"])
        sampled = [spans[i][5] for i in idx
                   if spans[i][0] in ("estimation.nu_hat", "estimation.nu_hat_erased")]
        erased = [spans[i][5] for i in idx if spans[i][0] == "estimation.nu_hat_erased"]
        cells = sum(a["rows"] * a["columns"] for a in sampled)
        offered = sum(a["rows"] for a in erased)
        counters_by_op[op["op"]] = {
            "io.text_bytes": sum(spans[i][5] for i in idx if spans[i][0] == "io.samples_to_text"),
            "estimation.nu_hat.calls": cnt.get("estimation.nu_hat", 0),
            "estimation.nu_hat_erased.calls": cnt.get("estimation.nu_hat_erased", 0),
            "estimation.erased.usable_rows_ratio":
                sum(a["usable"] for a in erased) / offered if offered else 0.0,
            "estimation.nu_hat_queried.calls": cnt.get("estimation.nu_hat_queried", 0),
            "estimation.oracle_rows":
                sum(spans[i][5] for i in idx if spans[i][0] == "estimation.oracle_query"),
            "estimation.cells_read": cells,
            "estimation.bytes_read_computed":
                sum(a["rows"] * a["columns"] * a["itemsize"] for a in sampled),
            "learner.evals.growth": phases["growth"],
            "learner.evals.prune": phases["prune"],
            "learner.coverage_drops": sum(a["usable"] < COVERAGE_FLOOR for a in erased),
            "inference.exact_nu.calls": cnt.get("inference.exact_nu", 0),
            "game.records": sum(spans[i][5] for i in idx if spans[i][0].startswith("game.verify_")),
        }
        derived = {
            "learner.growth.s": phases["growth_s"],
            "learner.prune.s": phases["prune_s"],
            "learner.self.s": self_time[learn],
            "game.self.s": sum(self_time[i] for i in idx if spans[i][0].startswith("game.verify_")),
        }
        for name in OP_TIMES:  # a span's metric name is its span name plus ".s"
            times[name].append(derived[name] if name in derived else sec.get(name[:-2], 0.0))
        trial = sec["op"]
        learn_s = spans[learn][2] - spans[learn][1]
        layer_self: dict[str, float] = {}
        for i in idx:
            layer = spans[i][0].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_time[i]
        shares.append({"trial_s": trial, "learn_s": learn_s,
                       "nu_in_learn": sum(s[2] - s[1] for s in children) / learn_s,
                       **{f"self.{k}": v / trial for k, v in layer_self.items()},
                       **{f"time.{k}": v for k, v in sec.items()}})
    metrics = {name: median(values) for name, values in times.items()}
    first: dict[int, dict] = {}
    for op in ops:
        first.setdefault(op["trial"], counters_by_op[op["op"]])
    for name in COUNTERS:
        metrics[name] = median([c[name] for c in first.values()])
    metrics["inference.exact_joint.s"] = median([t for s in setups for t in s.joint_s])
    metrics["generate.generate_model.s"] = median([t for s in setups for t in s.generate_s])
    return metrics, {"counters_by_op": counters_by_op, "shares": shares}


def share_report(workload: str, shares: list[dict]) -> dict:
    """Median share of each layer's self time in trial_s, and the share
    the workload's predicted dominant layer takes, next to the prediction."""
    layers = sorted({k for s in shares for k in s if k.startswith("self.")})
    by_layer = {k[5:]: statistics.median(s.get(k, 0.0) for s in shares) for k in layers}
    names, base, predicted = PREDICTED_SHARES[workload]
    denominator = "trial_s" if base == "trial" else "learn_s"
    measured = statistics.median(
        sum(s.get(f"time.{n}", 0.0) for n in names) / s[denominator] for s in shares
    )
    return {
        "self_share_of_trial_s": by_layer,
        "dominant_layer": max(by_layer, key=by_layer.get),
        "prediction": {"spans": list(names), "of": denominator, "predicted": predicted,
                       "measured": measured},
        "nu_share_of_learn_s": statistics.median(s["nu_in_learn"] for s in shares),
        "trial_s.p50": statistics.median(s["trial_s"] for s in shares),
    }


# --- the run ------------------------------------------------------------------


def median(values: list[float]) -> float:
    """Median, or 0 when no op got that far (every op raised)."""
    return statistics.median(values) if values else 0.0


def tail(workload: str, values: list[float]) -> float:
    """p90 on a workload in TAIL_WORKLOADS, else p50."""
    if workload in TAIL_WORKLOADS and len(values) >= 2:
        return statistics.quantiles(values, n=10)[-1]
    return median(values)


def run(workload: str, seed: int, seconds: float, trace: bool,
        trials: int | None = None, reference: list | None = None) -> dict:
    """Run one workload and return the result object the CLI prints.

    ``reference`` overrides the recorded one (the smoke test plants
    mismatches through it); by default it is used at DEFAULT_SEED only.
    """
    trials = trials or TRIALS[workload]
    if reference is None and seed == DEFAULT_SEED:
        reference = load_reference(workload)
    setups = [setup(seed, trials)]
    ml, mlio, cases = setups[0].ml, setups[0].mlio, setups[0].cases
    tracer = Tracer() if trace else None
    call = program_calls(ml, mlio, tracer)
    op = OPS[workload] if tracer is None else tracer.wrap(OPS[workload], "op")
    min_ops = max(1, trials if trace else 1, TAIL_MIN_OPS if workload in TAIL_WORKLOADS else 1)
    setup_every = seconds / SETUP_REPEATS
    trial_s, learn_s, completed = [], [], []
    attempted = failed = matched = 0
    paused = 0.0  # time spent in the set-up repeats inside the loop
    checking = 0.0  # time spent checking outputs: within --seconds, but not loop time
    try:
        start = clock()
        while attempted < min_ops or clock() - start - paused < seconds:
            if len(setups) < SETUP_REPEATS and clock() - start - paused >= len(setups) * setup_every:
                t0 = clock()
                setups.append(_timings_only(setup(seed, trials)))
                paused += clock() - t0
            case = cases[attempted % trials]
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            t0 = clock()
            try:
                outcome = op(call, case)
            except Exception:  # a failing op is counted, and the run goes on
                trial_s.append(clock() - t0)
                failed += 1
                if failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            trial_s.append(clock() - t0)
            learn_s.append(outcome.learn_s)
            t0 = clock()
            problems = check(workload, case, outcome, reference, attempted - 1)
            checking += clock() - t0
            matched += outcome.score.exact_match and records_ok(outcome)
            if problems:
                failed += 1
                print(f"op {attempted - 1} (trial {case.index}): " + "; ".join(problems),
                      file=sys.stderr)
            completed.append({
                "op": attempted - 1,
                "trial": case.index,
                "grown": {u: sum(len(nodes) for kind, nodes, _ in res.trace if kind == "add")
                          for u, res in outcome.result.per_node.items()},
            })
            del outcome  # so that peak_rss_mb never holds two ops' inputs
        loop_s = clock() - start - paused - checking
    finally:
        if tracer is not None:
            tracer.restore()
    while len(setups) < SETUP_REPEATS:  # the loop ended before all were due
        setups.append(_timings_only(setup(seed, trials)))
    if tracer is None:
        values = {
            "setup_s": statistics.median(s.seconds for s in setups),
            "trial_s.p50": statistics.median(trial_s),
            "trial_s.p90": tail(workload, trial_s),
            "learn_s.p50": median(learn_s),
            "learn_s.p90": tail(workload, learn_s),
            "trials_per_s": attempted / loop_s,
            "exact_match_rate": matched / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        info = {}
    else:
        values, detail = layer_metrics(tracer, completed, setups)
        failed += _counter_repeats(completed, detail["counters_by_op"])
        units = PER_LAYER_UNITS
        info = share_report(workload, detail["shares"]) if detail["shares"] else {}
        info["spans"] = len(tracer.spans)
        stem = f"{workload}-seed{seed}"
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl.gz")
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "ops": attempted, **info,
             "metrics": values}, indent=1))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "info": info,
    }


def _timings_only(repeat: Setup) -> Setup:
    """A set-up repeat, with the modules and models it built dropped."""
    return Setup(None, None, [], repeat.seconds, repeat.generate_s, repeat.joint_s)


def _counter_repeats(ops: list[dict], counters_by_op: dict) -> int:
    """Ops whose counters differ from the first op on the same trial."""
    first, bad = {}, 0
    for op in ops:
        counters = counters_by_op[op["op"]]
        if first.setdefault(op["trial"], counters) != counters:
            bad += 1
            print(f"op {op['op']}: counters differ from the first op on trial {op['trial']}",
                  file=sys.stderr)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "mrflearn" / "__init__.py").is_file():
        print(f"mrflearn sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = result["attempted"], result["failed"]
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} fraction ({failed}/{attempted} ops)")
    for key, value in result.pop("info").items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
