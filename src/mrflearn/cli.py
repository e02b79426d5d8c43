"""Command-line harness.

Every command is a pure function of its inputs and seed: re-running
reproduces outputs byte for byte apart from timing fields.  The exit
code is 0 iff all checks the command ran have passed.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

from . import io
from .estimation import QueryOracle
from .experiment import run_experiment, score_edges, theoretical_sample_report
from .game import (
    expected_payoff_mc,
    verify_conditioned_floor,
    verify_mi_chain,
    verify_payoff_bounds,
)
from .generate import FeasibilityError, GeneratorSpec, generate_model
from .inference import CapacityError, exact_joint
from .learner import LearnConfig, learn_graph_erased, learn_graph_full, learn_graph_queried
from .model import MarkovRandomField, clique_graph, compute_gamma_delta
from .sampling import ERASED, SampleSet, erase as erase_cells
from .sampling import gibbs_sample, sample_exact


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@contextlib.contextmanager
def _spec_errors():
    """Report a spec the generator cannot place, or a model too large
    for exact enumeration, as a usage error."""
    try:
        yield
    except (FeasibilityError, CapacityError) as exc:
        raise click.UsageError(str(exc)) from exc


def _learn_config(**kw) -> LearnConfig:
    """The learner's configuration; an out-of-range field is a usage error."""
    try:
        return LearnConfig(**kw)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _load_rows(path: str) -> SampleSet:
    """Load a sample file, rejecting a malformed one and one with no
    rows: nothing can be erased or learned from either."""
    try:
        samples = io.load_samples(path)
    except ValueError as exc:
        raise click.UsageError(f"sample file {path}: {exc}") from exc
    if samples.m == 0:
        raise click.UsageError(f"sample file {path} holds no rows")
    return samples


def _load_model(path: str) -> MarkovRandomField:
    """Load a model file, rejecting a malformed one."""
    try:
        return io.load_model(path)
    except ValueError as exc:
        raise click.UsageError(f"model file {path}: {exc}") from exc


@click.group()
def main():
    """Learn the hypergraph structure of discrete Markov random fields
    and verify the detection bounds behind the learner."""


@main.command("generate-model")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, default=2, show_default=True)
@click.option("--max-degree", "-D", "max_degree", type=int, default=3, show_default=True)
@click.option("--max-arity", "-K", "max_arity", type=int, default=2, show_default=True)
@click.option("--alpha", type=float, default=0.2, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--density", type=float, default=0.8, show_default=True)
@click.option("--no-unaries", is_flag=True, help="skip unary potentials")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_generate_model(n, r, max_degree, max_arity, alpha, beta, density, no_unaries, seed, out):
    """Generate a random non-degenerate model and write it as JSON."""
    spec = GeneratorSpec(
        n=n, r=r, max_degree=max_degree, max_arity=max_arity, alpha=alpha,
        beta=beta, hyperedge_density=density, with_unaries=not no_unaries, seed=seed,
    )
    with _spec_errors():
        model = generate_model(spec)
    io.save_model(model, out)
    consts = compute_gamma_delta(model)
    click.echo(json.dumps({
        "out": out,
        "hyperedges": [list(h) for h in model.hyperedges()],
        "gamma": consts.gamma,
        "delta": consts.delta,
        "max_degree": consts.max_degree,
    }, indent=2))


@main.command("sample")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--sampler", type=click.Choice(["exact", "gibbs"]), default="exact", show_default=True)
@click.option("--burn-in", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--thinning", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_sample(model_path, m, seed, sampler, burn_in, thinning, out):
    """Draw samples from a model file."""
    model = _load_model(model_path)
    if sampler == "exact":
        with _spec_errors():
            joint = exact_joint(model)
        samples = sample_exact(joint, m, seed)
    else:
        samples = gibbs_sample(model, m, burn_in, thinning, seed)
    io.save_samples(samples, out)
    click.echo(json.dumps({"out": out, "m": samples.m, "n": samples.n}))


@main.command("erase")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@click.option("--reveal-prob", type=click.FloatRange(0, 1), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_erase(samples_path, reveal_prob, seed, out):
    """Pass samples through the erasure channel."""
    samples = _load_rows(samples_path)
    erased = erase_cells(samples, reveal_prob, seed)
    io.save_samples(erased, out)
    observed = float((erased.data >= 0).mean())
    click.echo(json.dumps({"out": out, "observed_fraction": observed}))


@main.command("learn")
@click.option("--samples", "samples_path", type=click.Path(exists=True))
@click.option("--model", "model_path", type=click.Path(exists=True),
              help="ground truth for scoring; required in queried mode")
@click.option("--mode", type=click.Choice(["full", "erased", "queried"]), default="full", show_default=True)
@click.option("--tau", type=float, required=True)
@click.option("--budget", "-L", "budget", type=float, required=True)
@click.option("--r", type=int, default=2, show_default=True,
              help="interaction order when no --model provides it")
@click.option("--alpha", type=float, default=0.2, show_default=True)
@click.option("--m", type=int, help="use only the first m sample rows")
@click.option("--m-batch", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--prune-sets", is_flag=True)
@click.option("--coverage-floor", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path())
def cmd_learn(samples_path, model_path, mode, tau, budget, r, alpha, m, m_batch,
              seed, prune_sets, coverage_floor, out):
    """Run the structure learner and emit per-node records plus a summary."""
    truth_model = _load_model(model_path) if model_path else None
    config = _learn_config(
        r=truth_model.r if truth_model is not None else r, tau=tau, budget=budget,
        prune_sets=prune_sets, coverage_floor=coverage_floor,
    )
    if mode == "queried":
        if truth_model is None:
            raise click.UsageError("queried mode samples fresh data and needs --model")
        with _spec_errors():
            joint = exact_joint(truth_model)
        oracle = QueryOracle.from_joint(joint, config.query_capacity, seed)
        result = learn_graph_queried(
            oracle, truth_model.n, truth_model.arities, config, m_batch
        )
    else:
        if samples_path is None:
            raise click.UsageError(f"{mode} mode needs --samples")
        samples = _load_rows(samples_path)
        if truth_model is not None and samples.arities != truth_model.arities:
            raise click.UsageError(
                f"sample file {samples_path} has arities {list(samples.arities)}, "
                f"model {model_path} has {list(truth_model.arities)}"
            )
        if m is not None:
            if not 1 <= m <= samples.m:
                raise click.UsageError(f"--m must lie in 1..{samples.m}")
            samples = SampleSet(samples.data[:m], samples.arities, samples.seed)
        if mode == "full":
            if (samples.data == ERASED).any():
                raise click.UsageError(
                    f"sample file {samples_path} has erased cells; use --mode erased"
                )
            result = learn_graph_full(samples, config)
        else:
            result = learn_graph_erased(samples, config)
    payload = result.to_json_dict()
    payload["effective"] = {"tau": config.tau, "budget": config.budget}
    if truth_model is None:
        payload["theoretical_m"] = {"error": "theoretical thresholds undefined: no --model"}
    else:
        payload["theoretical_m"] = theoretical_sample_report(truth_model, alpha)
        truth = set(clique_graph(truth_model).edges)
        s = score_edges(truth, result.edges)
        payload["summary"] = {
            "edges": sorted(list(e) for e in result.edges),
            "precision": s.precision,
            "recall": s.recall,
            "exact_match": s.exact_match,
        }
    _emit(payload, out)


@main.command("verify-bounds")
@click.option("--models", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--n", type=int, default=5, show_default=True)
@click.option("--r", type=int, default=2, show_default=True)
@click.option("--max-degree", "-D", "max_degree", type=int, default=3, show_default=True)
@click.option("--max-arity", "-K", "max_arity", type=int, default=2, show_default=True)
@click.option("--alpha", type=float, default=0.3, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--max-cond-size", type=click.IntRange(min=0), default=2, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path())
def cmd_verify_bounds(models, n, r, max_degree, max_arity, alpha, beta, max_cond_size, seed, out):
    """Exhaustively verify the payoff and detection-floor guarantees on
    generated models; exits nonzero on any violation."""
    all_ok = True
    summaries = []
    for i in range(models):
        spec = GeneratorSpec(
            n=n, r=r, max_degree=max_degree, max_arity=max_arity,
            alpha=alpha, beta=beta, seed=seed + i,
        )
        with _spec_errors():
            model = generate_model(spec)
            joint = exact_joint(model)
        payoff = verify_payoff_bounds(model, alpha, joint)
        chain = verify_mi_chain(model, alpha, joint)
        floor = verify_conditioned_floor(model, alpha, max_cond_size, joint)
        ok = all(rec["ok"] for records in (payoff, chain, floor) for rec in records)
        all_ok &= ok
        summaries.append({
            "seed": seed + i,
            "payoff_checks": len(payoff),
            "chain_checks": len(chain),
            "floor_checks": len(floor),
            "ok": ok,
        })
    _emit({"models": summaries, "all_ok": all_ok}, out)
    if not all_ok:
        sys.exit(1)


@main.command("play-game")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--node", type=int, default=None, help="single node; default all non-isolated")
@click.option("--rounds", type=click.IntRange(min=2), default=100000, show_default=True,
              help="at least 2, so the Monte-Carlo standard error is defined")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--alpha", type=float, default=0.2, show_default=True)
@click.option("--out", type=click.Path())
def cmd_play_game(model_path, node, rounds, seed, alpha, out):
    """Exact and Monte-Carlo expected payoff per node, against the
    theoretical bound per qualifying node (zero elsewhere); exits
    nonzero if any exact value misses its bound."""
    if not 0 < alpha < float("inf"):
        raise click.UsageError(f"--alpha {alpha} must be positive and finite")
    model = _load_model(model_path)
    with _spec_errors():
        joint = exact_joint(model)
    checks = {rec["node"]: rec for rec in verify_payoff_bounds(model, alpha, joint)}
    if not checks:
        raise click.UsageError(f"model file {model_path} has no non-isolated node; "
                               "there is no game to play")
    if node is not None and node not in checks:
        where = "isolated" if 0 <= node < model.n else f"outside 0..{model.n - 1}"
        raise click.UsageError(f"--node {node} is {where}; there is no game to play")
    records = []
    all_ok = True
    for u in [node] if node is not None else sorted(checks):
        check = checks[u]
        mc_mean, mc_se = expected_payoff_mc(model, u, rounds, seed + u, joint)
        ok = check["ok"] and abs(mc_mean - check["exact"]) <= 3.0 * mc_se + 1e-9
        all_ok &= ok
        records.append({
            "u": u,
            "exact_payoff": check["exact"],
            "mc_mean": mc_mean,
            "mc_se": mc_se,
            "theoretical_bound": check["bound"],
            "pass": ok,
        })
    _emit({"rounds": rounds, "records": records, "all_ok": all_ok}, out)
    if not all_ok:
        sys.exit(1)


@main.command("run-experiment")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, default=2, show_default=True)
@click.option("--max-degree", "-D", "max_degree", type=int, default=3, show_default=True)
@click.option("--max-arity", "-K", "max_arity", type=int, default=2, show_default=True)
@click.option("--alpha", type=float, default=0.4, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--density", type=float, default=0.8, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--mode", type=click.Choice(["full", "erased", "queried"]), default="full", show_default=True)
@click.option("--m", type=click.IntRange(min=1), default=50000, show_default=True)
@click.option("--tau", type=float, required=True)
@click.option("--budget", "-L", "budget", type=float, required=True)
@click.option("--reveal-prob", type=click.FloatRange(0, 1), default=0.9, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path())
def cmd_run_experiment(n, r, max_degree, max_arity, alpha, beta, density, trials,
                       mode, m, tau, budget, reveal_prob, seed, out):
    """Full generate/sample/learn/score sweep with aggregate metrics."""
    spec = GeneratorSpec(
        n=n, r=r, max_degree=max_degree, max_arity=max_arity,
        alpha=alpha, beta=beta, hyperedge_density=density, seed=seed,
    )
    config = _learn_config(r=r, tau=tau, budget=budget)
    with _spec_errors():
        report = run_experiment(spec, config, trials, mode, m, seed, reveal_prob)
    _emit(report.to_json_dict(), out)


if __name__ == "__main__":
    main()
