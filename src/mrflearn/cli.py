"""Command-line harness.

Every command is a pure function of its inputs and seed: re-running
reproduces outputs byte for byte apart from timing fields.  The exit
code is 0 iff all checks the command ran have passed.
"""

from __future__ import annotations

import json
import sys

import click

from . import io
from .estimation import QueryOracle
from .experiment import run_experiment, score_edges, theoretical_sample_report
from .game import (
    expected_payoff_exact,
    expected_payoff_mc,
    payoff_lower_bound,
    verify_conditioned_floor,
    verify_mi_chain,
    verify_payoff_bounds,
)
from .generate import GeneratorSpec, generate_model
from .inference import exact_joint
from .learner import LearnConfig, learn_graph_erased, learn_graph_full, learn_graph_queried
from .model import clique_graph, compute_gamma_delta
from .sampling import SampleSet, erase as erase_cells
from .sampling import gibbs_sample, sample_exact


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _load_rows(path: str) -> SampleSet:
    """Load a sample file, rejecting one with no rows: nothing can be
    erased or learned from it."""
    samples = io.load_samples(path)
    if samples.m == 0:
        raise click.UsageError(f"sample file {path} holds no rows")
    return samples


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
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_generate_model(n, r, max_degree, max_arity, alpha, beta, density, no_unaries, seed, out):
    """Generate a random non-degenerate model and write it as JSON."""
    spec = GeneratorSpec(
        n=n, r=r, max_degree=max_degree, max_arity=max_arity, alpha=alpha,
        beta=beta, hyperedge_density=density, with_unaries=not no_unaries, seed=seed,
    )
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
@click.option("--m", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--sampler", type=click.Choice(["exact", "gibbs"]), default="exact", show_default=True)
@click.option("--burn-in", type=int, default=100, show_default=True)
@click.option("--thinning", type=int, default=5, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_sample(model_path, m, seed, sampler, burn_in, thinning, out):
    """Draw samples from a model file."""
    model = io.load_model(model_path)
    if sampler == "exact":
        samples = sample_exact(exact_joint(model), m, seed)
    else:
        samples = gibbs_sample(model, m, burn_in, thinning, seed)
    io.save_samples(samples, out)
    click.echo(json.dumps({"out": out, "m": samples.m, "n": samples.n}))


@main.command("erase")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@click.option("--reveal-prob", type=float, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
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
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--m", type=int, help="use only the first m sample rows")
@click.option("--m-batch", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--prune-sets", is_flag=True)
@click.option("--coverage-floor", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path())
def cmd_learn(samples_path, model_path, mode, tau, budget, r, alpha, beta, m, m_batch,
              seed, prune_sets, coverage_floor, out):
    """Run the structure learner and emit per-node records plus a summary."""
    truth_model = io.load_model(model_path) if model_path else None
    config = None
    if truth_model is not None:
        config = LearnConfig.from_model(
            truth_model, alpha, beta, override_tau=tau, override_L=budget,
            prune_sets=prune_sets, coverage_floor=coverage_floor,
        )
    if mode == "queried":
        if truth_model is None:
            raise click.UsageError("queried mode samples fresh data and needs --model")
        oracle = QueryOracle.from_joint(exact_joint(truth_model), config.query_capacity, seed)
        result = learn_graph_queried(
            oracle, truth_model.n, truth_model.arities, config, m_batch
        )
        n_nodes = truth_model.n
    else:
        if samples_path is None:
            raise click.UsageError(f"{mode} mode needs --samples")
        samples = _load_rows(samples_path)
        if m is not None:
            if not 1 <= m <= samples.m:
                raise click.UsageError(f"--m must lie in 1..{samples.m}")
            samples = SampleSet(samples.data[:m], samples.arities, samples.seed)
        n_nodes = samples.n
        if config is None:
            config = LearnConfig(
                r=r, max_degree=max(n_nodes - 1, 1), max_arity=max(samples.arities),
                alpha=alpha, beta=beta, gamma=0.0, delta=1.0 / max(samples.arities),
                override_tau=tau, override_L=budget,
                prune_sets=prune_sets, coverage_floor=coverage_floor,
            )
        if mode == "full":
            result = learn_graph_full(samples, config)
        else:
            result = learn_graph_erased(samples, config)
    payload = result.to_json_dict()
    payload["effective"] = {"tau": config.tau, "budget": config.budget}
    payload["theoretical_m"] = theoretical_sample_report(config, n_nodes)
    if truth_model is not None:
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
@click.option("--models", type=int, default=10, show_default=True)
@click.option("--n", type=int, default=5, show_default=True)
@click.option("--r", type=int, default=2, show_default=True)
@click.option("--max-degree", "-D", "max_degree", type=int, default=3, show_default=True)
@click.option("--max-arity", "-K", "max_arity", type=int, default=2, show_default=True)
@click.option("--alpha", type=float, default=0.3, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--max-cond-size", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
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
        model = generate_model(spec)
        joint = exact_joint(model)
        payoff = verify_payoff_bounds(model, alpha, joint)
        chain = verify_mi_chain(model, alpha, joint)
        floor = verify_conditioned_floor(model, alpha, max_cond_size, joint)
        ok = (
            all(rec["ok"] for rec in payoff)
            and all(rec["ok"] for rec in chain)
            and all(rec["ok"] for rec in floor)
        )
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
@click.option("--rounds", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--alpha", type=float, default=0.2, show_default=True)
@click.option("--out", type=click.Path())
def cmd_play_game(model_path, node, rounds, seed, alpha, out):
    """Exact and Monte-Carlo expected payoff per node, against the
    theoretical floor; exits nonzero if any exact value misses it."""
    model = io.load_model(model_path)
    joint = exact_joint(model)
    consts = compute_gamma_delta(model)
    graph = clique_graph(model)
    bound = payoff_lower_bound(alpha, consts.delta, model.r, consts.gamma)
    nodes = [node] if node is not None else [
        u for u in range(model.n) if graph.degrees[u] > 0
    ]
    records = []
    all_ok = True
    for u in nodes:
        exact = expected_payoff_exact(model, u, joint)
        mc_mean, mc_se = expected_payoff_mc(model, u, rounds, seed + u, joint)
        ok = exact >= bound - 1e-12 and abs(mc_mean - exact) <= 3.0 * mc_se + 1e-9
        all_ok &= ok
        records.append({
            "u": u,
            "exact_payoff": exact,
            "mc_mean": mc_mean,
            "mc_se": mc_se,
            "theoretical_bound": bound,
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
@click.option("--trials", type=int, default=5, show_default=True)
@click.option("--mode", type=click.Choice(["full", "erased", "queried"]), default="full", show_default=True)
@click.option("--m", type=int, default=50000, show_default=True)
@click.option("--tau", type=float, required=True)
@click.option("--budget", "-L", "budget", type=float, required=True)
@click.option("--reveal-prob", type=float, default=0.9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path())
def cmd_run_experiment(n, r, max_degree, max_arity, alpha, beta, density, trials,
                       mode, m, tau, budget, reveal_prob, seed, out):
    """Full generate/sample/learn/score sweep with aggregate metrics."""
    spec = GeneratorSpec(
        n=n, r=r, max_degree=max_degree, max_arity=max_arity,
        alpha=alpha, beta=beta, hyperedge_density=density, seed=seed,
    )
    config = LearnConfig(
        r=r, max_degree=max_degree, max_arity=max_arity, alpha=alpha, beta=beta,
        gamma=0.0, delta=0.0, override_tau=tau, override_L=budget,
    )
    report = run_experiment(spec, config, trials, mode, m, seed, reveal_prob)
    _emit(report.to_json_dict(), out)


if __name__ == "__main__":
    main()
