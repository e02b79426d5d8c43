"""Experiment orchestration: generate, sample, (erase,) learn, score."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .estimation import (
    QueryOracle,
    log10_required_samples_erased,
    log10_required_samples_full,
    required_samples_erased,
    required_samples_full,
)
from .generate import GeneratorSpec, generate_model
from .inference import exact_joint
from .learner import GraphResult, LearnConfig, learn_graph_erased, learn_graph_full, learn_graph_queried
from .model import clique_graph
from .sampling import erase, sample_exact, spawn_rng


@dataclass(frozen=True)
class EdgeScore:
    precision: float
    recall: float
    exact_match: bool
    precision_defined: bool


def score_edges(truth: set[tuple[int, int]], learned: set[tuple[int, int]]) -> EdgeScore:
    """Set-overlap metrics; an empty learned set reports precision 1 by
    convention, flagged through precision_defined."""
    truth = {tuple(sorted(e)) for e in truth}
    learned = {tuple(sorted(e)) for e in learned}
    hits = len(truth & learned)
    precision_defined = bool(learned)
    precision = hits / len(learned) if learned else 1.0
    recall = hits / len(truth) if truth else 1.0
    return EdgeScore(precision, recall, truth == learned, precision_defined)


def theoretical_sample_report(config: LearnConfig, n: int) -> dict:
    """The guarantee-level sample bounds, as integers when representable
    and as log10 otherwise; these are reported, never used to size runs."""
    out: dict = {}
    try:
        ell = config.theoretical_budget()
        eps = config.theoretical_tau() / 2.0
    except (ValueError, OverflowError) as exc:
        return {"error": f"theoretical thresholds undefined: {exc}"}
    try:
        out["full"] = required_samples_full(
            ell, eps, config.omega, n, config.max_arity, config.r, config.delta
        )
    except (OverflowError, ValueError):
        out["full_log10"] = log10_required_samples_full(
            ell, eps, config.omega, n, config.max_arity, config.r, config.delta
        )
    try:
        out["erased_p09"] = required_samples_erased(
            ell,
            config.theoretical_tau(),
            config.omega,
            n,
            config.max_arity,
            config.r,
            config.delta,
            0.9,
        )
    except (OverflowError, ValueError):
        out["erased_p09_log10"] = log10_required_samples_erased(
            ell,
            config.theoretical_tau(),
            config.omega,
            n,
            config.max_arity,
            config.r,
            config.delta,
            0.9,
        )
    return out


@dataclass
class ExperimentReport:
    spec: GeneratorSpec
    mode: str
    m: int
    trials: list[dict] = field(default_factory=list)
    theoretical_m: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def exact_match_rate(self) -> float:
        return sum(t["exact_match"] for t in self.trials) / len(self.trials)

    @property
    def mean_precision(self) -> float:
        return sum(t["precision"] for t in self.trials) / len(self.trials)

    @property
    def mean_recall(self) -> float:
        return sum(t["recall"] for t in self.trials) / len(self.trials)

    def to_json_dict(self) -> dict:
        return {
            "generator": vars(self.spec) | {},
            "mode": self.mode,
            "m": self.m,
            "trials": self.trials,
            "theoretical_m": self.theoretical_m,
            "aggregate": {
                "exact_match_rate": self.exact_match_rate,
                "mean_precision": self.mean_precision,
                "mean_recall": self.mean_recall,
            },
            "seconds": self.seconds,
        }


def run_trial(
    spec: GeneratorSpec,
    config: LearnConfig,
    mode: str,
    m: int,
    seed: int,
    reveal_prob: float = 0.9,
) -> dict:
    """One generate -> sample -> learn -> score pass."""
    model_seed = int(spawn_rng(seed, "trial", 0).integers(1 << 62))
    sample_seed = int(spawn_rng(seed, "trial", 1).integers(1 << 62))
    erase_seed = int(spawn_rng(seed, "trial", 2).integers(1 << 62))
    model = generate_model(
        GeneratorSpec(**(vars(spec) | {"seed": model_seed}))
    )
    truth = set(clique_graph(model).edges)
    joint = exact_joint(model)
    start = time.perf_counter()
    if mode == "full":
        samples = sample_exact(joint, m, sample_seed)
        result: GraphResult = learn_graph_full(samples, config)
    elif mode == "erased":
        samples = erase(sample_exact(joint, m, sample_seed), reveal_prob, erase_seed)
        result = learn_graph_erased(samples, config)
    elif mode == "queried":
        oracle = QueryOracle.from_joint(joint, config.query_capacity, sample_seed)
        result = learn_graph_queried(oracle, model.n, model.arities, config, m)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    elapsed = time.perf_counter() - start
    score = score_edges(truth, result.edges)
    return {
        "seed": seed,
        "true_edges": sorted(list(e) for e in truth),
        "learned_edges": sorted(list(e) for e in result.edges),
        "precision": score.precision,
        "recall": score.recall,
        "exact_match": score.exact_match,
        "warnings": len(result.warnings),
        "learn_seconds": elapsed,
    }


def run_experiment(
    spec: GeneratorSpec,
    config: LearnConfig,
    trials: int,
    mode: str,
    m: int,
    seed: int,
    reveal_prob: float = 0.9,
) -> ExperimentReport:
    """Repeat run_trial with derived per-trial seeds and aggregate."""
    if trials < 1:
        raise ValueError("need at least one trial")
    report = ExperimentReport(spec=spec, mode=mode, m=m)
    start = time.perf_counter()
    for t in range(trials):
        trial_seed = int(spawn_rng(seed, "trial", 10 + t).integers(1 << 62))
        report.trials.append(
            run_trial(spec, config, mode, m, trial_seed, reveal_prob)
        )
    report.seconds = time.perf_counter() - start
    report_config = config
    if config.gamma <= 0.0:
        # constants from a probe model so the theoretical bounds are meaningful
        probe = generate_model(spec)
        report_config = LearnConfig.from_model(
            probe, config.alpha, config.beta, omega=config.omega
        )
    report.theoretical_m = theoretical_sample_report(report_config, spec.n)
    return report
