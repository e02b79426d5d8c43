"""Greedy neighborhood learner and its erased/queried variants.

For each target node u the learner grows a candidate set S: while the
size budget allows and some probe set I (|I| < r) shows estimated
coupling nu_hat(u, I | S) above the threshold tau, the best-scoring I
is merged into S.  A pruning pass then drops every member whose
singleton coupling against the rest of S falls below tau.  Edges of the
recovered graph require mutual inclusion of the two endpoint
neighborhoods; one-sided detections are surfaced as warnings.

The four modes (exact, full, erased, queried) run the same learner and
differ only in how nu(u, I | S) is obtained: each supplies a kernel to
the one ``NuEstimator``, which counts, audits and enforces the erased
mode's coverage floor.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .estimation import (
    EmpiricalDistribution,
    QueryCapacityError,
    QueryOracle,
    nu_hat,  # unused here; kept so perfbench/run.py --trace 1 can patch it
    nu_hat_erased,  # unused here, for the same reason
    nu_hat_erased_sweep,
    nu_hat_queried,
    nu_hat_sweep,
)
from .inference import JointTable, exact_nu
from .model import MarkovRandomField, compute_gamma_delta
from .sampling import SampleSet

audit_log = logging.getLogger("mrflearn.estimator")


@dataclass(frozen=True)
class DetectionFloors:
    """Guaranteed lower bounds on the average detectable coupling.

    ``unconditional`` applies with no conditioning set; ``conditioned``
    survives conditioning on any set that misses a neighbor and is
    smaller by a factor delta^max_degree.
    """

    unconditional: float
    conditioned: float


def theoretical_constants(
    gamma: float, k_max: int, alpha: float, r: int, max_degree: int, delta: float
) -> DetectionFloors:
    """Evaluate the detection-floor formulas from the model constants."""
    if min(gamma, k_max, alpha, r, delta) <= 0 or max_degree < 0:
        raise ValueError("constants must be positive (gamma in particular)")
    choose = math.comb(max_degree, r - 1)
    if choose == 0:
        raise ValueError(f"max degree {max_degree} cannot support order-{r} interactions")
    base = (
        4.0
        * alpha**2
        * delta ** (r - 1)
        / (r ** (2 * r) * k_max ** (r + 1) * choose * gamma * math.exp(2.0 * gamma))
    )
    return DetectionFloors(unconditional=base, conditioned=base * delta**max_degree)


@dataclass
class LearnConfig:
    """Thresholds and budgets driving the learner.

    When tau or the budget L is not overridden they default to the
    theoretical values: tau = conditioned floor / 2 and
    L = (8 / tau^2) * log(K).  Those defaults are astronomically
    conservative for real models, so overrides are the norm; reports
    always carry both.
    """

    r: int
    max_degree: int
    max_arity: int
    alpha: float
    beta: float
    gamma: float
    delta: float
    omega: float = 0.05
    override_tau: Optional[float] = None
    override_L: Optional[float] = None
    prune_sets: bool = False
    coverage_floor: int = 1

    @classmethod
    def from_model(cls, model: MarkovRandomField, alpha: float, beta: float, **kw):
        consts = compute_gamma_delta(model)
        return cls(
            r=model.r,
            max_degree=consts.max_degree,
            max_arity=consts.max_arity,
            alpha=alpha,
            beta=beta,
            gamma=consts.gamma,
            delta=consts.delta,
            **kw,
        )

    def floors(self) -> DetectionFloors:
        return theoretical_constants(
            self.gamma, self.max_arity, self.alpha, self.r, self.max_degree, self.delta
        )

    @property
    def tau(self) -> float:
        if self.override_tau is not None:
            return self.override_tau
        return self.floors().conditioned / 2.0

    @property
    def budget(self) -> float:
        """Candidate-set size budget; the greedy loop runs while |S| <= budget."""
        if self.override_L is not None:
            return self.override_L
        return (8.0 / self.tau**2) * math.log(self.max_arity)

    @property
    def query_capacity(self) -> int:
        """Nodes one bounded query must observe: u, a probe set of up to
        r - 1 nodes and a conditioning set of up to floor(budget) nodes."""
        return math.floor(self.budget) + self.r

    def theoretical_tau(self) -> float:
        return self.floors().conditioned / 2.0

    def theoretical_budget(self) -> float:
        t = self.theoretical_tau()
        return (8.0 / t**2) * math.log(self.max_arity)


@dataclass
class NeighborhoodResult:
    """Outcome of one per-node run, with a replayable decision trace."""

    node: int
    neighbors: tuple[int, ...]
    trace: list[tuple] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    evaluations: int = 0

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "neighbors": list(self.neighbors),
            "trace": [
                {"step": kind, "nodes": list(nodes), "nu_hat": value}
                for kind, nodes, value in self.trace
            ],
            "warnings": list(self.warnings),
            "evaluations": self.evaluations,
        }


@dataclass
class GraphResult:
    edges: set[tuple[int, int]]
    per_node: dict[int, NeighborhoodResult]
    warnings: list[str] = field(default_factory=list)
    accounting: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "edges": sorted(list(e) for e in self.edges),
            "nodes": [self.per_node[u].to_json_dict() for u in sorted(self.per_node)],
            "warnings": list(self.warnings),
            "accounting": dict(self.accounting),
        }


@dataclass
class NuEstimator:
    """The learner's one nu provider: ``estimator(u, groups, cond)`` returns
    nu(u, I | S=cond) for every probe set I in ``groups``.

    Its kernel, ``kernel(u, groups, cond) -> [(value, rows), ...]``, does
    the estimation; ``rows`` is the sample count behind a value, or the
    label ``"exact"``.  The estimator counts evaluations, writes one
    ``mrflearn.estimator`` audit line per evaluation, and forces to zero
    each value with no rows or with fewer than ``coverage_floor``,
    recording it in ``coverage_events`` for the learner to surface.
    """

    kernel: Callable[[int, list, tuple], list[tuple[float, int | str]]]
    coverage_floor: int = 0
    evaluations: int = 0
    coverage_events: list[tuple[int, tuple, tuple, int]] = field(default_factory=list)

    # The kernels look the estimation functions up as module globals at
    # call time, so that a caller can wrap them in this module.

    @classmethod
    def exact(cls, joint: JointTable) -> "NuEstimator":
        """Exact inference; the learner's ground-truth mode."""
        return cls(lambda u, groups, cond: [
            (exact_nu(joint, u, group, cond), "exact") for group in groups
        ])

    @classmethod
    def full(cls, dist: EmpiricalDistribution) -> "NuEstimator":
        """A complete sample set, one sweep per call."""
        return cls(lambda u, groups, cond: [
            (value, dist.m) for value in nu_hat_sweep(dist, u, groups, cond)
        ])

    @classmethod
    def erased(cls, dist: EmpiricalDistribution, coverage_floor: int) -> "NuEstimator":
        """Complete-case estimates over samples with erasures."""
        return cls(
            lambda u, groups, cond: nu_hat_erased_sweep(dist, u, groups, cond),
            coverage_floor,
        )

    @classmethod
    def queried(
        cls, oracle: QueryOracle, arities: tuple[int, ...], m_batch: int
    ) -> "NuEstimator":
        """Bounded queries; one fresh batch per evaluation, as the query
        accounting counts them."""
        return cls(lambda u, groups, cond: [
            (nu_hat_queried(oracle, u, group, cond, m_batch, arities), m_batch)
            for group in groups
        ])

    def __call__(
        self, u: int, groups: list[tuple[int, ...]], cond: tuple[int, ...]
    ) -> list[float]:
        values = []
        for group, (value, rows) in zip(groups, self.kernel(u, groups, cond)):
            self.evaluations += 1
            if rows == 0:
                audit_log.debug("nu u=%d I=%s S=%s value=0 m=0 (no coverage)", u, group, cond)
            else:
                audit_log.debug(
                    "nu u=%d I=%s S=%s value=%.6g m=%s", u, group, cond, value, rows
                )
            if rows == 0 or (self.coverage_floor and rows < self.coverage_floor):
                self.coverage_events.append((u, tuple(group), tuple(cond), rows))
                value = 0.0
            values.append(value)
        return values

    def drain_events(self) -> list[str]:
        out = [
            f"coverage below floor for u={u} I={list(g)} S={list(s)} (effective m={eff})"
            for u, g, s, eff in self.coverage_events
        ]
        self.coverage_events = []
        return out


def _candidate_sets(n: int, excluded: set[int], max_size: int):
    pool = [v for v in range(n) if v not in excluded]
    for size in range(1, max_size + 1):
        yield from itertools.combinations(pool, size)


def mrf_nbhd(
    estimator: NuEstimator, u: int, n_nodes: int, config: LearnConfig
) -> NeighborhoodResult:
    """Estimate the neighborhood of one node.

    Growth step: while |S| <= budget and some candidate set I of at most
    r-1 fresh nodes has nu_hat(u, I | S) > tau, merge the maximiser
    (ties broken lexicographically); one estimator call scores a round's
    candidates against the current S.  Pruning step: against the grown
    S, drop each i with nu_hat(u, i | S without i) < tau; with prune_sets,
    i survives if any subset of S containing it clears tau instead.
    """
    tau = config.tau
    budget = config.budget
    result = NeighborhoodResult(node=u, neighbors=())
    grown: list[int] = []
    start_evals = estimator.evaluations
    exhausted = False
    while True:
        if len(grown) > budget:
            exhausted = True
            break
        best_set, best_value = None, -math.inf
        cands = list(_candidate_sets(n_nodes, {u, *grown}, config.r - 1))
        for cand, value in zip(cands, estimator(u, cands, tuple(grown))):
            if value > tau and (
                value > best_value
                or (value == best_value and (best_set is None or cand < best_set))
            ):
                best_set, best_value = cand, value
        if best_set is None:
            break
        grown = sorted(set(grown) | set(best_set))
        result.trace.append(("add", best_set, best_value))
    if exhausted:
        result.warnings.append(
            f"growth budget exhausted at |S|={len(grown)} > {budget:g}; "
            "estimates may not be uniformly accurate"
        )
    survivors = []
    for i in grown:
        rest = tuple(v for v in grown if v != i)
        if config.prune_sets:
            kept = False
            value = 0.0
            for size in range(1, config.r):
                for cand in itertools.combinations(grown, size):
                    if i not in cand:
                        continue
                    cond = tuple(v for v in grown if v not in cand)
                    (value,) = estimator(u, [cand], cond)
                    if value >= tau:
                        kept = True
                        break
                if kept:
                    break
        else:
            (value,) = estimator(u, [(i,)], rest)
            kept = value >= tau
        if kept:
            survivors.append(i)
        else:
            result.trace.append(("prune", (i,), value))
    result.neighbors = tuple(survivors)
    result.evaluations = estimator.evaluations - start_evals
    return result


def _assemble(per_node: dict[int, NeighborhoodResult]) -> GraphResult:
    """Edges by mutual inclusion; one-sided detections become warnings."""
    edges = set()
    warnings = []
    for u in sorted(per_node):
        for v in per_node[u].neighbors:
            pair = (min(u, v), max(u, v))
            if u in per_node[v].neighbors:
                edges.add(pair)
            else:
                warnings.append(f"asymmetric detection: {u} -> {v} only")
    for u in sorted(per_node):
        warnings.extend(f"node {u}: {w}" for w in per_node[u].warnings)
    return GraphResult(edges=edges, per_node=per_node, warnings=warnings)


def learn_graph(estimator: NuEstimator, n_nodes: int, config: LearnConfig) -> GraphResult:
    """Run the neighborhood learner at every node and assemble the graph;
    a node's coverage events become its warnings."""
    per_node = {}
    for u in range(n_nodes):
        per_node[u] = mrf_nbhd(estimator, u, n_nodes, config)
        per_node[u].warnings.extend(estimator.drain_events())
    return _assemble(per_node)


def learn_graph_full(samples: SampleSet, config: LearnConfig) -> GraphResult:
    """Learn from fully observed samples."""
    estimator = NuEstimator.full(EmpiricalDistribution(samples))
    result = learn_graph(estimator, samples.n, config)
    if samples.m < 2:
        result.warnings.append(
            f"sample count m={samples.m} is degenerate; every nu-hat is zero"
        )
    result.accounting = {
        "mode": "full",
        "samples": samples.m,
        "evaluations": estimator.evaluations,
    }
    return result


def learn_graph_erased(samples: SampleSet, config: LearnConfig) -> GraphResult:
    """Learn from samples with erasures via complete-case estimation."""
    estimator = NuEstimator.erased(EmpiricalDistribution(samples), config.coverage_floor)
    result = learn_graph(estimator, samples.n, config)
    result.accounting = {
        "mode": "erased",
        "samples": samples.m,
        "evaluations": estimator.evaluations,
    }
    return result


def learn_graph_queried(
    oracle: QueryOracle,
    n_nodes: int,
    arities: tuple[int, ...],
    config: LearnConfig,
    m_batch: int,
) -> GraphResult:
    """Learn through bounded queries, one fresh batch per nu-hat.

    The oracle capacity must cover a conditioning set at the budget plus
    one full probe set; total consumption is checked against the
    m_batch * L * r * n^r query budget.
    """
    if oracle.capacity < config.query_capacity:
        raise QueryCapacityError(
            f"oracle capacity {oracle.capacity} is below the required {config.query_capacity}"
        )
    estimator = NuEstimator.queried(oracle, arities, m_batch)
    result = learn_graph(estimator, n_nodes, config)
    query_budget = m_batch * config.budget * config.r * n_nodes**config.r
    if oracle.consumed > query_budget:
        raise RuntimeError(
            f"query accounting violated: consumed {oracle.consumed} > budget {query_budget:g}"
        )
    result.accounting = {
        "mode": "queried",
        "m_batch": m_batch,
        "evaluations": estimator.evaluations,
        "samples_consumed": oracle.consumed,
        "queries_issued": oracle.queries_issued,
        "max_query_size": oracle.max_query_size,
        "query_budget": query_budget,
    }
    return result


def learn_graph_exact(joint: JointTable, config: LearnConfig) -> GraphResult:
    """Learn with the oracle-backed exact nu; for verification at desk scale."""
    estimator = NuEstimator.exact(joint)
    result = learn_graph(estimator, joint.model.n, config)
    result.accounting = {"mode": "exact", "evaluations": estimator.evaluations}
    return result
