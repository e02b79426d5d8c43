"""Greedy neighborhood learner and its erased/queried variants.

For each target node u the learner grows a candidate set S: while the
size budget allows and some probe set I (|I| < r) shows estimated
coupling nu_hat(u, I | S) above the threshold tau, the best-scoring I
is merged into S.  A pruning pass then drops every member i whose
probe sets (i alone, or with set pruning each I of S containing i) all
score below tau against the rest of S.  Edges of the recovered graph
require mutual inclusion of the two endpoint neighborhoods; one-sided
detections are surfaced as warnings.

``LearnConfig`` holds the five values the learner reads: r, tau, the
budget L, set-valued pruning and the erased mode's coverage floor;
``from_model`` derives the theoretical tau and L from the model's
detection floors.

The four modes (exact, full, erased, queried) run the same learner and
differ only in the table behind nu(u, I | S): the exact joint, a stored
sample set with or without erasures (``NuEstimator.sampled``), or a fresh
queried batch.  Each supplies a kernel to the one ``NuEstimator``, which
counts, audits and enforces the erased mode's coverage floor.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

from .estimation import (
    EmpiricalDistribution,
    InsufficientCoverageError,
    QueryCapacityError,
    QueryOracle,
    nu_hat,  # unused here; kept so perfbench/run.py --trace 1 can patch it
    nu_hat_erased,  # unused here, for the same reason
    nu_hat_erased_sweep,
    nu_hat_queried,
)
from .game import detection_floors
from .inference import JointTable, exact_nu, exact_nu_sweep  # exact_nu: unused here, kept for the same reason
from .model import MarkovRandomField, compute_gamma_delta
from .sampling import ERASED, SampleSet

audit_log = logging.getLogger("mrflearn.estimator")


@dataclass
class LearnConfig:
    """The interaction order r, threshold tau and size budget L the
    learner runs at, whether it prunes by sets, and the erased mode's
    coverage floor.

    ``from_model`` fills in the theoretical values for whichever of tau
    and L is not overridden: tau = conditioned floor / 2 and
    L = (8 / tau^2) * log(K).  Those are astronomically conservative for
    real models, so overrides are the norm.
    """

    r: int
    tau: float
    budget: float  # candidate-set size budget; the greedy loop runs while |S| <= budget
    prune_sets: bool = False
    coverage_floor: int = 1

    def __post_init__(self):
        for name, low in (("r", 1), ("coverage_floor", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ValueError(f"invalid {name!r}: need an integer >= {low}, got {value!r}")
        for name in ("tau", "budget"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"invalid {name!r}: need a finite number >= 0, got {value!r}")

    @classmethod
    def from_model(
        cls,
        model: MarkovRandomField,
        alpha: float,
        beta: Optional[float] = None,
        override_tau: Optional[float] = None,
        override_L: Optional[float] = None,
        **kw,
    ) -> "LearnConfig":
        """The config for ``model`` at nonvanishing level alpha.  The
        default budget is taken at the effective tau.  No threshold
        depends on beta; it is accepted so that existing positional
        calls keep working."""
        tau = override_tau
        if tau is None:
            tau = detection_floors(model, alpha).conditioned / 2.0
        budget = override_L
        if budget is None:
            if tau**2 == 0.0:
                raise ValueError(f"tau = {tau!r} squares to 0 (float underflow), "
                                 "so the theoretical budget 8 / tau^2 is undefined")
            budget = (8.0 / tau**2) * math.log(compute_gamma_delta(model).max_arity)
        return cls(r=model.r, tau=tau, budget=budget, **kw)

    @property
    def query_capacity(self) -> int:
        """Nodes one bounded query must observe: u, a probe set of up to
        r - 1 nodes and a conditioning set of up to floor(budget) nodes."""
        return math.floor(self.budget) + self.r


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

    @classmethod
    def exact(cls, joint: JointTable) -> "NuEstimator":
        """Exact inference, the learner's ground-truth mode: one sweep of
        the joint's marginals per call."""
        return cls(lambda u, groups, cond: [
            (value, "exact") for value in exact_nu_sweep(joint, u, groups, cond)
        ])

    @classmethod
    def sampled(cls, dist: EmpiricalDistribution, coverage_floor: int = 0) -> "NuEstimator":
        """A stored sample set, complete or with erasures: complete-case
        estimates, one sweep per call."""
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


def mrf_nbhd(
    estimator: NuEstimator, u: int, n_nodes: int, config: LearnConfig
) -> NeighborhoodResult:
    """Estimate the neighborhood of one node.

    Growth step: while |S| <= budget and some candidate set I of at most
    r-1 fresh nodes has nu_hat(u, I | S) > tau, merge the maximiser
    (ties broken lexicographically); one estimator call scores a round's
    candidates against the current S.  Pruning step: against the grown
    S, i survives if some probe set I of S containing i has
    nu_hat(u, I | S without I) >= tau; the probe sets are {i} alone, or
    with prune_sets every such I of at most r-1 nodes, smallest first.
    """
    tau = config.tau
    result = NeighborhoodResult(node=u, neighbors=())
    grown: list[int] = []
    start_evals = estimator.evaluations
    while len(grown) <= config.budget:
        pool = [v for v in range(n_nodes) if v != u and v not in grown]
        cands = [c for size in range(1, config.r) for c in itertools.combinations(pool, size)]
        values = estimator(u, cands, tuple(grown))
        above = [(-value, cand) for cand, value in zip(cands, values) if value > tau]
        if not above:
            break
        neg_value, best = min(above)
        grown = sorted({*grown, *best})
        result.trace.append(("add", best, -neg_value))
    else:
        result.warnings.append(
            f"growth budget exhausted at |S|={len(grown)} > {config.budget:g}; "
            "estimates may not be uniformly accurate"
        )
    sizes = range(1, config.r) if config.prune_sets else (1,)
    survivors = []
    for i in grown:
        probes = [c for size in sizes for c in itertools.combinations(grown, size) if i in c]
        for cand in probes:
            (value,) = estimator(u, [cand], tuple(v for v in grown if v not in cand))
            if value >= tau:
                survivors.append(i)
                break
        else:
            result.trace.append(("prune", (i,), value))
    result.neighbors = tuple(survivors)
    result.evaluations = estimator.evaluations - start_evals
    return result


def learn_graph(estimator: NuEstimator, n_nodes: int, config: LearnConfig) -> GraphResult:
    """Run the neighborhood learner at every node and assemble the graph.
    An edge needs mutual inclusion of its endpoints' neighborhoods; each
    one-sided detection and each node's coverage events become warnings."""
    per_node = {}
    for u in range(n_nodes):
        per_node[u] = mrf_nbhd(estimator, u, n_nodes, config)
        per_node[u].warnings.extend(estimator.drain_events())
    edges = set()
    warnings = []
    for u, res in per_node.items():
        for v in res.neighbors:
            if u in per_node[v].neighbors:
                edges.add((min(u, v), max(u, v)))
            else:
                warnings.append(f"asymmetric detection: {u} -> {v} only")
    for u, res in per_node.items():
        warnings.extend(f"node {u}: {w}" for w in res.warnings)
    return GraphResult(edges=edges, per_node=per_node, warnings=warnings)


def learn_graph_full(samples: SampleSet, config: LearnConfig) -> GraphResult:
    """Learn from fully observed samples."""
    if (samples.data == ERASED).any():
        raise ValueError("samples contain erasures; use learn_graph_erased")
    if samples.m == 0:
        raise InsufficientCoverageError("no complete samples for this node set")
    estimator = NuEstimator.sampled(EmpiricalDistribution(samples))
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
    estimator = NuEstimator.sampled(EmpiricalDistribution(samples), config.coverage_floor)
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
    m_batch * (floor(L) + 1) * r * n^r query budget, floor(L) + 1 being
    the growth rounds the learner can run.
    """
    if oracle.capacity < config.query_capacity:
        raise QueryCapacityError(
            f"oracle capacity {oracle.capacity} is below the required {config.query_capacity}"
        )
    estimator = NuEstimator.queried(oracle, arities, m_batch)
    result = learn_graph(estimator, n_nodes, config)
    query_budget = m_batch * (math.floor(config.budget) + 1) * config.r * n_nodes**config.r
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
