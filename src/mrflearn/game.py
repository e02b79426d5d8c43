"""A wagering game that certifies detectable neighbor influence.

One round at target node u: two configurations X and X' are drawn
independently from the model, a challenge state R is drawn uniformly,
and a subset I of u's neighbors of size s = min(r-1, deg(u)) is revealed
along with X_I.  Bob stakes a bounded wager w on the event X_u = R and
is paid w*(1{X_u = R} - 1{X'_u = R}).

Bob's explicit strategy reweights each clique potential touching u by
the inverse probability that its neighbors are all revealed, so that
averaged over I the stake is an unbiased read of the local energy gap.
Its positive expected payoff lower-bounds the mutual information
between u and its neighborhood, which is what the structure learner's
detection thresholds rest on; the checks here verify every link of
that chain numerically on small models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .inference import JointTable, exact_conditional_mi, exact_joint, exact_nu, marginal
from .model import (
    MarkovRandomField,
    CliqueGraph,
    _maximal_hyperedges,
    clique_graph,
    compute_gamma_delta,
)
from .sampling import inverse_cdf_sampler, spawn_rng


@dataclass(frozen=True)
class GameRound:
    """Record of a single simulated round."""

    node: int
    revealed: tuple[int, ...]
    revealed_states: tuple[int, ...]
    challenge: int
    wager: float
    payoff: float


def _phi_table(
    model: MarkovRandomField, u: int, revealed: tuple[int, ...], graph: CliqueGraph
) -> np.ndarray:
    """Bob's phi for every (state of u, states of the revealed set).

    Each clique potential on u whose other members are all revealed is
    counted with weight C(d_u, s) / C(d_u - l, s - l), the reciprocal of
    the chance that an l-set of neighbors lands inside a uniform size-s
    subset; the unary potential is always visible with weight one.
    """
    if not set(revealed) <= graph.neighbors[u]:
        raise ValueError(f"revealed set {revealed} is not inside the neighborhood of {u}")
    d_u = graph.degrees[u]
    s = len(revealed)
    phi = np.zeros((model.arities[u],) + tuple(model.arities[v] for v in revealed))
    for verts in model.incident(u):
        others = [v for v in verts if v != u]
        if not set(others) <= set(revealed):
            continue
        ell = len(others)
        coeff = math.comb(d_u, s) / math.comb(d_u - ell, s - ell)
        target = [0 if v == u else 1 + revealed.index(v) for v in verts]
        perm = np.argsort(target)
        aligned = model.potentials[verts].values.transpose(perm)
        shape = [1] * (1 + s)
        for pos, size in zip(sorted(target), aligned.shape):
            shape[pos] = size
        phi = phi + coeff * aligned.reshape(shape)
    return phi


def _wagers(phi: np.ndarray) -> np.ndarray:
    """Bob's stake per (challenge, revealed states): the phi of the
    challenged state minus the phis of all rival states."""
    return 2.0 * phi - phi.sum(axis=0, keepdims=True)


def bob_phi(
    model: MarkovRandomField,
    u: int,
    state: int,
    revealed: tuple[int, ...],
    revealed_states: tuple[int, ...],
    s: int | None = None,
    graph: CliqueGraph | None = None,
) -> float:
    """Unbiased estimate of the local energy of u in `state` from the
    revealed neighbor subset, which must have size s when s is given."""
    revealed = tuple(int(v) for v in revealed)
    phi = _phi_table(model, u, revealed, graph or clique_graph(model))
    if s is not None and len(revealed) != s:
        raise ValueError(f"revealed set has size {len(revealed)}, expected s={s}")
    return float(phi[(state,) + tuple(int(x) for x in revealed_states)])


def bob_wager(
    model: MarkovRandomField,
    u: int,
    state: int,
    revealed: tuple[int, ...],
    revealed_states: tuple[int, ...],
    graph: CliqueGraph | None = None,
) -> float:
    """Bob's stake: the phi estimate of the challenged state minus the
    phi estimates of all rival states."""
    revealed = tuple(int(v) for v in revealed)
    wagers = _wagers(_phi_table(model, u, revealed, graph or clique_graph(model)))
    return float(wagers[(state,) + tuple(int(x) for x in revealed_states)])


def wager_cap(model: MarkovRandomField) -> float:
    """The stake bound gamma * K * C(D, r-1) every wager must respect."""
    consts = compute_gamma_delta(model)
    return (
        consts.gamma
        * consts.max_arity
        * math.comb(consts.max_degree, min(model.r - 1, consts.max_degree))
    )


def _probe_sets(graph: CliqueGraph, u: int, r: int, excluded: frozenset = frozenset()):
    """Size-s subsets of u's neighborhood outside `excluded`,
    s = min(r-1, available)."""
    pool = sorted(graph.neighbors[u] - excluded)
    s = min(r - 1, len(pool))
    if s == 0:
        return []
    return list(itertools.combinations(pool, s))


def _wager_tables(model: MarkovRandomField, u: int):
    """For each probe set I: the wager indexed by (challenge, states of I)."""
    graph = clique_graph(model)
    return [
        (revealed, _wagers(_phi_table(model, u, revealed, graph)))
        for revealed in _probe_sets(graph, u, model.r)
    ]


def _covariance(joint: JointTable, u: int, revealed: tuple[int, ...]) -> np.ndarray:
    """P(X_u, X_I) - P(X_u) P(X_I) over the axes (u, I...)."""
    p_ui = marginal(joint, (u,) + revealed)
    p_u = p_ui.sum(axis=tuple(range(1, p_ui.ndim)), keepdims=True)
    p_i = p_ui.sum(axis=0, keepdims=True)
    return p_ui - p_u * p_i


def play_round(
    model: MarkovRandomField,
    u: int,
    rng: np.random.Generator,
    joint: JointTable | None = None,
) -> GameRound:
    """Simulate one round; rejects isolated targets (no subset to reveal)."""
    joint = joint or exact_joint(model)
    tables = _wager_tables(model, u)
    if not tables:
        raise ValueError(f"node {u} is isolated; the reveal draw is empty")
    x, x_prime = inverse_cdf_sampler(joint.probs, rng)(2)
    challenge = int(rng.integers(model.arities[u]))
    revealed, wagers = tables[int(rng.integers(len(tables)))]
    states = tuple(int(x[v]) for v in revealed)
    wager = float(wagers[(challenge,) + states])
    payoff = wager * (
        (1.0 if int(x[u]) == challenge else 0.0)
        - (1.0 if int(x_prime[u]) == challenge else 0.0)
    )
    return GameRound(u, revealed, states, challenge, wager, payoff)


def expected_payoff_exact(
    model: MarkovRandomField, u: int, joint: JointTable | None = None
) -> float:
    """E[payoff] of Bob's strategy by exact summation.

    Only the joint law of (X_u, X_I) enters: conditioning on the
    challenge and probe set, the payoff reduces to the covariance
    between the wager and the indicator of the challenged state.
    """
    tables = _wager_tables(model, u)
    if not tables:
        return 0.0
    joint = joint or exact_joint(model)
    k_u = model.arities[u]
    total = 0.0
    for revealed, wagers in tables:
        total += float((_covariance(joint, u, revealed) * wagers).sum())
    return total / (k_u * len(tables))


def expected_payoff_mc(
    model: MarkovRandomField,
    u: int,
    rounds: int,
    seed: int,
    joint: JointTable | None = None,
) -> tuple[float, float]:
    """Monte-Carlo mean payoff and its standard error over independent rounds."""
    if rounds < 1:
        raise ValueError("need at least one round")
    tables = _wager_tables(model, u)
    if not tables:
        raise ValueError(f"node {u} is isolated; the reveal draw is empty")
    joint = joint or exact_joint(model)
    rng = spawn_rng(seed, "game")
    draw = inverse_cdf_sampler(joint.probs, rng)
    x = draw(rounds)
    x_prime = draw(rounds)
    challenges = rng.integers(model.arities[u], size=rounds)
    which = rng.integers(len(tables), size=rounds)
    payoffs = np.zeros(rounds)
    for t, (revealed, wagers) in enumerate(tables):
        mask = which == t
        if not mask.any():
            continue
        cols = x[mask][:, list(revealed)]
        flat_wagers = wagers.reshape(wagers.shape[0], -1)
        code = np.zeros(cols.shape[0], dtype=np.int64)
        for j, v in enumerate(revealed):
            code = code * model.arities[v] + cols[:, j]
        w = flat_wagers[challenges[mask], code]
        hit = (x[mask][:, u] == challenges[mask]).astype(float)
        miss = (x_prime[mask][:, u] == challenges[mask]).astype(float)
        payoffs[mask] = w * (hit - miss)
    mean = float(payoffs.mean())
    se = float(payoffs.std(ddof=1) / math.sqrt(rounds)) if rounds > 1 else 0.0
    return mean, se


def payoff_lower_bound(alpha: float, delta: float, r: int, gamma: float) -> float:
    """Guaranteed expected payoff for a node in an alpha-nonvanishing
    maximal hyperedge: 4 alpha^2 delta^(r-1) / (r^(2r) e^(2 gamma))."""
    return 4.0 * alpha**2 * delta ** (r - 1) / (r ** (2 * r) * math.exp(2.0 * gamma))


def payoff_upper_bound_check(
    model: MarkovRandomField, u: int, joint: JointTable | None = None, tol: float = 1e-12
) -> dict:
    """Verify that no strategy can beat the marginal-deviation cap.

    Checks E[payoff] <= cap * E_{I, X_I, R} |P(X_u = R | X_I) - P(X_u = R)|,
    which can hold with equality for perfectly symmetric models.
    """
    joint = joint or exact_joint(model)
    graph = clique_graph(model)
    subsets = _probe_sets(graph, u, model.r)
    if not subsets:
        return {"node": u, "exact": 0.0, "upper": 0.0, "slack": 0.0, "ok": True}
    deviation = sum(
        float(np.abs(_covariance(joint, u, revealed)).sum()) for revealed in subsets
    ) / (model.arities[u] * len(subsets))
    upper = wager_cap(model) * deviation
    exact = expected_payoff_exact(model, u, joint)
    return {
        "node": u,
        "exact": exact,
        "upper": upper,
        "slack": upper - exact,
        "ok": exact <= upper + tol,
    }


def mean_nu_over_probe_sets(
    joint: JointTable,
    u: int,
    cond: tuple[int, ...] = (),
    graph: CliqueGraph | None = None,
) -> tuple[float, list[tuple[int, ...]]]:
    """Average exact nu over the uniform probe draw: I ranges over the
    size-s subsets of u's neighbors outside the conditioning set."""
    model = joint.model
    graph = graph or clique_graph(model)
    subsets = _probe_sets(graph, u, model.r, excluded=frozenset(cond))
    if not subsets:
        raise ValueError(f"conditioning set covers the whole neighborhood of {u}")
    values = [exact_nu(joint, u, revealed, tuple(cond)) for revealed in subsets]
    return float(np.mean(values)), subsets


def _qualifying_nodes(model: MarkovRandomField, alpha: float) -> dict[int, dict]:
    """Per node: whether some / every maximal hyperedge containing it is
    alpha-nonvanishing."""
    maximal = _maximal_hyperedges(model)
    out = {}
    for u in range(model.n):
        containing = [h for h in maximal if u in h]
        strong = [h for h in containing if model.potentials[h].max_abs() >= alpha]
        out[u] = {
            "some_strong": bool(strong),
            "all_strong": bool(containing) and len(strong) == len(containing),
        }
    return out


def verify_payoff_bounds(
    model: MarkovRandomField, alpha: float, joint: JointTable | None = None
) -> list[dict]:
    """Exact payoff against its guaranteed floor, per qualifying node."""
    joint = joint or exact_joint(model)
    consts = compute_gamma_delta(model)
    bound = payoff_lower_bound(alpha, consts.delta, model.r, consts.gamma)
    graph = clique_graph(model)
    qualifying = _qualifying_nodes(model, alpha)
    records = []
    for u in range(model.n):
        if graph.degrees[u] == 0:
            continue
        strong = qualifying[u]["some_strong"]
        exact = expected_payoff_exact(model, u, joint)
        records.append(
            {
                "node": u,
                "exact": exact,
                "bound": bound if strong else 0.0,
                "qualifies": strong,
                "ok": (exact >= bound - 1e-12) if strong else exact >= -1e-12,
            }
        )
    return records


def verify_mi_chain(
    model: MarkovRandomField, alpha: float, joint: JointTable | None = None
) -> list[dict]:
    """Check every link from the game payoff to the unconditional
    detection floor, per qualifying node."""
    from .learner import theoretical_constants

    joint = joint or exact_joint(model)
    consts = compute_gamma_delta(model)
    graph = clique_graph(model)
    floors = theoretical_constants(
        consts.gamma, consts.max_arity, alpha, model.r, consts.max_degree, consts.delta
    )
    k_r = float(consts.max_arity**model.r)
    qualifying = _qualifying_nodes(model, alpha)
    records = []
    for u in range(model.n):
        if graph.degrees[u] == 0:
            continue
        qual = qualifying[u]["some_strong"]
        upper = payoff_upper_bound_check(model, u, joint)
        links_ok = upper["ok"]
        subsets = _probe_sets(graph, u, model.r)
        nus = []
        for revealed in subsets:
            nu = exact_nu(joint, u, revealed, ())
            mi = exact_conditional_mi(joint, u, revealed, ())
            dev = float(np.abs(_covariance(joint, u, revealed)).sum()) / model.arities[u]
            links_ok &= math.sqrt(mi / 2.0) >= nu - 1e-12
            links_ok &= nu >= dev / k_r - 1e-12
            nus.append(nu)
        mean_nu = float(np.mean(nus))
        ok = links_ok and (not qual or mean_nu >= floors.unconditional - 1e-12)
        records.append(
            {
                "node": u,
                "mean_nu": mean_nu,
                "floor": floors.unconditional if qual else 0.0,
                "qualifies": qual,
                "links_ok": links_ok,
                "ok": ok,
            }
        )
    return records


def verify_conditioned_floor(
    model: MarkovRandomField,
    alpha: float,
    max_cond_size: int,
    joint: JointTable | None = None,
) -> list[dict]:
    """Exhaustively check the conditioned detection floor: for every node
    and every conditioning set (up to the size cap) that misses a
    neighbor, the probe-averaged exact nu clears the conditioned floor."""
    from .learner import theoretical_constants

    joint = joint or exact_joint(model)
    consts = compute_gamma_delta(model)
    graph = clique_graph(model)
    floors = theoretical_constants(
        consts.gamma, consts.max_arity, alpha, model.r, consts.max_degree, consts.delta
    )
    qualifying = _qualifying_nodes(model, alpha)
    records = []
    for u in range(model.n):
        if graph.degrees[u] == 0 or not qualifying[u]["all_strong"]:
            continue
        others = [v for v in range(model.n) if v != u]
        for size in range(0, max_cond_size + 1):
            for cond in itertools.combinations(others, size):
                if graph.neighbors[u] <= set(cond):
                    continue
                mean_nu, _ = mean_nu_over_probe_sets(joint, u, cond, graph)
                records.append(
                    {
                        "node": u,
                        "cond": cond,
                        "mean_nu": mean_nu,
                        "floor": floors.conditioned,
                        "ok": mean_nu >= floors.conditioned - 1e-12,
                    }
                )
    return records
