"""A wagering game that certifies detectable neighbor influence.

One round at target node u: two configurations X and X' are drawn
independently from the model, a challenge state R is drawn uniformly,
and a subset I of u's neighbors of size s = min(r-1, deg(u)) is revealed
along with X_I.  Bob stakes a bounded wager w on the event X_u = R and
is paid w*(1{X_u = R} - 1{X'_u = R}).

Bob's explicit strategy reweights each clique potential touching u by
the inverse probability that its neighbors are all revealed, so that
averaged over I the stake is an unbiased read of the local energy gap;
his phi table is one weighted ``model._tensor_sum``.
Its positive expected payoff lower-bounds the mutual information
between u and its neighborhood, which is what the structure learner's
detection thresholds rest on, so the payoff floor and the
detection-floor formulas live here.  One simulator plays the rounds
(``play_round`` is its first, ``expected_payoff_mc`` averages many),
and three verifiers walk the non-isolated nodes to check every link of
that chain numerically on small models.  The exact payoff, the wager
cap's deviation, nu and MI of every probe set at u are summed from one
marginal over (u, N(u)...) in ``_probes``; probe-averaged nu is one
``_probe_means``, a prefix tree over one copy of the joint per node whose
K = () leaf is that marginal, so chain and floor agree bit for bit at S = ().
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .inference import (
    JointTable, _check_nodes, _mi_of_table, _nu_of_tables, _sum_tail, exact_joint, marginal,
    RUN_CELLS,
    exact_conditional_mi, exact_nu,  # unused here; perfbench/run.py --trace 1 patches them
)
from .model import (
    MarkovRandomField,
    _maximal_hyperedges,
    _tensor_sum,
    clique_graph,
    compute_gamma_delta,
)
from .sampling import inverse_cdf_sampler, spawn_rng

#: the verifiers' one float slack: how far a checked inequality may miss
SLACK = 1e-12
#: pending leaves, in joints' worth of cells, that ``_probe_means`` holds at most
PENDING_JOINTS = 8


@dataclass(frozen=True)
class GameRound:
    """Record of a single simulated round."""

    node: int
    revealed: tuple[int, ...]
    revealed_states: tuple[int, ...]
    challenge: int
    wager: float
    payoff: float


def _phi_table(model: MarkovRandomField, u: int, revealed: tuple[int, ...]) -> np.ndarray:
    """Bob's phi for every (state of u, states of the revealed set).

    Each clique potential on u whose other members are all revealed is
    counted with weight C(d_u, s) / C(d_u - l, s - l), the reciprocal of
    the chance that an l-set of neighbors lands inside a uniform size-s
    subset; the unary potential is always visible with weight one.
    """
    neighbors = _neighbors(model, u)
    if not set(revealed) <= neighbors:
        raise ValueError(f"revealed set {revealed} is not inside the neighborhood of {u}")
    d_u = len(neighbors)
    s = len(revealed)
    nodes = (u,) + revealed
    visible = [h for h in model.incident(u) if set(h) <= set(nodes)]
    weights = [math.comb(d_u, s) / math.comb(d_u - len(h) + 1, s - len(h) + 1) for h in visible]
    dims = [model.arities[v] for v in nodes]
    return _tensor_sum([model.potentials[h] for h in visible], nodes, dims, weights)


def _neighbors(model: MarkovRandomField, u: int) -> frozenset:
    """u's neighbors in the clique graph; u must be a node of the model."""
    if not 0 <= u < model.n:
        raise ValueError(f"node {u} is not a node of the model (0..{model.n - 1})")
    return clique_graph(model).neighbors[u]


def _phi_cell(model: MarkovRandomField, u: int, state: int, revealed, revealed_states):
    """Bob's phi table over (u, revealed) and its (state, revealed_states)
    cell, every state checked against its node's arity."""
    revealed = tuple(int(v) for v in revealed)
    phi = _phi_table(model, u, revealed)
    cell = (int(state),) + tuple(int(x) for x in revealed_states)
    if len(cell) != phi.ndim:
        raise ValueError(f"{len(cell) - 1} revealed states for {len(revealed)} revealed nodes")
    for v, x in zip((u,) + revealed, cell):
        if not 0 <= x < model.arities[v]:
            raise ValueError(f"state {x} out of range for node {v}")
    return phi, cell


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
) -> float:
    """Unbiased estimate of the local energy of u in `state` from the
    revealed neighbor subset, which must have size s when s is given."""
    phi, cell = _phi_cell(model, u, state, revealed, revealed_states)
    if s is not None and phi.ndim - 1 != s:
        raise ValueError(f"revealed set has size {phi.ndim - 1}, expected s={s}")
    return float(phi[cell])


def bob_wager(
    model: MarkovRandomField,
    u: int,
    state: int,
    revealed: tuple[int, ...],
    revealed_states: tuple[int, ...],
) -> float:
    """Bob's stake: the phi estimate of the challenged state minus the
    phi estimates of all rival states."""
    phi, cell = _phi_cell(model, u, state, revealed, revealed_states)
    return float(_wagers(phi)[cell])


def wager_cap(model: MarkovRandomField) -> float:
    """The stake bound gamma * K * C(D, r-1) every wager must respect."""
    consts = compute_gamma_delta(model)
    return (
        consts.gamma
        * consts.max_arity
        * math.comb(consts.max_degree, min(model.r - 1, consts.max_degree))
    )


def _probe_sets(model: MarkovRandomField, u: int, excluded: frozenset = frozenset()):
    """Size-s subsets of u's neighborhood outside `excluded`,
    s = min(r-1, available)."""
    pool = sorted(_neighbors(model, u) - excluded)
    s = min(model.r - 1, len(pool))
    if s == 0:
        return []
    return list(itertools.combinations(pool, s))


def _wager_tables(model: MarkovRandomField, u: int):
    """For each probe set I: the wager indexed by (challenge, states of I)."""
    return [
        (revealed, _wagers(_phi_table(model, u, revealed)))
        for revealed in _probe_sets(model, u)
    ]


def _probes(model: MarkovRandomField, u: int, joint: JointTable | None):
    """Bob's exact payoff at u, the mean |P(X_u, X_I) - P(X_u) P(X_I)|
    (both 0.0 at an isolated node, whose joint is never built) and per
    probe set I: (I, its summed |covariance|, the C-ordered (u, I..., S=())
    table nu and MI reduce), all from the floor's K = () leaf, (u, N(u)...)."""
    tables = _wager_tables(model, u)
    if not tables:
        return 0.0, 0.0, []
    joint = joint or exact_joint(model)
    near = sorted(_neighbors(model, u))
    leaf = marginal(joint, (u, *near))[None]
    payoff, probes = 0.0, []
    for revealed, wagers in tables:
        table = _probe_stack(leaf, [2 + near.index(v) for v in revealed], ())[0]
        p_ui = table[..., 0]
        p_u = p_ui.sum(axis=tuple(range(1, p_ui.ndim)), keepdims=True)
        cov = p_ui - p_u * p_ui.sum(axis=0, keepdims=True)
        payoff += float((cov * wagers).sum())
        probes.append((revealed, float(np.abs(cov).sum()), table))
    scale = model.arities[u] * len(tables)
    return payoff / scale, sum(dev for _, dev, _ in probes) / scale, probes


def _rounds(
    model: MarkovRandomField,
    u: int,
    rounds: int,
    rng: np.random.Generator,
    joint: JointTable | None,
):
    """Simulate independent rounds at u, rejecting an isolated target
    before the joint is built.

    Draws X and X' (one row per round), then the challenges, then the
    probe-set indices, and returns per round the revealed set, its
    states in X, the challenge, Bob's wager and his payoff.
    """
    tables = _wager_tables(model, u)
    if not tables:
        raise ValueError(f"node {u} is isolated; the reveal draw is empty")
    joint = joint or exact_joint(model)
    draw = inverse_cdf_sampler(joint.probs, rng)
    x = draw(rounds)
    x_prime = draw(rounds)
    challenges = rng.integers(model.arities[u], size=rounds)
    which = rng.integers(len(tables), size=rounds)
    revealed = np.array([probe for probe, _ in tables])[which]
    states = np.take_along_axis(x, revealed, axis=1)
    wagers = np.empty(rounds)
    for t, (_, table) in enumerate(tables):
        mask = which == t
        wagers[mask] = table[(challenges[mask],) + tuple(states[mask].T)]
    hit = (x[:, u] == challenges).astype(float)
    miss = (x_prime[:, u] == challenges).astype(float)
    return revealed, states, challenges, wagers, wagers * (hit - miss)


def play_round(
    model: MarkovRandomField, u: int, rng: np.random.Generator, joint: JointTable | None = None
) -> GameRound:
    """Simulate one round; rejects isolated targets (no subset to reveal)."""
    revealed, states, challenge, wager, payoff = (
        column[0] for column in _rounds(model, u, 1, rng, joint)
    )
    return GameRound(
        u,
        tuple(int(v) for v in revealed),
        tuple(int(x) for x in states),
        int(challenge),
        float(wager),
        float(payoff),
    )


def expected_payoff_exact(
    model: MarkovRandomField, u: int, joint: JointTable | None = None
) -> float:
    """E[payoff] of Bob's strategy by exact summation.

    Only the joint law of (X_u, X_I) enters: conditioning on the
    challenge and probe set, the payoff reduces to the covariance
    between the wager and the indicator of the challenged state.
    """
    return _probes(model, u, joint)[0]


def expected_payoff_mc(
    model: MarkovRandomField, u: int, rounds: int, seed: int, joint: JointTable | None = None
) -> tuple[float, float]:
    """Monte-Carlo mean payoff and its standard error over independent rounds."""
    if rounds < 1:
        raise ValueError("need at least one round")
    payoffs = _rounds(model, u, rounds, spawn_rng(seed, "game"), joint)[-1]
    mean = float(payoffs.mean())
    se = float(payoffs.std(ddof=1) / math.sqrt(rounds)) if rounds > 1 else 0.0
    return mean, se


def payoff_lower_bound(alpha: float, delta: float, r: int, gamma: float) -> float:
    """Guaranteed expected payoff for a node in an alpha-nonvanishing
    maximal hyperedge: 4 alpha^2 delta^(r-1) / (r^(2r) e^(2 gamma))."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha={alpha} must be positive and finite")
    return 4.0 * alpha**2 * delta ** (r - 1) / (r ** (2 * r) * math.exp(2.0 * gamma))


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


def payoff_upper_bound_check(
    model: MarkovRandomField, u: int, joint: JointTable | None = None
) -> dict:
    """Verify that no strategy can beat the marginal-deviation cap.

    Checks E[payoff] <= cap * E_{I, X_I, R} |P(X_u = R | X_I) - P(X_u = R)|,
    which can hold with equality for perfectly symmetric models.
    """
    exact, deviation, _ = _probes(model, u, joint)
    upper = wager_cap(model) * deviation
    return {"node": u, "exact": exact, "upper": upper, "slack": upper - exact,
            "ok": exact <= upper + SLACK}


def _probe_stack(leaves: np.ndarray, group, cond) -> np.ndarray:
    """The (L, u, I..., S) tables, S flattened, of L stacked (u, N(u)..., K...)
    leaves; `group` and `cond` name axes of the stack, u's being 1."""
    keep = [0, 1, *group, *cond]
    kept = sorted(keep)
    summed = np.add.reduce(leaves, axis=tuple([a for a in range(2, leaves.ndim) if a not in keep]))
    table = np.ascontiguousarray(summed.transpose([kept.index(a) for a in keep]))
    return table.reshape(table.shape[: 2 + len(group)] + (-1,))


def _probe_means(joint: JointTable, u: int, conds: list[tuple[int, ...]]) -> list[float]:
    """``mean_nu_over_probe_sets`` of u under each conditioning set S.

    A copy of the joint in (u, N(u)..., far...) order roots a prefix tree of
    single-axis sums; the leaf of K = S - N(u), the state after K's last kept
    axis with its tail summed as ``marginal`` sums it, depends on K alone.
    Leaves of one S layout and shape are stacked, their tables reduced once
    past PENDING_JOINTS joints' worth of cells."""
    model = joint.model
    near = sorted(_neighbors(model, u))
    nodes = [u, *near] + [v for v in range(model.n) if v != u and v not in near]
    lead, place, waiting = 1 + len(near), dict(zip(nodes, range(model.n))), {}
    for i, cond in enumerate(conds):  # K and S as axes of the root, then of a leaf stack
        _check_nodes((u, *cond), model.n, "u and S")
        axes = [place[v] for v in cond]
        k = tuple(sorted([a for a in axes if a >= lead]))
        waiting.setdefault(k, []).append((i, tuple([1 + (a if a < lead else lead + k.index(a))
                                                    for a in axes])))

    def flush(pending):  # every probe table of the pending leaves, reduced at once
        rows, owners = [], []
        for (axes, _), items in pending.items():
            leaves = np.stack([leaf for _, leaf in items]) if items[1:] else items[0][1][None]
            for group in _probe_sets(model, u, frozenset(nodes[a - 1] for a in axes if a <= lead)):
                rows += list(_probe_stack(leaves, [1 + place[v] for v in group], axes))
                owners += [i for i, _ in items]
        for i, (nu, _) in zip(owners, _nu_of_tables(rows)):  # in order, as the chain sums
            sums[i], counts[i] = sums[i] + nu, counts[i] + 1

    root = np.ascontiguousarray(joint.probs.transpose(nodes))
    path, pending, held = [((), root, lead)], {}, 0
    sums, counts = [0.0] * len(conds), [0] * len(conds)
    for k in sorted(waiting):  # depth first: a prefix before its extensions
        while path[-1][0] != k[: len(path[-1][0])]:
            path.pop()
        while len(path[-1][0]) < len(k):
            kept, state, start = path.pop()
            for _ in range(start, k[len(kept)]):
                state = np.add.reduce(state, axis=lead + len(kept))
            path += [(kept, state, k[len(kept)]), (k[: len(kept) + 1], state, k[len(kept)] + 1)]
        state, start = path[-1][1:]
        run = min(model.n - start, model.n - 1 - max(nodes[:lead]))  # marginal's trailing run
        leaf = _sum_tail(_sum_tail(state, state.ndim - run, RUN_CELLS), lead + len(k), 2)
        for i, axes in waiting[k]:
            pending.setdefault((axes, leaf.shape), []).append((i, leaf))
            held += leaf.size
            if held > PENDING_JOINTS * root.size:
                flush(pending)
                pending, held = {}, 0
    flush(pending)
    return [total / count for total, count in zip(sums, counts)]


def mean_nu_over_probe_sets(joint: JointTable, u: int, cond: tuple[int, ...] = ()) -> float:
    """Average exact nu over the uniform probe draw: I ranges over the
    size-s subsets of u's neighbors outside the conditioning set."""
    if _neighbors(joint.model, u) <= set(cond):
        raise ValueError(f"conditioning set covers the whole neighborhood of {u}")
    return _probe_means(joint, u, [cond])[0]


def _qualifying_nodes(model: MarkovRandomField, alpha: float):
    """Yield (u, some_strong, all_strong) for every non-isolated node u:
    whether some / every maximal hyperedge containing it is
    alpha-nonvanishing.  A non-isolated node always lies in a maximal
    hyperedge of two or more nodes."""
    degrees = clique_graph(model).degrees
    maximal = _maximal_hyperedges(model)
    for u in range(model.n):
        if degrees[u] == 0:
            continue
        containing = [h for h in maximal if u in h]
        strong = [h for h in containing if model.potentials[h].max_abs() >= alpha]
        yield u, bool(strong), len(strong) == len(containing)


def detection_floors(model: MarkovRandomField, alpha: float) -> DetectionFloors:
    """The model's detection floors at nonvanishing level alpha; the
    learner's theoretical tau is half the conditioned one."""
    consts = compute_gamma_delta(model)
    return theoretical_constants(
        consts.gamma, consts.max_arity, alpha, model.r, consts.max_degree, consts.delta
    )


def verify_payoff_bounds(
    model: MarkovRandomField, alpha: float, joint: JointTable | None = None
) -> list[dict]:
    """Exact payoff per non-isolated node, against its guaranteed floor
    where the node qualifies and against zero elsewhere."""
    joint = joint or exact_joint(model)
    consts = compute_gamma_delta(model)
    bound = payoff_lower_bound(alpha, consts.delta, model.r, consts.gamma)
    records = []
    for u, strong, _ in _qualifying_nodes(model, alpha):
        exact = expected_payoff_exact(model, u, joint)
        floor = bound if strong else 0.0
        records.append({"node": u, "exact": exact, "bound": floor, "qualifies": strong,
                        "ok": exact >= floor - SLACK})
    return records


def verify_mi_chain(
    model: MarkovRandomField, alpha: float, joint: JointTable | None = None
) -> list[dict]:
    """Check every link from the game payoff to the unconditional
    detection floor, per non-isolated node; the floor applies where the
    node qualifies."""
    joint = joint or exact_joint(model)
    floors = detection_floors(model, alpha)
    records = []
    for u, qual, _ in _qualifying_nodes(model, alpha):
        payoff, deviation, probes = _probes(model, u, joint)
        links_ok = payoff <= wager_cap(model) * deviation + SLACK
        nus = [nu for nu, _ in _nu_of_tables([table for _, _, table in probes])]
        for (revealed, dev, table), nu in zip(probes, nus):
            links_ok &= math.sqrt(_mi_of_table(table) / 2.0) >= nu - SLACK
            # for S empty, dev / k_u is exactly nu summed over I's configurations
            k_revealed = math.prod(model.arities[v] for v in revealed)
            links_ok &= abs(nu * k_revealed - dev / model.arities[u]) <= SLACK
        mean_nu = float(np.cumsum(nus)[-1] / len(nus))  # in order, as the floor sums
        floor = floors.unconditional if qual else 0.0
        records.append({"node": u, "mean_nu": mean_nu, "floor": floor, "qualifies": qual,
                        "links_ok": links_ok, "ok": links_ok and mean_nu >= floor - SLACK})
    return records


def verify_conditioned_floor(
    model: MarkovRandomField, alpha: float, max_cond_size: int, joint: JointTable | None = None
) -> list[dict]:
    """Exhaustively check the conditioned detection floor: for every node
    whose maximal hyperedges are all alpha-nonvanishing and every
    conditioning set (up to the size cap) that misses a neighbor, the
    probe-averaged exact nu clears the conditioned floor; one
    ``_probe_means`` per node."""
    if max_cond_size < 0:
        raise ValueError(f"max_cond_size={max_cond_size} must be non-negative")
    joint = joint or exact_joint(model)
    floors = detection_floors(model, alpha)
    neighbors = clique_graph(model).neighbors
    records = []
    for u, _, all_strong in _qualifying_nodes(model, alpha):
        if not all_strong:
            continue
        others = [v for v in range(model.n) if v != u]
        conds = [cond for size in range(max_cond_size + 1)
                 for cond in itertools.combinations(others, size)
                 if not neighbors[u] <= set(cond)]
        for cond, mean_nu in zip(conds, _probe_means(joint, u, conds)):
            records.append({"node": u, "cond": cond, "mean_nu": mean_nu,
                            "floor": floors.conditioned,
                            "ok": mean_nu >= floors.conditioned - SLACK})
    return records
