"""Count tables, the nu-hat estimator, and sample-size formulas.

nu-hat measures, from samples, how far the joint conditional law of
(X_u, X_I) given X_S sits from the product of its conditional marginals:

    nu_hat = mean over states (R, G) of the empirically weighted sum over
    observed x_S of |Phat(u=R, I=G | x_S) - Phat(u=R | x_S) Phat(I=G | x_S)|

Every estimator builds one integer count table over (u, I..., S) and
hands it to ``nu_from_marginals``; the count-weighted sum is divided by
the number of usable rows once at the end.  Conditioning configurations
never observed contribute zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .inference import nu_from_marginals
from .sampling import ERASED, SampleSet, inverse_cdf_sampler, spawn_rng


class InsufficientCoverageError(RuntimeError):
    """No sample reveals all the nodes an estimate needs."""


class QueryCapacityError(ValueError):
    """A bounded query asked for more nodes than the oracle allows."""


@dataclass
class EmpiricalDistribution:
    """Read-only view of a sample set with exact event counting.

    Columns are stored contiguously so that repeated nu-hat evaluations
    cost the same regardless of how many nodes the sample matrix has.
    """

    samples: SampleSet

    def __post_init__(self):
        self._columns = np.ascontiguousarray(self.samples.data.T)

    def column(self, v: int) -> np.ndarray:
        return self._columns[v]

    @property
    def m(self) -> int:
        return self.samples.m

    @property
    def arities(self) -> tuple[int, ...]:
        return self.samples.arities


def _count_table(
    column: Callable[[int], np.ndarray],
    arities: tuple[int, ...],
    u: int,
    group: tuple[int, ...],
    cond: tuple[int, ...],
) -> tuple[np.ndarray, int]:
    """Counts of (X_u, X_I, X_S) over the rows of `column(v)`, as a table
    with axes (u, I..., S), and the number of rows dropped because they
    erase a needed cell.

    The S axis is the mixed-radix code of the conditioning columns or,
    when S has more configurations than there are rows, the index of each
    row's code among the distinct codes, so the table never exceeds
    k_u * prod(k_I) * m cells.
    """
    m = column(u).size
    block = arities[u] * math.prod(arities[v] for v in group)
    n_s = math.prod(arities[v] for v in cond)
    if block * n_s > 1 << 62:
        raise ValueError("joint state space too large to code in 64 bits")
    dropped = np.zeros(m, dtype=bool)
    for v in (u,) + group + cond:
        dropped |= column(v) == ERASED
    # S is the most significant digit and u the least, so one bincount
    # lays the table out as (S, I..., u)
    code = np.zeros(m, dtype=np.int64)
    for v in cond:
        code = code * arities[v] + column(v)
    if n_s > m:
        labels, code = np.unique(code, return_inverse=True)
        n_s = labels.size
    for v in group + (u,):
        code = code * arities[v] + column(v)
    code[dropped] = block * n_s
    counts = np.bincount(code, minlength=block * n_s + 1)
    shape = (n_s,) + tuple(arities[v] for v in group) + (arities[u],)
    return counts[:-1].reshape(shape).swapaxes(0, -1), int(counts[-1])


def _nu_of_counts(table: np.ndarray, usable: int) -> float:
    """nu-hat from a (u, I..., S) count table over `usable` rows."""
    if usable == 0:
        raise InsufficientCoverageError("no complete samples for this node set")
    c_us = table.sum(axis=tuple(range(1, table.ndim - 1)))
    c_is = table.sum(axis=0)
    return nu_from_marginals(table, c_us, c_is, c_us.sum(axis=0)) / usable


def _check_disjoint(u: int, group: tuple[int, ...], cond: tuple[int, ...]):
    group = tuple(int(v) for v in group)
    cond = tuple(int(v) for v in cond)
    if not group:
        raise ValueError("the probed set I must be nonempty")
    if u in group or u in cond or set(group) & set(cond):
        raise ValueError(f"u={u}, I={group}, S={cond} must be disjoint")
    if len(set(group)) != len(group) or len(set(cond)) != len(cond):
        raise ValueError("repeated nodes in I or S")
    return group, cond


def nu_hat(
    emp: EmpiricalDistribution, u: int, group: tuple[int, ...], cond: tuple[int, ...] = ()
) -> float:
    """Estimate nu for (u, I=group | S=cond) from complete samples."""
    group, cond = _check_disjoint(u, group, cond)
    table, dropped = _count_table(emp.column, emp.arities, u, group, cond)
    if dropped:
        raise ValueError("samples contain erasures; use nu_hat_erased")
    return _nu_of_counts(table, emp.m)


def nu_hat_erased(
    emp: EmpiricalDistribution, u: int, group: tuple[int, ...], cond: tuple[int, ...] = ()
) -> tuple[float, int]:
    """Complete-case nu-hat: use only samples revealing every needed node.

    Returns the estimate together with the number of usable samples.
    """
    group, cond = _check_disjoint(u, group, cond)
    table, dropped = _count_table(emp.column, emp.arities, u, group, cond)
    usable = emp.m - dropped
    if usable == 0:
        raise InsufficientCoverageError(
            f"no sample reveals all of nodes {sorted((u,) + group + cond)}"
        )
    return _nu_of_counts(table, usable), usable


@dataclass
class QueryOracle:
    """Serves bounded queries: per fresh sample, observe at most
    `capacity` nodes of your choosing.  Stateful; one consumer at a time."""

    source: Callable[[int], np.ndarray]
    capacity: int
    consumed: int = 0
    queries_issued: int = 0
    max_query_size: int = 0

    @classmethod
    def from_joint(cls, joint, capacity: int, seed: int) -> "QueryOracle":
        """Back the oracle by fresh exact draws from a joint table."""
        draw = inverse_cdf_sampler(joint.probs, spawn_rng(seed, "oracle"))
        return cls(source=draw, capacity=capacity)

    @classmethod
    def from_samples(cls, samples: SampleSet, capacity: int) -> "QueryOracle":
        """Back the oracle by a finite pre-drawn stream; raises when spent."""
        cursor = {"pos": 0}
        data = samples.data

        def draw(m: int) -> np.ndarray:
            if cursor["pos"] + m > data.shape[0]:
                raise RuntimeError("sample stream exhausted")
            out = data[cursor["pos"] : cursor["pos"] + m]
            cursor["pos"] += m
            return out

        return cls(source=draw, capacity=capacity)

    def query(self, nodes: tuple[int, ...], m_batch: int) -> np.ndarray:
        """Observe the given nodes on m_batch fresh samples."""
        nodes = tuple(sorted(int(v) for v in nodes))
        if len(nodes) > self.capacity:
            raise QueryCapacityError(
                f"query of size {len(nodes)} exceeds capacity {self.capacity}"
            )
        if m_batch < 1:
            raise ValueError("batch size must be >= 1")
        full = self.source(m_batch)
        self.consumed += m_batch
        self.queries_issued += 1
        self.max_query_size = max(self.max_query_size, len(nodes))
        return full[:, list(nodes)]


def nu_hat_queried(
    oracle: QueryOracle,
    u: int,
    group: tuple[int, ...],
    cond: tuple[int, ...],
    m_batch: int,
    arities: tuple[int, ...],
) -> float:
    """nu-hat over one fresh batch obtained through a bounded query."""
    group, cond = _check_disjoint(u, group, cond)
    nodes = tuple(sorted((u,) + group + cond))
    block = oracle.query(nodes, m_batch)
    pos = {v: j for j, v in enumerate(nodes)}
    table, dropped = _count_table(lambda v: block[:, pos[v]], arities, u, group, cond)
    return _nu_of_counts(table, len(block) - dropped)


def _log_bracket(ell: float, omega: float, n: int, k_max: int, r: int) -> float:
    return (
        math.log(1.0 / omega)
        + math.log(ell + r)
        + (ell + r) * math.log(n * k_max)
        + math.log(2.0)
    )


def log10_required_samples_full(
    ell: float, eps: float, omega: float, n: int, k_max: int, r: int, delta: float
) -> float:
    """log10 of the full-observation sample bound; finite even when the
    bound itself overflows floats."""
    if min(ell, eps, omega, n, k_max, r, delta) <= 0:
        raise ValueError("all parameters must be positive")
    log_m = (
        math.log(15.0)
        + 2 * ell * math.log(k_max)
        - 2 * math.log(eps)
        - 2 * ell * math.log(delta)
        + math.log(_log_bracket(ell, omega, n, k_max, r))
    )
    return log_m / math.log(10.0)


def required_samples_full(
    ell: float, eps: float, omega: float, n: int, k_max: int, r: int, delta: float
) -> int:
    """Samples guaranteeing every nu-hat with |S| <= ell is eps-accurate
    with probability 1 - omega.  Raises OverflowError when the value
    exceeds float range; use the log10 variant for reporting then."""
    if min(ell, eps, omega, n, k_max, r, delta) <= 0:
        raise ValueError("all parameters must be positive")
    try:
        value = (
            15.0
            * k_max ** (2.0 * ell)
            / (eps**2 * delta ** (2.0 * ell))
            * _log_bracket(ell, omega, n, k_max, r)
        )
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        log10_m = log10_required_samples_full(ell, eps, omega, n, k_max, r, delta)
        raise OverflowError(f"sample bound exceeds float range; log10(m) = {log10_m:.6g}")
    return math.ceil(value)


def _erased_inner_bound(
    budget: float, tau: float, omega: float, n: int, k_max: int, r: int, delta: float
) -> float:
    try:
        return (
            60.0
            * k_max ** (2.0 * budget)
            / (tau**2 * delta ** (2.0 * budget))
            * _log_bracket(budget, omega / 2.0, n, k_max, r)
        )
    except OverflowError:
        return math.inf


def log10_required_samples_erased(
    budget: float,
    tau: float,
    omega: float,
    n: int,
    k_max: int,
    r: int,
    delta: float,
    reveal_prob: float,
) -> float:
    """log10 of the erasure-mode sample bound."""
    if min(budget, tau, omega, n, k_max, r, delta, reveal_prob) <= 0:
        raise ValueError("all parameters must be positive")
    log_inner = (
        math.log(60.0)
        + 2 * budget * math.log(k_max)
        - 2 * math.log(tau)
        - 2 * budget * math.log(delta)
        + math.log(_log_bracket(budget, omega / 2.0, n, k_max, r))
    )
    log_outer = math.log(
        budget * math.log(n) + math.log(budget) + math.log(2.0 / omega) + log_inner
    )
    return (log_inner + log_outer - 2 * math.log(reveal_prob)) / math.log(10.0)


def required_samples_erased(
    budget: float,
    tau: float,
    omega: float,
    n: int,
    k_max: int,
    r: int,
    delta: float,
    reveal_prob: float,
) -> int:
    """Erasure-mode analogue of required_samples_full; reveal_prob is the
    probability a cell survives the channel."""
    if min(budget, tau, omega, n, k_max, r, delta, reveal_prob) <= 0:
        raise ValueError("all parameters must be positive")
    inner = _erased_inner_bound(budget, tau, omega, n, k_max, r, delta)
    if math.isfinite(inner):
        value = (
            inner
            * (budget * math.log(n) + math.log(budget) + math.log(2.0 * inner / omega))
            / reveal_prob**2
        )
        if math.isfinite(value):
            return math.ceil(value)
    log10_m = log10_required_samples_erased(
        budget, tau, omega, n, k_max, r, delta, reveal_prob
    )
    raise OverflowError(f"sample bound exceeds float range; log10(m) = {log10_m:.6g}")
