"""Count tables, the nu-hat estimator, and sample-size formulas.

nu-hat measures, from samples, how far the joint conditional law of
(X_u, X_I) given X_S sits from the product of its conditional marginals:

    nu_hat = mean over states (R, G) of the empirically weighted sum over
    observed x_S of |Phat(u=R, I=G | x_S) - Phat(u=R | x_S) Phat(I=G | x_S)|

Samples are read as compact "extended alphabet" columns: node v's states
0..k_v - 1 plus one extra state k_v for an erased cell.  One kernel,
``_count_tables``, serves every estimator: for a fixed (u, S) it labels
each row once by its conditioning configuration (rows erasing a member
of S get one extra "dropped" label), then, per probe set I, adds the
digits of I and u and counts the rows with one bincount.  Slicing off
the erased state of the I and u axes and the dropped label leaves the
complete-case (u, I..., S) count table, which ``nu_from_marginals``
reduces; the count-weighted sum is divided by the number of counted rows
once at the end.  Conditioning configurations never observed contribute
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .inference import nu_from_marginals
from .sampling import ERASED, SampleSet, inverse_cdf_sampler, spawn_rng


class InsufficientCoverageError(RuntimeError):
    """No sample reveals all the nodes an estimate needs."""


class QueryCapacityError(ValueError):
    """A bounded query asked for more nodes than the oracle allows."""


@dataclass
class EmpiricalDistribution:
    """Read-only view of a sample set as extended-alphabet columns.

    Column v holds each row's state of node v, and k_v where the cell is
    erased, in the smallest unsigned dtype that holds every k_v.  The
    columns are filled one at a time, so no m-by-n temporary is made, and
    each is contiguous, so an evaluation costs the same however many
    nodes the sample has.
    """

    samples: SampleSet

    def __post_init__(self):
        data, arities = self.samples.data, self.samples.arities
        # one block: separately allocated columns fragment the heap
        self._columns = np.empty(
            (len(arities), data.shape[0]), np.min_scalar_type(max(arities, default=0))
        )
        for v, k in enumerate(arities):
            self._columns[v] = data[:, v]
            self._columns[v][data[:, v] == ERASED] = k

    def column(self, v: int) -> np.ndarray:
        return self._columns[v]

    @property
    def m(self) -> int:
        return self.samples.m

    @property
    def arities(self) -> tuple[int, ...]:
        return self.samples.arities


def _count_tables(
    column: Callable[[int], np.ndarray],
    arities: tuple[int, ...],
    u: int,
    groups: list[tuple[int, ...]],
    cond: tuple[int, ...],
) -> Iterator[np.ndarray]:
    """Complete-case counts of (X_u, X_I, X_S), one table with axes
    (u, I..., S) per probe set I in `groups`, all against one (u, S).

    `column(v)` is node v's extended column (k_v marks an erased cell).
    The S label of a row is the mixed-radix code of its conditioning
    states or, when S has more configurations than there are rows, the
    index of that code among the distinct ones, so a table never exceeds
    k_u * prod(k_I) * m cells; rows erasing a member of S get the extra
    label n_S.  Each probe set then codes (S, I..., u) over the extended
    alphabets of I and u, S most significant, and one bincount lays the
    counts out as (S, I..., u); rows erasing u or a member of I land in
    the erased state of that axis.
    """
    groups = [_check_disjoint(u, group, cond)[0] for group in groups]
    cond = tuple(int(v) for v in cond)
    n_s = math.prod(arities[v] for v in cond)
    for group in groups:
        if arities[u] * math.prod(arities[v] for v in group) * n_s > 1 << 62:
            raise ValueError("joint state space too large to code in 64 bits")
    col_u = column(u)
    m = col_u.size
    dropped = np.zeros(m, dtype=bool)
    label = np.zeros(m, dtype=np.int64)
    for v in cond:
        col = column(v)
        label = label * arities[v] + col
        dropped |= col == arities[v]
    label[dropped] = n_s
    if n_s > m:
        codes, label = np.unique(label, return_inverse=True)
        n_s = codes.size - int(dropped.any())
    k_u = arities[u] + 1
    bases = {}  # S-and-u part of the code, by the size of one S slab
    for group in groups:
        k_group = tuple(arities[v] + 1 for v in group)
        slab = math.prod(k_group) * k_u
        if slab not in bases:
            bases[slab] = label * slab + col_u
        code = bases[slab]
        stride = k_u
        for v, k in zip(reversed(group), reversed(k_group)):
            # an int64 stride keeps a compact column's product from wrapping
            code = code + column(v) * np.int64(stride)
            stride *= k
        counts = np.bincount(code, minlength=(n_s + 1) * slab)
        table = counts.reshape((n_s + 1,) + k_group + (k_u,))
        complete = table[(slice(n_s),) + tuple(slice(k - 1) for k in k_group + (k_u,))]
        yield complete.swapaxes(0, -1)


def _nu_of_counts(table: np.ndarray) -> tuple[float, int]:
    """nu-hat from a (u, I..., S) count table and the number of rows it
    counts; (0.0, 0) when it counts none."""
    c_us = table.sum(axis=tuple(range(1, table.ndim - 1)))
    c_s = c_us.sum(axis=0)
    usable = int(c_s.sum())
    if usable == 0:
        return 0.0, 0
    return nu_from_marginals(table, c_us, table.sum(axis=0), c_s) / usable, usable


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


def nu_hat_sweep(
    emp: EmpiricalDistribution,
    u: int,
    groups: list[tuple[int, ...]],
    cond: tuple[int, ...] = (),
) -> list[float]:
    """nu_hat for every probe set in `groups` against one (u, S=cond)."""
    values = []
    for table in _count_tables(emp.column, emp.arities, u, groups, cond):
        value, usable = _nu_of_counts(table)
        if usable != emp.m:
            raise ValueError("samples contain erasures; use nu_hat_erased")
        if usable == 0:
            raise InsufficientCoverageError("no complete samples for this node set")
        values.append(value)
    return values


def nu_hat(
    emp: EmpiricalDistribution, u: int, group: tuple[int, ...], cond: tuple[int, ...] = ()
) -> float:
    """Estimate nu for (u, I=group | S=cond) from complete samples."""
    return nu_hat_sweep(emp, u, [group], cond)[0]


def nu_hat_erased_sweep(
    emp: EmpiricalDistribution,
    u: int,
    groups: list[tuple[int, ...]],
    cond: tuple[int, ...] = (),
) -> list[tuple[float, int]]:
    """Complete-case nu-hat and usable-sample count for every probe set in
    `groups` against one (u, S=cond); a probe set no sample reveals gets
    (0.0, 0)."""
    return [
        _nu_of_counts(table)
        for table in _count_tables(emp.column, emp.arities, u, groups, cond)
    ]


def nu_hat_erased(
    emp: EmpiricalDistribution, u: int, group: tuple[int, ...], cond: tuple[int, ...] = ()
) -> tuple[float, int]:
    """Complete-case nu-hat: use only samples revealing every needed node.

    Returns the estimate together with the number of usable samples.
    """
    value, usable = nu_hat_erased_sweep(emp, u, [group], cond)[0]
    if usable == 0:
        nodes = sorted(int(v) for v in (u, *group, *cond))
        raise InsufficientCoverageError(f"no sample reveals all of nodes {nodes}")
    return value, usable


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
    extended = np.where(block == ERASED, [arities[v] for v in nodes], block).T
    pos = {v: j for j, v in enumerate(nodes)}
    (table,) = _count_tables(lambda v: extended[pos[v]], arities, u, [group], cond)
    value, usable = _nu_of_counts(table)
    if usable == 0:
        raise InsufficientCoverageError("no complete samples for this node set")
    return value


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
