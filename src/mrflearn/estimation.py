"""Count tables, the nu-hat estimator, and sample-size formulas.

nu-hat measures, from samples, how far the joint conditional law of
(X_u, X_I) given X_S sits from the product of its conditional marginals:

    nu_hat = mean over states (R, G) of the empirically weighted sum over
    observed x_S of |Phat(u=R, I=G | x_S) - Phat(u=R | x_S) Phat(I=G | x_S)|

nu-hat depends on a sample only through its empirical joint, so the
estimators read a weighted row set: distinct rows of compact columns,
node v's states 0..k_v - 1 plus one extra state k_v for an erased cell,
each with a count.  An ``EmpiricalDistribution`` keeps a stored sample
set as its distinct rows (``_distinct_rows`` of its ``_extended_block``)
and the int64 count of each; a queried batch is its raw rows, each
counted once.  One kernel, ``_count_tables``, serves every estimator:
for a fixed (u, S) it labels each row once by its conditioning
configuration (rows erasing a member of S get one extra "dropped"
label), then, per probe set I, adds the digits of I and u and sums the
rows' counts with one bincount.  Slicing off the erased state of the I
and u axes and the dropped label leaves the complete-case (u, I..., S)
count table.  ``nu_hat_erased_sweep`` reduces a sweep's tables with
``inference._nu_of_tables``, the one reducer of (u, I..., S) tables,
exact or counted, one stack per table shape; a count table keeps the
layout the kernel's slicing leaves.  Conditioning configurations never
observed contribute zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .inference import _check_disjoint, _nu_of_table, _nu_of_tables
from .sampling import ERASED, SampleSet, inverse_cdf_sampler, spawn_rng


class InsufficientCoverageError(RuntimeError):
    """No sample reveals all the nodes an estimate needs."""


class QueryCapacityError(ValueError):
    """A bounded query asked for more nodes than the oracle allows."""


def _extended_block(data: np.ndarray, arities: Sequence[int]) -> np.ndarray:
    """The (n, m) extended-alphabet block of an (m, n) sample matrix.

    Row v holds each sample's state of column v, and k_v where the cell
    is erased, in the smallest unsigned dtype that holds every k_v.  The
    matrix is cast to that dtype before it is transposed, so no m-by-n
    int64 temporary is made; the cast wraps an ERASED (-1) cell to the
    dtype's largest value, above every state, and those cells are then
    set to k_v row by row.
    """
    dtype = np.min_scalar_type(max(arities, default=0))
    block = np.ascontiguousarray(data.astype(dtype).T)
    erased = np.array(ERASED).astype(dtype)
    for v, k in enumerate(arities):
        block[v][block[v] == erased] = k
    return block


def _distinct_rows(block: np.ndarray, arities: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of an extended block, in the block's dtype,
    and an int64 count for each.

    Each column is coded mixed-radix over k_v + 1 and the distinct codes
    are taken with ``np.unique``.  Before a digit would push the code
    space past 2^62, the partial code is relabelled by the index of each
    value among its distinct values, so no code wraps.  The distinct
    columns keep the order of the block columns they were taken from, not
    the order of their codes: in code order, runs of neighbouring columns
    fall into one table cell, and each bincount over them waits on its
    own previous add.
    """
    code = np.zeros(block.shape[1], dtype=np.int64)
    space = 1
    for v, k in enumerate(arities):
        if space * (k + 1) > 1 << 62:
            labels, code = np.unique(code, return_inverse=True)
            space = labels.size
        code = code * (k + 1) + block[v]
        space *= k + 1
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    order = np.argsort(first)
    return np.ascontiguousarray(block[:, first[order]]), counts[order].astype(np.int64, copy=False)


@dataclass
class EmpiricalDistribution:
    """Read-only view of a sample set as a weighted row set: its distinct
    extended-alphabet rows and the number of samples behind each
    (``counts``)."""

    samples: SampleSet

    def __post_init__(self):
        block = _extended_block(self.samples.data, self.samples.arities)
        self._columns, self.counts = _distinct_rows(block, self.samples.arities)

    def column(self, v: int) -> np.ndarray:
        """Node v's extended column over the distinct rows: its state in
        each, or k_v where the cell is erased; row j stands for
        ``counts[j]`` samples."""
        return self._columns[v]

    @property
    def m(self) -> int:
        return self.samples.m

    @property
    def arities(self) -> tuple[int, ...]:
        return self.samples.arities


def _count_tables(
    block: np.ndarray,
    arities: tuple[int, ...],
    u: int,
    groups: list[tuple[int, ...]],
    cond: tuple[int, ...],
    weights: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Complete-case counts of (X_u, X_I, X_S), one table with axes
    (u, I..., S) per probe set I in `groups`, all against one (u, S).

    Column j of `block` is one row of extended states (k_v marks an erased
    cell) and stands for ``weights[j]`` samples, or for one without
    `weights`; the tables hold the summed weights, in the weights' dtype.
    The S label of a row is the mixed-radix code of its conditioning
    states or, when S has more configurations than the block has rows, the
    index of that code among the distinct ones, so a table never exceeds
    k_u * prod(k_I) * rows cells; rows erasing a member of S get the extra
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
    col_u = block[u]
    m = col_u.size
    dropped = np.zeros(m, dtype=bool)
    label = np.zeros(m, dtype=np.int64)
    for v in cond:
        col = block[v]
        label = label * arities[v] + col
        dropped |= col == arities[v]
    label[dropped] = n_s
    if n_s > m:
        codes, label = np.unique(label, return_inverse=True)
        n_s = codes.size - int(dropped.any())
    # bincount sums float64 weights; converting once here spares a copy per table
    bin_weights = None if weights is None else weights.astype(float, copy=False)
    k_u = arities[u] + 1
    bases = {}  # S-and-u part of the code, by the size of one S slab
    # every probe set's code is built in these two buffers: a fresh array
    # per table costs more in page faults than the arithmetic
    buffer, digit = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    for group in groups:
        k_group = tuple(arities[v] + 1 for v in group)
        slab = math.prod(k_group) * k_u
        if slab not in bases:
            bases[slab] = label * slab + col_u
        code = bases[slab]
        stride = k_u
        for v, k in zip(reversed(group), reversed(k_group)):
            # an int64 stride keeps a compact column's product from wrapping
            code = np.add(code, np.multiply(block[v], np.int64(stride), out=digit), out=buffer)
            stride *= k
        counts = np.bincount(code, bin_weights, minlength=(n_s + 1) * slab)
        if weights is not None:
            counts = counts.astype(weights.dtype, copy=False)
        table = counts.reshape((n_s + 1,) + k_group + (k_u,))
        complete = table[(slice(n_s),) + tuple(slice(k - 1) for k in k_group + (k_u,))]
        yield complete.swapaxes(0, -1)


def nu_hat(
    emp: EmpiricalDistribution, u: int, group: tuple[int, ...], cond: tuple[int, ...] = ()
) -> float:
    """Estimate nu for (u, I=group | S=cond) from complete samples."""
    value, usable = nu_hat_erased_sweep(emp, u, [group], cond)[0]
    if usable != emp.m:
        raise ValueError("samples contain erasures; use nu_hat_erased")
    if usable == 0:
        raise InsufficientCoverageError("no complete samples for this node set")
    return value


def nu_hat_erased_sweep(
    emp: EmpiricalDistribution,
    u: int,
    groups: list[tuple[int, ...]],
    cond: tuple[int, ...] = (),
) -> list[tuple[float, int]]:
    """Complete-case nu-hat and usable-sample count for every probe set in
    `groups` against one (u, S=cond); a probe set no sample reveals gets
    (0.0, 0)."""
    return _nu_of_tables(list(_count_tables(emp._columns, emp.arities, u, groups, cond, emp.counts)))


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
    `capacity` nodes of your choosing.  Stateful; one consumer at a time.

    `source(m, nodes)` returns the next m samples at the listed nodes.
    """

    source: Callable[[int, list[int]], np.ndarray]
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

        def draw(m: int, nodes: list[int]) -> np.ndarray:
            if cursor["pos"] + m > data.shape[0]:
                raise RuntimeError("sample stream exhausted")
            out = data[cursor["pos"] : cursor["pos"] + m, nodes]
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
        block = self.source(m_batch, list(nodes))
        self.consumed += m_batch
        self.queries_issued += 1
        self.max_query_size = max(self.max_query_size, len(nodes))
        return block


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
    sub_arities = [arities[v] for v in nodes]
    block = _extended_block(oracle.query(nodes, m_batch), sub_arities)
    row = nodes.index  # u, I and S relabelled to their rows of the block
    group, cond = tuple(map(row, group)), tuple(map(row, cond))
    (table,) = _count_tables(block, sub_arities, row(u), [group], cond)
    value, usable = _nu_of_table(table)
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


def _from_log10(log10_m: float) -> int:
    """ceil(10 ** log10_m); past float range, OverflowError naming log10(m)."""
    try:
        return math.ceil(10.0**log10_m)
    except OverflowError:
        raise OverflowError(f"sample bound exceeds float range; log10(m) = {log10_m:.6g}") from None


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
    except (OverflowError, ZeroDivisionError):
        value = math.inf  # a factor left float range; the log form decides
    if math.isfinite(value):
        return math.ceil(value)
    return _from_log10(log10_required_samples_full(ell, eps, omega, n, k_max, r, delta))


def _erased_outer(outer: float) -> float:
    """The erased bound's outer bracket, which must be positive."""
    if not outer > 0:
        raise ValueError(
            "erased sample bound undefined: its outer bracket budget*ln(n) + "
            f"ln(budget) + ln(2*inner/omega) = {outer:.6g} is not positive"
        )
    return outer


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
    log_outer = math.log(_erased_outer(
        budget * math.log(n) + math.log(budget) + math.log(2.0 / omega) + log_inner
    ))
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
    try:
        inner = (
            60.0
            * k_max ** (2.0 * budget)
            / (tau**2 * delta ** (2.0 * budget))
            * _log_bracket(budget, omega / 2.0, n, k_max, r)
        )
        outer = _erased_outer(
            budget * math.log(n) + math.log(budget) + math.log(2.0 * inner / omega)
        )
        value = inner * outer / reveal_prob**2
    except (OverflowError, ZeroDivisionError):
        value = math.inf  # a factor left float range; the log form decides
    if math.isfinite(value):
        return math.ceil(value)
    return _from_log10(
        log10_required_samples_erased(budget, tau, omega, n, k_max, r, delta, reveal_prob)
    )
