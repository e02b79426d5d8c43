"""Count tables, the nu-hat estimator, and sample-size formulas.

nu-hat measures, from samples, how far the joint conditional law of
(X_u, X_I) given X_S sits from the product of its conditional marginals:

    nu_hat = mean over states (R, G) of the empirically weighted sum over
    observed x_S of |Phat(u=R, I=G | x_S) - Phat(u=R | x_S) Phat(I=G | x_S)|

nu-hat depends on a sample only through its empirical joint, so the
estimators read counts over an extended alphabet: node v's states
0..k_v - 1 plus one extra state k_v for an erased cell.  An
``EmpiricalDistribution`` keeps a stored sample set as its distinct rows
of compact columns (``_distinct_rows`` of its ``_extended_block``) and
the int64 count of each.  For these, one kernel, ``_count_tables``,
serves a whole sweep: for a fixed (u, S) it labels each row once by its
conditioning configuration (rows erasing a member of S get one extra
"dropped" label), then, per probe set I, adds the digits of I and u and
sums the rows' counts with one bincount.  Slicing off the erased state
of the I and u axes and the dropped label leaves the complete-case
(u, I..., S) count table.  A bounded query returns no rows: the
``QueryOracle`` hands back the batch's count table over the nodes asked,
axes in the order requested, each over the extended alphabet: dense when
it has at most one cell per sample, else sparse, its occupied cells and
their counts.  ``nu_hat_queried`` drops the erased states from the table
of (S..., I..., u).  ``inference._nu_of_tables`` is the one reducer of
(u, I..., S) tables, exact or counted, one stack per table shape; the
queried table is laid out as the kernel's tables are, so that both
reduce in one order.  Conditioning configurations never observed
contribute zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .inference import _check_disjoint, _check_nodes, _nu_of_table, _nu_of_tables
from .sampling import ERASED, SampleSet, _count_table, inverse_cdf_tally, spawn_rng


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
    groups = [_check_disjoint(u, group, cond, len(arities))[0] for group in groups]
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

    `source(m, nodes)` returns the count table of the next m samples over
    the listed nodes: its axes follow the order of `nodes`, and node v's
    axis runs over the extended alphabet k_v + 1 of `arities`, state k_v
    counting the samples that erase v.  As ``sampling._count_table``
    gives it, a table of at most m cells is a dense int64 array, and a
    larger one is sparse, ``(cells, counts)``: its occupied cells as
    ascending flat C-order indices, and their int64 counts.  Either form
    stays within the size of the batch.
    """

    source: Callable[[int, list[int]], np.ndarray | tuple[np.ndarray, np.ndarray]]
    arities: tuple[int, ...]
    capacity: int
    consumed: int = 0
    queries_issued: int = 0
    max_query_size: int = 0

    @classmethod
    def from_joint(cls, joint, capacity: int, seed: int) -> "QueryOracle":
        """Back the oracle by fresh exact draws from a joint table."""
        tally = inverse_cdf_tally(joint.probs, spawn_rng(seed, "oracle"))
        return cls(source=tally, arities=joint.arities, capacity=capacity)

    @classmethod
    def from_samples(cls, samples: SampleSet, capacity: int) -> "QueryOracle":
        """Back the oracle by a finite pre-drawn stream, whose rows may be
        erased; raises when spent."""
        cursor = {"pos": 0}
        data, arities = samples.data, samples.arities

        def tally(m: int, nodes: list[int]) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
            if cursor["pos"] + m > data.shape[0]:
                raise RuntimeError("sample stream exhausted")
            sub_arities = [arities[v] for v in nodes]
            block = _extended_block(data[cursor["pos"] : cursor["pos"] + m, nodes], sub_arities)
            cursor["pos"] += m
            code = np.zeros(m, dtype=np.intp)
            for row, k in zip(block, sub_arities):
                code = code * (k + 1) + row
            return _count_table(code, tuple(k + 1 for k in sub_arities))

        return cls(source=tally, arities=arities, capacity=capacity)

    def query(
        self, nodes: tuple[int, ...], m_batch: int
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """The count table of m_batch fresh samples over `nodes`, axes in
        the order given: dense up to m_batch cells, else sparse (see the
        class docstring)."""
        nodes = tuple(int(v) for v in nodes)
        _check_nodes(nodes, len(self.arities), "the query")
        if len(nodes) > self.capacity:
            raise QueryCapacityError(
                f"query of size {len(nodes)} exceeds capacity {self.capacity}"
            )
        if math.prod(self.arities[v] + 1 for v in nodes) > 1 << 62:
            raise ValueError(f"the count table of nodes {nodes} is too large to code in 64 bits")
        if not float(m_batch).is_integer():
            raise ValueError(f"batch size must be an integer, got {m_batch!r}")
        m_batch = int(m_batch)
        if m_batch < 1:
            raise ValueError("batch size must be >= 1")
        table = self.source(m_batch, list(nodes))
        self.consumed += m_batch
        self.queries_issued += 1
        self.max_query_size = max(self.max_query_size, len(nodes))
        return table


#: most entries in one lookup table of ``_plain_codes``
_RUN_CELLS = 4096


def _plain_codes(code: np.ndarray, arities: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Recode mixed-radix codes over the extended alphabets of `arities`
    (k_v + 1 states, the last node least significant) over the plain
    alphabets: ``(plain, revealed)``, where `revealed` marks the codes
    that erase no node and `plain` is meaningless elsewhere.

    The nodes are decoded a run at a time, from the last, through a
    lookup table of the run's extended codes (at most ``_RUN_CELLS``
    entries), so a run costs one division per code, not one per node.
    """
    plain = np.zeros_like(code)
    revealed = np.ones(code.shape, dtype=bool)
    stride, end = 1, len(arities)
    while end > 0:
        start = end - 1
        while start > 0 and math.prod(k + 1 for k in arities[start - 1 : end]) <= _RUN_CELLS:
            start -= 1
        run = arities[start:end]
        states = np.indices(tuple(k + 1 for k in run)).reshape(len(run), -1)
        table = np.ravel_multi_index(states, run, mode="clip")
        table[(states == np.array(run)[:, None]).any(axis=0)] = -1
        code, part = np.divmod(code, table.size)
        part = table[part]
        revealed &= part >= 0
        plain += part * stride
        stride *= math.prod(run)
        end = start
    return plain, revealed


def _complete_cells(
    cells: np.ndarray, counts: np.ndarray, arities: tuple[int, ...], n_cond: int, m_batch: int
) -> np.ndarray:
    """The complete-case (S, I..., u) table of a sparse (S..., I..., u)
    count table whose first `n_cond` axes are S, in C order.

    Each occupied cell splits into its S part and its (I, u) part, each
    recoded over the plain alphabets; a cell erasing a node of (I, u) is
    dropped, and one erasing a node of S is also left out of the S
    configurations seen.  When S has more configurations than the batch
    has rows, only the seen ones, ascending, label the first axis, as
    ``_count_tables`` does.
    """
    k_s, k_iu = arities[:n_cond], arities[n_cond:]
    s, iu = np.divmod(cells, math.prod(k + 1 for k in k_iu))
    s, s_revealed = _plain_codes(s, k_s)
    iu, iu_revealed = _plain_codes(iu, k_iu)
    n_s = math.prod(k_s)
    if n_s > m_batch:
        # the cells ascend, so the S codes of those revealing all of S do
        seen = s[s_revealed]
        seen = seen[np.diff(seen, prepend=-1) != 0]
        n_s, s = seen.size, np.searchsorted(seen, s)
    complete = s_revealed & iu_revealed
    table = np.zeros((n_s, math.prod(k_iu)), dtype=np.int64)
    table[s[complete], iu[complete]] = counts[complete]
    return table.reshape((n_s,) + k_iu)


def nu_hat_queried(
    oracle: QueryOracle,
    u: int,
    group: tuple[int, ...],
    cond: tuple[int, ...],
    m_batch: int,
) -> float:
    """nu-hat over one fresh batch obtained through a bounded query.

    The query's (S..., I..., u) count table, its erased states dropped
    and S flattened, is laid out as ``_count_tables`` leaves its tables:
    (u, I..., S) axes over (S, I..., u) memory.  A dense table has at
    most m_batch cells, so S never outgrows the batch there; a sparse
    one goes through ``_complete_cells``.
    """
    group, cond = _check_disjoint(u, group, cond, len(oracle.arities))
    nodes = cond + group + (u,)
    arities = tuple(oracle.arities[v] for v in nodes)
    table = oracle.query(nodes, m_batch)
    if isinstance(table, tuple):
        complete = _complete_cells(*table, arities, len(cond), m_batch)
    else:
        complete = table[tuple(map(slice, arities))]
        complete = complete.reshape((-1,) + arities[len(cond) :])
    value, usable = _nu_of_table(complete.swapaxes(0, -1))
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
