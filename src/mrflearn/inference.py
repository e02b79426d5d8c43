"""Exact brute-force inference over small models.

Everything here enumerates the full configuration space, so it is only
meant for desk-scale verification: joint tables, exact conditional
mutual information, and the exact coupling statistic nu that the
learner estimates from samples.  The joint's log-density is one
``model._tensor_sum``.  A ``marginal`` sums the joint's trailing run of
unrequested axes, then the rest in one C-ordered copy, requested axes first;
``_uis_table`` makes every exact (u, I..., S) table from one, S
flattened.  One reducer, ``_nu_of_tables``, turns a sweep's tables into
nu and weight, one stack per table shape: of marginal probabilities here
(``exact_nu_sweep``; ``exact_nu`` is its sweep of one probe set), of
counts in ``estimation``.  Its margins step, ``_margins``, also gives
``_mi_of_table``, the table form of conditional MI, its sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import MarkovRandomField, _tensor_sum

#: refuse to enumerate joint tables beyond this many configurations
MAX_CONFIGURATIONS = 1 << 24
#: fewest cells of a trailing run a marginal sums before its copy (NumPy sums
#: a shorter one row by row at more cost than the copy saves)
RUN_CELLS = 64


class CapacityError(RuntimeError):
    """Raised when a model is too large for exact enumeration."""


@dataclass(frozen=True)
class JointTable:
    """Exact probabilities of every configuration of a model.

    ``probs`` has shape ``model.arities``; flattening it in C order gives
    the mixed-radix configuration indexing with node 0 as the most
    significant digit.
    """

    model: MarkovRandomField
    probs: np.ndarray
    log_partition: float

    @property
    def arities(self) -> tuple[int, ...]:
        return self.model.arities


def exact_joint(model: MarkovRandomField) -> JointTable:
    """Enumerate the normalized joint distribution of a small model."""
    total = model.configuration_count()
    if total > MAX_CONFIGURATIONS:
        raise CapacityError(
            f"{total} configurations exceed the exact-inference cap of {MAX_CONFIGURATIONS}"
        )
    logw = _tensor_sum(model.potentials.values(), range(model.n), model.arities)
    peak = float(logw.max())
    z = float(np.exp(logw - peak).sum())
    log_partition = peak + math.log(z)
    probs = np.exp(logw - log_partition)
    probs.flags.writeable = False
    return JointTable(model=model, probs=probs, log_partition=log_partition)


def marginal(joint: JointTable, nodes: tuple[int, ...]) -> np.ndarray:
    """Marginal table over the given nodes, axes in the order requested: the
    joint's trailing run of other nodes summed, then the rest as one."""
    _check_nodes(nodes, joint.model.n, "the marginal")
    head = _sum_tail(joint.probs, 1 + max(nodes, default=-1), RUN_CELLS)
    others = [v for v in range(head.ndim) if v not in nodes]
    return _sum_tail(np.ascontiguousarray(head.transpose([*nodes, *others])), len(nodes))


def _sum_tail(table: np.ndarray, lead: int, least: int = 1) -> np.ndarray:
    """A C-ordered `table` summed over its axes after the first `lead` as one
    block, or `table` itself where those hold fewer than `least` cells."""
    if math.prod(table.shape[lead:]) < least:
        return table
    return np.add.reduce(table.reshape(table.shape[:lead] + (-1,)), axis=-1)


def _check_nodes(nodes: tuple[int, ...], n: int, role: str) -> None:
    """Every node in 0..n-1 and none repeated; a ValueError names the
    first node that is not, and `role` says what the nodes are."""
    if not nodes or (0 <= min(nodes) and max(nodes) < n and len(set(nodes)) == len(nodes)):
        return
    for j, v in enumerate(nodes):
        if not 0 <= v < n:
            raise ValueError(f"node {v} is not a node of the model (0..{n - 1})")
        if v in nodes[:j]:
            raise ValueError(f"node {v} appears twice in {role} {nodes}")


def _check_disjoint(u: int, group: tuple[int, ...], cond: tuple[int, ...], n: int):
    """Validate a (u, I, S) triple for nu or conditional MI over n nodes:
    I nonempty, and u, I and S made of distinct nodes in 0..n-1."""
    group = tuple(map(int, group))
    cond = tuple(map(int, cond))
    if not group:
        raise ValueError("the probed set I must be nonempty")
    _check_nodes((u, *group, *cond), n, "u, I and S")
    return group, cond


def _uis_table(
    joint: JointTable, u: int, group: tuple[int, ...], cond: tuple[int, ...]
) -> np.ndarray:
    """The (u, I..., S) marginal of a validated triple, S flattened to one
    axis, in C order as ``marginal`` returns it, so that its sums run in
    one order wherever it is reduced."""
    group, cond = _check_disjoint(u, group, cond, joint.model.n)
    table = marginal(joint, (u,) + group + cond)
    return table.reshape(table.shape[: 1 + len(group)] + (-1,))


def _margins(stack: np.ndarray):
    """The (u, S), (I..., S) and S sums of a stack of (u, I..., S) tables,
    S flattened (axis 0 indexes the tables), every axis kept."""
    p_us = np.add.reduce(stack, axis=tuple(range(2, stack.ndim - 1)), keepdims=True)
    p_is = np.add.reduce(stack, axis=1, keepdims=True)
    return p_us, p_is, np.add.reduce(p_us, axis=1, keepdims=True)


def exact_conditional_mi(
    joint: JointTable, u: int, group: tuple[int, ...], cond: tuple[int, ...] = ()
) -> float:
    """I(X_u ; X_group | X_cond) in nats, by direct summation."""
    return _mi_of_table(_uis_table(joint, u, group, cond))


def _deviation(p_uis, a_us, a_is, a_s) -> np.ndarray:
    """|p(u, I, S) - p(u, S) p(I, S) / p(S)| cell by cell over broadcast
    tables, and 0 where p(S) is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a_s > 0.0, np.abs(p_uis - a_us / a_s * a_is), 0.0)


def nu_from_marginals(
    p_uis: np.ndarray, p_us: np.ndarray, p_is: np.ndarray, p_s: np.ndarray
) -> float:
    """The nu functional from explicit (possibly perturbed) marginal tables.

    Axis convention: ``p_uis`` has axes (u, I..., S...); ``p_us`` has axes
    (u, S...), ``p_is`` axes (I..., S...), ``p_s`` axes (S...).  The tables
    need not be mutually consistent, which is exactly what the estimator
    perturbation analysis requires.  Conditioning configurations with
    ``p_s == 0`` contribute zero.  Scaling all four tables by one factor
    scales the result by it, so count tables give the count-weighted sum.
    """
    p_uis = np.asarray(p_uis, dtype=float)
    n_group = p_uis.ndim - np.asarray(p_s).ndim - 1
    k_u, s_shape = p_uis.shape[0], p_uis.shape[1 + n_group :]
    a_us = np.asarray(p_us, dtype=float).reshape((k_u,) + (1,) * n_group + s_shape)
    a_is = np.asarray(p_is, dtype=float).reshape((1,) + p_uis.shape[1:])
    a_s = np.asarray(p_s, dtype=float).reshape((1,) * (1 + n_group) + s_shape)
    dev = _deviation(p_uis, a_us, a_is, a_s)
    return float(dev.sum()) / (k_u * math.prod(p_uis.shape[1 : 1 + n_group]))


def _nu_of_tables(tables: Sequence[np.ndarray]) -> list[tuple[float, int | float]]:
    """nu and weight of each (u, I..., S) table of a sweep, S flattened,
    reduced in one stack per table shape.

    A table's weight is its total (an int for counts, a float for
    probabilities), and nu is its count- or probability-weighted sum
    over S divided by that total; (0.0, total) when the total is zero.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, table in enumerate(tables):
        by_shape.setdefault(table.shape, []).append(i)
    out: list = [None] * len(tables)
    for index in by_shape.values():
        stack = np.concatenate([tables[i][None] for i in index])  # np.stack, less its checks
        p_us, p_is, p_s = _margins(stack)
        dev = _deviation(stack.astype(float, copy=False), p_us, p_is, p_s)
        n_outer = math.prod(stack.shape[1:-1])
        devs, totals = (np.add.reduce(a, axis=tuple(range(1, a.ndim))).tolist() for a in (dev, p_s))
        for i, d, total in zip(index, devs, totals):
            out[i] = (d / n_outer / total if total else 0.0, total)
    return out


def _mi_of_table(table: np.ndarray) -> float:
    """I(X_u ; X_I | X_S) in nats of one (u, I..., S) table, S flattened."""
    p_us, p_is, p_s = _margins(table[None])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = table * p_s / (p_us * p_is)
        terms = np.where(table > 0.0, table * np.log(np.where(table > 0.0, ratio, 1.0)), 0.0)
    return max(float(terms.sum()), 0.0)


def _nu_of_table(table: np.ndarray) -> tuple[float, int | float]:
    """``_nu_of_tables`` of one table."""
    return _nu_of_tables([table])[0]


def exact_nu_sweep(
    joint: JointTable, u: int, groups: list[tuple[int, ...]], cond: tuple[int, ...] = ()
) -> list[float]:
    """``exact_nu`` for every probe set in `groups` against one (u, S=cond):
    each probe set's marginal, the marginals reduced by table shape."""
    return [value for value, _ in _nu_of_tables([_uis_table(joint, u, g, cond) for g in groups])]


def exact_nu(
    joint: JointTable, u: int, group: tuple[int, ...], cond: tuple[int, ...] = ()
) -> float:
    """Mean absolute deviation between joint and product conditionals.

    The outer average is uniform over the states of u and of the group;
    the conditioning configurations are weighted by their probability.
    Always in [0, 1] and dominated by sqrt(MI/2).
    """
    return exact_nu_sweep(joint, u, [group], cond)[0]
