"""Discrete Markov random fields with clique-potential tensors.

A model over nodes 0..n-1 assigns node i one of k_i states (0-based in
code, 1-based in the text sample format).  Every stored hyperedge, a
sorted tuple of 1..r distinct nodes, carries a dense real tensor over
the states of its vertices; the log-density of a full configuration is
the sum of the selected tensor entries, up to normalization:

    Pr(x) = exp( sum_h theta_h(x_h) - C ).

Hyperedges without a stored tensor contribute zero.  The canonical form
makes every tensor *centered* (each fiber, i.e. each 1-D slice along
any single axis, sums to zero), which makes the decomposition of the
log-density unique and is a precondition for the non-degeneracy checks
and detection-threshold formulas used by the learner.

One function, ``_tensor_sum``, lays clique tensors out over given nodes
and adds them, for the joint, Bob's phi, the Gibbs conditionals and
``effective_tensor`` alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Hyperedge = tuple[int, ...]

#: absolute tolerance on fiber sums below which a tensor counts as centered
CENTERING_TOL = 1e-9

#: tensors whose entries all fall below this magnitude are dropped from storage
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class CliqueTensor:
    """A dense log-potential tensor attached to a sorted hyperedge.

    ``values[a_1, ..., a_l]`` is the contribution to the log-density when
    vertex ``vertices[j]`` is in state ``a_j``.
    """

    vertices: Hyperedge
    values: np.ndarray

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        vals = np.asarray(self.values, dtype=float)
        if len(verts) == 0:
            raise ValueError("a clique tensor needs at least one vertex")
        if any(b <= a for a, b in zip(verts, verts[1:])):
            raise ValueError(f"vertices must be strictly increasing, got {verts}")
        if vals.ndim != len(verts):
            raise ValueError(
                f"tensor order {vals.ndim} does not match vertex count {len(verts)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("tensor entries must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class MarkovRandomField:
    """An MRF given by node arities and a map hyperedge -> tensor.

    Absence of a hyperedge key means the zero tensor.  Instances are
    immutable after construction and safe to share across threads.
    """

    n: int
    arities: tuple[int, ...]
    potentials: Mapping[Hyperedge, CliqueTensor]
    r: int

    def __post_init__(self):
        arities = tuple(int(k) for k in self.arities)
        if len(arities) != self.n:
            raise ValueError("arities length must equal node count")
        if any(k < 2 for k in arities):
            raise ValueError("every node needs at least 2 states")
        if self.r < 1:
            raise ValueError("interaction order bound r must be >= 1")
        pots = {}
        for verts, tensor in dict(self.potentials).items():
            key = tuple(int(v) for v in verts)
            if key != tensor.vertices:
                raise ValueError(f"key {key} does not match tensor vertices {tensor.vertices}")
            if not 1 <= len(key) <= self.r:
                raise ValueError(f"hyperedge {key} has size outside 1..{self.r}")
            if key[0] < 0 or key[-1] >= self.n:
                raise ValueError(f"hyperedge {key} has vertices outside 0..{self.n - 1}")
            expect = tuple(arities[v] for v in key)
            if tensor.values.shape != expect:
                raise ValueError(
                    f"tensor on {key} has shape {tensor.values.shape}, expected {expect}"
                )
            pots[key] = tensor
        incident: list[list[Hyperedge]] = [[] for _ in range(self.n)]
        for key in sorted(pots):
            for v in key:
                incident[v].append(key)
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "potentials", MappingProxyType(pots))
        object.__setattr__(self, "_incident", tuple(tuple(h) for h in incident))

    @property
    def max_arity(self) -> int:
        return max(self.arities) if self.arities else 2

    def incident(self, u: int) -> tuple[Hyperedge, ...]:
        """Stored hyperedges containing node u."""
        return self._incident[u]

    def hyperedges(self) -> list[Hyperedge]:
        return sorted(self.potentials)

    def configuration_count(self) -> int:
        return math.prod(self.arities)

    # Derived once per instance (see clique_graph and compute_gamma_delta);
    # a process-wide cache would keep every model it has seen alive.
    @cached_property
    def _clique_graph(self) -> CliqueGraph:
        neighbors = [set() for _ in range(self.n)]
        edges = set()
        for verts in self.potentials:
            for a, b in itertools.combinations(verts, 2):
                edges.add((a, b))
                neighbors[a].add(b)
                neighbors[b].add(a)
        degrees = tuple(len(nb) for nb in neighbors)
        return CliqueGraph(
            edges=frozenset(edges),
            neighbors=tuple(frozenset(nb) for nb in neighbors),
            degrees=degrees,
            max_degree=max(degrees) if degrees else 0,
        )

    @cached_property
    def _constants(self) -> DerivedConstants:
        gamma = 0.0
        for u in range(self.n):
            gamma = max(
                gamma, sum(self.potentials[h].max_abs() for h in self.incident(u))
            )
        k_max = self.max_arity
        delta = math.exp(-2.0 * gamma) / k_max
        return DerivedConstants(
            gamma=gamma,
            delta=delta,
            max_degree=self._clique_graph.max_degree,
            max_arity=k_max,
        )


@dataclass(frozen=True)
class CliqueGraph:
    """The graph obtained by replacing every stored hyperedge with a clique."""

    edges: frozenset[tuple[int, int]]
    neighbors: tuple[frozenset[int], ...]
    degrees: tuple[int, ...]
    max_degree: int


@dataclass(frozen=True)
class DerivedConstants:
    """Per-model bounds: gamma caps the total potential any single node
    feels, delta = exp(-2*gamma)/K floors every conditional probability."""

    gamma: float
    delta: float
    max_degree: int
    max_arity: int


@dataclass(frozen=True)
class NonDegeneracyReport:
    alpha_param: float
    beta_param: float
    edge_cover_ok: Mapping[tuple[int, int], bool]
    maximal_nonvanishing_ok: Mapping[Hyperedge, bool]
    entry_bound_ok: Mapping[Hyperedge, bool]

    @property
    def passed(self) -> bool:
        return (
            all(self.edge_cover_ok.values())
            and all(self.maximal_nonvanishing_ok.values())
            and all(self.entry_bound_ok.values())
        )


def is_centered(tensor: CliqueTensor, tol: float = CENTERING_TOL) -> bool:
    """True iff every fiber sum of the tensor has magnitude <= tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    vals = tensor.values
    for axis in range(vals.ndim):
        if float(np.max(np.abs(vals.sum(axis=axis)))) > tol:
            return False
    return True


def _center(values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The centering step: subtract the fiber mean along each axis in
    turn, as the axis sum over the axis length.  Returns the centered
    array and the mean subtracted along each axis (kept as a size-1 axis)."""
    out = np.asarray(values, dtype=float).copy()
    means = []
    for axis in range(out.ndim):
        means.append(out.sum(axis=axis, keepdims=True) / out.shape[axis])
        out -= means[-1]
    return out, means


def center_values(values: np.ndarray) -> np.ndarray:
    """Project a raw array onto its fully centered part (all fiber sums
    zero) by the centering step ``_center``.  Subtracting the mean along
    each axis in turn commutes, so the result is centered along every
    axis simultaneously."""
    return _center(values)[0]


def canonicalize(model: MarkovRandomField) -> MarkovRandomField:
    """Recenter all tensors without changing the probability law.

    Works from the highest interaction order down, applying the
    centering step ``_center`` to every tensor: the mean it subtracts
    along axis m of a tensor of order >= 2 is added to the tensor on the
    remaining vertices, which leaves the log-density of every
    configuration unchanged; a unary's mean is a constant absorbed by
    the normalization.  Tensors that become (numerically) zero are
    dropped from storage.
    """
    work = {h: t.values for h, t in model.potentials.items()}
    for order in range(model.r, 0, -1):
        for verts in sorted(k for k in work if len(k) == order):
            work[verts], means = _center(work[verts])
            if order == 1:
                continue  # a unary's mean only shifts the normalization constant
            for axis, mean in enumerate(means):
                sub = verts[:axis] + verts[axis + 1 :]
                mean = mean.squeeze(axis)  # a tensor over the vertices of sub
                work[sub] = work[sub] + mean if sub in work else mean
    pots = {
        h: CliqueTensor(h, v) for h, v in work.items() if float(np.max(np.abs(v))) > PRUNE_TOL
    }
    return MarkovRandomField(model.n, model.arities, pots, model.r)


def clique_graph(model: MarkovRandomField) -> CliqueGraph:
    """Edges, neighborhoods and degrees induced by the stored hyperedges."""
    return model._clique_graph


def _maximal_hyperedges(model: MarkovRandomField) -> list[Hyperedge]:
    keys = list(model.potentials)
    sets = {k: frozenset(k) for k in keys}
    out = []
    for k in keys:
        if not any(sets[k] < sets[other] for other in keys):
            out.append(k)
    return sorted(out)


def validate_nondegeneracy(
    model: MarkovRandomField, alpha: float, beta: float
) -> NonDegeneracyReport:
    """Check the three learnability conditions on a canonical model.

    (a) every clique-graph edge lies in some hyperedge with a nonzero
    tensor, (b) every maximal hyperedge has an entry of magnitude at
    least alpha, (c) no entry of any tensor exceeds beta in magnitude.
    Raises on non-canonical input since (b) is only meaningful for
    centered tensors.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    for verts, tensor in model.potentials.items():
        if not is_centered(tensor, CENTERING_TOL):
            raise ValueError(
                f"tensor on {verts} is not centered; canonicalize the model first"
            )
    graph = clique_graph(model)
    edge_cover = {}
    for a, b in sorted(graph.edges):
        edge_cover[(a, b)] = any(
            a in verts and b in verts and tensor.max_abs() > 0.0
            for verts, tensor in model.potentials.items()
        )
    maximal_ok = {
        verts: model.potentials[verts].max_abs() >= alpha
        for verts in _maximal_hyperedges(model)
    }
    entry_ok = {
        verts: tensor.max_abs() <= beta for verts, tensor in model.potentials.items()
    }
    return NonDegeneracyReport(alpha, beta, edge_cover, maximal_ok, entry_ok)


def energy(model: MarkovRandomField, u: int, state: int, x: Sequence[int]) -> float:
    """Total potential felt by node u in the given state, with every other
    node fixed by x (the entry x[u] is ignored)."""
    if not 0 <= state < model.arities[u]:
        raise ValueError(f"state {state} out of range for node {u}")
    total = 0.0
    for verts in model.incident(u):
        idx = tuple(state if v == u else int(x[v]) for v in verts)
        tensor = model.potentials[verts]
        for pos, v in enumerate(verts):
            if v != u and not 0 <= idx[pos] < model.arities[v]:
                raise ValueError(f"state {idx[pos]} out of range for node {v}")
        total += float(tensor.values[idx])
    return total


def conditional_distribution(
    model: MarkovRandomField, u: int, x: Sequence[int]
) -> np.ndarray:
    """P(X_u = . | rest of x); depends only on x restricted to u's neighbors."""
    energies = np.array([energy(model, u, s, x) for s in range(model.arities[u])])
    energies -= energies.max()
    w = np.exp(energies)
    return w / w.sum()


def compute_gamma_delta(model: MarkovRandomField) -> DerivedConstants:
    """gamma = max over nodes of the summed max-magnitudes of incident
    tensors; delta = exp(-2*gamma)/K."""
    return model._constants


def condition_on(
    model: MarkovRandomField, nodes: Iterable[int], states: Sequence[int]
) -> MarkovRandomField:
    """Freeze the given nodes at the given states and return the induced
    model on the remaining nodes (renumbered in ascending order).

    Each surviving hyperedge accumulates the frozen slices of all its
    preimages; the result is re-canonicalized so derived constants stay
    meaningful.  Conditioning never increases gamma.
    """
    nodes, states = [int(v) for v in nodes], [int(s) for s in states]
    if len(nodes) != len(states):
        raise ValueError(f"{len(nodes)} nodes to condition on but {len(states)} states")
    frozen = dict(zip(nodes, states))
    if len(frozen) != len(nodes):
        raise ValueError(f"a node appears twice in {nodes}")
    for v, s in frozen.items():
        if not 0 <= v < model.n:
            raise ValueError(f"node {v} out of range")
        if not 0 <= s < model.arities[v]:
            raise ValueError(f"state {s} out of range for node {v}")
    keep = [v for v in range(model.n) if v not in frozen]
    new_index = {v: i for i, v in enumerate(keep)}
    acc: dict[Hyperedge, np.ndarray] = {}
    for verts, tensor in model.potentials.items():
        selector = tuple(
            frozen[v] if v in frozen else slice(None) for v in verts
        )
        kept = tuple(new_index[v] for v in verts if v not in frozen)
        if not kept:
            continue  # fully frozen: a constant, absorbed by normalization
        piece = np.asarray(tensor.values[selector], dtype=float)
        if kept in acc:
            acc[kept] = acc[kept] + piece
        else:
            acc[kept] = piece.copy()
    pots = {h: CliqueTensor(h, v) for h, v in acc.items()}
    raw = MarkovRandomField(
        n=len(keep),
        arities=tuple(model.arities[v] for v in keep),
        potentials=pots,
        r=model.r,
    )
    return canonicalize(raw)


def effective_tensor(
    tensors: Sequence[CliqueTensor], dims: Sequence[int] | None = None
) -> CliqueTensor:
    """Pointwise sum of centered tensors over subsets of positions 0..s-1,
    expanded to the full s-order shape.  The entries of the result sum to
    zero by linearity."""
    if not tensors:
        raise ValueError("need at least one tensor")
    for t in tensors:
        if not is_centered(t, CENTERING_TOL):
            raise ValueError(f"input tensor on {t.vertices} is not centered")
    s = max(max(t.vertices) for t in tensors) + 1
    inferred: dict[int, int] = {}
    for t in tensors:
        for pos, d in zip(t.vertices, t.values.shape):
            if inferred.setdefault(pos, d) != d:
                raise ValueError(f"conflicting dimensions at position {pos}")
    if dims is None:
        if len(inferred) != s:
            missing = sorted(set(range(s)) - set(inferred))
            raise ValueError(f"positions {missing} not covered by any tensor")
        dims = [inferred[p] for p in range(s)]
    else:
        dims = [int(d) for d in dims]
        s = max(s, len(dims))
        for pos, d in inferred.items():
            if pos >= len(dims) or dims[pos] != d:
                raise ValueError(f"tensor dimension mismatch at position {pos}")
    return CliqueTensor(tuple(range(len(dims))), _tensor_sum(tensors, range(len(dims)), dims))


def _tensor_sum(tensors: Iterable[CliqueTensor], nodes: Sequence[int], dims: Sequence[int],
                weights: Sequence[float] | None = None) -> np.ndarray:
    """A table over `nodes` (axis a is node ``nodes[a]``, of size
    ``dims[a]``): zeros plus, in the order given, each tensor times its
    weight (1.0 when `weights` is None), transposed into axis order and
    broadcast over the axes it misses, so an entry is the left-to-right
    sum of the selected entries, as ``energy`` takes it."""
    axis = {v: a for a, v in enumerate(nodes)}
    total = np.zeros(tuple(dims))
    for i, tensor in enumerate(tensors):
        axes = [axis[v] for v in tensor.vertices]
        order = sorted(range(len(axes)), key=axes.__getitem__)
        shape = [total.shape[a] if a in axes else 1 for a in range(total.ndim)]
        values = tensor.values if weights is None else weights[i] * tensor.values
        total += values.transpose(order).reshape(shape)
    return total


def noncancellation_witness(
    tensors: Sequence[CliqueTensor], kappa: float
) -> tuple[tuple[int, ...], float]:
    """Locate an entry of the effective tensor of magnitude >= kappa/s^s.

    Requires the full-order tensor (on positions 0..s-1) to have some
    entry of magnitude >= kappa.  Lower-order centered tensors can never
    cancel it below kappa/s^s; failure to find such an entry would
    violate that guarantee and raises.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    eff = effective_tensor(tensors)
    s = eff.order
    top = next((t for t in tensors if t.vertices == tuple(range(s))), None)
    if top is None:
        raise ValueError("no full-order tensor among the inputs")
    if top.max_abs() < kappa:
        raise ValueError(
            f"full-order tensor max magnitude {top.max_abs():.3g} is below kappa={kappa:.3g}"
        )
    flat = int(np.argmax(np.abs(eff.values)))
    idx = np.unravel_index(flat, eff.values.shape)
    value = float(eff.values[idx])
    bound = kappa / s**s
    if abs(value) < bound - 1e-12:
        raise RuntimeError(
            f"non-cancellation violated: best entry {value:.6g} below {bound:.6g}"
        )
    return tuple(int(i) for i in idx), value
