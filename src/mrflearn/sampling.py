"""Samplers and the erasure channel.

All randomness flows from a single 64-bit seed: stages derive
independent generators through ``spawn_rng`` so that model generation,
sampling, erasure and learning are separately reproducible.  A node's
Gibbs heat-bath table is one ``model._tensor_sum``, normalized by row.
Exact draws go through one inverse-CDF index step: a guide table over
at most ``_MAX_BUCKETS`` equal buckets of [0, 1) (the indexed search of
Chen & Asau, 1974) finds each configuration index.  From that index,
``inverse_cdf_sampler`` decodes rows through two small state tables, one
per half of the mixed-radix index, and ``inverse_cdf_tally`` counts a
batch without making rows: two small code tables, one per half, give
each draw's code over the requested nodes, and ``_count_table`` turns
the codes into their count table over the extended alphabet (k_v + 1
states per node, the last for an erased cell), axes in the order
requested: dense when it has at most one cell per draw, else sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .inference import JointTable
from .model import MarkovRandomField, _tensor_sum, clique_graph

#: marker for an erased cell in a sample matrix
ERASED = -1

_STAGE_KEYS = {
    "model": 0,
    "sample": 1,
    "erase": 2,
    "learn": 3,
    "game": 4,
    "trial": 5,
    "oracle": 6,
}

#: cap on the guide table's buckets, so a guide holds at most 512 KiB
_MAX_BUCKETS = 1 << 16


def spawn_rng(seed: int, *key) -> np.random.Generator:
    """Derive an independent generator from a root seed and a stage path.

    Path components are stage names or integers; the same (seed, path)
    always yields the same stream.
    """
    parts = tuple(
        _STAGE_KEYS[k] if isinstance(k, str) else int(k) for k in key
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=parts))


@dataclass(frozen=True)
class SampleSet:
    """An m-by-n matrix of observed states, with ERASED marking missing cells.

    ``data`` is kept read-only: a read-only int64 array that owns its
    memory, as the samplers and the fixed-width reader hand over, is
    adopted; any other input is copied, so a caller's array stays its own.
    """

    data: np.ndarray
    arities: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.int64)
        if data.ndim != 2:
            raise ValueError("sample data must be an m-by-n matrix")
        if data.shape[1] != len(self.arities):
            raise ValueError("column count must match arities")
        bad = (data != ERASED) & ((data < 0) | (data >= np.array(self.arities)))
        if bad.any():
            j = int(np.flatnonzero(bad.any(axis=0))[0])
            raise ValueError(f"out-of-range state in column {j}")
        if data.flags.writeable or data.base is not None:
            data = data.copy()
            data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "arities", tuple(int(k) for k in self.arities))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def _guide_index(probs: np.ndarray, rng: np.random.Generator):
    """The index step shared by ``inverse_cdf_sampler`` and
    ``inverse_cdf_tally``: ``(index, states, split)``.

    ``index(count)`` draws ``rng.random(count)`` and returns each key's
    configuration index, ``searchsorted(cdf, key, side="right")``, split
    into its parts above and below the split of the mixed-radix code.
    The search is the guide table of Chen & Asau (1974) over B = 16 x
    2^ceil(log2 |X|) equal buckets of [0, 1), at most ``_MAX_BUCKETS``.
    When no CDF value lies in bucket b, every key in it has the index of
    the edge b / B, which ``guide[b]`` holds; the keys of the other
    buckets (``guide[b] = -1``) are searched.  The split leaves about
    sqrt |X| configurations in each part, and ``states[v]`` holds node
    v's state in each configuration of its part (the first part when
    v < split), as an ``np.indices`` table in the smallest unsigned dtype.
    """
    shape = probs.shape
    cdf = np.cumsum(probs.ravel())
    cdf[-1] = 1.0  # keys lie below it, so no index passes the last cell
    # B is a power of two, so key * B and b / B are exact
    buckets = min(16 << (cdf.size - 1).bit_length(), _MAX_BUCKETS)
    edges = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    split = min(
        range(len(shape) + 1),
        key=lambda s: max(math.prod(shape[:s]), math.prod(shape[s:])),
    )
    high = math.prod(shape[:split])
    low = cdf.size // high
    dtype = np.min_scalar_type(max(shape) - 1)
    states = [
        *np.indices(shape[:split], dtype).reshape(split, high),
        *np.indices(shape[split:], dtype).reshape(len(shape) - split, low),
    ]

    def index(count: int) -> tuple[np.ndarray, np.ndarray]:
        keys = rng.random(count)
        idx = guide[(keys * buckets).astype(np.intp)]
        hard = np.flatnonzero(idx < 0)
        if 2 * hard.size > count:
            # sorted keys keep the bisection's memory reads close together
            hard = hard[np.argsort(keys[hard])]
        idx[hard] = np.searchsorted(cdf, keys[hard], side="right")
        above = idx // low
        return above, idx - above * low

    return index, states, split


def inverse_cdf_sampler(
    probs: np.ndarray, rng: np.random.Generator
) -> Callable[..., np.ndarray]:
    """Return draw(count, nodes=None): `count` i.i.d. configurations of the
    probability table `probs` by inverse CDF on ``rng.random(count)``, one
    row each holding the states of `nodes` (every node when None).

    The random stream does not depend on `nodes`: a draw restricted to
    some nodes equals the full draw's columns at those nodes.  Each
    node's state is read from the ``_guide_index`` state table of its
    part of the index.
    """
    index, states, split = _guide_index(probs, rng)

    def draw(count: int, nodes: Sequence[int] | None = None) -> np.ndarray:
        parts = index(count)
        if nodes is None:
            nodes = range(probs.ndim)
        out = np.empty((count, len(nodes)), dtype=states[0].dtype)
        for j, v in enumerate(nodes):
            out[:, j] = states[v][parts[v >= split]]
        return out.astype(np.intp)

    return draw


def _count_table(
    codes: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The count table of one code per sample, each a flat C-order index
    into a table of `shape`.

    A table of at most as many cells as there are samples comes back
    dense, an int64 array of `shape` from one bincount.  A larger one
    comes back sparse, as ``(cells, counts)``: the occupied cells,
    ascending, from ``np.unique``, and the int64 count of each.  So the
    work and the memory stay within the sample count, however many cells
    the table has.
    """
    if math.prod(shape) <= codes.size:
        return np.bincount(codes, minlength=math.prod(shape)).reshape(shape)
    cells, counts = np.unique(codes, return_counts=True)
    return cells, counts.astype(np.int64, copy=False)


def inverse_cdf_tally(
    probs: np.ndarray, rng: np.random.Generator
) -> Callable[[int, Sequence[int]], np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Return tally(count, nodes): the count table (``_count_table``) of
    the configurations that ``inverse_cdf_sampler(probs, rng)`` would
    draw, over `nodes`.

    The table's axes follow the order of `nodes`, node v's axis over the
    extended alphabet k_v + 1; no draw is erased, so state k_v counts
    none.  The same keys give the same configurations as the sampler's.
    Per call, the mixed-radix code of `nodes` is tabulated over each part
    of the index (about sqrt |X| entries each), so each drawn row costs
    two lookups and an add, whatever the node count.
    """
    index, states, split = _guide_index(probs, rng)
    states = [table.astype(np.intp) for table in states]
    sizes = (math.prod(probs.shape[:split]), math.prod(probs.shape[split:]))

    def tally(count: int, nodes: Sequence[int]) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        radix = tuple(probs.shape[v] + 1 for v in nodes)
        codes = [np.zeros(size, dtype=np.intp) for size in sizes]
        stride = 1
        for v, k in zip(reversed(nodes), reversed(radix)):
            codes[v >= split] += states[v] * stride
            stride *= k
        above, below = index(count)
        return _count_table(codes[0][above] + codes[1][below], radix)

    return tally


def sample_exact(joint: JointTable, m: int, seed: int) -> SampleSet:
    """Draw m i.i.d. rows from an exact joint table by inverse CDF."""
    if m < 1:
        raise ValueError("need at least one sample")
    states = inverse_cdf_sampler(joint.probs, spawn_rng(seed, "sample"))(m)
    states.flags.writeable = False
    return SampleSet(states, joint.arities, seed=seed)


def _conditional_tables(model: MarkovRandomField):
    """Per node: sorted neighbor list and the conditional CDF for every
    neighbor configuration (mixed-radix indexed), each row normalized
    as ``conditional_distribution`` does it."""
    graph = clique_graph(model)
    tables = []
    for u in range(model.n):
        nbrs = sorted(graph.neighbors[u])
        shape = [model.arities[v] for v in nbrs]
        k_u = model.arities[u]
        tensors = [model.potentials[h] for h in model.incident(u)]
        energies = _tensor_sum(tensors, nbrs + [u], shape + [k_u]).reshape(-1, k_u)
        energies -= energies.max(axis=1, keepdims=True)
        w = np.exp(energies)
        rows = w / w.sum(axis=1, keepdims=True)
        strides = [math.prod(shape[j + 1 :]) for j in range(len(shape))]
        tables.append((nbrs, strides, np.cumsum(rows, axis=1)))
    return tables


def gibbs_sample(
    model: MarkovRandomField, m: int, burn_in: int, thinning: int, seed: int
) -> SampleSet:
    """Systematic-scan heat-bath sampler.

    Sweeps update nodes in index order; one row is recorded every
    `thinning` sweeps after `burn_in` sweeps.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    if burn_in < 1 or thinning < 1:
        raise ValueError("burn_in and thinning must be >= 1")
    rng = spawn_rng(seed, "sample", 1)
    tables = _conditional_tables(model)
    x = np.array([rng.integers(k) for k in model.arities], dtype=np.int64)
    out = np.empty((m, model.n), dtype=np.int64)

    def sweep():
        for u in range(model.n):
            nbrs, strides, cdf = tables[u]
            code = 0
            for v, stride in zip(nbrs, strides):
                code += stride * x[v]
            row = cdf[code]
            x[u] = min(np.searchsorted(row, rng.random(), side="right"), row.size - 1)

    for _ in range(burn_in):
        sweep()
    for i in range(m):
        for _ in range(thinning):
            sweep()
        out[i] = x
    out.flags.writeable = False
    return SampleSet(out, model.arities, seed=seed)


def erase(samples: SampleSet, reveal_prob: float, seed: int) -> SampleSet:
    """Independently keep each cell with probability reveal_prob, else mark
    it ERASED; the erasure pattern is independent of the values."""
    if not 0.0 <= reveal_prob <= 1.0:
        raise ValueError("reveal_prob must lie in [0, 1]")
    rng = spawn_rng(seed, "erase")
    keep = rng.random(samples.data.shape) < reveal_prob
    data = np.where(keep, samples.data, ERASED)
    data.flags.writeable = False
    return SampleSet(data, samples.arities, seed=seed)
