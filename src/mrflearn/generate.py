"""Random non-degenerate model generation for experiments and tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CliqueTensor,
    MarkovRandomField,
    center_values,
    validate_nondegeneracy,
)
from .sampling import spawn_rng


#: draws of one tensor before the generator gives up on its entry range
TENSOR_TRIES = 1000


class FeasibilityError(RuntimeError):
    """The requested generator parameters cannot produce a valid model."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the random model generator.

    hyperedge_density scales the number of interaction hyperedges
    attempted, roughly density * n of them, subject to the degree cap.
    """

    n: int
    r: int = 2
    max_degree: int = 3
    max_arity: int = 2
    alpha: float = 0.2
    beta: float = 1.0
    hyperedge_density: float = 0.8
    with_unaries: bool = True
    seed: int = 0


def _centered_tensor(
    rng: np.random.Generator, dims: tuple[int, ...], alpha: float | None, beta: float
) -> np.ndarray:
    """Draw uniform entries in [-beta, beta], center, and reject until the
    result stays within beta and (when alpha is set) has an entry of
    magnitude at least alpha."""
    for _ in range(TENSOR_TRIES):
        values = center_values(rng.uniform(-beta, beta, size=dims))
        peak = float(np.max(np.abs(values)))
        if peak <= beta and (alpha is None or peak >= alpha):
            return values
    raise FeasibilityError(
        f"could not draw a centered tensor with entries in [{alpha}, {beta}] "
        f"after {TENSOR_TRIES} tries"
    )


def generate_model(spec: GeneratorSpec) -> MarkovRandomField:
    """Random hypergraph under the degree cap, with centered tensors that
    pass non-degeneracy by construction.

    Interaction hyperedges (size 2..r) form an antichain so each is
    maximal and must be alpha-nonvanishing; unary potentials are only
    attached to covered nodes, keeping them non-maximal.  Raises when the
    request is impossible (alpha or beta not finite, 2 beta overflowing,
    alpha <= 0, alpha > beta, max_arity < 2, or nothing placeable).
    """
    if not all(map(math.isfinite, (spec.alpha, spec.beta, 2.0 * spec.beta))):
        raise FeasibilityError(f"alpha={spec.alpha}, beta={spec.beta} and 2 beta must be finite")
    if spec.alpha <= 0:
        raise FeasibilityError(f"alpha={spec.alpha} must be positive")
    if spec.alpha > spec.beta:
        raise FeasibilityError(f"alpha={spec.alpha} > beta={spec.beta} is contradictory")
    if not 0.0 < spec.hyperedge_density <= 1.0:
        raise FeasibilityError("hyperedge_density must lie in (0, 1]")
    if spec.n < 2 or spec.r < 2:
        raise FeasibilityError("need n >= 2 and r >= 2 to place any interaction")
    if spec.max_arity < 2:
        raise FeasibilityError(
            f"max_arity={spec.max_arity}: every node needs at least 2 states"
        )
    rng = spawn_rng(spec.seed, "model")
    arities = tuple(int(rng.integers(2, spec.max_arity + 1)) for _ in range(spec.n))
    target = max(1, round(spec.hyperedge_density * spec.n))
    neighbors: list[set[int]] = [set() for _ in range(spec.n)]
    chosen: list[tuple[int, ...]] = []
    attempts = 0
    max_attempts = 60 * target
    while len(chosen) < target and attempts < max_attempts:
        attempts += 1
        size = int(rng.integers(2, spec.r + 1))
        if size > spec.n:
            continue
        verts = tuple(sorted(rng.choice(spec.n, size=size, replace=False).tolist()))
        vert_set = set(verts)
        if any(vert_set <= set(h) or set(h) <= vert_set for h in chosen):
            continue
        if any(len(neighbors[v] | (vert_set - {v})) > spec.max_degree for v in verts):
            continue
        chosen.append(verts)
        for v in verts:
            neighbors[v] |= vert_set - {v}
    if not chosen:
        raise FeasibilityError(
            f"no hyperedge placeable for n={spec.n}, r={spec.r}, D={spec.max_degree}"
        )
    potentials = {}
    for verts in chosen:
        dims = tuple(arities[v] for v in verts)
        potentials[verts] = CliqueTensor(
            verts, _centered_tensor(rng, dims, spec.alpha, spec.beta)
        )
    if spec.with_unaries:
        covered = sorted({v for h in chosen for v in h})
        for v in covered:
            if rng.random() < 0.5:
                potentials[(v,)] = CliqueTensor(
                    (v,), _centered_tensor(rng, (arities[v],), None, spec.beta)
                )
    model = MarkovRandomField(spec.n, arities, potentials, spec.r)
    report = validate_nondegeneracy(model, spec.alpha, spec.beta)
    if not report.passed:
        raise FeasibilityError("generated model failed non-degeneracy validation")
    return model


def random_raw_model(
    n: int, r: int, max_arity: int, seed: int, beta: float = 1.0, density: float = 0.8
) -> MarkovRandomField:
    """Random model with UNcentered tensors and possibly nested hyperedges;
    the canonicalization tests need inputs that are far from canonical."""
    rng = spawn_rng(seed, "model", 1)
    arities = tuple(int(rng.integers(2, max_arity + 1)) for _ in range(n))
    potentials = {}
    count = max(1, round(density * n))
    pool = list(range(n))
    for _ in range(count * 3):
        if len(potentials) >= count:
            break
        size = int(rng.integers(1, min(r, n) + 1))
        verts = tuple(sorted(rng.choice(pool, size=size, replace=False).tolist()))
        if verts in potentials:
            continue
        dims = tuple(arities[v] for v in verts)
        potentials[verts] = CliqueTensor(verts, rng.uniform(-beta, beta, size=dims))
    return MarkovRandomField(n, arities, potentials, r)
