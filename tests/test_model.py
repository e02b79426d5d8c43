import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrflearn import (
    CliqueTensor,
    GeneratorSpec,
    MarkovRandomField,
    canonicalize,
    clique_graph,
    compute_gamma_delta,
    condition_on,
    conditional_distribution,
    effective_tensor,
    energy,
    exact_conditional_mi,
    exact_joint,
    generate_model,
    is_centered,
    noncancellation_witness,
    validate_nondegeneracy,
)
from mrflearn.game import _phi_table
from mrflearn.generate import random_raw_model
from mrflearn.model import center_values
from mrflearn.sampling import _conditional_tables

from conftest import ising_tensor


# ---------------------------------------------------------------- types


def test_tensor_rejects_unsorted_vertices():
    with pytest.raises(ValueError):
        CliqueTensor((1, 0), np.zeros((2, 2)))


def test_tensor_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        CliqueTensor((1, 1), np.zeros((2, 2)))


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        CliqueTensor((0,), np.array([np.inf, 0.0]))


def test_model_rejects_shape_mismatch():
    bad = CliqueTensor((0, 1), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        MarkovRandomField(2, (2, 2), {(0, 1): bad}, r=2)


def test_model_rejects_oversized_hyperedge():
    t = CliqueTensor((0, 1, 2), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        MarkovRandomField(3, (2, 2, 2), {(0, 1, 2): t}, r=2)


def test_model_is_immutable():
    t = CliqueTensor((0, 1), ising_tensor(0.5))
    m = MarkovRandomField(2, (2, 2), {(0, 1): t}, r=2)
    with pytest.raises(Exception):
        m.potentials[(0, 1)].values[0, 0] = 9.0
    with pytest.raises(TypeError):
        m.potentials[(0,)] = t


# ---------------------------------------------------------------- centering


def test_zero_tensor_is_centered_at_tol_zero():
    assert is_centered(CliqueTensor((0, 1), np.zeros((2, 2))), tol=0.0)


def test_uncentered_matrix_detected():
    assert not is_centered(CliqueTensor((0, 1), np.array([[1.0, 2.0], [3.0, 4.0]])), 1e-9)


def test_ising_tensor_is_centered():
    assert is_centered(CliqueTensor((0, 1), ising_tensor(0.5)), tol=1e-12)


@pytest.mark.parametrize("r, digest", [
    (1, "3b6caaae6df42ffe4bfce20256b514e02eb2d955129c2f3f24216fd6a72164b0"),
    (2, "1319b64e9d119fcfc5be1950a1a3d082e28bfd7576f5cec345ade22ee9d167c2"),
    (3, "f96f841b59bb6acd3864f4f0b2b5ae6a4fc6c004c031a875825f6bd1242695be"),
])
def test_canonical_form_bits_are_frozen(r, digest):
    # recorded before canonicalize and center_values shared one centering
    # step; a last-bit change to any fiber mean moves every digest
    h = hashlib.sha256()
    for seed in range(30):
        raw = random_raw_model(n=3 + seed % 4, r=r, max_arity=2 + seed % 3, seed=seed)
        node = seed % raw.n
        canon = canonicalize(raw)
        for model in (canon, condition_on(raw, [node], [seed % raw.arities[node]]),
                      condition_on(canon, [0, raw.n - 1], [1, 0])):
            for verts, tensor in sorted(model.potentials.items()):
                h.update(repr(verts).encode() + tensor.values.astype("<f8").tobytes())
    assert h.hexdigest() == digest


def test_canonicalize_prunes_stored_zero_tensors():
    t = CliqueTensor((0, 1), np.zeros((2, 2)))
    m = MarkovRandomField(2, (2, 2), {(0, 1): t}, r=2)
    out = canonicalize(m)
    # the all-zero model is unchanged as a law; explicit zero tensors are
    # dropped since an absent key already means zero
    assert out.potentials == {}
    assert np.allclose(exact_joint(out).probs, exact_joint(m).probs)


def test_canonicalize_keeps_already_centered_tensor(ising_pair):
    out = canonicalize(ising_pair)
    assert set(out.potentials) == {(0, 1)}
    np.testing.assert_allclose(
        out.potentials[(0, 1)].values, ising_pair.potentials[(0, 1)].values, atol=1e-15
    )


def test_canonicalize_pushes_pairwise_mass_to_unaries():
    # oracle: recenter [[1,2],[3,4]] by hand.  Subtracting column means
    # [2, 3] then row means [-1, 1] empties the pairwise part entirely.
    raw = CliqueTensor((0, 1), np.array([[1.0, 2.0], [3.0, 4.0]]))
    m = MarkovRandomField(2, (2, 2), {(0, 1): raw}, r=2)
    out = canonicalize(m)
    assert (0, 1) not in out.potentials
    assert set(out.potentials) <= {(0,), (1,)}
    np.testing.assert_allclose(
        exact_joint(out).probs, exact_joint(m).probs, atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_canonicalize_preserves_law_and_is_idempotent(seed):
    model = random_raw_model(n=4, r=3, max_arity=3, seed=seed)
    canon = canonicalize(model)
    np.testing.assert_allclose(
        exact_joint(model).probs, exact_joint(canon).probs, atol=1e-9
    )
    for tensor in canon.potentials.values():
        assert is_centered(tensor, 1e-9)
    again = canonicalize(canon)
    assert set(again.potentials) == set(canon.potentials)
    for key, tensor in canon.potentials.items():
        np.testing.assert_allclose(again.potentials[key].values, tensor.values, atol=1e-9)


# ---------------------------------------------------------------- clique graph


def test_clique_graph_of_triangle_hyperedge():
    t = CliqueTensor((1, 2, 3), center_values(np.arange(8.0).reshape(2, 2, 2)))
    m = MarkovRandomField(4, (2, 2, 2, 2), {(1, 2, 3): t}, r=3)
    g = clique_graph(m)
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert g.degrees == (0, 2, 2, 2)


def test_clique_graph_unary_only():
    t = CliqueTensor((0,), np.array([0.3, -0.3]))
    m = MarkovRandomField(2, (2, 2), {(0,): t}, r=2)
    assert clique_graph(m).edges == frozenset()


def test_clique_graph_path():
    m = MarkovRandomField(
        3,
        (2, 2, 2),
        {
            (0, 1): CliqueTensor((0, 1), ising_tensor(0.2)),
            (1, 2): CliqueTensor((1, 2), ising_tensor(0.2)),
        },
        r=2,
    )
    g = clique_graph(m)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.degrees == (1, 2, 1)
    assert g.max_degree == 2


# ---------------------------------------------------------------- non-degeneracy


def test_nondegeneracy_passes_for_ising(ising_pair):
    assert validate_nondegeneracy(ising_pair, alpha=0.4, beta=1.0).passed


def test_nondegeneracy_fails_small_alpha(ising_pair):
    report = validate_nondegeneracy(ising_pair, alpha=0.6, beta=1.0)
    assert not report.passed
    assert not all(report.maximal_nonvanishing_ok.values())
    assert all(report.edge_cover_ok.values())


def test_nondegeneracy_fails_for_zero_edge_cover():
    zero = CliqueTensor((0, 1), np.zeros((2, 2)))
    m = MarkovRandomField(2, (2, 2), {(0, 1): zero}, r=2)
    report = validate_nondegeneracy(m, alpha=0.1, beta=1.0)
    assert not report.passed
    assert not report.edge_cover_ok[(0, 1)]


def test_nondegeneracy_rejects_noncanonical_input():
    raw = CliqueTensor((0, 1), np.array([[1.0, 2.0], [3.0, 4.0]]))
    m = MarkovRandomField(2, (2, 2), {(0, 1): raw}, r=2)
    with pytest.raises(ValueError, match="centered"):
        validate_nondegeneracy(m, alpha=0.1, beta=5.0)


# ---------------------------------------------------------------- energy & conditionals


def test_energy_isolated_node(isolated_pair):
    assert energy(isolated_pair, 0, 0, [0, 0]) == 0.0


def test_energy_ising_lookup(ising_pair):
    assert energy(ising_pair, 0, 0, [0, 0]) == pytest.approx(0.5)
    assert energy(ising_pair, 0, 1, [0, 0]) == pytest.approx(-0.5)


def test_energy_ignores_non_neighbors(chain3):
    for state in range(2):
        assert energy(chain3, 0, state, [0, 1, 0]) == energy(chain3, 0, state, [0, 1, 1])


def test_conditional_distribution_uniform_for_isolated(isolated_pair):
    np.testing.assert_allclose(
        conditional_distribution(isolated_pair, 0, [0, 0]), [0.5, 0.5]
    )


def test_conditional_distribution_ising(ising_pair):
    # oracle: direct evaluation, exp(0.5)/(exp(0.5)+exp(-0.5)) = 0.7310585786
    np.testing.assert_allclose(
        conditional_distribution(ising_pair, 0, [0, 0]),
        [0.7310585786300049, 0.2689414213699951],
        atol=1e-12,
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_conditional_floor_and_locality(seed):
    model = canonicalize(random_raw_model(n=5, r=2, max_arity=3, seed=seed))
    consts = compute_gamma_delta(model)
    graph = clique_graph(model)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        x = [rng.integers(k) for k in model.arities]
        for u in range(model.n):
            dist = conditional_distribution(model, u, x)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert dist.min() >= consts.delta - 1e-12
            outside = [v for v in range(model.n) if v != u and v not in graph.neighbors[u]]
            if outside:
                y = list(x)
                y[outside[0]] = (y[outside[0]] + 1) % model.arities[outside[0]]
                np.testing.assert_allclose(
                    dist, conditional_distribution(model, u, y), atol=1e-14
                )


# ---------------------------------------------------------------- gamma/delta


def test_gamma_delta_empty_model(isolated_pair):
    consts = compute_gamma_delta(isolated_pair)
    assert consts.gamma == 0.0
    assert consts.delta == pytest.approx(0.5)


def test_gamma_delta_ising(ising_pair):
    consts = compute_gamma_delta(ising_pair)
    assert consts.gamma == pytest.approx(0.5)
    assert consts.delta == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)
    assert consts.delta == pytest.approx(0.18393972058572117)


def test_gamma_upper_bound_from_beta():
    from mrflearn import GeneratorSpec, generate_model

    beta = 1.0
    model = generate_model(
        GeneratorSpec(n=6, r=3, max_degree=3, max_arity=2, alpha=0.2, beta=beta, seed=11)
    )
    consts = compute_gamma_delta(model)
    d = clique_graph(model).max_degree
    # with all entries below beta: at most C(d, l-1) hyperedges of order l at a node
    cap = beta * sum(math.comb(d, ell - 1) for ell in range(1, model.r + 1))
    assert consts.gamma <= cap + 1e-12
    # gamma dominates every single entry magnitude
    peak = max(t.max_abs() for t in model.potentials.values())
    assert consts.gamma >= peak - 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_conditioning_never_increases_gamma(seed):
    model = canonicalize(random_raw_model(n=5, r=3, max_arity=2, seed=seed))
    gamma = compute_gamma_delta(model).gamma
    rng = np.random.default_rng(seed + 1)
    node = int(rng.integers(model.n))
    conditioned = condition_on(model, [node], [int(rng.integers(model.arities[node]))])
    assert compute_gamma_delta(conditioned).gamma <= gamma + 1e-9


# ---------------------------------------------------------------- conditioning


def test_condition_on_nothing_is_identity(ising_pair):
    out = condition_on(ising_pair, [], [])
    assert out.n == 2
    np.testing.assert_allclose(
        out.potentials[(0, 1)].values, ising_pair.potentials[(0, 1)].values, atol=1e-12
    )


def test_condition_ising_on_endpoint(ising_pair):
    out = condition_on(ising_pair, [1], [0])
    assert out.n == 1
    # frozen fiber theta(., state 0) = [0.5, -0.5], already centered
    np.testing.assert_allclose(out.potentials[(0,)].values, [0.5, -0.5], atol=1e-12)
    # the law must match the conditional of the joint table
    joint = exact_joint(ising_pair)
    cond = joint.probs[:, 0] / joint.probs[:, 0].sum()
    np.testing.assert_allclose(exact_joint(out).probs, cond, atol=1e-12)


def test_condition_on_neighborhood_kills_mutual_information(chain3):
    # freezing node 1 separates 0 from 2
    out = condition_on(chain3, [1], [1])
    mi = exact_conditional_mi(exact_joint(out), 0, (1,))
    assert mi == pytest.approx(0.0, abs=1e-12)


def test_condition_on_composes():
    model = canonicalize(random_raw_model(n=5, r=3, max_arity=2, seed=21))
    once = condition_on(condition_on(model, [4], [1]), [0], [0])
    both = condition_on(model, [0, 4], [0, 1])
    np.testing.assert_allclose(
        exact_joint(once).probs, exact_joint(both).probs, atol=1e-9
    )


def test_condition_on_rejects_mismatched_or_repeated_nodes():
    # neither list is truncated to the other, and no node is frozen twice
    model = canonicalize(random_raw_model(n=5, r=3, max_arity=2, seed=21))
    for nodes, states, message in [
        ([0, 1], [0], "2 nodes to condition on but 1 states"),
        ([0], [0, 1], "1 nodes to condition on but 2 states"),
        ([0, 0], [0, 1], "a node appears twice"),
        ([3, 1, 3], [0, 0, 0], "a node appears twice"),
    ]:
        with pytest.raises(ValueError, match=message):
            condition_on(model, nodes, states)
    assert condition_on(model, iter([1, 0]), (0, 1)).n == 3


# ---------------------------------------------------------------- effective tensors


def test_effective_tensor_single_input():
    top = CliqueTensor((0, 1), ising_tensor(0.7))
    out = effective_tensor([top])
    np.testing.assert_allclose(out.values, top.values)


def test_effective_tensor_two_unaries():
    v = CliqueTensor((0,), np.array([0.25, -0.25]))
    w = CliqueTensor((1,), np.array([-1.5, 1.5]))
    out = effective_tensor([v, w], dims=(2, 2))
    expected = np.add.outer(v.values, w.values)
    np.testing.assert_allclose(out.values, expected)
    assert abs(out.values.sum()) < 1e-12


def test_effective_tensor_rejects_uncentered():
    with pytest.raises(ValueError):
        effective_tensor([CliqueTensor((0,), np.array([1.0, 0.0]))])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_effective_tensor_entries_sum_to_zero(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(2, 4, size=3))
    parts = [CliqueTensor((0, 1, 2), center_values(rng.normal(size=dims)))]
    for sub in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        shape = tuple(dims[i] for i in sub)
        parts.append(CliqueTensor(sub, center_values(rng.normal(size=shape))))
    out = effective_tensor(parts, dims=dims)
    assert abs(out.values.sum()) < 1e-9


# ---------------------------------------------------------------- clique-tensor layout
#
# exact_joint, the Gibbs conditional tables and Bob's phi all lay clique
# tensors out with model._tensor_sum.  Each is compared byte for byte with
# the code it replaced at that site, written out below.

#: (source, r, max arity, seed); each seed gives a model with every
#: property _layout_model asserts
LAYOUT_CASES = [
    ("generated", 2, 2, 0), ("generated", 2, 3, 2), ("generated", 2, 9, 0),
    ("generated", 3, 2, 0), ("generated", 3, 3, 0), ("generated", 3, 9, 0),
    ("raw", 2, 2, 0), ("raw", 2, 3, 5), ("raw", 2, 9, 0),
    ("raw", 3, 2, 0), ("raw", 3, 3, 0), ("raw", 3, 9, 1),
]


def _layout_model(source, r, k, seed):
    """A generated model, or a raw one (uncentered, nested hyperedges).
    At max arity 9 some node has 8 or more states, so its conditional
    rows are summed by numpy's unrolled loop."""
    n = 5 if k == 9 else 6
    if source == "generated":
        model = generate_model(GeneratorSpec(
            n=n, r=r, max_degree=2 if k == 9 else 3, max_arity=k, alpha=0.3, seed=seed
        ))
    else:
        model = random_raw_model(n, r, k, seed=seed)
        assert any(set(a) < set(b) for a in model.potentials for b in model.potentials)
    assert r == 2 or any(len(h) == 3 for h in model.potentials)
    assert k < 9 or max(model.arities) >= 8
    return model


def _reference_joint(model):
    """exact_joint's probabilities and log-partition by the broadcast loop."""
    logw = np.zeros(model.arities)
    for verts, tensor in model.potentials.items():
        shape = tuple(model.arities[v] if v in verts else 1 for v in range(model.n))
        logw = logw + tensor.values.reshape(shape)
    peak = float(logw.max())
    log_partition = peak + math.log(float(np.exp(logw - peak).sum()))
    return np.exp(logw - log_partition), log_partition


def _reference_cdf(model, u, nbrs):
    """u's conditional CDFs, one conditional_distribution call per
    neighbor configuration in itertools.product order."""
    x = [0] * model.n
    rows = np.empty((math.prod(model.arities[v] for v in nbrs), model.arities[u]))
    for code, states in enumerate(itertools.product(*[range(model.arities[v]) for v in nbrs])):
        for v, state in zip(nbrs, states):
            x[v] = state
        rows[code] = conditional_distribution(model, u, x)
    return np.cumsum(rows, axis=1)


def _reference_phi(model, u, revealed):
    """Bob's phi, each weighted tensor aligned by argsort and reshape."""
    d_u = clique_graph(model).degrees[u]
    s = len(revealed)
    phi = np.zeros((model.arities[u],) + tuple(model.arities[v] for v in revealed))
    for verts in model.incident(u):
        others = [v for v in verts if v != u]
        if not set(others) <= set(revealed):
            continue
        coeff = math.comb(d_u, s) / math.comb(d_u - len(others), s - len(others))
        target = [0 if v == u else 1 + revealed.index(v) for v in verts]
        aligned = model.potentials[verts].values.transpose(np.argsort(target))
        shape = [1] * (1 + s)
        for pos, size in zip(sorted(target), aligned.shape):
            shape[pos] = size
        phi = phi + coeff * aligned.reshape(shape)
    return phi


@pytest.mark.parametrize("source, r, k, seed", LAYOUT_CASES)
def test_exact_joint_matches_the_broadcast_loop_bit_for_bit(source, r, k, seed):
    model = _layout_model(source, r, k, seed)
    probs, log_partition = _reference_joint(model)
    joint = exact_joint(model)
    assert joint.probs.tobytes() == probs.tobytes()
    assert joint.log_partition == log_partition


@pytest.mark.parametrize("source, r, k, seed", LAYOUT_CASES)
def test_gibbs_tables_match_conditional_distribution_bit_for_bit(source, r, k, seed):
    model = _layout_model(source, r, k, seed)
    for u, (nbrs, _, cdf) in enumerate(_conditional_tables(model)):
        assert nbrs == sorted(clique_graph(model).neighbors[u])
        assert cdf.tobytes() == _reference_cdf(model, u, nbrs).tobytes()


@pytest.mark.parametrize("source, r, k, seed", LAYOUT_CASES)
def test_phi_table_matches_the_argsort_alignment_bit_for_bit(source, r, k, seed):
    model = _layout_model(source, r, k, seed)
    straddling = 0  # revealed sets with u between their members
    for u in range(model.n):
        nbrs = sorted(clique_graph(model).neighbors[u])
        for size in range(min(3, len(nbrs)) + 1):
            for subset in itertools.combinations(nbrs, size):
                for revealed in itertools.permutations(subset):
                    phi, want = _phi_table(model, u, revealed), _reference_phi(model, u, revealed)
                    assert phi.shape == want.shape
                    assert phi.tobytes() == want.tobytes()
                    straddling += min(revealed, default=u) < u < max(revealed, default=u)
    assert straddling


# ---------------------------------------------------------------- non-cancellation


def test_witness_single_vector():
    kappa = 0.8
    vec = CliqueTensor((0,), np.array([kappa, -kappa]))
    idx, value = noncancellation_witness([vec], kappa)
    assert abs(value) >= kappa


def test_witness_with_zero_lower_parts():
    top = CliqueTensor((0, 1), ising_tensor(0.6))
    idx, value = noncancellation_witness([top], kappa=0.6)
    assert abs(value) >= 0.6 / 4.0


def test_witness_requires_strong_top_tensor():
    weak = CliqueTensor((0, 1), ising_tensor(0.1))
    with pytest.raises(ValueError):
        noncancellation_witness([weak], kappa=0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_witness_always_clears_bound_s2(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3)
    top = center_values(rng.normal(size=dims))
    kappa = float(np.max(np.abs(top)))
    parts = [
        CliqueTensor((0, 1), top),
        CliqueTensor((0,), center_values(rng.normal(scale=3.0, size=2))),
        CliqueTensor((1,), center_values(rng.normal(scale=3.0, size=3))),
    ]
    idx, value = noncancellation_witness(parts, kappa)
    assert abs(value) >= kappa / 4.0 - 1e-12
    # cross-check against brute-force assembly
    brute = (
        parts[0].values
        + parts[1].values[:, None]
        + parts[2].values[None, :]
    )
    assert abs(value) == pytest.approx(np.max(np.abs(brute)), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_noncancellation_support_contrapositive(seed):
    # if every effective entry were below mu, every order-l part would sit
    # below mu * l^l; equivalently the assembled max dominates peak / l^l
    rng = np.random.default_rng(seed)
    dims = (2, 2, 2)
    parts = [CliqueTensor((0, 1, 2), center_values(rng.normal(size=dims)))]
    for sub in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        shape = tuple(dims[i] for i in sub)
        parts.append(CliqueTensor(sub, center_values(rng.normal(size=shape))))
    from mrflearn import effective_tensor as eff

    assembled = eff(parts, dims=dims)
    mu = float(np.max(np.abs(assembled.values)))
    for part in parts:
        ell = part.order
        assert part.max_abs() <= mu * ell**ell + 1e-9
