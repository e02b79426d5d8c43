import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrflearn import (
    CapacityError,
    CliqueTensor,
    EmpiricalDistribution,
    GeneratorSpec,
    MarkovRandomField,
    QueryOracle,
    canonicalize,
    clique_graph,
    condition_on,
    conditional_distribution,
    exact_conditional_mi,
    exact_joint,
    exact_nu,
    generate_model,
    marginal,
    mean_nu_over_probe_sets,
    nu_hat,
    nu_hat_erased,
    nu_hat_queried,
    sample_exact,
)
from mrflearn.generate import random_raw_model
from mrflearn.inference import (
    _deviation, _margins, _nu_of_table, _nu_of_tables, _uis_table, exact_nu_sweep,
)

from conftest import ising_tensor

# frozen oracle values for the +-0.5 Ising pair (direct formula evaluation:
# p_same = e^0.5 / (2 e^0.5 + 2 e^-0.5), p_diff likewise with e^-0.5)
ISING_JOINT = [0.36552928931500246, 0.13447071068499754,
               0.13447071068499754, 0.36552928931500246]
ISING_MI = 0.11094407167172712
ISING_NU = 0.11552928931500246


def brute_joint(model):
    """Independent oracle: per-configuration loop over the raw law."""
    shape = model.arities
    probs = np.zeros(shape)
    for config in itertools.product(*[range(k) for k in shape]):
        logw = 0.0
        for verts, tensor in model.potentials.items():
            logw += tensor.values[tuple(config[v] for v in verts)]
        probs[config] = math.exp(logw)
    return probs / probs.sum()


def test_single_free_node():
    m = MarkovRandomField(1, (2,), {}, r=1)
    joint = exact_joint(m)
    np.testing.assert_allclose(joint.probs, [0.5, 0.5])
    assert joint.log_partition == pytest.approx(math.log(2.0))


def test_ising_pair_joint(ising_pair):
    joint = exact_joint(ising_pair)
    np.testing.assert_allclose(joint.probs.ravel(), ISING_JOINT, atol=1e-12)
    assert joint.probs.ravel()[0] == pytest.approx(0.36552929, abs=5e-9)


def test_independent_components_factorize():
    a = CliqueTensor((0, 1), ising_tensor(0.5))
    b = CliqueTensor((2, 3), ising_tensor(-0.3))
    m = MarkovRandomField(4, (2,) * 4, {(0, 1): a, (2, 3): b}, r=2)
    joint = exact_joint(m)
    left = MarkovRandomField(2, (2, 2), {(0, 1): a}, r=2)
    right = MarkovRandomField(2, (2, 2), {(0, 1): CliqueTensor((0, 1), b.values)}, r=2)
    product = np.einsum(
        "ab,cd->abcd", exact_joint(left).probs, exact_joint(right).probs
    )
    np.testing.assert_allclose(joint.probs, product, atol=1e-12)


def test_capacity_guard():
    m = MarkovRandomField(26, (2,) * 26, {}, r=2)
    with pytest.raises(CapacityError):
        exact_joint(m)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_joint_matches_brute_force_oracle(seed):
    model = random_raw_model(n=4, r=3, max_arity=3, seed=seed)
    joint = exact_joint(model)
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert (joint.probs > 0).all()
    np.testing.assert_allclose(joint.probs, brute_joint(model), atol=1e-10)


def test_joint_entries_recover_the_law(ising_pair):
    joint = exact_joint(ising_pair)
    for a in range(2):
        for b in range(2):
            logw = ising_pair.potentials[(0, 1)].values[a, b]
            expected = math.exp(logw - joint.log_partition)
            assert joint.probs[a, b] == pytest.approx(expected, rel=1e-10)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_table_conditionals_match_local_formula(seed):
    model = canonicalize(random_raw_model(n=4, r=2, max_arity=3, seed=seed))
    joint = exact_joint(model)
    graph = clique_graph(model)
    for u in range(model.n):
        others = tuple(v for v in range(model.n) if v != u)
        table = marginal(joint, (u,) + others)
        flat = table.reshape(model.arities[u], -1)
        for j, rest in enumerate(
            itertools.product(*[range(model.arities[v]) for v in others])
        ):
            x = [0] * model.n
            for v, s in zip(others, rest):
                x[v] = s
            cond = flat[:, j] / flat[:, j].sum()
            np.testing.assert_allclose(
                cond, conditional_distribution(model, u, x), atol=1e-9
            )


# ---------------------------------------------------------------- mutual information


def test_mi_zero_for_independent(isolated_pair):
    joint = exact_joint(isolated_pair)
    assert exact_conditional_mi(joint, 0, (1,)) == pytest.approx(0.0, abs=1e-12)


def test_mi_ising_pair(ising_pair):
    joint = exact_joint(ising_pair)
    assert exact_conditional_mi(joint, 0, (1,)) == pytest.approx(ISING_MI, abs=1e-12)


def test_mi_markov_property(chain3):
    joint = exact_joint(chain3)
    assert exact_conditional_mi(joint, 0, (2,), (1,)) == pytest.approx(0.0, abs=1e-12)


def test_mi_symmetric_in_arguments(chain3):
    joint = exact_joint(chain3)
    assert exact_conditional_mi(joint, 0, (1,), (2,)) == pytest.approx(
        exact_conditional_mi(joint, 1, (0,), (2,)), abs=1e-12
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_chain_rule(seed):
    model = random_raw_model(n=5, r=2, max_arity=2, seed=seed)
    joint = exact_joint(model)
    lhs = exact_conditional_mi(joint, 0, (1, 2)) - exact_conditional_mi(joint, 0, (1,))
    rhs = exact_conditional_mi(joint, 0, (2,), (1,))
    assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------- nu


def test_nu_zero_for_independent(isolated_pair):
    assert exact_nu(exact_joint(isolated_pair), 0, (1,)) == pytest.approx(0.0, abs=1e-14)


def test_nu_ising_pair(ising_pair):
    assert exact_nu(exact_joint(ising_pair), 0, (1,)) == pytest.approx(ISING_NU, abs=1e-12)


@pytest.mark.parametrize("u, group, cond", [
    (0, (), ()),
    (0, (), (1,)),
    (0, (0,), ()),
    (0, (1,), (0,)),
    (0, (1,), (1,)),
    (0, (1, 1), ()),
    (0, (1,), (2, 2)),
    (-1, (1,), ()),
    (3, (1,), ()),
    (0, (-1,), ()),
    (0, (1,), (-2,)),
    (0, (1,), (3,)),
])
def test_bad_triples_raise_the_same_error_everywhere(chain3, u, group, cond):
    joint = exact_joint(chain3)
    samples = sample_exact(joint, 200, seed=0)
    emp = EmpiricalDistribution(samples)
    oracle = QueryOracle.from_samples(samples, capacity=3)
    messages = []
    for call in (
        lambda: exact_nu(joint, u, group, cond),
        lambda: exact_conditional_mi(joint, u, group, cond),
        lambda: nu_hat(emp, u, group, cond),
        lambda: nu_hat_erased(emp, u, group, cond),
        lambda: nu_hat_queried(oracle, u, group, cond, 10),
    ):
        with pytest.raises(ValueError) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1, messages
    assert oracle.consumed == 0


def test_a_bad_node_is_named():
    # -1 and -2 used to read nodes n-1 and n-2, and 99 to fail inside numpy
    model = generate_model(GeneratorSpec(n=5, seed=1))
    joint = exact_joint(model)
    emp = EmpiricalDistribution(sample_exact(joint, 100, seed=0))
    for call, message in [
        (lambda: nu_hat(emp, 0, (-1,)), "node -1 is not a node of the model"),
        (lambda: nu_hat(emp, 0, (1,), (-2,)), "node -2 is not a node of the model"),
        (lambda: exact_nu(joint, 4, (0,), (-1,)), "node -1 is not a node of the model"),
        (lambda: exact_nu(joint, 4, (-1,), ()), "node -1 is not a node of the model"),
        (lambda: mean_nu_over_probe_sets(joint, 4, (99,)), "node 99 is not a node"),
        (lambda: nu_hat(emp, 0, (1, 1)), "node 1 appears twice"),
        (lambda: exact_nu(joint, 2, (0,), (3, 0)), "node 0 appears twice"),
    ]:
        with pytest.raises(ValueError, match=message):
            call()


def test_marginal_names_a_bad_node():
    # a node out of range is named, not left to numpy's "axes don't match array"
    joint = exact_joint(generate_model(GeneratorSpec(n=5, seed=1)))
    for nodes, message in [
        ((99,), "node 99 is not a node of the model"),
        ((-1,), "node -1 is not a node of the model"),
        ((1, 5), "node 5 is not a node of the model"),
        ((2, 0, 2), "node 2 appears twice in the marginal"),
    ]:
        with pytest.raises(ValueError, match=message):
            marginal(joint, nodes)
    assert marginal(joint, (3, 1)).shape == (joint.model.arities[3], joint.model.arities[1])


def _multi_axis_marginal(joint, nodes):
    # the marginal summed over every other axis at once, its kept axes
    # then permuted into the requested order
    others = tuple(v for v in range(joint.model.n) if v not in nodes)
    order = sorted(nodes)
    return joint.probs.sum(axis=others).transpose(tuple(order.index(v) for v in nodes))


def test_marginal_is_the_multi_axis_sum_in_the_requested_order():
    # shuffled orders, all n nodes (nothing summed), a list and NumPy ints:
    # the axes come back in the order asked for, C-ordered, within 1e-15
    # of the multi-axis sum
    model = generate_model(GeneratorSpec(n=6, max_arity=4, seed=1))
    joint = exact_joint(model)
    assert len(set(model.arities)) == 3
    rng = np.random.default_rng(0)
    orders = [tuple(int(v) for v in rng.permutation(6)[:k]) for k in (1, 2, 3, 4, 5, 6, 6)]
    cases = orders + [list(orders[3]), tuple(np.int64(v) for v in orders[4]),
                      list(np.array(orders[2], dtype=np.intp))]
    for nodes in cases:
        table = marginal(joint, nodes)
        assert table.shape == tuple(model.arities[v] for v in nodes)
        assert table.flags.c_contiguous
        want = _multi_axis_marginal(joint, tuple(int(v) for v in nodes))
        assert np.abs(table - want).max() <= 1e-15
    for everything in orders[-2:]:
        assert np.array_equal(marginal(joint, everything), joint.probs.transpose(everything))


def test_a_marginal_copies_what_its_trailing_sum_leaves(monkeypatch):
    # the other nodes after the last requested one are summed as one block
    # before the transposed copy when they hold RUN_CELLS = 64 cells or
    # more, so a leading set copies a small remainder, not the joint; a
    # shorter run is left to the copy's one trailing sum
    import mrflearn.inference as inference

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def ascontiguousarray(self, a):
            copied.append(a.size)
            return np.ascontiguousarray(a)

    joint = exact_joint(generate_model(GeneratorSpec(n=10, seed=3)))
    assert joint.probs.size == 1024 and inference.RUN_CELLS == 64
    cases = [((2, 0, 1), 8), ((1, 3), 16), ((0, 4), 1024), ((9, 0), 1024), ((), 1)]
    monkeypatch.setattr(inference, "np", CountedNumpy())
    for nodes, cells in cases:
        copied = []
        table = marginal(joint, nodes)
        assert copied == [cells], nodes
        assert np.abs(table - _multi_axis_marginal(joint, nodes)).max() <= 1e-15


def test_uis_tables_are_c_contiguous():
    # every exact (u, I..., S) table, S flattened, is C-ordered, up to one
    # over all n nodes
    joint = exact_joint(generate_model(GeneratorSpec(n=6, max_arity=4, seed=1)))
    k = joint.model.arities
    for u, group, cond in [(0, (1,), ()), (2, (5, 0), (3,)), (5, (4, 1), (3, 0, 2))]:
        table = _uis_table(joint, u, group, cond)
        assert table.flags.c_contiguous
        assert table.shape == (k[u], *(k[v] for v in group), math.prod(k[v] for v in cond))


def brute_nu(joint, u, group, cond):
    """Independent oracle: explicit loops over every configuration split."""
    model = joint.model
    k = model.arities
    total = 0.0
    outer = 0
    for r_state in range(k[u]):
        for g_states in itertools.product(*[range(k[v]) for v in group]):
            outer += 1
            for s_states in itertools.product(*[range(k[v]) for v in cond]):
                p_s = p_us = p_is = p_uis = 0.0
                for config in itertools.product(*[range(kk) for kk in k]):
                    p = joint.probs[config]
                    match_s = all(config[v] == s for v, s in zip(cond, s_states))
                    if not match_s:
                        continue
                    p_s += p
                    match_u = config[u] == r_state
                    match_g = all(config[v] == g for v, g in zip(group, g_states))
                    if match_u:
                        p_us += p
                    if match_g:
                        p_is += p
                    if match_u and match_g:
                        p_uis += p
                if p_s > 0:
                    total += abs(p_uis - p_us * p_is / p_s)
    return total / outer


def test_the_nu_reduction_weighs_a_table_by_its_total(chain3):
    joint = exact_joint(chain3)
    table = marginal(joint, (0, 1, 2))  # (u, I, S) with one S node
    value, weight = _nu_of_table(table)
    # a probability table's total is a float near 1, not truncated to 0
    assert isinstance(weight, float) and weight == pytest.approx(1.0)
    assert value == pytest.approx(exact_nu(joint, 0, (1,), (2,)), abs=1e-15)
    assert _nu_of_table(table / 4) == pytest.approx((value, 0.25))
    counts = np.array([[[3, 0], [1, 2]], [[0, 4], [2, 0]]])
    _, count_weight = _nu_of_table(counts)
    assert count_weight == 12 and isinstance(count_weight, int)
    assert _nu_of_table(np.zeros((2, 2, 3), dtype=np.int64)) == (0.0, 0)


def _looped_nu_of_tables(tables):
    # the reducer before its row sums: every table's total and summed
    # deviation taken from its own slice of the stack
    by_shape = {}
    for i, table in enumerate(tables):
        by_shape.setdefault(table.shape, []).append(i)
    out = [None] * len(tables)
    for index in by_shape.values():
        stack = np.stack([tables[i] for i in index])
        p_us, p_is, p_s = _margins(stack)
        dev = _deviation(stack.astype(float, copy=False), p_us, p_is, p_s)
        n_outer = math.prod(stack.shape[1:-1])
        for g, i in enumerate(index):
            total = p_s[g].sum().item()
            out[i] = (float(dev[g].sum()) / n_outer / total if total else 0.0, total)
    return out


def test_nu_row_sums_equal_the_per_table_loop():
    # mixed shapes (S up to 300 configurations, so rows past NumPy's
    # 128-element pairwise blocks), empty S columns and all-zero tables,
    # laid out in C order, in Fortran order (as queried mode's swapped
    # axes are) or mixed, reduced together and one at a time: the same
    # values and weights, of the same types, bit for bit
    rng = np.random.default_rng(0)
    shapes = [(2, 2, 1), (3, 2, 6), (2, 3, 2, 12), (3, 3, 3, 27), (2, 2, 300)]
    for kind, layout in itertools.product(("counts", "probabilities"), ("C", "F", "mixed")):
        tables = []
        for _ in range(200):
            shape = shapes[rng.integers(len(shapes))]
            table = rng.integers(0, 40, size=shape) * (rng.random(shape[-1]) < 0.8)
            if rng.random() < 0.05:
                table = np.zeros(shape, dtype=np.int64)
            if layout == "F" or (layout == "mixed" and rng.random() < 0.3):
                table = np.asfortranarray(table)
            tables.append(table if kind == "counts" else table / max(table.sum(), 1) / 3)
        for batch in [tables] + [[table] for table in tables[:40]]:
            got, want = _nu_of_tables(batch), _looped_nu_of_tables(batch)
            assert got == want
            assert [type(w) for _, w in got] == [type(w) for _, w in want]
        assert {type(w) for _, w in got} == ({int} if kind == "counts" else {float})


def test_nu_matches_brute_force_oracle():
    model = canonicalize(random_raw_model(n=4, r=3, max_arity=3, seed=99))
    joint = exact_joint(model)
    for u, group, cond in [(0, (1,), ()), (0, (1, 2), ()), (2, (3,), (0,)), (1, (0,), (2, 3))]:
        assert exact_nu(joint, u, group, cond) == pytest.approx(
            brute_nu(joint, u, group, cond), abs=1e-12
        )


def test_exact_nu_is_its_sweep_entry():
    model = canonicalize(random_raw_model(n=5, r=3, max_arity=3, seed=7))
    joint = exact_joint(model)
    for u in range(model.n):
        rest = [v for v in range(model.n) if v != u]
        for cond in [(), tuple(rest[-1:]), tuple(rest[-2:])]:
            free = [v for v in rest if v not in cond]
            groups = [g for size in (1, 2) for g in itertools.combinations(free, size)]
            for group, value in zip(groups, exact_nu_sweep(joint, u, groups, cond)):
                nu = exact_nu(joint, u, group, cond)
                assert nu == exact_nu_sweep(joint, u, [group], cond)[0]
                assert nu == value


def test_exact_nu_alone_equals_its_sweep_value_on_a_generated_family():
    # every exact table is C-ordered, so a table's sums do not depend on
    # the tables of its shape stacked beside it
    checked = 0
    for seed in range(30):
        model = generate_model(GeneratorSpec(
            n=6, r=3, max_degree=3, max_arity=3, alpha=0.25, beta=0.9, seed=seed
        ))
        joint = exact_joint(model)
        for u in range(model.n):
            rest = [v for v in range(model.n) if v != u]
            for cond in [()] + [(v,) for v in rest]:
                free = [v for v in rest if v not in cond]
                groups = [g for size in (1, 2) for g in itertools.combinations(free, size)]
                for group, value in zip(groups, exact_nu_sweep(joint, u, groups, cond)):
                    assert exact_nu(joint, u, group, cond) == value, (seed, u, group, cond)
                    checked += 1
    assert checked == 11_700


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_pinsker_domination(seed):
    model = random_raw_model(n=4, r=3, max_arity=3, seed=seed)
    joint = exact_joint(model)
    rng = np.random.default_rng(seed)
    u = int(rng.integers(model.n))
    rest = [v for v in range(model.n) if v != u]
    rng.shuffle(rest)
    group = tuple(sorted(rest[:2]))
    cond = tuple(sorted(rest[2:3]))
    nu = exact_nu(joint, u, group, cond)
    mi = exact_conditional_mi(joint, u, group, cond)
    assert 0.0 <= nu <= 1.0
    assert math.sqrt(mi / 2.0) >= nu - 1e-12


def test_zero_mi_certificate_after_conditioning():
    model = canonicalize(random_raw_model(n=5, r=2, max_arity=2, seed=5))
    graph = clique_graph(model)
    u = max(range(model.n), key=lambda v: graph.degrees[v])
    nbrs = sorted(graph.neighbors[u])
    reduced = condition_on(model, nbrs, [0] * len(nbrs))
    keep = [v for v in range(model.n) if v not in nbrs]
    joint = exact_joint(reduced)
    new_u = keep.index(u)
    for v in range(reduced.n):
        if v != new_u:
            assert exact_conditional_mi(joint, new_u, (v,)) == pytest.approx(0.0, abs=1e-12)
