import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mrflearn import (
    ERASED,
    CliqueTensor,
    EmpiricalDistribution,
    InsufficientCoverageError,
    MarkovRandomField,
    NuEstimator,
    QueryCapacityError,
    QueryOracle,
    SampleSet,
    canonicalize,
    compute_gamma_delta,
    erase,
    exact_joint,
    exact_nu,
    log10_required_samples_erased,
    log10_required_samples_full,
    marginal,
    nu_from_marginals,
    nu_hat,
    nu_hat_erased,
    nu_hat_erased_sweep,
    nu_hat_queried,
    required_samples_erased,
    required_samples_full,
    sample_exact,
)
from mrflearn.estimation import _count_tables, _extended_block
from mrflearn.generate import random_raw_model
from mrflearn.inference import _nu_of_table
from mrflearn.sampling import inverse_cdf_sampler, spawn_rng

from conftest import ising_tensor

ISING_NU = 0.11552928931500246


# ---------------------------------------------------------------- nu_hat


def test_nu_hat_zero_on_exact_product_table():
    # hand-built empirical distribution where u and v are exactly independent
    rows = [[a, b] for a in range(2) for b in range(2) for _ in range(5)]
    emp = EmpiricalDistribution(SampleSet(np.array(rows), (2, 2)))
    assert nu_hat(emp, 0, (1,)) == pytest.approx(0.0, abs=1e-15)


def test_nu_hat_single_sample_is_degenerate_zero():
    emp = EmpiricalDistribution(SampleSet(np.array([[1, 0, 1]]), (2, 2, 2)))
    assert nu_hat(emp, 0, (1,)) == 0.0
    assert nu_hat(emp, 0, (1,), (2,)) == 0.0


def test_nu_hat_converges_on_ising(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 100_000, seed=31)
    value = nu_hat(EmpiricalDistribution(samples), 0, (1,))
    assert abs(value - ISING_NU) < 0.01


def brute_nu_hat(data, arities, u, group, cond):
    """Independent oracle: masked counting, one (R, G, x_S) cell at a time."""
    m = data.shape[0]
    total, outer = 0.0, 0
    for r_state in range(arities[u]):
        for g in itertools.product(*[range(arities[v]) for v in group]):
            outer += 1
            for xs in itertools.product(*[range(arities[v]) for v in cond]):
                rows = np.ones(m, bool)
                for v, sv in zip(cond, xs):
                    rows &= data[:, v] == sv
                c_s = rows.sum()
                if c_s == 0:
                    continue
                c_u = (rows & (data[:, u] == r_state)).sum()
                g_rows = rows.copy()
                for v, gv in zip(group, g):
                    g_rows &= data[:, v] == gv
                c_ug = (g_rows & (data[:, u] == r_state)).sum()
                c_g = g_rows.sum()
                total += (c_s / m) * abs(c_ug / c_s - (c_u / c_s) * (c_g / c_s))
    return total / outer


def test_nu_hat_matches_brute_force_oracle():
    model = canonicalize(random_raw_model(4, 2, 3, seed=17))
    samples = sample_exact(exact_joint(model), 2000, seed=5)
    emp = EmpiricalDistribution(samples)
    for u, group, cond in [(0, (1,), ()), (0, (1, 2), ()), (2, (3,), (0,)), (1, (0,), (2, 3))]:
        assert nu_hat(emp, u, group, cond) == pytest.approx(
            brute_nu_hat(samples.data, model.arities, u, group, cond), abs=1e-12
        )


def test_nu_hat_rejects_erased_cells(ising_pair):
    samples = erase(sample_exact(exact_joint(ising_pair), 100, seed=1), 0.5, seed=2)
    with pytest.raises(ValueError, match="erased"):
        nu_hat(EmpiricalDistribution(samples), 0, (1,))


def test_nu_hat_error_rate_scales_like_root_m(ising_pair):
    joint = exact_joint(ising_pair)
    sizes = [1000, 4000, 16000, 64000, 256000]
    errors = []
    for m in sizes:
        reps = []
        for rep in range(30):
            samples = sample_exact(joint, m, seed=1000 + rep * 7 + m)
            value = nu_hat(EmpiricalDistribution(samples), 0, (1,))
            reps.append(abs(value - ISING_NU))
        errors.append(np.mean(reps))
    slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


# ---------------------------------------------------------------- erased estimation


def test_nu_hat_erased_with_full_reveal_matches_plain(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 5000, seed=8)
    emp_full = EmpiricalDistribution(samples)
    emp_erased = EmpiricalDistribution(erase(samples, 1.0, seed=9))
    value, eff = nu_hat_erased(emp_erased, 0, (1,))
    assert eff == samples.m
    assert value == nu_hat(emp_full, 0, (1,))


def test_nu_hat_erased_no_coverage():
    data = np.array([[-1, 0], [-1, 1], [0, -1]])
    emp = EmpiricalDistribution(SampleSet(data, (2, 2)))
    message = r"no sample reveals all of nodes \[0, 1\]"
    with pytest.raises(InsufficientCoverageError, match=message):
        nu_hat_erased(emp, 0, (1,))
    empty = EmpiricalDistribution(SampleSet(np.zeros((0, 3), dtype=np.int64), (2, 2, 2)))
    with pytest.raises(InsufficientCoverageError, match="no complete samples"):
        nu_hat(empty, 0, (1,), (2,))
    with pytest.raises(InsufficientCoverageError, match="no sample reveals"):
        nu_hat_erased(empty, 0, (1,), (2,))
    # nu_hat's own checks, and zero coverage through the sweep where the
    # single calls raise
    with pytest.raises(InsufficientCoverageError, match="no complete samples"):
        nu_hat(empty, 0, (2,))
    assert nu_hat_erased_sweep(empty, 0, [(1,), (2,)]) == [(0.0, 0), (0.0, 0)]
    with pytest.raises(ValueError, match="use nu_hat_erased"):
        nu_hat(emp, 0, (1,))
    assert nu_hat_erased_sweep(emp, 0, [(1,)]) == [(0.0, 0)]


def test_nu_hat_erased_effective_sample_count():
    model = MarkovRandomField(4, (2,) * 4, {}, r=2)
    samples = sample_exact(exact_joint(model), 10_000, seed=3)
    erased = erase(samples, 0.8, seed=4)
    _, eff = nu_hat_erased(EmpiricalDistribution(erased), 0, (1,), (2, 3))
    p = 0.8**4
    sigma = math.sqrt(samples.m * p * (1 - p))
    assert abs(eff - samples.m * p) <= 3 * sigma


# ---------------------------------------------------------------- count-table kernel


def reference_nu_hat(columns, k_u, k_group, k_cond):
    """The np.unique + per-conditioning-block kernel the count table
    replaced, over complete-case columns ordered (u, I..., S...)."""
    m = columns[0].size
    block_size = k_u * math.prod(k_group)
    codes = np.zeros(m, dtype=np.int64)
    n_group = len(k_group)
    for j, k in enumerate(k_cond):
        codes = codes * k + columns[1 + n_group + j]
    for j, k in enumerate(k_group):
        codes = codes * k + columns[1 + j]
    codes = codes * k_u + columns[0]
    ucodes, counts = np.unique(codes, return_counts=True)
    cond_codes = ucodes // block_size
    boundaries = np.concatenate(
        ([0], np.nonzero(np.diff(cond_codes))[0] + 1, [ucodes.size])
    )
    total = 0.0
    group_axes = tuple(range(n_group))
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        dense = np.zeros(block_size)
        dense[ucodes[start:stop] % block_size] = counts[start:stop]
        block = dense.reshape(k_group + (k_u,))
        c_s = block.sum()
        c_is = block.sum(axis=-1, keepdims=True)
        c_us = block.sum(axis=group_axes, keepdims=True)
        dev = np.abs(block / c_s - (c_is / c_s) * (c_us / c_s))
        total += (c_s / m) * float(dev.mean())
    return total


def reference_complete_case(data, arities, u, group, cond):
    """Reference nu-hat over the rows revealing every needed node, and
    the number of those rows."""
    nodes = (u,) + group + cond
    keep = np.all(data[:, list(nodes)] != ERASED, axis=1)
    columns = [data[keep, v] for v in nodes]
    value = reference_nu_hat(
        columns,
        arities[u],
        tuple(arities[v] for v in group),
        tuple(arities[v] for v in cond),
    )
    return value, int(keep.sum())


def random_triple(rng, n, r, max_cond):
    nodes = [int(v) for v in rng.permutation(n)]
    size_i = int(rng.integers(1, r))
    size_s = int(rng.integers(0, max_cond + 1))
    return nodes[0], tuple(nodes[1 : 1 + size_i]), tuple(nodes[1 + size_i : 1 + size_i + size_s])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", [2, 3])
def test_count_table_matches_block_loop_reference(k, r):
    n = 7
    model = canonicalize(random_raw_model(n, r, k, seed=300 + 10 * k + r))
    samples = sample_exact(exact_joint(model), 3000, seed=k + r)
    erased = erase(samples, 0.8, seed=k * r)
    emp, emp_erased = EmpiricalDistribution(samples), EmpiricalDistribution(erased)
    rng = np.random.default_rng(k * 10 + r)
    for _ in range(25):
        u, group, cond = random_triple(rng, n, r, 4)
        want, _ = reference_complete_case(samples.data, model.arities, u, group, cond)
        assert abs(nu_hat(emp, u, group, cond) - want) <= 1e-12
        oracle = QueryOracle.from_samples(samples, capacity=n)
        got = nu_hat_queried(oracle, u, group, cond, samples.m)
        assert abs(got - want) <= 1e-12
        want, usable = reference_complete_case(erased.data, model.arities, u, group, cond)
        got, got_usable = nu_hat_erased(emp_erased, u, group, cond)
        assert got_usable == usable
        assert abs(got - want) <= 1e-12


def random_sweep(rng, n, r, max_cond):
    """A random (u, S) and every probe set of fewer than r of the other nodes."""
    nodes = [int(v) for v in rng.permutation(n)]
    size_s = int(rng.integers(0, max_cond + 1))
    u, cond, pool = nodes[0], tuple(nodes[1 : 1 + size_s]), nodes[1 + size_s :]
    groups = [g for size in range(1, r) for g in itertools.combinations(pool, size)]
    return u, groups, cond


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", [2, 3])
def test_sweep_matches_single_calls_and_reference(k, r):
    n = 7
    model = canonicalize(random_raw_model(n, r, k, seed=500 + 10 * k + r))
    samples = sample_exact(exact_joint(model), 3000, seed=k * r)
    erased = erase(samples, 0.8, seed=k + r)
    emp, emp_erased = EmpiricalDistribution(samples), EmpiricalDistribution(erased)
    rng = np.random.default_rng(k * 100 + r)
    for _ in range(8):
        u, groups, cond = random_sweep(rng, n, r, 4)
        values = nu_hat_erased_sweep(emp, u, groups, cond)
        erased_values = nu_hat_erased_sweep(emp_erased, u, groups, cond)
        assert len(values) == len(erased_values) == len(groups)
        for group, (value, complete), (got, usable) in zip(groups, values, erased_values):
            assert complete == samples.m
            want, _ = reference_complete_case(samples.data, model.arities, u, group, cond)
            assert abs(value - want) <= 1e-12
            assert abs(value - nu_hat(emp, u, group, cond)) <= 1e-12
            want, want_usable = reference_complete_case(
                erased.data, model.arities, u, group, cond
            )
            assert usable == want_usable
            assert abs(got - want) <= 1e-12
            single, single_usable = nu_hat_erased(emp_erased, u, group, cond)
            assert usable == single_usable
            assert abs(got - single) <= 1e-12


def test_erased_estimator_sweep_matches_single_calls():
    rng = np.random.default_rng(9)
    data = rng.integers(2, size=(400, 6))
    data[rng.random(data.shape) < 0.3] = ERASED
    data[:, 3] = ERASED  # a node no sample reveals
    emp = EmpiricalDistribution(SampleSet(data, (2,) * 6))
    groups = [(1,), (2,), (3,), (1, 2), (2, 3), (5,)]
    usable = [nu_hat_erased_sweep(emp, 0, [g], (4,))[0][1] for g in groups]
    floor = sorted(set(usable))[-2] + 1  # some estimates clear the floor, some do not
    swept, single = NuEstimator.sampled(emp, floor), NuEstimator.sampled(emp, floor)
    values = swept(0, groups, (4,))
    assert values == [value for g in groups for value in single(0, [g], (4,))]
    assert swept.evaluations == single.evaluations == len(groups)
    assert swept.coverage_events == single.coverage_events
    effective = [eff for *_, eff in swept.coverage_events]
    assert 0 in effective and any(0 < eff < floor for eff in effective)
    assert any(value > 0 for value in values)


@pytest.mark.parametrize(
    "arities, dtype",
    # a state times the stride of node 1 in (1, 3) overflows the column dtype
    [((3, 250, 4, 5, 2), np.uint8), ((3, 250, 4, 300, 2), np.uint16)],
)
def test_sweep_on_wide_columns(arities, dtype):
    rng = np.random.default_rng(3)
    data = np.stack([rng.integers(k, size=6000) for k in arities], axis=1)
    data[rng.random(data.shape) < 0.1] = ERASED
    emp = EmpiricalDistribution(SampleSet(data, arities))
    assert emp.column(1).dtype == dtype
    groups = [(1,), (3,), (1, 3), (3, 1), (2, 1)]
    for cond in [(), (4,), (2, 4)]:
        pool = [g for g in groups if not set(g) & set(cond)]
        for group, (got, usable) in zip(pool, nu_hat_erased_sweep(emp, 0, pool, cond)):
            want, want_usable = reference_complete_case(data, arities, 0, group, cond)
            assert usable == want_usable > 0
            assert abs(got - want) <= 1e-12


def test_count_table_relabels_conditioning_sets_larger_than_the_sample():
    rng = np.random.default_rng(5)
    arities = (3,) * 9
    data = rng.integers(3, size=(40, 9))
    data[rng.random(data.shape) < 0.1] = ERASED
    emp = EmpiricalDistribution(SampleSet(data, arities))
    u, group, cond = 0, (1, 2), (3, 4, 5, 6, 7, 8)
    # the S axis is relabelled, not mixed-radix coded
    assert 3 ** len(cond) > emp.counts.size
    want, usable = reference_complete_case(data, arities, u, group, cond)
    assert usable > 0
    got, got_usable = nu_hat_erased(emp, u, group, cond)
    assert got_usable == usable
    assert abs(got - want) <= 1e-12
    groups = [(1, 2), (1,), (2,), (2, 1)]
    for group, (got, got_usable) in zip(groups, nu_hat_erased_sweep(emp, u, groups, cond)):
        want, usable = reference_complete_case(data, arities, u, group, cond)
        assert got_usable == usable
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("k, n", [(2, 41), (3, 33)])
def test_distinct_row_code_never_wraps(k, n):
    # (k + 1)^n > 2^63: coded mixed-radix in one int64 the rows would wrap;
    # at k = 3 a wrapped code drops column 0 (4^32 = 2^64), so rows that
    # differ only there would merge
    rng = np.random.default_rng(k)
    pool = rng.integers(k, size=(60, n))
    pool[1::2, 1:] = pool[::2, 1:]  # pairs of rows that differ at most in column 0
    data = pool[rng.integers(60, size=3000)]
    data[rng.random(data.shape) < 0.1] = ERASED
    emp = EmpiricalDistribution(SampleSet(data, (k,) * n))
    rows, counts = np.unique(data, axis=0, return_counts=True)
    assert emp.counts.size == len(rows) and emp.counts.sum() == 3000
    assert sorted(emp.counts.tolist()) == sorted(counts.tolist())
    for u, cond in [(0, ()), (0, (1, 2)), (n - 1, (0, 5))]:
        groups = [(v,) for v in range(n) if v != u and v not in cond][:12] + [(3, 4)]
        for group, (got, usable) in zip(groups, nu_hat_erased_sweep(emp, u, groups, cond)):
            want, want_usable = reference_complete_case(data, (k,) * n, u, group, cond)
            assert type(usable) is int and usable == want_usable
            assert abs(got - want) <= 1e-12


def reference_exact_nu(joint, u, group, cond):
    """exact_nu as written before it was routed through nu_from_marginals."""
    table = marginal(joint, (u,) + group + cond)
    i_axes = tuple(range(1, 1 + len(group)))
    p_s = table.sum(axis=(0,) + i_axes, keepdims=True)
    p_us = table.sum(axis=i_axes, keepdims=True)
    p_is = table.sum(axis=(0,), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(table / p_s - (p_us / p_s) * (p_is / p_s))
        weighted = np.where(p_s > 0.0, p_s * dev, 0.0)
    n_outer = weighted.shape[0] * math.prod(weighted.shape[1 : 1 + len(group)])
    return float(weighted.sum()) / n_outer


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", [2, 3])
def test_exact_nu_matches_reference_formula(k, r):
    n = 6
    joint = exact_joint(canonicalize(random_raw_model(n, r, k, seed=400 + 10 * k + r)))
    rng = np.random.default_rng(k + 10 * r)
    for _ in range(25):
        u, group, cond = random_triple(rng, n, r, 3)
        want = reference_exact_nu(joint, u, group, cond)
        assert abs(exact_nu(joint, u, group, cond) - want) <= 1e-12


# ---------------------------------------------------------------- bounded queries


def test_query_oracle_enforces_capacity(ising_pair):
    oracle = QueryOracle.from_joint(exact_joint(ising_pair), capacity=1, seed=0)
    with pytest.raises(QueryCapacityError):
        oracle.query((0, 1), 10)


def reference_tally(rows, arities, nodes):
    """Independent oracle: one row at a time into an extended-alphabet
    table over `nodes`, axes in their order, an erased cell in state k_v."""
    table = np.zeros([arities[v] + 1 for v in nodes], dtype=np.int64)
    for row in rows:
        table[tuple(arities[v] if x == ERASED else x for v, x in zip(nodes, row))] += 1
    return table


def dense(table, shape, m):
    """A query's count table as a dense array of `shape`, after checking
    its form: dense up to m cells, else ascending occupied cells and
    their positive counts."""
    if math.prod(shape) <= m:
        assert isinstance(table, np.ndarray) and table.shape == shape
        assert table.dtype == np.int64
        return table
    cells, counts = table
    assert np.all(np.diff(cells) > 0) and np.all(counts > 0) and counts.dtype == np.int64
    out = np.zeros(math.prod(shape), dtype=np.int64)
    out[cells] = counts
    return out.reshape(shape)


def test_query_batches_are_fresh(ising_pair):
    oracle = QueryOracle.from_joint(exact_joint(ising_pair), capacity=2, seed=0)
    a = dense(oracle.query((0, 1), 500), (3, 3), 500)
    b = dense(oracle.query((0, 1), 500), (3, 3), 500)
    assert oracle.consumed == 1000
    assert oracle.queries_issued == 2
    assert a.sum() == b.sum() == 500
    assert not np.array_equal(a, b)


def test_query_oracle_from_samples_exhausts(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 100, seed=0)
    oracle = QueryOracle.from_samples(samples, capacity=2)
    oracle.query((0,), 80)
    with pytest.raises(RuntimeError, match="exhausted"):
        oracle.query((0,), 30)


def test_query_oracle_from_samples_serves_the_next_rows():
    model = canonicalize(random_raw_model(5, 2, 3, seed=11))
    samples = erase(sample_exact(exact_joint(model), 60, seed=1), 0.7, seed=2)
    oracle = QueryOracle.from_samples(samples, capacity=3)
    pos = 0
    for nodes, m in [((4, 0), 10), ((2,), 1), ((1, 3, 4), 25), ((0, 2, 3), 24)]:
        rows = samples.data[pos : pos + m, list(nodes)]
        want = reference_tally(rows, model.arities, nodes)
        np.testing.assert_array_equal(dense(oracle.query(nodes, m), want.shape, m), want)
        pos += m
    assert (oracle.consumed, oracle.queries_issued, oracle.max_query_size) == (60, 4, 3)
    with pytest.raises(RuntimeError, match="exhausted"):
        oracle.query((0,), 1)


def test_query_from_joint_counts_the_sampler_rows():
    # the oracle's tally counts exactly the rows the sampler draws from
    # the same stream, over the nodes in the order asked
    model = canonicalize(random_raw_model(7, 3, 4, seed=5))
    joint = exact_joint(model)
    oracle = QueryOracle.from_joint(joint, capacity=5, seed=4)
    draw = inverse_cdf_sampler(joint.probs, spawn_rng(4, "oracle"))
    for nodes, m in [((6, 0, 3), 300), ((2,), 50), ((1, 5, 4, 0, 2), 400), ((3, 6), 1)]:
        want = reference_tally(draw(m, nodes), model.arities, nodes)
        np.testing.assert_array_equal(dense(oracle.query(nodes, m), want.shape, m), want)


def test_query_oracle_stream_does_not_depend_on_the_queried_nodes():
    model = canonicalize(random_raw_model(6, 3, 3, seed=21))
    joint = exact_joint(model)
    a = QueryOracle.from_joint(joint, capacity=4, seed=8)
    b = QueryOracle.from_joint(joint, capacity=4, seed=8)
    for nodes_a, nodes_b in [((0, 1, 2), (1, 2, 5)), ((3,), (3, 4)), ((5, 0, 4, 2), (2, 5))]:
        shared = sorted(set(nodes_a) & set(nodes_b))
        table_a = dense(a.query(nodes_a, 500), tuple(model.arities[v] + 1 for v in nodes_a), 500)
        table_b = dense(b.query(nodes_b, 500), tuple(model.arities[v] + 1 for v in nodes_b), 500)

        def on_shared(table, nodes):
            summed = table.sum(axis=tuple(j for j, v in enumerate(nodes) if v not in shared))
            kept = [v for v in nodes if v in shared]
            return summed.transpose([kept.index(v) for v in shared])

        np.testing.assert_array_equal(on_shared(table_a, nodes_a), on_shared(table_b, nodes_b))


def test_query_rejects_bad_nodes_and_batch_sizes():
    samples = sample_exact(exact_joint(canonicalize(random_raw_model(5, 2, 3, seed=11))), 60, 1)
    oracle = QueryOracle.from_samples(samples, capacity=3)
    for nodes, batch, match in [
        ((-1, 0), 5, "node -1 is not a node"),
        ((0, 5), 5, "node 5 is not a node"),
        ((0, 0), 5, "node 0 appears twice in the query"),
        ((2, 1, 2), 5, "node 2 appears twice in the query"),
        ((0,), 2.5, "must be an integer"),
        ((0,), math.inf, "must be an integer"),
        ((0,), math.nan, "must be an integer"),
        ((0,), 0, ">= 1"),
    ]:
        with pytest.raises(ValueError, match=match):
            oracle.query(nodes, batch)
    assert (oracle.consumed, oracle.queries_issued, oracle.max_query_size) == (0, 0, 0)
    assert oracle.query((1, 0), np.int64(5))[1].sum() == 5
    assert oracle.query((1, 0), 5.0)[1].sum() == 5
    assert oracle.consumed == 10 and isinstance(oracle.consumed, int)


def test_query_table_stays_within_the_batch():
    # 16 binary nodes: 3^16 extended cells, served sparse from 50 rows;
    # a dense table would take 344 MB
    model = canonicalize(random_raw_model(16, 2, 2, seed=16))
    joint = exact_joint(model)
    oracle = QueryOracle.from_joint(joint, capacity=16, seed=2)
    draw = inverse_cdf_sampler(joint.probs, spawn_rng(2, "oracle"))
    nodes = tuple(np.random.default_rng(16).permutation(16).tolist())
    tracemalloc.start()
    table = oracle.query(nodes, 50)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    want = reference_tally(draw(50, nodes), model.arities, nodes)
    cells, counts = table
    np.testing.assert_array_equal(cells, np.flatnonzero(want))
    np.testing.assert_array_equal(counts, want.ravel()[cells])


def test_query_refuses_a_table_too_large_to_code():
    # 40 binary nodes: 3^40 extended cells, past a 64-bit code
    samples = SampleSet(np.zeros((4, 40), dtype=np.int64), (2,) * 40)
    oracle = QueryOracle.from_samples(samples, capacity=40)
    with pytest.raises(ValueError, match="64 bits"):
        oracle.query(tuple(range(40)), 2)
    assert oracle.consumed == 0
    assert oracle.query(tuple(range(39)), 2)[1].tolist() == [2]


def _row_path_nu_hat_queried(rows, arities, u, group, cond):
    """The row-based queried estimate: the batch's rows at the sorted
    nodes, extended, counted by ``_count_tables`` and reduced."""
    nodes = tuple(sorted((u,) + group + cond))
    sub_arities = [arities[v] for v in nodes]
    block = _extended_block(rows, sub_arities)
    row = nodes.index
    (table,) = _count_tables(block, sub_arities, row(u), [tuple(map(row, group))],
                             tuple(map(row, cond)))
    return _nu_of_table(table)[0]


@pytest.mark.parametrize("source", ["joint", "erased"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_nu_hat_queried_matches_the_row_path_exactly(source, k, r):
    n = 8
    model = canonicalize(random_raw_model(n, r, k, seed=40 + 10 * k + r))
    joint = exact_joint(model)
    rng = np.random.default_rng(k * 10 + r)
    batches = [30, 500] * 30  # 30 rows: many S spaces outgrow the batch
    if source == "joint":
        oracle = QueryOracle.from_joint(joint, capacity=n, seed=k + r)
        draw = inverse_cdf_sampler(joint.probs, spawn_rng(k + r, "oracle"))
    else:
        data = erase(sample_exact(joint, sum(batches), seed=k + r), 0.8, seed=r).data
        oracle = QueryOracle.from_samples(SampleSet(data, model.arities), capacity=n)
        stream = iter(np.split(data, np.cumsum(batches)[:-1]))

        def draw(m, nodes):
            return next(stream)[:, nodes]
    outgrown = 0
    for m_batch in batches:
        u, group, cond = random_triple(rng, n, r, 5)
        nodes = sorted((u,) + group + cond)
        want = _row_path_nu_hat_queried(draw(m_batch, nodes), model.arities, u, group, cond)
        try:
            got = nu_hat_queried(oracle, u, group, cond, m_batch)
        except InsufficientCoverageError:
            continue
        assert got == want
        outgrown += math.prod(model.arities[v] for v in cond) > m_batch
    assert outgrown > 0


@pytest.mark.parametrize("source", ["joint", "erased"])
def test_nu_hat_queried_matches_the_row_path_on_large_tables(source):
    # tables far past the batch, most past 2^24 cells: 16 binary nodes
    # with |S| up to 14 from the exact sampler, and up to 8 nodes of 8
    # states from an erased stream (|S| = 4 at 5000 rows: S fits the batch)
    rng = np.random.default_rng(7)
    if source == "joint":
        model = canonicalize(random_raw_model(16, 2, 2, seed=61))
        arities, joint = model.arities, exact_joint(model)
        oracle = QueryOracle.from_joint(joint, capacity=16, seed=6)
        draw = inverse_cdf_sampler(joint.probs, spawn_rng(6, "oracle"))
        triples = []
        for size_s in (14, 14, 13, 12, 14, 10, 8, 6, 3, 0, 14, 11):
            nodes = rng.permutation(16).tolist()
            triples.append((nodes[0], (nodes[1],), tuple(nodes[2 : 2 + size_s])))
        batches = [200, 5000] * 6
    else:
        arities = (8,) * 8
        triples = [(0, (1,), (2, 3, 4, 5, 6, 7)), (7, (6, 5), (4, 3, 2, 1, 0)),
                   (3, (1,), (0, 5, 6, 7)), (2, (4,), (7, 6, 5, 0)),
                   (1, (0, 2), (3, 4, 5, 6, 7))]
        batches = [2000, 5000, 2000, 5000, 5000]
        data = rng.integers(0, 8, (sum(batches), 8))
        data = erase(SampleSet(data, arities), 0.9, seed=8).data
        oracle = QueryOracle.from_samples(SampleSet(data, arities), capacity=8)
        stream = iter(np.split(data, np.cumsum(batches)[:-1]))

        def draw(m, nodes):
            return next(stream)[:, nodes]
    past_cap = 0
    for (u, group, cond), m_batch in zip(triples, batches):
        nodes = sorted((u,) + group + cond)
        want = _row_path_nu_hat_queried(draw(m_batch, nodes), arities, u, group, cond)
        assert nu_hat_queried(oracle, u, group, cond, m_batch) == want
        past_cap += math.prod(arities[v] + 1 for v in nodes) > 1 << 24
    assert past_cap >= 3


def test_sparse_query_read_stays_within_the_batch():
    # 16 binary nodes, |S| = 14: the query comes back sparse, and reading
    # it holds the batch's rows, not the 3^16 cells (344 MB) of a dense table
    model = canonicalize(random_raw_model(16, 2, 2, seed=16))
    joint = exact_joint(model)
    oracle = QueryOracle.from_joint(joint, capacity=16, seed=3)
    draw = inverse_cdf_sampler(joint.probs, spawn_rng(3, "oracle"))
    nodes = np.random.default_rng(16).permutation(16).tolist()
    u, group, cond = nodes[0], (nodes[1],), tuple(nodes[2:])
    tracemalloc.start()
    got = nu_hat_queried(oracle, u, group, cond, 10_000)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 << 20
    assert got == _row_path_nu_hat_queried(draw(10_000, sorted(nodes)), model.arities,
                                           u, group, cond)


def test_queried_s_configuration_seen_with_i_or_u_erased_is_kept():
    # prod(k_S) = 243 > 80 rows: an S configuration counts as seen when a
    # row reveals all of S, even if it erases u or I; keeping only those
    # seen in complete rows moves this value in its last bit
    model = canonicalize(random_raw_model(8, 2, 3, seed=98))
    data = erase(sample_exact(exact_joint(model), 3200, seed=98), 0.7, seed=98).data[640:720]
    u, group, cond = 2, (7,), (0, 4, 5, 3, 1)
    oracle = QueryOracle.from_samples(SampleSet(data, model.arities), capacity=8)
    want = _row_path_nu_hat_queried(data[:, sorted((u,) + group + cond)], model.arities,
                                    u, group, cond)
    assert nu_hat_queried(oracle, u, group, cond, 80) == want


def test_queried_encoding_of_an_erased_stream_matches_the_where_encoding():
    n, r = 6, 3
    model = canonicalize(random_raw_model(n, r, 3, seed=21))
    samples = erase(sample_exact(exact_joint(model), 6000, seed=1), 0.8, seed=2)
    oracle = QueryOracle.from_samples(samples, capacity=n)
    rng = np.random.default_rng(6)
    pos, m_batch = 0, 300
    for _ in range(20):
        u, group, cond = random_triple(rng, n, r, 3)
        got = nu_hat_queried(oracle, u, group, cond, m_batch)
        # the encoding queried mode had: np.where over the batch at full
        # arities, its rows addressed by node through a position map
        nodes = sorted((u,) + group + cond)
        block = samples.data[pos : pos + m_batch, nodes]
        extended = np.where(block == ERASED, [model.arities[v] for v in nodes], block).T
        by_node = np.zeros((n, m_batch), dtype=np.int64)
        by_node[nodes] = extended
        (table,) = _count_tables(by_node, model.arities, u, [group], cond)
        want, usable = _nu_of_table(table)
        assert usable > 0
        assert got == want
        reference, _ = reference_complete_case(samples.data[pos : pos + m_batch],
                                               model.arities, u, group, cond)
        assert abs(got - reference) <= 1e-12
        pos += m_batch
    assert oracle.consumed == pos


def test_nu_hat_queried_independent_pair(isolated_pair):
    oracle = QueryOracle.from_joint(exact_joint(isolated_pair), capacity=2, seed=0)
    value = nu_hat_queried(oracle, 0, (1,), (), 10_000)
    assert value < 0.02
    assert oracle.consumed == 10_000


# ---------------------------------------------------------------- sample-size formulas


def test_required_samples_spot_value():
    # frozen by direct evaluation of the bound formula
    assert required_samples_full(2, 0.1, 0.01, 12, 2, 2, 0.18) == 443457409


def test_required_samples_monotonicity():
    base = required_samples_full(2, 0.1, 0.05, 10, 2, 2, 0.2)
    assert required_samples_full(3, 0.1, 0.05, 10, 2, 2, 0.2) > base
    assert required_samples_full(2, 0.05, 0.05, 10, 2, 2, 0.2) > base
    assert required_samples_full(2, 0.2, 0.05, 10, 2, 2, 0.2) < base


def test_required_samples_large_eps_leaves_log_scale():
    # with a huge tolerance only the logarithmic bracket remains
    m = required_samples_full(1, 1000.0, 0.5, 4, 2, 2, 0.5)
    assert m < 10


def test_required_samples_overflow_reports_log10():
    with pytest.raises(OverflowError, match="log10"):
        required_samples_full(1e4, 0.01, 0.01, 100, 2, 2, 0.01)
    assert log10_required_samples_full(1e4, 0.01, 0.01, 100, 2, 2, 0.01) > 300


def test_required_samples_report_log10_when_delta_power_underflows():
    # delta ** (2 ell) underflows to zero while k ** (2 ell) stays finite
    with pytest.raises(OverflowError, match="log10"):
        required_samples_full(100, 0.1, 0.05, 10, 2, 2, 1e-4)
    with pytest.raises(OverflowError, match="log10"):
        required_samples_erased(100, 0.1, 0.05, 10, 2, 2, 1e-4, 0.9)


def test_required_samples_erased_rejects_a_negative_outer_bracket():
    # a tiny inner bound leaves budget*ln(n) + ln(budget) + ln(2*inner/omega) < 0
    args = (0.5, 784.39, 0.6185, 22, 5, 2, 0.187, 0.2045)
    with pytest.raises(ValueError, match="outer bracket"):
        required_samples_erased(*args)
    with pytest.raises(ValueError, match="outer bracket"):
        log10_required_samples_erased(*args)


def test_required_samples_erased_dominates_full():
    args = (4.0, 0.1, 0.05, 12, 2, 2, 0.2)
    full = required_samples_full(4.0, 0.05, 0.05, 12, 2, 2, 0.2)
    assert required_samples_erased(*args, reveal_prob=1.0) > full


def test_required_samples_erased_inverse_square_scaling():
    args = (3.0, 0.1, 0.05, 10, 2, 2, 0.25)
    full_p = required_samples_erased(*args, reveal_prob=0.8)
    half_p = required_samples_erased(*args, reveal_prob=0.4)
    assert half_p == pytest.approx(4 * full_p, abs=4)


def test_required_samples_erased_regression_value():
    # frozen by direct evaluation: the inner bound is 60*2^6/(0.01*0.25^6)
    # times a 20.970 log bracket, i.e. 3.2983e10, and the outer factor
    # (3 log 10 + log 3 + log(2N/omega)) / 0.81 is 44.34
    value = required_samples_erased(3.0, 0.1, 0.05, 10, 2, 2, 0.25, 0.9)
    assert value == 1462436896604


# ---------------------------------------------------------------- marginal-form nu


def test_nu_from_marginals_consistent_tables_match_exact(chain3):
    joint = exact_joint(chain3)
    u, group, cond = 0, (1,), (2,)
    p_uis = marginal(joint, (u,) + group + cond)
    p_us = marginal(joint, (u,) + cond)
    p_is = marginal(joint, group + cond)
    p_s = marginal(joint, cond)
    value = nu_from_marginals(p_uis, p_us, p_is, p_s)
    assert value == pytest.approx(exact_nu(joint, u, group, cond), abs=1e-12)


def test_nu_from_marginals_empty_cond(ising_pair):
    joint = exact_joint(ising_pair)
    p_ui = marginal(joint, (0, 1))
    p_u = marginal(joint, (0,))
    p_i = marginal(joint, (1,))
    value = nu_from_marginals(p_ui, p_u, p_i, np.array(1.0))
    assert value == pytest.approx(ISING_NU, abs=1e-12)


def test_perturbed_marginals_move_nu_less_than_eps():
    # the estimation-accuracy guarantee: sigma-accurate margins keep the
    # estimator within eps of truth
    rng = np.random.default_rng(0)
    model = canonicalize(random_raw_model(4, 2, 2, seed=23, beta=0.3))
    joint = exact_joint(model)
    consts = compute_gamma_delta(model)
    for trial in range(50):
        u = int(rng.integers(4))
        rest = [v for v in range(4) if v != u]
        rng.shuffle(rest)
        group = (rest[0],)
        cond = tuple(sorted(rest[1 : 1 + rng.integers(0, 3)]))
        eps = float(rng.uniform(0.05, 0.3))
        sigma = eps * consts.max_arity ** (-len(cond)) * consts.delta ** len(cond) / 5.0
        tables = [
            marginal(joint, (u,) + group + cond),
            marginal(joint, (u,) + cond),
            marginal(joint, group + cond),
            marginal(joint, cond) if cond else np.array(1.0),
        ]
        perturbed = [
            t + sigma * rng.choice([-1.0, 1.0], size=t.shape) for t in tables
        ]
        value = nu_from_marginals(*perturbed)
        truth = exact_nu(joint, u, group, cond)
        assert abs(value - truth) < eps


# ---------------------------------------------------------------- event A


def test_event_a_holds_at_the_required_sample_size():
    # weak couplings keep delta large enough for a desk-scale bound
    spin = ising_tensor(0.15)
    model = MarkovRandomField(
        3,
        (2, 2, 2),
        {(0, 1): CliqueTensor((0, 1), spin), (1, 2): CliqueTensor((1, 2), spin)},
        r=2,
    )
    consts = compute_gamma_delta(model)
    ell, eps, omega = 1, 0.35, 0.25
    m = required_samples_full(ell, eps, omega, model.n, 2, model.r, consts.delta)
    assert m == 55638  # frozen: direct evaluation at delta = e^-0.6 / 2
    joint = exact_joint(model)
    combos = []
    for u in range(3):
        for group in [(v,) for v in range(3) if v != u]:
            rest = [v for v in range(3) if v != u and v not in group]
            for cond in [()] + [(v,) for v in rest]:
                combos.append((u, group, cond))
    exact = {c: exact_nu(joint, *c) for c in combos}
    trials, violations = 100, 0
    for t in range(trials):
        emp = EmpiricalDistribution(sample_exact(joint, m, seed=50_000 + t))
        violations += any(abs(nu_hat(emp, *c) - exact[c]) >= eps for c in combos)
    assert violations / trials <= omega + 0.1
