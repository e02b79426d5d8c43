import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mrflearn import (
    CliqueTensor,
    ERASED,
    GeneratorSpec,
    MarkovRandomField,
    SampleSet,
    erase,
    exact_joint,
    generate_model,
    gibbs_sample,
    sample_exact,
    spawn_rng,
)

from mrflearn.sampling import _conditional_tables, inverse_cdf_sampler

from conftest import ising_tensor


def test_sampleset_rejects_out_of_range():
    with pytest.raises(ValueError):
        SampleSet(np.array([[0, 2]]), (2, 2))


def test_sampleset_names_the_first_column_with_an_out_of_range_state():
    data = np.zeros((3, 4), dtype=np.int64)
    data[2, 1] = 2  # the first bad column, in the last row
    data[0, 3] = -2  # a later bad column, in the first row
    with pytest.raises(ValueError, match=r"^out-of-range state in column 1$"):
        SampleSet(data, (2, 2, 2, 2))


def test_sampleset_accepts_erased_marker():
    s = SampleSet(np.array([[0, ERASED]]), (2, 2))
    assert s.m == 1 and s.n == 2


def test_sampleset_keeps_its_own_copy_of_a_writeable_array():
    data = np.array([[0, 1], [1, 0]])
    samples = SampleSet(data, (2, 2))
    data[0, 0] = 1
    assert samples.data[0, 0] == 0
    assert not samples.data.flags.writeable


def test_sampleset_adopts_only_a_read_only_array_that_owns_its_memory():
    data = np.array([[0, 1], [1, 0]])
    data.flags.writeable = False
    assert SampleSet(data, (2, 2)).data is data
    view = data[:1]  # read-only, but its memory belongs to `data`
    assert SampleSet(view, (2, 2)).data is not view


def test_spawn_rng_is_deterministic_and_stage_separated():
    a = spawn_rng(7, "sample").random(4)
    b = spawn_rng(7, "sample").random(4)
    c = spawn_rng(7, "erase").random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- exact sampler


def test_sample_exact_rejects_zero_m(ising_pair):
    with pytest.raises(ValueError):
        sample_exact(exact_joint(ising_pair), 0, seed=1)


def test_sample_exact_deterministic(ising_pair):
    joint = exact_joint(ising_pair)
    a = sample_exact(joint, 50, seed=3)
    b = sample_exact(joint, 50, seed=3)
    np.testing.assert_array_equal(a.data, b.data)


def test_sample_exact_near_deterministic_table():
    # a huge coupling makes one aligned pair dominate
    t = CliqueTensor((0, 1), ising_tensor(8.0))
    m = MarkovRandomField(2, (2, 2), {(0, 1): t}, r=2)
    samples = sample_exact(exact_joint(m), 200, seed=11)
    assert (samples.data[:, 0] == samples.data[:, 1]).all()


def test_sample_exact_chi_square_sanity(ising_pair):
    joint = exact_joint(ising_pair)
    samples = sample_exact(joint, 1_000_000, seed=123)
    codes = samples.data[:, 0] * 2 + samples.data[:, 1]
    observed = np.bincount(codes, minlength=4)
    expected = joint.probs.ravel() * samples.m
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # 99.9% quantile of chi-square with 3 dof


def reference_draw(probs, rng, count):
    """The inverse-CDF draw written out plainly: search the keys in draw
    order, then decode every node of the flat index."""
    cdf = np.cumsum(probs.ravel())
    cdf[-1] = 1.0
    idx = np.minimum(np.searchsorted(cdf, rng.random(count), side="right"), cdf.size - 1)
    return np.stack(np.unravel_index(idx, probs.shape), axis=1)


def _tables():
    rng = np.random.default_rng(2024)
    tables = {}
    for t in range(3):
        shape = tuple(int(k) for k in rng.integers(2, 5, size=5))
        tables[f"mixed-{t}"] = rng.random(shape)
    peaked = np.full((3, 2, 4), 1e-9)
    peaked[1, 0, 2] = 1.0
    tables["peaked"] = peaked
    # zeros give the CDF flat runs of equal values, and a zero last entry
    # leaves the cdf[-1] = 1 clamp to decide the tail
    sparse = rng.random((4, 3, 2, 2)) * (rng.random((4, 3, 2, 2)) < 0.4)
    sparse[0, 0, 0, 0] = 0.5
    sparse[-1, -1, -1, -1] = 0.0
    tables["zeros"] = sparse
    tables["coarse"] = np.array([[0.25, 0.25], [0.0, 0.5]])
    # a 300-state node: the index splits unevenly (900 x 10) and the
    # state tables need 16 bits
    tables["wide"] = rng.random((3, 300, 2, 5))
    # more cells than guide buckets: almost every bucket holds a CDF value,
    # so most keys are searched (sorted); with one cell holding most of
    # the mass, most keys skip the search and the few others are not sorted
    tables["large"] = rng.random((2,) * 17)
    peaked = rng.random((2,) * 17)
    peaked[1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1] = 3e5
    tables["large-peaked"] = peaked
    return {name: probs / probs.sum() for name, probs in tables.items()}


TABLES = _tables()


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("count", [1, 7, 10_000])
def test_draw_matches_the_plain_inverse_cdf(name, count):
    probs = TABLES[name]
    draw = inverse_cdf_sampler(probs, np.random.default_rng(count))
    ref_rng = np.random.default_rng(count)
    for _ in range(3):  # later draws continue the same stream
        got = draw(count)
        want = reference_draw(probs, ref_rng, count)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class _Keys:
    """Stands in for a generator: random(count) hands out the given keys."""

    def __init__(self, keys):
        self.keys = list(keys)

    def random(self, count):
        out, self.keys = np.array(self.keys[:count]), self.keys[count:]
        return out


def test_draw_breaks_keys_equal_to_a_cdf_value_like_the_plain_inverse_cdf():
    # random floats almost never hit a CDF value, so the ties are handed in
    probs = TABLES["coarse"]  # cdf 0.25, 0.5, 0.5, 1.0
    cdf = np.cumsum(probs.ravel())
    keys = [0.0, 0.25, 0.5, 0.75]
    keys += [float(np.nextafter(c, side)) for c in cdf[:-1] for side in (0.0, 1.0)]
    keys = keys[::-1] + keys
    got = inverse_cdf_sampler(probs, _Keys(keys))(len(keys))
    np.testing.assert_array_equal(got, reference_draw(probs, _Keys(keys), len(keys)))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_draw_matches_the_plain_inverse_cdf_at_every_bucket_edge(name):
    # every guide has a power-of-two bucket count of at most 2^16, so each
    # bucket edge b / B is one of the k / 2^16
    edges = np.arange(1 << 16) / (1 << 16)
    keys = np.concatenate([edges, np.nextafter(edges, 0.0)[1:], np.nextafter(edges, 1.0)])
    keys = np.random.default_rng(3).permutation(keys)
    got = inverse_cdf_sampler(TABLES[name], _Keys(keys))(len(keys))
    np.testing.assert_array_equal(got, reference_draw(TABLES[name], _Keys(keys), len(keys)))


def test_sampler_tables_take_under_a_megabyte_beyond_the_cdf():
    probs = np.full((2,) * 20, 2.0**-20)
    tracemalloc.start()
    try:
        draw = inverse_cdf_sampler(probs, np.random.default_rng(0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - probs.nbytes < 2**20  # the cdf takes as many bytes as probs
    assert draw(3).shape == (3, 20)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_draw_at_some_nodes_is_the_full_draw_at_those_columns(name):
    probs = TABLES[name]
    n = probs.ndim
    subsets = [[0], [n - 1], [0, n - 1], [n - 1, 0], list(range(1, n)), list(range(n))]
    for nodes in subsets:
        full = inverse_cdf_sampler(probs, np.random.default_rng(5))
        some = inverse_cdf_sampler(probs, np.random.default_rng(5))
        for count in (1, 7, 10_000):
            np.testing.assert_array_equal(some(count, nodes), full(count)[:, nodes])


# ---------------------------------------------------------------- gibbs sampler


def test_gibbs_parameter_validation(ising_pair):
    with pytest.raises(ValueError):
        gibbs_sample(ising_pair, 10, burn_in=0, thinning=1, seed=0)
    with pytest.raises(ValueError):
        gibbs_sample(ising_pair, 0, burn_in=1, thinning=1, seed=0)


def test_gibbs_neighbor_codes_are_mixed_radix():
    # the strides number each neighbor configuration by its position in
    # itertools.product order, the order its conditional row was filled
    model = generate_model(GeneratorSpec(n=6, r=2, max_degree=3, max_arity=3, alpha=0.3, seed=4))
    for nbrs, strides, cdf in _conditional_tables(model):
        shape = [model.arities[v] for v in nbrs]
        codes = [sum(s * x for s, x in zip(strides, states))
                 for states in itertools.product(*[range(k) for k in shape])]
        assert codes == list(range(len(cdf)))


@pytest.mark.parametrize("r, max_arity, max_degree, seed, digest", [
    (2, 3, 3, 4, "3a3cab52089c63845264410af1416c2d5d4b57c0ce48d1f961d2d50685c60dcc"),
    (3, 2, 4, 19, "1ae8dba3c80ae619ac9af22de18a4f96660823d40ffd8f0849e0e052f7de37d5"),
])
def test_gibbs_rows_are_frozen(r, max_arity, max_degree, seed, digest):
    # recorded before the neighbor strides became math.prod of the tail
    model = generate_model(GeneratorSpec(
        n=6, r=r, max_degree=max_degree, max_arity=max_arity, alpha=0.3, seed=seed
    ))
    rows = gibbs_sample(model, 300, burn_in=20, thinning=2, seed=9).data
    assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == digest


def test_gibbs_deterministic(ising_pair):
    a = gibbs_sample(ising_pair, 200, burn_in=10, thinning=2, seed=5)
    b = gibbs_sample(ising_pair, 200, burn_in=10, thinning=2, seed=5)
    np.testing.assert_array_equal(a.data, b.data)


def test_gibbs_independent_nodes_match_marginals():
    model = MarkovRandomField(3, (2, 2, 3), {}, r=2)
    samples = gibbs_sample(model, 100_000, burn_in=50, thinning=2, seed=7)
    for j, k in enumerate(model.arities):
        freqs = np.bincount(samples.data[:, j], minlength=k) / samples.m
        sigma = math.sqrt((1.0 / k) * (1 - 1.0 / k) / samples.m)
        np.testing.assert_allclose(freqs, 1.0 / k, atol=3.5 * sigma)


def test_gibbs_ising_agreement_frequency(ising_pair):
    # exact agreement probability 2 * 0.36552929 = 0.73106
    samples = gibbs_sample(ising_pair, 100_000, burn_in=100, thinning=5, seed=42)
    agreement = float((samples.data[:, 0] == samples.data[:, 1]).mean())
    assert agreement == pytest.approx(0.7310585786, abs=0.01)


# ---------------------------------------------------------------- erasure channel


def test_erase_reveal_one_is_identity(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 500, seed=2)
    out = erase(samples, 1.0, seed=3)
    np.testing.assert_array_equal(out.data, samples.data)


def test_erase_reveal_zero_blanks_everything(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 100, seed=2)
    out = erase(samples, 0.0, seed=3)
    assert (out.data == ERASED).all()


def test_erase_observed_fraction(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 100_000, seed=123)
    out = erase(samples, 0.8, seed=9)
    assert float((out.data >= 0).mean()) == pytest.approx(0.8, abs=0.005)


def test_erase_rejects_bad_probability(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 10, seed=0)
    with pytest.raises(ValueError):
        erase(samples, 1.5, seed=0)


def test_erase_pattern_independent_of_values(ising_pair):
    # same seed, different data: identical mask
    joint = exact_joint(ising_pair)
    a = sample_exact(joint, 300, seed=4)
    b = sample_exact(joint, 300, seed=5)
    mask_a = erase(a, 0.6, seed=77).data == ERASED
    mask_b = erase(b, 0.6, seed=77).data == ERASED
    np.testing.assert_array_equal(mask_a, mask_b)
