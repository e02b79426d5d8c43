"""Acceptance suite: every guarantee the package rests on, checked at its
stated tolerance, one pass/fail line per criterion (run with -s to see them).
"""

import itertools
import math
import time

import numpy as np

import mrflearn as ml
from mrflearn import (
    CliqueTensor,
    GeneratorSpec,
    LearnConfig,
    QueryOracle,
    clique_graph,
    EmpiricalDistribution,
    compute_gamma_delta,
    exact_conditional_mi,
    exact_joint,
    exact_nu,
    generate_model,
    learn_graph,
    learn_graph_erased,
    learn_graph_exact,
    learn_graph_full,
    learn_graph_queried,
    marginal,
    mean_nu_over_probe_sets,
    nu_from_marginals,
    NuEstimator,
    sample_exact,
)
from mrflearn.estimation import _count_tables
from mrflearn.experiment import theoretical_sample_report
from mrflearn.generate import random_raw_model
from mrflearn.inference import _nu_of_table
from mrflearn.model import center_values

# learner settings calibrated once for the n=12, D=3, r=2, K=2, alpha=0.4
# benchmark family (see README); the theoretical values are reported but
# astronomically conservative
TUNED_TAU = 0.009
TUNED_BUDGET = 6


def _report(num, message):
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def test_01_canonicalization_preserves_law():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_prob, worst_fiber = 0.0, 0.0
    for trial in range(200):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(2, 4))
        k_max = int(rng.integers(2, 4))
        model = random_raw_model(n=n, r=r, max_arity=k_max, seed=trial)
        canon = ml.canonicalize(model)
        gap = float(
            np.max(np.abs(exact_joint(model).probs - exact_joint(canon).probs))
        )
        worst_prob = max(worst_prob, gap)
        for tensor in canon.potentials.values():
            for axis in range(tensor.values.ndim):
                worst_fiber = max(
                    worst_fiber, float(np.max(np.abs(tensor.values.sum(axis=axis))))
                )
        assert gap <= 1e-9
        assert worst_fiber <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"200 models law-preserving (max prob gap {worst_prob:.2e}, "
               f"max fiber sum {worst_fiber:.2e}, {elapsed:.1f}s)")


def test_02_pinsker_chain():
    start = time.perf_counter()
    checks, violations = 0, 0
    for seed in range(500):
        r = 2 + seed % 2
        model = generate_model(GeneratorSpec(
            n=4 + seed % 3, r=r, max_degree=3, max_arity=2 + (seed // 2) % 2,
            alpha=0.25, beta=0.9, seed=seed,
        ))
        joint = exact_joint(model)
        nodes = range(model.n)
        for u in nodes:
            rest = [v for v in nodes if v != u]
            for i_size in range(1, r):
                for group in itertools.combinations(rest, i_size):
                    remaining = [v for v in rest if v not in group]
                    for s_size in range(0, 3):
                        for cond in itertools.combinations(remaining, s_size):
                            nu = exact_nu(joint, u, group, cond)
                            mi = exact_conditional_mi(joint, u, group, cond)
                            checks += 1
                            if math.sqrt(mi / 2.0) < nu - 1e-12:
                                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 300.0
    _report(2, f"sqrt(MI/2) >= nu on {checks} (u,I,S) triples over 500 models, "
               f"0 violations ({elapsed:.0f}s)")


def test_03_noncancellation_floor():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        s = 2 + trial % 2
        dims = tuple(int(rng.integers(2, 4)) for _ in range(s))
        top = center_values(rng.normal(size=dims))
        kappa = 0.9 * float(np.max(np.abs(top)))
        parts = [CliqueTensor(tuple(range(s)), top)]
        for size in range(1, s):
            for sub in itertools.combinations(range(s), size):
                shape = tuple(dims[i] for i in sub)
                parts.append(
                    CliqueTensor(sub, center_values(rng.normal(scale=3.0, size=shape)))
                )
        _, value = ml.noncancellation_witness(parts, kappa)
        assert abs(value) >= kappa / s**s - 1e-12
    _report(3, "1000 assembled tensors all kept an entry above kappa/s^s")


def test_04_guessing_game_unbiasedness():
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(100):
        model = generate_model(GeneratorSpec(
            n=5 + seed % 2, r=2 + seed % 2, max_degree=4, max_arity=2,
            alpha=0.3, beta=1.0, seed=200 + seed,
        ))
        graph = clique_graph(model)
        for u in range(model.n):
            nbrs = sorted(graph.neighbors[u])
            if not nbrs:
                continue
            s = min(model.r - 1, len(nbrs))
            subsets = list(itertools.combinations(nbrs, s))
            for _ in range(3):
                x = [int(rng.integers(k)) for k in model.arities]
                for challenge in range(model.arities[u]):
                    expected = ml.energy(model, u, challenge, x) - sum(
                        ml.energy(model, u, b, x)
                        for b in range(model.arities[u])
                        if b != challenge
                    )
                    mean_wager = np.mean([
                        ml.bob_wager(model, u, challenge, I, tuple(x[v] for v in I))
                        for I in subsets
                    ])
                    assert abs(mean_wager - expected) < 1e-10
                    checked += 1
    _report(4, f"wager unbiasedness exact to 1e-10 on {checked} "
               "(node, challenge, configuration) cases across 100 models")


def test_05_payoff_lower_bound():
    start = time.perf_counter()
    nodes_checked = 0
    mc_cases = []
    for seed in range(100):
        model = generate_model(GeneratorSpec(
            n=4 + seed % 3, r=2 + seed % 2, max_degree=3, max_arity=2,
            alpha=0.3, beta=1.0, seed=400 + seed,
        ))
        joint = exact_joint(model)
        records = ml.verify_payoff_bounds(model, 0.3, joint)
        for record in records:
            assert record["ok"], record
        nodes_checked += len(records)
        if seed < 3:
            mc_cases.append((model, joint, records[0]["node"], records[0]["exact"]))
    for model, joint, node, exact in mc_cases:
        mean, se = ml.expected_payoff_mc(model, node, 1_000_000, seed=55, joint=joint)
        assert abs(mean - exact) <= 3.0 * se
    elapsed = time.perf_counter() - start
    _report(5, f"exact payoff met its floor at {nodes_checked} nodes; "
               f"3 Monte-Carlo runs at 1e6 rounds within 3 sigma ({elapsed:.0f}s)")


def test_06_conditional_mi_floor():
    start = time.perf_counter()
    checks = 0
    for seed in range(50):
        model = generate_model(GeneratorSpec(
            n=4 + seed % 3, r=2 + seed % 2, max_degree=3, max_arity=2,
            alpha=0.3, beta=1.0, seed=600 + seed,
        ))
        joint = exact_joint(model)
        records = ml.verify_conditioned_floor(model, 0.3, max_cond_size=3, joint=joint)
        for record in records:
            assert record["ok"], record
        checks += len(records)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(6, f"probe-averaged nu cleared the conditioned floor on {checks} "
               f"(node, conditioning set) pairs, 0 violations ({elapsed:.0f}s)")


def _exhaustive_detection_floor(model, joint):
    """Oracle: the smallest probe-averaged nu over every conditioning set
    that still misses a neighbor; any threshold below this recovers the
    graph with the exact estimator."""
    graph = clique_graph(model)
    floor = math.inf
    for u in range(model.n):
        if graph.degrees[u] == 0:
            continue
        others = [v for v in range(model.n) if v != u]
        for s_size in range(0, model.n):
            for cond in itertools.combinations(others, s_size):
                if graph.neighbors[u] <= set(cond):
                    continue
                value = mean_nu_over_probe_sets(joint, u, cond)
                floor = min(floor, value)
    return floor


_TRIAL_07 = {}


def _trial_07(trial):
    """test_07's model, joint and exhaustive detection floor for one trial,
    computed once per session."""
    if trial not in _TRIAL_07:
        flavor = [
            dict(r=2, max_arity=2, max_degree=3),
            dict(r=2, max_arity=3, max_degree=3),
            dict(r=3, max_arity=2, max_degree=3),
        ][trial % 3]
        model = generate_model(GeneratorSpec(
            n=6 + trial % 3, alpha=0.3, beta=1.0, seed=1000 + trial, **flavor
        ))
        joint = exact_joint(model)
        _TRIAL_07[trial] = model, joint, _exhaustive_detection_floor(model, joint)
    return _TRIAL_07[trial]


def test_07_exact_estimator_recovers_everything():
    start = time.perf_counter()
    recovered = 0
    for trial in range(100):
        model, joint, floor = _trial_07(trial)
        assert floor > 0.0
        config = LearnConfig.from_model(
            model, 0.3, 1.0, override_tau=floor / 2.0, override_L=model.n
        )
        result = learn_graph_exact(joint, config)
        assert result.edges == set(clique_graph(model).edges)
        assert result.warnings == []
        recovered += 1
    elapsed = time.perf_counter() - start
    assert recovered == 100
    _report(7, f"exact-estimator learner recovered 100/100 clique graphs "
               f"with tau below each model's detection floor ({elapsed:.0f}s)")


def _split_marginals(joint, u, group, cond):
    """The sub-marginals nu and conditional MI were taken from before every
    nu became one reduction of a flattened (u, I..., S) table: those of the
    (u, I..., S...) marginal with one axis per node."""
    table = marginal(joint, (u,) + tuple(group) + tuple(cond))
    i_axes = tuple(range(1, 1 + len(group)))
    p_s = table.sum(axis=(0,) + i_axes, keepdims=True)
    p_us = table.sum(axis=i_axes, keepdims=True)
    p_is = table.sum(axis=(0,), keepdims=True)
    return table, p_s, p_us, p_is


def _split_marginal_nu(joint, u, group, cond):
    table, p_s, p_us, p_is = _split_marginals(joint, u, group, cond)
    return nu_from_marginals(table, p_us, p_is, p_s.reshape(table.shape[1 + len(group):]))


def _split_marginal_mi(joint, u, group, cond):
    table, p_s, p_us, p_is = _split_marginals(joint, u, group, cond)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = table * p_s / (p_us * p_is)
        terms = np.where(table > 0.0, table * np.log(np.where(table > 0.0, ratio, 1.0)), 0.0)
    return max(float(terms.sum()), 0.0)


def _logged(estimator, log):
    """The estimator with its kernel's (u, I, S, value) queries appended to `log`."""
    kernel = estimator.kernel

    def logged(u, groups, cond):
        out = kernel(u, groups, cond)
        log.extend((u, tuple(g), tuple(cond), value) for g, (value, _) in zip(groups, out))
        return out

    estimator.kernel = logged
    return estimator


def _differential_cases():
    for seed, model in _benchmark_models():
        yield model, exact_joint(model), LearnConfig.from_model(
            model, 0.4, 1.0, override_tau=TUNED_TAU, override_L=TUNED_BUDGET
        )
    for trial in range(100):  # test_07's models and thresholds
        model, joint, floor = _trial_07(trial)
        yield model, joint, LearnConfig.from_model(
            model, 0.3, 1.0, override_tau=floor / 2.0, override_L=model.n
        )


def _same_run(old, new, old_log, new_log, n):
    """Assert two learner runs made the same decisions, evaluations,
    warnings and queries; return the largest |difference| of a nu value."""
    assert (new.edges, new.warnings) == (old.edges, old.warnings)
    for u in range(n):
        a, b = old.per_node[u], new.per_node[u]
        assert (b.neighbors, b.evaluations, b.warnings) == (a.neighbors, a.evaluations, a.warnings)
        assert [step[:2] for step in b.trace] == [step[:2] for step in a.trace]
    assert [q[:3] for q in new_log] == [q[:3] for q in old_log]
    return max((abs(q[3] - p[3]) for q, p in zip(new_log, old_log)), default=0.0)


def test_exact_learner_matches_the_split_marginal_path():
    # same decisions, evaluations and warnings on the 50 benchmark models
    # and test_07's 100; nu within 1e-12 at every query, and conditional MI
    # at every fourth (MI only moves by summation order, and a full check
    # would double the test's time)
    worst = 0.0
    for model, joint, config in _differential_cases():
        old_log, new_log = [], []
        old = learn_graph(_logged(NuEstimator(lambda u, groups, cond: [
            (_split_marginal_nu(joint, u, g, cond), "exact") for g in groups
        ]), old_log), model.n, config)
        new = learn_graph(_logged(NuEstimator.exact(joint), new_log), model.n, config)
        worst = max(worst, _same_run(old, new, old_log, new_log, model.n))
        for u, group, cond, _ in new_log[::4]:
            mi = exact_conditional_mi(joint, u, group, cond)
            worst = max(worst, abs(mi - _split_marginal_mi(joint, u, group, cond)))
    print(f"worst |difference| of nu or conditional MI: {worst:.2g}")
    assert worst <= 1e-12


def _raw_row_estimator(samples, coverage_floor=0):
    """The sampled estimator before rows were merged into distinct rows:
    every raw row counted with weight one, in an int64 block made by
    np.where, and each count table reduced on its own."""
    data = samples.data
    block = np.ascontiguousarray(np.where(data == ml.ERASED, np.array(samples.arities), data).T)
    return NuEstimator(lambda u, groups, cond: [
        _nu_of_table(table) for table in _count_tables(block, samples.arities, u, groups, cond)
    ], coverage_floor)


def _checked_rows(estimator):
    """The estimator with every kernel `rows` value checked to be an int."""
    kernel = estimator.kernel

    def checked(u, groups, cond):
        out = kernel(u, groups, cond)
        assert all(type(rows) is int for _, rows in out)
        return out

    estimator.kernel = checked
    return estimator


def test_sampled_learner_matches_the_raw_row_path():
    # test_08's samples on the 50 benchmark models, complete and erased at
    # test_09's reveal probability and coverage floor: the distinct-row
    # kernel makes the same decisions, evaluations, warnings and queries as
    # counting every raw row, with nu exactly equal
    start = time.perf_counter()
    for seed, model in _benchmark_models():
        joint = exact_joint(model)
        config = LearnConfig.from_model(
            model, 0.4, 1.0, override_tau=TUNED_TAU, override_L=TUNED_BUDGET, coverage_floor=50
        )
        full = sample_exact(joint, 50_000, seed=1000 + seed)
        erased = ml.erase(full, 0.9, seed=7000 + seed)
        for samples, floor in ((full, 0), (erased, config.coverage_floor)):
            old_log, new_log = [], []
            old = learn_graph(_logged(_raw_row_estimator(samples, floor), old_log), model.n, config)
            new = learn_graph(_logged(_checked_rows(NuEstimator.sampled(
                EmpiricalDistribution(samples), floor)), new_log), model.n, config)
            assert _same_run(old, new, old_log, new_log, model.n) == 0.0
    print(f"50 models in full and erased mode, identical ({time.perf_counter() - start:.0f}s)")


def _benchmark_models(count=50):
    for seed in range(count):
        yield seed, generate_model(GeneratorSpec(
            n=12, r=2, max_degree=3, max_arity=2, alpha=0.4, beta=1.0, seed=seed
        ))


def _sampled_recovery_rate(m, reveal_prob=None, coverage_floor=1):
    wins = 0
    for seed, model in _benchmark_models():
        joint = exact_joint(model)
        truth = set(clique_graph(model).edges)
        samples = sample_exact(joint, m, seed=1000 + seed)
        config = LearnConfig.from_model(
            model, 0.4, 1.0, override_tau=TUNED_TAU, override_L=TUNED_BUDGET,
            coverage_floor=coverage_floor,
        )
        if reveal_prob is None:
            result = learn_graph_full(samples, config)
        else:
            erased = ml.erase(samples, reveal_prob, seed=7000 + seed)
            result = learn_graph_erased(erased, config)
        wins += result.edges == truth
    return wins / 50.0


BASE_RATE = {}


def test_08_sampled_recovery_rate():
    start = time.perf_counter()
    rate = _sampled_recovery_rate(50_000)
    rate_double = _sampled_recovery_rate(100_000)
    elapsed = time.perf_counter() - start
    BASE_RATE["full"] = rate
    # the guarantee-level sample bound is reported alongside but never used;
    # it is doubly exponential in the degree bound
    probe = generate_model(GeneratorSpec(
        n=12, r=2, max_degree=3, max_arity=2, alpha=0.4, beta=1.0, seed=0
    ))
    theoretical = theoretical_sample_report(probe, 0.4)["full_log10"]
    assert rate >= 0.9
    assert rate_double >= rate
    assert elapsed < 1800.0
    _report(8, f"exact recovery {rate:.0%} at m=50k and {rate_double:.0%} at m=100k "
               f"over 50 seeds (theoretical m ~ 10^{theoretical:.3g}; {elapsed:.0f}s)")


def test_09_erasure_mode_recovery():
    start = time.perf_counter()
    m_scaled = round(50_000 / 0.9 ** (TUNED_BUDGET + 2))
    rate = _sampled_recovery_rate(m_scaled, reveal_prob=0.9, coverage_floor=50)
    elapsed = time.perf_counter() - start
    base = BASE_RATE.get("full", 1.0)
    assert rate >= base - 0.10
    _report(9, f"erasure mode (reveal 0.9, m={m_scaled}) recovered {rate:.0%} "
               f"vs {base:.0%} with full samples ({elapsed:.0f}s)")


def test_10_bounded_query_accounting():
    violations = 0
    for seed in range(3):
        model = generate_model(GeneratorSpec(
            n=5, r=2, max_degree=2, max_arity=2, alpha=0.4, beta=1.0, seed=30 + seed
        ))
        config = LearnConfig.from_model(
            model, 0.4, 1.0, override_tau=0.02, override_L=4
        )
        capacity = math.floor(config.budget) + config.r
        oracle = QueryOracle.from_joint(exact_joint(model), capacity, seed=seed)
        result = learn_graph_queried(
            oracle, model.n, model.arities, config, m_batch=3000
        )
        acc = result.accounting
        if acc["max_query_size"] > config.budget + config.r:
            violations += 1
        if acc["samples_consumed"] > 3000 * config.budget * config.r * model.n**config.r:
            violations += 1
    assert violations == 0
    _report(10, "query sizes stayed within budget+r and consumption within "
                "m_batch*L*r*n^r on all queried runs")


def test_11_estimator_perturbation():
    rng = np.random.default_rng(11)
    models = [
        ml.canonicalize(random_raw_model(
            n=4 + s % 2, r=2, max_arity=2 + s % 2, seed=300 + s, beta=0.4
        ))
        for s in range(25)
    ]
    joints = [exact_joint(m) for m in models]
    consts = [compute_gamma_delta(m) for m in models]
    worst = 0.0
    for trial in range(500):
        idx = int(rng.integers(len(models)))
        model, joint, c = models[idx], joints[idx], consts[idx]
        u = int(rng.integers(model.n))
        rest = [v for v in range(model.n) if v != u]
        rng.shuffle(rest)
        group = (rest[0],)
        cond = tuple(sorted(rest[1 : 1 + int(rng.integers(0, 3))]))
        eps = float(rng.uniform(0.05, 0.3))
        ell = len(cond)
        sigma = eps * c.max_arity ** (-ell) * c.delta**ell / 5.0
        tables = [
            marginal(joint, (u,) + group + cond),
            marginal(joint, (u,) + cond),
            marginal(joint, group + cond),
            marginal(joint, cond) if cond else np.array(1.0),
        ]
        perturbed = [
            t + sigma * rng.choice([-1.0, 1.0], size=t.shape) for t in tables
        ]
        deviation = abs(
            nu_from_marginals(*perturbed) - exact_nu(joint, u, group, cond)
        )
        worst = max(worst, deviation / eps)
        assert deviation < eps
    _report(11, f"500 sigma-perturbations never moved nu-hat by eps "
                f"(worst deviation {worst:.2f} of allowance)")


def test_12_complexity_shape(monkeypatch):
    # the paper's n^r time is a count of nu evaluations; each evaluation reads
    # the sample's distinct rows once, and their number D(n) grows with n at
    # fixed m, so wall time is checked per evaluation against D(n)
    sizes = [8, 12, 16, 20]
    inputs = {}
    for n in sizes:
        for seed in (5, 6):
            model = generate_model(GeneratorSpec(
                n=n, r=2, max_degree=3, max_arity=2, alpha=0.4, beta=1.0, seed=seed
            ))
            samples = sample_exact(exact_joint(model), 50_000, seed=77)
            config = LearnConfig.from_model(
                model, 0.4, 1.0, override_tau=TUNED_TAU, override_L=TUNED_BUDGET
            )
            inputs[n, seed] = (samples, config)
    # the premise of the timing: every block the count kernel reads holds
    # the sample's D(n) distinct rows, and at n = 8 and 12 that is fewer
    # than its m rows, so a kernel that read every raw row fails here
    distinct = {key: EmpiricalDistribution(samples).counts.size
                for key, (samples, _) in inputs.items()}
    count_tables, read = ml.estimation._count_tables, set()

    def recording(block, *args):
        read.add(block.shape[1])
        return count_tables(block, *args)

    monkeypatch.setattr(ml.estimation, "_count_tables", recording)
    for (n, seed), (samples, config) in inputs.items():
        read.clear()
        learn_graph_full(samples, config)
        assert read == {distinct[n, seed]}
        assert n > 12 or distinct[n, seed] < samples.m
    monkeypatch.undo()
    # every round times all four sizes, and each size keeps its median over
    # the rounds, so a drift in machine speed during the test hits every
    # size alike instead of bending the slope
    rounds = {n: [] for n in sizes}
    evaluations = {}
    for _ in range(5):
        for n in sizes:
            per_model = []
            for seed in (5, 6):
                samples, config = inputs[n, seed]
                t0 = time.perf_counter()
                result = learn_graph_full(samples, config)
                per_model.append(time.perf_counter() - t0)
                evaluations[n, seed] = result.accounting["evaluations"]
            rounds[n].append(float(np.mean(per_model)))
    evals = [np.mean([evaluations[n, seed] for seed in (5, 6)]) for n in sizes]
    rows_read = [np.mean([distinct[n, seed] for seed in (5, 6)]) for n in sizes]
    per_eval = [float(np.median(rounds[n])) / e for n, e in zip(sizes, evals)]
    slope = float(np.polyfit(np.log(sizes), np.log(evals), 1)[0])
    kernel_slope = float(np.polyfit(np.log(rows_read), np.log(per_eval), 1)[0])
    assert 1.5 <= slope <= 2.5
    assert kernel_slope <= 1.0
    _report(12, f"nu evaluations fit log-log slope {slope:.2f} over n in {sizes} at "
                f"fixed m (target 2 +- 0.5); time per evaluation fits slope "
                f"{kernel_slope:.2f} against distinct rows {[round(d) for d in rows_read]} "
                f"(at most 1)")


def _parity_triples():
    # three disjoint triples, each a pure third-order 0.8 s1 s2 s3 tensor:
    # every pair inside a triple is independent, so only r = 3 sees them
    spin = np.array([-1.0, 1.0])
    values = 0.8 * np.einsum("i,j,k->ijk", spin, spin, spin)
    triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    return ml.MarkovRandomField(9, (2,) * 9, {t: CliqueTensor(t, values) for t in triples}, r=3)


def test_13_higher_order_recovery():
    model = _parity_triples()
    joint = exact_joint(model)
    truth = set(clique_graph(model).edges)
    assert len(truth) == 9
    pair_nu, triple_nu = exact_nu(joint, 0, (1,)), exact_nu(joint, 0, (1, 2))
    assert pair_nu <= 1e-15 and triple_nu >= 0.08
    for records in (
        ml.verify_payoff_bounds(model, 0.8, joint),
        ml.verify_mi_chain(model, 0.8, joint),
        ml.verify_conditioned_floor(model, 0.8, 2, joint),
    ):
        assert records and all(rec["ok"] for rec in records)
    for seed in range(4):
        samples = sample_exact(joint, 20_000, seed=1300 + seed)
        third = learn_graph_full(samples, LearnConfig(r=3, tau=0.03, budget=3))
        pairwise = learn_graph_full(samples, LearnConfig(r=2, tau=0.03, budget=3))
        assert third.edges == truth, seed
        assert third.accounting["evaluations"] == 531
        # the paper's point, not a defect: no pairwise statistic sees a parity
        assert pairwise.edges == set(), seed
    _report(13, f"order-3 parities (pair nu {pair_nu:.1e}, triple nu {triple_nu:.3f}): "
                f"r=3 recovered all 9 edges from 20k samples at 4 seeds in 531 "
                f"evaluations, r=2 found none; the three verifiers pass at alpha 0.8")
