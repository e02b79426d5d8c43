import importlib
import itertools
import math
import random
import re

import numpy as np
import pytest

from mrflearn import (
    ERASED,
    EmpiricalDistribution,
    GeneratorSpec,
    LearnConfig,
    NeighborhoodResult,
    NuEstimator,
    QueryCapacityError,
    QueryOracle,
    SampleSet,
    clique_graph,
    detection_floors,
    erase,
    exact_conditional_mi,
    exact_joint,
    generate_model,
    learn_graph,
    learn_graph_erased,
    learn_graph_exact,
    learn_graph_full,
    learn_graph_queried,
    mrf_nbhd,
    sample_exact,
    theoretical_constants,
)

# frozen by direct evaluation of the detection-floor formulas for the
# +-0.5 Ising pair (r=2, D=1, K=2, alpha=0.5, gamma=0.5, delta=e^-1/2)
ISING_FLOOR = 0.0010573069002860367
ISING_FLOOR_COND = 0.00019448073581196856


def exact_config(model, alpha=0.3, beta=1.0, tau=1e-4, budget=None, **kw):
    budget = model.n if budget is None else budget
    return LearnConfig.from_model(
        model, alpha, beta, override_tau=tau, override_L=budget, **kw
    )


# ---------------------------------------------------------------- constants


def test_detection_floor_frozen_values():
    floors = theoretical_constants(0.5, 2, 0.5, 2, 1, 0.5 * math.exp(-1.0))
    assert floors.unconditional == pytest.approx(ISING_FLOOR, rel=1e-12)
    assert floors.conditioned == pytest.approx(ISING_FLOOR_COND, rel=1e-12)


def test_conditioned_floor_never_exceeds_unconditional():
    for gamma in (0.3, 0.8, 2.0):
        floors = theoretical_constants(gamma, 3, 0.2, 3, 4, math.exp(-2 * gamma) / 3)
        assert floors.conditioned <= floors.unconditional


def test_floor_decreasing_in_gamma_beyond_one():
    def floor_at(gamma):
        return theoretical_constants(gamma, 2, 0.5, 2, 2, 0.1).unconditional

    assert floor_at(1.0) > floor_at(1.5) > floor_at(2.5)


def test_theoretical_constants_reject_degenerate_inputs():
    with pytest.raises(ValueError):
        theoretical_constants(0.0, 2, 0.5, 2, 1, 0.2)
    with pytest.raises(ValueError):
        theoretical_constants(0.5, 2, 0.5, 3, 1, 0.2)  # needs D >= r-1


def test_config_defaults_follow_the_formulas(ising_pair):
    config = LearnConfig.from_model(ising_pair, alpha=0.5, beta=1.0)
    assert config.tau == pytest.approx(ISING_FLOOR_COND / 2.0, rel=1e-12)
    assert config.budget == pytest.approx(
        (8.0 / config.tau**2) * math.log(2), rel=1e-12
    )
    with_override = LearnConfig.from_model(
        ising_pair, alpha=0.5, beta=1.0, override_tau=0.05, override_L=4
    )
    assert with_override.tau == 0.05
    assert with_override.budget == 4
    assert detection_floors(ising_pair, 0.5).conditioned / 2.0 == pytest.approx(config.tau)
    # the default budget is taken at the effective tau
    tau_only = LearnConfig.from_model(ising_pair, 0.5, override_tau=0.05)
    assert tau_only.budget == pytest.approx((8.0 / 0.05**2) * math.log(2), rel=1e-12)


@pytest.mark.parametrize("field, value", [
    ("tau", -0.01), ("tau", math.nan), ("tau", math.inf),
    ("budget", -1), ("budget", math.nan), ("budget", math.inf),
    ("r", 0), ("r", -1), ("r", 2.5), ("coverage_floor", -7),
])
def test_config_rejects_a_negative_or_non_finite_tau_or_budget(field, value):
    with pytest.raises(ValueError, match=f"'{field}'"):
        LearnConfig(**({"r": 2, "tau": 0.05, "budget": 3} | {field: value}))


# ---------------------------------------------------------------- single-node runs


def test_isolated_node_gets_empty_neighborhood(isolated_pair):
    estimator = NuEstimator.exact(exact_joint(isolated_pair))
    config = exact_config(isolated_pair, tau=0.01)
    result = mrf_nbhd(estimator, 0, 2, config)
    assert result.neighbors == ()
    assert result.trace == []


def test_ising_pair_neighborhood(ising_pair):
    estimator = NuEstimator.exact(exact_joint(ising_pair))
    config = exact_config(ising_pair, alpha=0.5, tau=0.05)
    result = mrf_nbhd(estimator, 0, 2, config)
    assert result.neighbors == (1,)
    assert result.trace[0][0] == "add"


def test_path_excludes_two_hop_neighbor(chain3):
    estimator = NuEstimator.exact(exact_joint(chain3))
    config = exact_config(chain3, alpha=0.5, tau=0.02)
    result = mrf_nbhd(estimator, 0, 3, config)
    assert result.neighbors == (1,)
    pruned = [t for t in result.trace if t[0] == "prune"]
    added = set()
    for kind, nodes, _ in result.trace:
        if kind == "add":
            added |= set(nodes)
    # node 2 is either never added (nu tiny given 1) or pruned afterwards
    assert 2 not in result.neighbors
    if 2 in added:
        assert any(t[1] == (2,) for t in pruned)


def test_budget_exhaustion_is_flagged(chain3):
    estimator = NuEstimator.exact(exact_joint(chain3))
    config = exact_config(chain3, alpha=0.5, tau=0.02, budget=0)
    result = mrf_nbhd(estimator, 0, 3, config)
    assert any("budget" in w for w in result.warnings)


def test_growth_step_covers_the_neighborhood_within_budget():
    # with exact nu values and tau below the detection floor, the growth
    # loop stops only once every true neighbor is inside S, within budget
    for seed in range(6):
        model = generate_model(
            GeneratorSpec(n=7, r=2, max_degree=3, max_arity=2, alpha=0.35, seed=40 + seed)
        )
        joint = exact_joint(model)
        graph = clique_graph(model)
        estimator = NuEstimator.exact(joint)
        config = exact_config(model, alpha=0.35, tau=1e-4, budget=model.n)
        for u in range(model.n):
            result = mrf_nbhd(estimator, u, model.n, config)
            grown = set()
            for kind, nodes, _ in result.trace:
                if kind == "add":
                    grown |= set(nodes)
            assert graph.neighbors[u] <= grown
            assert len(grown) <= config.budget + config.r - 1
            assert not any("budget" in w for w in result.warnings)


def test_estimator_audit_log_lines(caplog, chain3):
    # one line per evaluation in every mode, labelled with the rows behind it
    import logging

    joint = exact_joint(chain3)
    config = exact_config(chain3, alpha=0.5, tau=0.02)
    samples = sample_exact(joint, 1000, seed=2)
    hidden = samples.data.copy()
    hidden[:, 2] = ERASED  # every estimate involving node 2 has no coverage
    runs = [  # (label, run, whether some estimates have no coverage)
        ("m=1000", lambda: learn_graph_full(samples, config), False),
        ("m=exact", lambda: learn_graph_exact(joint, config), False),
        ("m=500", lambda: learn_graph_queried(
            QueryOracle.from_joint(joint, config.query_capacity, seed=3),
            3, chain3.arities, config, m_batch=500,
        ), False),
        ("m=1000", lambda: learn_graph_erased(SampleSet(hidden, samples.arities), config), True),
    ]
    for label, run, blinded in runs:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="mrflearn.estimator"):
            result = run()
        lines = [r.message for r in caplog.records]
        assert len(lines) == result.accounting["evaluations"] > 0
        assert all(line.startswith("nu u=") for line in lines)
        blind = [line for line in lines if line.endswith(" value=0 m=0 (no coverage)")]
        assert bool(blind) == blinded and len(blind) < len(lines)
        assert all("2" in line.split(" value=")[0] for line in blind)
        assert all(line.endswith(" " + label) for line in lines if line not in blind), label


def test_erased_coverage_events_become_node_warnings(chain3):
    samples = erase(sample_exact(exact_joint(chain3), 400, seed=3), 0.5, seed=4)
    floor = 60
    config = exact_config(chain3, alpha=0.5, tau=0.02, coverage_floor=floor)
    result = learn_graph_erased(samples, config)
    pattern = re.compile(
        r"node (\d): coverage below floor for u=(\d) I=\[[\d, ]+\] "
        r"S=\[[\d, ]*\] \(effective m=(\d+)\)"
    )
    found = [pattern.fullmatch(w) for w in result.warnings if "coverage" in w]
    assert found and all(found)
    # each node's events are drained onto that node, and only those below the floor
    assert all(m[1] == m[2] and int(m[3]) < floor for m in found)
    assert len({m[1] for m in found}) > 1
    assert len(found) < result.accounting["evaluations"]
    for u, res in result.per_node.items():
        assert [w for w in res.warnings if "coverage" in w] == [
            m[0].split(": ", 1)[1] for m in found if m[1] == str(u)
        ]


def test_every_addition_raises_mutual_information(chain3):
    # replay the trace and check the information gain of each accepted set
    joint = exact_joint(chain3)
    estimator = NuEstimator.exact(joint)
    config = exact_config(chain3, alpha=0.5, tau=0.02)
    for u in range(3):
        result = mrf_nbhd(estimator, u, 3, config)
        grown = []
        for kind, nodes, value in result.trace:
            if kind != "add":
                continue
            gain = exact_conditional_mi(joint, u, nodes, tuple(grown))
            assert gain >= 2.0 * value**2 - 1e-12  # Pinsker applied to nu > tau
            assert gain >= config.tau**2 / 8.0
            grown = sorted(set(grown) | set(nodes))


# ---------------------------------------------------------------- whole-graph runs


def test_learn_graph_exact_recovers_generated_models():
    for seed in range(5):
        model = generate_model(
            GeneratorSpec(n=6, r=2, max_degree=3, max_arity=2, alpha=0.3, seed=seed)
        )
        result = learn_graph_exact(exact_joint(model), exact_config(model))
        assert result.edges == set(clique_graph(model).edges)
        assert result.warnings == []


def test_learn_graph_exact_recovers_higher_order_model():
    model = generate_model(
        GeneratorSpec(n=6, r=3, max_degree=4, max_arity=2, alpha=0.3, seed=3)
    )
    result = learn_graph_exact(exact_joint(model), exact_config(model))
    assert result.edges == set(clique_graph(model).edges)


def test_learn_graph_empty_model(isolated_pair):
    result = learn_graph_exact(exact_joint(isolated_pair), exact_config(isolated_pair, tau=0.01))
    assert result.edges == set()


def test_an_order_of_one_is_a_unary_only_model_with_no_edges(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 1000, seed=4)
    result = learn_graph_full(samples, LearnConfig(r=1, tau=0.05, budget=3))
    assert result.edges == set()
    assert result.accounting["evaluations"] == 0


def test_full_mode_rejects_erased_cells_up_front(ising_pair):
    samples = erase(sample_exact(exact_joint(ising_pair), 100, seed=1), 0.9, seed=2)
    with pytest.raises(ValueError, match="use learn_graph_erased"):
        learn_graph_full(samples, exact_config(ising_pair, alpha=0.5, tau=0.05))


def test_single_sample_yields_empty_graph_with_warning(ising_pair):
    samples = SampleSet(np.array([[0, 1]]), (2, 2))
    config = exact_config(ising_pair, alpha=0.5, tau=0.05)
    result = learn_graph_full(samples, config)
    assert result.edges == set()
    assert any("degenerate" in w for w in result.warnings)


def test_learned_graph_from_samples(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 20_000, seed=4)
    config = exact_config(ising_pair, alpha=0.5, tau=0.05)
    result = learn_graph_full(samples, config)
    assert result.edges == {(0, 1)}
    assert result.accounting["samples"] == 20_000


def test_full_and_erased_agree_at_full_reveal(ising_pair):
    samples = sample_exact(exact_joint(ising_pair), 5000, seed=10)
    config = exact_config(ising_pair, alpha=0.5, tau=0.05)
    full = learn_graph_full(samples, config)
    via_erased = learn_graph_erased(erase(samples, 1.0, seed=11), config)
    assert full.edges == via_erased.edges
    for u in full.per_node:
        assert full.per_node[u].trace == via_erased.per_node[u].trace


def test_erased_mode_surfaces_coverage_warnings(ising_pair):
    samples = erase(sample_exact(exact_joint(ising_pair), 200, seed=1), 0.0, seed=2)
    config = exact_config(ising_pair, alpha=0.5, tau=0.05, coverage_floor=10)
    result = learn_graph_erased(samples, config)
    assert result.edges == set()
    assert any("coverage" in w for w in result.warnings)


def test_determinism_across_reruns():
    model = generate_model(
        GeneratorSpec(n=6, r=2, max_degree=3, max_arity=2, alpha=0.4, seed=8)
    )
    samples = sample_exact(exact_joint(model), 10_000, seed=21)
    config = exact_config(model, alpha=0.4, tau=0.04, budget=5)
    a = learn_graph_full(samples, config)
    b = learn_graph_full(samples, config)
    assert a.edges == b.edges
    for u in a.per_node:
        assert a.per_node[u].trace == b.per_node[u].trace


# ---------------------------------------------------------------- queried mode


def test_queried_mode_accounting(ising_pair):
    config = exact_config(ising_pair, alpha=0.5, tau=0.05, budget=2)
    capacity = math.floor(config.budget) + config.r
    oracle = QueryOracle.from_joint(exact_joint(ising_pair), capacity, seed=5)
    result = learn_graph_queried(oracle, 2, ising_pair.arities, config, m_batch=4000)
    assert result.edges == {(0, 1)}
    acc = result.accounting
    assert acc["max_query_size"] <= config.budget + config.r
    assert acc["samples_consumed"] <= acc["query_budget"]
    assert acc["samples_consumed"] == 4000 * acc["evaluations"]


def test_queried_mode_budget_counts_the_round_run_at_budget_zero(ising_pair):
    config = exact_config(ising_pair, alpha=0.5, tau=0.05, budget=0)
    oracle = QueryOracle.from_joint(exact_joint(ising_pair), config.query_capacity, seed=5)
    result = learn_graph_queried(oracle, 2, ising_pair.arities, config, m_batch=100)
    acc = result.accounting
    assert acc["query_budget"] == 100 * (0 + 1) * config.r * 2**config.r
    assert 0 < acc["samples_consumed"] <= acc["query_budget"]


def test_queried_mode_rejects_small_capacity(ising_pair):
    config = exact_config(ising_pair, alpha=0.5, tau=0.05, budget=4)
    oracle = QueryOracle.from_joint(exact_joint(ising_pair), capacity=2, seed=5)
    with pytest.raises(QueryCapacityError):
        learn_graph_queried(oracle, 2, ising_pair.arities, config, m_batch=100)


def test_queried_mode_recovers_small_model():
    model = generate_model(
        GeneratorSpec(n=5, r=2, max_degree=2, max_arity=2, alpha=0.4, seed=12)
    )
    config = exact_config(model, alpha=0.4, tau=0.045, budget=4)
    capacity = math.floor(config.budget) + config.r
    oracle = QueryOracle.from_joint(exact_joint(model), capacity, seed=9)
    result = learn_graph_queried(oracle, model.n, model.arities, config, m_batch=20_000)
    assert result.edges == set(clique_graph(model).edges)


# ---------------------------------------------------------------- set-valued pruning


def test_prune_sets_mode_on_higher_order_model():
    model = generate_model(
        GeneratorSpec(n=6, r=3, max_degree=4, max_arity=2, alpha=0.3, seed=19)
    )
    config = exact_config(model, prune_sets=True)
    result = learn_graph_exact(exact_joint(model), config)
    assert result.edges == set(clique_graph(model).edges)


# ---------------------------------------------------------------- differential check


def _reference_mrf_nbhd(estimator, u, n_nodes, config):
    """The per-node loop as it was before growth took one ``min`` and
    singleton pruning became set pruning at size 1: a hand-rolled argmax
    with an exhaustion flag, and a separate singleton prune branch."""
    tau = config.tau
    budget = config.budget
    result = NeighborhoodResult(node=u, neighbors=())
    grown = []
    start_evals = estimator.evaluations
    exhausted = False
    while True:
        if len(grown) > budget:
            exhausted = True
            break
        best_set, best_value = None, -math.inf
        pool = [v for v in range(n_nodes) if v not in {u, *grown}]
        cands = [c for size in range(1, config.r) for c in itertools.combinations(pool, size)]
        for cand, value in zip(cands, estimator(u, cands, tuple(grown))):
            if value > tau and (
                value > best_value
                or (value == best_value and (best_set is None or cand < best_set))
            ):
                best_set, best_value = cand, value
        if best_set is None:
            break
        grown = sorted(set(grown) | set(best_set))
        result.trace.append(("add", best_set, best_value))
    if exhausted:
        result.warnings.append(
            f"growth budget exhausted at |S|={len(grown)} > {budget:g}; "
            "estimates may not be uniformly accurate"
        )
    survivors = []
    for i in grown:
        rest = tuple(v for v in grown if v != i)
        if config.prune_sets:
            kept = False
            value = 0.0
            for size in range(1, config.r):
                for cand in itertools.combinations(grown, size):
                    if i not in cand:
                        continue
                    cond = tuple(v for v in grown if v not in cand)
                    (value,) = estimator(u, [cand], cond)
                    if value >= tau:
                        kept = True
                        break
                if kept:
                    break
        else:
            (value,) = estimator(u, [(i,)], rest)
            kept = value >= tau
        if kept:
            survivors.append(i)
        else:
            result.trace.append(("prune", (i,), value))
    result.neighbors = tuple(survivors)
    result.evaluations = estimator.evaluations - start_evals
    return result


def _reference_assemble(per_node):
    """Graph assembly as the separate helper did it before."""
    edges = set()
    warnings = []
    for u in sorted(per_node):
        for v in per_node[u].neighbors:
            pair = (min(u, v), max(u, v))
            if u in per_node[v].neighbors:
                edges.add(pair)
            else:
                warnings.append(f"asymmetric detection: {u} -> {v} only")
    for u in sorted(per_node):
        warnings.extend(f"node {u}: {w}" for w in per_node[u].warnings)
    return edges, warnings


def _hashed_kernel(u, groups, cond):
    """Pseudo-random nu values keyed by the query, shrinking with |S| and
    on a 0.01 grid, so that growth meets ties and pruning drops members."""
    return [
        (round(random.Random(repr((u, g, cond))).random() * 0.2 / (1 + len(cond)), 2), 100)
        for g in groups
    ]


def _differential_kernels(r):
    model = generate_model(GeneratorSpec(
        n=6, r=r, max_degree=4 if r == 3 else 3, max_arity=2, alpha=0.3, seed=19 if r == 3 else 8
    ))
    joint = exact_joint(model)
    full = EmpiricalDistribution(sample_exact(joint, 400, seed=3))
    erased = EmpiricalDistribution(erase(sample_exact(joint, 600, seed=4), 0.7, seed=5))
    return model.n, {
        "exact": lambda: NuEstimator.exact(joint),
        "full": lambda: NuEstimator.sampled(full),
        "erased": lambda: NuEstimator.sampled(erased, coverage_floor=150),
        "hashed": lambda: NuEstimator(_hashed_kernel),
    }


@pytest.mark.parametrize("prune_sets", [False, True])
@pytest.mark.parametrize("r", [2, 3])
def test_mrf_nbhd_matches_the_reference_loop(r, prune_sets):
    n, kernels = _differential_kernels(r)
    for kind, make in kernels.items():
        for tau, budget in [(1e-4, n), (0.004, 2), (0.035, 1), (0.05, n), (0.065, 0)]:
            config = LearnConfig(r=r, tau=tau, budget=budget, prune_sets=prune_sets)
            runs = {}
            for name, learner in (("ref", _reference_mrf_nbhd), ("new", mrf_nbhd)):
                estimator = make()
                calls = []
                kernel = estimator.kernel

                def logged(u, groups, cond, kernel=kernel, calls=calls):
                    calls.append((u, list(groups), cond))
                    return kernel(u, groups, cond)

                estimator.kernel = logged
                per_node = {}
                for u in range(n):
                    per_node[u] = learner(estimator, u, n, config)
                    per_node[u].warnings.extend(estimator.drain_events())
                runs[name] = (per_node, calls, estimator.evaluations)
            (ref, ref_calls, ref_evals), (new, new_calls, new_evals) = runs.values()
            where = (kind, tau, budget)
            assert new_calls == ref_calls, where
            assert new_evals == ref_evals, where
            for u in range(n):
                assert new[u].to_json_dict() == ref[u].to_json_dict(), (where, u)
            graph = learn_graph(make(), n, config)
            assert (graph.edges, graph.warnings) == _reference_assemble(ref), where


@pytest.mark.parametrize("module, name", [
    ("mrflearn.learner", "nu_hat"),
    ("mrflearn.learner", "nu_hat_erased"),
    ("mrflearn.learner", "nu_hat_queried"),
    ("mrflearn.learner", "exact_nu"),
    ("mrflearn.game", "exact_nu"),
    ("mrflearn.game", "marginal"),
    ("mrflearn.game", "exact_conditional_mi"),
    ("mrflearn.estimation", "QueryOracle.query"),
])
def test_traced_names_exist(module, name):
    # perfbench/run.py --trace 1 patches these module globals and this
    # method; an import that looks unused here may not be dropped
    target = importlib.import_module(module)
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_benchmark_config_call(ising_pair):
    # perfbench/run.py builds its config this way, with beta positional
    config = LearnConfig.from_model(
        ising_pair, 0.4, 1.0, override_tau=0.009, override_L=6, coverage_floor=3
    )
    assert (config.tau, config.budget, config.r, config.prune_sets) == (0.009, 6, 2, False)
    assert config.coverage_floor == 3
