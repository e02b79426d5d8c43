import math
import re

import numpy as np
import pytest

from mrflearn import (
    ERASED,
    GeneratorSpec,
    LearnConfig,
    NuEstimator,
    QueryCapacityError,
    QueryOracle,
    SampleSet,
    clique_graph,
    erase,
    exact_conditional_mi,
    exact_joint,
    generate_model,
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
    assert with_override.theoretical_tau() == pytest.approx(config.tau)


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
