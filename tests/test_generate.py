import math

import pytest

from mrflearn import (
    FeasibilityError,
    GeneratorSpec,
    LearnConfig,
    clique_graph,
    generate_model,
    is_centered,
    run_experiment,
    score_edges,
    validate_nondegeneracy,
)
from mrflearn.experiment import theoretical_sample_report


def test_two_node_spec_gives_single_edge():
    model = generate_model(GeneratorSpec(n=2, r=2, max_degree=1, alpha=0.2, seed=0))
    assert (0, 1) in model.potentials
    assert validate_nondegeneracy(model, 0.2, 1.0).passed


def test_generator_respects_degree_cap_and_validates():
    for seed in range(100):
        spec = GeneratorSpec(
            n=12, r=3, max_degree=3, max_arity=2, alpha=0.2, beta=1.0, seed=seed
        )
        model = generate_model(spec)
        assert clique_graph(model).max_degree <= 3
        assert validate_nondegeneracy(model, 0.2, 1.0).passed
        assert all(is_centered(t, 1e-9) for t in model.potentials.values())


def test_generator_rejects_contradictory_bounds():
    with pytest.raises(FeasibilityError):
        generate_model(GeneratorSpec(n=4, alpha=2.0, beta=1.0))


@pytest.mark.parametrize("alpha", [0.0, -0.5])
def test_generator_rejects_a_nonpositive_alpha(alpha):
    with pytest.raises(FeasibilityError, match="must be positive"):
        generate_model(GeneratorSpec(n=4, alpha=alpha))


@pytest.mark.parametrize("alpha, beta", [
    (0.2, math.inf), (0.2, 1e308), (math.nan, 1.0), (0.2, math.nan), (math.inf, math.inf),
])
def test_generator_rejects_a_nonfinite_alpha_or_beta(alpha, beta):
    with pytest.raises(FeasibilityError, match="and 2 beta must be finite"):
        generate_model(GeneratorSpec(n=4, alpha=alpha, beta=beta))


def test_generator_rejects_tiny_problem():
    with pytest.raises(FeasibilityError):
        generate_model(GeneratorSpec(n=1, r=2))


def test_generator_deterministic():
    a = generate_model(GeneratorSpec(n=8, seed=5))
    b = generate_model(GeneratorSpec(n=8, seed=5))
    assert a.hyperedges() == b.hyperedges()


# ---------------------------------------------------------------- scoring


def test_score_identical_sets():
    edges = {(0, 1), (1, 2)}
    s = score_edges(edges, set(edges))
    assert (s.precision, s.recall, s.exact_match) == (1.0, 1.0, True)


def test_score_empty_learned_uses_convention():
    s = score_edges({(0, 1)}, set())
    assert s.precision == 1.0
    assert not s.precision_defined
    assert s.recall == 0.0
    assert not s.exact_match


def test_score_disjoint_sets():
    s = score_edges({(0, 1)}, {(1, 2)})
    assert (s.precision, s.recall, s.exact_match) == (0.0, 0.0, False)


# ---------------------------------------------------------------- experiments


def small_config():
    return LearnConfig(r=2, tau=0.05, budget=4)


def test_run_experiment_rejects_zero_trials():
    spec = GeneratorSpec(n=4, r=2, max_degree=2, alpha=0.4, seed=0)
    with pytest.raises(ValueError):
        run_experiment(spec, small_config(), trials=0, mode="full", m=100, seed=0)


def test_run_experiment_reproducible():
    spec = GeneratorSpec(n=5, r=2, max_degree=2, alpha=0.4, seed=0)
    a = run_experiment(spec, small_config(), trials=3, mode="full", m=5000, seed=7)
    b = run_experiment(spec, small_config(), trials=3, mode="full", m=5000, seed=7)
    for ta, tb in zip(a.trials, b.trials):
        assert ta["learned_edges"] == tb["learned_edges"]
        assert ta["exact_match"] == tb["exact_match"]
    assert "full" in a.theoretical_m or "full_log10" in a.theoretical_m


def test_theoretical_sample_report_frozen_values(ising_pair):
    # frozen from the report as computed before the theoretical thresholds
    # moved out of LearnConfig; the two bounds take tau / 2 and tau, so a
    # swapped argument shows
    n12 = generate_model(GeneratorSpec(
        n=12, r=2, max_degree=3, max_arity=2, alpha=0.4, beta=1.0, seed=0
    ))
    assert theoretical_sample_report(ising_pair, 0.5) == pytest.approx(
        {"full_log10": 1215515748.552007, "erased_p09_log10": 1215515758.149393}, rel=1e-12
    )
    assert theoretical_sample_report(n12, 0.4) == pytest.approx(
        {"full_log10": 6.132274029526359e+27, "erased_p09_log10": 6.132274029526359e+27},
        rel=1e-12,
    )


def test_theoretical_sample_report_names_an_undefined_threshold(isolated_pair):
    report = theoretical_sample_report(isolated_pair, 0.5)
    assert report["error"].startswith("theoretical thresholds undefined: ")


def test_an_underflowing_theoretical_tau_is_a_value_error():
    # gamma ~ 65.7: the conditioned floor is ~1e-292, whose square is 0.0
    model = generate_model(GeneratorSpec(n=6, max_degree=3, alpha=1.0, beta=60.0, seed=0))
    with pytest.raises(ValueError, match="squares to 0"):
        LearnConfig.from_model(model, 1.0)
    assert "float underflow" in theoretical_sample_report(model, 1.0)["error"]


def test_run_experiment_recovers_small_models():
    spec = GeneratorSpec(n=5, r=2, max_degree=2, alpha=0.4, seed=0)
    report = run_experiment(spec, small_config(), trials=4, mode="full", m=20_000, seed=3)
    assert report.exact_match_rate >= 0.75
    assert report.mean_recall >= 0.75


def test_run_experiment_erased_mode_runs():
    spec = GeneratorSpec(n=4, r=2, max_degree=2, alpha=0.4, seed=2)
    report = run_experiment(
        spec, small_config(), trials=2, mode="erased", m=30_000, seed=5, reveal_prob=0.9
    )
    assert len(report.trials) == 2
