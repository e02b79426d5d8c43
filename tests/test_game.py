import itertools
import math

import numpy as np
import pytest

from mrflearn import (
    CliqueTensor,
    GeneratorSpec,
    MarkovRandomField,
    bob_phi,
    bob_wager,
    clique_graph,
    compute_gamma_delta,
    energy,
    exact_joint,
    expected_payoff_exact,
    expected_payoff_mc,
    generate_model,
    marginal,
    mean_nu_over_probe_sets,
    payoff_lower_bound,
    payoff_upper_bound_check,
    play_round,
    spawn_rng,
    verify_mi_chain,
    verify_payoff_bounds,
    wager_cap,
)
from mrflearn.game import _wager_tables

ISING_PAYOFF = 0.2310585786300048


def small_models(count, n=4, r=2, seed0=0, **kw):
    defaults = dict(max_degree=3, max_arity=2, alpha=0.3, beta=1.0)
    defaults.update(kw)
    return [
        generate_model(GeneratorSpec(n=n, r=r, seed=seed0 + i, **defaults))
        for i in range(count)
    ]


# ---------------------------------------------------------------- bob's strategy


def test_phi_zero_without_potentials(isolated_pair):
    # an isolated node has no neighbors; reveal the other node is invalid,
    # but an empty reveal with s=0 gives zero
    assert bob_phi(isolated_pair, 0, 0, (), (), s=0) == 0.0


def test_phi_with_full_reveal_equals_energy(chain3):
    # when every neighbor is revealed all reweighting factors are one
    joint_x = [0, 1, 0]
    for state in range(2):
        phi = bob_phi(chain3, 1, state, (0, 2), (0, 0), s=2)
        assert phi == pytest.approx(energy(chain3, 1, state, joint_x), abs=1e-12)


def test_phi_unbiased_over_reveals():
    # averaging phi over all size-s reveals reproduces the energy exactly
    for model in small_models(12, n=5, r=3, seed0=40):
        graph = clique_graph(model)
        rng = np.random.default_rng(1)
        x = [int(rng.integers(k)) for k in model.arities]
        for u in range(model.n):
            nbrs = sorted(graph.neighbors[u])
            if not nbrs:
                continue
            s = min(model.r - 1, len(nbrs))
            subsets = list(itertools.combinations(nbrs, s))
            for state in range(model.arities[u]):
                avg = np.mean([
                    bob_phi(model, u, state, I, tuple(x[v] for v in I), s=s)
                    for I in subsets
                ])
                assert avg == pytest.approx(energy(model, u, state, x), abs=1e-10)


def test_wager_unbiased_over_reveals(chain3):
    x = [1, 0, 1]
    u = 1
    nbrs = (0, 2)
    for state in range(2):
        avg = np.mean([
            bob_wager(chain3, u, state, (v,), (x[v],)) for v in nbrs
        ])
        gap = energy(chain3, u, state, x) - sum(
            energy(chain3, u, b, x) for b in range(2) if b != state
        )
        assert avg == pytest.approx(gap, abs=1e-12)


def test_wager_zero_for_zero_potentials():
    model = MarkovRandomField(3, (2, 2, 2), {(0, 1): CliqueTensor((0, 1), np.zeros((2, 2)))}, r=2)
    assert bob_wager(model, 0, 0, (1,), (0,)) == 0.0


def test_wager_antisymmetric_for_binary(ising_pair):
    for xv in range(2):
        w0 = bob_wager(ising_pair, 0, 0, (1,), (xv,))
        w1 = bob_wager(ising_pair, 0, 1, (1,), (xv,))
        assert w0 == pytest.approx(-w1, abs=1e-12)


def test_wager_cap_holds_exhaustively():
    # the wager tables enumerate every reachable (challenge, reveal) pair,
    # so checking them covers all possible rounds
    for model in small_models(10, n=5, r=3, seed0=60):
        cap = wager_cap(model)
        for u in range(model.n):
            for _, wagers in _wager_tables(model, u):
                assert float(np.max(np.abs(wagers))) <= cap + 1e-9


# ---------------------------------------------------------------- expected payoff


def test_payoff_isolated_node(isolated_pair):
    assert expected_payoff_exact(isolated_pair, 0) == 0.0


def test_payoff_ising_frozen_value(ising_pair):
    assert expected_payoff_exact(ising_pair, 0) == pytest.approx(ISING_PAYOFF, abs=1e-12)


def loop_wager(model, u, state, revealed, revealed_states):
    """Bob's wager one configuration at a time: each clique potential on u
    whose other members are all revealed, weighted C(d_u, s) / C(d_u - l, s - l)."""
    d_u = clique_graph(model).degrees[u]
    s = len(revealed)
    lookup = dict(zip(revealed, revealed_states))

    def phi(b):
        total = 0.0
        for verts in model.incident(u):
            others = [v for v in verts if v != u]
            if not set(others) <= set(revealed):
                continue
            ell = len(others)
            coeff = math.comb(d_u, s) / math.comb(d_u - ell, s - ell)
            idx = tuple(b if v == u else int(lookup[v]) for v in verts)
            total += coeff * float(model.potentials[verts].values[idx])
        return total

    phis = [phi(b) for b in range(model.arities[u])]
    return 2.0 * phis[state] - sum(phis)


def brute_payoff(model, u):
    """Independent oracle: full enumeration over (X, X', R, I), with the
    wager computed one configuration at a time."""
    joint = exact_joint(model)
    graph = clique_graph(model)
    nbrs = sorted(graph.neighbors[u])
    s = min(model.r - 1, len(nbrs))
    subsets = list(itertools.combinations(nbrs, s))
    shapes = [range(k) for k in model.arities]
    total = 0.0
    for x in itertools.product(*shapes):
        for x_prime in itertools.product(*shapes):
            p = joint.probs[x] * joint.probs[x_prime]
            for challenge in range(model.arities[u]):
                for revealed in subsets:
                    wager = loop_wager(
                        model, u, challenge, revealed, tuple(x[v] for v in revealed)
                    )
                    payoff = wager * (
                        (x[u] == challenge) - (x_prime[u] == challenge)
                    )
                    total += p * payoff / (model.arities[u] * len(subsets))
    return total


def test_payoff_matches_brute_force_enumeration(chain3):
    for model in [chain3] + small_models(1, n=4, r=3, seed0=70):
        for u in range(model.n):
            assert expected_payoff_exact(model, u) == pytest.approx(
                brute_payoff(model, u), abs=1e-12
            )


def test_payoff_meets_lower_bound_on_generated_models():
    for model in small_models(15, n=5, r=2, seed0=100):
        joint = exact_joint(model)
        for record in verify_payoff_bounds(model, 0.3, joint):
            assert record["ok"], record
            assert record["exact"] >= -1e-12


def test_payoff_mc_agrees_with_exact(chain3):
    exact = expected_payoff_exact(chain3, 1)
    mean, se = expected_payoff_mc(chain3, 1, 200_000, seed=17)
    assert abs(mean - exact) <= 3 * se


def test_payoff_mc_zero_model(isolated_pair):
    model = MarkovRandomField(
        2, (2, 2), {(0, 1): CliqueTensor((0, 1), np.zeros((2, 2)))}, r=2
    )
    mean, se = expected_payoff_mc(model, 0, 20_000, seed=3)
    assert abs(mean) <= max(3 * se, 1e-12)


def test_payoff_mc_ising_at_a_million_rounds(ising_pair):
    mean, se = expected_payoff_mc(ising_pair, 0, 1_000_000, seed=2)
    assert abs(mean - ISING_PAYOFF) <= 3 * se


def test_payoff_mc_deterministic(chain3):
    a = expected_payoff_mc(chain3, 0, 5000, seed=9)
    b = expected_payoff_mc(chain3, 0, 5000, seed=9)
    assert a == b


def test_play_round_respects_cap_and_rejects_isolated(chain3, isolated_pair):
    rng = spawn_rng(5, "game")
    joint = exact_joint(chain3)
    cap = wager_cap(chain3)
    for _ in range(200):
        round_ = play_round(chain3, 1, rng, joint)
        assert abs(round_.wager) <= cap + 1e-9
        assert round_.payoff in (round_.wager, -round_.wager, 0.0)
    with pytest.raises(ValueError, match="isolated"):
        play_round(isolated_pair, 0, rng)


# ---------------------------------------------------------------- upper bound and chain


def test_upper_bound_trivial_for_independent(isolated_pair):
    rec = payoff_upper_bound_check(isolated_pair, 0)
    assert rec["exact"] == 0.0 and rec["upper"] == 0.0 and rec["ok"]


def test_upper_bound_tight_for_symmetric_ising(ising_pair):
    # for the symmetric pair Bob's strategy saturates the cap exactly,
    # so the inequality holds with equality
    rec = payoff_upper_bound_check(ising_pair, 0)
    assert rec["ok"]
    assert rec["slack"] == pytest.approx(0.0, abs=1e-12)


def test_upper_bound_sweep():
    for model in small_models(100, n=4, r=2, seed0=300) + small_models(
        100, n=4, r=3, seed0=700, max_arity=3
    ):
        joint = exact_joint(model)
        graph = clique_graph(model)
        for u in range(model.n):
            if graph.degrees[u] == 0:
                continue
            assert payoff_upper_bound_check(model, u, joint)["ok"]


def test_mi_chain_links_hold():
    for model in small_models(10, n=5, r=2, seed0=11):
        for record in verify_mi_chain(model, 0.3):
            assert record["links_ok"], record
            assert record["ok"], record


def test_mi_chain_link_check_catches_a_wrong_nu(monkeypatch):
    import mrflearn.game as game

    exact = game.exact_nu
    monkeypatch.setattr(game, "exact_nu", lambda *args: 1.01 * exact(*args))
    records = verify_mi_chain(small_models(1, n=5, r=2, seed0=11)[0], 0.3)
    assert records
    assert not any(record["links_ok"] for record in records)


# ---------------------------------------------------------------- variance structure


def _energy_table(model, u, joint):
    graph = clique_graph(model)
    nbrs = sorted(graph.neighbors[u])
    marg = marginal(joint, tuple(nbrs))
    k_u = model.arities[u]
    table = np.zeros((k_u,) + marg.shape)
    for cfg in itertools.product(*[range(model.arities[v]) for v in nbrs]):
        x = [0] * model.n
        for v, sv in zip(nbrs, cfg):
            x[v] = sv
        for state in range(k_u):
            table[(state,) + cfg] = energy(model, u, state, x)
    return marg, table


def test_energy_gap_variance_identity():
    # sum over ordered pairs of Var[a - b] collapses to 4 k_u sum_R Var[E_R]
    # because centering forces sum_R E_R = 0
    for model in small_models(8, n=4, r=2, seed0=500):
        joint = exact_joint(model)
        graph = clique_graph(model)
        for u in range(model.n):
            if graph.degrees[u] == 0:
                continue
            marg, table = _energy_table(model, u, joint)
            k_u = model.arities[u]

            def var(values):
                mean = float((marg * values).sum())
                return float((marg * (values - mean) ** 2).sum())

            total_energy = table.sum(axis=0)
            np.testing.assert_allclose(total_energy, 0.0, atol=1e-9)
            lhs = sum(
                2.0 * var(table[r_] - table[b])
                for r_ in range(k_u)
                for b in range(k_u)
                if b != r_
            )
            rhs = 4.0 * k_u * sum(var(table[r_]) for r_ in range(k_u))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_energy_variance_floor():
    alpha = 0.3
    for model in small_models(8, n=4, r=2, seed0=900, alpha=alpha):
        joint = exact_joint(model)
        consts = compute_gamma_delta(model)
        graph = clique_graph(model)
        floor = alpha**2 * consts.delta ** (model.r - 1) / (2.0 * model.r ** (2 * model.r))
        for u in range(model.n):
            if graph.degrees[u] == 0:
                continue
            marg, table = _energy_table(model, u, joint)

            def var(values):
                mean = float((marg * values).sum())
                return float((marg * (values - mean) ** 2).sum())

            total = sum(var(table[r_]) for r_ in range(model.arities[u]))
            assert total >= floor - 1e-12


def test_payoff_lower_bound_formula():
    assert payoff_lower_bound(0.5, 0.5 * math.exp(-1.0), 2, 0.5) == pytest.approx(
        4 * 0.25 * 0.5 * math.exp(-1.0) / (16 * math.exp(1.0))
    )


def test_mean_nu_rejects_covered_neighborhood(ising_pair):
    joint = exact_joint(ising_pair)
    with pytest.raises(ValueError):
        mean_nu_over_probe_sets(joint, 0, (1,))
