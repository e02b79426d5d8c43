import itertools
import math
import types

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
    verify_conditioned_floor,
    verify_mi_chain,
    verify_payoff_bounds,
    wager_cap,
)
from mrflearn.game import _probe_sets, _wager_tables
from mrflearn.inference import _nu_of_tables, _uis_table

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


# every public game function that takes a target node u
GAME_CALLS = {
    "play_round": lambda m, u: play_round(m, u, spawn_rng(0, "game")),
    "expected_payoff_mc": lambda m, u: expected_payoff_mc(m, u, 10, 0),
    "expected_payoff_exact": expected_payoff_exact,
    "payoff_upper_bound_check": payoff_upper_bound_check,
    "mean_nu_over_probe_sets": lambda m, u: mean_nu_over_probe_sets(exact_joint(m), u),
    "bob_phi": lambda m, u: bob_phi(m, u, 0, (0,), (0,)),
    "bob_wager": lambda m, u: bob_wager(m, u, 0, (0,), (0,)),
}


@pytest.mark.parametrize("name", sorted(GAME_CALLS))
def test_game_rejects_a_node_outside_the_model(name):
    # -1 used to read node n-1's neighbourhood and n to raise from numpy
    model = generate_model(GeneratorSpec(n=5, seed=1))
    for u in (-1, model.n):
        with pytest.raises(ValueError, match=f"node {u} is not a node"):
            GAME_CALLS[name](model, u)


@pytest.mark.parametrize("fn", [bob_phi, bob_wager])
@pytest.mark.parametrize("state, revealed_states, message", [
    (-1, (0,), "state -1 out of range for node 0"),  # used to read state k-1
    (2, (0,), "state 2 out of range for node 0"),  # used to raise IndexError
    (0, (-1,), "state -1 out of range for node 2"),  # used to read state 1
    (0, (2,), "state 2 out of range for node 2"),
    (0, (), "0 revealed states for 1 revealed nodes"),  # used to raise TypeError
    (0, (0, 0), "2 revealed states for 1 revealed nodes"),  # used to raise IndexError
])
def test_phi_and_wager_reject_unchecked_states(fn, state, revealed_states, message):
    model = generate_model(GeneratorSpec(n=5, seed=1))
    assert model.arities[0] == model.arities[2] == 2
    fn(model, 0, 1, (2,), (1,))
    with pytest.raises(ValueError, match=message):
        fn(model, 0, state, (2,), revealed_states)


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


def test_play_round_is_the_first_round_of_the_simulator(chain3):
    # one round drawn by play_round consumes the stream exactly as a
    # one-round Monte-Carlo run at the same seed
    for seed in range(20):
        round_ = play_round(chain3, 1, spawn_rng(seed, "game"))
        assert expected_payoff_mc(chain3, 1, 1, seed) == (round_.payoff, 0.0)


def test_isolated_target_is_rejected_before_the_joint_is_built():
    too_big = MarkovRandomField(25, (2,) * 25, {}, r=2)  # over the enumeration cap
    with pytest.raises(ValueError, match="isolated"):
        expected_payoff_mc(too_big, 0, 10, seed=0)
    with pytest.raises(ValueError, match="isolated"):
        play_round(too_big, 0, spawn_rng(0, "game"))


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


def _broken_chain(monkeypatch, name, mutate):
    # the chain's records with one of its game-module reads mutated
    import mrflearn.game as game

    monkeypatch.setattr(game, name, mutate(getattr(game, name)))
    records = verify_mi_chain(small_models(1, n=5, r=2, seed0=11)[0], 0.3)
    assert records
    return records


def test_mi_chain_link_check_catches_a_wrong_nu(monkeypatch):
    # nu 1% high breaks the nu-vs-covariance link of every probe set
    records = _broken_chain(monkeypatch, "_nu_of_tables", lambda reduce: lambda tables: [
        (1.01 * nu, weight) for nu, weight in reduce(tables)
    ])
    assert not any(record["links_ok"] for record in records)


def test_mi_chain_link_check_catches_a_shrunk_mi(monkeypatch):
    # MI a hundredth of its value falls below Pinsker's 2 nu^2
    records = _broken_chain(monkeypatch, "_mi_of_table", lambda mi: lambda t: 0.01 * mi(t))
    assert not any(record["links_ok"] for record in records)


def test_mi_chain_link_check_catches_a_zero_wager_cap(monkeypatch):
    # a zero cap leaves no room for the positive exact payoff
    records = _broken_chain(monkeypatch, "wager_cap", lambda cap: lambda model: 0.0)
    assert not any(record["links_ok"] for record in records)


def test_payoff_and_chain_sum_the_joint_once_per_node(monkeypatch):
    # payoff, cap deviation, nu and MI of every probe set at u are summed
    # from one marginal over (u, N(u)...), the conditioned floor's K = () leaf
    import mrflearn.game as game
    import mrflearn.inference as inference

    calls = []

    def counted(joint, nodes):
        calls.append(tuple(nodes))
        return marginal(joint, nodes)

    monkeypatch.setattr(game, "marginal", counted)
    monkeypatch.setattr(inference, "marginal", counted)
    models = small_models(5, n=5, r=2, seed0=11) + small_models(5, n=5, r=3, seed0=40)
    for model in models:
        joint = exact_joint(model)
        graph = clique_graph(model)
        expected = [(u, *sorted(graph.neighbors[u])) for u in range(model.n) if graph.degrees[u]]
        assert expected
        for verify in (verify_payoff_bounds, verify_mi_chain):
            calls.clear()
            verify(model, 0.3, joint)
            assert calls == expected, verify.__name__


def test_mi_chain_and_conditioned_floor_agree_at_the_empty_set():
    # the chain averages one exact_nu call per probe set, the conditioned
    # floor one exact_nu_sweep over them all; every exact table is reduced
    # in one memory order, so at S = () the means agree bit for bit
    checked = 0
    models = small_models(10, n=5, r=2, seed0=11) + small_models(
        10, n=5, r=3, seed0=40, max_arity=3
    )
    for model in models:
        joint = exact_joint(model)
        chain = {rec["node"]: rec["mean_nu"] for rec in verify_mi_chain(model, 0.3, joint)}
        for rec in verify_conditioned_floor(model, 0.3, 0, joint):
            assert rec["cond"] == ()
            assert rec["mean_nu"] == chain[rec["node"]]
            checked += 1
    assert checked >= 20


def _multi_axis_marginal(joint, nodes):
    # the marginal as summed before the transposed copy: every other axis
    # at once, the kept axes then permuted into the requested order
    others = tuple(v for v in range(joint.model.n) if v not in nodes)
    order = sorted(nodes)
    return joint.probs.sum(axis=others).transpose(tuple(order.index(v) for v in nodes))


def test_verifiers_match_the_multi_axis_marginal(monkeypatch):
    # n = 12 models of the benchmark family and an r = 3 family: payoff,
    # chain and floor records within 1e-12 of the multi-axis marginal's,
    # every other field (ok flags included) identical
    import mrflearn.game as game
    import mrflearn.inference as inference

    family = [(generate_model(GeneratorSpec(n=12, max_degree=3, alpha=0.4, seed=seed)), 0.4)
              for seed in range(3)]
    family += [(model, 0.3) for model in small_models(3, n=7, r=3, seed0=40, max_arity=3)]
    worst, checked = 0.0, 0
    for model, alpha in family:
        joint = exact_joint(model)

        def records():
            return (verify_payoff_bounds(model, alpha, joint) + verify_mi_chain(model, alpha, joint)
                    + verify_conditioned_floor(model, alpha, 2, joint))

        new = records()
        with monkeypatch.context() as patch:
            patch.setattr(game, "marginal", _multi_axis_marginal)
            patch.setattr(inference, "marginal", _multi_axis_marginal)
            old = records()
        assert len(new) == len(old)
        for rec, ref in zip(new, old):
            assert rec.keys() == ref.keys()
            for key, value in rec.items():
                if isinstance(value, float):
                    worst = max(worst, abs(value - ref[key]))
                else:
                    assert value == ref[key], (key, rec, ref)
            checked += 1
    print(f"worst |difference| over {checked} records: {worst:.2g}")
    assert worst <= 1e-12
    assert checked >= 1000


class _CountedNumpy:
    """NumPy as the game module sees it, counting the transposed copies of
    one joint and, per copy, the single-axis sums (the prefix tree's)."""

    def __init__(self, joint):
        self.joint, self.sums = joint, []

    def __getattr__(self, name):
        return getattr(np, name)

    def ascontiguousarray(self, a):
        if a.base is self.joint.probs:
            self.sums.append(0)
        return np.ascontiguousarray(a)

    @property
    def add(self):
        return types.SimpleNamespace(reduce=self._reduce)

    def _reduce(self, a, axis):
        self.sums[-1] += isinstance(axis, int)  # a probe table's sum names a tuple of axes
        return np.add.reduce(a, axis=axis)


def test_conditioned_floor_copies_the_joint_once_per_node(monkeypatch):
    # no marginal in the floor: one transposed copy of the joint per
    # all-strong node, and then the prefix tree's single-axis sums.  With
    # c = max_cond_size and m = n - 1 - |N(u)| non-neighbours, every K of
    # at most c of them is a leaf, so a prefix p shorter than c has every
    # later axis as a child, and it drops each axis j after p but before
    # the last one once.  Pairing that sum with the set p + (j,) counts the
    # sets of 1..c non-neighbours that miss the last one: sum_{j=1..c}
    # C(m - 1, j) sums
    import mrflearn.game as game
    import mrflearn.inference as inference

    marginals = []

    def counted_marginal(joint, nodes):
        marginals.append(tuple(nodes))
        return marginal(joint, nodes)

    monkeypatch.setattr(game, "marginal", counted_marginal)
    monkeypatch.setattr(inference, "marginal", counted_marginal)
    size = 2
    strong = weak = 0
    for model in small_models(5, n=6, r=2, seed0=11) + small_models(
        5, n=6, r=3, seed0=40, max_arity=3
    ):
        joint = exact_joint(model)
        neighbors = clique_graph(model).neighbors
        counted = _CountedNumpy(joint)
        monkeypatch.setattr(game, "np", counted)
        nodes = sorted({rec["node"] for rec in verify_conditioned_floor(model, 0.4, size, joint)})
        monkeypatch.setattr(game, "np", np)
        far = [model.n - 1 - len(neighbors[u]) for u in nodes]
        assert marginals == []
        assert counted.sums == [sum(math.comb(max(m - 1, 0), j) for j in range(1, size + 1))
                                for m in far]
        strong += len(nodes)
        weak += sum(1 for u in range(model.n) if neighbors[u] and u not in nodes)
    assert strong >= 20 and weak >= 20  # alpha = 0.4 lets some nodes qualify, not all


def _per_table_probes(model, u, joint):
    # payoff, deviation and probe tables before the (u, N(u)) leaf: one
    # marginal over (u, I...) per probe set
    tables = _wager_tables(model, u)
    if not tables:
        return 0.0, 0.0, []
    payoff, probes = 0.0, []
    for revealed, wagers in tables:
        p_ui = marginal(joint, (u,) + revealed)
        p_u = p_ui.sum(axis=tuple(range(1, p_ui.ndim)), keepdims=True)
        cov = p_ui - p_u * p_ui.sum(axis=0, keepdims=True)
        payoff += float((cov * wagers).sum())
        probes.append((revealed, float(np.abs(cov).sum()), p_ui[..., None]))
    scale = model.arities[u] * len(tables)
    return payoff / scale, sum(dev for _, dev, _ in probes) / scale, probes


def _per_table_means(joint, u, conds):
    # the floor before the prefix tree: one marginal per (u, I, S) table,
    # each conditioning set's tables reduced on their own
    means = []
    for cond in conds:
        groups = _probe_sets(joint.model, u, excluded=frozenset(cond))
        nus = _nu_of_tables([_uis_table(joint, u, group, cond) for group in groups])
        means.append(float(np.mean([nu for nu, _ in nus])))
    return means


def test_verifiers_match_one_marginal_per_table(monkeypatch):
    # payoff, chain and floor records within 1e-12 of one marginal per
    # table, every other field (conds and ok flags included) identical:
    # three n = 12 models of the benchmark family, r = 3 models of mixed
    # arity at three size caps, and an n = 8 model whose floor reaches
    # leaves of every size
    import mrflearn.game as game

    cases = [(generate_model(GeneratorSpec(n=12, max_degree=3, alpha=0.4, seed=seed)), 0.4, 2)
             for seed in range(3)]
    cases += [(model, 0.3, size) for model in small_models(3, n=7, r=3, seed0=40, max_arity=3)
              for size in (0, 2, 3)]
    cases += [(model, 0.3, 7) for model in small_models(1, n=8, seed0=3, max_arity=3)]
    worst, checked, sizes = 0.0, 0, set()
    for model, alpha, size in cases:
        joint = exact_joint(model)

        def records():
            return (verify_payoff_bounds(model, alpha, joint) + verify_mi_chain(model, alpha, joint)
                    + verify_conditioned_floor(model, alpha, size, joint))

        new = records()
        with monkeypatch.context() as patch:
            patch.setattr(game, "_probes", _per_table_probes)
            patch.setattr(game, "_probe_means", _per_table_means)
            old = records()
        assert len(new) == len(old)
        for rec, ref in zip(new, old):
            assert rec.keys() == ref.keys()
            for key, value in rec.items():
                if isinstance(value, float):
                    worst = max(worst, abs(value - ref[key]))
                else:
                    assert value == ref[key], (key, rec, ref)
            sizes.add(len(rec.get("cond", ())))
            checked += 1
    print(f"worst |difference| over {checked} records: {worst:.2g}")
    assert worst <= 1e-12
    assert checked >= 3000 and sizes == set(range(7))  # a set of all 7 others covers N(u)


def test_probe_means_do_not_depend_on_the_sets_beside_them(monkeypatch):
    # a leaf's bits depend on its K alone and every table is reduced on its
    # own, so any permutation or subset of the conditioning sets, or a flush
    # after every set, gives every value bit for bit
    import mrflearn.game as game

    rng = np.random.default_rng(0)
    checked = 0
    for model in small_models(2, n=7, r=3, seed0=40, max_arity=3) + small_models(2, n=7, seed0=11):
        joint = exact_joint(model)
        neighbors = clique_graph(model).neighbors
        for u in range(model.n):
            if not neighbors[u]:
                continue
            others = [v for v in range(model.n) if v != u]
            conds = [cond for size in range(model.n) for cond in itertools.combinations(others, size)
                     if not neighbors[u] <= set(cond)]
            want = game._probe_means(joint, u, conds)
            order = rng.permutation(len(conds))
            for subset in (order, order[: len(order) // 3], order[:1]):
                assert game._probe_means(joint, u, [conds[i] for i in subset]) == [
                    want[i] for i in subset
                ]
            with monkeypatch.context() as patch:
                patch.setattr(game, "PENDING_JOINTS", 0)
                assert game._probe_means(joint, u, conds) == want
            checked += len(conds)
    assert checked >= 1000


def test_conditioned_floor_holds_a_bounded_multiple_of_the_joint():
    # at max_cond_size n - 1, in units of the joint's cells (B =
    # PENDING_JOINTS = 8; r = 2, so the probe tables of a leaf hold at most
    # p / 2^(p - 1) <= 1 leaves for a pool of p neighbours):
    #   the root copy                                           1
    #   the tree's live states below it, each at most half its
    #   parent, as every dropped axis has at least two states    1
    #   pending leaves: flushed once past B, the last at most 1  B + 1
    #   one S layout's stacked copy of its leaves                B + 1
    #   the probe tables made from those                         B + 1
    #   the reducer: a stack of the tables, its margins (at most
    #   1.25 stacks) and two deviation temporaries at once       4.25 (B + 1)
    # so 2 + 7.25 (B + 1) joints, plus at most 1 KB of Python objects per
    # conditioning set (its key and leaf axes, row views, owners and sums).
    # These nodes peak at about 47 joints.  Holding every set's tables at
    # once, as the floor did before the tree, peaked at 92-180 joints,
    # growing about 3^(n - 1) / 2^n; never flushing peaks at 117-187
    import tracemalloc

    import mrflearn.game as game

    model = generate_model(GeneratorSpec(n=10, max_degree=3, alpha=0.4, seed=0))
    joint = exact_joint(model)
    neighbors = clique_graph(model).neighbors
    assert game.PENDING_JOINTS == 8
    bound_joints = 2 + 7.25 * (8 + 1)
    nodes = [u for u in range(model.n) if neighbors[u]][:3]
    for u in nodes:
        others = [v for v in range(model.n) if v != u]
        conds = [cond for size in range(model.n) for cond in itertools.combinations(others, size)
                 if not neighbors[u] <= set(cond)]
        tracemalloc.start()
        try:
            game._probe_means(joint, u, conds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_joints * joint.probs.nbytes + 1024 * len(conds), (u, peak)
    assert len(nodes) == 3


@pytest.mark.parametrize("r, max_arity, seed0", [(2, 2, 11), (3, 3, 40)])
def test_conditioned_floor_means_are_mean_nu_over_probe_sets(r, max_arity, seed0):
    # a node's tables are reduced in one stack, and each nu is independent
    # of the tables beside it, so every record's mean is exactly the
    # probe-averaged nu of its conditioning set alone
    checked = 0
    for model in small_models(6, n=6, r=r, seed0=seed0, max_arity=max_arity):
        joint = exact_joint(model)
        for rec in verify_conditioned_floor(model, 0.3, 2, joint):
            assert rec["mean_nu"] == mean_nu_over_probe_sets(joint, rec["node"], rec["cond"])
            checked += 1
    assert checked >= 200


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


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan, math.inf])
def test_payoff_floor_rejects_a_meaningless_alpha(alpha):
    # the floor squares alpha, so -1 would read as 1, and nan or inf would
    # leave no node qualifying and every check passing
    with pytest.raises(ValueError, match="must be positive and finite"):
        payoff_lower_bound(alpha, 0.5, 2, 0.5)
    with pytest.raises(ValueError, match="must be positive and finite"):
        verify_payoff_bounds(small_models(1)[0], alpha)


def test_conditioned_floor_rejects_a_negative_size_cap():
    # a negative cap used to check no conditioning set and pass vacuously
    with pytest.raises(ValueError, match="max_cond_size=-3 must be non-negative"):
        verify_conditioned_floor(small_models(1)[0], 0.3, max_cond_size=-3)


def test_mean_nu_rejects_covered_neighborhood(ising_pair):
    joint = exact_joint(ising_pair)
    with pytest.raises(ValueError):
        mean_nu_over_probe_sets(joint, 0, (1,))
