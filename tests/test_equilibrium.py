import itertools
import random
from fractions import Fraction

import pytest

from gametree import (InternalCheckError, LinearProgram, ResourceGuardError,
                      compute_bce, compute_efce, deviation_tables, enumerate_pure,
                      equilibrium, fixtures, gap, is_causal, lp_solve, optimal_bce,
                      optimal_efce, outcome_equivalent, parse_game, profile_support,
                      pure_utility)
from gametree.metrics import _play_from, expected_utility
from gametree.randgen import random_game, random_mixture, random_objective
from gametree.strategy import PureProfile, PureStrategy, pure_terminal_reach

F = Fraction


def u_objective(game, player=None):
    if player is None:
        return {z.terminal_id: sum(z.payoffs, F(0)) for z in game.terminals}
    return {z.terminal_id: z.payoffs[player] for z in game.terminals}


def _profiles(game):
    """Every pure profile, in the solver's column order."""
    return [PureProfile(combo) for combo in
            itertools.product(*(enumerate_pure(game, i) for i in range(game.n)))]


def _oracle_program_value(game, objective):
    """The optimum of sum_z c(z) P(z) over the pure-profile simplex with one
    row <= 0 per causal deviation table of the brute-force oracle."""
    profiles = _profiles(game)
    lp = LinearProgram(num_vars=len(profiles))
    lp.add({k: F(1) for k in range(len(profiles))}, "==", F(1))
    for k, p in enumerate(profiles):
        lp.objective[k] = sum(
            (objective.get(z.terminal_id, F(0)) * z.chance_reach for z in game.terminals
             if all(pure_terminal_reach(game, ps, z) for ps in p.strategies)), F(0))
    for i in range(game.n):
        for phi in deviation_tables(game, i):
            if not is_causal(game, i, phi):
                continue
            outs = phi.as_dict()
            row = {}
            for k, p in enumerate(profiles):
                strategies = list(p.strategies)
                strategies[i] = outs[p.strategies[i]]
                swing = pure_utility(game, PureProfile(tuple(strategies)), i) \
                    - pure_utility(game, p, i)
                if swing != 0:
                    row[k] = swing
            if row:
                lp.add(row, "<=", F(0))
    result = lp_solve(lp)
    assert result.status == "optimal"
    return result.value


def test_optimal_value_equals_the_oracle_program(lrr):
    # the definitional program: every causal table as its own row
    assert optimal_efce(lrr, u_objective(lrr, 0))[1] == \
        _oracle_program_value(lrr, u_objective(lrr, 0)) == 2
    rng = random.Random(97)
    for _ in range(30):
        game = random_game(rng, max_players=2, max_nodes=10, max_depth=3,
                           max_pure_product=16, max_pure_per_player=4)
        c = random_objective(rng, game)
        assert optimal_efce(game, c)[1] == _oracle_program_value(game, c)


def test_positive_epsilon_solves_verify():
    # a causal deviation may fire several incomparable triggers at once, and
    # their swings add up; rows that bound each trigger's swing alone by
    # epsilon admit profiles above it here (draw 79 at 1/4, 266 at both)
    rng = random.Random(3)
    for _ in range(300):
        game = random_game(rng, max_players=2, max_nodes=20, max_pure_product=64,
                           max_pure_per_player=16)
        for eps in (F(1, 4), F(1, 2)):
            assert gap(game, compute_efce(game, eps), "efce").overall <= eps


def test_compute_efce_fixtures(ebos, lrr, surj):
    for game in (ebos, lrr, surj):
        pi = compute_efce(game)
        assert gap(game, pi, "efce").overall == 0


def test_compute_efce_epsilon_relaxation(lrr):
    pi = compute_efce(lrr, epsilon=F(1, 5))
    assert gap(lrr, pi, "efce").overall <= F(1, 5)


def test_point_mass_ll_verifies_for_lrr(lrr):
    from gametree import pure_mixture, pure_strategy
    from gametree.strategy import PureProfile
    pi = pure_mixture(lrr, [(F(1), PureProfile(
        (pure_strategy(lrr, 0, {"R0": "L", "B": "L'"}),)))])
    assert gap(lrr, pi, "efce").overall == 0


def test_surj_equilibria_exit_on_path(surj):
    coop = surj.infoset(1, "CoopChoice")
    for pi in (compute_efce(surj), compute_bce(surj)):
        for _w, p in profile_support(pi):
            assert p.strategies[1].action_at(coop.index) == "E"


def test_optimal_efce_lrr_maximizes_player_utility(lrr):
    pi, value = optimal_efce(lrr, u_objective(lrr, 0))
    assert value == 2
    assert expected_utility(lrr, pi, 0) == 2


def test_optimal_efce_constant_objective(lrr):
    pi, value = optimal_efce(lrr, {z.terminal_id: F(3) for z in lrr.terminals})
    assert value == 3


def test_optimal_efce_ebos_welfare(ebos):
    # coordinated upgrading is incentive-compatible and worth 5 = 3 + 2
    pi, value = optimal_efce(ebos, u_objective(ebos))
    assert value == 5
    assert gap(ebos, pi, "efce").overall == 0


def test_compute_bce_fixtures(ebos, lrr, surj):
    for game in (ebos, lrr, surj):
        pi = compute_bce(game)
        assert gap(game, pi, "bce").overall == 0


def test_optimal_bce_matches_optimal_efce_value(ebos, lrr, surj):
    for game in (ebos, lrr, surj):
        c = u_objective(game)
        pi_e, ve = optimal_efce(game, c)
        pi_b, vb = optimal_bce(game, c)
        assert ve == vb
        assert gap(game, pi_b, "bce").overall == 0
        assert outcome_equivalent(game, pi_e, pi_b)


def test_optimal_value_dominates_sampled_equilibria(lrr, ebos):
    # every sampled profile that verifies at gap 0 scores no better
    from gametree import outcome_distribution
    from gametree.randgen import random_pure_profile_mixture
    rng = random.Random(31)
    for game in (lrr, ebos):
        c = u_objective(game)
        _pi, best = optimal_efce(game, c)
        hits = 0
        for _ in range(30):
            pi = random_mixture(rng, game) if rng.random() < 0.5 \
                else random_pure_profile_mixture(rng, game)
            if gap(game, pi, "efce").overall == 0:
                hits += 1
                probs = outcome_distribution(game, pi).probs
                score = sum((c.get(zid, F(0)) * p for zid, p in probs.items()), F(0))
                assert score <= best
        assert hits > 0  # the sample must actually exercise the bound


def test_profile_cap_refusal(ebos):
    with pytest.raises(ResourceGuardError):
        compute_efce(ebos, profile_cap=5)


def test_profile_cap_admits_a_game_at_the_cap(ebos):
    # the cap bounds the pure profiles from above: a game with exactly that
    # many solves, one more refuses
    profiles = 1
    for isets in ebos.infosets:
        for iset in isets:
            profiles *= len(iset.actions)
    assert gap(ebos, compute_efce(ebos, profile_cap=profiles), "efce").overall == 0
    with pytest.raises(ResourceGuardError, match=f"more than {profiles - 1} pure profiles"):
        compute_efce(ebos, profile_cap=profiles - 1)


def test_profile_cap_refuses_before_enumerating(plan_chain_text, strategy_guard):
    # one player alone exceeds the cap: the action counts refuse the game
    # before a single plan is built
    game = parse_game(plan_chain_text)
    with pytest.raises(ResourceGuardError, match="more than 50000 pure profiles"):
        compute_efce(game)
    assert strategy_guard == [0]


def test_random_games_solve_and_verify():
    rng = random.Random(50)
    for _ in range(10):
        game = random_game(rng, max_nodes=16, max_pure_product=64)
        pi = compute_efce(game)
        assert gap(game, pi, "efce").overall == 0
        c = random_objective(rng, game)
        pi_e, ve = optimal_efce(game, c)
        pi_b, vb = optimal_bce(game, c)
        assert ve == vb


def test_optimal_efce_zero_objective(lrr):
    _pi, value = optimal_efce(lrr, {})
    assert value == 0


def test_optimal_bce_lrr_player_objective(lrr):
    _pi, value = optimal_bce(lrr, u_objective(lrr, 0))
    assert value == 2


def _table_games():
    rng = random.Random(1515)
    games = [fixtures.load_game(name) for name in fixtures.GAMES]
    games += [random_game(rng, max_players=3, max_nodes=30, max_pure_product=96,
                          max_pure_per_player=24) for _ in range(30)]
    return rng, games


def test_payoff_table_matches_the_oracle():
    # each entry over its scale is the Fraction walk's value: a player's
    # utility over game.payoff_rows[i][0], the objective over its own scale
    rng, games = _table_games()
    for game in games:
        objective = random_objective(rng, game)
        obj_scale, obj_row = equilibrium._objective_row(game, objective)
        rows = [row for _scale, row in game.payoff_rows] + [obj_row]
        table = equilibrium._payoff_table(game, rows)
        profiles = _profiles(game)
        strategies = equilibrium._strategies(game, equilibrium.DEFAULT_PROFILE_CAP)
        assert len(table) == len(profiles)
        for j, (entry, profile) in enumerate(zip(table, profiles)):
            assert equilibrium._profile(strategies, j) == profile
            for i in range(game.n):
                assert F(entry[i], game.payoff_rows[i][0]) == pure_utility(game, profile, i)
            assert F(entry[-1], obj_scale) == _play_from(
                game.root, profile, lambda z: objective.get(z.terminal_id, F(0)))


def test_witness_rows_match_the_swapped_profiles():
    # the mixed-radix row equals the swing read off the rebuilt profiles,
    # in ints over the deviator's scale
    rng, games = _table_games()
    rows = 0
    for game in games:
        profiles = _profiles(game)
        strategies = equilibrium._strategies(game, equilibrium.DEFAULT_PROFILE_CAP)
        table = equilibrium._payoff_table(game, [row for _s, row in game.payoff_rows])
        for _ in range(3):
            witness = gap(game, random_mixture(rng, game), "efce").witness
            i = witness.player
            got = equilibrium._witness_row(game, witness, strategies, table)
            want = {}
            for j, profile in enumerate(profiles):
                moved = list(profile.strategies)
                moved[i] = witness.apply(game, moved[i])
                swing = pure_utility(game, PureProfile(tuple(moved)), i) \
                    - pure_utility(game, profile, i)
                if swing:
                    want[j] = swing * game.payoff_rows[i][0]
            assert got == want
            rows += bool(got)
    assert rows > 20


def test_a_witness_outside_the_enumeration_is_an_internal_error(lrr):
    class Stray:
        player = 0

        def apply(self, game, ps):
            return PureStrategy(0, ("nowhere",) * len(ps.actions))

    strategies = equilibrium._strategies(lrr, equilibrium.DEFAULT_PROFILE_CAP)
    table = equilibrium._payoff_table(lrr, [row for _s, row in lrr.payoff_rows])
    with pytest.raises(InternalCheckError, match="outside the enumeration"):
        equilibrium._witness_row(lrr, Stray(), strategies, table)


@pytest.mark.parametrize("solver", [optimal_efce, optimal_bce])
def test_an_objective_naming_no_terminal_is_refused(lrr, solver):
    # the first unknown id in the objective's order is named; no zero
    # objective is optimized in its place
    with pytest.raises(KeyError, match="no terminal 'nope'"):
        solver(lrr, {"L": F(1), "nope": F(1), "zap": F(2)})
    # checked before the rule that bce takes no epsilon
    with pytest.raises(KeyError, match="no terminal 'zap'"):
        equilibrium._solve(lrr, "bce", F(1, 4), {"zap": F(1)})


def _solver_test_games():
    """``(game, objective)`` for the games the solver tests draw: the
    fixtures, the draws of this file's solver tests and the solver family of
    ``tests/test_lp.py``, each with the objective its test draws (None where
    it draws none)."""
    cases = [(fixtures.load_game(name), None) for name in fixtures.GAMES]
    rng = random.Random(97)
    for _ in range(30):
        game = random_game(rng, max_players=2, max_nodes=10, max_depth=3,
                           max_pure_product=16, max_pure_per_player=4)
        cases.append((game, random_objective(rng, game)))
    rng = random.Random(3)
    cases += [(random_game(rng, max_players=2, max_nodes=20, max_pure_product=64,
                           max_pure_per_player=16), None) for _ in range(300)]
    rng = random.Random(50)
    for _ in range(10):
        game = random_game(rng, max_nodes=16, max_pure_product=64)
        cases.append((game, random_objective(rng, game)))
    rng = random.Random(9)
    games = [random_game(rng, max_players=3, max_nodes=20, max_pure_product=64,
                         max_pure_per_player=16) for _ in range(32)]
    cases += [(game, random_objective(rng, game)) for game in games for _ in range(2)]
    return cases


def _first_round(costs):
    """What ``lp_solve`` returns for the first round's program: the sum row
    alone, with ``costs`` as the objective, built as the solver builds it."""
    lp = LinearProgram(num_vars=len(costs))
    lp.add({j: 1 for j in range(len(costs))}, "==", F(1))
    lp.objective = {j: c for j, c in enumerate(costs) if c != 0}
    result = lp_solve(lp)
    assert result.status == "optimal"
    return result.x, result.value


def test_the_first_candidate_is_the_vertex_lp_solve_returns():
    # the closed-form first round equals lp_solve on the one-row program,
    # x and value, with no objective, the drawn one, welfare, a constant
    # (every cost tied), -1 everywhere (tied and negative) and distinct
    # negative costs
    kinds = set()
    for game, drawn in _solver_test_games():
        objectives = [drawn, u_objective(game),
                      {z.terminal_id: F(3) for z in game.terminals},
                      {z.terminal_id: F(-1) for z in game.terminals},
                      {z.terminal_id: F(-1 - z.index, 1 + z.index % 3)
                       for z in game.terminals}]
        for objective in [None] + [c for c in objectives if c is not None]:
            if objective is None:
                costs = [0] * len(equilibrium._payoff_table(game, []))
            else:
                _scale, row = equilibrium._objective_row(game, objective)
                costs = [v[0] for v in equilibrium._payoff_table(game, [row])]
            x, value = equilibrium._first_vertex(costs)
            assert (tuple(x), value) == _first_round(costs)
            kinds.add("tied" if costs.count(value) > 1 else "unique")
            kinds.add("negative" if value < 0 else "nonnegative")
    rng = random.Random(21)
    for _ in range(400):
        lo = rng.choice((-5, -3))
        costs = [rng.randint(lo, rng.choice((-1, 3))) for _ in range(rng.randint(1, 40))]
        x, value = equilibrium._first_vertex(costs)
        assert (tuple(x), value) == _first_round(costs)
    assert kinds == {"tied", "unique", "negative", "nonnegative"}
