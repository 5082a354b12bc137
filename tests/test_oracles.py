import random
from fractions import Fraction

import pytest

from gametree import (ResourceGuardError, brute_force_gap, enumerate_pure,
                      gap, is_behavioral, is_causal, profile_support,
                      pure_strategy)
from gametree.metrics import NOTIONS, counterfactual_utility, pure_utility
from gametree.oracles import DeviationTable, deviation_tables, oracle_player_gap
from gametree.randgen import (random_game, random_mixture,
                              random_pure_profile_mixture)
from gametree.strategy import PureProfile

F = Fraction


def table_from(game, player, fn):
    xs = enumerate_pure(game, player)
    return DeviationTable(player, tuple((x, fn(x)) for x in xs))


def test_enumerate_pure_lrr(lrr):
    xs = enumerate_pure(lrr, 0)
    assert [x.actions for x in xs] == [
        ("L", "L'"), ("L", "R'"), ("R", "L'"), ("R", "R'")]


def test_enumerate_pure_ebos_p2(ebos):
    assert [x.actions for x in enumerate_pure(ebos, 1)] == [("X2",), ("Y2",)]


def test_enumerate_pure_single_action_player():
    import json
    from gametree import parse_game
    g = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "i", "actions": [
            {"label": "only", "child": {"kind": "terminal", "payoffs": ["0"]}}]}}))
    assert len(enumerate_pure(g, 0)) == 1


def test_enumerate_pure_cap(ebos):
    with pytest.raises(ResourceGuardError):
        enumerate_pure(ebos, 0, cap=7)
    # B decides nowhere and so has one plan, the empty one: a cap below 1
    # refuses it, as a cap below 2 refuses A's two
    import json
    from gametree import parse_game
    g = parse_game(json.dumps({"players": ["A", "B"], "root": {
        "kind": "decision", "player": 0, "infoset": "i", "actions": [
            {"label": a, "child": {"kind": "terminal", "payoffs": ["0", "0"]}}
            for a in ("x", "y")]}}))
    assert [x.actions for x in enumerate_pure(g, "B", cap=1)] == [()]
    for cap in (0, -5):
        with pytest.raises(ResourceGuardError, match=f"B has more than {cap} pure"):
            enumerate_pure(g, "B", cap=cap)
    with pytest.raises(ResourceGuardError, match="A has more than 1 pure"):
        enumerate_pure(g, "A", cap=1)


def test_constant_maps_are_causal(lrr):
    xs = enumerate_pure(lrr, 0)
    const = table_from(lrr, 0, lambda x: xs[0])
    assert is_causal(lrr, 0, const) and is_behavioral(lrr, 0, const)


def test_identity_is_behavioral_and_causal_up_to_realization(lrr):
    # Literally, the identity is not measurable with respect to reach
    # indicators: at an infoset the recommendation never reaches, all
    # indicators are 0 while the local action still varies. Rewriting those
    # inert actions canonically yields a causal table with identical play.
    ident = table_from(lrr, 0, lambda x: x)
    assert is_behavioral(lrr, 0, ident)
    assert not is_causal(lrr, 0, ident)

    def canonical(x):
        if x.actions[0] == "L":  # B is unreached; pin its action
            return pure_strategy(lrr, 0, {"R0": "L", "B": "L'"})
        return x
    folded = table_from(lrr, 0, canonical)
    assert is_causal(lrr, 0, folded)
    from gametree.strategy import sequence_form
    for x, y in folded.table:
        assert sequence_form(lrr, x).reach == sequence_form(lrr, y).reach


def test_reach_dependent_root_output_is_not_causal(lrr):
    # (L,R') and (L,L') share every reach indicator, so their root outputs
    # must agree under the causal conditioning; this table splits them
    def fn(x):
        if x.actions == ("L", "L'"):
            return pure_strategy(lrr, 0, {"R0": "R", "B": "L'"})
        return x
    t = table_from(lrr, 0, fn)
    assert not is_causal(lrr, 0, t)


def test_copy_root_letter_at_b_is_behavioral(lrr):
    # plays L' at B whenever the root recommendation was L, even though the
    # recommendation then never reaches B
    def fn(x):
        b_action = "L'" if x.actions[0] == "L" else "R'"
        return pure_strategy(lrr, 0, {"R0": x.actions[0], "B": b_action})
    t = table_from(lrr, 0, fn)
    assert is_behavioral(lrr, 0, t)


def test_incomparable_conditioning_is_not_behavioral(surj):
    # P2's matching-pennies action may not depend on the exit-subtree
    # recommendation: the two infosets are incomparable
    def fn(x):
        s = x.assignment(surj)
        mp = "H2" if s["SGuess"] == "H2'" else "T2"
        return pure_strategy(surj, 1, {"CoopChoice": s["CoopChoice"],
                                       "MPGuess": mp, "SGuess": s["SGuess"]})
    t = table_from(surj, 1, fn)
    assert not is_behavioral(surj, 1, t)


def test_class_hierarchy_counts_lrr(lrr):
    tables = list(deviation_tables(lrr, 0))
    const = [t for t in tables if len({y for _, y in t.table}) == 1]
    causal = [t for t in tables if is_causal(lrr, 0, t)]
    behavioral = [t for t in tables if is_behavioral(lrr, 0, t)]
    assert len(const) == 4
    assert len(causal) == 32
    assert len(behavioral) == 64
    assert len(tables) == 256
    assert set(map(id, const)) < set(map(id, causal))
    assert all(is_behavioral(lrr, 0, t) for t in causal)


def test_oracle_values_lrr(lrr, lrr_pi):
    g, w, per = oracle_player_gap(lrr, lrr_pi, "bce", 0)
    assert g == 1 and per["B"] == 1
    g, w, _ = oracle_player_gap(lrr, lrr_pi, "efce", 0)
    assert g == F(1, 5)
    # the efce witness really is "on recommendation R, play L"
    mapping = dict(w.mapping)
    rec_r = pure_strategy(lrr, 0, {"R0": "R", "B": "R'"})
    assert mapping[rec_r].actions[0] == "L"


def test_oracle_identity_class_is_zero(lrr, lrr_pi):
    xs = enumerate_pure(lrr, 0)
    base = sum((w * pure_utility(lrr, p, 0) for w, p in profile_support(lrr_pi)), F(0))
    ident = sum((w * pure_utility(lrr, p, 0) for w, p in profile_support(lrr_pi)), F(0))
    assert ident - base == 0


def test_oracle_cap_refusal(ebos, ebos_pi):
    with pytest.raises(ResourceGuardError, match="deviation tables"):
        oracle_player_gap(ebos, ebos_pi, "efce", 0)
    # nfcce never enumerates tables, so it stays feasible
    g, _, _ = oracle_player_gap(ebos, ebos_pi, "nfcce", 0)
    assert g == 0


def test_brute_force_gap_player_subset(ebos, ebos_pi):
    report = brute_force_gap(ebos, ebos_pi, "bce", players=[1])
    assert report.per_player[1] == 0


def test_oracle_maximizer_replays_its_regret(lrr, lrr_pi):
    for notion in ("efce", "full-efce", "nfcce"):
        g, witness, _ = oracle_player_gap(lrr, lrr_pi, notion, 0)
        regret = F(0)
        for w, profile in profile_support(lrr_pi):
            moved = PureProfile((witness.apply(lrr, profile.strategies[0]),))
            regret += w * (pure_utility(lrr, moved, 0) - pure_utility(lrr, profile, 0))
        if notion == "nfcce":
            assert max(regret, F(0)) == g
        else:
            assert regret == g
    g, witness, _ = oracle_player_gap(lrr, lrr_pi, "bce", 0)
    regret = F(0)
    for w, profile in profile_support(lrr_pi):
        moved = PureProfile((witness.apply(lrr, profile.strategies[0]),))
        regret += w * (counterfactual_utility(lrr, moved, 0, witness.at_infoset)
                       - counterfactual_utility(lrr, profile, 0, witness.at_infoset))
    assert regret == g


def test_dp_agrees_with_oracle_on_random_tiny_games():
    # the central anti-bug property: definitions vs dynamic programs
    rng = random.Random(271)
    for k in range(25):
        game = random_game(rng, max_players=2, max_nodes=10, max_depth=3,
                           max_pure_product=16, max_pure_per_player=4)
        pi = random_mixture(rng, game, max_components=2) if k % 2 \
            else random_pure_profile_mixture(rng, game, 2)
        for notion in NOTIONS:
            report = gap(game, pi, notion)
            for i in range(game.n):
                og, _w, oper = oracle_player_gap(game, pi, notion, i)
                assert report.per_player[i] == og, (k, notion, i)
                if notion == "bce":
                    for iset_id, v in oper.items():
                        assert report.per_infoset[(i, iset_id)] == v
