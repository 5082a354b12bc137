import random
from fractions import Fraction

import pytest

from gametree import (ProfileReach, Sequence, counterfactual_best_response,
                      deviation_point, efce_to_bce, gap, outcome_equivalent,
                      outcome_distribution, profile_support, pure_mixture,
                      pure_strategy)
from gametree.metrics import _gap
from gametree.randgen import random_game, random_mixture
from gametree.strategy import PureProfile, pure_reaches_sequence, sequence_form
from gametree.witnesses import HistoryPolicyWitness, TriggerCommitWitness

F = Fraction


def test_cbr_ebos_after_notu(ebos, ebos_pi):
    strategy, value = counterfactual_best_response(
        ebos, ebos_pi, 0, ebos.sequence(0, "Root", "NotU"))
    assert strategy.assignment(ebos) == {"Root": "U", "AfterU": "X1",
                                         "AfterNotU": "X1"}
    assert value == F(3, 2)


def test_cbr_lrr_after_l(lrr, lrr_small):
    strategy, value = counterfactual_best_response(
        lrr, lrr_small, 0, lrr.sequence(0, "R0", "L"))
    assert strategy.assignment(lrr) == {"R0": "L", "B": "L'"}
    assert value == 2


def test_cbr_rejects_another_players_sequence(ebos, ebos_pi):
    with pytest.raises(ValueError, match="is not player"):
        counterfactual_best_response(ebos, ebos_pi, 1, Sequence.empty(0))
    # P1 has no infoset "Event"; the player check comes before that lookup
    with pytest.raises(ValueError, match="is not player"):
        counterfactual_best_response(ebos, ebos_pi, 0, ebos.sequence(1, "Event", "X2"))


def test_cbr_rejects_an_action_the_infoset_lacks(lrr, lrr_small):
    with pytest.raises(KeyError, match="infoset 'R0' has no action 'bogus'"):
        counterfactual_best_response(lrr, lrr_small, 0, Sequence(0, "R0", "bogus"))
    with pytest.raises(KeyError, match="player P1 has no infoset 'nowhere'"):
        counterfactual_best_response(lrr, lrr_small, 0, Sequence(0, "nowhere", "L"))


def test_cbr_all_zero_subtree_ties_lexicographically():
    import json
    from gametree import parse_game
    g = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "top", "actions": [
            {"label": "go", "child": {
                "kind": "decision", "player": 0, "infoset": "mid", "actions": [
                    {"label": "z2", "child": {"kind": "terminal", "payoffs": ["0"]}},
                    {"label": "z1", "child": {"kind": "terminal", "payoffs": ["0"]}}]}},
            {"label": "stop", "child": {"kind": "terminal", "payoffs": ["0"]}}]}}))
    pi = pure_mixture(g, [(F(1), PureProfile(
        (pure_strategy(g, 0, {"top": "stop", "mid": "z2"}),)))])
    strategy, value = counterfactual_best_response(g, pi, 0, g.sequence(0, "top", "go"))
    assert value == 0
    # every response ties at 0, so byte-order first actions win
    assert strategy.assignment(g) == {"top": "go", "mid": "z1"}


def test_cbr_table_covers_every_sequence(ebos, ebos_pi, reference_cbr):
    # every sequence, the empty one included, has a response: the optimum
    # against its conditional law, recomputed by support expansion
    for seq in ebos.sequences(0):
        assert counterfactual_best_response(ebos, ebos_pi, 0, seq) == \
            reference_cbr(ebos, ebos_pi, 0, seq)[:2]
    _strategy, value, mass = reference_cbr(ebos, ebos_pi, 0, Sequence.empty(0))
    assert mass == 1
    assert value == F(3, 2)


def test_cbr_zero_mass_falls_back_to_unconditional(lrr, lrr_small, expanded_conditional_reach,
                                                   reference_cbr):
    # the recommendation never plays B:L', so the event has zero mass and
    # the response is computed against the unconditional law
    seq = lrr.sequence(0, "B", "L'")
    assert expanded_conditional_reach(lrr, lrr_small, 0, seq)[0] == 0
    assert ProfileReach(lrr, lrr_small).event_mass(0, seq) == 0
    ref_strategy, ref_value, mass = reference_cbr(lrr, lrr_small, 0, seq)
    assert mass == 1
    strategy, value = counterfactual_best_response(lrr, lrr_small, 0, seq)
    assert (strategy, value) == (ref_strategy, ref_value)
    assert strategy.assignment(lrr)["B"] == "L'"
    assert value == 1  # value measured at B under the fallback law


def test_deviation_point_lrr(lrr):
    ps = pure_strategy(lrr, 0, {"R0": "L", "B": "R'"})
    dev = deviation_point(lrr, ps, "B")
    assert (dev.infoset, dev.action) == ("R0", "L")
    with pytest.raises(ValueError):
        deviation_point(lrr, pure_strategy(lrr, 0, {"R0": "R", "B": "R'"}), "B")


def test_efce_to_bce_ebos_matches_reference(ebos, ebos_pi):
    out = efce_to_bce(ebos, ebos_pi)
    support = sorted((w, tuple(ps.actions for ps in p.strategies))
                     for w, p in profile_support(out))
    assert support == sorted([
        (F(1, 2), (("NotU", "X1", "X1"), ("X2",))),
        (F(1, 2), (("NotU", "Y1", "X1"), ("Y2",))),
    ])


def test_efce_to_bce_lrr_small_is_fixed_point(lrr, lrr_small):
    out = efce_to_bce(lrr, lrr_small)
    assert out == lrr_small


def test_efce_to_bce_identity_when_everything_on_path():
    import json
    from gametree import parse_game
    g = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "only", "actions": [
            {"label": "a", "child": {"kind": "terminal", "payoffs": ["1"]}},
            {"label": "b", "child": {"kind": "terminal", "payoffs": ["0"]}}]}}))
    pi = pure_mixture(g, [(F(1, 2), PureProfile((pure_strategy(g, 0, {"only": "a"}),))),
                          (F(1, 2), PureProfile((pure_strategy(g, 0, {"only": "b"}),)))])
    assert efce_to_bce(g, pi) == pi


def test_conversion_preserves_structure_and_weights(surj, surj_pi):
    out = efce_to_bce(surj, surj_pi)
    assert len(out.components) == len(surj_pi.components)
    for before, after in zip(surj_pi.components, out.components):
        assert before.alpha == after.alpha
        for mix_b, mix_a in zip(before.strategies, after.strategies):
            assert [b for b, _ in mix_b] == [b for b, _ in mix_a]


def test_conversion_changes_only_off_path_actions(surj, surj_pi):
    out = efce_to_bce(surj, surj_pi)
    for before, after in zip(surj_pi.components, out.components):
        for i, (mix_b, mix_a) in enumerate(zip(before.strategies, after.strategies)):
            for (_, ps_b), (_, ps_a) in zip(mix_b, mix_a):
                # on-path sequence-form reach is identical
                assert sequence_form(surj, ps_b).reach == \
                    sequence_form(surj, ps_a).reach
                for iset in surj.infosets[i]:
                    if pure_reaches_sequence(surj, ps_b, iset.parent_seq):
                        assert ps_b.action_at(iset.index) == ps_a.action_at(iset.index)


def test_conversion_idempotent_up_to_outcome(ebos, ebos_pi, lrr, lrr_small):
    for game, pi in ((ebos, ebos_pi), (lrr, lrr_small)):
        once = efce_to_bce(game, pi)
        twice = efce_to_bce(game, once)
        assert outcome_equivalent(game, once, twice)


def test_conversion_bound_on_random_profiles():
    rng = random.Random(1234)
    for _ in range(15):
        game = random_game(rng, max_nodes=16, max_pure_product=64)
        pi = random_mixture(rng, game)
        eps = gap(game, pi, "efce").overall
        out = efce_to_bce(game, pi)
        assert outcome_equivalent(game, pi, out)
        assert gap(game, out, "bce").overall <= eps


def test_restricted_deviation_ebos_upgrade(ebos, ebos_pi, restricted_deviation_value):
    # "upgrade, then obey" applied from the root loses its edge after the
    # rewrite: the upgraded recommendation is always X1
    converted = efce_to_bce(ebos, ebos_pi)
    policy = []
    for hist in ((("Root", "NotU"),), (("Root", "U"),)):
        policy.append(("Root", hist, "U"))
    witness = HistoryPolicyWitness(0, tuple(policy))
    value = restricted_deviation_value(ebos, converted, 0, witness, "Root")
    assert value <= 0
    # against the original profile the same deviation gains a full point
    assert restricted_deviation_value(ebos, ebos_pi, 0, witness, "Root") == 1


def test_restricted_deviation_identity_is_zero(ebos, ebos_pi, restricted_deviation_value):
    witness = TriggerCommitWitness(0, ())
    assert restricted_deviation_value(ebos, ebos_pi, 0, witness, "Root") == 0


def test_restricted_deviation_lrr_at_b(lrr, lrr_small, restricted_deviation_value):
    converted = efce_to_bce(lrr, lrr_small)
    policy = []
    for root_rec in ("L", "R"):
        for b_rec in ("L'", "R'"):
            policy.append(("B", (("R0", root_rec), ("B", b_rec)), "L'"))
    witness = HistoryPolicyWitness(0, tuple(policy))
    assert restricted_deviation_value(lrr, converted, 0, witness, "B") == F(1, 10)


def test_conversion_keeps_support_conditioning_positive(ebos, ebos_pi):
    # deviation points of support strategies always carry positive mass
    out = efce_to_bce(ebos, ebos_pi)  # the internal assertion would trip otherwise
    assert outcome_distribution(ebos, out).probs["NotU/X1/X2"] == F(1, 2)


def test_cbr_table_values_recompute_from_recorded_reach(ebos, ebos_pi, lrr, lrr_small,
                                                        games_and_profiles, reference_cbr):
    # every response and value is the optimum against the conditional law
    # recomputed by support expansion (the unconditional law at zero mass)
    cases = [(ebos, ebos_pi), (lrr, lrr_small)] + games_and_profiles(38)
    for game, pi in cases:
        reach = ProfileReach(game, pi)
        for i in range(game.n):
            for seq in game.sequences(i):
                assert counterfactual_best_response(game, reach, i, seq) == \
                    reference_cbr(game, pi, i, seq)[:2]


def test_regret_chain_on_converted_profiles(ebos, ebos_pi, lrr, lrr_pi, lrr_small,
                                            restricted_deviation_value):
    # on a rewritten profile, counterfactual regret at an infoset is bounded
    # by the ordinary regret of the deviation restricted to that infoset's
    # subtree, which in turn is bounded by the source profile's causal gap
    from gametree.metrics import counterfactual_utility
    cases = [(ebos, ebos_pi, efce_to_bce(ebos, ebos_pi)),
             (lrr, lrr_pi, efce_to_bce(lrr, lrr_small))]
    exercised = 0
    for game, source, converted in cases:
        eps = gap(game, source, "efce").overall
        report = gap(game, converted, "bce")
        for i in range(game.n):
            witness = report.witness
            if witness.player != i or witness.at_infoset is None:
                continue
            exercised += 1
            iset_id = witness.at_infoset
            cf_regret = F(0)
            for w, profile in profile_support(converted):
                strategies = list(profile.strategies)
                strategies[i] = witness.apply(game, profile.strategies[i])
                cf_regret += w * (
                    counterfactual_utility(game, PureProfile(tuple(strategies)),
                                           i, iset_id)
                    - counterfactual_utility(game, profile, i, iset_id))
            restricted = restricted_deviation_value(game, converted, i,
                                                    witness, iset_id)
            assert cf_regret <= restricted <= eps
            assert cf_regret == report.per_infoset[(i, iset_id)]
    assert exercised >= 1


def _zero_weight_profiles(rng, count):
    """Seeded 2- and 3-player profiles with a zero-alpha component and a
    zero-beta plan per player, so some deviation points have zero mass."""
    from gametree.randgen import random_pure_strategy
    from gametree.strategy import MixtureComponent, MixtureOfProducts
    out = []
    while len(out) < count:
        game = random_game(rng, max_nodes=30, max_pure_product=512)
        mixes = tuple(tuple((beta, random_pure_strategy(rng, game, i))
                            for beta in (F(1, 3), F(0), F(2, 3)))
                      for i in range(game.n))
        flipped = (mixes[0][::-1],) + mixes[1:]
        out.append((game, MixtureOfProducts((MixtureComponent(F(1, 4), mixes),
                                             MixtureComponent(F(0), flipped),
                                             MixtureComponent(F(3, 4), flipped)))))
    return out


def test_efce_walk_responses_rewrite_exactly(ebos, ebos_pi, lrr, lrr_pi, lrr_small,
                                             surj, surj_pi, monkeypatch):
    # the efce walk hands out the best response of exactly the
    # positive-mass sequences; fed those, the rewrite equals the standalone
    # one, and zero-mass deviation points still fall back to _cbr
    from gametree import convert
    rng = random.Random(1616)
    cases = [(ebos, ebos_pi), (lrr, lrr_pi), (lrr, lrr_small), (surj, surj_pi)]
    cases += [(game, random_mixture(rng, game))
              for game in (random_game(rng, max_nodes=30, max_pure_product=512)
                           for _ in range(12))]
    cases += _zero_weight_profiles(rng, 12)
    fallbacks = []
    cbr = convert._cbr

    def counted(reach, units, seq, at):
        fallbacks.append(reach.mass(seq.player, seq))
        return cbr(reach, units, seq, at)

    for game, pi in cases:
        reach = ProfileReach(game, pi)
        responses = _gap(reach, "efce")[1]
        positive = {seq for i in range(game.n) for seq in game.sequences(i)
                    if not seq.is_empty and reach.mass(i, seq) > 0}
        assert set(responses) == positive
        for seq, response in responses.items():
            assert response == counterfactual_best_response(
                game, reach, seq.player, seq)[0]
        with monkeypatch.context() as m:
            m.setattr(convert, "_cbr", counted)
            fed = convert._rewrite(reach, responses)
        assert fed == efce_to_bce(game, pi)
    assert fallbacks and not any(fallbacks)  # the zero-mass fallback ran, and only it


def test_gt_convert_takes_positive_mass_responses_from_the_efce_walk(tmp_path,
                                                                      monkeypatch, capsys):
    # on the rewrite benchmark's seed-1 ops, convert calls best_response only
    # through _cbr, and _cbr only at zero-mass deviation points; standalone,
    # the same rewrites compute positive-mass responses themselves
    import pathlib
    from gametree import cli, convert, parse_game, parse_profile
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    import workloads
    ops = workloads.build("rewrite", 1, str(tmp_path)).ops
    assert len(ops) == 130
    calls = {"best_response": 0, "positive": 0, "zero": 0}
    best_response, cbr = convert.best_response, convert._cbr

    def counted_best_response(*args):
        calls["best_response"] += 1
        return best_response(*args)

    def counted_cbr(reach, units, seq, at):
        calls["positive" if reach.mass(seq.player, seq) else "zero"] += 1
        return cbr(reach, units, seq, at)

    monkeypatch.setattr(convert, "best_response", counted_best_response)
    monkeypatch.setattr(convert, "_cbr", counted_cbr)
    for op in ops:
        assert cli.main(list(op.argv)) == 0
    capsys.readouterr()
    assert calls["positive"] == 0
    assert calls["best_response"] == calls["zero"]
    for op in ops[:10]:
        _convert, game_path, profile_path = op.argv
        game = parse_game(pathlib.Path(game_path).read_text())
        efce_to_bce(game, parse_profile(game, pathlib.Path(profile_path).read_text(),
                                        "decompose"))
    assert calls["positive"] > 0
