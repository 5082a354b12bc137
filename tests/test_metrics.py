import json
import random
from fractions import Fraction

import pytest

from gametree import (InternalCheckError, ProfileError, ProfileReach, ResourceGuardError,
                      Sequence, counterfactual_best_response, parse_game, serialize_game,
                      counterfactual_utility, counterfactually_outcome_equivalent,
                      expected_utility, gap, outcome_distribution,
                      outcome_equivalent, profile_support, pure_mixture,
                      pure_strategy)
from gametree.metrics import (NOTIONS, _StateBudget, _cf_reach_profiles, _history_table,
                              _payoff_units, _support_steps, _trigger_weights,
                              conditional_node_utility, pure_utility)
from gametree.randgen import random_game, random_mixture, random_pure_profile_mixture
from gametree.strategy import (MixtureComponent, MixtureOfProducts, PureProfile,
                               PureStrategy, pure_reaches_sequence, pure_terminal_reach,
                               sequence_form)
from gametree.convert import deviation_point, efce_to_bce
from gametree.errors import InvalidGameError
from gametree.witnesses import recommendation_history

F = Fraction


def point_mass(game, assignments):
    profile = PureProfile(tuple(
        pure_strategy(game, i, assignments[i]) for i in range(game.n)))
    return pure_mixture(game, [(F(1), profile)])


# -- expected utility and outcomes -------------------------------------------


def test_expected_utility_ebos(ebos, ebos_pi):
    assert expected_utility(ebos, ebos_pi, 0) == F(3, 2)
    assert expected_utility(ebos, ebos_pi, 1) == F(3, 2)


def test_expected_utility_lrr(lrr, lrr_pi):
    assert expected_utility(lrr, lrr_pi, 0) == F(9, 5)


def test_expected_utility_constant_game():
    g = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "i", "actions": [
            {"label": "a", "child": {"kind": "terminal", "payoffs": ["5/3"]}},
            {"label": "b", "child": {"kind": "terminal", "payoffs": ["5/3"]}}]}}))
    pi = point_mass(g, [{"i": "b"}])
    assert expected_utility(g, pi, 0) == F(5, 3)


def test_outcome_distribution_ebos(ebos, ebos_pi):
    probs = outcome_distribution(ebos, ebos_pi).probs
    assert probs["NotU/X1/X2"] == F(1, 2)
    assert probs["NotU/Y1/Y2"] == F(1, 2)
    assert sum(probs.values()) == 1
    assert sum(1 for p in probs.values() if p) == 2


def test_outcome_distribution_point_mass(lrr):
    probs = outcome_distribution(lrr, point_mass(lrr, [{"R0": "R", "B": "L'"}])).probs
    assert probs == {"L": 0, "R/L'": 1, "R/R'": 0}


def test_outcome_equivalence_lrr(lrr, lrr_pi, lrr_small):
    # the small-support form moves correlation, never outcome mass
    assert outcome_equivalent(lrr, lrr_pi, lrr_small)
    probs = outcome_distribution(lrr, lrr_small).probs
    assert probs == {"L": F(9, 10), "R/L'": 0, "R/R'": F(1, 10)}
    assert not outcome_equivalent(lrr, lrr_pi, point_mass(lrr, [{"R0": "L", "B": "L'"}]))


def test_outcome_equivalent_agrees_with_the_distributions(ebos, ebos_pi, lrr, lrr_pi,
                                                         lrr_small, surj, surj_pi):
    # the int comparison says what comparing the Fraction distributions says,
    # on the fixtures, their rewrites, each split into two half-weight
    # components (the same distribution over a larger scale) and a point
    # mass of each game
    seen = set()
    for game, profiles in ((ebos, [ebos_pi]), (lrr, [lrr_pi, lrr_small]), (surj, [surj_pi])):
        first = {i: {iset.id: iset.actions[0] for iset in game.infosets[i]}
                 for i in range(game.n)}
        profiles = profiles + [efce_to_bce(game, pi) for pi in profiles]
        profiles += [MixtureOfProducts(tuple(MixtureComponent(c.alpha / 2, c.strategies)
                                             for c in pi.components for _ in "ab"))
                     for pi in profiles] + [point_mass(game, first)]
        for a in profiles:
            for b in profiles:
                same = outcome_equivalent(game, a, b)
                assert same == (outcome_distribution(game, a).probs
                                == outcome_distribution(game, b).probs)
                seen.add(same)
    assert seen == {True, False}


def test_outcome_equivalent_ignores_play_below_a_probability_0_chance_move():
    game = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "chance", "actions": [
            {"label": label, "prob": prob, "child": {
                "kind": "decision", "player": 0, "infoset": label, "actions": [
                    {"label": a, "child": {"kind": "terminal", "payoffs": [u]}}
                    for a, u in (("x", "1"), ("y", "0"))]}}
            for label, prob in (("seen", "1"), ("unseen", "0"))]}}))
    a, b, c = (point_mass(game, [{"seen": s, "unseen": u}])
               for s, u in (("x", "x"), ("x", "y"), ("y", "x")))
    assert outcome_equivalent(game, a, b)
    assert outcome_distribution(game, a).probs == outcome_distribution(game, b).probs
    assert not outcome_equivalent(game, a, c)


def test_a_corrupted_joint_fails_the_outcome_check(ebos, ebos_pi, monkeypatch, tmp_path):
    from gametree import fixtures, metrics
    from gametree.cli import main
    init = metrics.ProfileReach.__init__

    def corrupted(self, game, pi):
        init(self, game, pi)
        self.joint[:] = [j + 1 for j in self.joint]  # adds the chance row's sum

    monkeypatch.setattr(metrics.ProfileReach, "__init__", corrupted)
    with pytest.raises(InternalCheckError, match="outcome probabilities sum to"):
        outcome_distribution(ebos, ebos_pi)
    with pytest.raises(InternalCheckError, match="outcome probabilities sum to"):
        outcome_equivalent(ebos, ebos_pi, ebos_pi)
    paths = []
    for name in ("ebos.game.json", "ebos.profile.json"):
        paths.append(tmp_path / name)
        paths[-1].write_text(fixtures.fixture_text(name))
    assert main(["convert"] + [str(p) for p in paths]) == 4


# -- counterfactual utility ---------------------------------------------------


def test_counterfactual_utility_lrr_examples(lrr):
    x_lr = PureProfile((pure_strategy(lrr, 0, {"R0": "L", "B": "R'"}),))
    x_ll = PureProfile((pure_strategy(lrr, 0, {"R0": "L", "B": "L'"}),))
    assert counterfactual_utility(lrr, x_lr, 0, "B") == 0
    assert counterfactual_utility(lrr, x_ll, 0, "B") == 1


def test_counterfactual_utility_zero_subtree():
    g = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "top", "actions": [
            {"label": "in", "child": {
                "kind": "decision", "player": 0, "infoset": "deep", "actions": [
                    {"label": "x", "child": {"kind": "terminal", "payoffs": ["0"]}},
                    {"label": "y", "child": {"kind": "terminal", "payoffs": ["0"]}}]}},
            {"label": "out", "child": {"kind": "terminal", "payoffs": ["3"]}}]}}))
    x = PureProfile((pure_strategy(g, 0, {"top": "out", "deep": "x"}),))
    assert counterfactual_utility(g, x, 0, "deep") == 0


def test_counterfactual_at_root_infoset_matches_expected_utility(lrr):
    # single player, no chance: the root infoset is always reached
    rng = random.Random(8)
    for _ in range(20):
        pi = random_mixture(rng, lrr)
        cf = sum((w * counterfactual_utility(lrr, p, 0, "R0")
                  for w, p in profile_support(pi)), F(0))
        assert cf == expected_utility(lrr, pi, 0)


def test_counterfactual_includes_chance(surj, surj_pi):
    # P2's exit value at the coordination infoset carries the 1/2 chance reach
    support = list(profile_support(surj_pi))
    cf = sum((w * counterfactual_utility(surj, p, 1, "CoopChoice")
              for w, p in support), F(0))
    assert cf == 1  # 2 * 1/2


# -- conditional reach --------------------------------------------------------


def _conditional_reach(game, pi, i, seq, expanded):
    """The event mass and per-terminal conditional reach of ``seq`` read off
    the factorized ``ProfileReach`` (``sum_t masses[t][seq] * others[t]``),
    after checking them against the ``expanded`` support sum."""
    reach = ProfileReach(game, pi)
    row = [0] * len(game.terminals)
    for masses, others in zip(reach.masses[i], reach.others[i]):
        for z, o in enumerate(others):
            row[z] += masses.get(seq, 0) * o
    got = reach.event_mass(i, seq), tuple(F(r, reach.scale) for r in row)
    assert got == expanded(game, pi, i, seq)
    return got


def test_conditional_reach_ebos_after_notu(ebos, ebos_pi, expanded_conditional_reach):
    mass, reach = _conditional_reach(ebos, ebos_pi, 0, ebos.sequence(0, "Root", "NotU"),
                                     expanded_conditional_reach)
    assert mass == 1
    for z in ebos.terminals:
        want = F(1, 2)  # each terminal sits under exactly one of X2/Y2
        assert reach[z.index] == want


def test_conditional_reach_lrr_small(lrr, lrr_small, expanded_conditional_reach):
    mass, reach = _conditional_reach(lrr, lrr_small, 0, lrr.sequence(0, "R0", "R"),
                                     expanded_conditional_reach)
    assert mass == F(1, 10)
    for z in lrr.terminals:
        if z.terminal_id.startswith("R/"):
            assert reach[z.index] == F(1, 10)


def test_conditional_reach_empty_sequence_mass_one(ebos, ebos_pi, lrr, lrr_pi,
                                                   expanded_conditional_reach):
    for game, pi in ((ebos, ebos_pi), (lrr, lrr_pi)):
        for i in range(game.n):
            mass, _reach = _conditional_reach(game, pi, i, Sequence.empty(i),
                                              expanded_conditional_reach)
            assert mass == 1


def test_conditional_reach_bounded_by_mass(surj, surj_pi, expanded_conditional_reach):
    for i in range(surj.n):
        for seq in surj.sequences(i):
            mass, reach = _conditional_reach(surj, surj_pi, i, seq,
                                             expanded_conditional_reach)
            assert 0 <= mass <= 1
            assert all(0 <= r <= mass for r in reach)


def test_conditional_reach_unknown_infoset_raises(lrr, lrr_pi):
    # conditioning on a sequence of an infoset the player does not have
    with pytest.raises(KeyError, match="nope"):
        counterfactual_best_response(lrr, lrr_pi, 0, Sequence(0, "nope", "x"))


# -- gaps ----------------------------------------------------------------------


def test_gap_values_ebos(ebos, ebos_pi):
    assert gap(ebos, ebos_pi, "efce").overall == 0
    report = gap(ebos, ebos_pi, "bce")
    assert report.overall == 1
    assert report.per_player == (F(1), F(0))
    assert report.per_infoset[(0, "Root")] == 1
    assert report.per_infoset[(1, "Event")] == 0


def test_gap_values_lrr(lrr, lrr_pi, lrr_small):
    assert gap(lrr, lrr_pi, "efce").overall == F(1, 5)
    assert gap(lrr, lrr_pi, "bce").overall == 1
    assert gap(lrr, lrr_pi, "bce").per_infoset[(0, "B")] == 1
    converted = efce_to_bce(lrr, lrr_small)
    report = gap(lrr, converted, "bce")
    assert report.per_infoset[(0, "B")] == F(1, 10)
    assert report.overall == F(1, 5)  # the root deviation dominates


def test_gap_witness_lrr_efce(lrr, lrr_pi):
    w = gap(lrr, lrr_pi, "efce").witness
    doc = w.to_json_dict(lrr)
    assert doc["kind"] == "trigger-commit"
    assert doc["commits"] == [{"trigger": "R0:R",
                               "continuation": {"R0": "L", "B": "L'"}}]


def _deep_history_cases(notion):
    """Seeded games with own chains of depth >= 3, where one state's value
    feeds the gap of every infoset on its chain, and a positive gap."""
    rng = random.Random(15)
    cases = []
    for _ in range(40):
        game = random_game(rng, max_players=2, max_nodes=24, max_depth=6,
                           max_pure_product=256)
        pi = random_mixture(rng, game)
        if any(len(iset.chain) >= 2 for isets in game.infosets for iset in isets):
            report = gap(game, pi, notion)
            if report.overall > 0:
                cases.append((game, pi, report))
    assert len(cases) >= 10
    return cases


def _acts_deep(report) -> bool:
    return any(len(hist) >= 3 for _, hist, _ in report.witness.policy)


def test_gap_witness_replays_to_the_reported_gap(lrr, lrr_pi, ebos, ebos_pi, replayed_regret):
    # applying the serialized deviation recovers the gap independently
    cases = [(game, pi, gap(game, pi, notion))
             for game, pi, notion in ((lrr, lrr_pi, "efce"), (lrr, lrr_pi, "nfcce"),
                                      (ebos, ebos_pi, "full-efce"))]
    deep = _deep_history_cases("full-efce")
    for game, pi, report in cases + deep:
        regret = replayed_regret(game, pi, report.witness, pure_utility)
        assert regret == report.per_player[report.witness.player]
    assert sum(_acts_deep(report) for _, _, report in deep) >= 5


def test_gap_bce_witness_replays_counterfactually(lrr, lrr_pi, replayed_regret):
    report = gap(lrr, lrr_pi, "bce")
    assert report.witness.at_infoset == "B"
    assert report.overall == 1
    deep = _deep_history_cases("bce")
    for game, pi, report in [(lrr, lrr_pi, report)] + deep:
        w = report.witness
        regret = replayed_regret(
            game, pi, w, lambda g, p, i: counterfactual_utility(g, p, i, w.at_infoset))
        assert regret == report.per_infoset[(w.player, w.at_infoset)]
        assert regret == report.per_player[w.player] == report.overall
    assert sum(_acts_deep(report) for _, _, report in deep) >= 5


def test_gap_bce_witness_lists_states_in_support_order():
    # the witness infoset's states appear in the order their histories first
    # arrive there along the support
    def arrives(game, profile, iset):
        mine = profile.strategies[iset.player]
        others = [ps for ps in profile.strategies if ps.player != iset.player]
        offset = len(iset.chain)
        return any(game.terminals[z].chance_reach
                   and pure_terminal_reach(game, mine, game.terminals[z], offset)
                   and all(pure_terminal_reach(game, ps, game.terminals[z]) for ps in others)
                   for z in iset.terminals_below)

    for game, pi, report in _deep_history_cases("bce"):
        w = report.witness
        iset = game.infoset(w.player, w.at_infoset)
        first = []
        for _, profile in profile_support(pi):
            hist = recommendation_history(game, profile.strategies[w.player], iset)
            if hist not in first and arrives(game, profile, iset):
                first.append(hist)
        assert [hist for j, hist, _ in w.policy if j == iset.id] == first


def test_gap_nonnegative_all_notions(ebos, ebos_pi, lrr, lrr_pi, surj, surj_pi):
    rng = random.Random(12)
    cases = [(ebos, ebos_pi), (lrr, lrr_pi), (surj, surj_pi)]
    for _ in range(6):
        g = random_game(rng, max_nodes=14, max_pure_product=64)
        cases.append((g, random_mixture(rng, g)))
    for game, pi in cases:
        for notion in NOTIONS:
            report = gap(game, pi, notion)
            assert report.overall >= 0
            assert all(g >= 0 for g in report.per_player)
            assert report.overall == max(report.per_player)


def test_gap_efce_bounded_by_full_efce(ebos, ebos_pi, lrr, lrr_pi):
    rng = random.Random(13)
    cases = [(ebos, ebos_pi), (lrr, lrr_pi)]
    for _ in range(10):
        g = random_game(rng, max_nodes=12, max_pure_product=48)
        cases.append((g, random_pure_profile_mixture(rng, g)))
    for game, pi in cases:
        assert gap(game, pi, "efce").overall <= gap(game, pi, "full-efce").overall


def test_efce_walk_never_commits_at_the_root():
    # the root's commit is dominated (see metrics._efce), so no efce
    # witness commits at the empty sequence, and the best plan against the
    # whole profile, the nfcce deviation, is worth no more than the walk
    rng = random.Random(12345)
    for k in range(60):
        game = random_game(rng, max_players=3, max_nodes=30, max_depth=5,
                           max_pure_product=200, max_pure_per_player=40)
        pi = (random_pure_profile_mixture if k % 2 else random_mixture)(rng, game)
        efce, nfcce = gap(game, pi, "efce"), gap(game, pi, "nfcce")
        assert not any(seq.is_empty for seq, _ in efce.witness.commits)
        assert all(n <= e for n, e in zip(nfcce.per_player, efce.per_player))


def test_gap_unknown_notion(lrr, lrr_pi):
    with pytest.raises(ValueError, match="notion"):
        gap(lrr, lrr_pi, "nash")


def test_gap_state_cap_refuses(ebos, ebos_pi, lrr, lrr_pi, surj, surj_pi):
    # the cap counts distinct (infoset, history) states, the same for both
    # history notions: each state is valued once
    for game, pi, states in ((ebos, ebos_pi, 7), (lrr, lrr_pi, 4), (surj, surj_pi, 7)):
        for notion in ("bce", "full-efce"):
            gap(game, pi, notion, state_cap=states)
            with pytest.raises(ResourceGuardError, match="GT_STATE_CAP"):
                gap(game, pi, notion, state_cap=states - 1)


def test_a_zero_state_cap_admits_a_game_without_states(surj, surj_pi, monkeypatch):
    # a cap of 0 is a cap, not a defect: a game whose players never act has
    # no history state to spend it on, and elsewhere the first state refuses
    game = parse_game(json.dumps({"players": ["A", "B"], "root": {
        "kind": "chance", "actions": [
            {"label": "l", "prob": "1/2", "child": {"kind": "terminal", "payoffs": ["1", "0"]}},
            {"label": "r", "prob": "1/2", "child": {"kind": "terminal", "payoffs": ["0", "1"]}},
        ]}}))
    pi = MixtureOfProducts((MixtureComponent(F(1), tuple(
        ((F(1), PureStrategy(i, ())),) for i in range(2))),))
    monkeypatch.setenv("GT_STATE_CAP", "0")  # read where state_cap= is None
    for notion in ("bce", "full-efce"):
        for cap in (0, None):
            assert gap(game, pi, notion, state_cap=cap).overall == 0
            with pytest.raises(ResourceGuardError, match="exceeded the cap of 0"):
                gap(surj, surj_pi, notion, state_cap=cap)


def test_a_zero_beta_first_plan_leaves_the_history_gaps_alone():
    # one player meets I or J by chance. The second component lists a beta-0
    # plan first, which shifts the support ranks of its plans but adds no
    # support element, so each report, witness order included, is the report
    # without that plan; ranked from the shifted plan instead, the second
    # component's states would be met before the first component's J:x
    def choice(infoset, *payoffs):
        return {"kind": "decision", "player": 0, "infoset": infoset, "actions": [
            {"label": label, "child": {"kind": "terminal", "payoffs": [u]}}
            for label, u in zip(("x", "y"), payoffs)]}

    game = parse_game(json.dumps({"players": ["A"], "root": {"kind": "chance", "actions": [
        {"label": "l", "prob": "1/2", "child": choice("I", "1", "2")},
        {"label": "r", "prob": "1/2", "child": choice("J", "3", "1")}]}}))

    def mixture(*mixes):
        return MixtureOfProducts(tuple(
            MixtureComponent(F(1, 2), (tuple((F(beta), PureStrategy(0, plan))
                                             for beta, plan in mix),))
            for mix in mixes))

    first = [(1, ("x", "x"))]
    second = [("1/2", ("y", "y")), ("1/2", ("x", "y"))]
    padded = mixture(first, [(0, ("x", "x"))] + second)
    for notion in ("bce", "full-efce"):
        assert gap(game, padded, notion) == gap(game, mixture(first, second), notion)
    # a walk through the support meets I:x and J:x in the first component,
    # then I:y and J:y in the second
    assert [(infoset, history) for infoset, history, _a in
            gap(game, padded, "full-efce").witness.policy] == [
        ("I", (("I", "x"),)), ("J", (("J", "x"),)),
        ("I", (("I", "y"),)), ("J", (("J", "y"),))]


def test_bce_zero_implies_efce_zero(ebos, lrr, surj):
    # observed refinement on every solved equilibrium, asserted empirically
    from gametree import compute_bce
    rng = random.Random(14)
    games = [ebos, lrr, surj] + [random_game(rng, max_nodes=12, max_pure_product=48)
                                 for _ in range(5)]
    for game in games:
        pi = compute_bce(game)
        assert gap(game, pi, "bce").overall == 0
        assert gap(game, pi, "efce").overall == 0


# -- equivalences --------------------------------------------------------------


def test_counterfactual_equivalence_reflexive(lrr, lrr_pi, ebos, ebos_pi):
    assert counterfactually_outcome_equivalent(lrr, lrr_pi, lrr_pi)
    assert counterfactually_outcome_equivalent(ebos, ebos_pi, ebos_pi)


def test_counterfactual_equivalence_separates_lrr(lrr, lrr_small):
    base = point_mass(lrr, [{"R0": "L", "B": "R'"}])
    # outcome-equivalent is weaker: both put 9/10 on L only when mixed; here
    # the pure strategy differs at B's counterfactual reach (0 vs 9/10)
    assert not counterfactually_outcome_equivalent(lrr, base, lrr_small)


def test_counterfactual_equivalence_sees_pure_reach_differences(lrr):
    # same outcomes, different counterfactual reach at B
    a = point_mass(lrr, [{"R0": "L", "B": "R'"}])
    b = point_mass(lrr, [{"R0": "L", "B": "L'"}])
    assert outcome_equivalent(lrr, a, b)
    assert not counterfactually_outcome_equivalent(lrr, a, b)


def test_conditional_node_utility_surj(surj, surj_pi):
    assert conditional_node_utility(surj, surj_pi, 0, ("Coop", "P")) == 1
    assert conditional_node_utility(surj, surj_pi, 1, ("Coop", "P")) == 1


def test_conditional_node_utility_unknown_action(surj, surj_pi):
    with pytest.raises(KeyError, match="no action 'nope' at node \\."):
        conditional_node_utility(surj, surj_pi, 0, ["nope"])


def test_gap_state_cap_env_override(surj, surj_pi, monkeypatch):
    monkeypatch.setenv("GT_STATE_CAP", "2")
    with pytest.raises(ResourceGuardError):
        gap(surj, surj_pi, "bce")
    monkeypatch.setenv("GT_STATE_CAP", "100000")
    assert gap(surj, surj_pi, "bce").overall == 0


def test_gap_state_cap_must_be_a_nonnegative_integer(surj, surj_pi, monkeypatch):
    # a negative state_cap= is refused as a bad GT_STATE_CAP is (see
    # tests/test_cli.py); a given cap leaves the variable unread, and the
    # notions without history states read neither
    monkeypatch.setenv("GT_STATE_CAP", "1e6")
    for notion in ("bce", "full-efce"):
        with pytest.raises(ValueError, match="GT_STATE_CAP or state_cap=.*got -1"):
            gap(surj, surj_pi, notion, state_cap=-1)
        assert gap(surj, surj_pi, notion, state_cap=100_000).overall == 0
    for notion in ("efce", "nfcce"):
        assert gap(surj, surj_pi, notion, state_cap=-1).notion == notion


# -- the factorized profile reach against support expansion --------------------


def test_profile_reach_masses_and_rows_match_support_expansion(games_and_profiles):
    for game, pi in games_and_profiles(31):
        # the tables hold ints over their stated scales
        reach = ProfileReach(game, pi)
        live = [c for c in pi.components if c.alpha != 0]
        assert [F(a, reach.alpha_den) for a in reach.alphas] == [c.alpha for c in live]
        support = list(profile_support(pi))
        for i in range(game.n):
            assert len(reach.masses[i]) == len(live)
            for masses, comp in zip(reach.masses[i], live):
                # a plan reaches z exactly when it reaches z's last own sequence
                assert [F(masses.get(z.last_seq[i], 0), reach.den[i])
                        for z in game.terminals] == [
                    sum((beta for beta, ps in comp.strategies[i]
                         if pure_terminal_reach(game, ps, z)), F(0))
                    for z in game.terminals]
            for seq in game.sequences(i):
                for masses, comp in zip(reach.masses[i], live):
                    want = sum((beta for beta, ps in comp.strategies[i]
                                if pure_reaches_sequence(game, ps, seq)), F(0))
                    assert F(masses.get(seq, 0), reach.den[i]) == want
                expanded = sum((w for w, p in support
                                if pure_reaches_sequence(game, p.strategies[i], seq)), F(0))
                assert reach.event_mass(i, seq) == expanded


def test_cf_reach_profile_matches_support_expansion(games_and_profiles):
    for game, pi in games_and_profiles(32):
        reach = ProfileReach(game, pi)
        support = list(profile_support(pi))
        for i in range(game.n):
            got = _cf_reach_profiles(reach, i)
            for iset in game.infosets[i]:
                want = {z_idx: F(0) for z_idx in iset.terminals_below}
                for w, profile in support:
                    for z_idx in iset.terminals_below:
                        z = game.terminals[z_idx]
                        if (pure_terminal_reach(game, profile.strategies[i], z,
                                                len(iset.chain))
                                and all(pure_terminal_reach(game, profile.strategies[j], z)
                                        for j in range(game.n) if j != i)):
                            want[z_idx] += w
                assert {z: F(r, reach.scale) for z, r in got[iset.index].items()} == want


def test_bce_baseline_matches_support_expansion(games_and_profiles):
    # the bce baseline at an infoset: the sum of the obedient values of its
    # states in the player's history table
    for game, pi in games_and_profiles(33):
        reach = ProfileReach(game, pi)
        support = list(profile_support(pi))
        for i in range(game.n):
            _value, _roots, table = _history_table(reach, i, _support_steps(reach),
                                                   _StateBudget(10 ** 6))
            for iset in game.infosets[i]:
                got = sum(entry[4] for (j, _hist), entry in table.items() if j == iset.index)
                want = sum((w * counterfactual_utility(game, profile, i, iset.id)
                            for w, profile in support), F(0))
                assert F(got, reach.value_scale(i)) == want


def test_profile_reach_expected_utility_and_outcomes_match_support_expansion(games_and_profiles):
    for game, pi in games_and_profiles(34):
        support = list(profile_support(pi))
        for i in range(game.n):
            want = sum((w * pure_utility(game, p, i) for w, p in support), F(0))
            assert expected_utility(game, pi, i) == want
        probs = outcome_distribution(game, pi).probs
        for z in game.terminals:
            want = sum((w * z.chance_reach for w, p in support
                        if all(pure_terminal_reach(game, ps, z) for ps in p.strategies)),
                       F(0))
            assert probs[z.terminal_id] == want


def test_efce_to_bce_refuses_a_corrupted_mass_table(ebos, ebos_pi, monkeypatch):
    from gametree import metrics

    masses = metrics._sequence_masses

    def root_only(walks):
        return {seq: mass for seq, mass in masses(walks).items() if seq.is_empty}

    monkeypatch.setattr(metrics, "_sequence_masses", root_only)
    with pytest.raises(InternalCheckError, match="has mass below"):
        efce_to_bce(ebos, ebos_pi)


# -- trigger weights and a shared reach ----------------------------------------


def test_trigger_weights_match_conditional_reach_below_each_trigger(
        games_and_profiles, expanded_conditional_reach):
    # a trigger's weights are payoff * chance * conditional reach on every
    # terminal below its infoset (all terminals for the empty trigger), 0 on
    # the others, and None exactly when the trigger has no mass
    zero_mass = 0
    for game, pi in games_and_profiles(35):
        reach = ProfileReach(game, pi)
        for i in range(game.n):
            units = _payoff_units(reach, i)
            for seq in game.sequences(i):
                at = None if seq.is_empty else game.infoset(i, seq.infoset)
                below = range(len(game.terminals)) if at is None else at.terminals_below
                w = _trigger_weights(reach, units, seq, below)
                mass, cond = expanded_conditional_reach(game, pi, i, seq)
                if mass == 0:
                    assert w is None
                    zero_mass += 1
                    continue
                for z in below:
                    t = game.terminals[z]
                    assert F(w[z], reach.value_scale(i)) == \
                        t.payoffs[i] * t.chance_reach * cond[z]
                assert not any(w[z] for z in set(range(len(w))) - set(below))
    assert zero_mass > 0


def _seven_measures(game, pi):
    """One call of each function that builds a reach, on ``pi``: the
    profile or its reach."""
    return [lambda notion=notion: gap(game, pi, notion) for notion in NOTIONS] + [
        lambda: expected_utility(game, pi, 0),
        lambda: outcome_distribution(game, pi),
        lambda: outcome_equivalent(game, pi, pi),
        lambda: counterfactually_outcome_equivalent(game, pi, pi),
        lambda: counterfactual_best_response(game, pi, 0, Sequence.empty(0)),
        lambda: efce_to_bce(game, pi)]


def test_gap_with_a_built_reach_reports_the_same(games_and_profiles):
    for game, pi in games_and_profiles(36):
        reach = ProfileReach(game, pi)
        for notion in NOTIONS:
            assert json.dumps(gap(game, reach, notion).to_json_dict(game)) == \
                json.dumps(gap(game, pi, notion).to_json_dict(game))
        assert [call() for call in _seven_measures(game, reach)[len(NOTIONS):]] == \
            [call() for call in _seven_measures(game, pi)[len(NOTIONS):]]
        converted = efce_to_bce(game, pi)
        assert outcome_equivalent(game, reach, ProfileReach(game, converted))
        assert outcome_equivalent(game, converted, reach)
        assert counterfactually_outcome_equivalent(game, pi, reach)
        assert ProfileReach.of(game, reach) is reach


def test_a_reach_of_another_game_raises(games_and_profiles):
    cases = games_and_profiles(37)
    assert len(cases) >= 12
    for game, pi in cases:
        reach = ProfileReach(parse_game(serialize_game(game)), pi)
        calls = _seven_measures(game, reach)
        calls += [lambda: outcome_equivalent(game, pi, reach),
                  lambda: counterfactually_outcome_equivalent(game, pi, reach)]
        for call in calls:
            with pytest.raises(ValueError, match="^the reach was built for another game$"):
                call()


# -- a profile is validated where its reach is built ----------------------------


def _invalid_profiles(game, pi):
    """``pi`` with its alphas summing to 2/3, and with a negative beta."""
    comp = pi.components[0]
    (_beta, plan), *_rest = comp.strategies[0]
    negative = ((F(3, 2), plan), (F(-1, 2), plan))
    return [
        (MixtureOfProducts((MixtureComponent(F(2, 3), comp.strategies),)),
         "component weights sum to 2/3, not 1"),
        (MixtureOfProducts((MixtureComponent(F(1), (negative,) + comp.strategies[1:]),)),
         "component 0 has a negative strategy weight"),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["alphas sum to 2/3", "negative beta"])
def test_every_entry_point_refuses_an_invalid_profile_alike(ebos, ebos_pi, case):
    # gap and efce_to_bce no longer validate on their own: every entry point
    # reaches the profile through ProfileReach, which validates it
    bad, message = _invalid_profiles(ebos, ebos_pi)[case]
    calls = [lambda: ProfileReach(ebos, bad),
             lambda: efce_to_bce(ebos, bad),
             lambda: outcome_distribution(ebos, bad),
             lambda: expected_utility(ebos, bad, 0),
             lambda: counterfactual_best_response(ebos, bad, 0, Sequence.empty(0))]
    calls += [lambda notion=notion: gap(ebos, bad, notion) for notion in NOTIONS]
    for call in calls:
        with pytest.raises(ProfileError) as info:
            call()
        assert str(info.value) == message


NOT_A_PLAN = "component 0 holds a strategy that is not a total plan for player P1"


@pytest.mark.parametrize("actions,message", [
    (("bogus", "L'"), "infoset 'R0' has no action 'bogus'"),
    (("L", "L'", "extra"), NOT_A_PLAN),
    (("L",), NOT_A_PLAN),
], ids=["unknown action", "extra action", "missing action"])
def test_the_reference_functions_refuse_a_plan_not_of_the_game(lrr, actions, message):
    # in MixtureOfProducts.validate's words, a plan and a pure profile
    # read as the one component pure_mixture makes of them
    plan = PureStrategy(0, actions)
    calls = [lambda: sequence_form(lrr, plan),
             lambda: pure_utility(lrr, PureProfile((plan,)), 0),
             lambda: counterfactual_utility(lrr, PureProfile((plan,)), 0, "B"),
             lambda: deviation_point(lrr, plan, "R0")]
    for call in calls:
        with pytest.raises(ProfileError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(ProfileError) as info:
        pure_mixture(lrr, [(F(1), PureProfile((plan,)))]).validate(lrr)
    assert str(info.value) == message


def test_pure_utility_refuses_a_profile_missing_a_player(ebos):
    plan = PureStrategy(0, tuple(iset.actions[0] for iset in ebos.infosets[0]))
    with pytest.raises(ProfileError, match="^component 0 covers 1 players, game has 2$"):
        pure_utility(ebos, PureProfile((plan,)), 0)


def test_pure_utilities_refuse_an_invalid_game():
    # infoset j lists x at one node and y at the other: plan x meets a node
    # without it, which is bad input, not a failed self-check
    game = parse_game(json.dumps({"players": ["A", "B"], "root": {"kind": "chance", "actions": [
        {"label": c, "prob": "1/2", "child": {"kind": "decision", "player": 1, "infoset": "j",
                                            "actions": [{"label": a, "child": {
                                                "kind": "terminal", "payoffs": ["0", "0"]}}]}}
        for c, a in (("l", "x"), ("r", "y"))]}}))
    profile = PureProfile((PureStrategy(0, ()), PureStrategy(1, ("x",))))
    calls = [lambda: pure_utility(game, profile, 0),
             lambda: conditional_node_utility(game, pure_mixture(game, [(F(1), profile)]), 0, ())]
    for call in calls:
        with pytest.raises(InvalidGameError, match="^game fails validation"):
            call()


def test_conditional_node_utility_validates_its_mixture(surj, surj_pi):
    doubled = MixtureOfProducts(tuple(MixtureComponent(2 * c.alpha, c.strategies)
                                      for c in surj_pi.components))
    with pytest.raises(ProfileError, match="^component weights sum to 2, not 1$"):
        conditional_node_utility(surj, doubled, 0, ("Coop", "P"))


def test_a_reach_passed_in_stands_for_a_validated_profile(ebos, ebos_pi, monkeypatch):
    # a reach cannot be built from an invalid profile, and a function handed
    # a reach in place of its profile validates nothing again
    bad, message = _invalid_profiles(ebos, ebos_pi)[0]
    with pytest.raises(ProfileError, match=message):
        ProfileReach(ebos, bad)
    reach = ProfileReach(ebos, ebos_pi)
    validated = []
    validate = MixtureOfProducts.validate

    def counted(self, game):
        validated.append(self)
        return validate(self, game)

    monkeypatch.setattr(MixtureOfProducts, "validate", counted)
    for call in _seven_measures(ebos, reach):
        call()
    assert validated == []
    for call in _seven_measures(ebos, ebos_pi):
        call()
    assert len(validated) >= len(_seven_measures(ebos, ebos_pi))


def test_reach_keeps_the_sequences_each_plan_plays_to(games_and_profiles):
    # the walks the history tables read are the plan walks themselves, and
    # the masses are their beta sums
    for game, pi in games_and_profiles(36):
        reach = ProfileReach(game, pi)
        for i in range(game.n):
            for plans, walks, masses in zip(reach.plans[i], reach.walks[i], reach.masses[i]):
                assert len(walks) == len(plans)
                summed = {}
                for (beta, plan), walk in zip(plans, walks):
                    want = {s for s in game.sequences(i)
                            if pure_reaches_sequence(game, plan, s)} if beta else set()
                    assert walk == want
                    for s in walk:
                        summed[s] = summed.get(s, 0) + beta
                assert masses == summed
