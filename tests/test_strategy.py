import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gametree import (ProfileError, ProfileParseError, Sequence, decompose,
                      mixture_from_behavior_products, parse_game, parse_profile,
                      profile_support, pure_strategy, sequence_form,
                      serialize_game, serialize_profile)
from gametree.randgen import random_behavior_strategy, random_game
from gametree.strategy import (BehaviorStrategy, PureStrategy,
                               behavior_product_expansion, expand_behavior_products,
                               pure_reaches_sequence)

F = Fraction


def lrr_behavior(lrr):
    return BehaviorStrategy(0, {
        "R0": {"L": F(9, 10), "R": F(1, 10)},
        "B": {"R'": F(1)},
    })


def test_sequence_form_behavior_lrr(lrr):
    v = sequence_form(lrr, lrr_behavior(lrr))
    reach = {s.label(): v.reach[s] for s in lrr.sequences(0)}
    assert reach == {"empty": 1, "R0:L": F(9, 10), "R0:R": F(1, 10),
                     "B:L'": 0, "B:R'": F(1, 10)}
    v.validate(lrr)


def test_sequence_form_pure_lrr(lrr):
    ps = pure_strategy(lrr, 0, {"R0": "L", "B": "L'"})
    v = sequence_form(lrr, ps)
    assert v.reach[lrr.sequence(0, "R0", "L")] == 1
    assert v.reach[lrr.sequence(0, "R0", "R")] == 0
    assert v.reach[lrr.sequence(0, "B", "L'")] == 0  # unreachable under L
    assert all(q in (0, 1) for q in v.reach.values())


def test_sequence_form_uniform_single_infoset():
    import json
    from gametree import parse_game
    g = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "i", "actions": [
            {"label": "a", "child": {"kind": "terminal", "payoffs": ["0"]}},
            {"label": "b", "child": {"kind": "terminal", "payoffs": ["1"]}}]}}))
    v = sequence_form(g, BehaviorStrategy(0, {"i": {"a": F(1, 2), "b": F(1, 2)}}))
    assert v.reach[g.sequence(0, "i", "a")] == F(1, 2)
    assert v.reach[g.sequence(0, "i", "b")] == F(1, 2)


def test_sequence_vs_local_indicator(lrr):
    # reaching a sequence is reach-to-the-infoset times the local choice
    ps = pure_strategy(lrr, 0, {"R0": "L", "B": "R'"})
    v = sequence_form(lrr, ps).reach
    for iset in lrr.infosets[0]:
        for a in iset.actions:
            local = 1 if ps.action_at(iset.index) == a else 0
            inflow = v[iset.parent_seq]
            assert v[lrr.sequence(0, iset.id, a)] == inflow * local


def test_pure_reaches_sequence_refuses_another_players_sequence(ebos):
    # P1's action at infoset index 0 is not compared with P2's label
    plan = pure_strategy(ebos, 0, {"Root": "U", "AfterNotU": "X1", "AfterU": "X1"})
    for seq in (ebos.sequence(1, "Event", "X2"), Sequence.empty(1)):
        with pytest.raises(ValueError, match=f"^sequence {seq.label()} is not player P1's$"):
            pure_reaches_sequence(ebos, plan, seq)
    assert pure_reaches_sequence(ebos, plan, ebos.sequence(0, "AfterU", "X1"))
    assert not pure_reaches_sequence(ebos, plan, ebos.sequence(0, "AfterNotU", "X1"))


def test_decompose_lrr_example(lrr):
    parts = decompose(lrr, sequence_form(lrr, lrr_behavior(lrr)))
    assert [(w, ps.actions) for w, ps in parts] == [
        (F(9, 10), ("L", "L'")), (F(1, 10), ("R", "R'"))]


def test_decompose_pure_is_extreme(lrr):
    ps = pure_strategy(lrr, 0, {"R0": "R", "B": "L'"})
    parts = decompose(lrr, sequence_form(lrr, ps))
    assert parts == [(F(1), ps)]


def test_decompose_uniform_two_actions():
    import json
    from gametree import parse_game
    g = parse_game(json.dumps({"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "i", "actions": [
            {"label": "a", "child": {"kind": "terminal", "payoffs": ["0"]}},
            {"label": "b", "child": {"kind": "terminal", "payoffs": ["1"]}}]}}))
    v = sequence_form(g, BehaviorStrategy(0, {"i": {"a": F(1, 2), "b": F(1, 2)}}))
    parts = decompose(g, v)
    assert [(w, ps.actions) for w, ps in parts] == [(F(1, 2), ("a",)), (F(1, 2), ("b",))]


def test_decompose_round_trip_random(ebos, lrr, surj):
    rng = random.Random(99)
    for game in (ebos, lrr, surj):
        for i in range(game.n):
            for _ in range(40):
                v = sequence_form(game, random_behavior_strategy(rng, game, i))
                parts = decompose(game, v)
                assert sum(w for w, _ in parts) == 1
                assert all(w > 0 for w, _ in parts)
                assert len(parts) <= len(game.sequences(i))
                # taking each part off v strictly shrinks the nonzero
                # residual support, down to nothing
                residual = dict(v.reach)
                trace = [sum(1 for q in residual.values() if q != 0)]
                for w, ps in parts:
                    for seq, r in sequence_form(game, ps).reach.items():
                        residual[seq] -= w * r
                    trace.append(sum(1 for q in residual.values() if q != 0))
                assert all(b < a for a, b in zip(trace, trace[1:]))
                assert trace[-1] == 0


def test_decompose_requires_valid_vector(lrr):
    from gametree.strategy import SequenceFormVector
    bad = SequenceFormVector(0, {Sequence.empty(0): F(1, 2)})
    with pytest.raises(ProfileError):
        decompose(lrr, bad)


def test_mixture_from_behavior_products_lrr(lrr):
    pi = mixture_from_behavior_products(lrr, [(F(1), [lrr_behavior(lrr)])])
    assert len(pi.components) == 1
    support = sorted((w, p.strategies[0].actions) for w, p in profile_support(pi))
    assert support == [(F(1, 10), ("R", "R'")), (F(9, 10), ("L", "L'"))]


def test_expansion_is_the_literal_product(lrr):
    parts = behavior_product_expansion(lrr, lrr_behavior(lrr))
    assert sorted((w, ps.actions) for w, ps in parts) == [
        (F(1, 10), ("R", "R'")), (F(9, 10), ("L", "R'"))]


def test_expansion_lists_no_plan_of_probability_zero(lrr):
    # an action listed at probability 0 is no action of a positive plan
    b = BehaviorStrategy(0, {"R0": {"L": F(9, 10), "R": F(1, 10)},
                             "B": {"L'": F(0), "R'": F(1)}})
    parts = behavior_product_expansion(lrr, b)
    assert all(w > 0 for w, _ps in parts)
    assert parts == behavior_product_expansion(lrr, lrr_behavior(lrr))


def test_expansion_and_decomposition_share_sequence_marginals(ebos):
    rng = random.Random(21)
    for i in range(ebos.n):
        b = random_behavior_strategy(rng, ebos, i)
        v = sequence_form(ebos, b).reach
        for parts in (behavior_product_expansion(ebos, b),
                      decompose(ebos, sequence_form(ebos, b))):
            recon = {}
            for w, ps in parts:
                for seq, r in sequence_form(ebos, ps).reach.items():
                    recon[seq] = recon.get(seq, F(0)) + w * r
            assert recon == v


def test_profile_support_product_weights(ebos, ebos_pi):
    support = list(profile_support(ebos_pi))
    assert len(support) == 2
    assert all(w == F(1, 2) for w, _ in support)


def test_profile_support_product_expansion(lrr):
    a = pure_strategy(lrr, 0, {"R0": "L", "B": "L'"})
    b = pure_strategy(lrr, 0, {"R0": "R", "B": "R'"})
    from gametree.strategy import MixtureComponent, MixtureOfProducts
    comp = MixtureComponent(F(1), ((F(1, 2), a), (F(1, 2), b)),)
    # two players would multiply out; with one player K=2 gives two entries
    pi = MixtureOfProducts((MixtureComponent(F(1), (((F(1, 2), a), (F(1, 2), b)),)),))
    support = list(profile_support(pi))
    assert sorted(w for w, _ in support) == [F(1, 2), F(1, 2)]


def test_two_identical_components_same_distribution(lrr, lrr_pi):
    from gametree import outcome_distribution
    from gametree.strategy import MixtureComponent, MixtureOfProducts
    comp = lrr_pi.components[0]
    halved = MixtureOfProducts((
        MixtureComponent(F(1, 2), comp.strategies),
        MixtureComponent(F(1, 2), comp.strategies)))
    assert outcome_distribution(lrr, halved).probs == \
        outcome_distribution(lrr, lrr_pi).probs


def test_mixture_validation_rejects_bad_weights(lrr):
    text = """{"components": [{"alpha": "2/3", "strategies":
        [[{"beta": "1", "actions": {"R0": "L", "B": "L'"}}]]}]}"""
    with pytest.raises(ProfileError):
        parse_profile(lrr, text)


def test_profile_parse_rejects_malformed(lrr):
    with pytest.raises(ProfileParseError):
        parse_profile(lrr, "{not json")
    with pytest.raises(ProfileParseError):
        parse_profile(lrr, "{\"components\": []}")


def test_profile_parse_rejects_partial_strategy(lrr):
    text = """{"components": [{"alpha": "1", "strategies":
        [[{"beta": "1", "actions": {"R0": "L"}}]]}]}"""
    with pytest.raises(ProfileError, match="misses infoset"):
        parse_profile(lrr, text)


def test_profile_parse_rejects_unknown_action(lrr):
    text = """{"components": [{"alpha": "1", "strategies":
        [[{"beta": "1", "actions": {"R0": "L", "B": "Z"}}]]}]}"""
    with pytest.raises(ProfileError, match="no action"):
        parse_profile(lrr, text)


def test_profile_serialization_round_trip(ebos, ebos_pi):
    text = serialize_profile(ebos, ebos_pi)
    again = parse_profile(ebos, text)
    assert again == ebos_pi
    assert serialize_profile(ebos, again) == text


def test_behavior_profile_modes_differ_exactly_as_designed(lrr):
    from gametree import fixtures, gap
    text = fixtures.fixture_text("lrr.behavior.json")
    literal = parse_profile(lrr, text)  # default expands
    small = parse_profile(lrr, text, behavior_mode="decompose")
    assert gap(lrr, literal, "efce").overall == gap(lrr, small, "efce").overall
    assert gap(lrr, literal, "bce").overall != gap(lrr, small, "bce").overall


def test_random_games_round_trip_profiles():
    rng = random.Random(42)
    for _ in range(10):
        g = random_game(rng, max_nodes=15)
        items = [(F(1), [random_behavior_strategy(rng, g, i) for i in range(g.n)])]
        pi = expand_behavior_products(g, items)
        text = serialize_profile(g, pi)
        assert parse_profile(g, text) == pi


def test_profile_support_two_players_k2_gives_four_products(ebos):
    from gametree.strategy import MixtureComponent, MixtureOfProducts
    p1a = pure_strategy(ebos, 0, {"Root": "NotU", "AfterNotU": "X1", "AfterU": "X1"})
    p1b = pure_strategy(ebos, 0, {"Root": "U", "AfterNotU": "Y1", "AfterU": "Y1"})
    p2a = pure_strategy(ebos, 1, {"Event": "X2"})
    p2b = pure_strategy(ebos, 1, {"Event": "Y2"})
    pi = MixtureOfProducts((MixtureComponent(F(1), (
        ((F(1, 3), p1a), (F(2, 3), p1b)),
        ((F(1, 4), p2a), (F(3, 4), p2b)),
    )),))
    pi.validate(ebos)
    support = list(profile_support(pi))
    assert len(support) == 4
    weights = sorted(w for w, _ in support)
    assert weights == sorted([F(1, 12), F(1, 4), F(1, 6), F(1, 2)])
    assert sum(weights) == 1


def test_decomposition_preserves_causal_and_commit_blind_gaps():
    # the small-support form keeps every per-(component, player) sequence
    # marginal, and those marginals are all the causal and commit-blind gap
    # programs ever read; counterfactual gaps may legitimately move
    from gametree import gap, outcome_equivalent
    from gametree.randgen import random_behavior_strategy, random_game
    rng = random.Random(86420)
    for _ in range(25):
        g = random_game(rng, max_players=3, max_nodes=18,
                        max_pure_product=96, max_pure_per_player=24)
        t = rng.randint(1, 3)
        weights = [rng.randint(1, 4) for _ in range(t)]
        total = sum(weights)
        items = [(F(w, total),
                  [random_behavior_strategy(rng, g, i) for i in range(g.n)])
                 for w in weights]
        literal = expand_behavior_products(g, items)
        small = mixture_from_behavior_products(g, items)
        assert outcome_equivalent(g, literal, small)
        assert gap(g, literal, "efce").overall == gap(g, small, "efce").overall
        assert gap(g, literal, "nfcce").overall == gap(g, small, "nfcce").overall


def _fraction_decompose(game, v):
    """The greedy loop on Fraction residuals keyed by sequence that the int
    residuals replaced, kept as the reference they must match."""
    i = v.player
    empty = Sequence.empty(i)
    residual = {seq: v.reach.get(seq, F(0)) for seq in game.sequences(i)}
    out = []
    while residual[empty] > 0:
        chosen = {empty}
        actions = []
        for iset in game.infosets[i]:
            if iset.parent_seq in chosen:
                a = min(a for a in iset.actions if residual[Sequence(i, iset.id, a)] > 0)
                chosen.add(Sequence(i, iset.id, a))
            else:
                a = min(iset.actions)
            actions.append(a)
        beta = min(residual[s] for s in chosen)
        for s in chosen:
            residual[s] -= beta
        out.append((beta, PureStrategy(i, tuple(actions))))
    assert not any(residual.values())
    return out


def _relabeled(game):
    """``game`` with every decision node's labels reversed, so that label
    order and action position disagree."""
    doc = json.loads(serialize_game(game))

    def walk(node):
        if node["kind"] == "terminal":
            return
        if node["kind"] == "decision":
            labels = [item["label"] for item in node["actions"]]
            for item, label in zip(node["actions"], reversed(labels)):
                item["label"] = label
        for item in node["actions"]:
            walk(item["child"])

    walk(doc["root"])
    return parse_game(json.dumps(doc))


def test_int_decompose_matches_the_fraction_loop(ebos, lrr, surj):
    # identical (beta, plan) lists, on behavior strategies with
    # zero-probability actions, own chains three actions deep, and action
    # labels out of position order
    rng = random.Random(17)
    games = [ebos, lrr, surj] + [random_game(rng, max_players=2, max_nodes=30, max_depth=6)
                                 for _ in range(24)]
    games += [_relabeled(game) for game in games]
    depth = zeros = 0
    for game in games:
        for i in range(game.n):
            isets = game.infosets[i]
            depth = max([depth] + [len(iset.chain) + 1 for iset in isets])
            for _ in range(6):
                v = sequence_form(game, random_behavior_strategy(rng, game, i))
                assert decompose(game, v) == _fraction_decompose(game, v)
                zeros += any(v.reach[iset.parent_seq] > 0 and v.reach[s] == 0
                             for iset in isets for s in iset.seqs)
    assert depth >= 3 and zeros > 0
    assert any(list(iset.actions) != sorted(iset.actions)
               for game in games for isets in game.infosets for iset in isets)


# -- the validators' checks, order and messages, pinned --------------------------


def _mixture_defects(ebos, pi):
    from gametree.strategy import MixtureComponent, MixtureOfProducts
    comp = pi.components[0]
    (_beta, plan), *_rest = comp.strategies[0]
    rest = comp.strategies[1:]

    def one(*strategies, alpha=F(1)):
        return MixtureOfProducts((MixtureComponent(alpha, tuple(strategies)),))

    iset = ebos.infosets[0][-1]
    bad_action = PureStrategy(0, plan.actions[:-1] + ("nope",))
    return [
        (one(comp.strategies[0], *rest, alpha=F(2, 3)), "component weights sum to 2/3, not 1"),
        (MixtureOfProducts((MixtureComponent(F(3, 2), comp.strategies),
                            MixtureComponent(F(-1, 2), comp.strategies))),
         "component 1 has negative weight"),
        (one(comp.strategies[0]), "component 0 covers 1 players, game has 2"),
        (one(((F(1, 2), plan),), *rest),
         "component 0, player P1: strategy weights sum to 1/2"),
        (one(((F(3, 2), plan), (F(-1, 2), plan)), *rest),
         "component 0 has a negative strategy weight"),
        (one(((F(1), PureStrategy(0, plan.actions[:-1])),), *rest),
         "component 0 holds a strategy that is not a total plan for player P1"),
        (one(((F(1), PureStrategy(1, plan.actions)),), *rest),
         "component 0 holds a strategy that is not a total plan for player P1"),
        (one(((F(1), bad_action),), *rest), f"infoset {iset.id!r} has no action 'nope'"),
        # two defects: the weight sum is checked before the plans
        (one(((F(1, 3), bad_action),), *rest),
         "component 0, player P1: strategy weights sum to 1/3"),
    ]


def test_mixture_validation_messages(ebos, ebos_pi):
    for pi, message in _mixture_defects(ebos, ebos_pi):
        with pytest.raises(ProfileError) as info:
            pi.validate(ebos)
        assert str(info.value) == message


def test_sequence_form_validation_messages(lrr):
    from gametree.strategy import SequenceFormVector
    seq = {s.label(): s for s in lrr.sequences(0)}
    good = {"empty": F(1), "R0:L": F(1, 2), "R0:R": F(1, 2), "B:L'": F(1, 6), "B:R'": F(1, 3)}
    cases = [
        ({"empty": F(1, 2)}, "sequence-form vector must have reach 1 at the empty sequence"),
        ({"R0:L": F(3, 2), "R0:R": F(-1, 2)}, "negative reach at R0:R"),
        ({"B:R'": F(1, 4)}, "flow violated at infoset 'B': in 1/2, out 5/12"),
        ({"R0:L": F(2, 3)}, "flow violated at infoset 'R0': in 1, out 7/6"),
    ]
    SequenceFormVector(0, {seq[k]: q for k, q in good.items()}).validate(lrr)
    for change, message in cases:
        v = SequenceFormVector(0, {seq[k]: q for k, q in {**good, **change}.items()})
        with pytest.raises(ProfileError) as info:
            v.validate(lrr)
        assert str(info.value) == message
    with pytest.raises(ProfileError, match="reach 1 at the empty"):
        SequenceFormVector(0, {}).validate(lrr)


def test_behavior_validation_messages(lrr):
    # the same text from the validator and from the decomposition entry point
    good = {"R0": {"L": F(9, 10), "R": F(1, 10)}, "B": {"R'": F(1)}}
    cases = [
        ({"R0": {"L": F(2, 3)}}, "local distribution at 'R0' sums to 2/3"),
        ({"R0": {"L": F(3, 2), "R": F(-1, 2)}}, "negative probability at 'R0'"),
        ({"B": {"R'": F(1), "X": F(0)}}, "infoset 'B' has no action ['X']"),
        ({"B": None}, "behavior strategy for P1 must cover every infoset; missing ['B']"),
        ({"Z": {"L": F(1)}}, "behavior strategy for P1 must cover every infoset; "
                             "unknown ['Z']"),
    ]
    BehaviorStrategy(0, good).validate(lrr)
    for change, message in cases:
        locals_ = {k: v for k, v in {**good, **change}.items() if v is not None}
        b = BehaviorStrategy(0, locals_)
        with pytest.raises(ProfileError) as info:
            b.validate(lrr)
        assert str(info.value) == message
        with pytest.raises(ProfileError) as info:
            mixture_from_behavior_products(lrr, [(F(1), [b])])
        assert str(info.value) == message


def test_sequence_form_refuses_an_invalid_behavior_strategy(lrr):
    # an action the infoset lacks would otherwise be dropped unread
    b = BehaviorStrategy(0, {"R0": {"L": F(1, 2), "R": F(1, 2), "bogus": F(1, 2)},
                             "B": {"L'": F(1), "R'": F(0)}})
    with pytest.raises(ProfileError) as info:
        sequence_form(lrr, b)
    assert str(info.value) == "infoset 'R0' has no action ['bogus']"
    with pytest.raises(ProfileError, match="local distribution at 'R0' sums to 1/2"):
        sequence_form(lrr, BehaviorStrategy(0, {"R0": {"L": F(1, 2)}, "B": {"L'": F(1)}}))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_int_behavior_decomposition_matches_the_sequence_form_route(rng, count):
    # the int path from behavior to mixture gives exactly the (beta, plan)
    # lists of decomposing the Fraction sequence form, per player
    game = random_game(rng, max_players=3, max_nodes=24, max_depth=6)
    weights = [rng.randint(1, 4) for _ in range(count)]
    components = [(F(w, sum(weights)), [random_behavior_strategy(rng, game, i)
                                         for i in range(game.n)]) for w in weights]
    pi = mixture_from_behavior_products(game, components)
    assert [c.alpha for c in pi.components] == [alpha for alpha, _ in components]
    for comp, (_alpha, behaviors) in zip(pi.components, components):
        assert [list(mix) for mix in comp.strategies] == \
            [decompose(game, sequence_form(game, b)) for b in behaviors]


RAT = "(expected 'p' or 'p/q' with q > 0)"
_P1 = {"beta": "1", "actions": {"Root": "U", "AfterNotU": "X1", "AfterU": "X1"}}
_P2 = {"beta": "1", "actions": {"Event": "X2"}}
_B1 = {"Root": {"U": "1"}, "AfterNotU": {"X1": "1"}, "AfterU": {"X1": "1"}}
_B2 = {"Event": {"X2": "1"}}


def _mixture_doc(**component):
    return {"components": [{"alpha": "1", "strategies": [[_P1], [_P2]], **component}]}


def _behavior_doc(**component):
    return {"components": [{"alpha": "1", "behaviors": [_B1, _B2], **component}]}


# (ebos profile document, exception, its exact text); the path in the
# document leads each parse error's text
MALFORMED_PROFILES = [
    ({"components": [{"strategies": [[_P1], [_P2]]}]}, ProfileParseError,
     'components/0: component needs "alpha"'),
    ({"components": [_mixture_doc()["components"][0], 5]}, ProfileParseError,
     'components/1: component needs "alpha"'),
    (_mixture_doc(alpha="x"), ProfileParseError, f"components/0/alpha: malformed rational 'x' {RAT}"),
    (_mixture_doc(strategies=[[_P1]]), ProfileParseError,
     'components/0: "strategies" must list one entry per player (2)'),
    (_mixture_doc(strategies=[[], [_P2]]), ProfileParseError,
     "components/0/strategies/0: player entry must be a non-empty list"),
    (_mixture_doc(strategies=[[_P1], [{"actions": {"Event": "X2"}}]]), ProfileParseError,
     'components/0/strategies/1/0: entry needs "beta" and "actions"'),
    (_mixture_doc(strategies=[[_P1], [{"beta": "1", "actions": ["X2"]}]]), ProfileParseError,
     'components/0/strategies/1/0: entry needs "beta" and "actions"'),
    (_mixture_doc(strategies=[[_P1], [{"beta": "1/0", "actions": {"Event": "X2"}}]]),
     ProfileParseError, f"components/0/strategies/1/0/beta: malformed rational '1/0' {RAT}"),
    (_mixture_doc(strategies=[[_P1], [{"beta": "1", "actions": {"Event": "X2", "Nope": "a",
                                                                 "Also": "b"}}]]),
     ProfileError, "strategy for P2 names unknown infosets ['Also', 'Nope']"),
    ({"components": [{"behaviors": [_B1, _B2]}]}, ProfileParseError,
     'components/0: component needs "alpha"'),
    (_behavior_doc(alpha=0.5), ProfileParseError,
     "components/0/alpha: expected rational string, got float"),
    (_behavior_doc(behaviors=[_B1]), ProfileParseError,
     'components/0: "behaviors" must list one entry per player (2)'),
    (_behavior_doc(behaviors=[_B1, ["Event"]]), ProfileParseError,
     "components/0/behaviors/1: behavior entry must map infosets to distributions"),
    (_behavior_doc(behaviors=[_B1, {"Event": "1"}]), ProfileParseError,
     "components/0/behaviors/1/Event: distribution must be an object"),
    (_behavior_doc(behaviors=[_B1, {"Event": {"X2": "0.5", "Y2": "1/2"}}]), ProfileParseError,
     f"components/0/behaviors/1/Event/X2: malformed rational '0.5' {RAT}"),
    ({"components": [_mixture_doc()["components"][0],
                     {"alpha": "0", "behaviors": [_B1, _B2]}]}, ProfileParseError,
     'each component needs either "strategies" or "behaviors" (not a mix)'),
    ({"components": [5]}, ProfileParseError, 'components/0: component needs "alpha"'),
]


@pytest.mark.parametrize("doc,error,message", MALFORMED_PROFILES,
                         ids=[f"doc{k}" for k in range(len(MALFORMED_PROFILES))])
def test_profile_document_defects_name_their_path(ebos, doc, error, message):
    for mode in ("expand", "decompose"):
        with pytest.raises(error) as info:
            parse_profile(ebos, json.dumps(doc), mode)
        assert type(info.value) is error
        assert str(info.value) == message


def test_parse_profile_refuses_an_unknown_behavior_mode(ebos):
    with pytest.raises(ValueError) as info:
        parse_profile(ebos, json.dumps(_behavior_doc()), "literal")
    assert str(info.value) == "behavior_mode must be 'expand' or 'decompose'"


def test_behavior_component_messages(ebos):
    # the checks on the (alpha, behaviors) list itself, before any behavior
    one = BehaviorStrategy(0, {k: {a: F(p) for a, p in d.items()} for k, d in _B1.items()})
    two = BehaviorStrategy(1, {"Event": {"X2": F(1)}})
    cases = [
        ([(F(2, 3), [one, two])], "component weights sum to 2/3, not 1"),
        ([(F(1), [one])], "each component needs one behavior strategy per player"),
        ([(F(1), [two, one])], "behavior strategies must be listed in player order"),
    ]
    for components, message in cases:
        for build in (mixture_from_behavior_products, expand_behavior_products):
            with pytest.raises(ProfileError) as info:
                build(ebos, components)
            assert str(info.value) == message


def test_behavior_expansion_refuses_above_its_cap(lrr, monkeypatch):
    from gametree import ResourceGuardError, strategy
    b = lrr_behavior(lrr)  # R0 mixes two actions, B plays one: two plans
    monkeypatch.setattr(strategy, "EXPANSION_CAP", 2)
    assert len(behavior_product_expansion(lrr, b)) == 2
    monkeypatch.setattr(strategy, "EXPANSION_CAP", 1)
    with pytest.raises(ResourceGuardError) as info:
        behavior_product_expansion(lrr, b)
    assert str(info.value) == ("behavior strategy for P1 expands to more than 1 pure "
                               "plans; decompose it instead")
