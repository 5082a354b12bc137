"""The gap DPs on ints over one scale per player, and the history tables
factorized across opponents, against the brute-force oracles."""

import json
import random
from fractions import Fraction

import pytest

from gametree import (MixtureOfProducts, ProfileReach, PureStrategy, ResourceGuardError,
                      brute_force_gap, efce_to_bce, gap, outcome_equivalent, parse_game,
                      profile_support, pure_strategy, serialize_game)
from gametree.metrics import (NOTIONS, _StateBudget, _history_table, _support_steps,
                              counterfactual_utility, pure_utility)
from gametree.randgen import random_behavior_strategy, random_game, random_pure_strategy
from gametree.strategy import (MixtureComponent, expand_behavior_products,
                               mixture_from_behavior_products)
from gametree.witnesses import recommendation_history

F = Fraction


def _agrees_with_oracle(game, pi, notion):
    report, oracle = gap(game, pi, notion), brute_force_gap(game, pi, notion)
    return (report.overall == oracle.overall and report.per_player == oracle.per_player
            and report.per_infoset == oracle.per_infoset)


# -- the history tables, factorized across opponents ----------------------------


def _three_player_cases():
    """Seeded 3-player games with literal two-component behavior products and
    three-component decomposed mixtures, kept when components give at least
    two players several positive-beta plans: there a table entry stands for
    several support elements."""
    rng = random.Random(808)
    cases = []
    while len(cases) < 16:
        game = random_game(rng, max_players=3, max_nodes=14, max_depth=4,
                           max_pure_product=64, max_pure_per_player=4)
        if game.n != 3:
            continue
        behaviors = [(F(k, 6), [random_behavior_strategy(rng, game, i) for i in range(3)])
                     for k in (1, 2, 3)]
        for pi in (expand_behavior_products(game, [(F(1, 3), behaviors[0][1]),
                                                   (F(2, 3), behaviors[1][1])]),
                   mixture_from_behavior_products(game, behaviors)):
            if _mixes_plans(pi) >= 2:
                cases.append((game, pi))
    return cases


def _mixes_plans(pi) -> int:
    """How many players some component gives several positive-beta plans."""
    return sum(any(sum(1 for beta, _ in c.strategies[i] if beta) > 1
                   for c in pi.components if c.alpha)
               for i in range(len(pi.components[0].strategies)))


def test_history_tables_on_three_player_mixtures_match_the_oracle(replayed_regret):
    positive = 0
    for game, pi in _three_player_cases():
        for notion in ("bce", "full-efce"):
            assert _agrees_with_oracle(game, pi, notion), notion
        full = gap(game, pi, "full-efce")
        assert replayed_regret(game, pi, full.witness, pure_utility) == \
            full.per_player[full.witness.player]
        bce = gap(game, pi, "bce")
        if bce.overall > 0:
            positive += 1
            w = bce.witness
            regret = replayed_regret(
                game, pi, w, lambda g, p, i: counterfactual_utility(g, p, i, w.at_infoset))
            assert regret == bce.per_infoset[(w.player, w.at_infoset)] == bce.overall
    assert positive >= 8


def _meeting_plan_cases(seed, count):
    """Seeded 2-player games with two-component decomposed behavior
    mixtures, kept when some component gives a player at least three
    positive-beta plans that all reach one of its nodes: there the history
    table holds several entries per (node, component), whose walks below
    are shared."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        game = random_game(rng, max_players=2, max_nodes=14, max_depth=4,
                           max_pure_product=32, max_pure_per_player=4)
        if game.n != 2 or not all(game.infosets):
            continue
        pi = mixture_from_behavior_products(game, [
            (F(k, 3), [random_behavior_strategy(rng, game, i) for i in range(2)])
            for k in (1, 2)])
        meeting = max(sum(1 for beta, plan in c.strategies[i]
                          if beta and all(plan.actions[j] == a for j, a in iset.chain))
                      for c in pi.components for i in range(2) for iset in game.infosets[i])
        if meeting >= 3:
            cases.append((game, pi))
    return cases


def test_history_tables_on_plans_meeting_at_one_node_match_the_oracle(replayed_regret):
    positive = 0
    for game, pi in _meeting_plan_cases(909, 16):
        for notion in ("bce", "full-efce"):
            assert _agrees_with_oracle(game, pi, notion), notion
        full = gap(game, pi, "full-efce")
        assert replayed_regret(game, pi, full.witness, pure_utility) == \
            full.per_player[full.witness.player]
        bce = gap(game, pi, "bce")
        if bce.overall > 0:
            positive += 1
            w = bce.witness
            regret = replayed_regret(
                game, pi, w, lambda g, p, i: counterfactual_utility(g, p, i, w.at_infoset))
            assert regret == bce.per_infoset[(w.player, w.at_infoset)] == bce.overall
    assert positive >= 12


def test_each_walk_below_a_node_is_taken_once_per_table(monkeypatch, games_and_profiles):
    # per history table, each (node, component) is walked once, however many
    # entries (own plans, ranks) pass through the node
    from gametree import metrics
    descent, history_table = metrics._descent, metrics._history_table
    walks = []  # per table: the (node, component) of every step of a descent

    def counted_descent(node, i, unit, steps, *rest):
        walks[-1].append((node, id(steps)))
        return descent(node, i, unit, steps, *rest)

    def counted_table(reach, i, support, budget):
        walks.append([])
        return history_table(reach, i, support, budget)

    monkeypatch.setattr(metrics, "_descent", counted_descent)
    monkeypatch.setattr(metrics, "_history_table", counted_table)
    for game, pi in games_and_profiles(42) + _meeting_plan_cases(910, 8):
        for notion in ("bce", "full-efce"):
            gap(game, pi, notion)
    assert walks and all(len(per_table) == len(set(per_table)) for per_table in walks)


def _expanded_history_table(game, i, support):
    """The reference table: one bundle entry per (node, support element),
    descended element by element in support order, in Fractions."""
    table = {}

    def descend(node, om, k, profile, sink, consts):
        if node.kind == "terminal":
            consts.append(om * node.payoffs[i])
        elif node.kind == "chance":
            for _label, p, child in node.moves:
                if p:
                    descend(child, om * p, k, profile, sink, consts)
        elif node.player != i:
            want = profile.strategies[node.player].actions[node.infoset.index]
            child = next(c for label, c in node.moves if label == want)
            descend(child, om, k, profile, sink, consts)
        else:
            hist = recommendation_history(game, profile.strategies[i], node.infoset)
            sink.setdefault((node.infoset.index, hist), []).append((node, om, k))

    def solve(key, bundle):
        best = None
        for m, a in enumerate(game.infosets[i][key[0]].actions):
            consts, sink = [], {}
            for node, om, k in bundle:
                descend(node.moves[m][1], om, k, support[k][1], sink, consts)
            val = sum(consts, F(0)) + sum((solve(*s) for s in sink.items()), F(0))
            if best is None or val > best[0] or (val == best[0] and a < best[1]):
                best = (val, a, tuple(sink))
        table[key] = (bundle[0][2],) + best
        return best[0]

    consts, sink = [], {}
    for k, (w, profile) in enumerate(support):
        descend(game.root, w, k, profile, sink, consts)
    value = sum(consts, F(0)) + sum((solve(*s) for s in sink.items()), F(0))
    return value, tuple(sink), table


def _padded(rng, game, pi):
    """``pi`` with a zero-beta plan put first in every player's mixes and a
    zero-alpha component put first: the same distribution, every support
    position shifted."""
    pad = tuple(tuple(((F(0), random_pure_strategy(rng, game, i)),) + mix
                      for i, mix in enumerate(c.strategies)) for c in pi.components)
    return MixtureOfProducts((MixtureComponent(F(0), pad[0]),) + tuple(
        MixtureComponent(c.alpha, mixes) for c, mixes in zip(pi.components, pad)))


def _reversed(pi):
    """``pi`` with every player's mixes listed backwards. The generators list
    plans in the order of the actions they take, so in ``pi`` a lower
    plan index also reaches the earlier nodes; here it reaches the later."""
    return MixtureOfProducts(tuple(
        MixtureComponent(c.alpha, tuple(mix[::-1] for mix in c.strategies))
        for c in pi.components))


def test_history_tables_match_the_expanded_support(games_and_profiles):
    # same states, values, winning actions, and state order at the root,
    # below every state and within every infoset
    rng = random.Random(40)
    cases = games_and_profiles(40) + _three_player_cases()
    cases += [(game, _reversed(pi)) for game, pi in cases]
    for game, pi in cases + [(game, _padded(rng, game, pi)) for game, pi in cases[::3]]:
        _assert_tables_match(game, pi)


def _assert_tables_match(game, pi):
    reach = ProfileReach(game, pi)
    support = list(profile_support(pi))
    for i in range(game.n):
        value, roots, table = _history_table(reach, i, _support_steps(reach),
                                             _StateBudget(10 ** 6))
        want_value, want_roots, want = _expanded_history_table(game, i, support)
        scale = reach.value_scale(i)
        assert F(value, scale) == want_value
        assert roots == want_roots
        assert {key: (F(v, scale), a, children)
                for key, (_, v, a, children) in table.items()} == \
            {key: (v, a, children) for key, (_, v, a, children) in want.items()}
        assert sorted(table, key=lambda s: (s[0], table[s][0])) == \
            sorted(want, key=lambda s: (s[0], want[s][0]))


def _opponent_fork_cases(seed, count):
    """Seeded games rooted at a node of B with two or three actions, each
    leading (at times through a chance move) to infosets of A of its own, so
    one plan of A meets several infosets below one node of B; some actions
    of A lead to a further such fork. In every profile some component lists
    B's plans so that the lowest plan taking each root action does not rise
    with the actions' tree order, where a walk through the support meets
    A's infosets in an order the tree does not give."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        names = iter(range(1000))

        def own(nested):
            return {"kind": "decision", "player": 0, "infoset": f"A{next(names)}",
                    "actions": [{"label": label, "child": fork(False) if nested and
                                 rng.random() < 0.4 else
                                 {"kind": "terminal",
                                  "payoffs": [str(rng.randint(-3, 3)) for _ in "AB"]}}
                                for label in "xy"]}

        def fork(nested):
            children = [{"kind": "chance", "actions": [
                {"label": label, "prob": "1/2", "child": own(nested)} for label in "ht"]}
                if rng.random() < 0.3 else own(nested) for _ in range(rng.randint(2, 3))]
            return {"kind": "decision", "player": 1, "infoset": f"B{next(names)}",
                    "actions": [{"label": f"b{m}", "child": child}
                                for m, child in enumerate(children)]}

        game = parse_game(json.dumps({"players": ["A", "B"], "root": fork(True)}))
        root = game.root.infoset

        def mix(player, size):
            cuts = sorted(rng.sample(range(1, 12), size - 1))
            return tuple((F(b - a, 12), random_pure_strategy(rng, game, player))
                         for a, b in zip([0] + cuts, cuts + [12]))

        components = tuple(MixtureComponent(alpha, (mix(0, rng.randint(1, 2)),
                                                    mix(1, rng.randint(2, 3))))
                           for alpha in ((F(1),), (F(1, 3), F(2, 3)))[rng.randint(0, 1)])

        def out_of_tree_order(component):
            plays = [plan.actions[root.index] for _, plan in component.strategies[1]]
            lowest = [plays.index(a) for a in root.actions if a in plays]
            return lowest != sorted(lowest)

        if any(out_of_tree_order(c) for c in components):
            pi = MixtureOfProducts(components)
            pi.validate(game)
            cases.append((game, pi))
    return cases


def test_states_below_an_opponent_fork_are_ranked_by_the_plan_order():
    # the hand-built case below, drawn: the expanded walk meets A's states
    # in B's plan order, which the factorized table must reproduce
    for game, pi in _opponent_fork_cases(57, 40):
        _assert_tables_match(game, pi)


def test_states_are_met_in_the_opponents_plan_order():
    # B's first plan plays b, so the support meets A's infoset I2 first,
    # though I1 comes first in the tree; listed the other way, I1 is first
    def own(infoset):
        return {"kind": "decision", "player": 0, "infoset": infoset, "actions": [
            {"label": label, "child": {"kind": "terminal", "payoffs": [u, "0"]}}
            for label, u in (("x", "1"), ("y", "0"))]}

    game = parse_game(json.dumps({"players": ["A", "B"], "root": {
        "kind": "decision", "player": 1, "infoset": "R", "actions": [
            {"label": "a", "child": own("I1")}, {"label": "b", "child": own("I2")}]}}))
    mine = ((F(1), pure_strategy(game, 0, {"I1": "y", "I2": "y"})),)
    theirs = tuple((F(1, 2), pure_strategy(game, 1, {"R": a})) for a in "ba")
    for mix, order in ((theirs, ["I2", "I1"]), (theirs[::-1], ["I1", "I2"])):
        pi = MixtureOfProducts((MixtureComponent(F(1), (mine, mix)),))
        policy = gap(game, pi, "full-efce").witness.policy
        assert [infoset for infoset, _, _ in policy] == order


def test_zero_weight_plans_and_components_change_nothing(games_and_profiles):
    rng = random.Random(41)
    for game, pi in games_and_profiles(41):
        padded = _padded(rng, game, pi)
        for notion in NOTIONS:
            assert json.dumps(gap(game, padded, notion).to_json_dict(game)) == \
                json.dumps(gap(game, pi, notion).to_json_dict(game))
        # the rewrite of the positive-beta plans is the same too
        assert [mix[1:] for c in efce_to_bce(game, padded).components[1:]
                for mix in c.strategies] == \
            [mix for c in efce_to_bce(game, pi).components for mix in c.strategies]


def test_history_tables_skip_zero_probability_chance_moves():
    # the deviator's nodes below a move of probability 0 hold no state
    leaf = {"kind": "terminal", "payoffs": ["1", "0"]}
    other = {"kind": "terminal", "payoffs": ["0", "0"]}

    def choice(infoset):
        return {"kind": "decision", "player": 0, "infoset": infoset, "actions": [
            {"label": "x", "child": leaf}, {"label": "y", "child": other}]}

    game = parse_game(json.dumps({"players": ["A", "B"], "root": {
        "kind": "chance", "actions": [
            {"label": "l", "prob": "1", "child": choice("seen")},
            {"label": "r", "prob": "0", "child": choice("unseen")}]}}))
    plans = tuple((F(1, 2), pure_strategy(game, 0, {"seen": a, "unseen": a})) for a in "xy")
    pi = MixtureOfProducts((MixtureComponent(F(1), (plans, ((F(1), PureStrategy(1, ())),))),))
    for notion in ("bce", "full-efce"):
        report = gap(game, pi, notion, state_cap=2)  # histories x and y at "seen"
        with pytest.raises(ResourceGuardError):
            gap(game, pi, notion, state_cap=1)
        assert report.per_player == brute_force_gap(game, pi, notion).per_player
        assert {infoset for infoset, _, _ in report.witness.policy} <= {"seen"}


def test_gap_never_expands_the_support(monkeypatch, games_and_profiles):
    from gametree import metrics
    cases = games_and_profiles(39)
    want = [[json.dumps(gap(game, pi, notion).to_json_dict(game)) for notion in NOTIONS]
            for game, pi in cases]

    def refuse(pi):
        raise RuntimeError("the support was expanded")

    monkeypatch.setattr(metrics, "profile_support", refuse)
    for (game, pi), reports in zip(cases, want):
        assert [json.dumps(gap(game, pi, notion).to_json_dict(game))
                for notion in NOTIONS] == reports


# -- ints over one large scale --------------------------------------------------


def _primes(start):
    p = start
    while True:
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            yield p
        p += 1


def _coprime_case(rng, primes):
    """A game and profile whose chance probabilities, payoffs, alphas and
    betas each get their own prime denominator."""
    while True:
        game = random_game(rng, max_players=2, max_nodes=12, max_depth=4,
                           chance_prob=0.5, max_pure_per_player=6)
        if game.num_chance_nodes:
            break
    doc = json.loads(serialize_game(game))

    def visit(node):
        if node["kind"] == "terminal":
            node["payoffs"] = [f"{rng.randint(-9, 9)}/{next(primes)}" for _ in node["payoffs"]]
            return
        if node["kind"] == "chance":
            q = next(primes)
            nums = list(range(1, len(node["actions"])))
            nums.append(q - sum(nums))
            for action, num in zip(node["actions"], nums):
                action["prob"] = f"{num}/{q}"
        for action in node["actions"]:
            visit(action["child"])

    visit(doc["root"])
    game = parse_game(json.dumps(doc))

    def split(q, parts):
        cuts = sorted(rng.sample(range(1, q), parts - 1))
        return [F(b - a, q) for a, b in zip([0] + cuts, cuts + [q])]

    alphas = split(next(primes), 2)
    components = []
    for alpha in alphas:
        per_player = []
        for i in range(game.n):
            betas = split(next(primes), 2)
            per_player.append(tuple((beta, random_pure_strategy(rng, game, i))
                                    for beta in betas))
        components.append(MixtureComponent(alpha, tuple(per_player)))
    pi = MixtureOfProducts(tuple(components))
    pi.validate(game)
    return game, pi


def test_dps_stay_exact_over_scales_far_beyond_64_bits():
    rng = random.Random(64)
    primes = _primes(1_000_003)
    for _ in range(6):
        game, pi = _coprime_case(rng, primes)
        reach = ProfileReach(game, pi)
        assert min(reach.value_scale(i) for i in range(game.n)).bit_length() > 100
        for notion in NOTIONS:
            assert _agrees_with_oracle(game, pi, notion), notion
        out = efce_to_bce(game, pi)
        assert outcome_equivalent(game, pi, out)
        assert gap(game, out, "bce").overall <= gap(game, pi, "efce").overall
