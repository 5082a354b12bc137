"""Exhaustive small scope: every two-player game with binary actions and at
most three decision nodes that validates, each with and without a 1/3-2/3
chance root, with the dynamic programs checked against the brute-force
oracle exactly."""

import json
import random

from gametree import ResourceGuardError, brute_force_gap, gap, parse_game, serialize_game
from gametree.metrics import NOTIONS
from gametree.randgen import random_mixture, random_pure_profile_mixture


def _shapes(k):
    """Every binary tree with ``k`` decision nodes: None is a terminal and a
    pair ``(left, right)`` a decision node."""
    if k == 0:
        yield None
        return
    for left in range(k):
        for l_shape in _shapes(left):
            for r_shape in _shapes(k - 1 - left):
                yield (l_shape, r_shape)


def _labelings(owners):
    """Every way to group the decision nodes, listed in preorder with their
    ``owners``, into infosets of one player each: per node its infoset
    id, a node joining an earlier infoset of its player or opening one."""
    out = [[]]
    for player in owners:
        grown = []
        for ids in out:
            mine = sorted({x for x, p in zip(ids, owners) if p == player})
            for infoset in mine + [f"P{player + 1}s{len(mine)}"]:
                grown.append(ids + [infoset])
        out = grown
    return out


def _document(shape, owners, ids, payoff):
    """The decision tree ``shape`` with its preorder nodes owned by
    ``owners`` and grouped by ``ids``; ``payoff()`` draws each terminal's
    pair of payoffs."""
    nodes = iter(zip(owners, ids))

    def build(sub):
        if sub is None:
            return {"kind": "terminal", "payoffs": payoff()}
        player, infoset = next(nodes)
        return {"kind": "decision", "player": player, "infoset": infoset,
                "actions": [{"label": a, "child": build(child)}
                            for a, child in zip("ab", sub)]}

    return build(shape)


def small_games(rng, max_decisions=3):
    """Every valid two-player game with binary actions and at most
    ``max_decisions`` decision nodes, with seeded int payoffs in [-3, 3];
    each also below a chance root that plays two copies of it, with their
    own payoffs, at 1/3 and 2/3, so each infoset meets both copies."""
    def payoff():
        return [str(rng.randint(-3, 3)) for _ in range(2)]

    games = []
    for k in range(1, max_decisions + 1):
        for shape in _shapes(k):
            for mask in range(2 ** k):
                owners = [(mask >> b) & 1 for b in range(k)]
                for ids in _labelings(owners):
                    trees = [_document(shape, owners, ids, payoff) for _ in range(3)]
                    chance = {"kind": "chance", "actions": [
                        {"label": c, "prob": p, "child": tree}
                        for c, p, tree in zip("lr", ("1/3", "2/3"), trees[1:])]}
                    for root in (trees[0], chance):
                        game = parse_game(json.dumps({"players": ["P1", "P2"], "root": root}))
                        if game.validate().ok:
                            games.append(game)
    return games


def test_the_small_scope_counts_its_games():
    # with k decision nodes, the binary trees times the owners times the
    # infoset groupings that keep perfect recall: 2, 8 and 42 games for k =
    # 1, 2, 3, each with and without the chance root
    assert [len(list(_shapes(k))) for k in range(5)] == [1, 1, 2, 5, 14]
    games = [small_games(random.Random(0), k) for k in (1, 2, 3)]
    assert [len(g) for g in games] == [4, 20, 104]
    assert sum(g.root.kind == "chance" for g in games[-1]) == 52


def test_every_small_game_matches_the_oracle():
    # gap equals brute_force_gap exactly, per player in all four notions and
    # per infoset for bce, on a random mixture and a pure-profile mixture
    # of each game. The oracle's default table cap refuses the causal and
    # history notions of a player with three infosets, whose 8 plans make
    # 8^8 tables: 20 games, 2 profiles and 3 notions
    rng = random.Random(2031)
    checks = refused = 0
    for game in small_games(rng):
        for pi in (random_mixture(rng, game), random_pure_profile_mixture(rng, game)):
            for notion in NOTIONS:
                report = gap(game, pi, notion)
                for i in range(game.n):
                    try:
                        oracle = brute_force_gap(game, pi, notion, players=[i])
                    except ResourceGuardError:
                        refused += 1
                        continue
                    checks += 1
                    assert report.per_player[i] == oracle.per_player[i], \
                        (serialize_game(game), notion, i)
                    if notion == "bce":
                        assert {k: v for k, v in report.per_infoset.items() if k[0] == i} \
                            == oracle.per_infoset, (serialize_game(game), i)
    assert (checks, refused) == (1544, 120)
