"""The ancestry index built by ``Game``: chains, subtrees and node links.

Every check compares the index with a reference built only from walking a
node's parent chain, read off a walk from the root, on seeded random 2- and
3-player games with chance nodes. The ancestry order is read off the index
alone: sequences and nodes by their own chains, infosets by their subtrees.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from conftest import walk_tree

from gametree import Sequence, fixtures
from gametree.bestresponse import best_response
from gametree.convert import efce_to_bce
from gametree.equilibrium import compute_efce
from gametree.game import Infoset
from gametree.metrics import NOTIONS, gap, pure_utility
from gametree.oracles import enumerate_pure
from gametree.randgen import random_game, random_pure_strategy
from gametree.strategy import PureProfile, pure_terminal_reach

F = Fraction


def _games(seed, players, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        game = random_game(rng, max_players=3, max_nodes=30, max_depth=5,
                           chance_prob=0.3, max_pure_per_player=64)
        if game.n == players and game.num_chance_nodes:
            out.append(game)
    return out


GAMES = _games(4401, 2, 20) + _games(4402, 3, 20)


def _points(game, i):
    """Every sequence and infoset of player ``i``."""
    return game.sequences(i) + list(game.infosets[i])


@cache
def _ref_histories(game):
    """Per (player, infoset id): the own (infoset id, action) pairs above the
    infoset's nodes, from the parent chain; every node of the infoset has
    the same ones."""
    out = {}
    for node, _parent, _path in walk_tree(game):
        if node.kind == "decision":
            pairs, _at = _ref_node_path(game, node, node.player)
            assert out.setdefault((node.player, node.infoset_id), pairs) == pairs
    return out


def _ref_history(game, x):
    """Own (infoset id, action) pairs weakly above ``x``, a sequence's own
    pair included, outermost first, from the parent chain."""
    if isinstance(x, Infoset):
        return _ref_histories(game)[(x.player, x.id)]
    if x.is_empty:
        return ()
    return _ref_histories(game)[(x.player, x.infoset)] + ((x.infoset, x.action),)


@cache
def _links(game):
    """Per node id: the node's parent and its path from the root."""
    return {id(node): (parent, path) for node, parent, path in walk_tree(game)}


def _ref_node_path(game, node, player):
    """Own (infoset id, action) pairs strictly above ``node``, outermost
    first, and the own infoset id it sits at, from the parent chain."""
    links = _links(game)
    cur, path = links[id(node)]
    pairs = []
    while cur is not None:
        parent, above = links[id(cur)]
        if cur.kind == "decision" and cur.player == player:
            pairs.append((cur.infoset_id, path[len(above)]))
        cur = parent
    at = node.infoset_id if node.kind == "decision" and node.player == player else None
    return tuple(reversed(pairs)), at


def _ref_precedes(game, a, b):
    if isinstance(a, Sequence):
        return a.is_empty or (a.infoset, a.action) in _ref_history(game, b)
    if isinstance(b, Infoset) and b is a:
        return True
    return any(j == a.id for j, _ in _ref_history(game, b))


def _ref_precedes_node(game, a, node):
    pairs, at = _ref_node_path(game, node, a.player)
    if isinstance(a, Sequence):
        return a.is_empty or (a.infoset, a.action) in pairs
    return a.id == at or any(j == a.id for j, _ in pairs)


def _index_chain(game, x, player):
    """Own (infoset index, action) pairs of ``player`` weakly above ``x``
    from the index, a sequence's own pair included, and the infoset ``x`` is
    or sits at (None if neither); ``x`` is a point or a terminal of any
    player, or a decision node of ``player``."""
    if isinstance(x, Infoset):
        return x.chain, x
    if isinstance(x, Sequence):
        if x.is_empty:
            return (), None
        iset = game.infoset(x.player, x.infoset)
        return iset.chain + ((iset.index, x.action),), None
    if x.kind == "terminal":
        return x.own_pairs[player], None
    return x.infoset.chain, x.infoset


def _index_precedes(game, a, b):
    chain, at = _index_chain(game, b, a.player)
    if isinstance(a, Sequence):
        return a.is_empty or (game.infoset(a.player, a.infoset).index, a.action) in chain
    if isinstance(b, Infoset):
        return b in a.subtree
    return a is at or any(j == a.index for j, _ in chain)


def test_random_games_cover_two_and_three_players_with_chance():
    assert {g.n for g in GAMES} == {2, 3}
    assert all(g.num_chance_nodes for g in GAMES)
    isets = [iset for g in GAMES for per_player in g.infosets for iset in per_player]
    assert max(len(iset.chain) for iset in isets) >= 2  # chains below chains
    decisions = [node for g in GAMES for node, _parent, _path in walk_tree(g)
                 if node.kind == "decision"]
    assert len({node.infoset for node in decisions}) < len(decisions)  # merged infosets


def test_chains_and_node_links_match_the_id_histories():
    for game in GAMES:
        for i in range(game.n):
            for iset in game.infosets[i]:
                assert tuple((game.infosets[i][j].id, a) for j, a in iset.chain) \
                    == _ref_history(game, iset)
        linked = set()
        for node, _parent, _path in walk_tree(game):
            if node.kind == "decision":
                assert node.infoset is game.infoset(node.player, node.infoset_id)
                linked.add(node.infoset)
        assert linked == {iset for isets in game.infosets for iset in isets}


def test_terminals_below_are_the_terminals_after_the_subtree():
    # in preorder, each once: those the infoset and its subtree list in
    # their after entries, and those whose parent chain passes the infoset
    for game in GAMES:
        for i in range(game.n):
            for iset in game.infosets[i]:
                after = {z for j in iset.subtree for terminals, _ in j.after
                         for z in terminals}
                assert iset.terminals_below == sorted(after)
                assert after == {z.index for z in game.terminals if any(
                    j == iset.id for j, _ in _ref_node_path(game, z, i)[0])}


def test_subtrees_are_the_weak_successors_in_discovery_order():
    for game in GAMES:
        for i in range(game.n):
            for start in game.infosets[i]:
                want = [iset for iset in game.infosets[i]
                        if _ref_precedes(game, start, iset)]
                assert start.subtree == want
                assert start.subtree[0] is start


def test_precedes_between_same_player_points_matches_the_reference():
    for game in GAMES:
        for i in range(game.n):
            points = _points(game, i)
            for a in points:
                for b in points:
                    assert _index_precedes(game, a, b) == _ref_precedes(game, a, b), (a, b)


def test_precedes_from_points_to_nodes_matches_the_parent_chain():
    # terminals read their own pairs and the player's decision nodes their
    # infoset's chain; other nodes carry no own chain of that player
    for game in GAMES:
        nodes = list(walk_tree(game))
        for i in range(game.n):
            own = [(node, path) for node, _parent, path in nodes if node.kind == "terminal"
                   or (node.kind == "decision" and node.player == i)]
            for a in _points(game, i):
                for node, path in own:
                    assert _index_precedes(game, a, node) == _ref_precedes_node(game, a, node), \
                        (a, path)


def test_best_response_reaches_the_brute_force_maximum():
    rng = random.Random(4403)
    for game in GAMES:
        for i in range(game.n):
            plans = enumerate_pure(game, i)
            for at in [None] + list(game.infosets[i]):
                weights = [F(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in game.terminals]
                if at is None:
                    below = [(z, 0) for z in game.terminals]
                else:
                    below = [(game.terminals[z], len(at.chain))
                             for z in at.terminals_below]

                def value(ps):
                    return sum((weights[z.index] for z, offset in below
                                if pure_terminal_reach(game, ps, z, offset)), F(0))

                got, plan = best_response(game, i, weights, at)
                assert got == max(value(ps) for ps in plans)
                assert value(plan) == got
                if at is not None:
                    inside = {iset.index for iset in at.subtree}
                    for iset in game.infosets[i]:
                        if iset.index not in inside:
                            assert plan.action_at(iset.index) == min(iset.actions)


def test_pure_utility_matches_the_terminal_sum():
    rng = random.Random(4404)
    for game in GAMES:
        for _ in range(3):
            profile = PureProfile(tuple(random_pure_strategy(rng, game, i)
                                        for i in range(game.n)))
            for i in range(game.n):
                want = sum((z.payoffs[i] * z.chance_reach for z in game.terminals
                            if all(pure_terminal_reach(game, ps, z)
                                   for ps in profile.strategies)), F(0))
                assert pure_utility(game, profile, i) == want


@pytest.mark.parametrize("name", fixtures.GAMES)
def test_game_holds_no_hidden_state(name):
    # fresh objects: the session fixtures have already served other tests
    game = fixtures.load_game(name)
    pi = fixtures.load_profile(game, name)
    before = dict(vars(game))
    profile = PureProfile(tuple(mix[0][1] for mix in pi.components[0].strategies))
    for i in range(game.n):
        pure_utility(game, profile, i)
    for notion in NOTIONS:
        gap(game, pi, notion)
    efce_to_bce(game, pi)
    compute_efce(game)
    after = vars(game)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
