"""Oracle-free metamorphic relations: transforms of a random game whose
effect on every gap is known, checked in all four notions, per player, and
per infoset for bce. No oracle is needed, so the games may be larger than
the brute-force oracle reaches.

Tier-1 runs each property on the few examples of the ``tier1`` hypothesis
profile; ``pytest tests/test_metamorphic.py --hypothesis-profile long`` runs
them on many (both profiles are registered in ``conftest.py``)."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gametree import gap, parse_game, serialize_game
from gametree.metrics import NOTIONS
from gametree.randgen import random_game, random_mixture, random_pure_profile_mixture
from gametree.rational import format_rational

F = Fraction


def _draw(rng):
    """A random game of at most 25 nodes and a random profile of it."""
    game = random_game(rng, max_players=3, max_nodes=25)
    draw = random_mixture if rng.random() < 0.5 else random_pure_profile_mixture
    return game, draw(rng, game)


def _edited(game, edit):
    """The game whose document root is ``edit`` of ``game``'s."""
    doc = json.loads(serialize_game(game))
    doc["root"] = edit(doc["root"])
    return parse_game(json.dumps(doc))


def _gaps(game, pi):
    """Per notion: each player's gap and, for bce, each infoset's."""
    reports = {notion: gap(game, pi, notion) for notion in NOTIONS}
    return {notion: (r.per_player, r.per_infoset) for notion, r in reports.items()}


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.fractions(F(1, 6), 10, max_denominator=6),
       st.fractions(-10, 10, max_denominator=6))
def test_an_affine_map_of_one_players_payoffs_scales_that_players_gap(rng, a, b):
    # u_i -> a * u_i + b with a > 0: player i's regrets scale by a, since the
    # constant b cancels in every swing, and no other player's change
    game, pi = _draw(rng)
    i = rng.randrange(game.n)

    def edit(node):
        if node["kind"] == "terminal":
            node["payoffs"][i] = format_rational(a * F(node["payoffs"][i]) + b)
        else:
            for move in node["actions"]:
                edit(move["child"])
        return node

    def scaled(player, value):
        return a * value if player == i else value

    want = {notion: (tuple(scaled(j, g) for j, g in enumerate(per_player)),
                     None if per_infoset is None else
                     {key: scaled(key[0], g) for key, g in per_infoset.items()})
            for notion, (per_player, per_infoset) in _gaps(game, pi).items()}
    assert _gaps(_edited(game, edit), pi) == want


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_sure_chance_move_above_the_root_changes_no_gap(rng):
    # a chance node of one move at probability 1 scales no reach and adds
    # nothing any player sees, so every gap stays
    game, pi = _draw(rng)
    wrapped = _edited(game, lambda root: {"kind": "chance", "actions": [
        {"label": "sure", "prob": "1", "child": root}]})
    assert wrapped.root.kind == "chance"
    assert _gaps(wrapped, pi) == _gaps(game, pi)
