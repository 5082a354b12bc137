"""Seeded random instances for property checks and demos.

Games come out of the document parser, so everything downstream sees exactly
what a user file would produce. Perfect recall is obtained by construction:
decision nodes first get fresh singleton infosets, then nodes of one player
whose own histories and action lists already coincide are randomly merged,
which is precisely the condition validation checks. The merge and the size
caps run on the drawn document, and only a draft that meets the caps is
parsed, once.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Optional

from .errors import InternalCheckError
from .game import Game, parse_game
from .rational import format_rational
from .strategy import (BehaviorStrategy, MixtureOfProducts, PureProfile,
                       PureStrategy, mixture_from_behavior_products, pure_mixture)

_ACTIONS = ("a", "b", "c")


def random_game(rng: random.Random, max_players: int = 3, max_nodes: int = 30,
                max_depth: int = 4, merge_prob: float = 0.6,
                chance_prob: float = 0.25,
                max_pure_product: Optional[int] = None,
                max_pure_per_player: Optional[int] = None) -> Game:
    """A valid random game. A draft over the node or pure-strategy caps is
    redrawn before it is parsed, so keep the caps loose."""
    while True:
        doc, num_nodes, sizes = _attempt(rng, max_players, max_nodes, max_depth,
                                         merge_prob, chance_prob)
        if num_nodes > max_nodes:
            continue
        if max_pure_per_player is not None and any(s > max_pure_per_player for s in sizes):
            continue
        if max_pure_product is not None and math.prod(sizes) > max_pure_product:
            continue
        game = parse_game(json.dumps(doc))
        if not game.validate().ok:
            raise InternalCheckError(
                f"random_game built an invalid game: {game.validate().violations[0].message}")
        return game


def _attempt(rng, max_players, max_nodes, max_depth, merge_prob, chance_prob):
    """One merged draft: its document, node count and per-player number of
    pure strategies."""
    n = rng.randint(1, max_players)
    budget = [rng.randint(3, max_nodes)]
    start = budget[0]
    ids = itertools.count(1)
    # per player, decision nodes in preorder by (own history, labels); under
    # singleton infosets the last own (infoset, action) pair fixes the history
    classes: list[dict] = [{} for _ in range(n)]

    def build(depth: int, last: dict) -> dict:
        budget[0] -= 1
        stop = depth >= max_depth or budget[0] <= 1 or \
            (depth > 0 and rng.random() < 0.35)
        if stop:
            payoffs = [format_rational(Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
                       for _ in range(n)]
            return {"kind": "terminal", "payoffs": payoffs}
        width = rng.randint(1, 3) if rng.random() < 0.2 else rng.randint(2, 3)
        width = min(width, max(2, budget[0]))
        if rng.random() < chance_prob:
            weights = [rng.randint(1, 4) for _ in range(width)]
            total = sum(weights)
            return {"kind": "chance", "actions": [
                {"label": _ACTIONS[k],
                 "prob": format_rational(Fraction(weights[k], total)),
                 "child": build(depth + 1, last)}
                for k in range(width)]}
        player, infoset = rng.randrange(n), f"s{next(ids)}"
        node = {"kind": "decision", "player": player, "infoset": infoset}
        classes[player].setdefault((last.get(player), width), []).append(node)
        node["actions"] = [{"label": a,
                            "child": build(depth + 1, {**last, player: (infoset, a)})}
                           for a in _ACTIONS[:width]]
        return node

    doc = {"players": [f"P{i + 1}" for i in range(n)], "root": build(0, {})}
    fresh = itertools.count(1)
    sizes = []
    for groups in classes:
        for group in groups.values():
            if len(group) < 2:
                continue
            rng.shuffle(group)
            target = None
            for node in group:
                if target is None or rng.random() >= merge_prob:
                    target = f"m{next(fresh)}"
                node["infoset"] = target
        widths = {node["infoset"]: len(node["actions"])
                  for group in groups.values() for node in group}
        sizes.append(math.prod(widths.values()))
    return doc, start - budget[0], sizes


def random_pure_strategy(rng: random.Random, game: Game, player: int) -> PureStrategy:
    return PureStrategy(player, tuple(rng.choice(iset.actions)
                                      for iset in game.infosets[player]))


def random_behavior_strategy(rng: random.Random, game: Game,
                             player: int) -> BehaviorStrategy:
    locals_ = {}
    for iset in game.infosets[player]:
        weights = [rng.randint(0, 4) for _ in iset.actions]
        if sum(weights) == 0:
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        locals_[iset.id] = {a: Fraction(w, total)
                            for a, w in zip(iset.actions, weights) if w}
    return BehaviorStrategy(player, locals_)


def random_mixture(rng: random.Random, game: Game,
                   max_components: int = 3) -> MixtureOfProducts:
    """A random correlated profile built from behavior-strategy products."""
    t = rng.randint(1, max_components)
    weights = [rng.randint(1, 5) for _ in range(t)]
    total = sum(weights)
    items = []
    for k in range(t):
        items.append((Fraction(weights[k], total),
                      [random_behavior_strategy(rng, game, i) for i in range(game.n)]))
    return mixture_from_behavior_products(game, items)


def random_pure_profile_mixture(rng: random.Random, game: Game,
                                support: int = 3) -> MixtureOfProducts:
    weights = [rng.randint(1, 5) for _ in range(support)]
    total = sum(weights)
    entries = []
    for w in weights:
        profile = PureProfile(tuple(random_pure_strategy(rng, game, i)
                                    for i in range(game.n)))
        entries.append((Fraction(w, total), profile))
    # collapse duplicated profiles so weights stay a distribution
    merged: dict = {}
    for w, profile in entries:
        merged[profile] = merged.get(profile, Fraction(0)) + w
    return pure_mixture(game, list((w, p) for p, w in merged.items()))


def random_objective(rng: random.Random, game: Game) -> dict[str, Fraction]:
    out = {}
    for z in game.terminals:
        if rng.random() < 0.7:
            out[z.terminal_id] = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
    return out
