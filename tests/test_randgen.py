"""Seeded random games: what each draw is, and what it costs to make."""

import hashlib
import random

import gametree.randgen as randgen
from gametree.game import serialize_game
from gametree.randgen import random_game

# Keyword families in use: paper-check criterion 3 (and the perfbench solve
# workload), criterion 4, and the perfbench rewrite and audit workloads.
FAMILIES = [
    dict(max_players=3, max_nodes=30, max_pure_product=96, max_pure_per_player=24),
    dict(max_players=2, max_nodes=10, max_depth=3, max_pure_product=16,
         max_pure_per_player=4),
    dict(max_players=2, max_nodes=70, max_depth=10),
    dict(max_players=3, max_nodes=60, max_depth=6),
]

# sha256 over the canonical documents of 40 draws per family, each family
# followed by one rng.random() so the rng state after the draws is pinned too
DRAWS_DIGEST = "0dd1bf735b9e3bc970df26e2f8abe448576290b67382b57f0dcc9e84738a40d0"


def test_seeded_draws_and_rng_state_are_pinned():
    h = hashlib.sha256()
    for kw in FAMILIES:
        rng = random.Random(2024)
        for _ in range(40):
            h.update(serialize_game(random_game(rng, **kw)).encode("utf-8"))
        h.update(repr(rng.random()).encode("ascii"))
    assert h.hexdigest() == DRAWS_DIGEST


def test_random_game_parses_only_the_games_it_returns(monkeypatch):
    calls = []
    parse_game = randgen.parse_game

    def counting(text):
        calls.append(text)
        return parse_game(text)

    monkeypatch.setattr(randgen, "parse_game", counting)
    rng = random.Random(5)
    games = [random_game(rng, **FAMILIES[0]) for _ in range(30)]
    assert len(calls) == len(games)
