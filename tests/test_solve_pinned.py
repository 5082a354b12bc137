"""``gt solve --notion bce``'s exit code, stdout and stderr, pinned byte for
byte, with and without ``--objective``.

Each case is a game document and an objective document: the three fixtures
and seeded ``randgen`` games, each with a ``random_objective``. In 9 of the
46 cases the off-path rewrite changes the solved profile, so both of its
branches (a new reach for the output, or the input's) are pinned. The stderr
report is normalized before hashing: its ``wall_time_s`` is set to 0 and the
temporary directory the documents sit in is replaced by ``<tmp>``, so only
what the program computes is pinned. ``PINNED`` holds the sha256 of each
case's rc, stdout and normalized stderr; a change to any of them fails the
test.
"""

import functools
import hashlib
import json
import random
import re

import pytest

from gametree import fixtures, serialize_game
from gametree.cli import main
from gametree.randgen import random_game, random_objective
from gametree.rational import format_rational

WALL_TIME = re.compile(r'"wall_time_s": [0-9.e-]+')


@functools.cache
def _cases():
    rng = random.Random(1414)
    games = [(name, fixtures.load_game(name)) for name in fixtures.GAMES]
    games += [(f"random{k}", random_game(rng, max_players=3, max_nodes=30,
                                         max_pure_product=96, max_pure_per_player=24))
              for k in range(20)]
    return [(name, serialize_game(game), json.dumps(
        {"c": {z: format_rational(v) for z, v in random_objective(rng, game).items()}}))
            for name, game in games]


PINNED = {
    "ebos":
        "d409a433e28043e5ed34b1601fa3d41e7586ef2b96019b98ebe9bf9901e6f249",
    "ebos+objective":
        "b117198c2d5b138498e3010915a56bcff354181b402b6c1b08994bb45136e1b3",
    "lrr":
        "6b846da34b0ba955545f1b2f8cc7f70d69474fc8835a1d0737165ac3069e36d3",
    "lrr+objective":
        "a18250dbf223658981647603c3a0f78ec0ffcb1d9669a987a537fed5f4e3f5cb",
    "random0":
        "a0dbfc221f6219a726f8ffef26795797ad62e5185965430164f9a884b93b828f",
    "random0+objective":
        "4ac2c924ba81b912a0b608a05b4fc3fd3d4026adef7938439bc423e4b43de5a1",
    "random1":
        "439272baf33850c7c82c113aa37e534f7a34a1ae5a33665af798ff79f186057f",
    "random1+objective":
        "a81e766c746f035fcf0e924ac272e4257f3bfb2bd20e647ea7b19a4ae4d479c7",
    "random10":
        "3edf8d2d1c2e247f35ab5d66602294114cd4c4dc1e30a05fc6b925cbec5aceff",
    "random10+objective":
        "292f1ac7640f59f55a4d4eeb49e8d113265cff2d559482bab9ba70772737550c",
    "random11":
        "db8cec9acce1e18073ad4dd13577d6e75f04ff7c26ed2a4294b413b18f732ceb",
    "random11+objective":
        "4826b638328ae44c3a99fd923f7a99199c61d3825c52320bf5367740116dbff8",
    "random12":
        "ffa920c4183d620a88f685f73db48d62ede072642e47cb4fe9140874f8f800d1",
    "random12+objective":
        "9449eeb4244c446e4aa685907b2fb6adc941cbc665cd7f7f681d4a71875f92cd",
    "random13":
        "3054d52d417fdae2c649b4586a297d2987d2027005504288a5cee89aa3c8d121",
    "random13+objective":
        "8a1367c39fde1da7db750c0236f4ee12ad68e23b15c7f82139e379e258b64b04",
    "random14":
        "32917eedb6b924d659a0f9e61cca6a11925af99a4eafe734b8ae6d2ade761ea4",
    "random14+objective":
        "eddd5bd9b8a2c15b08bbc3d20500cfb39a52efdc87029690c72e9c77793b3110",
    "random15":
        "b493a644dca56a2a8196ba5d7627e8d1242a372af1e2eb5acfe84bbd6d96d350",
    "random15+objective":
        "083adefa9777efbeb184d723e41c9a30bb05721d1fafe25b34499c187422ca5f",
    "random16":
        "ff3cb838fc8fa23c31eaaf95529f751997fc10b48281871159a0e7964ee518ec",
    "random16+objective":
        "ba4fe4274858713ed8370b031a1bb2928f1abbda0d1fa3f7be3fe5752136218d",
    "random17":
        "956c3c2c9440f50b835619d36ddeb3e868fd1abe504a66d38c4204c5199a454b",
    "random17+objective":
        "172f9f99dddf0ef9557c6361262b31bfab9351122102cae19e3d59238aa36bab",
    "random18":
        "ae20890b5b7efea66d5ab67db5d1ad1a9ce60efa6664c78a9920c45d5067eaf1",
    "random18+objective":
        "f834e60c668b22f524f24ca1fd0bd185c3f36a4d45b23dbb44ad743bfc42a0cc",
    "random19":
        "323cc88028872ef44cca29fb93284ea4142e741c06179ed332879637971a10e7",
    "random19+objective":
        "dd52123010d55fbcb565f31e818c1e836a2a81fbf165655da8c532f0bc7c9978",
    "random2":
        "5fae74688aa7255f76e07072ff0dba4916162b689b43d463a56e940f734abd19",
    "random2+objective":
        "0b82752d436b332cedd1137b42321bbe135b5b4e9316f12d4cb674c8acce18b4",
    "random3":
        "7bf1c3cd4b89c0c86e24427cc2f23081dbf3ecbb19a5e403f3fcf43c878960ef",
    "random3+objective":
        "b5330859657ded0306f8979aa7162de68778d9c8d019eb6f23410bdfe8c47191",
    "random4":
        "397af8b544ef3001b43911b836e94d6827531bced3a2e00b5fec66f09e8a893e",
    "random4+objective":
        "6642f5c64320f0d1e17d3c43c6598bab516a88169e02bc2262e4129ceefff121",
    "random5":
        "23eb87f93190ff96d913a1473027868b3096a632304033e1c1695a9ca3033feb",
    "random5+objective":
        "f0853d302c3a423efb474932e9c431db562bec0f97e8a71e24243123f5b1a4c2",
    "random6":
        "01357b98d0263b77016a956a274970291e650a2c78702a5db2762daafde01b8c",
    "random6+objective":
        "d62dff537838140dc6b3de80c1eac4a6ab5e57c70ee8ddffe97e0c905af9a56d",
    "random7":
        "d4ea1cc01dbdb0da7a5642ddaf35113f3b8a817dba5cb7a3931617d4ba7bdc9a",
    "random7+objective":
        "209f1fbcd82a4b61d1c333e391c5c6b8439ab239ba20b563b8d8d73a1434f6db",
    "random8":
        "c9f956f1fba7ca8443159cc2ff617f3c537077864bee3073f32089b8755afb72",
    "random8+objective":
        "a0e441880150873542764e861bdb58a91c59315eda6962bf6a27b7240c5c3ae2",
    "random9":
        "83c18d45c980b52434cc32ccd341405609b2cc2188a8eef90fc5f03c08d986d7",
    "random9+objective":
        "9273df6945ff96d2078a02aac7e3367e9177863630f85b7f8166ccea4879b7ca",
    "surj":
        "44f706e9eb4c14d86ee4c7954be2bc262e0e252c5b3f8a8f7a2ede86c4049314",
    "surj+objective":
        "1911f8252638e4579ec7f9091d53f780b845a5eb37a304dc6ed74d5eadc43dd7",
}


def _digest(capsys, tmp_path, name, game_text, objective_text, with_objective):
    g, o = tmp_path / f"{name}.game.json", tmp_path / f"{name}.objective.json"
    g.write_text(game_text)
    o.write_text(objective_text)
    argv = ["solve", str(g), "--notion", "bce"]
    if with_objective:
        argv += ["--objective", str(o)]
    code = main(argv)
    out, err = capsys.readouterr()
    err = WALL_TIME.sub('"wall_time_s": 0', err).replace(str(tmp_path), "<tmp>")
    blob = json.dumps([code, out, err]).encode()
    return hashlib.sha256(blob).hexdigest()


def _keys():
    return [f"{name}{suffix}" for name, _g, _o in _cases() for suffix in ("", "+objective")]


def test_cases_cover_what_they_name():
    assert len(_keys()) == len(set(_keys())) == len(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_solve_bce_output_is_pinned(key, capsys, tmp_path):
    name = key.removesuffix("+objective")
    game_text, objective_text = next((g, o) for n, g, o in _cases() if n == name)
    assert _digest(capsys, tmp_path, name, game_text, objective_text,
                   key.endswith("+objective")) == PINNED[key]
