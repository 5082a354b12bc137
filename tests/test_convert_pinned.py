"""``gt convert``'s exit code, stdout and stderr, pinned byte for byte.

Each case is a (game, profile) document pair: the three fixtures, seeded
random behavior profiles, games with a probability-0 chance branch, a
zero-weight component, zero-weight plans, and profiles that fail
validation. The documents are built from ``randgen``'s games and behavior
strategies, written out as JSON here, so no code under test shapes them
beyond the game generator. ``PINNED`` holds the sha256 of each case's rc,
stdout and stderr; a change to any of them fails the test.
"""

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from gametree import fixtures, serialize_game
from gametree.cli import main
from gametree.randgen import random_behavior_strategy, random_game, random_pure_strategy
from gametree.rational import format_rational

F = Fraction


def _behavior_doc(components):
    """A behavior-schema profile from ``(alpha, behaviors)`` pairs."""
    return {"components": [
        {"alpha": format_rational(alpha),
         "behaviors": [{iset_id: {a: format_rational(p) for a, p in dist.items()}
                        for iset_id, dist in b.locals.items()} for b in behaviors]}
        for alpha, behaviors in components]}


def _mixture_doc(game, components):
    """A mixture-schema profile from ``(alpha, [[(beta, plan), ...] per
    player])`` pairs."""
    return {"components": [
        {"alpha": format_rational(alpha),
         "strategies": [[{"beta": format_rational(beta), "actions": ps.assignment(game)}
                         for beta, ps in mix] for mix in mixes]}
        for alpha, mixes in components]}


def _random_components(rng, game, count):
    weights = [rng.randint(1, 5) for _ in range(count)]
    return [(F(w, sum(weights)), [random_behavior_strategy(rng, game, i)
                                  for i in range(game.n)]) for w in weights]


def _game_with(rng, predicate, **kwargs):
    game = random_game(rng, **kwargs)
    while not predicate(game):
        game = random_game(rng, **kwargs)
    return game


def _zero_first_chance_branch(doc):
    """Move the first chance node's first branch probability onto its
    second, leaving a probability-0 branch."""
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        if node["kind"] == "terminal":
            continue
        if node["kind"] == "chance" and len(node["actions"]) > 1:
            first, second = node["actions"][:2]
            second["prob"] = format_rational(F(first["prob"]) + F(second["prob"]))
            first["prob"] = "0"
            return
        stack.extend(reversed([item["child"] for item in node["actions"]]))
    raise ValueError("no chance node with two branches")


@functools.cache
def _cases():
    cases = [(name, fixtures.fixture_text(f"{name}.game.json"),
              fixtures.fixture_text(f"{name}.{kind}.json"))
             for name, kind in (("ebos", "profile"), ("lrr", "behavior"),
                                ("surj", "profile"))]
    rng = random.Random(1313)
    for k in range(16):
        players = 2 if k < 12 else 3
        game = _game_with(rng, lambda g: g.n == players and g.num_nodes >= 12,
                          max_players=players, max_nodes=40, max_depth=7)
        components = _random_components(rng, game, rng.randint(1, 3))
        cases.append((f"random{k}", serialize_game(game),
                      json.dumps(_behavior_doc(components))))
    for k in range(3):
        game = _game_with(rng, lambda g: g.n == 2 and g.num_chance_nodes > 0,
                          max_players=2, max_nodes=40, max_depth=7, chance_prob=0.4)
        doc = json.loads(serialize_game(game))
        _zero_first_chance_branch(doc)
        components = _random_components(rng, game, 2)
        cases.append((f"zero-chance{k}", json.dumps(doc),
                      json.dumps(_behavior_doc(components))))
    game = _game_with(rng, lambda g: g.n == 2 and g.num_nodes >= 12,
                      max_players=2, max_nodes=40, max_depth=7)
    components = _random_components(rng, game, 2)
    components.insert(1, (F(0), components[0][1]))
    cases.append(("zero-alpha", serialize_game(game), json.dumps(_behavior_doc(components))))
    plans = [[(beta, random_pure_strategy(rng, game, i)) for beta in (F(1, 3), F(0), F(2, 3))]
             for i in range(game.n)]
    mixture = [(F(1, 4), plans), (F(0), plans), (F(3, 4), [plans[0][::-1], plans[1]])]
    cases.append(("zero-beta", serialize_game(game), json.dumps(_mixture_doc(game, mixture))))
    text = serialize_game(game)
    wide = next(iset for iset in game.infosets[0] if len(iset.actions) > 1)
    first, second = sorted(wide.actions)[:2]
    good = _behavior_doc(_random_components(rng, game, 1))
    spoils = {"sum-2/3": {wide.id: {first: "2/3"}},
              "negative": {wide.id: {first: "-1", second: "2"}},
              "unknown-action": {wide.id: {first: "1", "zz": "0"}},
              "missing-infoset": {wide.id: None}}
    for name, spoil in spoils.items():
        doc = json.loads(json.dumps(good))
        behavior = doc["components"][0]["behaviors"][0]
        for iset_id, dist in spoil.items():
            if dist is None:
                del behavior[iset_id]
            else:
                behavior[iset_id] = dist
        cases.append((name, text, json.dumps(doc)))
    return cases


PINNED = {
    "ebos":
        "8b11a9cb9f2a036ab73d424f1b779b270c324f9638992ee617eed5dfbab3af9a",
    "lrr":
        "9bb3f06b05a6d5a2d3ee1d2d4c11e6c331065b8030fd045ba3a5c668a764703e",
    "surj":
        "a7772fb825ebfcc7972f0f7c85cc215dad3afd0aeb62a79cec446f0e56aa96f6",
    "random0":
        "c7617db417ea01eb4730dfe31b6409a97fcf96e9e33484860967665ecabca06b",
    "random1":
        "167fb4d7f95ca4b34a8bbca46c95a4f69f74d7a1a5088fbbbfdc45034db18605",
    "random2":
        "f40e2bebb740af60db9d03e8a710d9b2eb67ad90001af95340c6266394424f5a",
    "random3":
        "4c8c181eac347359794f018b04b6c4dd3e5a9236306b4d21e17bc7013a6e3232",
    "random4":
        "8e3193e6011e12de7244a80cd1281678f8a059a59c49043dc0e1d510881346ce",
    "random5":
        "9faddc57af3924d17150549e85a26090728086831c49b3771cc7ccf5a841e3ea",
    "random6":
        "2c6bb7386a684fac60deb42421c0451a42478131ab89b009f6b9c96175ac78f1",
    "random7":
        "925911f32cd7c4feeedcc020f46ab314b649704edd8c1a33632ef25c7c38c519",
    "random8":
        "732cfa8b88f62580306549b4795f5d0e486a7b0906a599243611067d67cb08a9",
    "random9":
        "57edf69dc3097171797ac20b1b562c678d84e4352aba43cceea487c47a8a053a",
    "random10":
        "0f14d63f9c6df9b47e0de1fe1e11b154acfc7cf3207438a6295033069394a2fe",
    "random11":
        "a441850dfd12aea3fe3571c4b3eca0e91236f2ebca908b662c30d8ac1d988cdc",
    "random12":
        "4a44a533ce744f70e20a0d608874d6a03eefa6b23642cca5839ce4dc0c3d102e",
    "random13":
        "0b3ce9a6664a16329e2110fa6e779a11f0ae97b163bedbdd6f1d2eacb16fcf9c",
    "random14":
        "af976c307c9d6c222c3eec39c1e5be278d4a256e1e3644bd823ffd8ad5e56d5d",
    "random15":
        "4825b145590f917e28ad75fed3318c5ee0920a60cfc7893af1793f7d01d2c821",
    "zero-chance0":
        "2c32a8bdb985f181530d4b356c540240ed5157d7378ffb61564af7c5345c62eb",
    "zero-chance1":
        "be0bdbbfb2149f3ef843d9b54bbc7b28ea71e6946cc2a2350e0e71987ad2c0c7",
    "zero-chance2":
        "a2c50164c7ddea801d9c33d330b3043724b2c1880b6885457a6884d218960f85",
    "zero-alpha":
        "7501c27066375739c5fcdc9afbd01dfab9712d29558c54362ed61138ae9a39b6",
    "zero-beta":
        "0d30bc04c25f39076e72631d3e24245a3c8bc1c9d3688ec95e65f3e5f7ba959d",
    "sum-2/3":
        "ba6a97fcd7888796afab3c7c37adbc9eecdb417096a04775988c8b7080440fb7",
    "negative":
        "b24c2fa5315a5215df6e644cc0dbf5cefbe63ec3c65bae2b02bf3f60de6fbacb",
    "unknown-action":
        "b5e99cc4d4120586f2e19ec247c51c469392db15b8abc7b2b369fa81b4534da6",
    "missing-infoset":
        "eca6ede432a25edc5094216b9483b4dbc7ec53b51cea036c9fe33d9cae888809",
}


def _digest(capsys, tmp_path, name, game_text, profile_text):
    stem = name.replace("/", "-")
    g, p = tmp_path / f"{stem}.game.json", tmp_path / f"{stem}.profile.json"
    g.write_text(game_text)
    p.write_text(profile_text)
    code = main(["convert", str(g), str(p)])
    out, err = capsys.readouterr()
    blob = json.dumps([code, out, err]).encode()
    return hashlib.sha256(blob).hexdigest()


def test_cases_cover_what_they_name():
    names = [name for name, _g, _p in _cases()]
    assert len(names) == len(set(names)) == len(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_convert_output_is_pinned(name, capsys, tmp_path):
    game_text, profile_text = next((g, p) for n, g, p in _cases() if n == name)
    assert _digest(capsys, tmp_path, name, game_text, profile_text) == PINNED[name]
