"""``gt gap --notion bce`` and ``--notion full-efce``, pinned byte for byte.

Both notions report a :class:`HistoryPolicyWitness` whose policy lists
recommendation histories in the order the history table first meets them,
so these pins hold the table's state keys and ordering, not only the gap.
Each case is a (game, profile) document pair: the three fixtures, seeded
profiles of the ``audit`` benchmark's two families (pure-profile mixtures
and behavior mixtures, 2 and 3 players, games of 20-60 nodes and depth at
most 6), a profile with a zero-weight component and one with zero-weight
plans. ``PINNED`` holds the sha256 of each (case, notion)'s rc, stdout and
stderr; a change to any of them fails the test.
"""

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from gametree import fixtures, serialize_game
from gametree.cli import main
from gametree.randgen import (random_game, random_mixture, random_pure_profile_mixture,
                              random_pure_strategy)
from gametree.rational import format_rational
from gametree.strategy import serialize_profile

F = Fraction

NOTIONS = ("bce", "full-efce")


def _game_with(rng, players):
    game = random_game(rng, max_players=players, max_nodes=60, max_depth=6)
    while game.n != players or game.num_nodes < 20:
        game = random_game(rng, max_players=players, max_nodes=60, max_depth=6)
    return game


def _mixture_doc(game, components):
    """A mixture-schema profile from ``(alpha, [[(beta, plan), ...] per
    player])`` pairs; unlike :func:`serialize_profile` it keeps zero
    weights."""
    return {"components": [
        {"alpha": format_rational(alpha),
         "strategies": [[{"beta": format_rational(beta), "actions": ps.assignment(game)}
                         for beta, ps in mix] for mix in mixes]}
        for alpha, mixes in components]}


@functools.cache
def _cases():
    cases = [(name, fixtures.fixture_text(f"{name}.game.json"),
              fixtures.fixture_text(f"{name}.{kind}.json"))
             for name, kind in (("ebos", "profile"), ("lrr", "behavior"),
                                ("surj", "profile"))]
    rng = random.Random(1616)
    for family in ("pure", "mixture"):
        for k in range(12):
            game = _game_with(rng, 2 if k < 6 else 3)
            if family == "pure":
                pi = random_pure_profile_mixture(rng, game, support=8)
            else:
                pi = random_mixture(rng, game, max_components=2)
            cases.append((f"{family}{k}", serialize_game(game), serialize_profile(game, pi)))
    game = _game_with(rng, 2)
    plans = [[(beta, random_pure_strategy(rng, game, i)) for beta in (F(1, 3), F(0), F(2, 3))]
             for i in range(game.n)]
    mixture = [(F(1, 2), plans), (F(0), plans), (F(1, 2), [plans[0][::-1], plans[1]])]
    cases.append(("zero-alpha", serialize_game(game), json.dumps(_mixture_doc(game, mixture))))
    game = _game_with(rng, 3)
    plans = [[(beta, random_pure_strategy(rng, game, i)) for beta in (F(0), F(1, 4), F(3, 4))]
             for i in range(game.n)]
    cases.append(("zero-beta", serialize_game(game),
                   json.dumps(_mixture_doc(game, [(F(1), plans)]))))
    return cases


PINNED = {
    "ebos/bce":
        "c62ba8f7d2e73ffc97b2f258e92218e70ee1e4830499dd89c1b657ce7608fa8d",
    "ebos/full-efce":
        "0166cf729843c61ef87410a093c3e0dffee8d3fbbd6063fe3ba342c2517d764d",
    "lrr/bce":
        "bf45ee78d80747935da86b6bf205f67eec4c6e63c4ab133abbeb11e5a22d77ac",
    "lrr/full-efce":
        "991d71acc3f73b670978ed9eb173c5c737e3568b16c7beca4aa910fcec1fe55b",
    "surj/bce":
        "7af6817cdcea8008163b0fe355be293e4a0d74ef9a13a31721480720ab181192",
    "surj/full-efce":
        "7e58503859146850b56cf46aae9c9bae71d5c42489c21b2f9ced4c2e85a734c1",
    "pure0/bce":
        "7c484a57daec8b65e3af64ed9cc9fb4300e94e2b3238f798cffacf722e97f3e3",
    "pure0/full-efce":
        "80cfed354a6ee52852f1c809370ade067db035d9229dbc6bdedc3add88ae89af",
    "pure1/bce":
        "36b212ae8ce0cac09d3a3f767cb45e01c1993c5917b28cc83851142a9ed4d260",
    "pure1/full-efce":
        "44c87ae20d4b4ef8c6a7910d80f2c3e22c109609d8f87100812ad6b1f3d2073f",
    "pure2/bce":
        "a420cd2d40deb932880c926f614c5a4f4660861e1dfb5e0be32e03152e1b13fd",
    "pure2/full-efce":
        "0940ca89e968aebdbe916732dfa17234b14c2904722afdc6bfdf699bcc76b48f",
    "pure3/bce":
        "dd6ddc2d4cc87cc9fb2c056c60f4b09e8554f4d0e65c1fad7243607193bf8dd1",
    "pure3/full-efce":
        "638a33a26719e7d269b938b5ec8c04fb3c543983131c24828b5c140eb2f9bb04",
    "pure4/bce":
        "f887e3a269c6272c12d4859cb28e7dbe99ae3eb53b079bc8b960c62af350ca08",
    "pure4/full-efce":
        "1b288e926f542056284f8ec3e012935d6a015d06127ed8b2074eeab0b23e604b",
    "pure5/bce":
        "74de39dd20beec024b16bb738be16a7296901e998681d86d5b745caa33ec6a12",
    "pure5/full-efce":
        "4a0ae3a2892d6cff77c392472889181e6573cba71a6602574ff9c5aa7507c34e",
    "pure6/bce":
        "f70457fc809c0b93a3abf1d454beb39bcdf9dd3ccd255996865984c789ec71e5",
    "pure6/full-efce":
        "ff8c562e35a86f535e7e47d2cfed23d081df376ca0df8f003b7410deef23fa26",
    "pure7/bce":
        "c5c1d8569b213f785537d08a4a26885cddefd07da3bec3518827ddcb2d65fbf0",
    "pure7/full-efce":
        "7549da3cc7f527d91b39dee8f86ce3290bdcd5cb630cb64b79a076a1d8b384f7",
    "pure8/bce":
        "6cbf753af6fd8cec38ae736031d5bae3914932ed7e9dd6374fddc32aaf142165",
    "pure8/full-efce":
        "8085b9589d6c9ab412b4c244dc3342ac51c96695a0b4afe2b7a4227518f15a67",
    "pure9/bce":
        "cc8922d6deee89d4f69735d325e16b814ea4395af2ba4579985054667230a42b",
    "pure9/full-efce":
        "21f821f29e90354c4fa7f63151a82f59fa028ff1f7279e358daecd3394b01688",
    "pure10/bce":
        "5bffacfbb437ba03fcbf99c7cc202c3acd2de33060e6ee99ea92e13e535dc2ea",
    "pure10/full-efce":
        "3e4eacaafb4d069ee611165faddcad368e327fb4e17be2e5ad684cd27ad6f65a",
    "pure11/bce":
        "7857c3eca290af4d2e22fdcf2dea9e2164123d7379addbed011529d2736520eb",
    "pure11/full-efce":
        "f6222e96b8f1969e25dcc5df6f4cb56410e79d02a83cb15ea311c8ab03a83d0c",
    "mixture0/bce":
        "59e1b8db5105436c21215896b8db7ce2c96a8254ec2d98b86f39b82af569bc37",
    "mixture0/full-efce":
        "aea5f684022d8abbadb062689f9f9ec55c29f48cc220b8a4c83abee2bcd3b9ae",
    "mixture1/bce":
        "f6c109315a543895bcfc7cada7314c3d64231fcd43675d5b4f125e4940fa94ab",
    "mixture1/full-efce":
        "60f28b212fdf8bcafcae15ea7ae7990cd0e7c8c15c2bd7a337bc1f87aaa8a37f",
    "mixture2/bce":
        "987996a604b2b0397cc12fdc6a837d0c24e320de35411598d4b48c158463985e",
    "mixture2/full-efce":
        "a0750afcd2b36805ac31198ce24627da8c2a894f47f6094f496d2e704ec6528f",
    "mixture3/bce":
        "18cf4b9482c13d22026efd60f2de34d37006deeaee84642c1a92a6ce01016d18",
    "mixture3/full-efce":
        "8dbc72dd2c5fe6b5916c44fd8228d0ef767d03aa964ee204fedb4338ad2dda92",
    "mixture4/bce":
        "21f35992a926bd044fea39b4b2d808c9a7f1f87aa46cfdf5cc1ec00c3f27f863",
    "mixture4/full-efce":
        "48ad3e19f7e14b2851adb570c5a64790eb2c89c60c88c95d2b90d8767dbc6fb1",
    "mixture5/bce":
        "33392d7a8bee09ea9b7d29a880561699e17bc24df7932613fea3d3a3b49b7f5e",
    "mixture5/full-efce":
        "e881758299b3ae69c4681b568d088bb3da1e59b933f7434705d1a4812c1eacee",
    "mixture6/bce":
        "86f72a743a39fa347eb510be835e4f7b1168667352d2b57955fd16045081f728",
    "mixture6/full-efce":
        "e5a1ce25aa0fb5eb9c3cfd0816d59135f6648b3eefbb65b72dae657c4bbf64fa",
    "mixture7/bce":
        "96e678d12093a22fab8c92c018066a5fd3e37fe018a74ff2663908bb76dcfed4",
    "mixture7/full-efce":
        "f6e104ce6e8416e41d261c186e46791cb8175b9ecb3c23904c1356d057630c9e",
    "mixture8/bce":
        "37a4c20dceaa1532a612748adced6b6cd49ffa908f0c513b304661f01f64ce72",
    "mixture8/full-efce":
        "4627b9e6cc121337bedc561142d1103617694e283bb00813fd2ccd21d12ef5ea",
    "mixture9/bce":
        "b8bae63d5f48f50a723fd8cef7b9d306086e21437820fe3c708c3b45759cc2df",
    "mixture9/full-efce":
        "3aa7aa5d6a9e234af79b24c54d904132178119462b20b08ab890a9e45458e092",
    "mixture10/bce":
        "b508de3be3b8a5cda40fd234c98bffd9daa4a62716deedfe5952305ad3333855",
    "mixture10/full-efce":
        "0d46dc3d2b6c00e9495bde73eb63c3206b743f5cd3bc6fec061fdfa10056b59c",
    "mixture11/bce":
        "2e6fb64689d5cd822982ba2f2553c4af226808af5bd8b33c74ccb1b8d48985ea",
    "mixture11/full-efce":
        "3a76b72beb225167ed45d541c7ecf71b7de632673f61ecb276b2f79914fad62a",
    "zero-alpha/bce":
        "4c3ef5bcfb19174fbf5b15d99d32954d63003816992fbe7b6e573d6c99dbdbe2",
    "zero-alpha/full-efce":
        "dd9e003687d2d8ab04518b5c9a6c22fea612ce195a4ba3df877c010ab2463951",
    "zero-beta/bce":
        "089ca50b24dfb66f25a560fee797d85a7c73f8aab5a9b2d9ad045977a96e2b69",
    "zero-beta/full-efce":
        "1f99bce1d10876582c575017b66db98ad95860a63101b867e3550b8e561f8c99",
}


def _digest(capsys, tmp_path, name, notion, game_text, profile_text):
    g, p = tmp_path / f"{name}.game.json", tmp_path / f"{name}.profile.json"
    g.write_text(game_text)
    p.write_text(profile_text)
    code = main(["gap", str(g), str(p), "--notion", notion])
    out, err = capsys.readouterr()
    blob = json.dumps([code, out, err]).encode()
    return hashlib.sha256(blob).hexdigest()


def test_cases_cover_what_they_name():
    names = [name for name, _g, _p in _cases()]
    assert len(names) == len(set(names))
    assert sorted(PINNED) == sorted(f"{name}/{notion}" for name in names for notion in NOTIONS)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_gap_output_is_pinned(case, capsys, tmp_path):
    name, notion = case.split("/")
    game_text, profile_text = next((g, p) for n, g, p in _cases() if n == name)
    assert _digest(capsys, tmp_path, name, notion, game_text, profile_text) == PINNED[case]
