"""``gt gap`` in all four notions, pinned byte for byte.

bce and full-efce report a :class:`HistoryPolicyWitness` whose policy lists
recommendation histories in the order the history table first meets them,
so their pins hold the table's state keys and ordering, not only the gap.
The efce and nfcce pins hold each report's witness and per-player gaps, so
they also pin the lowest-index tie rule between players of equal gap.
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

NOTIONS = ("efce", "bce", "full-efce", "nfcce")


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
    "ebos/efce":
        "59371a868ae1b3eef6c4f75604de98b53a96a1ed987d3d8c535acdc4f9308075",
    "ebos/bce":
        "c62ba8f7d2e73ffc97b2f258e92218e70ee1e4830499dd89c1b657ce7608fa8d",
    "ebos/full-efce":
        "0166cf729843c61ef87410a093c3e0dffee8d3fbbd6063fe3ba342c2517d764d",
    "ebos/nfcce":
        "966bf219496a82f6f56733781b306208ce68cb1ebd826a7de504988fa11a6311",
    "lrr/efce":
        "7cc9fe6cded4fba8facb7337dd7a2740cb474136fdf2848974272d7af6d6bded",
    "lrr/bce":
        "bf45ee78d80747935da86b6bf205f67eec4c6e63c4ab133abbeb11e5a22d77ac",
    "lrr/full-efce":
        "991d71acc3f73b670978ed9eb173c5c737e3568b16c7beca4aa910fcec1fe55b",
    "lrr/nfcce":
        "75a07ecf4488f8f6d3cd002c7eb36fa1db9b8b57fe3961f26f980fd6c8da260c",
    "surj/efce":
        "59371a868ae1b3eef6c4f75604de98b53a96a1ed987d3d8c535acdc4f9308075",
    "surj/bce":
        "7af6817cdcea8008163b0fe355be293e4a0d74ef9a13a31721480720ab181192",
    "surj/full-efce":
        "7e58503859146850b56cf46aae9c9bae71d5c42489c21b2f9ced4c2e85a734c1",
    "surj/nfcce":
        "2fd7e86d9eda69dd7345e75b83bc5113b748d6d19ff736ebb2c696d130a59227",
    "pure0/efce":
        "891505c855242edf99662b3f5f92be839f5121665a2f09bb2f4150adbf82514b",
    "pure0/bce":
        "7c484a57daec8b65e3af64ed9cc9fb4300e94e2b3238f798cffacf722e97f3e3",
    "pure0/full-efce":
        "80cfed354a6ee52852f1c809370ade067db035d9229dbc6bdedc3add88ae89af",
    "pure0/nfcce":
        "731c673da162aaef85bb0b83e2f655515620defab59b9eafba9166e71dfc52b1",
    "pure1/efce":
        "9959b6227533464d03492ba94b791c5a31574973cc3b25f9cbdbb313385115cb",
    "pure1/bce":
        "36b212ae8ce0cac09d3a3f767cb45e01c1993c5917b28cc83851142a9ed4d260",
    "pure1/full-efce":
        "44c87ae20d4b4ef8c6a7910d80f2c3e22c109609d8f87100812ad6b1f3d2073f",
    "pure1/nfcce":
        "9f954d74b66894474c3dff7d197c71da442b43d777d064f14579bab957c67758",
    "pure2/efce":
        "7987ef8c89c494e87f446fca108510406783c2c1dd10117ed45038b9cb59bf57",
    "pure2/bce":
        "a420cd2d40deb932880c926f614c5a4f4660861e1dfb5e0be32e03152e1b13fd",
    "pure2/full-efce":
        "0940ca89e968aebdbe916732dfa17234b14c2904722afdc6bfdf699bcc76b48f",
    "pure2/nfcce":
        "4adb605ec735d83f1a519d2eb6836f36c3f45e4e97c6c3f772838e23ad702771",
    "pure3/efce":
        "11548c17284304353228618b805aba147d2bb962508674552f57f2a6964e9454",
    "pure3/bce":
        "dd6ddc2d4cc87cc9fb2c056c60f4b09e8554f4d0e65c1fad7243607193bf8dd1",
    "pure3/full-efce":
        "638a33a26719e7d269b938b5ec8c04fb3c543983131c24828b5c140eb2f9bb04",
    "pure3/nfcce":
        "b05feb94b43adbff4c9da01e81d76bb1a228efe8558a54ffff2d0183e0e2a67b",
    "pure4/efce":
        "8ddfa0dba2cdccf95e6cbb314a98837cf4173dd5e1bbc274efe87c4be192970d",
    "pure4/bce":
        "f887e3a269c6272c12d4859cb28e7dbe99ae3eb53b079bc8b960c62af350ca08",
    "pure4/full-efce":
        "1b288e926f542056284f8ec3e012935d6a015d06127ed8b2074eeab0b23e604b",
    "pure4/nfcce":
        "39fe3364080e042d3ed94323872df1c7c9e76ee26a54fe666d74e2dbbb6c3a18",
    "pure5/efce":
        "f3a155ebe321cda5ba4e7e8b2b452ea635e36e2de3bdb2ec2aa96b0f819e229e",
    "pure5/bce":
        "74de39dd20beec024b16bb738be16a7296901e998681d86d5b745caa33ec6a12",
    "pure5/full-efce":
        "4a0ae3a2892d6cff77c392472889181e6573cba71a6602574ff9c5aa7507c34e",
    "pure5/nfcce":
        "0cb4b1edfb8e8f4be09ac3819314d97f4dd4e4b1adb4b81de0d621e757eea65c",
    "pure6/efce":
        "dd0285f735c178b39473a12820f09433d5ffe9bd9ae209a41f9860e2112aba59",
    "pure6/bce":
        "f70457fc809c0b93a3abf1d454beb39bcdf9dd3ccd255996865984c789ec71e5",
    "pure6/full-efce":
        "ff8c562e35a86f535e7e47d2cfed23d081df376ca0df8f003b7410deef23fa26",
    "pure6/nfcce":
        "f825454a112a226184efa5b2250c37a4404bf1c2ebf41187c26b8ea4f708e4a1",
    "pure7/efce":
        "5387015f63e980303b6254257b583e84aa945d031db7290ad840a33b3bab2991",
    "pure7/bce":
        "c5c1d8569b213f785537d08a4a26885cddefd07da3bec3518827ddcb2d65fbf0",
    "pure7/full-efce":
        "7549da3cc7f527d91b39dee8f86ce3290bdcd5cb630cb64b79a076a1d8b384f7",
    "pure7/nfcce":
        "00d689601cbcb5363febf3baffd071c8203b0a3c7593088648ddf2755d81ffe9",
    "pure8/efce":
        "32fd899c69ef4c25a6e5d672143256a0245ae9e4fe9659c249b43db7684bcd0c",
    "pure8/bce":
        "6cbf753af6fd8cec38ae736031d5bae3914932ed7e9dd6374fddc32aaf142165",
    "pure8/full-efce":
        "8085b9589d6c9ab412b4c244dc3342ac51c96695a0b4afe2b7a4227518f15a67",
    "pure8/nfcce":
        "87f35ab634039b7aff2ca85f1bd4be451d5340d611a6b16d7fccc3d76e80da60",
    "pure9/efce":
        "c44883b374f2b2f951c28437b6965bd418507902526453eea681176318edd468",
    "pure9/bce":
        "cc8922d6deee89d4f69735d325e16b814ea4395af2ba4579985054667230a42b",
    "pure9/full-efce":
        "21f821f29e90354c4fa7f63151a82f59fa028ff1f7279e358daecd3394b01688",
    "pure9/nfcce":
        "5052552a5f995aa31eb113fe50ddef8ce832cf6797b7a6b7cf3784a11367a27e",
    "pure10/efce":
        "cd8eef7700117e0672d4dc287969a4ec4d299e417bb625738c4c80b9ef141b5f",
    "pure10/bce":
        "5bffacfbb437ba03fcbf99c7cc202c3acd2de33060e6ee99ea92e13e535dc2ea",
    "pure10/full-efce":
        "3e4eacaafb4d069ee611165faddcad368e327fb4e17be2e5ad684cd27ad6f65a",
    "pure10/nfcce":
        "9fd7b969cc8336ca7a34b0a2dbdc26635fbd4dac470d32ccb4981ea4cbb5b7d9",
    "pure11/efce":
        "e5a5793b47678ce8aea624f0e35f82cc5f790f9b800115cabaa40edb4d47eda2",
    "pure11/bce":
        "7857c3eca290af4d2e22fdcf2dea9e2164123d7379addbed011529d2736520eb",
    "pure11/full-efce":
        "f6222e96b8f1969e25dcc5df6f4cb56410e79d02a83cb15ea311c8ab03a83d0c",
    "pure11/nfcce":
        "a4baeb37b284d5353e324c8a4a6915bcd0d77fed3b61a2b94a8d5e40b0bf56a8",
    "mixture0/efce":
        "e7bc79d7f6b7953bd068fba76801ad54ced011a942eb35875556f5632f451858",
    "mixture0/bce":
        "59e1b8db5105436c21215896b8db7ce2c96a8254ec2d98b86f39b82af569bc37",
    "mixture0/full-efce":
        "aea5f684022d8abbadb062689f9f9ec55c29f48cc220b8a4c83abee2bcd3b9ae",
    "mixture0/nfcce":
        "fb521c556a31642df3e961caa79666ee2696000a9dcf9f78112ee6166c6b43b0",
    "mixture1/efce":
        "28bda4d36cf50f96e4daee8dcd33446519192309db2de531abe9b423369f630f",
    "mixture1/bce":
        "f6c109315a543895bcfc7cada7314c3d64231fcd43675d5b4f125e4940fa94ab",
    "mixture1/full-efce":
        "60f28b212fdf8bcafcae15ea7ae7990cd0e7c8c15c2bd7a337bc1f87aaa8a37f",
    "mixture1/nfcce":
        "b40c36e7f71527e77a6742f24e22c2665dcda894e58cfd3c49b1afc0dcb59cf0",
    "mixture2/efce":
        "e2ce22bd97e0c9cb45a59bdb5f1fb484be443d9b32118cdfd93505da413fb429",
    "mixture2/bce":
        "987996a604b2b0397cc12fdc6a837d0c24e320de35411598d4b48c158463985e",
    "mixture2/full-efce":
        "a0750afcd2b36805ac31198ce24627da8c2a894f47f6094f496d2e704ec6528f",
    "mixture2/nfcce":
        "0d7855e92ecd2e4ff8c9e8c9b868537397ff8ba54285e3ff7cde3afea1d59c3e",
    "mixture3/efce":
        "b7fa667ffbf1fefe233cc2adb6a288f60d255afd57d502e5188766398a870e6c",
    "mixture3/bce":
        "18cf4b9482c13d22026efd60f2de34d37006deeaee84642c1a92a6ce01016d18",
    "mixture3/full-efce":
        "8dbc72dd2c5fe6b5916c44fd8228d0ef767d03aa964ee204fedb4338ad2dda92",
    "mixture3/nfcce":
        "a6968a83a8d8509ce0cfce7aaa30f996c40b3aaf8451ec790f19d5cda9014235",
    "mixture4/efce":
        "29824a6007d166c6da7354e728d2742bd7257c89dfca6bc41de3ea55c04c2a73",
    "mixture4/bce":
        "21f35992a926bd044fea39b4b2d808c9a7f1f87aa46cfdf5cc1ec00c3f27f863",
    "mixture4/full-efce":
        "48ad3e19f7e14b2851adb570c5a64790eb2c89c60c88c95d2b90d8767dbc6fb1",
    "mixture4/nfcce":
        "30134c908fe511f0b5255e7c850d5539d6410140325bb40d454f7bba3e6eca11",
    "mixture5/efce":
        "51f74484a700320d0c1c8899bdaeebb6e97427a06e54dc1033a4f5054372cec4",
    "mixture5/bce":
        "33392d7a8bee09ea9b7d29a880561699e17bc24df7932613fea3d3a3b49b7f5e",
    "mixture5/full-efce":
        "e881758299b3ae69c4681b568d088bb3da1e59b933f7434705d1a4812c1eacee",
    "mixture5/nfcce":
        "35d531da7200215f0dce39e6248f20b92624a1a1395c71892ae59b038efa4338",
    "mixture6/efce":
        "96b25853b768daa8e1b700fb01d527d5799c3705f77d8e0140342087b9be234c",
    "mixture6/bce":
        "86f72a743a39fa347eb510be835e4f7b1168667352d2b57955fd16045081f728",
    "mixture6/full-efce":
        "e5a1ce25aa0fb5eb9c3cfd0816d59135f6648b3eefbb65b72dae657c4bbf64fa",
    "mixture6/nfcce":
        "31c63528ff331a70ab23cdbf600a29e39dbb8c5ecc8b0a1c044ca8d94fc955e6",
    "mixture7/efce":
        "f4f99c15add6710c2b447b72dd724d5e06dbf675b68f74a1d5f6a22d409d3edb",
    "mixture7/bce":
        "96e678d12093a22fab8c92c018066a5fd3e37fe018a74ff2663908bb76dcfed4",
    "mixture7/full-efce":
        "f6e104ce6e8416e41d261c186e46791cb8175b9ecb3c23904c1356d057630c9e",
    "mixture7/nfcce":
        "de474747fcd16f2e7420a3cf0019b85da337bbd11fa643519ff8a7334cce837b",
    "mixture8/efce":
        "491727b936c95a73e1894792dc05361b1cf2bda10938eff3d4d338316abede97",
    "mixture8/bce":
        "37a4c20dceaa1532a612748adced6b6cd49ffa908f0c513b304661f01f64ce72",
    "mixture8/full-efce":
        "4627b9e6cc121337bedc561142d1103617694e283bb00813fd2ccd21d12ef5ea",
    "mixture8/nfcce":
        "ec99aa56a0651b2d34b3f85afc0ebc15b2c0d102502281b26a76597a2dca73b2",
    "mixture9/efce":
        "3f30c3f63246490e9f416eb772f8427d308f9afa998e5580b570b4f63475785f",
    "mixture9/bce":
        "b8bae63d5f48f50a723fd8cef7b9d306086e21437820fe3c708c3b45759cc2df",
    "mixture9/full-efce":
        "3aa7aa5d6a9e234af79b24c54d904132178119462b20b08ab890a9e45458e092",
    "mixture9/nfcce":
        "158f0832aa22740035c08e92e7d0c900a3d88ec319d8fe54a7f78433fcc71b12",
    "mixture10/efce":
        "1fcdabd54e580ca75c59b54fe8af79fbfd6c0414e624ea3f35d82ca1cfdc2b3b",
    "mixture10/bce":
        "b508de3be3b8a5cda40fd234c98bffd9daa4a62716deedfe5952305ad3333855",
    "mixture10/full-efce":
        "0d46dc3d2b6c00e9495bde73eb63c3206b743f5cd3bc6fec061fdfa10056b59c",
    "mixture10/nfcce":
        "68e0a0debe33753fb9b642e12e7e47772160e0ad495aa7905d06d57b9176ea77",
    "mixture11/efce":
        "68f47d631a306a418849b835e23b44a2f997d4b0a27f87a48c4ae6083addf115",
    "mixture11/bce":
        "2e6fb64689d5cd822982ba2f2553c4af226808af5bd8b33c74ccb1b8d48985ea",
    "mixture11/full-efce":
        "3a76b72beb225167ed45d541c7ecf71b7de632673f61ecb276b2f79914fad62a",
    "mixture11/nfcce":
        "62b604ffe8f6fdad92c4ff135142f3cec94ae66d2db18f35302055f0825c7516",
    "zero-alpha/efce":
        "59371a868ae1b3eef6c4f75604de98b53a96a1ed987d3d8c535acdc4f9308075",
    "zero-alpha/bce":
        "4c3ef5bcfb19174fbf5b15d99d32954d63003816992fbe7b6e573d6c99dbdbe2",
    "zero-alpha/full-efce":
        "dd9e003687d2d8ab04518b5c9a6c22fea612ce195a4ba3df877c010ab2463951",
    "zero-alpha/nfcce":
        "e979e5df0d0a935ce402033f9276aa5b8a4b5db072b2b943c10401d9722b6881",
    "zero-beta/efce":
        "3de4ea666b0e6dfe33fab87d3e44db1874cf179cffe2ca721ea81f4e42a94564",
    "zero-beta/bce":
        "089ca50b24dfb66f25a560fee797d85a7c73f8aab5a9b2d9ad045977a96e2b69",
    "zero-beta/full-efce":
        "1f99bce1d10876582c575017b66db98ad95860a63101b867e3550b8e561f8c99",
    "zero-beta/nfcce":
        "830fbb659222dbde989c3e2dc3ac3df5fad1c2ddf5b031c69b290aeb0fa5f2a1",
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
