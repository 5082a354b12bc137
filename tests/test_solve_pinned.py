"""``gt solve``'s exit code, stdout and stderr, pinned byte for byte: with
``--notion bce``, and with ``--notion efce`` at ``--epsilon`` 0 and 1/4,
each with and without ``--objective``.

Each case is a game document and an objective document: the three fixtures
and seeded ``randgen`` games, each with a ``random_objective``. In 9 of the
46 cases the off-path rewrite changes the solved profile, so both of its
branches (a new reach for the output, or the input's) are pinned. The stderr
report is normalized before hashing: its ``wall_time_s`` is set to 0 and the
temporary directory the documents sit in is replaced by ``<tmp>``, so only
what the program computes is pinned. ``PINNED`` holds the sha256 of each
case's rc, stdout and normalized stderr; a change to any of them fails the
test. ``EFCE_PINNED`` does the same for the 92 efce cases, keyed
``name@epsilon`` (plus ``+objective``).
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


EFCE_PINNED = {
    "ebos@0":
        "5cfe7d08e343cc09f65ba6c96b1f1a686fa90d39662bc4fe3f8ccebb77ce3ee2",
    "ebos@0+objective":
        "b7c8efcdbf70452541c178d306c842505f22ccc64dfbee487528d691b7065286",
    "ebos@1/4":
        "b8297fec98fb36b54add15613fc5a18cf6910682673844d4297972fb58fc7bad",
    "ebos@1/4+objective":
        "6e9e57eaaf2701a370594fb1777f81cf094f276018eb4da7bb7fd3b308bab47a",
    "lrr@0":
        "66989b9c584015f20b7cd5a1f2c3ac33a3f1afd9913997bc8b8212b071c91bd7",
    "lrr@0+objective":
        "ef075a6adf36310e5c5949ffd43eb7c18f3d6236e3ec6432e8701276e827cda8",
    "lrr@1/4":
        "66989b9c584015f20b7cd5a1f2c3ac33a3f1afd9913997bc8b8212b071c91bd7",
    "lrr@1/4+objective":
        "dc4ac0b5bac85ef8c67fb7668d6ee7f901a59c882da776057eb07aea6a278dd3",
    "random0@0":
        "38b0bec58454f13cb4af35b1ef3247f73a680dfdde132e25d53b8169db9d57d0",
    "random0@0+objective":
        "6b566c87c6382a32d9aa55f6174dfb9ee26d3330bfceb9181c3afa269bda962a",
    "random0@1/4":
        "d1af505f1d35a2ea6dd95496a78e63456f28a37756d4808388780d130a635b7c",
    "random0@1/4+objective":
        "ab7d82ea1de52aa1f01c179fa15c8482cc956c09191137f30b59b9461e25d58c",
    "random10@0":
        "b646342f94a9c93daa7e076180a33529f7c536944c387a71141ccaadefd1a274",
    "random10@0+objective":
        "b7b11b6da6297e8eac4328600fe4987ac2d1fa162cbf74be14f2ca516eb4f360",
    "random10@1/4":
        "84ede5c8c8d7f4bf978e47c2f1c0c087661cdfd7c99a34501218ae05ddd58d2b",
    "random10@1/4+objective":
        "57ef29f61ae6caa147c6575b1cc1d9951c01e3397f67e2c044144eaca39db94c",
    "random11@0":
        "ba2b7cb4422fe5b74b81218fd1274b92d2670480096a6c7932822b129e0f37cf",
    "random11@0+objective":
        "7d92a354aaf087d58f78203973f3aea01fe548d39625c748f602257f81eeb8d7",
    "random11@1/4":
        "ba2b7cb4422fe5b74b81218fd1274b92d2670480096a6c7932822b129e0f37cf",
    "random11@1/4+objective":
        "180144b196fe449edc765a190a824013d8e5f12c3fd7f7aa15c18448b05686b9",
    "random12@0":
        "91dab43b26e63b4a21bc439909470c3b2dce0b1c4548bb46000d8010200967f4",
    "random12@0+objective":
        "2a6544ab5ce464d3c5ad1afc0c8b58041fdea1eab89675e08248f7ce56c3e687",
    "random12@1/4":
        "91dab43b26e63b4a21bc439909470c3b2dce0b1c4548bb46000d8010200967f4",
    "random12@1/4+objective":
        "2a6544ab5ce464d3c5ad1afc0c8b58041fdea1eab89675e08248f7ce56c3e687",
    "random13@0":
        "7dd448d6cb26c0f2c026e445da86139d689a47346d29676ddb86df355b9db78a",
    "random13@0+objective":
        "eb830891e9fbcd8af03045ff63aa553285e7c0759cf471e614d81975933b7326",
    "random13@1/4":
        "7dd448d6cb26c0f2c026e445da86139d689a47346d29676ddb86df355b9db78a",
    "random13@1/4+objective":
        "eb830891e9fbcd8af03045ff63aa553285e7c0759cf471e614d81975933b7326",
    "random14@0":
        "124c5230957420178c4863b58b8da348e18561d247db3997d4ba10c012d0b057",
    "random14@0+objective":
        "4895f87168defecdc0aec4ffc9bb26d8fc3c03737179dbf6b3b4b52c4919a759",
    "random14@1/4":
        "94476f84fffc16a5fd9ed1876302e584a6696266b224ed1ddc2b1963df3175cf",
    "random14@1/4+objective":
        "4895f87168defecdc0aec4ffc9bb26d8fc3c03737179dbf6b3b4b52c4919a759",
    "random15@0":
        "67bc0b2f5723e542a341715162fe064dc10e31fb9a602ceb5a9600ed4fb6ea54",
    "random15@0+objective":
        "fb8043c5a9789182dfc688ed17d406603c246ad344d198e8e0e72f2adbd4f42b",
    "random15@1/4":
        "f17bbc4eab5c7a95c2006372def5ca07211682cb30ffa9065694c86878f0881b",
    "random15@1/4+objective":
        "fb8043c5a9789182dfc688ed17d406603c246ad344d198e8e0e72f2adbd4f42b",
    "random16@0":
        "31ae510412d3232bac8a4e030a1cc28b6e8215ff62a8e05d0f8ae592312adbb0",
    "random16@0+objective":
        "ab176444f4339cb472e4f5a1fd0afcea6e18ee59a85da4b4d32d43addb29ae4f",
    "random16@1/4":
        "899b42e6d769935bea3cf4f4719c33c2f4b79d2886df2493340ea03ab68ad767",
    "random16@1/4+objective":
        "ab176444f4339cb472e4f5a1fd0afcea6e18ee59a85da4b4d32d43addb29ae4f",
    "random17@0":
        "7bd1393d34226b86713af280bb532ec5bbcd4cf194db3572dd227b4147f105e8",
    "random17@0+objective":
        "8cc3582baf35e4c11e5a19be0ef1798178fdf2ff6a1c3da3c3293953680c2dc0",
    "random17@1/4":
        "205734bfbe5d9c25d8beea073bd4de19e3a2a9f88395adc6a0989744089768fb",
    "random17@1/4+objective":
        "09b657e938ecb0151503db6504a12f7da05fb850b4699b305c705684118dd47a",
    "random18@0":
        "c3c5c6430ef9720b651dc64f42e0b9db3aff08509a1cea540f7f34194658f1f4",
    "random18@0+objective":
        "18b798e7fe01c60e7fc642ec9d436c0f329ddeebc1330be17354ffa213af6998",
    "random18@1/4":
        "6acfc0b644f7cf25169d955f639ec3fbb850d36e857cd3a5de64416e191426b6",
    "random18@1/4+objective":
        "8598191dfb7f7dfa249f9771af45026bc5cc9a56bb59a2a990d89e30db71ac47",
    "random19@0":
        "077522621860d9fd9b93c7a3925f9e93f2711017e9af938c55dce5bf33d77883",
    "random19@0+objective":
        "eae5eb4bc31488402389d98c89973e3a8d7746e2c23c49003258964edb9e90ae",
    "random19@1/4":
        "077522621860d9fd9b93c7a3925f9e93f2711017e9af938c55dce5bf33d77883",
    "random19@1/4+objective":
        "eae5eb4bc31488402389d98c89973e3a8d7746e2c23c49003258964edb9e90ae",
    "random1@0":
        "ee8c64b7db30e1985245fec0c971eab9d35b627c4b7409165452689240883893",
    "random1@0+objective":
        "505b1a8287527611d8ccd848b9493300e55d5e569547b679e799356508f87f04",
    "random1@1/4":
        "ee8c64b7db30e1985245fec0c971eab9d35b627c4b7409165452689240883893",
    "random1@1/4+objective":
        "4fe4e7c7e6c689075a2d997bbbd4d151742e3f377f9b9f2cc7a813a980d6d887",
    "random2@0":
        "b7156b1c5b8eb7dcc035ae01dd8c9f21fe61bad299be127efd616703a932ee14",
    "random2@0+objective":
        "1f74f2f3e3a11a9fcf19f4e1ffab9d4e12592d96da83a058c23d379a8a8a3b8a",
    "random2@1/4":
        "ba82fa5399ede6c967a01c298c50f6fb3d7783af0dcf3d24c62041990ab33f2d",
    "random2@1/4+objective":
        "79fcdd115dd0b02ac43c50f370d397c73e7dfa83335500db9d071245932cd5b2",
    "random3@0":
        "af0d340bf3d37b65c82389bbee1fd418824f23405a1988a5df47116d7e943121",
    "random3@0+objective":
        "a2bf8554c88d844a35e45f21baa5263c6c74abe87cbe7380fd75dcec291d8eb5",
    "random3@1/4":
        "e737ab0f6aa4169232979226ea268891f38888c323a1409783ebbbee9a7a9369",
    "random3@1/4+objective":
        "61a395e88607b8a69c3cbd20c08f9dbf596cf63c0f62e8627f70963fa033c91f",
    "random4@0":
        "1516ce4b3a55ee061220bb3c2f187cc9b96df73cb5b59f8cce5bd12cbcb34766",
    "random4@0+objective":
        "91771371e551290263299ee8f4b94a13e63149fa50c8596d439cbe11ef14f667",
    "random4@1/4":
        "4270739e5e0be8a3d44eab207dc7d291cc6439c9fb1e7a307c2ce75259c851a9",
    "random4@1/4+objective":
        "35cf8192cb14f4abf3a728dc483f556922c50732fb5a30fbc16c6dad15b7484a",
    "random5@0":
        "0f001f7d89a5cec34de10ae20ba727255c13e691573077688e8d8547ddc56d93",
    "random5@0+objective":
        "40c0c8e85fee948a8a5cc848893a5b2c8e639cc7441f6f275072f120666cd481",
    "random5@1/4":
        "1ae338b8e69c70be930669aac38d3345ef94259d531a59a51d7ee2a5d51c39af",
    "random5@1/4+objective":
        "6c7505a5f68a04f297beae960ac18d0f8e0c5aa6d417ab72c9c7795618be77a1",
    "random6@0":
        "9edd3571b2ba4f900ccfbafd4129795c1302806e31e8bba4ff74d2b3a60cf806",
    "random6@0+objective":
        "83f7fd1ac5e83bd90b86a1a0e85f4efb2825f15321159e00a30cbd47ef7b5027",
    "random6@1/4":
        "ac7432c50b1c6b5a2c650962449814fbcb62d03e4c1642b732aad8cd1f8e3dfb",
    "random6@1/4+objective":
        "03915c56901c87ac7f630add49da1663dedb80e32066a2b3b91bfc40345a93cc",
    "random7@0":
        "e4ea20a9a3ed5f7c9f081d637a8019d737dcf8287876815268178e0be988df2e",
    "random7@0+objective":
        "5ce4c9c1d7af616939a79f1406971c58c71e018d9c558bc37bc9e4fbfca6a289",
    "random7@1/4":
        "e4ea20a9a3ed5f7c9f081d637a8019d737dcf8287876815268178e0be988df2e",
    "random7@1/4+objective":
        "5ce4c9c1d7af616939a79f1406971c58c71e018d9c558bc37bc9e4fbfca6a289",
    "random8@0":
        "2eec4039e3447f9f49177ace33253a793ad756b2cc7f04d7f80afa2fe0b41425",
    "random8@0+objective":
        "1ac03bc9f66f111e169a5f01d801fc0295bd25b814cd09af354d31814544ff45",
    "random8@1/4":
        "2eec4039e3447f9f49177ace33253a793ad756b2cc7f04d7f80afa2fe0b41425",
    "random8@1/4+objective":
        "35841f9d65c066990873b8bfe9733b6b6601ab3ac7353df39f41b212fa0336b1",
    "random9@0":
        "16cb09bfbb0202e0dd78700aad380aff7fe7e1c535beca86282c59e657e2a4a9",
    "random9@0+objective":
        "bb8abe9c6cea335a5adc29114b60b2a69fe2e7101b8cc0df6ee4c827d85682b3",
    "random9@1/4":
        "23126149c99f2a760ae70cb8d0b1c6fe260ec20d6d0789cb2dd3367f4bdd34f8",
    "random9@1/4+objective":
        "2bb54eeae958c83d729aea2b73549bc9b66f90f29cdd36cbfe27b0ed34e33c5c",
    "surj@0":
        "787ec04a24e640cadd84a8f5fd7707c07b483610b684d0d9549afcdbc5d27d4f",
    "surj@0+objective":
        "80ca7def7003ac0fa94083db53cd9b5ca4d9a48bebd8df92f498d4676b62c4c5",
    "surj@1/4":
        "cca54aec1af76a2b6a9bacb7a28927e54d57cc580970c0102edb5c3bf29ea049",
    "surj@1/4+objective":
        "913f0eeb43e791ef2273e599fe5764e9784aab518cd6118f2d5a8c770caf7f2b",
}


def _digest(capsys, tmp_path, name, game_text, objective_text, with_objective,
            notion="bce", epsilon=None):
    g, o = tmp_path / f"{name}.game.json", tmp_path / f"{name}.objective.json"
    g.write_text(game_text)
    o.write_text(objective_text)
    argv = ["solve", str(g), "--notion", notion]
    if epsilon is not None:
        argv += ["--epsilon", epsilon]
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


EFCE_EPSILONS = ("0", "1/4")


def _efce_keys():
    return [f"{name}@{eps}{suffix}" for name, _g, _o in _cases()
            for eps in EFCE_EPSILONS for suffix in ("", "+objective")]


def test_efce_cases_cover_what_they_name():
    assert len(_efce_keys()) == len(set(_efce_keys())) == len(EFCE_PINNED) == 92


@pytest.mark.parametrize("key", sorted(EFCE_PINNED))
def test_solve_efce_output_is_pinned(key, capsys, tmp_path):
    name, eps = key.removesuffix("+objective").split("@")
    game_text, objective_text = next((g, o) for n, g, o in _cases() if n == name)
    assert _digest(capsys, tmp_path, name, game_text, objective_text,
                   key.endswith("+objective"), "efce", eps) == EFCE_PINNED[key]
