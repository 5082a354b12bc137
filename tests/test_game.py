import json
import random
import sys
from fractions import Fraction

import pytest
from conftest import walk_tree

from gametree import (GameParseError, Sequence, parse_game, serialize_game)
from gametree.randgen import random_game, random_pure_strategy
from gametree.strategy import pure_terminal_reach


def game_of(doc) -> "Game":
    return parse_game(json.dumps(doc))


def terminal(*payoffs):
    return {"kind": "terminal", "payoffs": list(payoffs)}


def test_parse_ebos_shape(ebos):
    assert ebos.players == ("P1", "P2")
    assert len(ebos.terminals) == 8
    assert [len(isets) for isets in ebos.infosets] == [3, 1]
    iset = ebos.infosets[1][0]
    assert sum(node.kind == "decision" and node.infoset is iset
               for node, _parent, _path in walk_tree(ebos)) == 4


def test_parse_smallest_legal_game():
    g = game_of({"players": ["solo"], "root": terminal("0")})
    assert len(g.terminals) == 1
    assert g.validate().ok
    assert g.terminals[0].payoffs == (Fraction(0),)


def test_parse_lrr_shape(lrr):
    assert lrr.n == 1
    assert len(lrr.infosets[0]) == 2
    assert len(lrr.terminals) == 3


@pytest.mark.parametrize("mutate,where", [
    (lambda d: d.pop("players"), "players"),
    (lambda d: d["root"].pop("kind"), "kind"),
    (lambda d: d["root"]["payoffs"].append("0"), "length"),
    (lambda d: d["root"].__setitem__("payoffs", ["1/0"]), "rational"),
])
def test_parse_errors_carry_context(mutate, where):
    doc = {"players": ["A"], "root": terminal("0")}
    mutate(doc)
    with pytest.raises(GameParseError):
        game_of(doc)


def test_parse_error_on_bad_player_index():
    doc = {"players": ["A"], "root": {
        "kind": "decision", "player": 1, "infoset": "i",
        "actions": [{"label": "x", "child": terminal("0")}]}}
    with pytest.raises(GameParseError, match="player"):
        game_of(doc)


def test_parse_error_on_malformed_json():
    with pytest.raises(GameParseError, match="line"):
        parse_game("{\"players\": [\"A\"], ")


def test_serialize_parse_is_canonical_fixpoint(ebos, lrr, surj):
    for game in (ebos, lrr, surj):
        once = serialize_game(game)
        again = serialize_game(parse_game(once))
        assert once == again


def test_validate_flags_chance_sum():
    doc = {"players": ["A"], "root": {
        "kind": "chance", "actions": [
            {"label": "l", "prob": "1/2", "child": terminal("0")},
            {"label": "r", "prob": "1/3", "child": terminal("1")}]}}
    report = game_of(doc).validate()
    assert not report.ok
    assert {v.kind for v in report.violations} == {"chance-sum"}


def test_validate_flags_perfect_recall():
    # the two nodes of infoset "i2" disagree on the player's own history
    inner = {"kind": "decision", "player": 0, "infoset": "i2",
             "actions": [{"label": "x", "child": terminal("0")}]}
    doc = {"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "i1",
        "actions": [
            {"label": "a", "child": inner},
            {"label": "b", "child": json.loads(json.dumps(inner))},
        ]}}
    report = game_of(doc).validate()
    assert not report.ok
    assert "perfect-recall" in {v.kind for v in report.violations}


def test_validate_flags_action_mismatch():
    n1 = {"kind": "decision", "player": 1, "infoset": "j",
          "actions": [{"label": "x", "child": terminal("0", "0")}]}
    n2 = {"kind": "decision", "player": 1, "infoset": "j",
          "actions": [{"label": "y", "child": terminal("0", "0")}]}
    doc = {"players": ["A", "B"], "root": {
        "kind": "chance", "actions": [
            {"label": "l", "prob": "1/2", "child": n1},
            {"label": "r", "prob": "1/2", "child": n2}]}}
    report = game_of(doc).validate()
    assert "infoset-action-mismatch" in {v.kind for v in report.violations}


def test_validate_flags_empty_action_list():
    doc = {"players": ["A"], "root": {
        "kind": "decision", "player": 0, "infoset": "i", "actions": []}}
    report = game_of(doc).validate()
    assert "tree-shape" in {v.kind for v in report.violations}


def test_fixture_games_validate(ebos, lrr, surj):
    for game in (ebos, lrr, surj):
        assert game.validate().ok


def test_sequences_lrr(lrr):
    labels = [s.label() for s in lrr.sequences(0)]
    assert labels == ["empty", "R0:L", "R0:R", "B:L'", "B:R'"]
    # R0:R leads to B, and so precedes B:L'; R0:L does not
    r0, b = lrr.infoset(0, "R0"), lrr.infoset(0, "B")
    assert _seq_chain(lrr, lrr.sequence(0, "B", "L'")) == ((r0.index, "R"), (b.index, "L'"))
    assert (r0.index, "L") not in b.chain


def test_sequences_ebos_p2_single_infoset(ebos):
    labels = [s.label() for s in ebos.sequences(1)]
    assert labels == ["empty", "Event:X2", "Event:Y2"]


def _seq_chain(game, seq):
    """The own (infoset index, action) pairs up to ``seq``, its own pair
    included, read off the infosets' ``chain``."""
    if seq.is_empty:
        return ()
    iset = game.infoset(seq.player, seq.infoset)
    return iset.chain + ((iset.index, seq.action),)


def _seq_precedes(game, a, b):
    return _seq_chain(game, b)[:len(_seq_chain(game, a))] == _seq_chain(game, a)


def test_empty_sequence_precedes_everything(ebos, lrr, surj):
    # every infoset lies below exactly one of the player's first infosets,
    # the children of the empty sequence in the root entry
    for game in (ebos, lrr, surj):
        for i in range(game.n):
            _terminals, top = game.root_after[i]
            assert top and all(iset.chain == () for iset in top)
            below = sorted(j.index for start in top for j in start.subtree)
            assert below == list(range(len(game.infosets[i])))
            for s in game.sequences(i):
                assert _seq_precedes(game, Sequence.empty(i), s)


def test_precedes_is_a_partial_order(ebos, lrr, surj):
    # the order among a player's sequences read off the chains, and among
    # its infosets read off the subtrees
    for game in (ebos, lrr, surj):
        for i in range(game.n):
            for points, precedes in ((game.sequences(i), lambda a, b: _seq_precedes(game, a, b)),
                                     (game.infosets[i], lambda a, b: b in a.subtree)):
                for a in points:
                    assert precedes(a, a)
                    for b in points:
                        if precedes(a, b) and precedes(b, a):
                            assert a == b
                        for c in points:
                            if precedes(a, b) and precedes(b, c):
                                assert precedes(a, c)


def test_precedes_between_infosets_and_nodes(surj):
    ht = surj.infoset(0, "HT")
    coop = surj.infoset(1, "CoopChoice")
    sguess = surj.infoset(1, "SGuess")
    assert sguess in coop.subtree
    assert coop not in sguess.subtree
    assert sguess not in surj.infoset(1, "MPGuess").subtree
    z = surj.terminal("Coop/P/H1/H2'")
    assert ht.index in {j for j, _ in z.own_pairs[0]}
    assert (coop.index, "P") in z.own_pairs[1]
    assert (coop.index, "E") not in z.own_pairs[1]


def test_chance_reach_surj(surj):
    for z in surj.terminals:
        if z.terminal_id.startswith("MP/"):
            assert z.chance_reach == Fraction(1, 2)
    assert surj.terminal("Coop/E").chance_reach == Fraction(1, 2)


def test_chance_reach_no_chance(lrr):
    assert lrr.terminal("L").chance_reach == 1


def test_chance_reach_stacked_chance():
    doc = {"players": ["A"], "root": {
        "kind": "chance", "actions": [
            {"label": "u", "prob": "1/2", "child": {
                "kind": "chance", "actions": [
                    {"label": "u", "prob": "1/2", "child": terminal("1")},
                    {"label": "d", "prob": "1/2", "child": terminal("0")}]}},
            {"label": "d", "prob": "1/2", "child": terminal("0")}]}}
    g = game_of(doc)
    assert g.terminal("u/u").chance_reach == Fraction(1, 4)


def test_every_pure_profile_reaches_probability_one():
    # sum over terminals of chance reach times the profile indicator is 1
    rng = random.Random(11)
    for _ in range(25):
        g = random_game(rng, max_nodes=20)
        for _ in range(4):
            plans = [random_pure_strategy(rng, g, i) for i in range(g.n)]
            total = sum((z.chance_reach for z in g.terminals
                         if all(pure_terminal_reach(g, ps, z) for ps in plans)),
                        Fraction(0))
            assert total == 1


def test_unknown_player_and_terminal_lookups(lrr):
    with pytest.raises(KeyError):
        lrr.sequences("nobody")
    with pytest.raises(KeyError):
        lrr.terminal("missing")
    with pytest.raises(KeyError):
        lrr.infoset(0, "nope")


def test_serialize_round_trip_random_games():
    rng = random.Random(606)
    for _ in range(20):
        g = random_game(rng, max_nodes=22)
        once = serialize_game(g)
        g2 = parse_game(once)
        assert serialize_game(g2) == once
        assert g2.validate().ok
        assert [z.terminal_id for z in g2.terminals] == \
            [z.terminal_id for z in g.terminals]


@pytest.mark.parametrize("kind", ["chance", "decision"])
def test_serialize_round_trips_the_deepest_game(kind):
    # a Game holds MAX_DEPTH = 300 levels on every supported Python, and
    # every game it holds serializes; the document is built as text, since
    # json.dumps recurses as deep as it
    def level(k):
        if kind == "chance":
            return '{"kind": "chance", "actions": [{"label": "m", "prob": "1", "child": '
        return (f'{{"kind": "decision", "player": 0, "infoset": "I{k}", '
                f'"actions": [{{"label": "m", "child": ')

    text = ('{"players": ["A"], "root": ' + "".join(map(level, range(300)))
            + '{"kind": "terminal", "payoffs": ["1"]}' + "}]}" * 300 + "}")
    game = parse_game(text)
    assert game.validate().ok and game.num_nodes == 301
    once = serialize_game(game)
    assert serialize_game(parse_game(once)) == once
    assert game.terminals[0].terminal_id == "/".join(["m"] * 300)


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="json.loads counts against the recursion limit below 3.12")
def test_the_deepest_game_parses_from_deep_in_the_stack():
    # the node parse takes one frame per tree level, so a game of MAX_DEPTH
    # levels still parses from 500 frames below the caller
    text = ('{"players": ["A"], "root": '
            + '{"kind": "chance", "actions": [{"label": "m", "prob": "1", "child": ' * 300
            + '{"kind": "terminal", "payoffs": ["1"]}' + "}]}" * 300 + "}")

    def below(frames):
        return parse_game(text) if frames == 0 else below(frames - 1)

    assert below(500).num_nodes == 301


def test_sequence_is_a_named_tuple_of_its_fields():
    # hashing and equality are the tuple's, so a sequence equals its fields
    s = Sequence(0, "I", "a")
    assert (s.player, s.infoset, s.action) == (0, "I", "a")
    assert s == (0, "I", "a") and hash(s) == hash((0, "I", "a"))
    assert s.label() == "I:a" and str(s) == "I:a" and not s.is_empty
    with pytest.raises(AttributeError):
        s.player = 1
    empty = Sequence.empty(0)
    assert empty == Sequence(0, None, None) and empty.is_empty
    assert empty.label() == "empty"
    assert empty != Sequence.empty(1) and len({empty, Sequence.empty(1)}) == 2


def test_infoset_tables_match_the_sequence_lookups(ebos, lrr, surj):
    # per action position: the interned sequence, the terminals it is the
    # last own sequence of and the infosets it leads to, read off the tree
    rng = random.Random(11)
    games = [ebos, lrr, surj] + [random_game(rng, max_nodes=24, max_depth=5)
                                 for _ in range(40)]
    for game in games:
        for i in range(game.n):
            for iset in game.infosets[i]:
                assert len(iset.seqs) == len(iset.after) == len(iset.actions)
                for m, a in enumerate(iset.actions):
                    seq = iset.seqs[m]
                    assert type(seq) is Sequence and seq == Sequence(i, iset.id, a)
                    terminals, children = iset.after[m]
                    assert terminals == [z.index for z in game.terminals
                                         if z.own_pairs[i][-1:] == ((iset.index, a),)]
                    assert children == [j for j in game.infosets[i]
                                        if j.chain[-1:] == ((iset.index, a),)]
                    assert all(j.parent_seq is seq for j in children)
                    assert all(game.terminals[z].last_seq[i] is seq for z in terminals)
            # the root entry: the same pair for the empty sequence
            terminals, children = game.root_after[i]
            assert terminals == [z.index for z in game.terminals if not z.own_pairs[i]]
            assert children == [j for j in game.infosets[i] if not j.chain]
            assert all(j.parent_seq == Sequence.empty(i) for j in children)
            assert all(game.terminals[z].last_seq[i].is_empty for z in terminals)
            assert game.sequences(i) == [Sequence.empty(i)] + [
                s for iset in game.infosets[i] for s in iset.seqs]


# -- the parser's messages and the validator's reports, pinned ----------------


def decision(player, infoset, *actions):
    return {"kind": "decision", "player": player, "infoset": infoset,
            "actions": [{"label": label, "child": child} for label, child in actions]}


def chance(*actions):
    return {"kind": "chance",
            "actions": [{"label": label, "prob": prob, "child": child}
                        for label, prob, child in actions]}


RAT = "(expected 'p' or 'p/q' with q > 0)"

MALFORMED_GAMES = [
    ('{"players": ["A"], ',
     "invalid JSON: Expecting property name enclosed in double quotes (line 1, column 20)"),
    ([], "top level must be an object"),
    ({"root": terminal("0")}, 'players: "players" must be a non-empty list of strings'),
    ({"players": ["A", "A"], "root": terminal("0", "0")},
     "players: player names must be distinct"),
    ({"players": ["A"]}, 'missing "root"'),
    ({"players": ["A"], "root": 3}, "root: node must be an object"),
    ({"players": ["A"], "root": {"kind": "leaf"}}, "root: unknown node kind 'leaf'"),
    ({"players": ["A"], "root": {"kind": "terminal"}}, 'root: terminal needs a "payoffs" list'),
    ({"players": ["A"], "root": terminal("0", "1")},
     "root: payoff vector has 2 entries for 1 players"),
    ({"players": ["A"], "root": decision(0, "i", ("a", terminal("1/2")), ("b", terminal("1.5")))},
     f"root/actions/1/child/payoffs: malformed rational '1.5' {RAT}"),
    # a rational met before is no licence for a boolean equal to it
    ({"players": ["A", "B"],
      "root": decision(0, "i", ("a", terminal("1", 1)), ("b", terminal(1, True)))},
     "root/actions/1/child/payoffs: booleans are not rationals"),
    ({"players": ["A"], "root": {"kind": "chance", "actions": [
        {"label": "l", "child": terminal("0")}]}},
     'root/actions/0: chance action needs "prob"'),
    ({"players": ["A"], "root": chance(("l", "1/0", terminal("0")))},
     f"root/actions/0/prob: malformed rational '1/0' {RAT}"),
    ({"players": ["A"], "root": decision(1, "i", ("a", terminal("0")))},
     'root: "player" must be an integer in [0, 1), got 1'),
    ({"players": ["A"], "root": decision(True, "i", ("a", terminal("0")))},
     'root: "player" must be an integer in [0, 1), got True'),
    ({"players": ["A"], "root": decision(0, "", ("a", terminal("0")))},
     'root: "infoset" must be a non-empty string'),
    ({"players": ["A"], "root": decision(0, "i", ("a", {"kind": "chance", "actions": {}}))},
     'root/actions/0/child: node needs an "actions" list'),
    ({"players": ["A"], "root": {"kind": "decision", "player": 0, "infoset": "i",
                                 "actions": [{"label": "a", "child": terminal("0")}, "b"]}},
     "root/actions/1: action must be an object"),
    ({"players": ["A"], "root": decision(0, "i", ("", terminal("0")))},
     'root/actions/0: action needs a non-empty string "label"'),
    ({"players": ["A"], "root": {"kind": "decision", "player": 0, "infoset": "i",
                                 "actions": [{"label": "a"}]}},
     'root/actions/0: action needs a "child" node'),
    # two defects each: the first in document preorder is reported, so a
    # child's defect before a later sibling's, and an action's own
    # probability before its child's
    ({"players": ["A"], "root": decision(0, "i", ("a", {"kind": "leaf"}), ("", terminal("0")))},
     "root/actions/0/child: unknown node kind 'leaf'"),
    ({"players": ["A"], "root": chance(("l", "x", {"kind": "leaf"}))},
     f"root/actions/0/prob: malformed rational 'x' {RAT}"),
    # two levels down, the outer level's action position is rendered first
    ({"players": ["A"], "root": decision(
        0, "i", ("a", terminal("0")),
        ("b", chance(("l", "1", terminal("2/x")), ("r", "0", terminal("0")))))},
     f"root/actions/1/child/actions/0/child/payoffs: malformed rational '2/x' {RAT}"),
]


@pytest.mark.parametrize("doc,message", MALFORMED_GAMES,
                         ids=[f"doc{k}" for k in range(len(MALFORMED_GAMES))])
def test_parse_error_names_the_first_defect_and_its_path(doc, message):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(GameParseError) as info:
        parse_game(text)
    assert str(info.value) == message
    where = info.value.where
    assert (where is None and ": " not in message.split(" ")[0]) or \
        message.startswith(f"{where}: ")


INVALID_GAMES = [
    ({"players": ["A", "B"], "root": chance(
        ("l", "1/2", decision(1, "j", ("x", terminal("0", "0")))),
        ("r", "1/2", decision(1, "j", ("y", terminal("0", "0")))))},
     [("infoset-action-mismatch", "r", "infoset 'j' lists actions ['y'], first seen with ['x']")]),
    ({"players": ["A"], "root": decision(
        0, "i1",
        ("a", decision(0, "i2", ("x", terminal("0")))),
        ("b", decision(0, "i2", ("x", terminal("0")))))},
     [("perfect-recall", "b",
       "infoset 'i2' mixes own histories [('i1', 'a')] and [('i1', 'b')]")]),
    ({"players": ["A"], "root": chance(("l", "1/2", terminal("0")), ("r", "1/3", terminal("1")))},
     [("chance-sum", ".", "chance probabilities sum to 5/6, not 1")]),
    # negative probabilities are reported last action first
    ({"players": ["A"], "root": chance(("l", "-1/2", terminal("0")), ("m", "2", terminal("1")),
                                      ("r", "-1/2", terminal("1")))},
     [("chance-sum", ".", "negative probability on action 'r'"),
      ("chance-sum", ".", "negative probability on action 'l'")]),
    ({"players": ["A"], "root": decision(0, "i", ("a", terminal("0")), ("a", terminal("1")))},
     [("tree-shape", ".", "duplicate action labels at one node")]),
    ({"players": ["A"], "root": decision(0, "i")},
     [("tree-shape", ".", "node has no actions")]),
    # several at once, in node preorder and per node in the order above
    ({"players": ["A", "B"], "root": decision(
        0, "i",
        ("a", chance(("u", "1/2", decision(1, "j", ("x", terminal("0", "0")))),
                     ("d", "1/3", decision(1, "j", ("y", terminal("0", "0")),
                                           ("y", terminal("0", "0")))))),
        ("b", decision(0, "k", ("x", terminal("0", "0")))),
        ("c", decision(0, "k", ("z", terminal("0", "0")))))},
     [("chance-sum", "a", "chance probabilities sum to 5/6, not 1"),
      ("tree-shape", "a/d", "duplicate action labels at one node"),
      ("infoset-action-mismatch", "a/d",
       "infoset 'j' lists actions ['y', 'y'], first seen with ['x']"),
      ("infoset-action-mismatch", "c", "infoset 'k' lists actions ['z'], first seen with ['x']"),
      ("perfect-recall", "c", "infoset 'k' mixes own histories [('i', 'b')] and [('i', 'c')]")]),
]


@pytest.mark.parametrize("doc,violations", INVALID_GAMES,
                         ids=[f"doc{k}" for k in range(len(INVALID_GAMES))])
def test_invalid_games_build_and_report_their_violations_in_order(doc, violations):
    report = game_of(doc).validate()
    assert not report.ok
    assert [(v.kind, v.location, v.message) for v in report.violations] == violations


def test_sequences_are_interned_once_per_game(ebos, lrr, surj):
    # a terminal's last own sequence and an infoset's parent sequence are the
    # very objects of the infoset tables, the empty one included
    rng = random.Random(12)
    games = [ebos, lrr, surj] + [random_game(rng, max_nodes=24, max_depth=5)
                                 for _ in range(30)]
    for game in games:
        for i in range(game.n):
            empty = game.sequences(i)[0]
            assert empty.is_empty and empty.player == i
            for z in game.terminals:
                if z.own_pairs[i]:
                    idx, a = z.own_pairs[i][-1]
                    iset = game.infosets[i][idx]
                    assert z.last_seq[i] is iset.seqs[iset.actions.index(a)]
                else:
                    assert z.last_seq[i] is empty
            for iset in game.infosets[i]:
                if iset.chain:
                    idx, a = iset.chain[-1]
                    parent = game.infosets[i][idx]
                    assert iset.parent_seq is parent.seqs[parent.actions.index(a)]
                else:
                    assert iset.parent_seq is empty


# -- lookups by sequence and by path -------------------------------------------


def test_a_sequence_without_an_infoset_is_the_players_empty_one(ebos):
    for i, name in enumerate(ebos.players):
        for player in (i, name):
            seq = ebos.sequence(player, None)
            assert seq == Sequence.empty(i) == ebos.sequences(i)[0]
            assert seq.is_empty and seq.player == i


def test_player_index_refuses_an_index_past_the_last_player(ebos):
    assert ebos.player_index(ebos.n - 1) == ebos.n - 1
    for index in (ebos.n, -1):
        with pytest.raises(KeyError) as info:
            ebos.player_index(index)
        assert info.value.args == (f"no player with index {index}",)


def test_node_at_follows_a_path_and_names_where_it_stops(ebos):
    z = ebos.terminals[0]
    path = next(path for node, _parent, path in walk_tree(ebos) if node is z)
    assert ebos.node_at(path) is z
    assert ebos.node_at(()) is ebos.root
    with pytest.raises(KeyError) as info:
        ebos.node_at(path + ("on",))
    assert info.value.args == (f"path descends past terminal {z.terminal_id!r}",)
    with pytest.raises(KeyError) as info:
        ebos.node_at(path[:2] + ("nope",))
    assert info.value.args == ("no action 'nope' at node NotU/X1",)
