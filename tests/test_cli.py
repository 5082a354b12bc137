import json
import random

import pytest

from gametree import (__version__, fixtures, gap, parse_profile, serialize_game,
                      serialize_profile)
from gametree.cli import main
from gametree.metrics import NOTIONS
from gametree.randgen import random_game, random_objective
from gametree.rational import format_rational


@pytest.fixture()
def paths(tmp_path):
    out = {}
    for name in fixtures.GAMES:
        p = tmp_path / f"{name}.game.json"
        p.write_text(fixtures.fixture_text(f"{name}.game.json"))
        out[name] = str(p)
    for name in ("ebos", "surj"):
        prof = tmp_path / f"{name}.profile.json"
        prof.write_text(fixtures.fixture_text(f"{name}.profile.json"))
        out[f"{name}.profile"] = str(prof)
    beh = tmp_path / "lrr.behavior.json"
    beh.write_text(fixtures.fixture_text("lrr.behavior.json"))
    out["lrr.behavior"] = str(beh)
    out["tmp"] = tmp_path
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(paths, capsys):
    code, out, _ = run(capsys, "validate", paths["ebos"])
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_validate_reports_violations(paths, capsys):
    bad = paths["tmp"] / "bad.game.json"
    bad.write_text(json.dumps({"players": ["A"], "root": {
        "kind": "chance", "actions": [
            {"label": "l", "prob": "1/2",
             "child": {"kind": "terminal", "payoffs": ["0"]}},
            {"label": "r", "prob": "1/3",
             "child": {"kind": "terminal", "payoffs": ["0"]}}]}}))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert not doc["ok"]
    assert doc["violations"][0]["kind"] == "chance-sum"


def test_validate_parse_error_exit_code(paths, capsys):
    broken = paths["tmp"] / "broken.game.json"
    broken.write_text("{\"players\": [\"A\"]")
    code, _out, err = run(capsys, "validate", str(broken))
    assert code == 3
    assert "error" in err


def test_validate_refuses_a_payoff_in_non_ascii_digits(paths, capsys):
    # "\u0663" is the Arabic-Indic digit three: a parse error at the payoff
    game = {"players": ["A"], "root": {"kind": "decision", "player": 0, "infoset": "I",
            "actions": [{"label": "x", "child": {"kind": "terminal", "payoffs": ["\u0663"]}}]}}
    path = paths["tmp"] / "digits.game.json"
    path.write_text(json.dumps(game))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (3, "")
    assert "root/actions/0/child/payoffs" in err and "malformed rational" in err


def test_info(paths, capsys):
    code, out, _ = run(capsys, "info", paths["surj"])
    doc = json.loads(out)
    assert code == 0
    assert doc["players"] == ["P1", "P2"]
    assert doc["per_player"]["P1"]["pure_strategies"] == 2
    assert doc["per_player"]["P2"]["pure_strategies"] == 8


def test_outcome(paths, capsys):
    code, out, _ = run(capsys, "outcome", paths["ebos"], paths["ebos.profile"])
    doc = json.loads(out)
    assert code == 0
    assert doc["NotU/X1/X2"] == "1/2"
    assert doc["NotU/Y1/Y2"] == "1/2"


def test_gap_efce_lrr(paths, capsys):
    code, out, err = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                         "--notion", "efce")
    doc = json.loads(out)
    assert code == 0
    assert doc["gap"] == "1/5"
    assert "0.2" in err


def test_gap_bce_lrr(paths, capsys):
    code, out, _ = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                       "--notion", "bce")
    assert code == 0
    assert json.loads(out)["gap"] == "1"


def test_gap_oracle_matches_dp(paths, capsys):
    _c, fast, _ = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                      "--notion", "efce")
    _c, slow, _ = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                      "--notion", "efce", "--oracle")
    assert json.loads(fast)["gap"] == json.loads(slow)["gap"] == "1/5"


def test_gap_oracle_refusal_exit_code(paths, capsys):
    code, _out, err = run(capsys, "gap", paths["ebos"], paths["ebos.profile"],
                          "--notion", "efce", "--oracle")
    assert code == 2
    assert "refused" in err


def test_gap_oracle_table_cap(paths, capsys):
    # lrr's player has 4 plans, so 4^4 = 256 efce deviation tables
    code, out, err = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                         "--notion", "efce", "--oracle", "--table-cap", "100")
    assert (code, out, err) == (2, "", "refused: player P1 has 4^4 = 256 deviation "
                                       "tables, above the cap of 100; raise it via "
                                       "--table-cap or table_cap=\n")
    code, out, _err = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                          "--notion", "efce", "--oracle")
    assert code == 0 and json.loads(out)["gap"] == "1/5"


def test_gap_oracle_table_cap_is_read_in_ascii_digits_only(paths, capsys, monkeypatch):
    # --table-cap takes the digits parse_rational reads, and refuses another
    # script's digit, a "_" separator or a sign as argparse refuses a non-int
    monkeypatch.setenv("COLUMNS", "80")
    for value in ("\u0663", "1_000", "-5"):
        with pytest.raises(SystemExit) as e:
            main(["gap", paths["lrr"], paths["lrr.behavior"], "--notion", "efce",
                  "--oracle", "--table-cap", value])
        captured = capsys.readouterr()
        assert (e.value.code, captured.out) == (2, "")
        assert captured.err == (_GAP_USAGE + "gt gap: error: argument --table-cap: "
                                f"invalid int value: {value!r}\n")


def test_gap_oracle_bce_lrr(paths, capsys):
    code, out, _err = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                          "--notion", "bce", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["gap"] == "1"
    assert report["witness"]["kind"] == "table"
    assert report["witness"]["infoset"] == "B"


def test_gap_negative_behavior_weight(paths, capsys):
    bad = paths["tmp"] / "negative.behavior.json"
    bad.write_text(json.dumps({"components": [
        {"alpha": "3/2", "behaviors": [{"R0": {"L": "9/10", "R": "1/10"}, "B": {"R'": "1"}}]},
        {"alpha": "-1/2", "behaviors": [{"R0": {"L": "1"}, "B": {"R'": "1"}}]}]}))
    code, out, err = run(capsys, "gap", paths["lrr"], str(bad), "--notion", "efce")
    assert (code, out, err) == (1, "", "error: component 1 has negative weight\n")


def test_gap_invalid_profile_exit_code(paths, capsys):
    bad = paths["tmp"] / "bad.profile.json"
    bad.write_text(json.dumps({"components": [{"alpha": "1", "strategies": [
        [{"beta": "1", "actions": {"R0": "L"}}]]}]}))
    code, _out, err = run(capsys, "gap", paths["lrr"], str(bad), "--notion", "efce")
    assert code == 1


def test_invalid_game_exit_code(paths, capsys):
    # a game that parses but fails validation is refused before any work
    game = paths["tmp"] / "five-sixths.game.json"
    game.write_text(json.dumps({"players": ["A"], "root": {"kind": "chance", "actions": [
        {"label": "l", "prob": "1/2", "child": {"kind": "terminal", "payoffs": ["0"]}},
        {"label": "r", "prob": "1/3", "child": {"kind": "terminal", "payoffs": ["1"]}}]}}))
    profile = paths["tmp"] / "empty-plan.profile.json"
    profile.write_text(json.dumps({"components": [{"alpha": "1", "strategies": [
        [{"beta": "1", "actions": {}}]]}]}))
    message = ("error: game fails validation (chance-sum at .: chance probabilities "
               "sum to 5/6, not 1)\n")
    for argv in (("gap", str(game), str(profile), "--notion", "efce"),
                 ("solve", str(game), "--notion", "bce")):
        assert run(capsys, *argv) == (1, "", message)


def test_convert_reports_and_writes(paths, capsys):
    out_path = paths["tmp"] / "converted.json"
    code, _out, err = run(capsys, "convert", paths["ebos"], paths["ebos.profile"],
                          "-o", str(out_path))
    assert code == 0
    assert "efce gap in:  0" in err
    assert "bce gap out:  0" in err
    assert "outcome-equivalent: True" in err
    doc = json.loads(out_path.read_text())
    actions = {tuple(sorted(s[0]["actions"].items()))
               for c in doc["components"] for s in [c["strategies"][0]]}
    assert (("AfterNotU", "Y1"), ("AfterU", "X1"), ("Root", "NotU")) in actions


def test_convert_is_deterministic(paths, capsys):
    a = paths["tmp"] / "a.json"
    b = paths["tmp"] / "b.json"
    run(capsys, "convert", paths["lrr"], paths["lrr.behavior"], "-o", str(a))
    run(capsys, "convert", paths["lrr"], paths["lrr.behavior"], "-o", str(b))
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("argv", [
    ("convert", "ebos", "ebos.profile"), ("convert", "lrr", "lrr.behavior"),
    ("convert", "surj", "surj.profile"), ("decompose", "lrr", "lrr.behavior"),
    ("decompose", "ebos", "ebos.profile"), ("solve", "ebos", "--notion", "efce"),
    ("solve", "lrr", "--notion", "bce"), ("solve", "surj", "--notion", "efce")])
def test_profile_output_bytes_match_the_json_round_trip(paths, capsys, argv):
    # the profile is printed as serialize_profile's text; the commands used
    # to decode it and encode it again with the same settings
    argv = [paths.get(a, a) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
    written = paths["tmp"] / "out.json"
    assert run(capsys, *argv, "-o", str(written))[:2] == (0, "")
    assert written.read_bytes() == out.encode("utf-8")


def test_decompose(paths, capsys):
    code, out, _ = run(capsys, "decompose", paths["lrr"], paths["lrr.behavior"])
    doc = json.loads(out)
    assert code == 0
    betas = sorted(item["beta"] for item in doc["components"][0]["strategies"][0])
    assert betas == ["1/10", "9/10"]


def test_cbr_command(paths, capsys):
    code, out, _ = run(capsys, "cbr", paths["ebos"], paths["ebos.profile"],
                       "--player", "P1", "--sequence", "Root:NotU")
    doc = json.loads(out)
    assert code == 0
    assert doc["strategy"] == {"Root": "U", "AfterU": "X1", "AfterNotU": "X1"}
    assert doc["value"] == "3/2"
    assert doc["event_mass"] == "1"


def test_cbr_empty_sequence(paths, capsys):
    code, out, _ = run(capsys, "cbr", paths["lrr"], paths["lrr.behavior"],
                       "--player", "0", "--sequence", "empty")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "2"


def test_cbr_event_mass_matches_the_cbr_table(paths, capsys, reference_cbr):
    # every sequence, zero-mass fallbacks included, reports the mass of the
    # law its response was computed against
    from gametree import parse_game, parse_profile
    for name, profile in (("ebos", "ebos.profile"), ("lrr", "lrr.behavior")):
        with open(paths[name], encoding="utf-8") as fh:
            game = parse_game(fh.read())
        with open(paths[profile], encoding="utf-8") as fh:
            pi = parse_profile(game, fh.read())
        for i in range(game.n):
            for seq in game.sequences(i):
                strategy, value, mass = reference_cbr(game, pi, i, seq)
                code, out, _ = run(capsys, "cbr", paths[name], paths[profile],
                                   "--player", str(i), "--sequence", seq.label())
                assert code == 0
                doc = json.loads(out)
                assert doc["event_mass"] == format_rational(mass)
                assert doc["value"] == format_rational(value)
                assert doc["strategy"] == strategy.assignment(game)


def _colon_game(tmp_path, infosets):
    """A one-player chain of decision nodes, ``infosets`` listing each
    node's (infoset id, action labels); every action but the last of a
    node ends the game."""
    node = {"kind": "terminal", "payoffs": ["0"]}
    for k, (iset, labels) in reversed(list(enumerate(infosets))):
        node = {"kind": "decision", "player": 0, "infoset": iset, "actions": [
            {"label": a, "child": {"kind": "terminal", "payoffs": [str(k + m)]}}
            for m, a in enumerate(labels)] + [{"label": "on", "child": node}]}
    path = tmp_path / "colon.game.json"
    path.write_text(json.dumps({"players": ["A"], "root": node}))
    return str(path)


def test_cbr_sequence_accepts_infoset_ids_with_a_colon(paths, capsys):
    # the label gt cbr prints for a sequence is accepted back as --sequence
    game = _colon_game(paths["tmp"], [("a:b", ["x"]), ("c", ["d:e"])])
    profile = paths["tmp"] / "colon.profile.json"
    profile.write_text(json.dumps({"components": [{"alpha": "1", "strategies": [
        [{"beta": "1", "actions": {"a:b": "on", "c": "d:e"}}]]}]}))
    for label in ("a:b:x", "a:b:on", "c:d:e", "c:on"):
        code, out, err = run(capsys, "cbr", game, str(profile),
                             "--player", "A", "--sequence", label)
        assert code == 0, err
        assert json.loads(out)["sequence"] == label
    # a label naming no sequence keeps the first split's message
    code, _, err = run(capsys, "cbr", game, str(profile), "--player", "A",
                       "--sequence", "a:b:z")
    assert code == 1 and "has no infoset 'a'" in err


def test_cbr_sequence_refuses_an_ambiguous_label(paths, capsys):
    # "a:b:x" names infoset "a" action "b:x" and infoset "a:b" action "x"
    game = _colon_game(paths["tmp"], [("a", ["b:x"]), ("a:b", ["x"])])
    profile = paths["tmp"] / "colon.profile.json"
    profile.write_text(json.dumps({"components": [{"alpha": "1", "strategies": [
        [{"beta": "1", "actions": {"a": "on", "a:b": "x"}}]]}]}))
    code, out, err = run(capsys, "cbr", game, str(profile), "--player", "A",
                         "--sequence", "a:b:x")
    assert (code, out) == (1, "")
    assert "ambiguous" in err and "'a:b' action 'x'" in err and "'a' action 'b:x'" in err
    code, out, _ = run(capsys, "cbr", game, str(profile), "--player", "A",
                       "--sequence", "a:on")
    assert code == 0 and json.loads(out)["sequence"] == "a:on"


def test_cbr_player_refuses_a_name_that_is_another_players_index(paths, capsys):
    # "0" names the second player and is the index of the first; a digit
    # string that names no player stays an index
    doc = json.loads(fixtures.fixture_text("ebos.game.json"))
    game = paths["tmp"] / "digits.game.json"
    for players, value, want in ((["1", "0"], "0", None), (["1", "B"], "0", "1"),
                                 (["A", "1"], "1", "1")):
        game.write_text(json.dumps(dict(doc, players=players)))
        code, out, err = run(capsys, "cbr", str(game), paths["ebos.profile"],
                             "--player", value, "--sequence", "empty")
        if want is None:
            assert (code, out, err) == (1, "", "error: player '0' is ambiguous: it names the "
                                        "player at index 1 and is the index of player '1'\n")
        else:
            assert code == 0 and json.loads(out)["player"] == want, err
    # a digit that is not a decimal digit is no index
    assert run(capsys, "cbr", str(game), paths["ebos.profile"], "--player", "²",
               "--sequence", "empty") == (1, "", "error: unknown player '²'\n")


def test_cbr_player_index_is_read_in_ascii_digits_only(paths, capsys):
    # an index is written in the digits parse_rational reads, so another
    # script's zero, a sign or a space is a name, here of no player
    for value in ("\u0660", "+0", " 0"):
        assert run(capsys, "cbr", paths["ebos"], paths["ebos.profile"], "--player", value,
                   "--sequence", "empty") == (1, "", f"error: unknown player {value!r}\n")
    code, out, _err = run(capsys, "cbr", paths["ebos"], paths["ebos.profile"],
                          "--player", "0", "--sequence", "empty")
    assert code == 0 and json.loads(out)["player"] == "P1"


def test_cbr_sequence_needs_a_colon(paths, capsys):
    code, out, err = run(capsys, "cbr", paths["ebos"], paths["ebos.profile"], "--player",
                         "P1", "--sequence", "Root")
    assert (code, out, err) == (
        1, "", "error: sequence must be \"INFOSET:ACTION\" or \"empty\", got 'Root'\n")


def test_cbr_builds_one_reach(paths, capsys, monkeypatch):
    # the response and the printed event mass read the same reach
    from gametree import metrics
    built = []
    init = metrics.ProfileReach.__init__

    def counting(self, game, pi):
        built.append(pi)
        init(self, game, pi)

    monkeypatch.setattr(metrics.ProfileReach, "__init__", counting)
    for sequence in ("Root:NotU", "Root:U", "empty"):
        built.clear()
        code, _, _ = run(capsys, "cbr", paths["ebos"], paths["ebos.profile"],
                         "--player", "P1", "--sequence", sequence)
        assert code == 0
        assert len(built) == 1


def test_solve_honours_epsilon_with_an_objective(tmp_path, capsys):
    # the objective is optimized over the profiles within the requested slack;
    # at slack 0 the output is the exact program's
    from gametree import optimal_efce
    rng = random.Random(3)
    game = random_game(rng, max_players=2, max_nodes=20, max_pure_product=64,
                       max_pure_per_player=16)
    objective = random_objective(rng, game)
    game_path, objective_path = tmp_path / "g.json", tmp_path / "c.json"
    game_path.write_text(serialize_game(game))
    objective_path.write_text(json.dumps({"c": {
        zid: format_rational(c) for zid, c in objective.items()}}))
    exact, exact_value = optimal_efce(game, objective)
    outputs = []
    for extra, value, measured in (((), "0", "0"), (("--epsilon", "0"), "0", "0"),
                                   (("--epsilon", "1/2"), "25/87", "1/2")):
        code, out, err = run(capsys, "solve", str(game_path), "--notion", "efce",
                             "--objective", str(objective_path), *extra)
        assert code == 0
        report = json.loads(err)["outputs"]
        assert (report["objective_value"], report["gap"]) == (value, measured)
        assert format_rational(gap(game, parse_profile(game, out), "efce").overall) == measured
        outputs.append(out)
    assert format_rational(exact_value) == "0"
    assert outputs[0] == outputs[1] == serialize_profile(game, exact)
    assert outputs[2] != outputs[0]


def test_solve_bce_rejects_epsilon(paths, capsys):
    code, out, err = run(capsys, "solve", paths["lrr"], "--notion", "bce",
                         "--epsilon", "1/4")
    assert code == 1
    assert out == ""
    assert "--epsilon applies to --notion efce only" in err
    code, _out, _err = run(capsys, "solve", paths["lrr"], "--notion", "bce",
                           "--epsilon", "0")
    assert code == 0


def test_solve_rejects_negative_epsilon(paths, capsys):
    code, out, err = run(capsys, "solve", paths["lrr"], "--notion", "efce",
                         "--epsilon=-1/4")
    assert code == 1
    assert out == ""
    assert "epsilon must be >= 0" in err


def test_solve_refuses_a_player_above_the_profile_cap(paths, capsys, plan_chain_text,
                                                       strategy_guard):
    chain = paths["tmp"] / "chain.game.json"
    chain.write_text(plan_chain_text)
    code, out, err = run(capsys, "solve", str(chain), "--notion", "efce")
    assert (code, out, err) == (2, "", "refused: game has more than 50000 pure profiles; "
                                       "raise the cap via profile_cap= of the library "
                                       "solvers\n")
    assert strategy_guard == [0]


def _chance_chain(depth):
    """A one-player game document whose root is ``depth`` chance nodes in a
    chain, built as text, since ``json.dumps`` recurses as deep as it."""
    head = "".join(f'{{"kind": "chance", "actions": [{{"label": "c{k}", "prob": "1", '
                   f'"child": ' for k in range(depth))
    return ('{"players": ["A"], "root": ' + head
            + '{"kind": "terminal", "payoffs": ["0"]}' + "}]}" * depth + "}")


def test_validate_deep_chains(paths, capsys):
    # a Game holds at most MAX_DEPTH = 300 levels on every supported Python:
    # 301 levels decode and parse, and the tree walk refuses them; 2,000 are
    # refused earlier, by json.loads on 3.10 and 3.11 and by the recursive
    # node parse on 3.12 and 3.13. Each is a parse error, not a traceback.
    game = paths["tmp"] / "deep.game.json"
    game.write_text(_chance_chain(300))
    code, out, err = run(capsys, "validate", str(game))
    assert (code, err) == (0, "") and json.loads(out)["ok"]
    for depth in (301, 2000):
        game.write_text(_chance_chain(depth))
        assert run(capsys, "validate", str(game)) == (
            3, "", "error: document is nested too deeply to read\n"), depth


def test_gap_deep_profile_is_a_parse_error(paths, capsys):
    # nested far beyond every supported Python's json.loads limit
    profile = paths["tmp"] / "deep.profile.json"
    profile.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "gap", paths["lrr"], str(profile), "--notion", "efce")
    assert (code, out, err) == (3, "", "error: document is nested too deeply to read\n")


def test_internal_check_failure_exit_code(paths, capsys, monkeypatch):
    # a failed self-check is a bug, told apart from refusals (exit 2)
    from gametree import cli
    from gametree.errors import InternalCheckError

    def broken(*_args, **_kwargs):
        raise InternalCheckError("stub self-check failed")

    monkeypatch.setattr(cli, "_solve", broken)
    code, out, err = run(capsys, "solve", paths["lrr"], "--notion", "efce")
    assert code == 4
    assert out == ""
    assert "internal error: stub self-check failed" in err


def _moved_rewrite(rewrite):
    """``rewrite`` with the output's first plan moved to another action at
    the player's first infoset, which moves the outcome distribution."""
    from gametree.strategy import MixtureComponent, MixtureOfProducts, PureStrategy

    def moved(reach, known):
        game, out = reach.game, rewrite(reach, known)
        first = out.components[0]
        (beta, ps), *rest = first.strategies[0]
        other = next(a for a in game.infosets[0][0].actions if a != ps.actions[0])
        plan = PureStrategy(0, (other,) + ps.actions[1:])
        comp = MixtureComponent(first.alpha, (((beta, plan), *rest),) + first.strategies[1:])
        return MixtureOfProducts((comp,) + out.components[1:])

    return moved


def test_a_rewrite_that_moves_the_outcomes_exits_4(paths, capsys, monkeypatch):
    # gt convert and the bce solvers check every rewrite they make; a failed
    # check prints nothing on stdout and writes no -o file
    from gametree import convert
    monkeypatch.setattr(convert, "_rewrite", _moved_rewrite(convert._rewrite))
    objective = paths["tmp"] / "ebos.objective.json"
    terminal = fixtures.load_game("ebos").terminals[0].terminal_id
    objective.write_text(json.dumps({"c": {terminal: "1"}}))
    written = paths["tmp"] / "never.json"
    for argv in (("convert", paths["ebos"], paths["ebos.profile"]),
                 ("convert", paths["ebos"], paths["ebos.profile"], "-o", str(written)),
                 ("solve", paths["ebos"], "--notion", "bce"),
                 ("solve", paths["ebos"], "--notion", "bce", "--objective", str(objective))):
        assert run(capsys, *argv) == (
            4, "", "internal error: the rewrite changed the outcome distribution\n"), argv
    assert not written.exists()


def test_a_rewrite_above_the_causal_gap_exits_4(paths, capsys, monkeypatch):
    # left unrewritten, the ebos profile keeps its causal gap 0 but has bce
    # gap 1, which the rewrite theorem rules out for its output
    from gametree import convert
    monkeypatch.setattr(convert, "_rewrite", lambda reach, known: reach.pi)
    assert run(capsys, "convert", paths["ebos"], paths["ebos.profile"]) == (
        4, "", "internal error: the rewrite's bce gap 1 exceeds the causal gap 0\n")


def test_solve_bce_surj(paths, capsys):
    code, out, err = run(capsys, "solve", paths["surj"], "--notion", "bce")
    assert code == 0
    report = json.loads(err)
    assert report["outputs"]["gap"] == "0"
    doc = json.loads(out)
    for comp in doc["components"]:
        assert comp["strategies"][1][0]["actions"]["CoopChoice"] == "E"


def test_solve_with_objective(paths, capsys):
    obj = paths["tmp"] / "obj.json"
    obj.write_text(json.dumps({"c": {"L": "2", "R/L'": "1"}}))
    code, _out, err = run(capsys, "solve", paths["lrr"], "--notion", "efce",
                          "--objective", str(obj))
    assert code == 0
    assert json.loads(err)["outputs"]["objective_value"] == "2"


def test_solve_rejects_unknown_objective_terminal(paths, capsys):
    obj = paths["tmp"] / "obj.json"
    obj.write_text(json.dumps({"c": {"nope": "1"}}))
    code, out, err = run(capsys, "solve", paths["lrr"], "--notion", "efce",
                         "--objective", str(obj))
    assert (code, out, err) == (1, "", "error: no terminal 'nope'\n")


@pytest.mark.parametrize("player, sequence, message", [
    ("7", "empty", "no player with index 7"),
    ("P1", "Nope:X", "player P1 has no infoset 'Nope'"),
])
def test_cbr_unknown_player_or_infoset_prints_the_message(paths, capsys, player,
                                                          sequence, message):
    # a KeyError is reported by its message, not by the repr of it
    code, out, err = run(capsys, "cbr", paths["ebos"], paths["ebos.profile"],
                         "--player", player, "--sequence", sequence)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cbr_unknown_action_prints_the_message(paths, capsys):
    code, out, err = run(capsys, "cbr", paths["lrr"], paths["lrr.behavior"],
                         "--player", "P1", "--sequence", "B:nope")
    assert (code, out, err) == (1, "", "error: infoset 'B' has no action 'nope'\n")


def test_stdout_is_byte_identical_across_runs(paths, capsys):
    _c, first, _ = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                       "--notion", "bce")
    _c, second, _ = run(capsys, "gap", paths["lrr"], paths["lrr.behavior"],
                        "--notion", "bce")
    assert first == second


# runs each argv of the JSON list in sys.argv[1] in this one process, each
# stdout after a header naming the command and followed by its exit code
_RUN_ALL = """
import json, sys
from gametree.cli import main
for argv in json.loads(sys.argv[1]):
    print("$ gt", *argv, flush=True)
    print("exit", main(argv), flush=True)
"""


def test_stdout_is_byte_identical_across_hash_seeds(paths):
    # stdout must not depend on the order of str-keyed sets or dicts, which
    # a process's string-hash seed fixes; one process cannot see that
    import os
    import pathlib
    import subprocess
    import sys
    from gametree import parse_game
    argvs = []
    for name, profile in (("ebos", "ebos.profile"), ("lrr", "lrr.behavior"),
                          ("surj", "surj.profile")):
        game_path, profile_path = paths[name], paths[profile]
        game = parse_game(pathlib.Path(game_path).read_text(encoding="utf-8"))
        objective = paths["tmp"] / f"{name}.objective.json"
        objective.write_text(json.dumps({"c": {z.terminal_id: str(k % 3)
                                               for k, z in enumerate(game.terminals)}}))
        argvs += [["validate", game_path], ["info", game_path],
                  ["outcome", game_path, profile_path]]
        argvs += [["gap", game_path, profile_path, "--notion", n] for n in NOTIONS]
        argvs += [["convert", game_path, profile_path],
                  ["decompose", game_path, profile_path]]
        argvs += [["cbr", game_path, profile_path, "--player", str(i),
                   "--sequence", seq.label()]
                  for i in range(game.n) for seq in game.sequences(i)]
        argvs += [["solve", game_path, "--notion", n, "--objective", str(objective)]
                  for n in ("efce", "bce")]
    root = pathlib.Path(__file__).resolve().parent.parent
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(argvs)],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0].count(b"\nexit 0\n") == len(argvs)
    assert outs[0] == outs[1]


def test_paper_check_wiring(capsys, monkeypatch):
    # stub criteria: the command must print one line per sub-check and exit
    # nonzero exactly when one fails; stdout holds those lines only and is
    # the same in every run, and each criterion's timing goes to stderr
    from types import SimpleNamespace

    from gametree import checks

    def fake_pass():
        return [checks.CheckResult("x1", "stub pass", True)]

    def fake_fail():
        return [checks.CheckResult("x2", "stub fail", False, "want 1, got 2")]

    ticks = iter(range(100))  # a clock whose every interval is longer
    monkeypatch.setattr(checks, "time", SimpleNamespace(time=lambda: next(ticks) ** 2))
    monkeypatch.setattr(checks, "CRITERIA",
                        (("x1", "stub", fake_pass), ("x2", "stub", fake_fail)))
    runs = [run(capsys, "paper-check") for _ in range(2)]
    assert [code for code, _out, _err in runs] == [1, 1]
    assert [out for _code, out, _err in runs] == 2 * [
        "PASS criterion-x1: stub pass\n"
        "FAIL criterion-x2: stub fail (want 1, got 2)\n"]
    assert [err for _code, _out, err in runs] == [
        "     criterion x1 (stub): 1.0s\n     criterion x2 (stub): 5.0s\n",
        "     criterion x1 (stub): 9.0s\n     criterion x2 (stub): 13.0s\n"]

    monkeypatch.setattr(checks, "CRITERIA", (("x1", "stub", fake_pass),))
    code, out, _ = run(capsys, "paper-check")
    assert code == 0


def test_parser_is_built_once_and_reused(capsys):
    # repeated in-process calls share one argparse tree and behave the same
    from gametree import __version__, cli
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out == f"gt {__version__}\n"
        with pytest.raises(SystemExit) as e:
            main(["gap"])
        assert e.value.code == 2


def test_convert_builds_one_reach_per_profile(tmp_path, capsys, monkeypatch,
                                              games_and_profiles):
    # the input's reach serves its efce gap, the rewrite and its outcomes;
    # the output's serves its bce gap and outcomes, and is built only when
    # the rewrite changed the profile (else the input's serves)
    from gametree import metrics
    built = []
    init = metrics.ProfileReach.__init__

    def counting(self, game, pi):
        built.append(pi)
        init(self, game, pi)

    monkeypatch.setattr(metrics.ProfileReach, "__init__", counting)
    cases, changed = games_and_profiles(38), 0
    for k, (game, pi) in enumerate(cases):
        game_path, profile_path = tmp_path / f"g{k}.json", tmp_path / f"p{k}.json"
        game_path.write_text(serialize_game(game))
        profile_path.write_text(serialize_profile(game, pi))
        built.clear()
        code, out, _ = run(capsys, "convert", str(game_path), str(profile_path))
        assert code == 0
        rewritten = parse_profile(game, out)
        assert built == [pi] + ([rewritten] if rewritten != pi else [])
        changed += rewritten != pi
    assert 0 < changed < len(cases)  # both branches run


def test_solve_reports_the_gap_of_its_profile(tmp_path, capsys):
    # gt solve prints the gap the solver measured on the profile it returns
    rng = random.Random(3)
    games = [fixtures.load_game(name) for name in fixtures.GAMES]
    games += [random_game(rng, max_players=2, max_nodes=20, max_pure_product=64,
                          max_pure_per_player=16) for _ in range(12)]
    positive = 0
    for k, game in enumerate(games):
        path = tmp_path / f"g{k}.json"
        path.write_text(serialize_game(game))
        objective = tmp_path / f"c{k}.json"
        objective.write_text(json.dumps({"c": {
            zid: format_rational(c) for zid, c in random_objective(rng, game).items()}}))
        for notion, extra in (("efce", ()), ("efce", ("--epsilon", "1/4")), ("bce", ()),
                              ("efce", ("--objective", str(objective))),
                              ("bce", ("--objective", str(objective)))):
            code, out, err = run(capsys, "solve", str(path), "--notion", notion, *extra)
            assert code == 0
            reported = json.loads(err)["outputs"]["gap"]
            assert reported == format_rational(
                gap(game, parse_profile(game, out), notion).overall)
            positive += reported != "0"
    assert positive > 0


def test_solve_builds_one_reach_per_profile(tmp_path, capsys, monkeypatch):
    # each round's profile gets one reach, which its causal gap reads and,
    # for the last round, the rewrite or the printed utilities; bce adds one
    # for the rewritten profile, if the rewrite changed it, which its bce gap
    # and the utilities read. The first round's profile is taken without an
    # LP solve, so there is one round more than LP solves
    from gametree import equilibrium, metrics
    built, solves = [], []
    init, lp_solve = metrics.ProfileReach.__init__, equilibrium.lp_solve

    def counting(self, game, pi):
        built.append(pi)
        init(self, game, pi)

    def recording(lp):
        solves.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(metrics.ProfileReach, "__init__", counting)
    monkeypatch.setattr(equilibrium, "lp_solve", recording)
    rng = random.Random(3)
    games = [fixtures.load_game(name) for name in fixtures.GAMES]
    games += [random_game(rng, max_players=2, max_nodes=20, max_pure_product=64,
                          max_pure_per_player=16) for _ in range(8)]
    for k, game in enumerate(games):
        path = tmp_path / f"g{k}.json"
        path.write_text(serialize_game(game))
        for notion, extra in (("efce", ()), ("efce", ("--epsilon", "1/4")), ("bce", ())):
            built.clear()
            solves.clear()
            code, out, _ = run(capsys, "solve", str(path), "--notion", notion, *extra)
            assert code == 0
            printed = parse_profile(game, out)
            rounds, rewritten = built[:len(solves) + 1], built[len(solves) + 1:]
            assert len(set(rounds)) == len(rounds)
            if notion == "efce" or printed == rounds[-1]:
                assert rewritten == [] and rounds[-1] == printed
            else:
                assert rewritten == [printed]


RATIONAL = "(expected 'p' or 'p/q' with q > 0)"


@pytest.mark.parametrize("text,message", [
    ('{"c": ', "error: invalid JSON: Expecting value (line 1, column 7)"),
    ("[]", 'error: objective must be an object with a "c" object'),
    ('{"c": []}', "error: c: must map terminal ids to rationals"),
    ('{"c": {"L": "x"}}', f"error: c/L: malformed rational 'x' {RATIONAL}"),
    ('{"c": {"L": 1.5}}', "error: c/L: expected rational string, got float"),
    ('{"c": {"L": true}}', "error: c/L: booleans are not rationals"),
])
def test_solve_objective_schema_errors_are_parse_errors(paths, capsys, text, message):
    obj = paths["tmp"] / "obj.json"
    obj.write_text(text)
    code, out, err = run(capsys, "solve", paths["lrr"], "--notion", "efce",
                         "--objective", str(obj))
    assert (code, out, err) == (3, "", message + "\n")


@pytest.mark.parametrize("document,message", [
    ("ebos", "error: invalid JSON: Unterminated string starting at (line 4, column 13)"),
    ("ebos.profile", "error: invalid JSON: Expecting value (line 4, column 4)"),
])
def test_gap_truncated_documents_are_parse_errors(paths, capsys, document, message):
    # the game or profile document cut after its first 60 characters
    path = paths["tmp"] / "truncated.json"
    with open(paths[document], encoding="utf-8") as fh:
        path.write_text(fh.read()[:60])
    argv = {"ebos": (str(path), paths["ebos.profile"]),
            "ebos.profile": (paths["ebos"], str(path))}[document]
    code, out, err = run(capsys, "gap", *argv, "--notion", "efce")
    assert (code, out, err) == (3, "", message + "\n")


def test_missing_input_files_are_errors_not_crashes(paths, capsys):
    missing = str(paths["tmp"] / "nonexistent.json")
    for argv in (("gap", missing, paths["ebos.profile"], "--notion", "efce"),
                 ("gap", paths["ebos"], missing, "--notion", "efce"),
                 ("validate", missing),
                 ("solve", paths["lrr"], "--notion", "efce", "--objective", missing),
                 ("decompose", paths["lrr"], paths["lrr.behavior"],
                  "-o", str(paths["tmp"] / "no" / "such" / "dir.json"))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert err.count("\n") == 1


def test_validations_per_op(paths, capsys, monkeypatch):
    # a mixture is validated where its reach is built, and nowhere else: not
    # where a mixture document is parsed, and a behavior document's mixture
    # is valid as built, from behavior strategies validated once each. gap 1
    # (reach), for either schema; convert 2 (input reach, output reach), or 1
    # for lrr's behavior document (input reach; the rewrite changes
    # nothing); solve 1 per round (its reach), where rounds = LP solves + 1
    # as the first round's candidate takes no LP, and for bce 1 more for
    # the rewritten profile's reach, if the rewrite changed it
    from gametree import equilibrium, metrics, strategy
    validated, behaviors, built, solves = [], [], [], []
    validate, init, lp_solve = (strategy.MixtureOfProducts.validate,
                                metrics.ProfileReach.__init__, equilibrium.lp_solve)
    validate_behavior = strategy.BehaviorStrategy.validate

    def counting(self, game):
        validated.append(self)
        validate(self, game)

    def counting_behavior(self, game):
        behaviors.append(self)
        return validate_behavior(self, game)

    def building(self, game, pi):
        built.append(pi)
        init(self, game, pi)

    def solving(lp):
        solves.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(strategy.MixtureOfProducts, "validate", counting)
    monkeypatch.setattr(strategy.BehaviorStrategy, "validate", counting_behavior)
    monkeypatch.setattr(metrics.ProfileReach, "__init__", building)
    monkeypatch.setattr(equilibrium, "lp_solve", solving)
    # (argv, mixture validations, behavior strategies in the document)
    ops = [(("gap", paths["ebos"], paths["ebos.profile"], "--notion", notion), 1, 0)
           for notion in ("efce", "bce", "full-efce", "nfcce")]
    ops += [(("gap", paths["lrr"], paths["lrr.behavior"], "--notion", "bce"), 1, 1),
            (("convert", paths["lrr"], paths["lrr.behavior"]), 1, 1),
            (("convert", paths["ebos"], paths["ebos.profile"]), 2, 0),
            (("convert", paths["surj"], paths["surj.profile"]), 2, 0)]
    for argv, want, strategies in ops:
        validated.clear(), behaviors.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(validated) == want, argv
        # each behavior strategy validated exactly once
        assert len(behaviors) == len(set(map(id, behaviors))) == strategies, argv
    counts = []
    for name in ("ebos", "lrr", "surj"):
        for notion in ("efce", "bce"):
            validated.clear(), built.clear(), solves.clear()
            assert run(capsys, "solve", paths[name], "--notion", notion)[0] == 0
            rewritten = len(built) - len(solves)  # the LP-free round's, + any rewrite's
            assert len(validated) == len(solves) + rewritten
            counts.append(len(validated))
    assert counts == [3, 3, 1, 1, 5, 5]


# sha256 of (rc, stdout, normalized stderr) of `gt solve` on re-encoded
# documents: CRLF line ends, a UTF-8 byte-order mark, and a byte that is not
# UTF-8; taken where each document was opened as text and again as bytes
SOLVE_ENCODINGS = {
    "crlf": "a7373d27c191dd99c95eef1e108b3a28ef0260bf38b642358c9340d6476e4d3b",
    "bom": "08de0d2d6708c159d7719a73ab3127aabc3a4ac237838ae7f1a24488223c6eff",
    "bad-byte": "14c61ee3abf163a9e0ba71d8b7c75a686c8afdf6e8ba4f3e4faa5784734e4143",
}


def _encoded(text: str, encoding: str) -> bytes:
    if encoding == "crlf":
        return text.replace("\n", "\r\n").encode()
    if encoding == "bom":
        return b"\xef\xbb\xbf" + text.encode()
    return text.encode().replace(b"{", b"{\xff", 1)


@pytest.mark.parametrize("encoding", sorted(SOLVE_ENCODINGS))
def test_solve_reads_each_document_as_text_once(paths, capsys, encoding):
    # each document is read once, hashed as bytes and decoded as
    # open(path, encoding="utf-8") decodes it: newlines translated, a BOM
    # kept (and refused by the JSON parser), a bad byte a decode error
    import hashlib
    import re
    tmp = paths["tmp"]
    game, obj = tmp / "doc.game.json", tmp / "doc.objective.json"
    game.write_bytes(_encoded(fixtures.fixture_text("lrr.game.json"), encoding))
    obj.write_bytes(_encoded('{"c": {"L": "1", "R/R\'": "2/3"}}\n', "crlf"))
    code, out, err = run(capsys, "solve", str(game), "--notion", "efce",
                         "--objective", str(obj))
    err = re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', err)
    blob = json.dumps([code, out, err.replace(str(tmp), "<tmp>")]).encode()
    assert hashlib.sha256(blob).hexdigest() == SOLVE_ENCODINGS[encoding]


@pytest.mark.parametrize("data", [
    b'{"a": 1}\r\n{"b": 2}\r\n', b'{"a":\r1}\r', b'\r\r\n\n\r\n\r', b'\xef\xbb\xbf{}\n',
    b'{"a": "\xff"}', b'{"\xc3', b'\xe2\x82\xac\r\n\xe2\x82', b''])
def test_read_decodes_as_open_does(tmp_path, data):
    # CRLF, a lone CR, a BOM, invalid and truncated UTF-8, an empty file:
    # the same text as open(path, encoding="utf-8").read(), or the same error
    from gametree.cli import _read
    path = tmp_path / "doc.json"
    path.write_bytes(data)

    def outcome(read):
        try:
            return read()
        except UnicodeDecodeError as e:
            return type(e), str(e)

    def read_text():
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    assert outcome(lambda: _read(str(path))) == outcome(read_text)


@pytest.mark.parametrize("defect, message", [
    ("alpha", "component weights sum to 2/3, not 1"),
    ("beta", "component 1, player P2: strategy weights sum to 1/2"),
])
def test_profile_weights_are_checked_by_every_profile_command(paths, capsys, defect, message):
    # each command validates a mixture document once, where it consumes it,
    # with the same error; cbr reports it before a bad --player
    doc = json.loads(fixtures.fixture_text("ebos.profile.json"))
    if defect == "alpha":
        for c in doc["components"]:
            c["alpha"] = "1/3"
    else:
        doc["components"][1]["strategies"][1][0]["beta"] = "1/2"
    bad = paths["tmp"] / "bad.profile.json"
    bad.write_text(json.dumps(doc))
    commands = [("gap", "--notion", notion) for notion in NOTIONS]
    commands += [("gap", "--oracle", "--notion", notion) for notion in NOTIONS]
    commands += [("outcome",), ("decompose",), ("convert",),
                 ("cbr", "--player", "P1", "--sequence", "empty"),
                 ("cbr", "--player", "nobody", "--sequence", "nope")]
    for command, *rest in commands:
        assert run(capsys, command, paths["ebos"], str(bad), *rest) == \
            (1, "", f"error: {message}\n"), command


@pytest.mark.parametrize("cap", ["1e6", "-5", "many"])
def test_state_cap_is_read_by_the_history_notions_only(paths, capsys, monkeypatch, cap):
    # efce and nfcce never use the cap, so a bad GT_STATE_CAP does not stop
    # them; bce and full-efce refuse it by name
    monkeypatch.setenv("GT_STATE_CAP", cap)
    game, profile = paths["ebos"], paths["ebos.profile"]
    for notion in ("efce", "nfcce"):
        assert run(capsys, "gap", game, profile, "--notion", notion)[0] == 0
    assert run(capsys, "solve", game, "--notion", "efce")[0] == 0
    message = (f"error: the state cap (GT_STATE_CAP or state_cap=) must be a "
               f"non-negative integer, got {cap!r}\n")
    for notion in ("bce", "full-efce"):
        assert run(capsys, "gap", game, profile, "--notion", notion) == (1, "", message)
    assert run(capsys, "convert", game, profile) == (1, "", message)


_TOP_USAGE = "usage: gt [-h] [--version] command ...\n"
_GAP_USAGE = ("usage: gt gap [-h] --notion {efce,bce,full-efce,nfcce} [--oracle]\n"
              "              [--table-cap TABLE_CAP]\n"
              "              game profile\n")
_SOLVE_USAGE = ("usage: gt solve [-h] [-o OUTPUT] --notion {efce,bce} [--objective OBJECTIVE]\n"
                "                [--epsilon EPSILON]\n"
                "                game\n")


def _choices(*names):
    """The choice lists argparse prints: quoted up to 3.11, and also the
    unquoted form later versions print."""
    return {", ".join(f"'{n}'" for n in names), ", ".join(names)}


@pytest.mark.parametrize("argv, code, out, errs", [
    ([], 2, "", {_TOP_USAGE + "gt: error: the following arguments are required: command\n"}),
    (["nope"], 2, "", {_TOP_USAGE + "gt: error: argument command: invalid choice: 'nope' "
                       f"(choose from {names})\n" for names in _choices(
                           "validate", "info", "outcome", "gap", "convert", "decompose",
                           "cbr", "solve", "paper-check")}),
    (["--version"], 0, f"gt {__version__}\n", {""}),
    (["gap"], 2, "", {_GAP_USAGE + "gt gap: error: the following arguments are required: "
                      "game, profile, --notion\n"}),
    (["solve", "game.json"], 2, "",
     {_SOLVE_USAGE + "gt solve: error: the following arguments are required: --notion\n"}),
    (["gap", "game.json", "profile.json", "--notion", "x"], 2, "",
     {_GAP_USAGE + f"gt gap: error: argument --notion: invalid choice: 'x' (choose from {names})\n"
      for names in _choices("efce", "bce", "full-efce", "nfcce")}),
    (["solve", "game.json", "--notion", "efce", "extra"], 2, "",
     {_TOP_USAGE + "gt: error: unrecognized arguments: extra\n"}),
    (["gap", "game.json", "profile.json", "--notion", "bce", "--foo"], 2, "",
     {_TOP_USAGE + "gt: error: unrecognized arguments: --foo\n"}),
])
def test_argument_refusals_keep_their_text(capsys, monkeypatch, argv, code, out, errs):
    # the exit code and both streams of each refusal argparse makes, at a
    # fixed terminal width; the files named are never opened
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main(argv)
    captured = capsys.readouterr()
    assert (e.value.code, captured.out) == (code, out)
    assert captured.err in errs
