"""The ``gt`` command line.

Exit codes: 0 success, 1 semantic/validation failure or a file that cannot be
read or written, 2 resource refusal or infeasibility, 3 parse error (of a
game, profile or objective document), 4 failed internal self-check (a bug).
Machine-readable JSON goes to stdout (or the -o file) and is byte-identical
across runs on identical inputs; run summaries, timings and decimal
approximations go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .convert import _checked_rewrite, counterfactual_best_response
from .equilibrium import _solve
from .errors import (GameParseError, InternalCheckError, ProfileError,
                     ProfileParseError, ResourceGuardError)
from .game import Game, Sequence, _decode_json, parse_game
from .jsonout import dumps
from .metrics import NOTIONS, ProfileReach, _gap, expected_utility, gap, outcome_distribution
from .oracles import DEFAULT_TABLE_CAP, brute_force_gap
from .rational import decimal_repr, format_rational, parse_rational
from .strategy import _rat, _read_profile, parse_profile, serialize_profile

EXIT_OK, EXIT_SEMANTIC, EXIT_RESOURCE, EXIT_PARSE, EXIT_INTERNAL = 0, 1, 2, 3, 4


def main(argv=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) names.

    A command's arguments go straight to its own parser, and the top-level
    parser runs only when ``argv[0]`` names no command (``-h``,
    ``--version``, an unknown command, no arguments). Arguments the
    command's parser leaves over are refused through the top-level parser,
    so every refusal reads as one parse of the whole line would."""
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, rest = command.parse_known_args(argv[1:])
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return args.func(args)
    except (GameParseError, ProfileParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ProfileError, KeyError, ValueError, OSError) as e:
        text = e.args[0] if isinstance(e, KeyError) and e.args else e  # not its repr
        print(f"error: {text}", file=sys.stderr)
        return EXIT_SEMANTIC
    except ResourceGuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser, by name."""
    p = argparse.ArgumentParser(prog="gt", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"gt {__version__}")
    sub = p.add_subparsers(required=True, metavar="command")

    def cmd(name, fn, help_, profile=False, out=False):
        c = sub.add_parser(name, help=help_)
        c.add_argument("game", help="path to a game JSON document")
        if profile:
            c.add_argument("profile", help="path to a profile JSON document")
        if out:
            c.add_argument("-o", "--output", help="write the resulting profile here")
        c.set_defaults(func=fn)
        return c

    cmd("validate", cmd_validate, "check a game document and report violations")
    cmd("info", cmd_info, "summarize players, infosets and strategy counts")
    cmd("outcome", cmd_outcome, "terminal distribution induced by a profile",
        profile=True)
    c = cmd("gap", cmd_gap, "exact worst-case deviation gain of a profile",
            profile=True)
    c.add_argument("--notion", choices=NOTIONS, required=True)
    c.add_argument("--oracle", action="store_true",
                   help="use the brute-force table oracle instead of the DP")
    c.add_argument("--table-cap", type=int, default=DEFAULT_TABLE_CAP,
                   help="oracle refusal threshold on |X|^|X|")
    c = cmd("convert", cmd_convert, "rewrite off-path recommendations to "
            "counterfactual best responses", profile=True, out=True)
    cmd("decompose", cmd_decompose, "behavior profile to small-support mixture",
        profile=True, out=True)
    c = cmd("cbr", cmd_cbr, "counterfactual best response at a sequence",
            profile=True)
    c.add_argument("--player", required=True, help="player name or 0-based index")
    c.add_argument("--sequence", required=True,
                   help='"INFOSET:ACTION", or "empty" for the unconditional response')
    c = cmd("solve", cmd_solve, "compute an (optimal) equilibrium", out=True)
    c.add_argument("--notion", choices=("efce", "bce"), required=True)
    c.add_argument("--objective", help="path to {\"c\": {terminal: \"p/q\"}}")
    c.add_argument("--epsilon", default="0",
                   help="slack on the causal gap, --notion efce only (rational, "
                        ">= 0); with --objective, the objective is optimized over "
                        "the profiles within it")
    c = sub.add_parser("paper-check",
                       help="run the bundled end-to-end verification suite")
    c.set_defaults(func=cmd_paper_check)
    return p, sub.choices


def _read(path: str, hashes: Optional[dict] = None) -> str:
    """The UTF-8 text of the document at ``path``, from one read of its
    bytes, decoded and with newlines translated exactly as ``open(path,
    encoding="utf-8").read()`` would: ``\r\n`` and a lone ``\r`` become
    ``\n``, a byte-order mark is kept and invalid UTF-8 raises the same
    :class:`UnicodeDecodeError`. With ``hashes``, the sha256 of the bytes is
    filed there under ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if hashes is not None:
        hashes[path] = hashlib.sha256(data).hexdigest()
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _parse_objective(text: str) -> dict[str, Fraction]:
    """The ``{"c": {terminal id: "p/q"}}`` document ``text``. A schema
    defect raises :class:`ProfileParseError` with its path in the document;
    a missing ``"c"`` is the zero objective. Terminal ids are checked
    against the game by the solver."""
    doc = _decode_json(text, ProfileParseError)
    if not isinstance(doc, dict):
        raise ProfileParseError("objective must be an object with a \"c\" object")
    c = doc.get("c", {})
    if not isinstance(c, dict):
        raise ProfileParseError("must map terminal ids to rationals", "c")
    return {zid: _rat(parse_rational, value, f"c/{zid}") for zid, value in c.items()}


def _emit(doc):
    _write(dumps(doc, ensure_ascii=False) + "\n")


def _write(text: str, args=None):
    """``text`` to the -o file if one was given, else to stdout."""
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _player_arg(game: Game, value: str) -> int:
    """The player ``value`` names, else the player at index ``value``; a
    value that names one player and is the index of another is refused."""
    if value not in game.players:
        return game.player_index(int(value) if value.isdecimal() else value)
    named = game.players.index(value)
    if value.isdecimal() and int(value) < game.n and int(value) != named:
        raise ValueError(f"player {value!r} is ambiguous: it names the player at index "
                         f"{named} and is the index of player {game.players[int(value)]!r}")
    return named


def _sequence_arg(game: Game, player: int, text: str) -> Sequence:
    if text in ("empty", "∅"):
        return Sequence.empty(player)
    if ":" not in text:
        raise ValueError(f'sequence must be "INFOSET:ACTION" or "empty", got {text!r}')
    # ids and labels may hold ":" too: take the one split naming an
    # (infoset, action) of the player; with none, the first split's lookup
    # reports what is missing
    splits = [(text[:k], text[k + 1:]) for k, c in enumerate(text) if c == ":"]
    isets = {iset.id: iset for iset in game.infosets[player]}
    named = [(j, a) for j, a in splits if j in isets and a in isets[j].actions]
    if len(named) > 1:
        raise ValueError(f"sequence {text!r} is ambiguous: it names "
                         + " and ".join(f"infoset {j!r} action {a!r}" for j, a in named))
    infoset_id, action = named[0] if named else splits[0]
    return game.sequence(player, infoset_id, action)


def cmd_validate(args) -> int:
    game = parse_game(_read(args.game))
    report = game.validate()
    _emit(report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def cmd_info(args) -> int:
    game = parse_game(_read(args.game))
    per_player = {}
    for i, name in enumerate(game.players):
        pure = 1
        for iset in game.infosets[i]:
            pure *= len(iset.actions)
        per_player[name] = {
            "infosets": len(game.infosets[i]),
            "sequences": len(game.sequences(i)) if game.validate().ok else None,
            "pure_strategies": pure,
        }
    _emit({"players": list(game.players), "nodes": game.num_nodes,
           "chance_nodes": game.num_chance_nodes,
           "terminals": len(game.terminals), "valid": game.validate().ok,
           "per_player": per_player})
    return EXIT_OK


def cmd_outcome(args) -> int:
    game = parse_game(_read(args.game))
    pi = _read_profile(game, _read(args.profile))  # validated by its reach
    _emit(outcome_distribution(game, pi).to_json_dict())
    return EXIT_OK


def cmd_gap(args) -> int:
    game = parse_game(_read(args.game))
    pi = _read_profile(game, _read(args.profile))  # validated by the oracle or reach
    if args.oracle:
        report = brute_force_gap(game, pi, args.notion, table_cap=args.table_cap)
    else:
        report = gap(game, pi, args.notion)
    _emit(report.to_json_dict(game))
    print(f"gap = {format_rational(report.overall)} "
          f"~ {decimal_repr(report.overall)}", file=sys.stderr)
    return EXIT_OK


def cmd_convert(args) -> int:
    game = parse_game(_read(args.game))
    reach = ProfileReach(game, _read_profile(game, _read(args.profile), "decompose"))
    report, responses = _gap(reach, "efce")
    reach_out, gap_out = _checked_rewrite(reach, report, responses)
    _write(serialize_profile(game, reach_out.pi), args)
    print(f"efce gap in:  {format_rational(report.overall)}\n"
          f"bce gap out:  {format_rational(gap_out)}\n"
          "outcome-equivalent: True", file=sys.stderr)
    return EXIT_OK


def cmd_decompose(args) -> int:
    game = parse_game(_read(args.game))
    pi = parse_profile(game, _read(args.profile), behavior_mode="decompose")
    _write(serialize_profile(game, pi), args)
    return EXIT_OK


def cmd_cbr(args) -> int:
    game = parse_game(_read(args.game))
    pi = _read_profile(game, _read(args.profile))
    reach = ProfileReach(game, pi)  # validates pi before the arguments are read
    player = _player_arg(game, args.player)
    seq = _sequence_arg(game, player, args.sequence)
    strategy, value = counterfactual_best_response(game, reach, player, seq)
    # a zero-mass event falls back to the unconditional law, of mass 1
    mass = reach.event_mass(player, seq) or 1
    _emit({"player": game.players[player], "sequence": seq.label(),
           "strategy": strategy.assignment(game),
           "value": format_rational(value),
           "event_mass": format_rational(mass)})
    print(f"value = {format_rational(value)} ~ {decimal_repr(value)}",
          file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.time()
    hashes = {}
    game = parse_game(_read(args.game, hashes))
    objective = None
    if args.objective:
        objective = _parse_objective(_read(args.objective, hashes))
    reach, value, measured = _solve(game, args.notion, parse_rational(args.epsilon),
                                    objective)
    _write(serialize_profile(game, reach.pi), args)
    report = {
        "command": "solve",
        "inputs": {"game": {"path": args.game, "sha256": hashes[args.game]}},
        "outputs": {"notion": args.notion,
                    "gap": format_rational(measured),
                    "expected_utility": [
                        format_rational(expected_utility(game, reach, i))
                        for i in range(game.n)]},
        "wall_time_s": round(time.time() - started, 3),
        "version": __version__,
    }
    if args.objective:
        report["inputs"]["objective"] = {"path": args.objective,
                                         "sha256": hashes[args.objective]}
    if objective is not None:
        report["outputs"]["objective_value"] = format_rational(value)
    print(dumps(report), file=sys.stderr)
    return EXIT_OK


def cmd_paper_check(args) -> int:
    from .checks import run_all
    ok = run_all(sys.stdout)
    return EXIT_OK if ok else EXIT_SEMANTIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
