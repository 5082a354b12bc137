"""Extensive-form game trees with exact rational data.

A game document is UTF-8 JSON: ``{"players": [...], "root": <node>}`` where
``<node>`` is one of::

    {"kind": "chance",
     "actions": [{"label": str, "prob": "p/q", "child": <node>}, ...]}
    {"kind": "decision", "player": <0-based index>, "infoset": str,
     "actions": [{"label": str, "child": <node>}, ...]}
    {"kind": "terminal", "payoffs": ["p/q", ...]}  # one entry per player

Rationals are written "p/q" or "p". Infoset ids are scoped per player; every
node naming the same (player, infoset) pair must list identical action labels
in identical order, and under perfect recall all of an infoset's nodes share
the same history of own (infoset, action) pairs.

A :class:`Game` is immutable after construction and safe for concurrent
read-only use. Parsing never raises on semantic defects that are expressible
in the schema (broken perfect recall, chance probabilities that do not sum
to one, ...); those are reported by :meth:`Game.validate` as data. Schema
errors raise :class:`GameParseError` with a document path, and so does a
tree deeper than :data:`MAX_DEPTH` (300) levels, without one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .errors import GameParseError, InvalidGameError
from .jsonout import dumps
from .rational import format_rational, over_common_denominator, rational_reader

ONE = Fraction(1)
ZERO = Fraction(0)


class Sequence(NamedTuple):
    """A point in a player's decision history: the empty sequence or a final
    (infoset, action) pair, which under perfect recall identifies the whole
    path of that player's choices.

    A named tuple, so hashing and equality run in C; like any tuple it
    equals (and hashes as) the plain tuple of its fields, ``(player,
    infoset, action)``. :class:`Game` interns one per (infoset, action) in
    ``Infoset.seqs``."""

    player: int
    infoset: Optional[str]
    action: Optional[str]

    @classmethod
    def empty(cls, player: int) -> "Sequence":
        return cls(player, None, None)

    @property
    def is_empty(self) -> bool:
        return self.infoset is None

    def label(self) -> str:
        if self.is_empty:
            return "empty"
        return f"{self.infoset}:{self.action}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.label()


@dataclass(frozen=True)
class Violation:
    kind: str  # perfect-recall | chance-sum | infoset-action-mismatch | tree-shape
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "location": v.location, "message": v.message}
                for v in self.violations
            ],
        }


class Node:
    __slots__ = ()

    kind = "node"


class ChanceNode(Node):
    __slots__ = ("moves",)

    kind = "chance"

    def __init__(self, moves):
        self.moves = moves  # list of (label, Fraction prob, Node)


class DecisionNode(Node):
    __slots__ = ("player", "infoset_id", "moves", "infoset", "order")

    kind = "decision"

    def __init__(self, player, infoset_id, moves):
        self.player = player
        self.infoset_id = infoset_id
        self.moves = moves  # list of (label, Node)


class TerminalNode(Node):
    __slots__ = ("payoffs", "index", "terminal_id", "chance_reach", "own_pairs", "last_seq")

    kind = "terminal"

    def __init__(self, payoffs):
        self.payoffs = payoffs  # tuple of Fraction, one per player


class Infoset:
    """A player's information set: the nodes it cannot tell apart. It holds
    no list of them; each decision node links to its infoset instead.

    ``chain`` is the shared history of that player's own (infoset index,
    action) pairs on the path from the root, outermost first and excluding
    this infoset itself, and ``parent_seq`` its last pair as a
    :class:`Sequence`. ``subtree`` lists the player's infosets weakly after
    this one (itself included) in discovery order, and ``terminals_below``
    the indices of the terminals below it, in preorder; together they are
    the player's ancestry index, built once by :class:`Game`.

    Per action position ``m``, ``seqs[m]`` is the interned :class:`Sequence`
    of (this infoset, ``actions[m]``), and ``after[m]`` the pair
    ``(terminals, children)``: the indices of the terminals whose last own
    sequence it is, and the infosets whose parent sequence it is.
    :attr:`Game.root_after` holds the same pair for each player's empty
    sequence. Kernels read these instead of building a sequence and looking
    it up.
    """

    __slots__ = ("player", "id", "index", "actions", "parent_seq", "chain",
                 "subtree", "terminals_below", "seqs", "after")

    def __init__(self, player, id_, index, actions, parent_seq, chain):
        self.player = player
        self.id = id_
        self.index = index
        self.actions = actions
        self.parent_seq = parent_seq
        self.chain = chain
        self.subtree = []
        self.terminals_below = []
        # tuple.__new__ skips the named tuple's Python-level __new__
        self.seqs = tuple([tuple.__new__(Sequence, (player, id_, a)) for a in actions])
        self.after = tuple([([], []) for _ in actions])

    def __repr__(self):  # pragma: no cover
        return f"Infoset(P{self.player}, {self.id!r}, actions={list(self.actions)})"


class Game:
    """Immutable indexed view of a parsed game tree.

    Nodes link down only: each holds its ``moves``, and a decision node
    also its ``infoset``. Reach a node's parent or path by walking from
    ``root``; :meth:`node_at` follows a path down.

    ``root_after[i]`` is player ``i``'s ``(terminals, children)`` pair of
    the empty sequence, in the shape of :attr:`Infoset.after`: the
    terminals the player never acts on, and the player's first infosets.
    ``chance_row = (den, ints)`` holds each terminal's chance reach as
    ``ints[z] / den``, and ``payoff_rows[i]`` holds ``payoff_i(z) *
    chance(z)`` so, over the lcm of the player's payoff denominators times
    the chance row's ``den``.
    """

    def __init__(self, players: tuple[str, ...], root: Node):
        self.players = players
        self.n = len(players)
        self.root = root
        self.terminals: list[TerminalNode] = []
        self.infosets: list[list[Infoset]] = [[] for _ in players]
        self._infoset_by_key: dict[tuple[int, str], Infoset] = {}
        self._violations: list[Violation] = []
        self.num_nodes = 0
        self.num_chance_nodes = 0
        self.root_after: list[tuple[list[int], list[Infoset]]] = [
            ([], []) for _ in players]
        self._sequences: list[list[Sequence]] = []
        self._build()
        self.chance_row = chance_den, chances = over_common_denominator(
            [z.chance_reach for z in self.terminals])
        self.payoff_rows: list[tuple[int, list[int]]] = []
        for i in range(self.n):
            den, payoffs = over_common_denominator([z.payoffs[i] for z in self.terminals])
            self.payoff_rows.append((den * chance_den, [u * c for u, c in zip(payoffs, chances)]))
        self._validation = ValidationReport(
            ok=not self._violations, violations=tuple(self._violations)
        )

    # -- construction ---------------------------------------------------

    def _build(self):
        """Walk the tree once in preorder, indexing it as it goes.

        Each stack entry carries, per player, the own (infoset index,
        action) pairs on the path, the last own :class:`Sequence` (the
        object interned in :attr:`Infoset.seqs`, or the player's one empty
        sequence) and that sequence's ``(terminals, children)`` entry of
        :attr:`Infoset.after`, so no sequence is built or looked up per
        node. A node more than :data:`MAX_DEPTH` moves below the root
        raises :class:`GameParseError`."""
        n = self.n
        empties = tuple(Sequence.empty(i) for i in range(n))
        terminals, infosets, by_key = self.terminals, self.infosets, self._infoset_by_key
        stack = [(self.root, (), ONE, ((),) * n, empties, tuple(self.root_after))]
        count = 0
        while stack:
            node, path, chance, pairs, lasts, afters = stack.pop()
            if len(path) > MAX_DEPTH:
                raise GameParseError(_TOO_DEEP)
            count += 1
            kind = node.kind
            if kind == "terminal":
                node.index = z = len(terminals)
                node.terminal_id = "/".join(path) or "."
                node.chance_reach = chance
                node.own_pairs = pairs
                node.last_seq = lasts
                for i in range(n):
                    afters[i][0].append(z)
                    isets = infosets[i]
                    for idx, _a in pairs[i]:
                        isets[idx].terminals_below.append(z)
                terminals.append(node)
                continue
            moves = node.moves
            labels = tuple([m[0] for m in moves])
            if not labels:
                self._violate("tree-shape", path, "node has no actions")
            if len(labels) > 1 and len(set(labels)) != len(labels):
                self._violate("tree-shape", path, "duplicate action labels at one node")
            if kind == "chance":
                self.num_chance_nodes += 1
                total = sum((m[1] for m in moves), ZERO)
                if moves and total != 1:
                    self._violate("chance-sum", path, f"chance probabilities sum to "
                                                      f"{format_rational(total)}, not 1")
                for label, prob, child in reversed(moves):
                    if prob < 0:
                        self._violate("chance-sum", path,
                                      f"negative probability on action {label!r}")
                    stack.append((child, path + (label,), chance * prob, pairs, lasts, afters))
                continue
            # decision node
            node.order = count  # preorder rank: stack pops in preorder
            i = node.player
            iset = by_key.get((i, node.infoset_id))
            if iset is None:
                iset = self._add_infoset(i, node.infoset_id, labels, pairs[i],
                                         lasts[i], afters[i])
            else:
                if iset.actions != labels:
                    self._violate("infoset-action-mismatch", path,
                                  f"infoset {node.infoset_id!r} lists actions {list(labels)}, "
                                  f"first seen with {list(iset.actions)}")
                if iset.chain != pairs[i]:
                    self._violate("perfect-recall", path,
                                  f"infoset {node.infoset_id!r} mixes own histories "
                                  f"{list(self._ids(i, iset.chain))} and "
                                  f"{list(self._ids(i, pairs[i]))}")
            node.infoset = iset
            actions, index = iset.actions, iset.index
            head, own, tail = pairs[:i], pairs[i], pairs[i + 1:]
            lhead, ltail, ahead, atail = lasts[:i], lasts[i + 1:], afters[:i], afters[i + 1:]
            for m in range(len(labels) - 1, -1, -1):
                label, child = moves[m]
                if m < len(actions) and actions[m] == label:
                    seq, after = iset.seqs[m], iset.after[m]
                else:  # the node's actions differ from its infoset's: the game is invalid
                    seq, after = Sequence(i, iset.id, label), ([], [])
                stack.append((child, path + (label,), chance,
                              head + (own + ((index, label),),) + tail,
                              lhead + (seq,) + ltail, ahead + (after,) + atail))
        self.num_nodes = count
        self._sequences = [[empties[i]] + [s for iset in self.infosets[i] for s in iset.seqs]
                           for i in range(n)]

    def _add_infoset(self, i: int, id_: str, actions: tuple, chain: tuple,
                     parent_seq: Sequence, parent_after: tuple) -> Infoset:
        """Index player ``i``'s infoset ``id_`` where the walk first meets it."""
        isets = self.infosets[i]
        iset = Infoset(i, id_, len(isets), actions, parent_seq, chain)
        parent_after[1].append(iset)
        for j, _a in chain:
            isets[j].subtree.append(iset)
        iset.subtree.append(iset)
        self._infoset_by_key[(i, id_)] = iset
        isets.append(iset)
        return iset

    def _violate(self, kind: str, path: tuple, message: str):
        self._violations.append(Violation(kind, "/".join(path) or ".", message))

    def _ids(self, i: int, chain: tuple) -> tuple:
        """An own chain of player ``i`` with infoset ids in place of indices."""
        isets = self.infosets[i]
        return tuple([(isets[j].id, a) for j, a in chain])

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report perfect-recall, chance-sum, infoset and shape defects.

        Violations are data, not exceptions; ``ok`` is True iff none exist.
        """
        return self._validation

    def require_valid(self):
        if not self._validation.ok:
            first = self._validation.violations[0]
            raise InvalidGameError(
                f"game fails validation ({first.kind} at {first.location}: {first.message})")

    # -- lookups ----------------------------------------------------------

    def player_index(self, player: Union[int, str]) -> int:
        if isinstance(player, int):
            if not 0 <= player < self.n:
                raise KeyError(f"no player with index {player}")
            return player
        try:
            return self.players.index(player)
        except ValueError:
            raise KeyError(f"unknown player {player!r}") from None

    def infoset(self, player: Union[int, str], infoset_id: str) -> Infoset:
        i = self.player_index(player)
        try:
            return self._infoset_by_key[(i, infoset_id)]
        except KeyError:
            raise KeyError(f"player {self.players[i]} has no infoset {infoset_id!r}") from None

    def sequences(self, player: Union[int, str]) -> list[Sequence]:
        """The empty sequence followed by one sequence per (infoset, action),
        infosets in discovery order. Order among them is read off the
        infosets' ``chain`` and ``subtree``."""
        self.require_valid()
        return list(self._sequences[self.player_index(player)])

    def sequence(self, player: Union[int, str], infoset_id: Optional[str],
                 action: Optional[str] = None) -> Sequence:
        i = self.player_index(player)
        if infoset_id is None:
            return Sequence.empty(i)
        iset = self.infoset(i, infoset_id)
        if action not in iset.actions:
            raise KeyError(f"infoset {infoset_id!r} has no action {action!r}")
        return Sequence(i, infoset_id, action)

    def terminal(self, terminal_id: str) -> TerminalNode:
        for z in self.terminals:
            if z.terminal_id == terminal_id:
                return z
        raise KeyError(f"no terminal {terminal_id!r}")

    def node_at(self, path: Iterable[str]) -> Node:
        node, walked = self.root, []
        for label in path:
            if node.kind == "terminal":
                raise KeyError(f"path descends past terminal {node.terminal_id!r}")
            for m in node.moves:
                if m[0] == label:
                    node = m[-1]
                    break
            else:
                raise KeyError(f"no action {label!r} at node {'/'.join(walked) or '.'}")
            walked.append(label)
        return node


# -- parsing and serialization -------------------------------------------


_TOO_DEEP = "document is nested too deeply to read"
# the deepest tree a Game holds: every supported interpreter reads a game
# document this deep, where json.loads (3.10, 3.11) or the node parse, one
# frame per level (3.12, 3.13), gives out deeper
MAX_DEPTH = 300


def _decode_json(text: str, error: type = GameParseError):
    """The JSON value ``text`` holds; a syntax error or nesting too deep to
    decode raises ``error``. Every document the package reads is decoded here."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"invalid JSON: {e.msg} (line {e.lineno}, column {e.colno})") from e
    except RecursionError:
        raise error(_TOO_DEEP) from None


def parse_game(text: str) -> Game:
    """Parse a UTF-8 game document. Exact round-trip with
    :func:`serialize_game` after one canonicalization pass."""
    doc = _decode_json(text)
    if not isinstance(doc, dict):
        raise GameParseError("top level must be an object")
    players = doc.get("players")
    if not isinstance(players, list) or not players or \
            not all(isinstance(p, str) for p in players):
        raise GameParseError("\"players\" must be a non-empty list of strings", "players")
    if len(set(players)) != len(players):
        raise GameParseError("player names must be distinct", "players")
    if "root" not in doc:
        raise GameParseError("missing \"root\"")
    try:
        root = _parse_node(doc["root"], len(players), rational_reader())
    except RecursionError:  # decoded, but too deep for the recursive node parse
        raise GameParseError(_TOO_DEEP) from None
    return Game(tuple(players), root)


def _parse_node(spec, n: int, rational, where=None) -> Node:
    """The node ``spec`` describes. ``where`` locates it: None at the root,
    else the pair (its parent's ``where``, its action position), so the
    happy path builds no path strings."""
    if not isinstance(spec, dict):
        raise _defect("node must be an object", where)
    kind = spec.get("kind")
    if kind == "terminal":
        payoffs = spec.get("payoffs")
        if not isinstance(payoffs, list):
            raise _defect("terminal needs a \"payoffs\" list", where)
        if len(payoffs) != n:
            raise _defect(f"payoff vector has {len(payoffs)} entries for {n} players", where)
        try:
            return TerminalNode(tuple(map(rational, payoffs)))
        except ValueError as e:
            raise _defect(str(e), where, "/payoffs") from None
    chance = kind == "chance"
    if not chance:
        if kind != "decision":
            raise _defect(f"unknown node kind {kind!r}", where)
        player = spec.get("player")
        if not isinstance(player, int) or isinstance(player, bool) or not 0 <= player < n:
            raise _defect(f"\"player\" must be an integer in [0, {n}), got {player!r}", where)
        infoset = spec.get("infoset")
        if not isinstance(infoset, str) or not infoset:
            raise _defect("\"infoset\" must be a non-empty string", where)
    actions = spec.get("actions")
    if not isinstance(actions, list):
        raise _defect("node needs an \"actions\" list", where)
    moves = []
    for k, item in enumerate(actions):
        if not isinstance(item, dict):
            raise _defect("action must be an object", where, f"/actions/{k}")
        label = item.get("label")
        if not isinstance(label, str) or not label:
            raise _defect("action needs a non-empty string \"label\"", where, f"/actions/{k}")
        if chance:
            if "prob" not in item:
                raise _defect("chance action needs \"prob\"", where, f"/actions/{k}")
            try:
                prob = rational(item["prob"])
            except ValueError as e:
                raise _defect(str(e), where, f"/actions/{k}/prob") from None
        if "child" not in item:
            raise _defect("action needs a \"child\" node", where, f"/actions/{k}")
        child = _parse_node(item["child"], n, rational, (where, k))
        moves.append((label, prob, child) if chance else (label, child))
    return ChanceNode(moves) if chance else DecisionNode(player, infoset, moves)


def _defect(message: str, where, part: str = "") -> GameParseError:
    """The error for a schema defect at ``part`` of the node ``where``
    locates; the only place a node's document path is built."""
    steps = []
    while where is not None:
        where, k = where
        steps.append(f"/actions/{k}/child")
    return GameParseError(message, "root" + "".join(reversed(steps)) + part)


def serialize_game(game: Game) -> str:
    """Canonical document for a game: stable key order, rationals as "p/q"."""
    return dumps({"players": list(game.players), "root": _node_dict(game.root)},
                 ensure_ascii=False) + "\n"


def _node_dict(node: Node) -> dict:
    if node.kind == "terminal":
        return {"kind": "terminal",
                "payoffs": [format_rational(u) for u in node.payoffs]}
    if node.kind == "chance":
        return {"kind": "chance", "actions": [
            {"label": label, "prob": format_rational(prob), "child": _node_dict(child)}
            for label, prob, child in node.moves]}
    return {"kind": "decision", "player": node.player, "infoset": node.infoset_id,
            "actions": [{"label": label, "child": _node_dict(child)}
                        for label, child in node.moves]}
