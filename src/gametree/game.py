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
errors raise :class:`GameParseError` with a document path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .errors import GameParseError, InvalidGameError
from .rational import format_rational, parse_rational

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
    __slots__ = ("parent", "path")

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
    """A player's information set: the nodes it cannot tell apart.

    ``own_history`` is the shared list of (infoset id, action) pairs of that
    player on the path from the root (excluding this infoset itself), and
    ``parent_seq`` the corresponding :class:`Sequence`. ``chain`` is the same
    history as (infoset index, action) pairs, outermost first, and
    ``subtree`` lists the player's infosets weakly after this one (itself
    included) in discovery order; together they are the player's ancestry
    index, built once by :class:`Game`.

    Per action position ``m``, ``seqs[m]`` is the interned :class:`Sequence`
    of (this infoset, ``actions[m]``), and ``after[m]`` the pair
    ``(terminals, children)``: the indices of the terminals whose last own
    sequence it is, and the infosets whose parent sequence it is.
    :attr:`Game.root_after` holds the same pair for each player's empty
    sequence. Kernels read these instead of building a sequence and looking
    it up.
    """

    __slots__ = ("player", "id", "index", "actions", "nodes", "own_history",
                 "parent_seq", "chain", "subtree", "terminals_below", "seqs", "after")

    def __init__(self, player, id_, index, actions, own_history, parent_seq, chain):
        self.player = player
        self.id = id_
        self.index = index
        self.actions = actions
        self.nodes = []
        self.own_history = own_history
        self.parent_seq = parent_seq
        self.chain = chain
        self.subtree = []
        self.terminals_below = []  # (terminal index, offset into own_pairs[player])

    def __repr__(self):  # pragma: no cover
        return f"Infoset(P{self.player}, {self.id!r}, actions={list(self.actions)})"


class Game:
    """Immutable indexed view of a parsed game tree.

    ``root_after[i]`` is player ``i``'s ``(terminals, children)`` pair of
    the empty sequence, in the shape of :attr:`Infoset.after`: the
    terminals the player never acts on, and the player's first infosets.
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
        self._build()
        self._sequences: list[list[Sequence]] = []
        self.root_after: list[tuple[list[int], list[Infoset]]] = []
        self._index_sequences()
        self._validation = ValidationReport(
            ok=not self._violations, violations=tuple(self._violations)
        )

    # -- construction ---------------------------------------------------

    def _build(self):
        n = self.n
        # stack entries: (node, parent, path, chance, pairs) where
        #   pairs[i] = tuple of (infoset index, action) for player i on the path
        stack = [(self.root, None, (), ONE, tuple(() for _ in range(n)))]
        while stack:
            node, parent, path, chance, pairs = stack.pop()
            node.parent = parent
            node.path = path
            self.num_nodes += 1
            loc = "/".join(path) or "."
            if node.kind == "terminal":
                node.index = len(self.terminals)
                node.terminal_id = loc
                node.chance_reach = chance
                node.own_pairs = pairs
                node.last_seq = tuple(self._sequence_after(i, pairs[i]) for i in range(n))
                self.terminals.append(node)
                continue
            labels = [m[0] for m in node.moves]
            if not labels:
                self._violations.append(
                    Violation("tree-shape", loc, "node has no actions"))
            if len(set(labels)) != len(labels):
                self._violations.append(
                    Violation("tree-shape", loc, "duplicate action labels at one node"))
            if node.kind == "chance":
                self.num_chance_nodes += 1
                total = sum((m[1] for m in node.moves), ZERO)
                if node.moves and total != 1:
                    self._violations.append(Violation(
                        "chance-sum", loc,
                        f"chance probabilities sum to {format_rational(total)}, not 1"))
                for label, prob, child in reversed(node.moves):
                    if prob < 0:
                        self._violations.append(Violation(
                            "chance-sum", loc, f"negative probability on action {label!r}"))
                    stack.append((child, node, path + (label,), chance * prob, pairs))
                continue
            # decision node
            node.order = self.num_nodes  # preorder rank: stack pops in preorder
            i = node.player
            iset = self._infoset_by_key.get((i, node.infoset_id))
            if iset is None:
                iset = Infoset(i, node.infoset_id, len(self.infosets[i]),
                               tuple(labels), self._ids(i, pairs[i]),
                               self._sequence_after(i, pairs[i]), pairs[i])
                self._infoset_by_key[(i, node.infoset_id)] = iset
                self.infosets[i].append(iset)
            else:
                if iset.actions != tuple(labels):
                    self._violations.append(Violation(
                        "infoset-action-mismatch", loc,
                        f"infoset {node.infoset_id!r} lists actions {labels}, "
                        f"first seen with {list(iset.actions)}"))
                if iset.chain != pairs[i]:
                    self._violations.append(Violation(
                        "perfect-recall", loc,
                        f"infoset {node.infoset_id!r} mixes own histories "
                        f"{list(iset.own_history)} and {list(self._ids(i, pairs[i]))}"))
            iset.nodes.append(node)
            node.infoset = iset
            for label, child in reversed(node.moves):
                new_pairs = list(pairs)
                new_pairs[i] = pairs[i] + ((iset.index, label),)
                stack.append((child, node, path + (label,), chance, tuple(new_pairs)))

    def _ids(self, i: int, chain: tuple) -> tuple:
        """An own chain of player ``i`` with infoset ids in place of indices."""
        return tuple((self.infosets[i][j].id, a) for j, a in chain)

    def _sequence_after(self, i: int, chain: tuple) -> Sequence:
        if not chain:
            return Sequence.empty(i)
        j, a = chain[-1]
        return Sequence(i, self.infosets[i][j].id, a)

    def _index_sequences(self):
        interned: dict[Sequence, Sequence] = {}  # one object per sequence
        for i in range(self.n):
            isets = self.infosets[i]
            seqs = [Sequence.empty(i)]
            for iset in isets:
                iset.seqs = tuple(Sequence(i, iset.id, a) for a in iset.actions)
                seqs.extend(iset.seqs)
            interned.update((s, s) for s in seqs)
            children: dict[Sequence, list[Infoset]] = {s: [] for s in seqs}
            by_last: dict[Sequence, list[int]] = {s: [] for s in seqs}
            for iset in isets:
                iset.parent_seq = interned.get(iset.parent_seq, iset.parent_seq)
                children.setdefault(iset.parent_seq, []).append(iset)
                for j, _a in iset.chain:
                    isets[j].subtree.append(iset)
                iset.subtree.append(iset)
            for z in self.terminals:
                by_last.setdefault(z.last_seq[i], []).append(z.index)
            for iset in isets:
                iset.after = tuple((by_last[s], children[s]) for s in iset.seqs)
            self._sequences.append(seqs)
            self.root_after.append((by_last[seqs[0]], children[seqs[0]]))
        for z in self.terminals:
            z.last_seq = tuple(interned.get(s, s) for s in z.last_seq)
            for i in range(self.n):
                for offset, (idx, _a) in enumerate(z.own_pairs[i]):
                    self.infosets[i][idx].terminals_below.append((z.index, offset))

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
        node = self.root
        for label in path:
            if node.kind == "terminal":
                raise KeyError(f"path descends past terminal {node.terminal_id!r}")
            for m in node.moves:
                if m[0] == label:
                    node = m[-1]
                    break
            else:
                raise KeyError(f"no action {label!r} at node {'/'.join(node.path) or '.'}")
        return node

    # -- chance ----------------------------------------------------------

    def chance_reach(self, z: Union[TerminalNode, str]) -> Fraction:
        """Product of chance probabilities on the root-to-terminal path."""
        if isinstance(z, str):
            z = self.terminal(z)
        return z.chance_reach


# -- parsing and serialization -------------------------------------------


def parse_game(text: str) -> Game:
    """Parse a UTF-8 game document. Exact round-trip with
    :func:`serialize_game` after one canonicalization pass."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GameParseError(f"invalid JSON: {e.msg} (line {e.lineno}, column {e.colno})") from e
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
    root = _parse_node(doc["root"], "root", len(players))
    return Game(tuple(players), root)


def _parse_node(spec, where: str, n: int) -> Node:
    if not isinstance(spec, dict):
        raise GameParseError("node must be an object", where)
    kind = spec.get("kind")
    if kind == "terminal":
        payoffs = spec.get("payoffs")
        if not isinstance(payoffs, list):
            raise GameParseError("terminal needs a \"payoffs\" list", where)
        if len(payoffs) != n:
            raise GameParseError(
                f"payoff vector has {len(payoffs)} entries for {n} players", where)
        try:
            values = tuple(parse_rational(p) for p in payoffs)
        except ValueError as e:
            raise GameParseError(str(e), f"{where}/payoffs") from e
        return TerminalNode(values)
    if kind == "chance":
        moves = []
        for k, item in enumerate(_actions_of(spec, where)):
            sub = f"{where}/actions/{k}"
            label = _label_of(item, sub)
            if "prob" not in item:
                raise GameParseError("chance action needs \"prob\"", sub)
            try:
                prob = parse_rational(item["prob"])
            except ValueError as e:
                raise GameParseError(str(e), f"{sub}/prob") from e
            moves.append((label, prob, _parse_node(_child_of(item, sub), f"{sub}/child", n)))
        return ChanceNode(moves)
    if kind == "decision":
        player = spec.get("player")
        if not isinstance(player, int) or isinstance(player, bool) or not 0 <= player < n:
            raise GameParseError(
                f"\"player\" must be an integer in [0, {n}), got {player!r}", where)
        infoset = spec.get("infoset")
        if not isinstance(infoset, str) or not infoset:
            raise GameParseError("\"infoset\" must be a non-empty string", where)
        moves = []
        for k, item in enumerate(_actions_of(spec, where)):
            sub = f"{where}/actions/{k}"
            label = _label_of(item, sub)
            moves.append((label, _parse_node(_child_of(item, sub), f"{sub}/child", n)))
        return DecisionNode(player, infoset, moves)
    raise GameParseError(f"unknown node kind {kind!r}", where)


def _actions_of(spec, where):
    actions = spec.get("actions")
    if not isinstance(actions, list):
        raise GameParseError("node needs an \"actions\" list", where)
    return actions


def _label_of(item, where):
    if not isinstance(item, dict):
        raise GameParseError("action must be an object", where)
    label = item.get("label")
    if not isinstance(label, str) or not label:
        raise GameParseError("action needs a non-empty string \"label\"", where)
    return label


def _child_of(item, where):
    if "child" not in item:
        raise GameParseError("action needs a \"child\" node", where)
    return item["child"]


def serialize_game(game: Game) -> str:
    """Canonical document for a game: stable key order, rationals as "p/q"."""
    return json.dumps(
        {"players": list(game.players), "root": _node_dict(game.root)},
        indent=2, ensure_ascii=False) + "\n"


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
