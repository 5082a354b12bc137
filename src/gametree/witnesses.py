"""Serializable deviation witnesses.

A gap report carries the deviation that attains the worst-case regret. Each
witness can be re-applied to a recommended pure strategy, so reported gaps
can be re-derived independently of the dynamic programs that found them.

Three shapes:

* :class:`ConstantWitness` - play a fixed plan regardless of recommendation.
* :class:`TriggerCommitWitness` - obey until a (sequence, recommendation)
  trigger fires, then commit to a fixed continuation. Several commits may be
  listed; they sit at incomparable trigger points, so at most one fires on
  any recommendation path.
* :class:`HistoryPolicyWitness` - choose per (infoset, full local
  recommendation history) with obedience as the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .game import Game, Infoset, Sequence
from .strategy import PureStrategy, pure_reaches_sequence

# a recommendation history: ((infoset id, recommended action), ...) along the
# player's own chain, ending with the infoset the deviation acts at
History = tuple[tuple[str, str], ...]


def recommendation_history(game: Game, ps: PureStrategy, iset: Infoset) -> History:
    """The local recommendations of ``ps`` at every own infoset weakly
    preceding ``iset``, in chain order."""
    isets = game.infosets[ps.player]
    out = [(isets[j].id, ps.actions[j]) for j, _a in iset.chain]
    out.append((iset.id, ps.actions[iset.index]))
    return tuple(out)


@dataclass(frozen=True)
class ConstantWitness:
    player: int
    strategy: PureStrategy

    def apply(self, game: Game, ps: PureStrategy) -> PureStrategy:
        return self.strategy

    def to_json_dict(self, game: Game) -> dict:
        return {"kind": "constant", "player": game.players[self.player],
                "strategy": self.strategy.assignment(game)}


@dataclass(frozen=True)
class TriggerCommitWitness:
    player: int
    commits: tuple[tuple[Sequence, PureStrategy], ...]

    def apply(self, game: Game, ps: PureStrategy) -> PureStrategy:
        """Rewrite ``ps`` below every fired trigger.

        A commit at sequence Ja fires when the recommendation reaches Ja; it
        replaces play at infosets weakly after J with the stored
        continuation. No commit sits at the empty sequence.
        """
        actions = list(ps.actions)
        for seq, continuation in self.commits:
            if not pure_reaches_sequence(game, ps, seq):
                continue
            for iset in game.infoset(self.player, seq.infoset).subtree:
                actions[iset.index] = continuation.action_at(iset.index)
        return PureStrategy(self.player, tuple(actions))

    def to_json_dict(self, game: Game) -> dict:
        return {"kind": "trigger-commit", "player": game.players[self.player],
                "commits": [{"trigger": seq.label(),
                             "continuation": cont.assignment(game)}
                            for seq, cont in self.commits]}


@dataclass(frozen=True)
class HistoryPolicyWitness:
    player: int
    policy: tuple[tuple[str, History, str], ...]  # (infoset, history, action)
    at_infoset: Optional[str] = None  # set when the witness targets one infoset

    def apply(self, game: Game, ps: PureStrategy) -> PureStrategy:
        table = {(iset_id, hist): action for iset_id, hist, action in self.policy}
        actions = list(ps.actions)
        for iset in game.infosets[self.player]:
            key = (iset.id, recommendation_history(game, ps, iset))
            if key in table:
                actions[iset.index] = table[key]
        return PureStrategy(self.player, tuple(actions))

    def to_json_dict(self, game: Game) -> dict:
        d = {"kind": "history-policy", "player": game.players[self.player],
             "policy": [{"infoset": iset_id,
                         "history": [[j, a] for j, a in hist],
                         "action": action}
                        for iset_id, hist, action in self.policy]}
        if self.at_infoset is not None:
            d["infoset"] = self.at_infoset
        return d


@dataclass(frozen=True)
class TableWitness:
    """Raw deviation table from the brute-force oracle (tiny games only)."""

    player: int
    mapping: tuple[tuple[PureStrategy, PureStrategy], ...]
    at_infoset: Optional[str] = None

    def apply(self, game: Game, ps: PureStrategy) -> PureStrategy:
        for src, dst in self.mapping:
            if src == ps:
                return dst
        return ps

    def to_json_dict(self, game: Game) -> dict:
        d = {"kind": "table", "player": game.players[self.player],
             "map": [{"from": src.assignment(game), "to": dst.assignment(game)}
                     for src, dst in self.mapping]}
        if self.at_infoset is not None:
            d["infoset"] = self.at_infoset
        return d
