"""Brute-force regret oracles.

Everything here works straight from the definitions: enumerate every raw
deviation table phi : X_i -> X_i, keep the ones whose local outputs are
measurable with respect to the class's conditioning information, and take the
exact maximum regret by direct evaluation. Costs |X_i| ** |X_i| per player,
so this is a testing tool for tiny games, never a performance path - its one
job is to catch wrong state abstractions in the dynamic programs, which it
can do precisely because it shares no structure with them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import ResourceGuardError
from .game import Game, Infoset, Sequence
from .metrics import GapReport, counterfactual_utility, pure_utility
from .strategy import (MixtureOfProducts, PureProfile, PureStrategy,
                       profile_support, pure_reaches_sequence)
from .witnesses import TableWitness, recommendation_history

ZERO = Fraction(0)

DEFAULT_TABLE_CAP = 70_000
DEFAULT_PURE_CAP = 100_000


@dataclass(frozen=True)
class DeviationTable:
    """A total map from recommended to played pure strategies."""

    player: int
    table: tuple[tuple[PureStrategy, PureStrategy], ...]

    def as_dict(self) -> dict[PureStrategy, PureStrategy]:
        return dict(self.table)


def enumerate_pure(game: Game, player: Union[int, str],
                   cap: int = DEFAULT_PURE_CAP) -> list[PureStrategy]:
    """All pure strategies of a player in lexicographic order (infosets in
    discovery order, actions in document order)."""
    game.require_valid()
    i = game.player_index(player)
    count = 1
    for iset in game.infosets[i]:
        count *= len(iset.actions)
        if count > cap:
            raise ResourceGuardError(
                f"player {game.players[i]} has more than {cap} pure strategies")
    return [PureStrategy(i, combo) for combo in
            itertools.product(*(iset.actions for iset in game.infosets[i]))]


def _chain(game: Game, iset: Infoset) -> list[Infoset]:
    """Infosets weakly preceding ``iset`` on its own history, outermost first."""
    return [game.infosets[iset.player][j] for j, _ in iset.chain] + [iset]


def _causal_signature(game: Game, x: PureStrategy, iset: Infoset) -> tuple:
    """The reach indicators x(Ja) for every sequence at infosets weakly
    preceding ``iset`` - all a deviator in the causal class may see there."""
    sig = []
    for j in _chain(game, iset):
        for a in j.actions:
            sig.append(pure_reaches_sequence(game, x, Sequence(x.player, j.id, a)))
    return tuple(sig)


def _behavioral_signature(game: Game, x: PureStrategy, iset: Infoset) -> tuple:
    """The local recommendations x(.|J) at the same infosets."""
    return recommendation_history(game, x, iset)


def _measurable(game: Game, i: int, mapping, signature) -> bool:
    for iset in game.infosets[i]:
        seen: dict = {}
        for x, y in mapping:
            key = signature(game, x, iset)
            out = y.action_at(iset.index)
            if seen.setdefault(key, out) != out:
                return False
    return True


def is_causal(game: Game, player: Union[int, str], phi: DeviationTable) -> bool:
    """Does every local output depend only on the infoset plus the reach
    indicators of own sequences weakly preceding it?"""
    return _measurable(game, game.player_index(player), phi.table, _causal_signature)


def is_behavioral(game: Game, player: Union[int, str], phi: DeviationTable) -> bool:
    """As :func:`is_causal` with the richer conditioning set: the local
    recommendations at all weakly preceding infosets."""
    return _measurable(game, game.player_index(player), phi.table, _behavioral_signature)


def deviation_tables(game: Game, player: Union[int, str],
                     cap: int = DEFAULT_TABLE_CAP) -> Iterator[DeviationTable]:
    """Every raw table phi : X_i -> X_i. Guarded: |X_i| ** |X_i| <= cap."""
    i = game.player_index(player)
    xs = enumerate_pure(game, i)
    total = len(xs) ** len(xs)
    if total > cap:
        raise ResourceGuardError(
            f"player {game.players[i]} has {len(xs)}^{len(xs)} = {total} deviation "
            f"tables, above the cap of {cap}; raise it via --table-cap or table_cap=")
    for outs in itertools.product(xs, repeat=len(xs)):
        yield DeviationTable(i, tuple(zip(xs, outs)))


def oracle_player_gap(game: Game, pi: MixtureOfProducts, notion: str,
                      player: Union[int, str],
                      table_cap: int = DEFAULT_TABLE_CAP):
    """Exact max regret for one player by exhaustive enumeration.

    Returns (gap, witness, per_infoset) where per_infoset is None except for
    bce. Raises :class:`ResourceGuardError` when the table space is above
    ``table_cap`` (constants, used by nfcce, never are).
    """
    game.require_valid()
    i = game.player_index(player)
    xs = enumerate_pure(game, i)
    index_of = {x: k for k, x in enumerate(xs)}
    support = [(w, profile) for w, profile in profile_support(pi)]
    rec_idx = [index_of[profile.strategies[i]] for _w, profile in support]

    def swapped(profile: PureProfile, y: PureStrategy) -> PureProfile:
        strategies = list(profile.strategies)
        strategies[i] = y
        return PureProfile(tuple(strategies))

    if notion == "nfcce":
        # constant tables only; no combinatorial blowup
        base = sum((w * pure_utility(game, profile, i) for w, profile in support), ZERO)
        best = ZERO
        best_x = None
        for y in xs:
            val = sum((w * pure_utility(game, swapped(profile, y), i)
                       for w, profile in support), ZERO)
            if val - base > best:
                best = val - base
                best_x = y
        witness = TableWitness(i, tuple((x, best_x if best_x is not None else x)
                                        for x in xs))
        return best, witness, None

    values = [[pure_utility(game, swapped(profile, y), i) for y in xs]
              for _w, profile in support]
    base = sum((w * values[s][rec_idx[s]] for s, (w, _p) in enumerate(support)), ZERO)

    if notion in ("efce", "full-efce"):
        accept = is_causal if notion == "efce" else is_behavioral
        best = ZERO
        best_table = None
        for phi in deviation_tables(game, i, table_cap):
            if not accept(game, i, phi):
                continue
            outs = {x: y for x, y in phi.table}
            r = sum((w * values[s][index_of[outs[xs[rec_idx[s]]]]]
                     for s, (w, _p) in enumerate(support)), ZERO) - base
            if r > best:
                best = r
                best_table = phi
        witness = TableWitness(i, best_table.table if best_table
                               else tuple((x, x) for x in xs))
        return best, witness, None

    if notion != "bce":
        raise ValueError(f"unknown notion {notion!r}")

    infosets = game.infosets[i]
    cf_values = {}
    cf_base = {}
    for iset in infosets:
        cf_values[iset.id] = [[counterfactual_utility(game, swapped(profile, y), i, iset.id)
                               for y in xs] for _w, profile in support]
        cf_base[iset.id] = sum(
            (w * counterfactual_utility(game, profile, i, iset.id)
             for w, profile in support), ZERO)
    per_infoset = {iset.id: ZERO for iset in infosets}
    witnesses = {iset.id: None for iset in infosets}
    for phi in deviation_tables(game, i, table_cap):
        if not is_behavioral(game, i, phi):
            continue
        outs = {x: y for x, y in phi.table}
        for iset in infosets:
            vals = cf_values[iset.id]
            r = sum((w * vals[s][index_of[outs[xs[rec_idx[s]]]]]
                     for s, (w, _p) in enumerate(support)), ZERO) - cf_base[iset.id]
            if r > per_infoset[iset.id]:
                per_infoset[iset.id] = r
                witnesses[iset.id] = phi
    best_gap = ZERO
    best_iset = None
    for iset in infosets:
        if per_infoset[iset.id] > best_gap:
            best_gap = per_infoset[iset.id]
            best_iset = iset.id
    if best_iset is None:
        witness = TableWitness(i, tuple((x, x) for x in xs))
    else:
        witness = TableWitness(i, witnesses[best_iset].table, best_iset)
    return best_gap, witness, per_infoset


def brute_force_gap(game: Game, pi: MixtureOfProducts, notion: str,
                    players: Optional[Iterable[Union[int, str]]] = None,
                    table_cap: int = DEFAULT_TABLE_CAP) -> GapReport:
    """Definitional gap over every player (or the given subset).

    The report mirrors :func:`gametree.metrics.gap`; the central test
    property of this package is that the two agree exactly wherever this one
    is feasible. With a player subset, unlisted players are skipped and
    excluded from the maximum.
    """
    game.require_valid()
    pi.validate(game)
    wanted = set(range(game.n)) if players is None else \
        {game.player_index(p) for p in players}
    gaps = []
    witnesses = []
    per_infoset: dict[tuple[int, str], Fraction] = {}
    for i in range(game.n):
        if i not in wanted:
            gaps.append(ZERO)
            witnesses.append(None)
            continue
        g, w, per_iset = oracle_player_gap(game, pi, notion, i, table_cap)
        gaps.append(g)
        witnesses.append(w)
        if per_iset is not None:
            for iset_id, value in per_iset.items():
                per_infoset[(i, iset_id)] = value
    best = max((i for i in wanted), key=lambda i: (gaps[i], -i))
    return GapReport(notion, gaps[best], tuple(gaps),
                     per_infoset if notion == "bce" else None, witnesses[best])
