"""Counterfactual best responses and the off-path recommendation rewrite.

The rewrite takes a correlated profile in mixture form and replaces, inside
every pure strategy of its support, the action at each infoset the strategy
does not reach: the new action comes from the counterfactual best response
conditioned on the unique sequence where that strategy walked away. On-path
recommendations are untouched, so the outcome distribution is preserved
exactly, while a deviator who keeps receiving recommendations after
disobeying now only ever sees best responses to its own situation - which is
what pushes the worst-case counterfactual regret down to the causal gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .bestresponse import best_response
from .errors import InternalCheckError
from .game import Game, Sequence
from .metrics import (ConditionalReach, ProfileReach, _weights, conditional_reach,
                      pure_utility)
from .strategy import (MixtureComponent, MixtureOfProducts, PureProfile,
                       PureStrategy, profile_support, pure_reaches_infoset)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class CbrEntry:
    strategy: PureStrategy
    value: Fraction  # conditional expectation at the sequence's infoset
    reach: ConditionalReach


@dataclass(frozen=True)
class CbrTable:
    """Counterfactual best responses of one player, one per sequence
    (including the empty sequence), with the conditional reach evidence each
    was computed against."""

    player: int
    entries: dict[Sequence, CbrEntry]


def counterfactual_best_response(game: Game, pi: MixtureOfProducts,
                                 player: Union[int, str],
                                 seq: Sequence) -> tuple[PureStrategy, Fraction]:
    """The pure plan maximizing conditional utility at ``seq``'s infoset,
    given that the recommendation plays to ``seq``.

    Ties break to the lexicographically first action bottom-up; infosets
    irrelevant to the objective get the lexicographically first action. For
    the empty sequence the objective is the unconditional expected utility.
    Zero-mass conditioning falls back to the unconditional law (such
    sequences are never deviation points of support strategies, so the
    choice cannot affect :func:`efce_to_bce`).
    """
    return _cbr(game, pi, game.player_index(player), seq, ProfileReach(game, pi))[:2]


def _cbr(game: Game, pi: MixtureOfProducts, i: int, seq: Sequence, reach: ProfileReach):
    cr = conditional_reach(game, pi, i, seq, reach)
    if cr.event_mass == 0 and not seq.is_empty:
        cr = conditional_reach(game, pi, i, Sequence.empty(i), reach)
    at = None if seq.is_empty else game.infoset(i, seq.infoset)
    value, strategy = best_response(game, i, _weights(game, i, cr.reach), at)
    if cr.event_mass != 0:
        value = value / cr.event_mass
    return strategy, value, cr


def build_cbr_table(game: Game, pi: MixtureOfProducts,
                    player: Union[int, str]) -> CbrTable:
    game.require_valid()
    pi.validate(game)
    i = game.player_index(player)
    reach = ProfileReach(game, pi)
    entries = {}
    for seq in game.sequences(i):
        strategy, value, cr = _cbr(game, pi, i, seq, reach)
        entries[seq] = CbrEntry(strategy, value, cr)
    return CbrTable(i, entries)


def deviation_point(game: Game, ps: PureStrategy, infoset_id: str) -> Sequence:
    """The unique own sequence Ja with x(Ja) = 1, J preceding the infoset,
    and Ja not leading to it - defined exactly when ``ps`` does not reach the
    infoset (perfect recall makes it unique)."""
    i = ps.player
    for j, a in game.infoset(i, infoset_id).chain:
        if ps.actions[j] != a:
            return Sequence(i, game.infosets[i][j].id, ps.actions[j])
    raise ValueError(f"strategy reaches infoset {infoset_id!r}; no deviation point")


def efce_to_bce(game: Game, pi: MixtureOfProducts) -> MixtureOfProducts:
    """Rewrite off-path recommendations with counterfactual best responses.

    Preserves T, every K_i(t), and all weights; only local actions at
    infosets a support strategy does not reach are changed. The output is
    outcome-equivalent to the input, and its worst-case counterfactual
    (history-seeing) gap is at most the input's causal gap - both facts are
    verified by the callers and the test suite rather than assumed.
    """
    game.require_valid()
    pi.validate(game)
    reach = ProfileReach(game, pi)
    cbr_cache: dict[Sequence, PureStrategy] = {}  # a sequence names its player
    new_components = []
    for comp in pi.components:
        per_player = []
        for i, mix in enumerate(comp.strategies):
            new_mix = []
            for beta, ps in mix:
                weight = comp.alpha * beta
                actions = list(ps.actions)
                for iset in game.infosets[i]:
                    if pure_reaches_infoset(game, ps, iset.id):
                        continue
                    dev = deviation_point(game, ps, iset.id)
                    # support strategies condition on positive-mass events
                    if weight > 0 and not reach.event_mass(i, dev) >= weight:
                        raise InternalCheckError(f"deviation point {dev.label()} of a "
                                                 f"support strategy has mass below {weight}")
                    if dev not in cbr_cache:
                        cbr_cache[dev] = _cbr(game, pi, i, dev, reach)[0]
                    actions[iset.index] = cbr_cache[dev].action_at(iset.index)
                new_mix.append((beta, PureStrategy(i, tuple(actions))))
            per_player.append(tuple(new_mix))
        new_components.append(MixtureComponent(comp.alpha, tuple(per_player)))
    out = MixtureOfProducts(tuple(new_components))
    out.validate(game)
    return out


def restricted_deviation_value(game: Game, pi: MixtureOfProducts,
                               player: Union[int, str], witness,
                               infoset_id: str) -> Fraction:
    """Ordinary regret of the witness deviation applied only at infosets
    weakly after the given one (play elsewhere stays obedient)."""
    game.require_valid()
    i = game.player_index(player)
    start = game.infoset(i, infoset_id)
    total = ZERO
    for w, profile in profile_support(pi):
        deviated = witness.apply(game, profile.strategies[i])
        actions = list(profile.strategies[i].actions)
        for iset in start.subtree:
            actions[iset.index] = deviated.actions[iset.index]
        strategies = list(profile.strategies)
        strategies[i] = PureStrategy(i, tuple(actions))
        total += w * (pure_utility(game, PureProfile(tuple(strategies)), i)
                      - pure_utility(game, profile, i))
    return total
