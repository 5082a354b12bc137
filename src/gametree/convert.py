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

from fractions import Fraction
from typing import Optional, Union

from .bestresponse import best_response
from .errors import InternalCheckError
from .game import Game, Infoset, Sequence
from .metrics import (GapReport, ProfileReach, _gap, _payoff_units, _same_outcomes,
                      _trigger_weights)
from .rational import format_rational
from .strategy import MixtureComponent, MixtureOfProducts, PureStrategy, _check_plan


def counterfactual_best_response(game: Game, pi: Union[MixtureOfProducts, ProfileReach],
                                 player: Union[int, str], seq: Sequence
                                 ) -> tuple[PureStrategy, Fraction]:
    """The pure plan maximizing conditional utility at ``seq``'s infoset,
    given that the recommendation plays to ``seq``.

    Ties break to the lexicographically first action bottom-up; infosets
    irrelevant to the objective get the lexicographically first action. For
    the empty sequence the objective is the unconditional expected utility.
    Zero-mass conditioning falls back to the unconditional law (such
    sequences are never deviation points of support strategies, so the
    choice cannot affect :func:`efce_to_bce`).
    """
    i = game.player_index(player)
    if seq.player != i:
        raise ValueError(f"sequence {seq.label()} is not player {game.players[i]}'s")
    reach = ProfileReach.of(game, pi)
    game.sequence(i, seq.infoset, seq.action)  # an unknown infoset or action raises KeyError
    at = None if seq.is_empty else game.infoset(i, seq.infoset)
    value, strategy = _cbr(reach, _payoff_units(reach, i), seq, at)
    value = Fraction(value, reach.value_scale(i))
    mass = reach.event_mass(i, seq)
    return strategy, value / mass if mass != 0 else value


def _cbr(reach: ProfileReach, units: list[list[int]], seq: Sequence,
         at: Optional[Infoset]) -> tuple[int, PureStrategy]:
    """The response at ``seq`` (infoset ``at``) against ``units``, the
    player's :func:`gametree.metrics._payoff_units`, and its unconditioned
    value over ``reach.value_scale(i)``."""
    i = seq.player
    below = range(len(reach.game.terminals)) if at is None else at.terminals_below
    w = _trigger_weights(reach, units, seq, below)
    if w is None:  # a zero-mass event: the unconditional law, of mass 1
        w = _trigger_weights(reach, units, Sequence.empty(i), below)
    return best_response(reach.game, i, w, at)


def deviation_point(game: Game, ps: PureStrategy, infoset_id: str) -> Sequence:
    """The unique own sequence Ja with x(Ja) = 1, J preceding the infoset,
    and Ja not leading to it - defined exactly when ``ps`` does not reach the
    infoset (perfect recall makes it unique)."""
    _check_plan(game, game.player_index(ps.player), ps)
    for j, a in game.infoset(ps.player, infoset_id).chain:
        if ps.actions[j] != a:
            return Sequence(ps.player, game.infosets[ps.player][j].id, ps.actions[j])
    raise ValueError(f"strategy reaches infoset {infoset_id!r}; no deviation point")


def efce_to_bce(game: Game, pi: Union[MixtureOfProducts, ProfileReach]
                ) -> MixtureOfProducts:
    """Rewrite off-path recommendations with counterfactual best responses.

    Preserves T, every K_i(t), and all weights; only local actions at
    infosets a support strategy does not reach are changed, each to a best
    response's, so the output is valid. It is outcome-equivalent to the
    input, and its worst-case counterfactual (history-seeing) gap is at most
    the input's causal gap: :func:`_checked_rewrite` checks both facts.
    Each deviation point's response is weighted over the terminals below
    its infoset only.
    """
    return _rewrite(ProfileReach.of(game, pi), {})


def _rewrite(reach: ProfileReach, known: dict[Sequence, PureStrategy]
             ) -> MixtureOfProducts:
    """:func:`efce_to_bce` of ``reach.pi``. ``known`` is empty or the efce
    walk's responses on ``reach`` (:func:`gametree.metrics._gap`), which hold
    every positive-mass deviation point's response; the rest are computed."""
    game, pi = reach.game, reach.pi
    units: dict[int, list] = {}  # player -> its payoff rows, built on first use
    cbr_cache: dict[Sequence, tuple] = {}  # a sequence names its player
    new_components = []
    t = -1  # the component's position in the reach, which skips alpha == 0
    for comp in pi.components:
        if comp.alpha != 0:
            t += 1
        per_player = []
        for i, mix in enumerate(comp.strategies):
            # alpha * beta, over alpha_den * den[i] as reach.mass is
            weights = ([reach.alphas[t] * beta for beta, _ in reach.plans[i][t]]
                       if comp.alpha != 0 else [0] * len(mix))
            new_mix = []
            for (beta, ps), weight in zip(mix, weights):
                actions = list(ps.actions)
                left: list[Optional[Infoset]] = []  # per infoset: where ps left its chain
                for iset in game.infosets[i]:  # discovery order: parents first
                    at = None  # None when ps reaches iset
                    if iset.chain:
                        j, a = iset.chain[-1]
                        at = left[j]
                        if at is None and ps.actions[j] != a:
                            at = game.infosets[i][j]
                    left.append(at)
                    if at is None:
                        continue
                    dev = at.seqs[at.actions.index(ps.actions[at.index])]
                    if dev not in cbr_cache:
                        response = known.get(dev)
                        if response is None:
                            if i not in units:
                                units[i] = _payoff_units(reach, i)
                            response = _cbr(reach, units[i], dev, at)[1]
                        cbr_cache[dev] = (response, reach.mass(i, dev))
                    response, mass = cbr_cache[dev]
                    # support strategies condition on positive-mass events
                    if weight > 0 and not mass >= weight:
                        raise InternalCheckError(
                            f"deviation point {dev.label()} of a support strategy "
                            f"has mass below {comp.alpha * beta}")
                    actions[iset.index] = response.action_at(iset.index)
                new_mix.append((beta, PureStrategy(i, tuple(actions))))
            per_player.append(tuple(new_mix))
        new_components.append(MixtureComponent(comp.alpha, tuple(per_player)))
    return MixtureOfProducts(tuple(new_components))


def _checked_rewrite(reach: ProfileReach, report: GapReport,
                     responses: dict[Sequence, PureStrategy]
                     ) -> tuple[ProfileReach, Fraction]:
    """:func:`_rewrite` of ``reach`` with ``responses``, the best responses
    :func:`gametree.metrics._gap` returns beside ``report``, the efce report
    on ``reach``. Returns the output's reach (``reach`` if nothing changed,
    else a new one, which validates the output) and bce gap; raises
    :class:`InternalCheckError` unless the output keeps the outcomes and its
    bce gap is at most ``report.overall``."""
    game, pi = reach.game, reach.pi
    out = _rewrite(reach, responses)
    reach_out = reach if out == pi else ProfileReach(game, out)
    if not _same_outcomes(reach, reach_out):
        raise InternalCheckError("the rewrite changed the outcome distribution")
    bce_gap = _gap(reach_out, "bce")[0].overall
    if bce_gap > report.overall:
        raise InternalCheckError(
            f"the rewrite's bce gap {format_rational(bce_gap)} exceeds the "
            f"causal gap {format_rational(report.overall)}")
    return reach_out, bce_gap
