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
from .metrics import ProfileReach, _payoff_units, _trigger_weights
from .strategy import MixtureComponent, MixtureOfProducts, PureStrategy


def counterfactual_best_response(game: Game, pi: MixtureOfProducts,
                                 player: Union[int, str], seq: Sequence,
                                 reach: Optional[ProfileReach] = None
                                 ) -> tuple[PureStrategy, Fraction]:
    """The pure plan maximizing conditional utility at ``seq``'s infoset,
    given that the recommendation plays to ``seq``.

    Ties break to the lexicographically first action bottom-up; infosets
    irrelevant to the objective get the lexicographically first action. For
    the empty sequence the objective is the unconditional expected utility.
    Zero-mass conditioning falls back to the unconditional law (such
    sequences are never deviation points of support strategies, so the
    choice cannot affect :func:`efce_to_bce`).

    ``reach``, when given, must be the :class:`ProfileReach` of ``(game,
    pi)``; one built from another game or profile raises
    :class:`ValueError`.
    """
    i = game.player_index(player)
    if seq.player != i:
        raise ValueError(f"sequence {seq.label()} is not player {game.players[i]}'s")
    reach = ProfileReach.of(game, pi, reach)
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
    w = _trigger_weights(reach, units, seq, at)
    if w is None:  # a zero-mass event: the unconditional law, of mass 1
        w = _trigger_weights(reach, units, Sequence.empty(i), at)
    return best_response(reach.game, i, w, at)


def deviation_point(game: Game, ps: PureStrategy, infoset_id: str) -> Sequence:
    """The unique own sequence Ja with x(Ja) = 1, J preceding the infoset,
    and Ja not leading to it - defined exactly when ``ps`` does not reach the
    infoset (perfect recall makes it unique)."""
    dev = _deviation_infoset(game, ps, game.infoset(ps.player, infoset_id))
    if dev is None:
        raise ValueError(f"strategy reaches infoset {infoset_id!r}; no deviation point")
    return Sequence(ps.player, dev.id, ps.actions[dev.index])


def _deviation_infoset(game: Game, ps: PureStrategy, iset: Infoset) -> Optional[Infoset]:
    """The infoset J of :func:`deviation_point`, or None when ``ps`` reaches
    ``iset``."""
    for j, a in iset.chain:
        if ps.actions[j] != a:
            return game.infosets[ps.player][j]
    return None


def efce_to_bce(game: Game, pi: MixtureOfProducts,
                reach: Optional[ProfileReach] = None) -> MixtureOfProducts:
    """Rewrite off-path recommendations with counterfactual best responses.

    Preserves T, every K_i(t), and all weights; only local actions at
    infosets a support strategy does not reach are changed. The output is
    outcome-equivalent to the input, and its worst-case counterfactual
    (history-seeing) gap is at most the input's causal gap - both facts are
    verified by the callers and the test suite rather than assumed.

    ``reach``, when given, must be the :class:`ProfileReach` of ``(game,
    pi)``; one built from another game or profile raises
    :class:`ValueError`. Each deviation point's response is weighted over
    the terminals below its infoset only.
    """
    reach = ProfileReach.of(game, pi, reach)  # validates a new reach's profile
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
                for iset in game.infosets[i]:
                    at = _deviation_infoset(game, ps, iset)
                    if at is None:
                        continue
                    dev = at.seqs[at.actions.index(ps.actions[at.index])]
                    if dev not in cbr_cache:
                        if i not in units:
                            units[i] = _payoff_units(reach, i)
                        cbr_cache[dev] = (_cbr(reach, units[i], dev, at)[1],
                                          reach.mass(i, dev))
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
    out = MixtureOfProducts(tuple(new_components))
    out.validate(game)
    return out
