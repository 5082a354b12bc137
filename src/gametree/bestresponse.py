"""Best pure plan against fixed terminal weights.

The objective is linear in the player's own reach indicators:

    value(x) = sum_z W(z) * x(z | start)

where W already folds payoff, chance reach and (expected) opponent reach.
Because W does not depend on x, the maximum decomposes over the player's
sequence structure and one bottom-up pass suffices. Ties at an infoset go to
the lexicographically (byte-order) first action; infosets outside the scope
of the objective also get the lexicographically first action, indexed once
per game as :attr:`~gametree.game.Infoset.first`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence as Seq, Union

from .game import Game, Infoset
from .strategy import PureStrategy

Weight = Union[int, Fraction]


def best_response(game: Game, player: int, weights: Seq[Weight],
                  at_infoset: Optional[Infoset] = None) -> tuple[Weight, PureStrategy]:
    """Maximize sum_z weights[z] * x(z | at_infoset) over pure plans.

    Sums start at the int 0, so int weights (the gap DPs pass ints over one
    scale) give an int value and ``Fraction`` weights a ``Fraction`` one; an
    empty sum is the int 0, equal to ``Fraction(0)``.

    With ``at_infoset`` None the indicator is x(z) from the root and the
    value includes terminals the player never acts on. Otherwise only
    terminals below the infoset count and the plan is optimized at infosets
    weakly following it. The plan starts from each infoset's
    :attr:`~gametree.game.Infoset.first` action and only the scope's
    choices are written over it, so infosets outside the scope keep their
    lexicographically first action. ``game`` is valid (its weights come from
    a :class:`~gametree.metrics.ProfileReach`), so every infoset has an action.
    """
    isets = game.infosets[player]
    scope = isets if at_infoset is None else at_infoset.subtree
    weight = weights.__getitem__
    f_value: dict[Infoset, Weight] = {}  # the best value below each infoset in scope
    below = f_value.__getitem__
    actions = [iset.first for iset in isets]
    for iset in reversed(scope):  # children precede parents in reverse discovery order
        best_v = None
        best_a = None
        for a, (terminals, children) in zip(iset.actions, iset.after):
            v = sum(map(weight, terminals)) + sum(map(below, children))
            if best_v is None or v > best_v or (v == best_v and a < best_a):
                best_v, best_a = v, a
        actions[iset.index] = best_a
        f_value[iset] = best_v
    strategy = PureStrategy(player, tuple(actions))
    if at_infoset is not None:
        return f_value[at_infoset], strategy
    terminals, children = game.root_after[player]
    return sum(map(weight, terminals)) + sum(map(below, children)), strategy
