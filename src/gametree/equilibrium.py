"""Desk-scale equilibrium computation over the pure-profile simplex.

The causal-gap program puts one variable on every pure profile. Its
incentive rows are generated, not enumerated: the efce gap dynamic program
is the separation oracle. Each round solves the program over the rows found
so far (the first, with the sum row alone, in closed form: the first pure
profile of largest objective cost), measures the solution's causal gap,
and stops once the gap is at most ``epsilon``; otherwise it adds the gap's
witness as one row, whose coefficient at profile x is the deviator's
utility swing when the witness rewrites x's own plan. A witness may fire
several incomparable triggers at once, so its row bounds their combined
swing, which is what the causal gap measures. Each added row cuts off the
current solution and the causal class is finite, so the loop ends; its
exit test is the re-verification of the returned profile. This is the
exact separation scheme of Huang and von Stengel (2008) in the exact form
of Jiang and Leyton-Brown (2015), over the enumerated pure profiles.

The program is built on ints. Each pure profile is walked once, every
chance move followed, to the terminals it reaches; player ``i``'s utility
there is the sum of ``game.payoff_rows[i][1]`` over them, an int over the
row's scale ``game.payoff_rows[i][0]``, and the objective is the sum of
``c(z) * chance(z)`` over one common scale. So a witness row of player
``i`` holds ints over that player's scale, with right-hand side
``epsilon`` times it, and the program's value is divided by the
objective's scale once. A witness row is a ``<=`` row with a right-hand
side of at least 0, so it carries no phase-1 artificial, and scaling it,
or the objective, by a positive constant changes no pivot (see
:mod:`gametree.lp`): the program solves exactly as its Fractions would.

The history-seeing (bce) solvers go through the off-path rewrite of
:func:`gametree.convert.efce_to_bce`, which preserves the outcome
distribution and the optimum value exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Optional

from .convert import _checked_rewrite
from .errors import InternalCheckError, ResourceGuardError
from .game import Game, Node, Sequence
from .lp import EQ, LE, LinearProgram, lp_solve
from .metrics import GapReport, ProfileReach, _gap
from .rational import format_rational, over_common_denominator
from .strategy import MixtureOfProducts, PureProfile, PureStrategy, pure_mixture
from .witnesses import TriggerCommitWitness

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_PROFILE_CAP = 50_000


def _strategies(game: Game, cap: int) -> list[list[PureStrategy]]:
    """Each player's pure strategies in ``itertools.product`` order over the
    player's infosets; more than ``cap`` pure profiles in all refuses before
    any strategy is built."""
    total = 1
    for iset in itertools.chain.from_iterable(game.infosets):
        total *= len(iset.actions)
        if total > cap:
            raise ResourceGuardError(
                f"game has more than {cap} pure profiles; "
                f"raise the cap to solve it anyway")
    return [[PureStrategy(i, combo) for combo in
             itertools.product(*(iset.actions for iset in isets))]
            for i, isets in enumerate(game.infosets)]


def _reached(root: Node, choice: tuple) -> list[int]:
    """The indices of the terminals that play reaches from ``root`` when
    every chance move is followed and each decision node of player ``i``
    takes its move at position ``choice[i][infoset index]``."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        kind = node.kind
        if kind == "terminal":
            out.append(node.index)
        elif kind == "chance":
            stack.extend(child for _label, _p, child in node.moves)
        else:
            stack.append(node.moves[choice[node.player][node.infoset.index]][1])
    return out


def _objective_row(game: Game, objective: dict[str, Fraction]) -> tuple[int, list[int]]:
    """``(scale, ints)`` with ``c(z) * chance(z) == ints[z] / scale`` per
    terminal, built like ``game.payoff_rows``; terminals ``objective`` does
    not name cost 0."""
    den, costs = over_common_denominator(
        [objective.get(z.terminal_id, ZERO) for z in game.terminals])
    chance_den, chances = game.chance_row
    return den * chance_den, [c * h for c, h in zip(costs, chances)]


def _payoff_table(game: Game, rows: list[list[int]]) -> list[list[int]]:
    """Per pure profile, in the order of :func:`_profile`: the sum of each
    terminal row in ``rows`` over the terminals the profile reaches.

    Strategy ``k`` of a player plays the ``k``-th combination of action
    positions, as :func:`_strategies` lists it, and a valid game's nodes
    list their infoset's actions in order, so those positions index the
    nodes' moves."""
    moves = [itertools.product(*(range(len(iset.actions)) for iset in isets))
             for isets in game.infosets]
    table = []
    for choice in itertools.product(*moves):
        reached = _reached(game.root, choice)
        table.append([sum([row[z] for z in reached]) for row in rows])
    return table


def _solve_program(game: Game, epsilon: Fraction,
                   objective: Optional[dict[str, Fraction]],
                   profile_cap: int = DEFAULT_PROFILE_CAP
                   ) -> tuple[ProfileReach, GapReport, dict[Sequence, PureStrategy], Fraction]:
    """Row generation against the efce gap program. Returns the solution's
    :class:`ProfileReach` (its ``pi`` is the profile), the efce ``_gap``
    report and responses of the exit test (``overall`` <= ``epsilon``) and
    the program's optimal value, whose rows are ints over the module's scales."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {format_rational(epsilon)}")
    game.require_valid()
    strategies = _strategies(game, profile_cap)
    rows = [row for _scale, row in game.payoff_rows]
    obj_scale = 1
    if objective is not None:
        obj_scale, obj_row = _objective_row(game, objective)
        rows.append(obj_row)
    table = _payoff_table(game, rows)
    lp = LinearProgram(num_vars=len(table))
    lp.add({j: 1 for j in range(len(table))}, EQ, ONE)
    costs = [0] * len(table)
    if objective is not None:
        costs = [v[-1] for v in table]
        lp.objective = {j: c for j, c in enumerate(costs) if c != 0}
    x, value = _first_vertex(costs)
    while True:
        entries = [(w, _profile(strategies, j)) for j, w in enumerate(x) if w != 0]
        mixture = pure_mixture(game, entries)
        reach = ProfileReach(game, mixture)
        report, responses = _gap(reach, "efce")
        if report.overall <= epsilon:
            return reach, report, responses, Fraction(value, obj_scale)
        i = report.witness.player
        scale = game.payoff_rows[i][0]
        row = _witness_row(game, report.witness, strategies, table)
        swing = sum((x[j] * c for j, c in row.items() if x[j]), ZERO)
        if swing <= epsilon * scale:
            raise InternalCheckError(
                f"the witness of causal gap {format_rational(report.overall)} "
                f"swings the solution by only {format_rational(swing / scale)}")
        lp.add(row, LE, epsilon * scale)
        result = lp_solve(lp)
        if result.status != "optimal":
            raise InternalCheckError(
                f"the incentive program reported {result.status}, which cannot "
                f"happen for epsilon >= 0; this is a bug")
        x, value = result.x, result.value


def _first_vertex(costs: list[int]) -> tuple[list[Fraction], int]:
    """``(x, value)`` that :func:`lp_solve` returns for max ``costs . x``
    under the sum row ``sum x == 1`` alone, taken without solving: weight 1
    on the first column of largest cost, and that cost.

    With the sum row alone, phase 1 pivots the artificial out on column 0,
    and Bland's rule then enters the first column whose cost beats the
    current one, so indices and costs rise until the first column of
    largest cost."""
    value = max(costs)
    x = [ZERO] * len(costs)
    x[costs.index(value)] = ONE
    return x, value


def _profile(strategies: list[list[PureStrategy]], j: int) -> PureProfile:
    """The ``j``-th pure profile: profiles run in ``itertools.product``
    order over the players' ``strategies``."""
    picked = []
    for own in reversed(strategies):
        j, k = divmod(j, len(own))
        picked.append(own[k])
    return PureProfile(tuple(reversed(picked)))


def _witness_row(game: Game, witness: TriggerCommitWitness,
                 strategies: list[list[PureStrategy]],
                 table: list[list[int]]) -> dict[int, int]:
    """The deviator's utility swing at each profile when ``witness``
    rewrites its own plan (zero entries omitted), in ``table``'s ints.

    Profiles run in mixed radix over the players' strategy counts, so
    moving player ``i`` from strategy ``k`` to ``k'`` moves a profile's
    index by ``(k' - k)`` times ``i``'s stride."""
    i = witness.player
    own = strategies[i]
    position = {s: k for k, s in enumerate(own)}
    moved = []
    for k, s in enumerate(own):
        to = position.get(witness.apply(game, s))
        if to is None:
            raise InternalCheckError(
                f"the witness plays a strategy of player {game.players[i]} "
                f"outside the enumeration")
        moved.append(to - k)
    stride = prod(len(other) for other in strategies[i + 1:])
    size = len(own)
    row = {}
    for j, u in enumerate(table):
        shift = moved[j // stride % size]
        if shift:
            swing = table[j + shift * stride][i] - u[i]
            if swing:
                row[j] = swing
    return row


def _solve(game: Game, notion: str, epsilon: Fraction,
           objective: Optional[dict[str, Fraction]],
           profile_cap: int = DEFAULT_PROFILE_CAP
           ) -> tuple[ProfileReach, Fraction, Fraction]:
    """The one solver entry: the profile's reach (its ``pi`` is the
    profile), the program's optimal value, and the profile's gap in
    ``notion`` ("efce" or "bce") as measured on that reach. A bce profile
    is the exact causal one rewritten by
    :func:`gametree.convert._checked_rewrite`, which keeps the outcomes and
    so the value. A terminal id ``objective`` names that the game lacks
    raises KeyError, and a nonzero ``epsilon`` with "bce" ValueError."""
    if objective is not None:
        known = {z.terminal_id for z in game.terminals}
        for zid in objective:
            if zid not in known:
                game.terminal(zid)  # raises the KeyError that names it
    if notion == "bce" and epsilon != 0:
        raise ValueError("--epsilon applies to --notion efce only; "
                         "the bce programs are exact")
    reach, report, responses, value = _solve_program(game, epsilon, objective, profile_cap)
    measured = report.overall
    if notion == "bce":
        reach, measured = _checked_rewrite(reach, report, responses)
    return reach, value, measured


def compute_efce(game: Game, epsilon: Fraction = ZERO,
                 profile_cap: int = DEFAULT_PROFILE_CAP) -> MixtureOfProducts:
    """A distribution over pure profiles whose causal gap is at most
    ``epsilon``.

    The solver's stopping test is the efce gap program itself, so the
    returned profile is verified by measurement; a negative ``epsilon``
    raises :class:`ValueError`, since no profile has a negative causal gap.
    """
    return _solve(game, "efce", epsilon, None, profile_cap)[0].pi


def optimal_efce(game: Game, objective: dict[str, Fraction],
                 profile_cap: int = DEFAULT_PROFILE_CAP) -> tuple[MixtureOfProducts, Fraction]:
    """Maximize sum_z c(z) P(z) over exact (gap-0) causal equilibria.

    Returns (profile, optimal value); the profile is measured at gap 0. The
    last round's program has a subset of the causal rows, so its optimum is
    at least the true one, and its solution satisfies them all, so the two
    are equal.
    """
    reach, value, _measured = _solve(game, "efce", ZERO, objective, profile_cap)
    return reach.pi, value


def compute_bce(game: Game, profile_cap: int = DEFAULT_PROFILE_CAP) -> MixtureOfProducts:
    """An exact (gap-0) history-seeing equilibrium: solve for the causal one
    and rewrite its off-path recommendations, which
    :func:`gametree.convert._checked_rewrite` checks at gap 0 exactly."""
    return _solve(game, "bce", ZERO, None, profile_cap)[0].pi


def optimal_bce(game: Game, objective: dict[str, Fraction],
                profile_cap: int = DEFAULT_PROFILE_CAP) -> tuple[MixtureOfProducts, Fraction]:
    """Optimal history-seeing equilibrium under ``objective``.

    :func:`gametree.convert._checked_rewrite` checks that the rewrite keeps
    the outcome distribution, so the value equals the optimal causal value.
    """
    reach, value, _measured = _solve(game, "bce", ZERO, objective, profile_cap)
    return reach.pi, value
