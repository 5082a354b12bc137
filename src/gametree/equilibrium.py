"""Desk-scale equilibrium computation over the pure-profile simplex.

The causal-gap program puts one variable on every pure profile. Its
incentive rows are generated, not enumerated: the efce gap dynamic program
is the separation oracle. Each round solves the program over the rows found
so far, measures the solution's causal gap, and stops once the gap is at
most ``epsilon``; otherwise it adds the gap's witness as one row, whose
coefficient at profile x is the deviator's utility swing when the witness
rewrites x's own plan. A witness may fire several incomparable triggers at
once, so its row bounds their combined swing, which is what the causal gap
measures. Each added row cuts off the current solution and the causal class
is finite, so the loop ends; its exit test is the re-verification of the
returned profile. This is the exact separation scheme of Huang and von
Stengel (2008) in the exact form of Jiang and Leyton-Brown (2015), over the
enumerated pure profiles.

The history-seeing (bce) solvers go through the off-path rewrite of
:func:`gametree.convert.efce_to_bce`, which preserves the outcome
distribution and the optimum value exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .convert import _checked_rewrite
from .errors import InternalCheckError, ResourceGuardError
from .game import Game
from .lp import LE, LinearProgram, lp_solve
from .metrics import ProfileReach, _play_from, gap, pure_utility
from .rational import format_rational
from .strategy import MixtureOfProducts, PureProfile, PureStrategy, pure_mixture
from .witnesses import TriggerCommitWitness

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_PROFILE_CAP = 50_000


def enumerate_profiles(game: Game, cap: int = DEFAULT_PROFILE_CAP) -> list[PureProfile]:
    per_player = []
    total = 1
    for i in range(game.n):
        strategies = [PureStrategy(i, combo) for combo in
                      itertools.product(*(iset.actions for iset in game.infosets[i]))]
        per_player.append(strategies)
        total *= len(strategies)
        if total > cap:
            raise ResourceGuardError(
                f"game has more than {cap} pure profiles; "
                f"raise the cap to solve it anyway")
    return [PureProfile(combo) for combo in itertools.product(*per_player)]


def _objective_value(game: Game, objective: dict[str, Fraction],
                     profile: PureProfile) -> Fraction:
    return _play_from(game.root, profile, lambda z: objective.get(z.terminal_id, ZERO))


def _solve_program(game: Game, epsilon: Fraction,
                   objective: Optional[dict[str, Fraction]],
                   profile_cap: int = DEFAULT_PROFILE_CAP
                   ) -> tuple[MixtureOfProducts, Fraction, Fraction, ProfileReach]:
    """Row generation against the efce gap program. Returns the profile, the
    program's optimal value, the profile's causal gap, which the loop's
    exit test measured at most ``epsilon``, and the :class:`ProfileReach` it
    measured with."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {format_rational(epsilon)}")
    game.require_valid()
    profiles = enumerate_profiles(game, profile_cap)
    index = {profile: j for j, profile in enumerate(profiles)}
    utility = [[pure_utility(game, profile, i) for i in range(game.n)]
               for profile in profiles]
    lp = LinearProgram(num_vars=len(profiles))
    lp.add({j: ONE for j in range(len(profiles))}, "==", ONE)
    if objective is not None:
        lp.objective = {j: _objective_value(game, objective, profile)
                        for j, profile in enumerate(profiles)}
        lp.objective = {j: v for j, v in lp.objective.items() if v != 0}
    while True:
        result = lp_solve(lp)
        if result.status != "optimal":
            raise InternalCheckError(
                f"the incentive program reported {result.status}, which cannot "
                f"happen for epsilon >= 0; this is a bug")
        entries = [(x, profiles[j]) for j, x in enumerate(result.x) if x != 0]
        mixture = pure_mixture(game, entries)
        reach = ProfileReach(game, mixture)
        report = gap(game, mixture, "efce", reach=reach)
        if report.overall <= epsilon:
            return mixture, result.value, report.overall, reach
        row = _witness_row(game, report.witness, profiles, index, utility)
        swing = sum((result.x[j] * c for j, c in row.items()), ZERO)
        if swing <= epsilon:
            raise InternalCheckError(
                f"the witness of causal gap {format_rational(report.overall)} "
                f"swings the solution by only {format_rational(swing)}")
        lp.add(row, LE, epsilon)


def _witness_row(game: Game, witness: TriggerCommitWitness,
                 profiles: list[PureProfile], index: dict[PureProfile, int],
                 utility: list[list[Fraction]]) -> dict[int, Fraction]:
    """The deviator's utility swing at each profile when ``witness``
    rewrites its own plan (zero entries omitted)."""
    i = witness.player
    played: dict[PureStrategy, PureStrategy] = {}
    row = {}
    for j, profile in enumerate(profiles):
        own = profile.strategies[i]
        if own not in played:
            played[own] = witness.apply(game, own)
        if played[own] == own:
            continue
        strategies = list(profile.strategies)
        strategies[i] = played[own]
        swing = utility[index[PureProfile(tuple(strategies))]][i] - utility[j][i]
        if swing != 0:
            row[j] = swing
    return row


def compute_efce(game: Game, epsilon: Fraction = ZERO,
                 profile_cap: int = DEFAULT_PROFILE_CAP) -> MixtureOfProducts:
    """A distribution over pure profiles whose causal gap is at most
    ``epsilon``.

    The solver's stopping test is the efce gap program itself, so the
    returned profile is verified by measurement; a negative ``epsilon``
    raises :class:`ValueError`, since no profile has a negative causal gap.
    """
    return _solve_program(game, epsilon, None, profile_cap)[0]


def optimal_efce(game: Game, objective: dict[str, Fraction],
                 profile_cap: int = DEFAULT_PROFILE_CAP) -> tuple[MixtureOfProducts, Fraction]:
    """Maximize sum_z c(z) P(z) over exact (gap-0) causal equilibria.

    Returns (profile, optimal value); the profile is measured at gap 0. The
    last round's program has a subset of the causal rows, so its optimum is
    at least the true one, and its solution satisfies them all, so the two
    are equal.
    """
    return _solve_program(game, ZERO, objective, profile_cap)[:2]


def _solve_bce(game: Game, objective: Optional[dict[str, Fraction]],
               profile_cap: int = DEFAULT_PROFILE_CAP
               ) -> tuple[MixtureOfProducts, Fraction, Fraction, ProfileReach]:
    """The exact causal solve with its off-path recommendations rewritten by
    :func:`gametree.convert._checked_rewrite`: the profile, the program's
    optimal value (the rewrite keeps the outcomes, on which the objective is
    linear), the profile's bce gap (0) and the reach it was measured with."""
    pi, value, causal_gap, reach = _solve_program(game, ZERO, objective, profile_cap)
    out, reach, measured = _checked_rewrite(game, pi, reach, causal_gap)
    return out, value, measured, reach


def compute_bce(game: Game, profile_cap: int = DEFAULT_PROFILE_CAP) -> MixtureOfProducts:
    """An exact (gap-0) history-seeing equilibrium: solve for the causal one
    and rewrite its off-path recommendations, which
    :func:`gametree.convert._checked_rewrite` checks at gap 0 exactly."""
    return _solve_bce(game, None, profile_cap)[0]


def optimal_bce(game: Game, objective: dict[str, Fraction],
                profile_cap: int = DEFAULT_PROFILE_CAP) -> tuple[MixtureOfProducts, Fraction]:
    """Optimal history-seeing equilibrium under ``objective``.

    :func:`gametree.convert._checked_rewrite` checks that the rewrite keeps
    the outcome distribution, so the value equals the optimal causal value.
    """
    return _solve_bce(game, objective, profile_cap)[:2]
