"""Desk-scale equilibrium computation over the pure-profile simplex.

The causal-gap program puts one variable on every pure profile and one
incentive row on every (player, trigger sequence, pure continuation): the
row's coefficient at profile x is the utility swing from rewriting x's own
play from the trigger's infoset onward with the continuation, counted only
when the recommendation plays to the trigger. The empty trigger rewrites the
whole plan (the commit-up-front deviations).

This enumeration is exponential and deliberately so - it matches the
definition tree rather than a compact reformulation, and stays honest by
re-verifying every solution with the independent gap dynamic program before
returning. The history-seeing (bce) solvers go through the off-path rewrite
of :func:`gametree.convert.efce_to_bce`, which preserves the outcome
distribution and the optimum value exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .convert import efce_to_bce
from .errors import InternalCheckError, ResourceGuardError
from .game import Game, Infoset, Sequence
from .lp import LE, LinearProgram, lp_solve
from .metrics import _play_from, gap, pure_utility
from .strategy import (MixtureOfProducts, PureProfile, PureStrategy,
                       profile_support, pure_mixture, pure_reaches_sequence)
from .rational import format_rational

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_PROFILE_CAP = 50_000


@dataclass(frozen=True)
class TriggerConstraint:
    """One incentive row: obey until ``trigger`` fires, then follow
    ``continuation`` (a partial plan over the infosets weakly after the
    trigger's infoset; the empty trigger replaces everything)."""

    player: int
    trigger: Sequence
    continuation: dict[str, str]
    row: tuple[Fraction, ...]  # aligned with the profile enumeration


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


def _swap_from(game: Game, ps: PureStrategy, trigger: Sequence,
               continuation: dict[str, str]) -> PureStrategy:
    actions = list(ps.actions)
    for iset in _scope(game, ps.player, trigger):
        actions[iset.index] = continuation[iset.id]
    return PureStrategy(ps.player, tuple(actions))


def _scope(game: Game, i: int, trigger: Sequence) -> list[Infoset]:
    """The infosets a trigger rewrites: all of them for the empty trigger."""
    if trigger.is_empty:
        return game.infosets[i]
    return game.infoset(i, trigger.infoset).subtree


def trigger_constraints(game: Game, profiles: list[PureProfile]) -> list[TriggerConstraint]:
    """All rows, in (player, sequence, continuation) enumeration order."""
    rows = []
    base = [[pure_utility(game, profile, i) for profile in profiles]
            for i in range(game.n)]
    for i in range(game.n):
        for seq in game.sequences(i):
            scope = _scope(game, i, seq)
            for combo in itertools.product(*(iset.actions for iset in scope)):
                continuation = {iset.id: a for iset, a in zip(scope, combo)}
                coeffs = []
                for p_idx, profile in enumerate(profiles):
                    ps = profile.strategies[i]
                    if not pure_reaches_sequence(game, ps, seq):
                        coeffs.append(ZERO)
                        continue
                    swapped = _swap_from(game, ps, seq, continuation)
                    if swapped == ps:
                        coeffs.append(ZERO)
                        continue
                    strategies = list(profile.strategies)
                    strategies[i] = swapped
                    coeffs.append(pure_utility(game, PureProfile(tuple(strategies)), i)
                                  - base[i][p_idx])
                rows.append(TriggerConstraint(i, seq, continuation, tuple(coeffs)))
    return rows


def _objective_value(game: Game, objective: dict[str, Fraction],
                     profile: PureProfile) -> Fraction:
    return _play_from(game.root, profile, lambda z: objective.get(z.terminal_id, ZERO))


def _solve_program(game: Game, epsilon: Fraction,
                   objective: Optional[dict[str, Fraction]],
                   profile_cap: int) -> tuple[MixtureOfProducts, Optional[Fraction]]:
    game.require_valid()
    profiles = enumerate_profiles(game, profile_cap)
    lp = LinearProgram(num_vars=len(profiles))
    lp.add({j: ONE for j in range(len(profiles))}, "==", ONE)
    for tc in trigger_constraints(game, profiles):
        coeffs = {j: c for j, c in enumerate(tc.row) if c != 0}
        if coeffs or epsilon < 0:
            lp.add(coeffs, LE, epsilon)
    if objective is not None:
        lp.objective = {j: _objective_value(game, objective, profile)
                        for j, profile in enumerate(profiles)}
        lp.objective = {j: v for j, v in lp.objective.items() if v != 0}
    result = lp_solve(lp)
    if result.status != "optimal":
        raise InternalCheckError(
            f"the incentive program reported {result.status}, which cannot happen "
            f"for epsilon >= 0; this is a bug")
    entries = [(result.x[j], profiles[j]) for j in range(len(profiles))
               if result.x[j] != 0]
    mixture = pure_mixture(game, entries)
    value = result.value if objective is not None else None
    return mixture, value


def compute_efce(game: Game, epsilon: Fraction = ZERO,
                 profile_cap: int = DEFAULT_PROFILE_CAP) -> MixtureOfProducts:
    """A distribution over pure profiles whose causal gap is at most
    ``epsilon``, re-verified with the independent dynamic program.

    The verification is part of the contract: the trigger-row family is not
    trusted to bound the full deviation class on its own, and a failed
    re-check raises :class:`InternalCheckError`.
    """
    mixture, _ = _solve_program(game, epsilon, None, profile_cap)
    measured = gap(game, mixture, "efce").overall
    if measured > epsilon:
        raise InternalCheckError(
            f"solver returned a profile with causal gap {format_rational(measured)} "
            f"> {format_rational(epsilon)}")
    return mixture


def optimal_efce(game: Game, objective: dict[str, Fraction],
                 profile_cap: int = DEFAULT_PROFILE_CAP) -> tuple[MixtureOfProducts, Fraction]:
    """Maximize sum_z c(z) P(z) over exact (gap-0) causal equilibria.

    Returns (profile, optimal value); the profile re-verifies at gap 0.
    """
    mixture, value = _solve_program(game, ZERO, objective, profile_cap)
    measured = gap(game, mixture, "efce").overall
    if measured > 0:
        raise InternalCheckError(
            f"optimal profile re-verified with causal gap {format_rational(measured)}")
    return mixture, value


def compute_bce(game: Game, profile_cap: int = DEFAULT_PROFILE_CAP) -> MixtureOfProducts:
    """An exact (gap-0) history-seeing equilibrium: solve for the causal one
    and rewrite its off-path recommendations. Verified at gap 0 exactly."""
    pi = compute_efce(game, ZERO, profile_cap)
    out = efce_to_bce(game, pi)
    measured = gap(game, out, "bce").overall
    if measured != 0:
        raise InternalCheckError(
            f"converted profile has bce gap {format_rational(measured)}, expected 0")
    return out


def optimal_bce(game: Game, objective: dict[str, Fraction],
                profile_cap: int = DEFAULT_PROFILE_CAP) -> tuple[MixtureOfProducts, Fraction]:
    """Optimal history-seeing equilibrium under ``objective``.

    The rewrite preserves the outcome distribution, so the value equals the
    optimal causal value exactly; both facts are re-checked here.
    """
    pi, value = optimal_efce(game, objective, profile_cap)
    out = efce_to_bce(game, pi)
    measured = gap(game, out, "bce").overall
    if measured != 0:
        raise InternalCheckError(
            f"converted optimal profile has bce gap {format_rational(measured)}")
    out_value = sum((w * _objective_value(game, objective, profile)
                     for w, profile in profile_support(out)), ZERO)
    if out_value != value:
        raise InternalCheckError(
            f"conversion changed the objective value from {format_rational(value)} "
            f"to {format_rational(out_value)}")
    return out, value


