"""Strategy representations and the behavior-to-mixture decomposition.

Four layers, all exact:

* :class:`PureStrategy` - one action per infoset of a player.
* :class:`BehaviorStrategy` - an independent local distribution per infoset.
* :class:`SequenceFormVector` - reach probabilities over a player's
  sequences, the convex polytope with reach(empty) = 1 and per-infoset flow
  conservation.
* :class:`MixtureOfProducts` - a correlated profile written as a convex
  combination of product distributions, each factor itself a small convex
  combination of pure strategies.

:func:`decompose` writes any sequence-form vector as a convex combination of
at most ``|sequences|`` pure strategies by greedy flow extraction, which is
what lets behavior-strategy profiles enter the mixture format without an
exponential blowup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence as Seq, Union

from .errors import InternalCheckError, ProfileError, ProfileParseError, ResourceGuardError
from .game import Game, Sequence, TerminalNode, _decode_json
from .jsonout import dumps
from .rational import format_rational, over_common_denominator, rational_reader

ZERO = Fraction(0)
ONE = Fraction(1)
EXPANSION_CAP = 100_000  # pure plans one behavior strategy may expand to


@dataclass(frozen=True)
class PureStrategy:
    """A deterministic plan: the k-th entry is the action at the player's
    k-th infoset (discovery order). Hashable so it can key tables."""

    player: int
    actions: tuple[str, ...]

    def action_at(self, infoset_index: int) -> str:
        return self.actions[infoset_index]

    def assignment(self, game: Game) -> dict[str, str]:
        return {iset.id: a for iset, a in zip(game.infosets[self.player], self.actions)}


@dataclass(frozen=True)
class PureProfile:
    """One pure strategy per player, in player order."""

    strategies: tuple[PureStrategy, ...]


class BehaviorStrategy:
    """Independent randomization per infoset; each local distribution is a
    map action -> Fraction summing to exactly 1."""

    def __init__(self, player: int, locals_: dict[str, dict[str, Fraction]]):
        self.player = player
        self.locals = locals_

    def local(self, infoset_id: str) -> dict[str, Fraction]:
        return self.locals[infoset_id]

    def validate(self, game: Game) -> list[tuple[int, tuple[int, ...]]]:
        """Every infoset of the player covered, with a distribution over its
        actions that sums to 1 and has no negative probability; returns each
        as ``(den, ints)`` in action order, infosets in the game's order."""
        i = self.player
        expected = {iset.id for iset in game.infosets[i]}
        if set(self.locals) != expected:
            missing = expected - set(self.locals)
            extra = set(self.locals) - expected
            raise ProfileError(
                f"behavior strategy for {game.players[i]} must cover every infoset"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; unknown {sorted(extra)}" if extra else ""))
        rows = []
        for iset in game.infosets[i]:
            dist = self.locals[iset.id]
            bad = set(dist) - set(iset.actions)
            if bad:
                raise ProfileError(f"infoset {iset.id!r} has no action {sorted(bad)}")
            den, probs = row = over_common_denominator([dist.get(a, ZERO) for a in iset.actions])
            if sum(probs) != den:
                raise ProfileError(f"local distribution at {iset.id!r} sums to "
                                   f"{format_rational(Fraction(sum(probs), den))}")
            if any(p < 0 for p in probs):
                raise ProfileError(f"negative probability at {iset.id!r}")
            rows.append(row)
        return rows


@dataclass(frozen=True)
class SequenceFormVector:
    """Reach probabilities over one player's sequences."""

    player: int
    reach: dict[Sequence, Fraction]

    def validate(self, game: Game):
        """Reach 1 at the empty sequence, no negative reach, and flow kept
        at every infoset, summed as ints over one common denominator."""
        i = self.player
        empty = Sequence.empty(i)
        if self.reach.get(empty) != 1:
            raise ProfileError("sequence-form vector must have reach 1 at the empty sequence")
        seqs = game.sequences(i)
        den, values = over_common_denominator([self.reach.get(seq, ZERO) for seq in seqs])
        for seq, q in zip(seqs, values):
            if q < 0:
                raise ProfileError(f"negative reach at {seq.label()}")
        position = {seq: k for k, seq in enumerate(seqs)}
        for iset in game.infosets[i]:
            inflow = values[position[iset.parent_seq]]
            first = position[iset.seqs[0]]  # an infoset's sequences are listed together
            outflow = sum(values[first:first + len(iset.seqs)])
            if inflow != outflow:
                raise ProfileError(
                    f"flow violated at infoset {iset.id!r}: in "
                    f"{format_rational(Fraction(inflow, den))}, "
                    f"out {format_rational(Fraction(outflow, den))}")


@dataclass(frozen=True)
class MixtureComponent:
    alpha: Fraction
    # per player: tuple of (beta, PureStrategy)
    strategies: tuple[tuple[tuple[Fraction, PureStrategy], ...], ...]


@dataclass(frozen=True)
class MixtureOfProducts:
    """A correlated profile sum_t alpha_t (x) prod_i sum_k beta_tik x_tik."""

    components: tuple[MixtureComponent, ...]

    def validate(self, game: Game):
        """Weights that sum to 1 and are not negative, and total plans of
        the game's players; each sum is taken as ints over the lcm of its
        terms' denominators."""
        den, alphas = over_common_denominator([c.alpha for c in self.components])
        if sum(alphas) != den:
            raise ProfileError(f"component weights sum to "
                               f"{format_rational(Fraction(sum(alphas), den))}, not 1")
        for t, c in enumerate(self.components):
            if alphas[t] < 0:
                raise ProfileError(f"component {t} has negative weight")
            if len(c.strategies) != game.n:
                raise ProfileError(f"component {t} covers {len(c.strategies)} players, "
                                   f"game has {game.n}")
            for i, mix in enumerate(c.strategies):
                bden, betas = over_common_denominator([b for b, _ in mix])
                if sum(betas) != bden:
                    raise ProfileError(
                        f"component {t}, player {game.players[i]}: strategy weights sum "
                        f"to {format_rational(Fraction(sum(betas), bden))}")
                for b, (_, ps) in zip(betas, mix):
                    if b < 0:
                        raise ProfileError(f"component {t} has a negative strategy weight")
                    _check_plan(game, i, ps, t)


def _check_profile(game: Game, profile: PureProfile):
    """Refuse ``profile`` unless it holds a total plan per player, as
    :meth:`MixtureOfProducts.validate` refuses the one component
    :func:`pure_mixture` makes of it."""
    if len(profile.strategies) != game.n:
        raise ProfileError(f"component 0 covers {len(profile.strategies)} players, "
                           f"game has {game.n}")
    for i, ps in enumerate(profile.strategies):
        _check_plan(game, i, ps)


def _check_plan(game: Game, i: int, ps: PureStrategy, t: int = 0):
    """Refuse ``ps`` unless it is a total plan of player ``i``, as
    :meth:`MixtureOfProducts.validate` refuses a plan of component ``t``."""
    isets = game.infosets[i]
    if ps.player != i or len(ps.actions) != len(isets):
        raise ProfileError(f"component {t} holds a strategy that is not a total plan "
                           f"for player {game.players[i]}")
    for iset, a in zip(isets, ps.actions):
        if a not in iset.actions:
            raise ProfileError(f"infoset {iset.id!r} has no action {a!r}")


# -- reach indicators --------------------------------------------------------


def pure_reaches_sequence(game: Game, ps: PureStrategy, seq: Sequence) -> bool:
    """x_i(sigma): does the plan play every own action leading to ``seq``?
    A sequence of another player raises :class:`ValueError`."""
    if seq.player != ps.player:
        raise ValueError(f"sequence {seq.label()} is not player {game.players[ps.player]}'s")
    if seq.is_empty:
        return True
    iset = game.infoset(seq.player, seq.infoset)
    return ps.actions[iset.index] == seq.action and all(ps.actions[j] == a for j, a in iset.chain)


def pure_terminal_reach(game: Game, ps: PureStrategy, z: TerminalNode,
                        offset: int = 0) -> bool:
    """x_i(z) for offset 0, or x_i(z | I) when ``offset`` marks where the
    infoset's own pair sits on z's path."""
    return all(ps.actions[idx] == a for idx, a in z.own_pairs[ps.player][offset:])


# -- sequence form and decomposition ----------------------------------------


def sequence_form(game: Game,
                  strategy: Union[PureStrategy, BehaviorStrategy]) -> SequenceFormVector:
    """Reach probabilities of every sequence under the given plan, which
    is validated first."""
    game.require_valid()
    if isinstance(strategy, BehaviorStrategy):
        strategy.validate(game)
    else:
        _check_plan(game, game.player_index(strategy.player), strategy)
    i = strategy.player
    reach: dict[Sequence, Fraction] = {Sequence.empty(i): ONE}
    for iset in game.infosets[i]:
        inflow = reach[iset.parent_seq]
        for a, seq in zip(iset.actions, iset.seqs):
            if isinstance(strategy, PureStrategy):
                p = ONE if strategy.action_at(iset.index) == a else ZERO
            else:
                p = strategy.local(iset.id).get(a, ZERO)
            reach[seq] = inflow * p
    return SequenceFormVector(i, reach)


def decompose(game: Game, v: SequenceFormVector) -> list[tuple[Fraction, PureStrategy]]:
    """Write ``v`` exactly as sum_k beta_k * sequence_form(x_k).

    Greedy flow extraction: trace a pure plan through the lexicographically
    first action with positive residual mass at each reachable infoset
    (lexicographically first action outright at unreachable ones), subtract
    the largest feasible coefficient, repeat. Each round zeroes at least one
    residual coordinate, so k <= |sequences| and the output is deterministic.

    The residuals are ints over the lcm of ``v``'s denominators, one per
    position in ``game.sequences(v.player)``; each beta is built once, as
    ``Fraction(beta, lcm)``. Taking each ``beta_k * sequence_form(x_k)`` off
    ``v`` in turn leaves strictly fewer nonzero coordinates, and none at the
    end: the output is its own termination certificate.
    """
    game.require_valid()
    v.validate(game)
    den, residual = over_common_denominator(
        [v.reach.get(seq, ZERO) for seq in game.sequences(v.player)])
    return _decompose(game, v.player, den, list(residual))


def _decompose(game: Game, i: int, den: int, residual: list[int]
               ) -> list[tuple[Fraction, PureStrategy]]:
    """:func:`decompose` of the valid sequence-form vector ``residual[k] /
    den`` over ``game.sequences(i)``, which it uses up. The greedy choices
    compare and subtract residuals only, so any common ``den`` gives the
    same plans and betas."""
    seqs = game.sequences(i)
    position = {seq: k for k, seq in enumerate(seqs)}
    # per infoset: its parent sequence's position, and (position, action)
    # per action in label order
    steps = [(position[iset.parent_seq],
              sorted(((position[seq], a) for a, seq in zip(iset.actions, iset.seqs)),
                     key=lambda option: option[1]))
             for iset in game.infosets[i]]
    out: list[tuple[Fraction, PureStrategy]] = []
    rounds = 0
    while residual[0] > 0:
        rounds += 1
        if rounds > len(residual) + 1:
            raise InternalCheckError("greedy decomposition failed to terminate")
        chosen = {0}
        actions: list[str] = []
        for parent, options in steps:
            if parent in chosen:
                for k, a in options:
                    if residual[k] > 0:
                        break
                else:
                    raise InternalCheckError("greedy decomposition lost flow conservation")
                chosen.add(k)
            else:
                a = options[0][1]
            actions.append(a)
        beta = min(residual[k] for k in chosen)
        for k in chosen:
            residual[k] -= beta
        out.append((Fraction(beta, den), PureStrategy(i, tuple(actions))))
    if any(q != 0 for q in residual):
        raise InternalCheckError("greedy decomposition left residual mass off the root")
    return out


def behavior_product_expansion(game: Game, b: BehaviorStrategy
                               ) -> list[tuple[Fraction, PureStrategy]]:
    """The mixed strategy a behavior strategy literally denotes: every pure
    plan with positive product probability. Can be exponentially large in the
    number of infosets, hence the refusal above :data:`EXPANSION_CAP` plans;
    :func:`decompose` is the compact, outcome-equivalent alternative."""
    b.validate(game)
    i = b.player
    choices = []
    count = 1
    for iset in game.infosets[i]:
        local = [(a, p) for a, p in b.local(iset.id).items() if p > 0]
        local.sort()
        count *= len(local)
        if count > EXPANSION_CAP:
            raise ResourceGuardError(
                f"behavior strategy for {game.players[i]} expands to more than "
                f"{EXPANSION_CAP} pure plans; decompose it instead")
        choices.append(local)
    out = []
    for combo in itertools.product(*choices):
        prob = ONE
        for _a, p in combo:
            prob *= p
        out.append((prob, PureStrategy(i, tuple(a for a, _p in combo))))
    return out


def _behavior_components(game: Game,
                         components: Seq[tuple[Fraction, Seq[BehaviorStrategy]]],
                         per_strategy) -> MixtureOfProducts:
    """The mixture whose factors are ``per_strategy(b)`` for each behavior
    strategy ``b``. ``per_strategy`` validates ``b`` and the weights are
    checked here, so the mixture is valid as built."""
    total = sum((alpha for alpha, _ in components), ZERO)
    if total != 1:
        raise ProfileError(f"component weights sum to {format_rational(total)}, not 1")
    for t, (alpha, _) in enumerate(components):
        if alpha < 0:
            raise ProfileError(f"component {t} has negative weight")
    built = []
    for alpha, behaviors in components:
        if len(behaviors) != game.n:
            raise ProfileError("each component needs one behavior strategy per player")
        per_player = []
        for i, b in enumerate(behaviors):
            if b.player != i:
                raise ProfileError("behavior strategies must be listed in player order")
            per_player.append(tuple(per_strategy(b)))
        built.append(MixtureComponent(alpha, tuple(per_player)))
    return MixtureOfProducts(tuple(built))


def mixture_from_behavior_products(
        game: Game,
        components: Seq[tuple[Fraction, Seq[BehaviorStrategy]]]) -> MixtureOfProducts:
    """Convert weighted behavior-strategy products into a mixture of
    small-support products via :func:`decompose`.

    Each factor keeps its sequence-form marginals, so the outcome
    distribution and the causal gap are preserved; the joint recommendation
    pattern is not (that is the point of the small support), so
    counterfactual gaps may differ from the literal product profile - use
    :func:`expand_behavior_products` for the faithful distribution.
    """
    return _behavior_components(game, components, lambda b: _decompose(
        game, b.player, *_behavior_sequence_form(game, b)))


def _behavior_sequence_form(game: Game, b: BehaviorStrategy) -> tuple[int, list[int]]:
    """The sequence form of ``b``, which it validates, as ``(den, ints)``
    over ``game.sequences(b.player)``: each sequence's reach has its chain's
    product of local denominators as denominator, and ``den`` is their lcm."""
    rows = b.validate(game)
    game.require_valid()
    i = b.player
    reach = {Sequence.empty(i): (1, 1)}  # sequence -> (numerator, denominator)
    for iset, (local, probs) in zip(game.infosets[i], rows):
        num, d = reach[iset.parent_seq]
        for seq, p in zip(iset.seqs, probs):
            reach[seq] = (num * p, d * local)
    pairs = [reach[seq] for seq in game.sequences(i)]
    den = lcm(*(d for _, d in pairs))
    return den, [num * (den // d) for num, d in pairs]


def expand_behavior_products(
        game: Game,
        components: Seq[tuple[Fraction, Seq[BehaviorStrategy]]]) -> MixtureOfProducts:
    """The distribution the behavior products literally denote (full product
    expansion per player; exponential worst case, desk scale only)."""
    return _behavior_components(
        game, components, lambda b: behavior_product_expansion(game, b))


def pure_mixture(game: Game,
                 entries: Seq[tuple[Fraction, PureProfile]]) -> MixtureOfProducts:
    """The K = 1 special case: a plain distribution over pure profiles.

    It builds the mixture without validating it: the
    :class:`gametree.metrics.ProfileReach` that :func:`gametree.metrics.gap`,
    :func:`gametree.convert.efce_to_bce` and the solver build from it does
    that. Call :meth:`MixtureOfProducts.validate` to check one used
    otherwise."""
    return MixtureOfProducts(tuple(
        MixtureComponent(w, tuple(((ONE, ps),) for ps in profile.strategies))
        for w, profile in entries))


def profile_support(pi: MixtureOfProducts) -> Iterator[tuple[Fraction, PureProfile]]:
    """Enumerate the support as (weight, pure profile) pairs.

    Weight is alpha_t * prod_i beta_tik; zero-weight entries are skipped, so
    the yielded weights still sum to 1. Size is T * prod_i K_i - meant for
    desk-scale games only.
    """
    for comp in pi.components:
        if comp.alpha == 0:
            continue
        for combo in itertools.product(*comp.strategies):
            w = comp.alpha
            for beta, _ in combo:
                w *= beta
            if w == 0:
                continue
            yield w, PureProfile(tuple(ps for _, ps in combo))


# -- profile documents --------------------------------------------------------
#
# Mixture schema:
#   {"components": [{"alpha": "p/q",
#                    "strategies": [[{"beta": "p/q",
#                                     "actions": {infoset: action, ...}}, ...]
#                                   per player]}]}
# Behavior schema (auto-detected by the "behaviors" key, converted through
# mixture_from_behavior_products):
#   {"components": [{"alpha": "p/q",
#                    "behaviors": [{infoset: {action: "p/q", ...}, ...}
#                                  per player]}]}


def parse_profile(game: Game, text: str,
                  behavior_mode: str = "expand") -> MixtureOfProducts:
    """Parse either profile schema and validate it against ``game``.

    Behavior-schema documents denote product distributions; ``behavior_mode``
    picks their mixture representation: "expand" (default) keeps the literal
    distribution, "decompose" applies the small-support decomposition, which
    preserves outcomes and the causal gap but not counterfactual gaps.
    """
    return _read_profile(game, text, behavior_mode, validate=True)


def _read_profile(game: Game, text: str, behavior_mode: str = "expand",
                  validate: bool = False) -> MixtureOfProducts:
    """:func:`parse_profile`, except that a mixture-schema document is
    validated only with ``validate``: a caller that builds the profile's
    :class:`gametree.metrics.ProfileReach`, or hands it to the oracle,
    validates it there. A behavior document's mixture is valid as built
    either way."""
    game.require_valid()
    if behavior_mode not in ("expand", "decompose"):
        raise ValueError("behavior_mode must be 'expand' or 'decompose'")
    doc = _decode_json(text, ProfileParseError)
    if not isinstance(doc, dict) or not isinstance(doc.get("components"), list) \
            or not doc["components"]:
        raise ProfileParseError("profile must be an object with a non-empty "
                                "\"components\" list")
    kinds = {("behaviors" if "behaviors" in c else "strategies")
             for c in doc["components"] if isinstance(c, dict)}
    if len(kinds) > 1:
        raise ProfileParseError("each component needs either \"strategies\" or "
                                "\"behaviors\" (not a mix)")
    key = "behaviors" if kinds == {"behaviors"} else "strategies"
    entry = _behavior_entry if key == "behaviors" else _mixture_entry
    read = rational_reader()
    items = []
    for t, c in enumerate(doc["components"]):
        where = f"components/{t}"
        if not isinstance(c, dict) or "alpha" not in c:
            raise ProfileParseError("component needs \"alpha\"", where)
        alpha = _rat(read, c["alpha"], f"{where}/alpha")
        per_player = c.get(key)
        if not isinstance(per_player, list) or len(per_player) != game.n:
            raise ProfileParseError(
                f"\"{key}\" must list one entry per player ({game.n})", where)
        items.append((alpha, tuple([entry(game, i, spec, read, f"{where}/{key}/{i}")
                                    for i, spec in enumerate(per_player)])))
    if key == "strategies":
        pi = MixtureOfProducts(tuple(MixtureComponent(*item) for item in items))
        if validate:
            pi.validate(game)
        return pi
    if behavior_mode == "decompose":
        return mixture_from_behavior_products(game, items)
    return expand_behavior_products(game, items)


def _rat(read, value, where):
    try:
        return read(value)
    except ValueError as e:
        raise ProfileParseError(str(e), where) from e


def _mixture_entry(game: Game, i: int, mix, read, where: str):
    """Player ``i``'s ``(beta, PureStrategy)`` pairs from a mixture-schema
    entry at ``where``."""
    if not isinstance(mix, list) or not mix:
        raise ProfileParseError("player entry must be a non-empty list", where)
    pairs = []
    for k, item in enumerate(mix):
        sub = f"{where}/{k}"
        if not isinstance(item, dict) or "beta" not in item \
                or not isinstance(item.get("actions"), dict):
            raise ProfileParseError("entry needs \"beta\" and \"actions\"", sub)
        beta = _rat(read, item["beta"], f"{sub}/beta")
        pairs.append((beta, _pure_from_mapping(game, i, item["actions"])))
    return tuple(pairs)


def _behavior_entry(game: Game, i: int, spec, read, where: str) -> BehaviorStrategy:
    """Player ``i``'s behavior strategy from a behavior-schema entry at
    ``where``, not yet validated."""
    if not isinstance(spec, dict):
        raise ProfileParseError("behavior entry must map infosets to distributions", where)
    locals_ = {}
    for iset_id, dist in spec.items():
        if not isinstance(dist, dict):
            raise ProfileParseError("distribution must be an object", f"{where}/{iset_id}")
        locals_[iset_id] = {a: _rat(read, p, f"{where}/{iset_id}/{a}")
                            for a, p in dist.items()}
    return BehaviorStrategy(i, locals_)


def _pure_from_mapping(game: Game, player: int, mapping: dict) -> PureStrategy:
    actions = []
    seen = set(mapping)
    for iset in game.infosets[player]:
        if iset.id not in mapping:
            raise ProfileError(
                f"strategy for {game.players[player]} misses infoset {iset.id!r}")
        a = mapping[iset.id]
        if a not in iset.actions:
            raise ProfileError(f"infoset {iset.id!r} has no action {a!r}")
        actions.append(a)
        seen.discard(iset.id)
    if seen:
        raise ProfileError(
            f"strategy for {game.players[player]} names unknown infosets {sorted(seen)}")
    return PureStrategy(player, tuple(actions))


def pure_strategy(game: Game, player: Union[int, str],
                  mapping: dict[str, str]) -> PureStrategy:
    """Build a validated pure strategy from an infoset-to-action mapping."""
    return _pure_from_mapping(game, game.player_index(player), mapping)


def serialize_profile(game: Game, pi: MixtureOfProducts) -> str:
    doc = {"components": [
        {"alpha": format_rational(c.alpha),
         "strategies": [
             [{"beta": format_rational(beta), "actions": ps.assignment(game)}
              for beta, ps in mix]
             for mix in c.strategies]}
        for c in pi.components]}
    return dumps(doc, ensure_ascii=False) + "\n"
