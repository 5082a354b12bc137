"""Expected and counterfactual utilities, reach, and exact regret gaps.

The gap of a correlated profile under a notion is the worst-case exact gain
any deviation in that notion's class can extract:

* ``efce``  - deviations that stop seeing recommendations once they disobey;
  ordinary regret.
* ``bce``   - deviations that keep seeing local recommendations after
  disobeying; worst counterfactual regret over every (player, infoset).
* ``full-efce`` - the bce deviation class scored by ordinary regret.
* ``nfcce`` - constant deviations (commit to a fixed plan up front).

A profile is an eps-equilibrium for a notion exactly when its gap is <= eps.
All gaps here are computed by exact dynamic programs and are checked against
the definitional brute-force oracle in the test suite.

Counterfactual utility at an infoset weights terminals by chance and by the
*other* players' reach only; chance on the whole root-to-terminal path is
included.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Collection, Optional, Union

from .bestresponse import best_response
from .errors import InternalCheckError, ResourceGuardError
from .game import Game, Infoset, Node, Sequence
from .rational import format_rational, over_common_denominator
from .strategy import (MixtureOfProducts, PureProfile, PureStrategy, _check_profile,
                       profile_support, pure_terminal_reach)
from .witnesses import ConstantWitness, HistoryPolicyWitness, TriggerCommitWitness

ZERO = Fraction(0)

NOTIONS = ("efce", "bce", "full-efce", "nfcce")

DEFAULT_STATE_CAP = 1_000_000
STATE_CAP_ENV = "GT_STATE_CAP"


# -- pure-profile utilities ---------------------------------------------------


def pure_utility(game: Game, profile: PureProfile, player: Union[int, str]) -> Fraction:
    """Expected utility of a pure profile (expectation over chance only)."""
    game.require_valid()  # a valid game lists an infoset's actions at each of its nodes
    i = game.player_index(player)
    _check_profile(game, profile)
    return _play_from(game.root, profile, lambda z: z.payoffs[i])


def counterfactual_utility(game: Game, profile: PureProfile,
                           player: Union[int, str], infoset_id: str) -> Fraction:
    """Utility collected below an infoset, weighting only chance and the
    other players' reach: own play above the infoset is not required."""
    game.require_valid()  # under perfect recall the infoset's pair sits at len(chain)
    i = game.player_index(player)
    _check_profile(game, profile)
    iset = game.infoset(i, infoset_id)
    others = [(j, profile.strategies[j]) for j in range(game.n) if j != i]
    mine = profile.strategies[i]
    offset = len(iset.chain)
    total = ZERO
    for z_idx in iset.terminals_below:
        z = game.terminals[z_idx]
        if not pure_terminal_reach(game, mine, z, offset):
            continue
        if all(pure_terminal_reach(game, ps, z) for _, ps in others):
            total += z.payoffs[i] * z.chance_reach
    return total


# -- mixture-level quantities -------------------------------------------------


class ProfileReach:
    """The reach of a correlated profile, factorized per component and built
    once per ``(game, pi)``; nothing here expands the product support.

    Every table holds ints over a stated positive scale, so the DPs reading
    it add, multiply and compare ints only and build each reported value
    once, as ``Fraction(value, scale)``. ``den[i]`` is the lcm of player
    ``i``'s live beta denominators, ``alpha_den`` that of the live alphas,
    and ``scale`` is ``alpha_den * prod_i den[i]``; rows that depend on the
    game alone are :class:`Game`'s.

    Per component ``t`` with ``alpha != 0`` (``alphas[t]``, over
    ``alpha_den``) and player ``i``: ``plans[i][t]`` holds the ``(beta,
    plan)`` pairs and ``masses[i][t]`` maps each sequence to the beta of the
    plans reaching it, both over ``den[i]``; ``walks[i][t][k]`` is the set
    of sequences plan ``k`` plays to (empty for a zero beta);
    ``others[i][t][z]`` is ``alpha_t * prod_{j != i} x_tj(z)``, over ``scale
    // den[i]``, with ``x_tj(z)`` the ``masses[j][t]`` entry at z's last own
    sequence. ``joint[z]`` is the profile's reach of each terminal, chance
    left out, over ``scale``.

    The profile is validated here (:meth:`MixtureOfProducts.validate`), so
    a reach always stands for a valid profile. Every function that builds a
    reach through :meth:`of` takes the profile or its reach in one
    argument, and validates nothing again when handed the reach.
    """

    def __init__(self, game: Game, pi: MixtureOfProducts):
        game.require_valid()  # the factorization rests on perfect recall
        pi.validate(game)
        self.game = game
        self.pi = pi
        live = [comp for comp in pi.components if comp.alpha != 0]
        self.alpha_den, self.alphas = over_common_denominator([comp.alpha for comp in live])
        self.den = [lcm(*(beta.denominator for comp in live for beta, _ in comp.strategies[i]))
                    for i in range(game.n)]
        self.scale = self.alpha_den * prod(self.den)
        self.joint = [0] * len(game.terminals)
        self.plans, self.masses, self.others, self.walks = (
            [[] for _ in range(game.n)] for _ in range(4))
        for comp, alpha in zip(live, self.alphas):
            rows = []
            for i, mix in enumerate(comp.strategies):
                d = self.den[i]
                plans = tuple((beta.numerator * (d // beta.denominator), ps)
                              for beta, ps in mix)
                walks = [_plan_sequences(game, i, ps) if beta else frozenset()
                         for beta, ps in plans]
                masses = _sequence_masses([(beta, walk) for (beta, _), walk in zip(plans, walks)])
                # a plan reaches z exactly when it reaches z's last own sequence
                rows.append([masses.get(z.last_seq[i], 0) for z in game.terminals])
                self.plans[i].append(plans)
                self.masses[i].append(masses)
                self.walks[i].append(walks)
            for i in range(game.n):
                other = [alpha] * len(game.terminals)
                for row in rows[:i] + rows[i + 1:]:
                    other = [a * r for a, r in zip(other, row)]
                self.others[i].append(other)
            for z, (o, r) in enumerate(zip(self.others[0][-1], rows[0])):
                self.joint[z] += o * r

    @classmethod
    def of(cls, game: Game, pi: Union[MixtureOfProducts, "ProfileReach"]
           ) -> "ProfileReach":
        """``pi`` itself when it is a reach of ``game``, else a new reach of
        ``(game, pi)``; a reach of another game raises :class:`ValueError`."""
        if not isinstance(pi, ProfileReach):
            return cls(game, pi)
        if pi.game is not game:
            raise ValueError("the reach was built for another game")
        return pi

    def event_mass(self, i: int, seq: Sequence) -> Fraction:
        """P[x_i(seq) = 1]: the mass of the recommendations playing to ``seq``."""
        return Fraction(self.mass(i, seq), self.alpha_den * self.den[i])

    def mass(self, i: int, seq: Sequence) -> int:
        """:meth:`event_mass` over ``alpha_den * den[i]``."""
        return sum(alpha * masses.get(seq, 0)
                   for alpha, masses in zip(self.alphas, self.masses[i]))

    def value_scale(self, i: int) -> int:
        """The scale of player ``i``'s payoff-weighted sums: the row
        ``game.payoff_rows[i]`` times ``joint``, or times a sequence mass and
        an opponent row."""
        return self.game.payoff_rows[i][0] * self.scale


def _sequence_masses(walks) -> dict[Sequence, int]:
    """Per sequence: the beta of the plans playing to it, from ``(beta,
    sequences the plan plays to)`` pairs of one player."""
    masses: dict[Sequence, int] = {}
    for beta, walk in walks:
        for seq in walk:
            masses[seq] = masses.get(seq, 0) + beta
    return masses


def _plan_sequences(game: Game, i: int, ps: PureStrategy) -> set[Sequence]:
    """The sequences of player ``i`` that the plan ``ps`` plays to."""
    reached = {Sequence.empty(i)}
    for iset in game.infosets[i]:  # discovery order: parents before children
        if iset.parent_seq in reached:
            reached.add(iset.seqs[iset.actions.index(ps.actions[iset.index])])
    return reached


def _expected(reach: ProfileReach, i: int) -> int:
    """E[u_i] over ``reach.value_scale(i)``."""
    return sum(p * r for p, r in zip(reach.game.payoff_rows[i][1], reach.joint))


def expected_utility(game: Game, pi: Union[MixtureOfProducts, ProfileReach],
                     player: Union[int, str]) -> Fraction:
    """E[u_i] under the correlated profile, computed factorized per component
    (never expanding the product support)."""
    i = game.player_index(player)
    reach = ProfileReach.of(game, pi)
    return Fraction(_expected(reach, i), reach.value_scale(i))


@dataclass(frozen=True)
class OutcomeDistribution:
    probs: dict[str, Fraction]  # terminal id -> probability

    def to_json_dict(self) -> dict:
        return {zid: format_rational(p) for zid, p in self.probs.items()}


def outcome_distribution(game: Game, pi: Union[MixtureOfProducts, ProfileReach]
                         ) -> OutcomeDistribution:
    """The probability of each terminal under ``pi``."""
    den, ints = _outcome_ints(ProfileReach.of(game, pi))
    return OutcomeDistribution({z.terminal_id: Fraction(p, den)
                                for z, p in zip(game.terminals, ints)})


def _outcome_ints(reach: ProfileReach) -> tuple[int, list[int]]:
    """``(den, ints)`` with ``P(z) == ints[z] / den`` for every terminal:
    the chance row times ``joint``; raises :class:`InternalCheckError` unless
    the probabilities sum to 1."""
    chance_den, chances = reach.game.chance_row
    den = chance_den * reach.scale
    ints = [c * j for c, j in zip(chances, reach.joint)]
    if sum(ints) != den:
        raise InternalCheckError(
            f"outcome probabilities sum to {Fraction(sum(ints), den)}, not 1")
    return den, ints


def outcome_equivalent(game: Game, a: Union[MixtureOfProducts, ProfileReach],
                       b: Union[MixtureOfProducts, ProfileReach]) -> bool:
    """Exact equality of the induced terminal distributions."""
    return _same_outcomes(ProfileReach.of(game, a), ProfileReach.of(game, b))


def _same_outcomes(a: ProfileReach, b: ProfileReach) -> bool:
    """Whether two reaches of one game induce the same terminal
    distribution, compared as cross-multiplied ints."""
    den_a, ints_a = _outcome_ints(a)
    den_b, ints_b = _outcome_ints(b)
    return all(p * den_b == q * den_a for p, q in zip(ints_a, ints_b))


def counterfactually_outcome_equivalent(game: Game,
                                        a: Union[MixtureOfProducts, ProfileReach],
                                        b: Union[MixtureOfProducts, ProfileReach]) -> bool:
    """Equality of E[x_i(z|I) x_{-i}(z)] for every player, infoset and
    terminal below it - a strictly stronger notion than outcome equivalence
    (chance is a common factor and is left out)."""
    reach_a, reach_b = ProfileReach.of(game, a), ProfileReach.of(game, b)
    return all(r * reach_b.scale == cf_b[z] * reach_a.scale
               for i in range(game.n)
               for cf_a, cf_b in zip(_cf_reach_profiles(reach_a, i),
                                     _cf_reach_profiles(reach_b, i))
               for z, r in cf_a.items())


def _cf_reach_profiles(reach: ProfileReach, i: int) -> list[dict[int, int]]:
    """Per infoset of player ``i`` (by index) and terminal below it:
    E[x_i(z | I) x_{-i}(z)] over ``reach.scale``, the own factor restarted at
    the infoset.

    A plan reaches z from the infoset at ``offset`` on z's own pairs exactly
    when the deepest pair it leaves lies above ``offset``, so one backward
    scan per (plan, terminal) serves every infoset on z's path: the own
    factor there is a prefix sum of the betas binned by that depth."""
    game = reach.game
    out = [dict.fromkeys(iset.terminals_below, 0) for iset in game.infosets[i]]
    for plans, other in zip(reach.plans[i], reach.others[i]):
        for z in game.terminals:
            o, pairs = other[z.index], z.own_pairs[i]
            if not o or not pairs:
                continue
            by_depth = [0] * (len(pairs) + 1)  # [k]: plans leaving pair k-1 last
            for beta, ps in plans:
                k = len(pairs)
                while k and ps.actions[pairs[k - 1][0]] == pairs[k - 1][1]:
                    k -= 1
                by_depth[k] += beta
            own = 0
            for offset, (idx, _a) in enumerate(pairs):
                own += by_depth[offset]
                if own:
                    out[idx][z.index] += own * o
    return out


def conditional_node_utility(game: Game, pi: MixtureOfProducts,
                             player: Union[int, str], path) -> Fraction:
    """Expected utility of restarting play at the node addressed by ``path``,
    with everyone (chance included) continuing as sampled. Used to compare
    conditional values inside off-path subtrees."""
    game.require_valid()
    i = game.player_index(player)
    pi.validate(game)
    node = game.node_at(tuple(path))
    total = ZERO
    for w, profile in profile_support(pi):
        total += w * _play_from(node, profile, lambda z: z.payoffs[i])
    return total


def _play_from(node: Node, profile: PureProfile, value) -> Fraction:
    """E[value(z)] over chance when ``profile`` plays on from ``node``."""
    if node.kind == "terminal":
        return value(node)
    if node.kind == "chance":
        return sum((p * _play_from(child, profile, value)
                    for _label, p, child in node.moves), ZERO)
    want = profile.strategies[node.player].actions[node.infoset.index]
    for label, child in node.moves:
        if label == want:
            return _play_from(child, profile, value)
    raise InternalCheckError("strategy names an action missing from the node")


# -- gap reports ---------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    notion: str
    overall: Fraction
    per_player: tuple[Fraction, ...]
    per_infoset: Optional[dict[tuple[int, str], Fraction]]
    witness: object

    def to_json_dict(self, game: Game) -> dict:
        d = {"notion": self.notion,
             "gap": format_rational(self.overall),
             "per_player": [format_rational(g) for g in self.per_player]}
        if self.per_infoset is not None:
            nested: dict[str, dict[str, str]] = {}
            for (i, iset_id), g in self.per_infoset.items():
                nested.setdefault(game.players[i], {})[iset_id] = format_rational(g)
            d["per_infoset"] = nested
        d["witness"] = self.witness.to_json_dict(game) if self.witness else None
        return d


def gap(game: Game, pi: Union[MixtureOfProducts, ProfileReach], notion: str,
        state_cap: Optional[int] = None) -> GapReport:
    """Exact worst-case regret of ``pi`` under the given notion.

    efce and nfcce weight each trigger over the terminals below its infoset
    only (see :func:`_trigger_weights`).

    bce and full-efce enumerate recommendation histories, which is
    exponential in the tree depth in the worst case. Both value each
    (infoset, recommendation history) state once, so ``state_cap`` bounds
    distinct states, the same count for either notion; beyond it they refuse
    (raising :class:`ResourceGuardError`) rather than truncate. The cap
    defaults to the GT_STATE_CAP environment variable or 1,000,000, and is read
    for these two notions only; a cap that is not a non-negative integer
    raises :class:`ValueError`.
    """
    # ProfileReach.of validates a new reach's profile before the notion is read
    return _gap(ProfileReach.of(game, pi), notion, state_cap)[0]


def _gap(reach: ProfileReach, notion: str, state_cap: Optional[int] = None
         ) -> tuple[GapReport, dict[Sequence, PureStrategy]]:
    """:func:`gap` of ``reach``, and the efce walk's best response of every
    positive-mass trigger, keyed by its sequence (empty for the other
    notions), which :func:`gametree.convert._rewrite` takes as known. Each
    notion's helper returns one player's gap, over ``reach.value_scale(i)``,
    and witness; the report names the largest gap's lowest-index player."""
    if notion not in NOTIONS:
        raise ValueError(f"unknown notion {notion!r}; choose from {NOTIONS}")
    game = reach.game
    responses: dict[Sequence, PureStrategy] = {}
    per_infoset = {} if notion == "bce" else None
    if notion in ("bce", "full-efce"):
        budget = _StateBudget(_state_cap(state_cap))
        support = _support_steps(reach)
    gaps, witnesses = [], []
    for i in range(game.n):
        if notion == "nfcce":
            g, witness = _nfcce(reach, i)
        elif notion == "efce":
            g, witness = _efce(reach, i, responses)
        elif notion == "bce":
            g, witness = _bce(reach, i, support, budget, per_infoset)
        else:
            g, witness = _full_efce(reach, i, support, budget)
        gaps.append(Fraction(g, reach.value_scale(i)))
        witnesses.append(witness)
    best = max(range(game.n), key=lambda i: (gaps[i], -i))
    return GapReport(notion, gaps[best], tuple(gaps), per_infoset, witnesses[best]), responses


def _state_cap(state_cap: Optional[int]) -> int:
    """``state_cap``, or when None the GT_STATE_CAP environment variable,
    else :data:`DEFAULT_STATE_CAP`; raises :class:`ValueError` unless the
    cap is a non-negative integer."""
    value = state_cap
    if state_cap is None:
        value = os.environ.get(STATE_CAP_ENV, DEFAULT_STATE_CAP)
        try:
            state_cap = int(value)
        except ValueError:
            state_cap = -1
    if state_cap < 0:
        raise ValueError(f"the state cap ({STATE_CAP_ENV} or state_cap=) must be a "
                         f"non-negative integer, got {value!r}")
    return state_cap


def _payoff_units(reach: ProfileReach, i: int) -> list[list[int]]:
    """Per component ``t``: ``payoff_i(z) * chance(z) * others[i][t][z]``,
    the terminal weights of a trigger that holds all of ``t``'s own mass,
    over ``reach.value_scale(i) // reach.den[i]``."""
    pc = reach.game.payoff_rows[i][1]
    return [[p * o for p, o in zip(pc, other)] for other in reach.others[i]]


def _trigger_weights(reach: ProfileReach, units: list[list[int]], seq: Sequence,
                     below: Collection[int]) -> Optional[list[int]]:
    """``payoff * chance * E[x_{-i}(z) 1[x_i(seq) = 1]]`` per terminal, over
    ``reach.value_scale(i)``, for the trigger ``seq``.

    Filled in only at the terminal indices ``below``, 0 elsewhere: the
    caller passes those its best response and obey sum read. None when no
    component puts mass on ``seq``."""
    w = None
    for masses, unit in zip(reach.masses[seq.player], units):
        m = masses.get(seq)
        if not m:
            continue
        if w is None:
            w = [0] * len(unit)
        for z in below:
            w[z] += m * unit[z]
    return w


def _nfcce(reach: ProfileReach, i: int) -> tuple[int, ConstantWitness]:
    # the constant class does not contain the identity, so the best constant
    # can lose to obedience; the gap is clamped at 0 (no deviation gains)
    game = reach.game
    w = _trigger_weights(reach, _payoff_units(reach, i), Sequence.empty(i),
                         range(len(game.terminals)))
    value, strat = best_response(game, i, w)
    return max(0, value - _expected(reach, i)), ConstantWitness(i, strat)


def _efce(reach: ProfileReach, i: int, responses: dict[Sequence, PureStrategy]
          ) -> tuple[int, TriggerCommitWitness]:
    """Obedient-walk dynamic program.

    A deviation in this class learns nothing new after its first disobedient
    action, so its play from a trigger state (infoset, recommended action)
    onward may as well be the best fixed continuation against the opponents'
    reach conditioned on that state. The walk therefore chooses, at every
    recommendation state, between committing to that best response and
    obeying one more step. The root (the empty trigger) only obeys: below a
    first infoset ``I`` its weights are the sum of those of the triggers
    ``I:a``, as every plan plays one action there, so its best response is
    worth at most the sum of theirs, each at most ``walk(I:a)``; ties go to
    obedience.

    Every positive-mass trigger's best response, commit or not, is filed
    in ``responses``.
    """
    game = reach.game
    units = _payoff_units(reach, i)

    def walk(seq: Sequence, at: Optional[Infoset], after: tuple) -> tuple[int, list]:
        """The trigger ``seq`` at ``at``; ``after`` is its ``(terminals,
        children)`` entry of :attr:`Infoset.after`."""
        terminals, children = after
        # the root only obeys, so it reads its own terminals alone
        w = _trigger_weights(reach, units, seq,
                             terminals if at is None else at.terminals_below)
        if w is None:
            return 0, []
        obey = sum(map(w.__getitem__, terminals))
        commits: list = []
        for child in children:
            for child_seq, child_after in zip(child.seqs, child.after):
                v, c = walk(child_seq, child, child_after)
                obey += v
                commits.extend(c)
        if at is not None:  # the root obeys
            t_val, t_strat = best_response(game, i, w, at)
            responses[seq] = t_strat
            if t_val > obey:
                return t_val, [(seq, t_strat)]
        return obey, commits

    value, commits = walk(Sequence.empty(i), None, game.root_after[i])
    return value - _expected(reach, i), TriggerCommitWitness(i, tuple(commits))


class _StateBudget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.cap:
            raise ResourceGuardError(
                f"recommendation-history state count exceeded the cap of {self.cap}; "
                f"raise it via the {STATE_CAP_ENV} environment variable or state_cap=")


def _support_steps(reach: ProfileReach) -> tuple[list, list]:
    """How the history tables move through the support, per live component.

    A support element is a tuple (component, one plan index per player),
    ranked ``k`` in :func:`profile_support`'s lexicographic order. An entry
    of a table pairs a node with a component and an own plan, standing for
    every support element that pairs the plan with opponent plans reaching
    the node; the least of them ranks at ``k`` with each opponent's plan
    index the lowest positive-beta one reaching the node.

    Returns ``(roots, steps)``: ``roots[t][i]`` maps each positive-beta plan
    index ``p`` of player ``i`` to ``k`` at the root, and ``steps[t][j][J]``
    lists, for player ``j``'s infoset index ``J``, the ``(action position,
    change of k)`` pairs of the actions some positive-beta plan reaching
    ``J`` takes there."""
    game = reach.game
    roots, steps = [], []
    base = 0
    for t in range(len(reach.alphas)):
        sizes = [len(reach.plans[j][t]) for j in range(game.n)]
        stride = [prod(sizes[j + 1:]) for j in range(game.n)]
        least = []  # per player: sequence -> lowest positive-beta plan index reaching it
        for j in range(game.n):
            low: dict[Sequence, int] = {}
            walks = reach.walks[j][t]  # empty for a zero beta
            for q in range(len(walks) - 1, -1, -1):  # backwards: the lowest index writes last
                low.update(dict.fromkeys(walks[q], q))
            least.append(low)
        top = base + sum(least[j][Sequence.empty(j)] * stride[j] for j in range(game.n))
        roots.append([{p: top + (p - least[i][Sequence.empty(i)]) * stride[i]
                       for p, (beta, _) in enumerate(reach.plans[i][t]) if beta}
                      for i in range(game.n)])
        per_player = []
        for j in range(game.n):
            low = least[j]
            per_player.append([
                [(m, (low[seq] - low[iset.parent_seq]) * stride[j])
                 for m, seq in enumerate(iset.seqs) if seq in low]
                if iset.parent_seq in low else []
                for iset in game.infosets[j]])
        steps.append(per_player)
        base += prod(sizes)
    return roots, steps


def _descent(node: Node, i: int, unit: list[int], steps: list, stops: list,
             dk: int = 0) -> int:
    """The walk from ``node`` down to player ``i``'s next own nodes within
    one component: the opponents take the actions ``steps`` (that
    component's entry of :func:`_support_steps`) lists, chance every move of
    positive probability. It depends on the node and the component only, not
    on the deviator's plan, so :func:`_history_table` walks it once per
    (node, component).

    Returns the sum of ``unit`` over the terminals on the way and appends
    the ``(own node, change of k)`` stops to ``stops`` in depth-first order;
    ``dk`` is the change of k down to ``node``."""
    if node.kind == "terminal":
        return unit[node.index]
    total = 0
    if node.kind == "chance":
        for _label, prob, child in node.moves:
            if prob:
                total += _descent(child, i, unit, steps, stops, dk)
    elif node.player != i:
        for m, d in steps[node.player][node.infoset.index]:
            total += _descent(node.moves[m][1], i, unit, steps, stops, dk + d)
    else:
        stops.append((node, dk))
    return total


def _history_table(reach: ProfileReach, i: int, support: tuple, budget: _StateBudget):
    """Player ``i``'s (infoset index, recommendation history) states, each
    valued once for a deviator who tells support elements apart only by
    those histories; ``support`` is :func:`_support_steps`'s output.

    A state's bundle holds entries (node, component, own plan): the plan has
    the state's history at the node's infoset, and every opponent has a
    positive-beta plan in the component reaching the node. Within a
    component the players' plans are independent, so the opponents enter
    only through the terminal weights: a terminal adds the own beta times
    :func:`_payoff_units`, over ``reach.value_scale(i)``, and a descent
    branches into every action some positive-beta opponent plan reaching the
    node takes. Under perfect recall every node of an infoset lies below
    every infoset on its own chain, so the bundle does not depend on where a
    walk starts, and one descent from the root serves every history notion.
    States form a forest (each is reached by a unique own-action chain), so
    a single top-down pass maximizes exactly. The child states a state's
    action ``m`` at ``I`` leads to sit at infosets ``J`` with ``J.chain ==
    I.chain + ((I, m),)``, so each one's history is the parent's plus ``(J.id,
    the plan's recommendation at J)``: under its parent a state is keyed by
    its local recommendation alone, and its full key is built once, when it
    is solved.

    Returns the value from the root, the root states, and per state
    ``(first, value, action, children, obeyed)``: its least (support rank,
    node preorder) pair as one int, its best value, the winning action (the
    smallest on ties), that action's child states, and its obedient value,
    that of every entry following its own recommendation (the last of the
    state's key) here and at every child state below. Root and child states
    are listed by ``first``: the order in which a walk through the expanded
    support, element by element, would first meet them.
    """
    game = reach.game
    isets = game.infosets[i]
    roots, steps = support
    units = _payoff_units(reach, i)
    betas = [[beta for beta, _ in plans] for plans in reach.plans[i]]
    table: dict = {}
    # per component: node -> the units and the stops of its _descent
    totals: list[dict] = [{} for _ in units]
    stops: list[dict] = [{} for _ in units]

    def descend(node: Node, t: int, p: int, k: int, sink: dict) -> int:
        """Route entry ``(t, p)``, ranked ``k`` here, down to the deviator's
        next nodes, filed in ``sink`` by (infoset index, the plan's
        recommendation there); returns the units of the terminals on the
        way. :func:`solve` reads terminal children itself."""
        total = totals[t].get(node)
        if total is None:
            stops[t][node] = found = []
            total = totals[t][node] = _descent(node, i, units[t], steps[t], found)
        actions = reach.plans[i][t][p][1].actions
        for own, dk in stops[t][node]:
            j = own.infoset.index
            first = (k + dk) * game.num_nodes + own.order
            state = sink.get((j, actions[j]))
            if state is None:
                sink[(j, actions[j])] = [first, [(own, t, p, k + dk)]]
            else:
                state[0] = min(state[0], first)
                state[1].append((own, t, p, k + dk))
        return total

    def settle(sink: dict, hist: tuple) -> tuple[int, int, tuple]:
        """Solve the states in ``sink``, the children of a state whose
        history is ``hist``; the sums of their values and of their obedient
        values, and their full keys by ``first``."""
        keys = []
        value = obeyed = 0
        for j, rec in sorted(sink, key=lambda local: sink[local][0]):
            key = (j, hist + ((isets[j].id, rec),))
            v, o = solve(key, rec, *sink[(j, rec)])
            value += v
            obeyed += o
            keys.append(key)
        return value, obeyed, tuple(keys)

    def solve(key, rec: str, first: int, bundle: list) -> tuple[int, int]:
        """The state ``key``, whose entries are all recommended ``rec``;
        its best value and its obedient value."""
        budget.spend()
        best = None
        for m, a in enumerate(isets[key[0]].actions):
            sink: dict = {}
            val = 0
            for node, t, p, k in bundle:
                child = node.moves[m][1]
                if child.kind == "terminal":
                    val += betas[t][p] * units[t][child.index]
                else:
                    val += betas[t][p] * descend(child, t, p, k, sink)
            if sink:
                below, below_obeyed, children = settle(sink, key[1])
            else:
                below = below_obeyed = 0
                children = ()
            if a == rec:
                obeyed = val + below_obeyed
            val += below
            if best is None or val > best[0] or (val == best[0] and a < best[1]):
                best = (val, a, children)
        table[key] = (first,) + best + (obeyed,)
        return best[0], obeyed

    sink: dict = {}
    value = sum(betas[t][p] * descend(game.root, t, p, k, sink)
                for t, per_plan in enumerate(roots) for p, k in per_plan[i].items())
    below, _obeyed, keys = settle(sink, ())
    return value + below, keys, table


def _policy(game: Game, i: int, table: dict, keys) -> list:
    """The winning actions of the states ``keys``, each after those of the
    child states it leads to."""
    out = []
    for key in keys:
        _first, _value, action, children, _obeyed = table[key]
        out.extend(_policy(game, i, table, children))
        out.append((game.infosets[i][key[0]].id, key[1], action))
    return out


def _bce(reach: ProfileReach, i: int, support: tuple, budget: _StateBudget,
         per_infoset: dict) -> tuple[int, HistoryPolicyWitness]:
    """Per infoset of player ``i``: maximize counterfactual utility over
    deviations that see the full local-recommendation history, then
    subtract the profile's own counterfactual utility there, filed in
    ``per_infoset``. Both are read off the player's table: the deviation
    value at an infoset is the sum of its states' values, and the baseline
    the sum of their obedient values. Each positive-beta plan has one
    history at the infoset and the table tries every action, so each (node,
    component, plan) sits in exactly one of its states, where obeying is
    the plan's own factor ``x_i(z | I)``."""
    game = reach.game
    _value, _roots, table = _history_table(reach, i, support, budget)
    scale = reach.value_scale(i)
    gaps = [0] * len(game.infosets[i])
    for (j, _hist), (_first, value, _action, _children, obeyed) in table.items():
        gaps[j] += value - obeyed
    player_best = 0  # identity achieves 0 at every infoset
    best_iset = None
    for iset, g in zip(game.infosets[i], gaps):
        per_infoset[(i, iset.id)] = Fraction(g, scale)
        if g > player_best:
            player_best, best_iset = g, iset
    witness = HistoryPolicyWitness(i, ())
    if best_iset is not None:  # the policy of the first infoset attaining the best
        keys = sorted([s for s in table if s[0] == best_iset.index], key=lambda s: table[s][0])
        witness = HistoryPolicyWitness(i, tuple(_policy(game, i, table, keys)), best_iset.id)
    return player_best, witness


def _full_efce(reach: ProfileReach, i: int, support: tuple, budget: _StateBudget
               ) -> tuple[int, HistoryPolicyWitness]:
    """Ordinary regret against the history-seeing deviation class: the
    player's table read from the root instead of per infoset."""
    value, roots, table = _history_table(reach, i, support, budget)
    return value - _expected(reach, i), HistoryPolicyWitness(
        i, tuple(_policy(reach.game, i, table, roots)))
