import json
import random
from fractions import Fraction

import pytest

from gametree import Sequence, fixtures
from gametree.bestresponse import best_response
from gametree.metrics import pure_utility
from gametree.randgen import (random_behavior_strategy, random_game, random_mixture,
                              random_pure_profile_mixture, random_pure_strategy)
from gametree.strategy import (MixtureComponent, MixtureOfProducts, PureProfile,
                               PureStrategy, expand_behavior_products, profile_support,
                               pure_reaches_sequence, pure_terminal_reach)

F = Fraction


def walk_tree(game):
    """Every node of ``game`` in preorder as ``(node, parent, path)``: its
    parent (None at the root) and the action labels from the root to it.
    Nodes link only down, so a test reads a node's parent and path here."""
    stack = [(game.root, None, ())]
    while stack:
        node, parent, path = stack.pop()
        yield node, parent, path
        if node.kind != "terminal":
            stack.extend((m[-1], node, path + (m[0],)) for m in reversed(node.moves))


@pytest.fixture(scope="session")
def ebos():
    return fixtures.load_game("ebos")


@pytest.fixture(scope="session")
def lrr():
    return fixtures.load_game("lrr")


@pytest.fixture(scope="session")
def surj():
    return fixtures.load_game("surj")


@pytest.fixture(scope="session")
def ebos_pi(ebos):
    return fixtures.load_profile(ebos, "ebos")


@pytest.fixture(scope="session")
def lrr_pi(lrr):
    """The product distribution the behavior profile denotes."""
    return fixtures.load_profile(lrr, "lrr")


@pytest.fixture(scope="session")
def lrr_small(lrr):
    """Same profile, decomposed into a small-support mixture."""
    return fixtures.load_profile(lrr, "lrr", behavior_mode="decompose")


@pytest.fixture(scope="session")
def surj_pi(surj):
    return fixtures.load_profile(surj, "surj")


@pytest.fixture(scope="session")
def games_and_profiles():
    """``games_and_profiles(seed)``: seeded (game, profile) pairs."""
    return _games_and_profiles


def _games_and_profiles(seed):
    """Seeded 2- and 3-player games, each with decomposed behavior mixtures,
    literal behavior products and pure-profile mixtures, plus one padded with
    a zero-weight component and a zero-weight plan."""
    rng = random.Random(seed)
    out = []
    for players in (2, 2, 2, 3, 3, 3):
        game = random_game(rng, max_players=3, max_nodes=16, max_pure_product=64)
        while game.n != players:
            game = random_game(rng, max_players=3, max_nodes=16, max_pure_product=64)
        behaviors = [(F(1), [random_behavior_strategy(rng, game, i)
                             for i in range(game.n)])]
        decomposed = random_mixture(rng, game)
        first = decomposed.components[0]
        padded_mix = first.strategies[0] + ((F(0), random_pure_strategy(rng, game, 0)),)
        padded = MixtureOfProducts(decomposed.components + (
            MixtureComponent(F(0), first.strategies),
            MixtureComponent(F(0), (padded_mix,) + first.strategies[1:])))
        for pi in (decomposed, expand_behavior_products(game, behaviors),
                   random_pure_profile_mixture(rng, game), padded):
            pi.validate(game)
            out.append((game, pi))
    return out


@pytest.fixture(scope="session")
def replayed_regret():
    """``replayed_regret(game, pi, witness, utility)``: the support sum of
    the deviator's ``utility`` swing when ``witness`` rewrites its plan."""
    return _replayed_regret


def _replayed_regret(game, pi, witness, utility):
    i = witness.player
    regret = F(0)
    for w, profile in profile_support(pi):
        strategies = list(profile.strategies)
        strategies[i] = witness.apply(game, profile.strategies[i])
        regret += w * (utility(game, PureProfile(tuple(strategies)), i)
                       - utility(game, profile, i))
    return regret


@pytest.fixture(scope="session")
def expanded_conditional_reach():
    """``expanded_conditional_reach(game, pi, i, seq)``: the event mass
    ``P[x_i(seq) = 1]`` and, per terminal index, ``E[x_{-i}(z) 1[x_i(seq) =
    1]]`` (chance left out), summed over the expanded support."""
    return _expanded_conditional_reach


def _expanded_conditional_reach(game, pi, i, seq):
    mass, reach = F(0), [F(0)] * len(game.terminals)
    for w, profile in profile_support(pi):
        if not pure_reaches_sequence(game, profile.strategies[i], seq):
            continue
        mass += w
        for z in game.terminals:
            if all(pure_terminal_reach(game, profile.strategies[j], z)
                   for j in range(game.n) if j != i):
                reach[z.index] += w
    return mass, tuple(reach)


@pytest.fixture(scope="session")
def reference_cbr():
    """``reference_cbr(game, pi, i, seq)``: the counterfactual best response
    at ``seq`` against the expanded conditional reach, as ``(strategy,
    value, mass)``. A zero-mass event falls back to the unconditional law;
    ``mass`` is that of the law the response was computed against."""
    return _reference_cbr


def _reference_cbr(game, pi, i, seq):
    mass, reach = _expanded_conditional_reach(game, pi, i, seq)
    if mass == 0:
        mass, reach = _expanded_conditional_reach(game, pi, i, Sequence.empty(i))
    weights = [z.payoffs[i] * z.chance_reach * reach[z.index] for z in game.terminals]
    at = None if seq.is_empty else game.infoset(i, seq.infoset)
    value, strategy = best_response(game, i, weights, at)
    return strategy, value / mass, mass


@pytest.fixture(scope="session")
def restricted_deviation_value():
    """``restricted_deviation_value(game, pi, i, witness, infoset_id)``: the
    ordinary regret of ``witness`` applied only at infosets weakly after the
    given one (play elsewhere stays obedient)."""
    return _restricted_deviation_value


def _restricted_deviation_value(game, pi, i, witness, infoset_id):
    start = game.infoset(i, infoset_id)
    total = F(0)
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


@pytest.fixture()
def plan_chain_text():
    """A one-player game document: 40 binary infosets in a chain, so the
    player alone has 2**40 pure plans."""
    node = {"kind": "terminal", "payoffs": ["0"]}
    for k in reversed(range(40)):
        node = {"kind": "decision", "player": 0, "infoset": f"I{k}", "actions": [
            {"label": "stop", "child": {"kind": "terminal", "payoffs": [str(k)]}},
            {"label": "go", "child": node}]}
    return json.dumps({"players": ["A"], "root": node})


@pytest.fixture()
def strategy_guard(monkeypatch):
    """Counts the solver's ``PureStrategy`` constructions and raises after
    100,000, so a solver that enumerates a huge game fails fast instead of
    exhausting memory; returns the one-entry count list."""
    from gametree import equilibrium
    built = [0]
    real = equilibrium.PureStrategy

    def counted(*args):
        built[0] += 1
        if built[0] > 100_000:
            raise RuntimeError("the solver built more than 100000 pure strategies")
        return real(*args)

    monkeypatch.setattr(equilibrium, "PureStrategy", counted)
    return built
