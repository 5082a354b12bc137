#!/usr/bin/env python3
"""Solving for exact and optimal equilibria with the rational simplex.

The solver puts one LP variable on every pure profile and generates its
incentive rows with the causal gap program: it solves over the rows found so
far, measures the solution's gap, and adds the gap's witness deviation as a
row until the gap is within epsilon. So a returned profile is an exact
equilibrium by measurement, not by trust.

Run:  python demos/05_solving.py
"""

import random
from fractions import Fraction

from gametree import (compute_bce, compute_efce, expected_utility, gap,
                      optimal_bce, optimal_efce, profile_support)
from gametree.fixtures import load_game
from gametree.randgen import random_game, random_objective

print("=" * 72)
print("Exact equilibria on the bundled games")
print("=" * 72)
for name in ("lrr", "ebos", "surj"):
    game = load_game(name)
    pi = compute_efce(game)
    utilities = [str(expected_utility(game, pi, i)) for i in range(game.n)]
    print(f"{name:5s} causal equilibrium: gap "
          f"{gap(game, pi, 'efce').overall}, utilities {utilities}, "
          f"support size {len(list(profile_support(pi)))}")
    pi = compute_bce(game)
    print(f"      counterfactual equilibrium: gap {gap(game, pi, 'bce').overall}")

print()
print("=" * 72)
print("Optimizing an objective over the equilibrium set")
print("=" * 72)
ebos = load_game("ebos")
welfare = {z.terminal_id: sum(z.payoffs, Fraction(0)) for z in ebos.terminals}
pi, value = optimal_efce(ebos, welfare)
print("upgrade game, maximize u1 + u2 over causal equilibria:", value)
print("  (coordinated upgrading is itself an equilibrium, so the optimum")
print("   beats the reference profile's welfare of 3)")
_pi_b, value_b = optimal_bce(ebos, welfare)
print("same objective over counterfactual equilibria:", value_b,
      "- equal by the outcome-preserving rewrite")

print()
print("=" * 72)
print("Random desk-scale games: solve, rewrite, re-verify")
print("=" * 72)
rng = random.Random(9)
for k in range(5):
    game = random_game(rng, max_nodes=20, max_pure_product=64)
    c = random_objective(rng, game)
    _e, ve = optimal_efce(game, c)
    _b, vb = optimal_bce(game, c)
    print(f"game {k}: {game.n} players, {game.num_nodes} nodes, "
          f"optimal value {ve} (causal) = {vb} (counterfactual)")
