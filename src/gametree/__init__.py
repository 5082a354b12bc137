"""Exact-arithmetic toolkit for correlated play in extensive-form games.

Parse perfect-recall game trees with rational data, measure worst-case
deviation gaps under four equilibrium notions, decompose behavior strategies
into small mixtures of pure plans, rewrite off-path recommendations with
counterfactual best responses, and solve for (optimal) equilibria with an
exact rational simplex. Every quantity read or reported is a
``fractions.Fraction`` (the gap programs compute on ints over a common
denominator); equality assertions in the test suite are exact.
"""

from .errors import (GameParseError, InternalCheckError, InvalidGameError,
                     ProfileError, ProfileParseError, ResourceGuardError)
from .game import (Game, Infoset, Sequence, ValidationReport, Violation,
                   parse_game, serialize_game)
from .strategy import (BehaviorStrategy, MixtureOfProducts, PureProfile,
                       PureStrategy, SequenceFormVector, decompose,
                       mixture_from_behavior_products, parse_profile,
                       profile_support, pure_mixture, pure_strategy,
                       sequence_form, serialize_profile)
from .metrics import (GapReport, OutcomeDistribution, ProfileReach,
                      conditional_node_utility, counterfactual_utility,
                      counterfactually_outcome_equivalent, expected_utility, gap,
                      outcome_distribution, outcome_equivalent, pure_utility)
from .oracles import (DeviationTable, brute_force_gap, deviation_tables,
                      enumerate_pure, is_behavioral, is_causal,
                      oracle_player_gap)
from .convert import counterfactual_best_response, deviation_point, efce_to_bce
from .lp import Constraint, LinearProgram, LPResult, lp_solve
from .equilibrium import compute_bce, compute_efce, optimal_bce, optimal_efce

__version__ = "0.1.0"
