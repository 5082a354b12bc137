"""End-to-end verification suite over the bundled fixtures and seeded
random instances.

Each criterion pins exact expected values (tolerance zero unless stated) and
prints one PASS/FAIL line via ``gt paper-check``; the pytest acceptance
module runs the same functions. Check 2d pins the converted lrr profile's
overall history-seeing gap at 1/5: outcome preservation (2g) leaves
recommendation R at the root with mass 1/10 and payoff 0, so playing L there
gains 1/10 * (2 - 0), and 2e caps the gap at the source's causal gap 1/5.
The per-infoset gap at B alone is 1/10 (check 2f).
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .convert import efce_to_bce
from .equilibrium import compute_bce, compute_efce, optimal_bce, optimal_efce
from .metrics import (NOTIONS, ProfileReach, _trigger_weights, conditional_node_utility,
                      counterfactual_utility, counterfactually_outcome_equivalent,
                      expected_utility, gap, outcome_distribution, outcome_equivalent)
from .oracles import brute_force_gap, enumerate_pure, oracle_player_gap
from .randgen import (random_game, random_behavior_strategy, random_mixture,
                      random_objective, random_pure_profile_mixture)
from .rational import format_rational
from .strategy import (MixtureOfProducts, PureProfile, decompose,
                       profile_support, pure_mixture, pure_reaches_sequence,
                       pure_strategy, pure_terminal_reach, sequence_form)

F = Fraction
ZERO = F(0)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    ok: bool
    detail: str = ""


def _result(criterion, name, ok, want=None, got=None):
    detail = ""
    if want is not None:
        detail = f"want {want}, got {got}"
    return CheckResult(criterion, name, bool(ok), detail)


def _eq(criterion, name, got, want):
    return _result(criterion, name, got == want,
                   want if isinstance(want, str) else repr(want), repr(got))


def _support_set(pi: MixtureOfProducts):
    return sorted((w, tuple(ps.actions for ps in p.strategies))
                  for w, p in profile_support(pi))


def check_1_ebos() -> list[CheckResult]:
    game = fixtures.load_game("ebos")
    pi = fixtures.load_profile(game, "ebos")
    out = []
    out.append(_eq("1a", "ebos expected utility, both players",
                   (expected_utility(game, pi, 0), expected_utility(game, pi, 1)),
                   (F(3, 2), F(3, 2))))
    out.append(_eq("1b", "ebos causal gap", gap(game, pi, "efce").overall, ZERO))
    out.append(_eq("1c", "ebos history-seeing gap", gap(game, pi, "bce").overall, F(1)))
    converted = efce_to_bce(game, pi)
    want = sorted([
        (F(1, 2), (("NotU", "X1", "X1"), ("X2",))),
        (F(1, 2), (("NotU", "Y1", "X1"), ("Y2",))),
    ])
    out.append(_eq("1d", "ebos conversion support and weights",
                   _support_set(converted), want))
    out.append(_eq("1e", "ebos converted history-seeing gap",
                   gap(game, converted, "bce").overall, ZERO))
    out.append(_eq("1f", "ebos outcome equivalence",
                   outcome_equivalent(game, pi, converted), True))
    return out


def check_2_lrr() -> list[CheckResult]:
    game = fixtures.load_game("lrr")
    pi = fixtures.load_profile(game, "lrr")  # the product distribution itself
    out = []
    out.append(_eq("2a", "lrr causal gap", gap(game, pi, "efce").overall, F(1, 5)))
    out.append(_eq("2b", "lrr history-seeing gap", gap(game, pi, "bce").overall, F(1)))
    small = fixtures.load_profile(game, "lrr", behavior_mode="decompose")
    converted = efce_to_bce(game, small)
    want = sorted([(F(9, 10), (("L", "L'"),)), (F(1, 10), (("R", "R'"),))])
    out.append(_eq("2c", "lrr decompose-then-convert support",
                   _support_set(converted), want))
    # The root deviation (on R, play L) gains 1/10 * (2 - 0) = 1/5 in every
    # outcome-equivalent rewrite, which meets 2e's bound; B alone gives 1/10.
    report = gap(game, converted, "bce")
    oracle = brute_force_gap(game, converted, "bce").overall
    out.append(_eq("2d", "lrr converted history-seeing gap: root deviation "
                   "attains the 2e bound (DP, oracle)",
                   (report.overall, oracle), (F(1, 5), F(1, 5))))
    out.append(_result("2e", "lrr converted gap bounded by source causal gap",
                       report.overall <= gap(game, pi, "efce").overall,
                       "<= 1/5", format_rational(report.overall)))
    out.append(_eq("2f", "lrr per-infoset gap at B",
                   report.per_infoset[(0, "B")], F(1, 10)))
    out.append(_eq("2g", "lrr outcome preserved",
                   outcome_equivalent(game, pi, converted), True))
    return out


_MAIN_SUITE_COUNT = 200


def _main_suite():
    """The seeded random games criteria 3 and 6 run on, and the generator
    that drew them."""
    rng = random.Random(411)
    return rng, [random_game(rng, max_players=3, max_nodes=30, max_pure_product=96,
                             max_pure_per_player=24) for _ in range(_MAIN_SUITE_COUNT)]


def check_3_main_theorem() -> list[CheckResult]:
    rng, games = _main_suite()
    exact_bad = []
    perturbed_bad = []
    perturbed = 0
    for k, game in enumerate(games):
        for pi in (compute_efce(game),
                   optimal_efce(game, random_objective(rng, game))[0]):
            converted = efce_to_bce(game, pi)
            if not outcome_equivalent(game, pi, converted) \
                    or gap(game, converted, "bce").overall != 0:
                exact_bad.append(k)
        if k % 4 == 0:
            pi = random_mixture(rng, game) if k % 8 else \
                random_pure_profile_mixture(rng, game)
            eps = gap(game, pi, "efce").overall
            converted = efce_to_bce(game, pi)
            perturbed += 1
            if not outcome_equivalent(game, pi, converted) \
                    or gap(game, converted, "bce").overall > eps:
                perturbed_bad.append(k)
    return [
        _result("3a", f"exact equilibria of {_MAIN_SUITE_COUNT} random games convert to "
                f"outcome-equivalent gap-0 profiles", not exact_bad,
                "no failures", f"failures at {exact_bad[:5]}"),
        _result("3b", f"{perturbed} perturbed profiles keep converted gap <= "
                f"source causal gap", not perturbed_bad,
                "no failures", f"failures at {perturbed_bad[:5]}"),
    ]


def check_4_oracle_agreement() -> list[CheckResult]:
    rng = random.Random(97)
    bad = []
    checked = 0

    def compare(tag, game, pi, players=None):
        nonlocal checked
        for notion in NOTIONS:
            report = gap(game, pi, notion)
            for i in players if players is not None else range(game.n):
                og, _w, oper = oracle_player_gap(game, pi, notion, i)
                checked += 1
                if report.per_player[i] != og:
                    bad.append((tag, notion, i))
                elif notion == "bce" and any(
                        report.per_infoset[(i, k)] != v for k, v in oper.items()):
                    bad.append((tag, notion, i, "per-infoset"))

    lrr = fixtures.load_game("lrr")
    compare("lrr", lrr, fixtures.load_profile(lrr, "lrr"))
    for name in ("ebos", "surj"):
        game = fixtures.load_game(name)
        feasible = [i for i in range(game.n) if len(enumerate_pure(game, i)) <= 4]
        compare(name, game, fixtures.load_profile(game, name), feasible)
    for k in range(50):
        game = random_game(rng, max_players=2, max_nodes=10, max_depth=3,
                           max_pure_product=16, max_pure_per_player=4)
        pi = random_mixture(rng, game, max_components=2) if k % 2 else \
            random_pure_profile_mixture(rng, game, 2)
        compare(f"random-{k}", game, pi)
    return [_result("4", f"dynamic programs equal the table oracle on "
                    f"{checked} (player, notion) cases", not bad,
                    "exact agreement", f"disagreements: {bad[:5]}")]


def check_5_decomposition() -> list[CheckResult]:
    rng = random.Random(5150)
    bad = []
    total = 0
    for name in fixtures.GAMES:
        game = fixtures.load_game(name)
        for i in range(game.n):
            seq_count = len(game.sequences(i))
            for _ in range(100):
                total += 1
                b = random_behavior_strategy(rng, game, i)
                v = sequence_form(game, b)
                parts = decompose(game, v)
                # termination certificate: fewer nonzero residuals per part
                residual = dict(v.reach)
                counts = []
                for beta, ps in parts:
                    for seq, r in sequence_form(game, ps).reach.items():
                        residual[seq] -= beta * r
                    counts.append(sum(1 for q in residual.values() if q != 0))
                if any(residual.values()):
                    bad.append((name, i, "reconstruction"))
                if len(parts) > seq_count:
                    bad.append((name, i, "support size"))
                if any(later >= earlier for earlier, later in zip(counts, counts[1:])):
                    bad.append((name, i, "certificate"))
    return [_result("5", f"{total} random behavior strategies decompose exactly "
                    f"with K <= |sequences|", not bad, "all exact",
                    f"failures: {bad[:5]}")]


def check_6_exact_bce() -> list[CheckResult]:
    bad = []
    for name in fixtures.GAMES:
        game = fixtures.load_game(name)
        if gap(game, compute_bce(game), "bce").overall != 0:
            bad.append(name)
    _rng, games = _main_suite()
    for k, game in enumerate(games):
        if gap(game, compute_bce(game), "bce").overall != 0:
            bad.append(k)
    return [_result("6", f"compute_bce returns exact gap-0 profiles on all "
                    f"fixtures and {_MAIN_SUITE_COUNT} random games", not bad,
                    "all gap 0", f"failures: {bad[:5]}")]


def check_7_optimal_values() -> list[CheckResult]:
    rng = random.Random(6161)
    bad = []
    cases = []
    for name in fixtures.GAMES:
        game = fixtures.load_game(name)
        cases.append((name, game,
                      {z.terminal_id: sum(z.payoffs, ZERO) for z in game.terminals}))
    for k in range(20):
        game = random_game(rng, max_players=3, max_nodes=20,
                           max_pure_product=64, max_pure_per_player=16)
        cases.append((f"random-{k}", game, random_objective(rng, game)))
    for tag, game, objective in cases:
        pe, ve = optimal_efce(game, objective)
        pb, vb = optimal_bce(game, objective)
        # the value each returned profile attains, sum_z c(z) P(z)
        attained = [sum((objective.get(zid, ZERO) * p for zid, p in
                         outcome_distribution(game, pi).probs.items()), ZERO)
                    for pi in (pe, pb)]
        if not ve == vb == attained[0] == attained[1]:
            bad.append((tag, ve, vb, *attained))
    return [_result("7", f"optimal causal and history-seeing objective values "
                    f"coincide on {len(cases)} cases", not bad,
                    "equal values", f"failures: {bad[:3]}")]


def check_8_surj() -> list[CheckResult]:
    game = fixtures.load_game("surj")
    pi = fixtures.load_profile(game, "surj")
    out = []
    out.append(_eq("8a", "surj reference profile is an exact equilibrium",
                   gap(game, pi, "bce").overall, ZERO))
    out.append(_eq("8b", "surj conditional utility of P1 in the exit-shadowed "
                   "subtree", conditional_node_utility(game, pi, 0, ("Coop", "P")),
                   F(1)))
    converted = efce_to_bce(game, pi)
    out.append(_result("8c", "surj conversion changes the profile "
                       "(non-surjectivity witness)",
                       _support_set(converted) != _support_set(pi),
                       "different support", "identical"))
    out.append(_eq("8d", "surj conversion outcome-equivalent",
                   outcome_equivalent(game, pi, converted), True))
    out.append(_eq("8e", "surj converted gap",
                   gap(game, converted, "bce").overall, ZERO))
    out.append(_eq("8f", "surj converted conditional utility of P1 drops to 1/2",
                   conditional_node_utility(game, converted, 0, ("Coop", "P")),
                   F(1, 2)))
    return out


def check_9_counterfactual_counterexample() -> list[CheckResult]:
    game = fixtures.load_game("lrr")
    base = pure_mixture(game, [(F(1), PureProfile(
        (pure_strategy(game, 0, {"R0": "L", "B": "R'"}),)))])
    out = []
    out.append(_eq("9a", "pure (L, R') is an exact causal equilibrium",
                   gap(game, base, "efce").overall, ZERO))
    out.append(_eq("9b", "its counterfactual utility at B is 0",
                   counterfactual_utility(
                       game, next(profile_support(base))[1], 0, "B"), ZERO))
    # parameterized candidate family: mixtures of the point mass with every
    # pure strategy at grid weights
    strategies = enumerate_pure(game, 0)
    base_profile = next(profile_support(base))[1]
    candidates = [base]
    for other in strategies:
        for lam_num in range(0, 11):
            lam = F(lam_num, 10)
            entries = {}
            entries[base_profile] = 1 - lam
            op = PureProfile((other,))
            entries[op] = entries.get(op, ZERO) + lam
            candidates.append(pure_mixture(
                game, [(w, p) for p, w in entries.items() if w > 0]))
    matching = [pi for pi in candidates
                if counterfactually_outcome_equivalent(game, base, pi)]
    weak = [pi for pi in matching if gap(game, pi, "bce").overall < 1]
    out.append(_result("9c", f"{len(matching)} of {len(candidates)} candidates "
                       "are counterfactually outcome-equivalent",
                       len(matching) >= 1, ">= 1", str(len(matching))))
    out.append(_result("9d", "every counterfactually-equivalent candidate has "
                       "history-seeing gap >= 1", not weak,
                       "all >= 1", f"{len(weak)} below 1"))
    return out


def check_10_factorized_reach() -> list[CheckResult]:
    rng = random.Random(1010)
    bad = []
    total = 0

    def expanded(game, pi, i, seq):
        # independent re-derivation straight over the enumerated support
        mass = ZERO
        reach = [ZERO] * len(game.terminals)
        for w, profile in profile_support(pi):
            if not pure_reaches_sequence(game, profile.strategies[i], seq):
                continue
            mass += w
            for z in game.terminals:
                if all(pure_terminal_reach(game, profile.strategies[j], z)
                       for j in range(game.n) if j != i):
                    reach[z.index] += w
        return mass, tuple(reach)

    def factorized(shared, i, seq):
        # the DPs' own trigger weights with the opponents' reach for units;
        # None (no component puts mass on seq) reads as all zeros
        n = len(shared.game.terminals)
        reach = _trigger_weights(shared, shared.others[i], seq, range(n)) or [0] * n
        return (shared.event_mass(i, seq),
                tuple(Fraction(r, shared.scale) for r in reach))

    cases = [(name, fixtures.load_game(name)) for name in fixtures.GAMES]
    profiles = {name: fixtures.load_profile(g, name) for name, g in cases}
    work = [(name, g, profiles[name]) for name, g in cases]
    for k in range(25):
        game = random_game(rng, max_players=3, max_nodes=18,
                           max_pure_product=64, max_pure_per_player=16)
        work.append((f"random-{k}", game, random_mixture(rng, game)))
    for tag, game, pi in work:
        shared = ProfileReach(game, pi)
        for i in range(game.n):
            for seq in game.sequences(i):
                total += 1
                if factorized(shared, i, seq) != expanded(game, pi, i, seq):
                    bad.append((tag, i, seq.label()))
    return [_result("10", f"factorized conditional reach equals support "
                    f"expansion on {total} sequences", not bad,
                    "exact agreement", f"failures: {bad[:5]}")]


CRITERIA = (
    ("1", "ebos reference values", check_1_ebos),
    ("2", "lrr reference values", check_2_lrr),
    ("3", "conversion theorem on random games", check_3_main_theorem),
    ("4", "oracle agreement", check_4_oracle_agreement),
    ("5", "behavior-strategy decomposition", check_5_decomposition),
    ("6", "exact solved equilibria", check_6_exact_bce),
    ("7", "optimal objective equivalence", check_7_optimal_values),
    ("8", "non-surjectivity fixture", check_8_surj),
    ("9", "counterfactual equivalence counterexample", check_9_counterfactual_counterexample),
    ("10", "factorized reach consistency", check_10_factorized_reach),
)


def run_all(stream) -> bool:
    """Run every criterion, print one PASS/FAIL line per sub-check to
    ``stream`` and each criterion's wall time to stderr, which keeps
    ``stream`` byte-identical across runs; return overall ok."""
    all_ok = True
    for cid, title, fn in CRITERIA:
        started = time.time()
        results = fn()
        elapsed = time.time() - started
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} criterion-{r.criterion}: {r.name}"
            if not r.ok and r.detail:
                line += f" ({r.detail})"
            print(line, file=stream)
            all_ok = all_ok and r.ok
        print(f"     criterion {cid} ({title}): {elapsed:.1f}s", file=sys.stderr)
    return all_ok
