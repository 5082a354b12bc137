"""Seeded inputs, op lists and output checks for the benchmark workloads.

Every workload draws its instances from a ``gametree.randgen`` family and
keeps them by a size ladder, a proportional stratified sample: the range of
a work proxy is split into narrow strata of about equal share of the
family's draws, and each stratum gets a fixed number of instances per pass,
in proportion to that share (measured into ``strata.json`` by
``shares.py``). The mix is the family's, and each seed gets different games
with the same size profile. Without the ladder the heavy tail of these
families lets a handful of draws decide a run, and runs with different seeds
disagree by more than any useful bound. The benchmark computes the proxy
from the generated inputs itself, never by running the program's
algorithms, so changing those cannot change which instances are kept.

The checks read only the text the ops print. They never call the program
under test.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

NOTIONS = ("nfcce", "efce", "full-efce", "bce")

# Instances per pass of each family, at scale 1.
INSTANCES = {"solve": 250, "rewrite": 130, "audit-pure": 72, "audit-mixture": 72}
# Strata per family: shares.py splits the family's draws at quantiles of the
# proxy into this many strata of equal share (fewer where proxy values tie).
BINS = {"solve": 40, "rewrite": 13, "audit-pure": 12, "audit-mixture": 12}
# Proxy limits: solve keeps games with at most 12 pure profiles (LP columns),
# two thirds of the family's draws (``limit_share`` in STRATA_FILE gives the
# share cut). Above that the cost of one game varies tenfold and the few a
# pass could afford would decide a run alone.
LIMIT = {"solve": 12}
STRATA_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "strata.json")
# Every ladder takes at least this many accepted draws per instance it keeps,
# even when its strata filled sooner, so that set-up does about the same
# work for every seed (without it, set-up time spread between seeds by a
# third of its median).
POOL_PER_INSTANCE = 2.5
# Draws allowed per kept instance before the family is declared unable to
# fill its ladder.
MAX_DRAWS_PER_INSTANCE = 200

# Fixture pins from the bundled suite (checks 1b, 1c, 2a, 2b, 8a). Check 2d
# is a known wrong pin and is not used.
FIXTURE_PINS = {
    ("ebos", "efce"): "0", ("ebos", "bce"): "1",
    ("lrr", "efce"): "1/5", ("lrr", "bce"): "1",
    ("surj", "bce"): "0",
}
FIXTURE_PROFILES = {"ebos": "ebos.profile.json", "lrr": "lrr.behavior.json",
                    "surj": "surj.profile.json"}


@dataclass(frozen=True)
class Op:
    """One ``gt`` command. ``group`` names the instance it belongs to, so
    checks can relate the ops of one instance; ``kind`` says which command
    variant it is."""

    argv: tuple[str, ...]
    group: str
    kind: str


@dataclass
class OpResult:
    rc: Optional[int]          # exit code of cli.main; None if it raised
    stdout: str
    stderr: str
    error: Optional[str] = None  # the exception, if cli.main raised


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[list[Op], list[OpResult]], dict[int, str]]
    sizes: dict[str, dict[int, int]] = field(default_factory=dict)  # family -> ladder


def build(name: str, seed: int, directory: str, scale: float = 1.0) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` and write them
    as documents under ``directory``.

    ``scale`` multiplies the instances per pass (at least one is kept); the
    benchmark runs at scale 1, the self-test below it.
    """
    builders = {"solve": _build_solve, "rewrite": _build_rewrite,
                "audit": _build_audit}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(builders)}")
    os.makedirs(directory, exist_ok=True)
    return builders[name](random.Random(seed), directory, scale)


# -- generation -----------------------------------------------------------------


def stratum(cuts: list[int], proxy: int) -> int:
    """Index of the stratum of ``proxy``; ``cuts`` are the strata's lower
    bounds, and the first stratum also takes everything below."""
    return max(0, bisect.bisect_right(cuts, proxy) - 1)


def apportion(shares: list[float], total: int) -> dict[int, int]:
    """Split ``total`` instances over the strata in proportion to their
    shares, by largest remainder; strata left with none are omitted."""
    exact = [share * total / sum(shares) for share in shares]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(shares)), key=lambda k: quotas[k] - exact[k])
    for k in by_remainder[:total - sum(quotas)]:
        quotas[k] += 1
    return {k: q for k, q in enumerate(quotas) if q}


class _Ladder:
    def __init__(self, family: str, scale: float):
        with open(STRATA_FILE, encoding="utf-8") as fh:
            measured = json.load(fh)["families"][family]
        self.family = family
        self.cuts = measured["cuts"]
        self.limit = LIMIT.get(family)
        self.left = apportion(measured["shares"],
                              max(1, round(INSTANCES[family] * scale)))
        self.sizes = dict(self.left)
        self.pool = round(POOL_PER_INSTANCE * sum(self.left.values()))
        self.accepted = 0
        self.budget = MAX_DRAWS_PER_INSTANCE * sum(self.left.values())

    def take(self, draw) -> bool:
        """Keep ``draw``, a (proxy, instance) pair or None for a draw the
        family rejects, if its stratum still has room."""
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError(f"{self.family} ladder not filled; "
                               f"still missing {self.left}")
        if draw is None or (self.limit is not None and draw[0] > self.limit):
            return False
        self.accepted += 1
        key = stratum(self.cuts, draw[0])
        if self.left.get(key, 0) <= 0:
            return False
        self.left[key] -= 1
        return True

    @property
    def full(self) -> bool:
        return self.accepted >= self.pool and not any(self.left.values())


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _pure_profile_count(game) -> int:
    total = 1
    for player_infosets in game.infosets:
        for iset in player_infosets:
            total *= len(iset.actions)
    return total


def draw_solve(rng: random.Random):
    """One draw of the solve family: (pure profiles, (game, objective)).
    The pure profiles are the LP columns."""
    from gametree.randgen import random_game, random_objective

    game = random_game(rng, max_players=3, max_nodes=30, max_pure_product=96,
                       max_pure_per_player=24)
    return _pure_profile_count(game), (game, random_objective(rng, game))


def _build_solve(rng: random.Random, directory: str, scale: float) -> Workload:
    # ``solve --epsilon`` is left out: on about 4% of these games it exits
    # with an internal check error (the causal-gap LP bounds each trigger
    # alone), and every op of a workload must succeed.
    from gametree.game import serialize_game
    from gametree.rational import format_rational

    ladder = _Ladder("solve", scale)
    ops = []
    k = 0
    while not ladder.full:
        draw = draw_solve(rng)
        if not ladder.take(draw):
            continue
        game, objective = draw[1]
        g = _write(directory, f"solve{k}.game.json", serialize_game(game))
        o = _write(directory, f"solve{k}.objective.json", json.dumps(
            {"c": {z: format_rational(v) for z, v in objective.items()}}))
        for notion in ("efce", "bce"):
            ops.append(Op(("solve", g, "--notion", notion), str(k), notion))
            ops.append(Op(("solve", g, "--notion", notion, "--objective", o),
                          str(k), f"{notion}+objective"))
        k += 1
    return Workload("solve", ops, check_solve, {"solve": ladder.sizes})


def _positive_sequences(game, behavior) -> int:
    """Sequences a behavior strategy reaches with positive probability."""
    reached = {(None, None)}
    count = 0
    for iset in game.infosets[behavior.player]:  # parents come first
        if (iset.parent_seq.infoset, iset.parent_seq.action) not in reached:
            continue
        for a, p in behavior.locals[iset.id].items():
            if p > 0:
                reached.add((iset.id, a))
                count += 1
    return count


def draw_rewrite(rng: random.Random):
    """One draw of the rewrite family: two-player games of depth <= 10 with
    25-70 nodes, and behavior-schema profiles of 1-3 components, so loading
    them runs the decomposition. Returns (proxy, (game, weights,
    components)), where the proxy, positive-probability sequences over all
    components times terminals, tracks rewrite time closely; None if the
    game is rejected."""
    from gametree.randgen import random_behavior_strategy, random_game

    game = random_game(rng, max_players=2, max_nodes=70, max_depth=10)
    if game.n != 2 or game.num_nodes < 25:
        return None
    t = rng.randint(1, 3)
    weights = [rng.randint(1, 5) for _ in range(t)]
    components = [[random_behavior_strategy(rng, game, i) for i in range(game.n)]
                  for _ in range(t)]
    proxy = len(game.terminals) * sum(_positive_sequences(game, b)
                                      for comp in components for b in comp)
    return proxy, (game, weights, components)


def _build_rewrite(rng: random.Random, directory: str, scale: float) -> Workload:
    from gametree.game import serialize_game
    from gametree.rational import format_rational

    ladder = _Ladder("rewrite", scale)
    ops = []
    k = 0
    while not ladder.full:
        draw = draw_rewrite(rng)
        if not ladder.take(draw):
            continue
        game, weights, components = draw[1]
        doc = {"components": [
            {"alpha": format_rational(Fraction(w, sum(weights))),
             "behaviors": [{iset_id: {a: format_rational(p) for a, p in dist.items()}
                            for iset_id, dist in b.locals.items()} for b in comp]}
            for w, comp in zip(weights, components)]}
        g = _write(directory, f"rewrite{k}.game.json", serialize_game(game))
        p = _write(directory, f"rewrite{k}.behavior.json", json.dumps(doc))
        ops.append(Op(("convert", g, p), str(k), "convert"))
        k += 1
    return Workload("rewrite", ops, check_rewrite, {"rewrite": ladder.sizes})


def draw_audit(rng: random.Random, family: str):
    """One draw of an audit family: games with up to 3 players, 20-60 nodes
    and depth <= 6, with an 8-draw pure-profile mixture (``audit-pure``) or
    a 2-component behavior mixture (``audit-mixture``). Returns (proxy,
    (game, profile)), where the proxy is pure strategies over all components
    times terminals; None if the game is rejected."""
    from gametree.randgen import (random_game, random_mixture,
                                  random_pure_profile_mixture)

    game = random_game(rng, max_players=3, max_nodes=60, max_depth=6)
    if game.num_nodes < 20:
        return None
    if family == "audit-pure":
        pi = random_pure_profile_mixture(rng, game, support=8)
    else:
        pi = random_mixture(rng, game, max_components=2)
    support = sum(len(mix) for comp in pi.components for mix in comp.strategies)
    return support * len(game.terminals), (game, pi)


def _build_audit(rng: random.Random, directory: str, scale: float) -> Workload:
    # The bundled fixtures first, then the two families drawn in turn, each
    # into its own ladder.
    from gametree import fixtures
    from gametree.game import serialize_game
    from gametree.strategy import serialize_profile

    ops = []
    for name in sorted(FIXTURE_PROFILES):
        g = _write(directory, f"{name}.game.json",
                   fixtures.fixture_text(f"{name}.game.json"))
        p = _write(directory, FIXTURE_PROFILES[name],
                   fixtures.fixture_text(FIXTURE_PROFILES[name]))
        for notion in NOTIONS:
            ops.append(Op(("gap", g, p, "--notion", notion), name, notion))
    ladders = [_Ladder("audit-pure", scale), _Ladder("audit-mixture", scale)]
    k = 0
    draws = 0
    while not all(ladder.full for ladder in ladders):
        ladder = ladders[draws % 2]
        draws += 1
        if ladder.full:
            continue
        draw = draw_audit(rng, ladder.family)
        if not ladder.take(draw):
            continue
        game, pi = draw[1]
        g = _write(directory, f"audit{k}.game.json", serialize_game(game))
        p = _write(directory, f"audit{k}.profile.json", serialize_profile(game, pi))
        for notion in NOTIONS:
            ops.append(Op(("gap", g, p, "--notion", notion), str(k), notion))
        k += 1
    return Workload("audit", ops, check_audit,
                    {ladder.family: ladder.sizes for ladder in ladders})


# -- output checks --------------------------------------------------------------


def _exit_failure(res: OpResult) -> Optional[str]:
    if res.error is not None:
        return f"raised {res.error}"
    if res.rc != 0:
        last = res.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {res.rc}: {last[0][:200]}"
    return None


def check_solve(ops: list[Op], results: list[OpResult]) -> dict[int, str]:
    """Every solve re-verifies at gap 0, and the optimal causal and
    history-seeing objective values of one game agree (criterion 7)."""
    bad: dict[int, str] = {}
    values: dict[tuple[str, str], tuple[int, str]] = {}
    for k, (op, res) in enumerate(zip(ops, results)):
        msg = _exit_failure(res)
        if msg is None:
            try:
                outputs = json.loads(res.stderr)["outputs"]
                if outputs["gap"] != "0":
                    msg = f"reported gap {outputs['gap']}, expected 0"
                elif op.kind.endswith("+objective"):
                    values[(op.group, op.kind)] = (k, outputs["objective_value"])
            except (ValueError, KeyError, TypeError) as e:
                msg = f"unreadable solve report: {e!r}"
        if msg:
            bad[k] = msg
    for (group, kind), (k, value) in values.items():
        if kind != "bce+objective" or (group, "efce+objective") not in values:
            continue
        _, causal = values[(group, "efce+objective")]
        if value != causal:
            bad[k] = f"bce objective value {value} != efce objective value {causal}"
    return bad


_REWRITE_LINE = re.compile(r"^(efce gap in|bce gap out|outcome-equivalent):\s*(\S+)\s*$")


def check_rewrite(ops: list[Op], results: list[OpResult]) -> dict[int, str]:
    """The rewrite never raises the gap (bce out <= efce in) and preserves
    the outcome distribution."""
    bad: dict[int, str] = {}
    for k, res in enumerate(results):
        msg = _exit_failure(res)
        if msg is None:
            fields = dict(m.groups() for m in map(_REWRITE_LINE.match,
                                                  res.stderr.splitlines()) if m)
            try:
                gap_in = Fraction(fields["efce gap in"])
                gap_out = Fraction(fields["bce gap out"])
                if gap_out > gap_in:
                    msg = f"bce gap out {gap_out} > efce gap in {gap_in}"
                elif fields["outcome-equivalent"] != "True":
                    msg = "rewrite is not outcome-equivalent"
            except (KeyError, ValueError, ZeroDivisionError) as e:
                msg = f"unreadable rewrite summary: {e!r}"
        if msg:
            bad[k] = msg
    return bad


def check_audit(ops: list[Op], results: list[OpResult]) -> dict[int, str]:
    """Class inclusion orders the gaps of one profile,
    0 <= nfcce <= efce <= full-efce and bce >= 0, and the fixtures match
    their pinned values."""
    bad: dict[int, str] = {}
    gaps: dict[str, dict[str, tuple[int, Fraction]]] = {}
    for k, (op, res) in enumerate(zip(ops, results)):
        msg = _exit_failure(res)
        if msg is None:
            try:
                text = json.loads(res.stdout)["gap"]
                value = Fraction(text)
                gaps.setdefault(op.group, {})[op.kind] = (k, value)
                pin = FIXTURE_PINS.get((op.group, op.kind))
                if pin is not None and text != pin:
                    msg = f"{op.group} {op.kind} gap {text}, pinned {pin}"
                elif value < 0:
                    msg = f"negative {op.kind} gap {text}"
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
                msg = f"unreadable gap report: {e!r}"
        if msg:
            bad[k] = msg
    for by_notion in gaps.values():
        chain = [by_notion.get(n) for n in ("nfcce", "efce", "full-efce")]
        for lower, upper in zip(chain, chain[1:]):
            if lower and upper and lower[1] > upper[1]:
                bad.setdefault(upper[0], f"gap {upper[1]} below the gap {lower[1]} "
                                         f"of a smaller deviation class")
    return bad
