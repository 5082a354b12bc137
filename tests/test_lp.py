import copy
import hashlib
import random
from fractions import Fraction

import pytest

from gametree import lp as lpmod
from gametree.errors import InternalCheckError
from gametree.lp import EQ, GE, LE, Constraint, LinearProgram, LPResult, lp_solve

F = Fraction


def test_simple_bounded_max():
    lp = LinearProgram(num_vars=1, objective={0: F(1)})
    lp.add({0: F(1)}, LE, F(1, 3))
    r = lp_solve(lp)
    assert (r.status, r.x, r.value) == ("optimal", (F(1, 3),), F(1, 3))


def test_add_refuses_an_unknown_relation():
    with pytest.raises(ValueError, match="relation must be one of"):
        LinearProgram(1).add({0: 1}, "<", 1)


def test_infeasible_region():
    lp = LinearProgram(num_vars=1)
    lp.add({0: F(1)}, LE, F(0))
    lp.add({0: F(1)}, GE, F(1))
    assert lp_solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(num_vars=1, objective={0: F(1)})
    lp.add({0: F(-1)}, LE, F(5))
    assert lp_solve(lp).status == "unbounded"


def test_equality_and_inequality_mix():
    # max 3x+5y: x+2y <= 14, 3x-y >= 0, x-y = 2  ->  x=6, y=4
    lp = LinearProgram(num_vars=2, objective={0: F(3), 1: F(5)})
    lp.add({0: F(1), 1: F(2)}, LE, F(14))
    lp.add({0: F(3), 1: F(-1)}, GE, F(0))
    lp.add({0: F(1), 1: F(-1)}, EQ, F(2))
    r = lp_solve(lp)
    assert r.x == (F(6), F(4))
    assert r.value == 38


def test_minimization():
    lp = LinearProgram(num_vars=2, objective={0: F(1), 1: F(1)}, maximize=False)
    lp.add({0: F(1), 1: F(2)}, GE, F(4))
    lp.add({0: F(2), 1: F(1)}, GE, F(4))
    r = lp_solve(lp)
    assert r.status == "optimal"
    assert r.value == F(8, 3)


def test_exact_rational_vertices():
    lp = LinearProgram(num_vars=2, objective={0: F(1), 1: F(1)})
    lp.add({0: F(3), 1: F(1)}, LE, F(1))
    lp.add({0: F(1), 1: F(7)}, LE, F(1))
    r = lp_solve(lp)
    assert r.x == (F(3, 10), F(1, 10))
    assert r.value == F(2, 5)


def test_lower_and_upper_bounds():
    lp = LinearProgram(num_vars=1, objective={0: F(1)},
                       bounds=[(F(-2), F(7, 2))])
    r = lp_solve(lp)
    assert r.x == (F(7, 2),)
    lp = LinearProgram(num_vars=1, objective={0: F(-1)},
                       bounds=[(F(-2), F(7, 2))])
    r = lp_solve(lp)
    assert r.x == (F(-2),)


def test_free_variable():
    lp = LinearProgram(num_vars=1, objective={0: F(1)}, maximize=False,
                       bounds=[(None, None)])
    lp.add({0: F(1)}, GE, F(-9))
    r = lp_solve(lp)
    assert r.x == (F(-9),)


def test_degenerate_cycling_guard():
    # classic Beale cycling example; Bland's rule must terminate at 1/20
    lp = LinearProgram(num_vars=4,
                       objective={0: F(3, 4), 1: F(-150), 2: F(1, 50), 3: F(-6)})
    lp.add({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, LE, F(0))
    lp.add({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, LE, F(0))
    lp.add({2: F(1)}, LE, F(1))
    r = lp_solve(lp)
    assert r.status == "optimal"
    assert r.value == F(1, 20)


def test_redundant_equalities_survive_phase_one():
    lp = LinearProgram(num_vars=2, objective={0: F(1)})
    lp.add({0: F(1), 1: F(1)}, EQ, F(1))
    lp.add({0: F(2), 1: F(2)}, EQ, F(2))  # same hyperplane
    r = lp_solve(lp)
    assert r.status == "optimal"
    assert r.value == 1


def test_random_lps_agree_with_vertex_enumeration():
    # brute-force over basis subsets as an independent optimum oracle
    import itertools
    rng = random.Random(77)
    for trial in range(40):
        n, m = 2, rng.randint(2, 4)
        c = [F(rng.randint(-5, 5)) for _ in range(n)]
        rows = []
        for _ in range(m):
            rows.append(([F(rng.randint(-4, 4)) for _ in range(n)],
                         F(rng.randint(0, 8))))
        lp = LinearProgram(num_vars=n, objective={j: c[j] for j in range(n)})
        for coeffs, rhs in rows:
            lp.add({j: coeffs[j] for j in range(n)}, LE, rhs)
        result = lp_solve(lp)
        # enumerate candidate vertices: intersections of tight constraint
        # pairs (including axes), keep feasible, take the best
        lines = [(coeffs, rhs) for coeffs, rhs in rows]
        lines += [([F(1), F(0)], None), ([F(0), F(1)], None)]
        best = None
        candidates = [(F(0), F(0))]
        for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
            r1 = F(0) if b1 is None else b1
            r2 = F(0) if b2 is None else b2
            det = a1[0] * a2[1] - a1[1] * a2[0]
            if det == 0:
                continue
            x = (r1 * a2[1] - a1[1] * r2) / det
            y = (a1[0] * r2 - r1 * a2[0]) / det
            candidates.append((x, y))
        for x, y in candidates:
            if x < 0 or y < 0:
                continue
            if any(a[0] * x + a[1] * y > rhs for a, rhs in rows):
                continue
            val = c[0] * x + c[1] * y
            best = val if best is None or val > best else best
        if best is None:
            assert result.status == "infeasible"
        elif result.status == "optimal":
            assert result.value == best, trial
        else:
            assert result.status == "unbounded"


def test_contradictory_bounds_are_infeasible():
    lp = LinearProgram(num_vars=1, objective={0: F(1)}, bounds=[(F(2), F(1))])
    assert lp_solve(lp).status == "infeasible"


# -- the fraction-free kernel against the Fraction tableau it replaced ----------


class _FractionTableau:
    """The reference: the dense Fraction tableau with Bland's rule that the
    integer kernel replaced, on the unscaled standardized rows. ``pivots``
    lists (entering column, leaving basic column) in order."""

    def __init__(self, rows, rhs, n):
        self.artificial, self.rows, self.basis, self.pivots = set(), [], [], []
        specs = []
        for (row, rel), b in zip(rows, rhs):
            if b < 0:
                row, b, rel = [-v for v in row], -b, {LE: GE, GE: LE, EQ: EQ}[rel]
            specs.append((list(row), rel, b))
        self.ncols = n + sum((rel != EQ) + (rel != LE) for _, rel, _ in specs)
        self.n_structural = n
        col = n
        for row, rel, b in specs:
            full = row + [F(0)] * (self.ncols - n)
            if rel == GE:
                full[col] = F(-1)
                col += 1
            full[col] = F(1)
            if rel != LE:
                self.artificial.add(col)
            self.basis.append(col)
            col += 1
            self.rows.append(full + [b])

    def pivot(self, r, j, z):
        self.pivots.append((j, self.basis[r]))
        piv = self.rows[r][j]
        prow = self.rows[r] = [v / piv for v in self.rows[r]]
        for k, row in enumerate(self.rows):
            if k != r and row[j] != 0:
                f = row[j]
                self.rows[k] = [a - f * b for a, b in zip(row, prow)]
        if z[j] != 0:
            f = z[j]
            z[:] = [a - f * b for a, b in zip(z, prow)]
        self.basis[r] = j

    def reduced_costs(self, c):
        z = list(c)
        for r, bv in enumerate(self.basis):
            for j in range(self.ncols):
                z[j] -= c[bv] * self.rows[r][j]
        return z

    def simplex(self, z, allowed):
        while True:
            enter = next((j for j in range(self.ncols) if allowed(j) and z[j] > 0), None)
            if enter is None:
                return "optimal"
            keys = [(row[-1] / row[enter], self.basis[r], r)
                    for r, row in enumerate(self.rows) if row[enter] > 0]
            if not keys:
                return "unbounded"
            self.pivot(min(keys)[2], enter, z)

    def phase_one(self):
        if not self.artificial:
            return True
        c = [F(-1) if j in self.artificial else F(0) for j in range(self.ncols)]
        z = self.reduced_costs(c)
        assert self.simplex(z, lambda j: True) == "optimal"
        if sum(c[bv] * self.rows[r][-1] for r, bv in enumerate(self.basis)) != 0:
            return False
        for r in range(len(self.rows) - 1, -1, -1):
            if self.basis[r] in self.artificial:
                col = next((j for j in range(self.ncols)
                            if self.rows[r][j] and j not in self.artificial), None)
                if col is None:
                    del self.rows[r], self.basis[r]
                else:
                    self.pivot(r, col, z)
        return True

    def phase_two(self, objective):
        c = objective + [F(0)] * (self.ncols - self.n_structural)
        return self.simplex(self.reduced_costs(c), lambda j: j not in self.artificial)


def _fraction_program(lp):
    """``lp`` as max c.y, rows, y >= 0 in Fractions, the way the Fraction
    kernel standardized it, and the map from y back to x."""
    cols, shift, where, extra = 0, [], [], []
    for j in range(lp.num_vars):
        lo, hi = lp.bound(j)
        where.append((cols, cols + 1 if lo is None else None))
        shift.append(F(0) if lo is None else lo)
        cols += 1 if lo is not None else 2
        if hi is not None:
            if lo is not None and hi < lo:
                extra.append(({}, LE, F(-1)))
            extra.append(({j: F(1)}, LE, hi))

    def spread(coeffs):
        row = [F(0)] * cols
        for j, c in coeffs.items():
            pos, neg = where[j]
            row[pos] += c
            if neg is not None:
                row[neg] -= c
        return row

    program = [(c.coeffs, c.rel, c.rhs) for c in lp.constraints] + extra
    rows = [(spread(coeffs), rel) for coeffs, rel, _ in program]
    rhs = [b - sum((c * shift[j] for j, c in coeffs.items()), F(0))
           for coeffs, _, b in program]
    objective = [c if lp.maximize else -c for c in spread(lp.objective)]

    def recover(y):
        return [shift[j] + y[pos] - (y[neg] if neg is not None else 0)
                for j, (pos, neg) in enumerate(where)]

    return rows, rhs, objective, recover


def _reference_solve(lp):
    """``(outcome, pivots)`` of the Fraction kernel: its ``LPResult``, or the
    name of the exception the primal check raised on its optimum."""
    rows, rhs, objective, recover = _fraction_program(lp)
    tab = _FractionTableau(rows, rhs, len(objective))
    if not tab.phase_one():
        return LPResult("infeasible", None, None), tab.pivots
    if tab.phase_two(objective) == "unbounded":
        return LPResult("unbounded", None, None), tab.pivots
    y = [F(0)] * len(objective)
    for r, bv in enumerate(tab.basis):
        if bv < len(objective):
            y[bv] = tab.rows[r][-1]
    x = recover(y)
    for c in lp.constraints:
        lhs = sum((a * x[j] for j, a in c.coeffs.items()), F(0))
        if not {LE: lhs <= c.rhs, GE: lhs >= c.rhs, EQ: lhs == c.rhs}[c.rel]:
            return "InternalCheckError", tab.pivots
    value = sum((c * x[j] for j, c in lp.objective.items()), F(0))
    return LPResult("optimal", tuple(x), value), tab.pivots


def _kernel_solve(lp, monkeypatch):
    """``(outcome, pivots)`` of :func:`lp_solve`, asserting that every
    Bareiss division of every pivot leaves no remainder."""
    pivots = []
    pivot = lpmod._Tableau._pivot

    def checked(tab, r, j, z):
        pivots.append((j, tab.basis[r]))
        prow, det = tab.rows[r], tab.det
        p = prow[j]
        for row in [row for k, row in enumerate(tab.rows) if k != r] + [z]:
            assert all((a * p - row[j] * b) % det == 0 for a, b in zip(row, prow))
        pivot(tab, r, j, z)

    with monkeypatch.context() as m:
        m.setattr(lpmod._Tableau, "_pivot", checked)
        try:
            return lp_solve(lp), pivots
        except InternalCheckError:
            return "InternalCheckError", pivots


def _hand_built_programs():
    beale = LinearProgram(num_vars=4, objective={0: F(3, 4), 1: F(-150), 2: F(1, 50),
                                                 3: F(-6)})
    beale.add({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, LE, F(0))
    beale.add({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, LE, F(0))
    beale.add({2: F(1)}, LE, F(1))
    redundant = LinearProgram(num_vars=3, objective={0: F(1), 2: F(-1, 3)})
    redundant.add({0: F(1), 1: F(1)}, EQ, F(1))
    redundant.add({0: F(2), 1: F(2)}, EQ, F(2))
    redundant.add({0: F(-1, 2), 1: F(-1, 2), 2: F(1)}, EQ, F(-1, 2))
    infeasible = LinearProgram(num_vars=2)
    infeasible.add({0: F(1), 1: F(1)}, LE, F(1, 2))
    infeasible.add({0: F(1), 1: F(1)}, GE, F(2, 3))
    unbounded = LinearProgram(num_vars=2, objective={0: F(1), 1: F(1)})
    unbounded.add({0: F(1), 1: F(-1)}, LE, F(-1, 3))
    bounded = LinearProgram(num_vars=2, objective={0: F(2), 1: F(-1)}, maximize=False,
                            bounds=[(F(-5, 2), F(3)), (None, F(7, 4))])
    bounded.add({0: F(1), 1: F(1)}, GE, F(-4))
    free = LinearProgram(num_vars=2, objective={0: F(1), 1: F(2)},
                         bounds=[(None, None), (None, None)])
    free.add({0: F(1), 1: F(1)}, EQ, F(-3, 5))
    free.add({0: F(-1), 1: F(1)}, LE, F(2))
    # x <= 1 and x >= 1: after phase 1 the second row is zero on x but not on
    # the first row's slack, so the artificial leaves on that slack
    tight = LinearProgram(num_vars=1, objective={0: F(1)}, maximize=False)
    tight.add({0: F(1)}, LE, F(1))
    tight.add({0: F(1)}, GE, F(1))
    return [beale, redundant, infeasible, unbounded, bounded, free, tight]


def _random_program(rng):
    n, m = rng.randint(1, 5), rng.randint(1, 4)

    def q():
        return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))

    bounds = [rng.choice([(F(0), None), (F(0), None), (None, None), (q(), None),
                          (None, q()), tuple(sorted((q(), q())))]) for _ in range(n)]
    lp = LinearProgram(num_vars=n, objective={j: q() for j in range(n) if rng.random() < 0.7},
                       maximize=rng.random() < 0.5, bounds=bounds)
    for _ in range(m):
        lp.add({j: q() for j in range(n) if rng.random() < 0.7}, rng.choice((LE, LE, GE, EQ)),
               q())
    if rng.random() < 0.2:  # a redundant copy of a row, scaled
        c = rng.choice(lp.constraints)
        k = F(rng.randint(1, 3), rng.randint(1, 3))
        lp.add({j: k * a for j, a in c.coeffs.items()}, c.rel, k * c.rhs)
    return lp


def _solver_programs(monkeypatch):
    """Every program ``_solve_program`` solves on the fixtures and on seeded
    random games, feasible and optimal, at epsilon 0 and 1/4."""
    from gametree import equilibrium, fixtures
    from gametree.randgen import random_game, random_objective

    rng = random.Random(9)
    games = [fixtures.load_game(name) for name in ("ebos", "lrr", "surj")]
    games += [random_game(rng, max_players=3, max_nodes=20, max_pure_product=64,
                          max_pure_per_player=16) for _ in range(32)]
    programs = []
    solve = equilibrium.lp_solve

    def recording(lp):
        programs.append(copy.deepcopy(lp))
        return solve(lp)

    with monkeypatch.context() as m:
        m.setattr(equilibrium, "lp_solve", recording)
        for game in games:
            for epsilon in (F(0), F(1, 4)):
                equilibrium._solve_program(game, epsilon, None)
                equilibrium._solve_program(game, epsilon, random_objective(rng, game))
    return programs


def test_integer_kernel_pivots_like_the_fraction_tableau(monkeypatch):
    rng = random.Random(2024)
    programs = _hand_built_programs() + [_random_program(rng) for _ in range(600)]
    solver = _solver_programs(monkeypatch)
    assert len(solver) > 150 and any(len(lp.constraints) > 3 for lp in solver)
    outcomes = set()
    for lp in programs + solver:
        got = _kernel_solve(lp, monkeypatch)
        assert got == _reference_solve(lp)
        outcomes.add(got[0] if isinstance(got[0], str) else got[0].status)
    assert {"optimal", "infeasible", "unbounded"} <= outcomes


@pytest.mark.parametrize("rels", [(LE, GE), (LE, EQ), (GE, LE), (EQ, LE)])
@pytest.mark.parametrize("maximize", [False, True])
def test_phase_one_keeps_a_row_bound_through_a_slack(rels, maximize):
    # after phase 1 the second row of x <= 1, x >= 1 (or x == 1) is zero on x
    # but not on the first row's slack; the artificial leaves on that slack
    # instead of the row being dropped, in both kernels
    lp = LinearProgram(num_vars=1, objective={0: F(1)}, maximize=maximize)
    for rel in rels:
        lp.add({0: F(1)}, rel, F(1))
    want = LPResult("optimal", (F(1),), F(1))
    assert lp_solve(lp) == want
    assert _reference_solve(lp)[0] == want


# -- the dual certificate ---------------------------------------------------------


def _duals(lp):
    """The dual per row that :func:`lp_solve` certifies, for max sign * c.x."""
    std = lpmod._Standardized(lp)
    tab = lpmod._Tableau(std)
    assert tab.phase_one() and tab.phase_two(std.objective) == "optimal"
    return [F(y, tab.det * std.cost_scale) for y in tab.duals()[:len(lp.constraints)]]


def test_duals_are_read_off_the_final_reduced_costs():
    lp = LinearProgram(num_vars=2, objective={0: F(2), 1: F(3)})
    lp.add({0: F(1), 1: F(1)}, LE, F(4))
    lp.add({0: F(1, 3), 1: F(1)}, LE, F(2))
    assert _duals(lp) == [F(3, 2), F(3, 2)]
    # >= rows in a minimization: nonpositive duals of max -x - y
    lp = LinearProgram(num_vars=2, objective={0: F(1), 1: F(1)}, maximize=False)
    lp.add({0: F(1), 1: F(2)}, GE, F(4))
    lp.add({0: F(2), 1: F(1)}, GE, F(4))
    assert _duals(lp) == [F(-1, 3), F(-1, 3)]
    # a row with a negative rhs is flipped in the tableau, not in its dual
    lp = LinearProgram(num_vars=1, objective={0: F(-1)})
    lp.add({0: F(-2)}, LE, F(-3))
    assert _duals(lp) == [F(1, 2)]
    # the row phase 1 drops as redundant reads 0
    lp = LinearProgram(num_vars=2, objective={0: F(1)})
    lp.add({0: F(1), 1: F(1)}, EQ, F(1))
    lp.add({0: F(2), 1: F(2)}, EQ, F(2))
    assert _duals(lp) == [F(1), F(0)]


def _perturbed(monkeypatch, entry):
    """Run :func:`lp_solve` with one tableau entry changed after phase 2: the
    rhs of the row where x is basic set to 0 (a feasible, worse vertex), or
    the reduced cost at the first row's slack doubled (wrong duals). Neither
    breaks primal feasibility or the reduced costs' optimal signs."""
    phase_two = lpmod._Tableau.phase_two

    def corrupt(tab, objective):
        status = phase_two(tab, objective)
        if entry == "rhs":
            tab.rows[tab.basis.index(0)][-1] = 0
        else:
            tab._final_z[tab.dual_col[0]] *= 2
        return status

    lp = LinearProgram(num_vars=2, objective={0: F(2), 1: F(3)})
    lp.add({0: F(1), 1: F(1)}, LE, F(4))
    lp.add({0: F(1), 1: F(3)}, LE, F(6))
    assert lp_solve(lp).value == 9
    monkeypatch.setattr(lpmod._Tableau, "phase_two", corrupt)
    return lp


@pytest.mark.parametrize("entry", ["rhs", "reduced cost"])
def test_a_perturbed_final_tableau_fails_the_dual_check(monkeypatch, entry):
    lp = _perturbed(monkeypatch, entry)
    with pytest.raises(InternalCheckError, match="dual bound"):
        lp_solve(lp)


def _shifted_program():
    """A nonzero lower bound with an upper bound, a free variable, a lower
    bound alone and a box whose upper bound binds: the solution is read
    back through every shift."""
    lp = LinearProgram(num_vars=4, objective={0: F(1), 1: F(2), 2: F(-1), 3: F(1)},
                       bounds=[(F(-3, 2), F(5, 2)), (None, None), (F(1, 3), None),
                               (F(1, 2), F(3, 4))])
    lp.add({0: F(1), 1: F(1)}, LE, F(4))
    lp.add({0: F(-1), 1: F(1), 2: F(1)}, LE, F(1))
    return lp


@pytest.mark.parametrize("edit,message", [
    ("x1 to 0", "dual bound"),
    ("x3 past its upper bound", "bounds of variable 3"),
    ("reduced cost", "dual is infeasible"),
])
def test_a_tampered_tableau_fails_the_shifted_certificate(monkeypatch, edit, message):
    lp = _shifted_program()
    assert lp_solve(lp) == LPResult("optimal", (F(5, 3), F(7, 3), F(1, 3), F(3, 4)),
                                    F(27, 4))
    std = lpmod._Standardized(lp)
    phase_two = lpmod._Tableau.phase_two

    def corrupt(tab, objective):
        status = phase_two(tab, objective)
        if edit == "reduced cost":
            tab._final_z[tab.dual_col[0]] *= 2
        else:
            col = std.pos_col[1 if edit == "x1 to 0" else 3]
            tab.rows[tab.basis.index(col)][-1] = 0 if edit == "x1 to 0" else 2 * tab.det
        return status

    monkeypatch.setattr(lpmod._Tableau, "phase_two", corrupt)
    with pytest.raises(InternalCheckError, match=message):
        lp_solve(lp)


# -- scaling rows and the objective keeps the pivots ------------------------------


def _scaled(lp, rng):
    """``lp`` with each row and its rhs times a random positive int, and the
    objective times another; returns it and the objective's factor.

    The phase-1 objective sums the artificials, so the rows that carry one
    share a factor, and keep factor 1 when a bound row (which cannot be
    scaled here) carries one; any other row only rescales its slack, which
    changes no sign and no ratio the pivot rule compares."""
    tab = lpmod._Tableau(lpmod._Standardized(lp))
    carries = [col in tab.artificial for col in tab.dual_col]
    m = len(lp.constraints)
    shared = 1 if any(carries[m:]) else rng.randint(2, 9)
    k_obj = rng.randint(2, 9)
    out = LinearProgram(num_vars=lp.num_vars, maximize=lp.maximize, bounds=lp.bounds,
                        objective={j: k_obj * c for j, c in lp.objective.items()})
    for c, art in zip(lp.constraints, carries):
        k = shared if art else rng.randint(2, 9)
        out.add({j: k * a for j, a in c.coeffs.items()}, c.rel, k * c.rhs)
    return out, k_obj


def test_scaled_rows_and_objective_pivot_alike(monkeypatch):
    rng = random.Random(1515)
    programs = _hand_built_programs() + [_shifted_program()]
    programs += [_random_program(rng) for _ in range(600)]
    solver = _solver_programs(monkeypatch)
    scaled_rows = 0
    for lp in programs + solver:
        scaled, k_obj = _scaled(lp, rng)
        got, pivots = _kernel_solve(scaled, monkeypatch)
        want, want_pivots = _kernel_solve(lp, monkeypatch)
        assert pivots == want_pivots
        if isinstance(want, str) or want.status != "optimal":
            assert got == want
        else:
            assert (got.status, got.x, got.value) == (want.status, want.x, k_obj * want.value)
        scaled_rows += any(a != b.coeffs for a, b in zip(
            (c.coeffs for c in scaled.constraints), lp.constraints))
    assert scaled_rows > 600


# -- only exact numbers -------------------------------------------------------------


def _no_pivot(monkeypatch):
    def pivot(tab, r, j, z):
        raise AssertionError("pivoted on a program holding a float")

    monkeypatch.setattr(lpmod._Tableau, "_pivot", pivot)


def test_a_float_coefficient_is_refused(monkeypatch):
    _no_pivot(monkeypatch)
    lp = LinearProgram(num_vars=2, objective={0: F(1)})
    lp.add({0: F(1)}, LE, F(1))
    with pytest.raises(TypeError, match=r"^row 1: the coefficient of variable 1 must "
                                        r"be an int or a Fraction, got float 0\.5$"):
        lp.add({0: 1, 1: 0.5}, LE, F(1))
    assert len(lp.constraints) == 1


def test_a_float_right_hand_side_is_refused(monkeypatch):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    _no_pivot(monkeypatch)
    lp = LinearProgram(num_vars=1, objective={0: F(1)})
    with pytest.raises(TypeError, match=r"^row 0: the right-hand side must be an int "
                                        r"or a Fraction, got float 0\.1$"):
        lp.add({0: 1}, LE, 0.1)
    assert lp.constraints == []


def test_a_float_objective_entry_is_refused(monkeypatch):
    _no_pivot(monkeypatch)
    lp = LinearProgram(num_vars=2, objective={0: F(1), 1: 2.5})
    lp.add({0: 1, 1: 1}, LE, F(1))
    with pytest.raises(TypeError, match=r"^the objective entry of variable 1 must be "
                                        r"an int or a Fraction, got float 2\.5$"):
        lp_solve(lp)


@pytest.mark.parametrize("bounds,message", [
    ([(F(0), None), (0.25, None)], "the lower bound of variable 1"),
    ([(None, 1.5), (F(0), None)], "the upper bound of variable 0"),
])
def test_a_float_bound_is_refused(monkeypatch, bounds, message):
    _no_pivot(monkeypatch)
    lp = LinearProgram(num_vars=2, objective={0: F(1), 1: F(1)}, bounds=bounds)
    lp.add({0: 1, 1: 1}, LE, F(3))
    with pytest.raises(TypeError, match=f"^{message} must be an int or a Fraction, "
                                        f"got float"):
        lp_solve(lp)


# -- a malformed program, however its rows were added ----------------------------


@pytest.mark.parametrize("coeffs,rhs,message", [
    ({0: 0.5}, F(1), r"^the coefficient of variable 0 must be an int or a Fraction, "
                     r"got float 0\.5$"),
    ({0: F(1)}, 0.5, r"^the right-hand side must be an int or a Fraction, got float 0\.5$"),
], ids=["coefficient", "right-hand side"])
def test_a_float_in_a_row_made_without_add_is_refused(coeffs, rhs, message):
    # a row appended to lp.constraints is checked when it is made, as add's are
    with pytest.raises(TypeError, match=message):
        Constraint(coeffs, LE, rhs)


def test_an_unknown_relation_in_a_row_made_without_add_is_refused():
    # "<" used to be solved and certified as "=="
    with pytest.raises(ValueError, match="relation must be one of"):
        Constraint({0: F(1)}, "<", F(1))


def test_a_row_made_without_add_keeps_its_right_hand_side_as_a_fraction():
    assert type(Constraint({0: 1}, LE, 2).rhs) is Fraction


@pytest.mark.parametrize("row,objective,message", [
    ({2: 1}, {0: F(1)}, r"^row 1 names variable 2, outside range\(2\)$"),
    ({-1: 1}, {0: F(1)}, r"^row 1 names variable -1, outside range\(2\)$"),
    ({0: 1}, {0: F(1), 3: F(1)}, r"^the objective names variable 3, outside range\(2\)$"),
    ({0: 1}, {-2: F(1)}, r"^the objective names variable -2, outside range\(2\)$"),
], ids=["row past the end", "row negative", "objective past the end",
        "objective negative"])
def test_a_variable_index_outside_the_program_is_refused(monkeypatch, row, objective,
                                                          message):
    # a negative index used to name a variable counted from the end
    _no_pivot(monkeypatch)
    lp = LinearProgram(num_vars=2, objective=objective)
    lp.add({0: 1, 1: 1}, LE, F(1))
    lp.add(row, LE, F(1))
    with pytest.raises(ValueError, match=message):
        lp_solve(lp)


@pytest.mark.parametrize("bounds", [[(F(0), None)], [(F(0), None)] * 3],
                         ids=["short", "long"])
def test_bounds_of_another_length_are_refused(monkeypatch, bounds):
    _no_pivot(monkeypatch)
    lp = LinearProgram(num_vars=2, objective={0: F(1)}, bounds=bounds)
    lp.add({0: 1, 1: 1}, LE, F(1))
    with pytest.raises(ValueError, match=rf"^bounds has {len(bounds)} entries for 2 "
                                         rf"variables$"):
        lp_solve(lp)


# -- the pivots, pinned ---------------------------------------------------------------

# sha256 over every program's (row, column) pivots and final basis under
# lp_solve, or the error it raised: the hand-built programs, the 600 seeded
# random ones of the Fraction-tableau test and the solver family. A revision
# of the simplex that keeps Bland's rule and the tableau's column order
# keeps every pivot, so it must keep this digest.
PIVOTS_DIGEST = "e9cc3173925068a1fd9d1c74e8c03241afb97b7000fc5d229549671fd58f453c"


def test_the_pivots_are_pinned(monkeypatch):
    rng = random.Random(2024)
    programs = _hand_built_programs() + [_random_program(rng) for _ in range(600)]
    programs += _solver_programs(monkeypatch)
    init, pivot = lpmod._Tableau.__init__, lpmod._Tableau._pivot
    tableaus, pivots = [], []

    def building(tab, std):
        tableaus.append(tab)
        init(tab, std)

    def pivoting(tab, r, j, z):
        pivots.append((r, j))
        pivot(tab, r, j, z)

    monkeypatch.setattr(lpmod._Tableau, "__init__", building)
    monkeypatch.setattr(lpmod._Tableau, "_pivot", pivoting)
    h = hashlib.sha256()
    for lp in programs:
        tableaus.clear(), pivots.clear()
        try:
            outcome = lp_solve(lp).status
        except InternalCheckError:
            outcome = "InternalCheckError"
        [tab] = tableaus
        h.update(repr((outcome, pivots, tab.basis)).encode("ascii"))
    assert h.hexdigest() == PIVOTS_DIGEST
