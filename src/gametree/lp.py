"""Exact linear programming over the rationals.

Dense two-phase primal simplex with Bland's smallest-index rule for both the
entering and leaving choices, so no cycling and fully deterministic pivots.

The tableau holds Python ints, never Fractions. Each row of the
standardized program is scaled by the lcm of its denominators (its
``scale``), and all rows share one positive ``det``: an entry ``v`` stands
for ``v / det``. A pivot on entry ``p`` at ``(r, j)`` is the Edmonds/Bareiss
fraction-free update ``row_k = (row_k * p - row_k[j] * row_r) // det``,
then ``det = p``; every entry is a minor of the starting rows, so the
division is exact and no gcd is taken (the "integer pivoting" of Avis's
lrs). The reduced-cost row is carried the same way. A row scale multiplies
that row's slack or artificial by a positive constant, which changes no
sign and no ratio the pivot rule compares, and each artificial costs
``-1 / scale`` in phase 1, so the pivots are exactly those of the same
simplex on Fractions. For the same reason a caller may scale a program's
row (with its right-hand side) by a positive constant without changing a
pivot, as long as the row carries no artificial (a ``<=`` row whose
right-hand side stays nonnegative once lower bounds are shifted out, say),
or the rows that do are all scaled alike: phase 1 sums the artificials.
Scaling the objective scales every reduced cost alike and the value with
it.

Every number in a program (coefficient, right-hand side, objective entry,
bound) must be an int or a Fraction; a float raises TypeError before any
pivot, as its binary value is not the number it was written as. A
relation other than LE, EQ, GE, a variable index outside
``range(num_vars)`` and a ``bounds`` list of another length raise
ValueError before any pivot too. The solution is read off the final
tableau as ints over one denominator (the shifts of lower bounds folded
in), certified on those ints, and built as Fractions once.

Every returned optimum is certified against the original program, not the
tableau, before it leaves this module. Primal: every constraint and bound
holds with zero residual, cross-multiplied on the solution's ints, and the
objective is recomputed from them. Dual: ``y``, read off the final reduced
costs (minus the reduced cost at each row's slack or artificial column),
has the sign each row's relation asks, leaves every variable a reduced
cost its bounds absorb, and bounds the objective by exactly the value
found. By weak duality the two prove optimality, whatever the pivots
did. The final reduced costs must also carry optimal signs. Infeasible and
unbounded are ordinary outcomes, not errors.

Problem sizes here are desk scale (hundreds of variables); no sparsity, no
revised simplex, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import InternalCheckError
from .rational import format_rational, over_common_denominator

ZERO = Fraction(0)
ONE = Fraction(1)

LE, EQ, GE = "<=", "==", ">="


def _exact(value, what: str):
    """TypeError naming ``what`` unless ``value`` is an int or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, "
                        f"got {type(value).__name__} {value!r}")


@dataclass(frozen=True)
class Constraint:
    """One row, checked when it is made however it reaches a program: the
    relation must be one of LE, EQ, GE (else ValueError) and every number
    an int or a Fraction (else TypeError); the right-hand side is kept as a
    Fraction."""
    coeffs: dict[int, Fraction]
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in (LE, EQ, GE):
            raise ValueError(f"relation must be one of {LE!r}, {EQ!r}, {GE!r}")
        for j, c in self.coeffs.items():
            _exact(c, f"the coefficient of variable {j}")
        _exact(self.rhs, "the right-hand side")
        object.__setattr__(self, "rhs", Fraction(self.rhs))


@dataclass
class LinearProgram:
    """max (or min) c.x subject to rational rows and per-variable bounds.

    Coefficients, right-hand sides, objective entries and bounds must be
    ints or Fractions, else TypeError (rows when the :class:`Constraint` is
    made, the rest in :func:`lp_solve`); right-hand sides are kept as
    Fractions. ``bounds[j]`` is (lo, hi) with None for unbounded; variables
    default to lo = 0, hi = +inf.
    """

    num_vars: int
    objective: dict[int, Fraction] = field(default_factory=dict)
    maximize: bool = True
    constraints: list[Constraint] = field(default_factory=list)
    bounds: Optional[list[tuple[Optional[Fraction], Optional[Fraction]]]] = None

    def add(self, coeffs: dict[int, Fraction], rel: str, rhs: Fraction):
        try:
            row = Constraint(dict(coeffs), rel, rhs)
        except TypeError as e:  # name the row it would have been
            raise TypeError(f"row {len(self.constraints)}: {e}") from None
        self.constraints.append(row)

    def bound(self, j: int) -> tuple[Optional[Fraction], Optional[Fraction]]:
        if self.bounds is None:
            return (ZERO, None)
        return self.bounds[j]


@dataclass(frozen=True)
class LPResult:
    status: str  # optimal | infeasible | unbounded
    x: Optional[tuple[Fraction, ...]]
    value: Optional[Fraction]


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve exactly; certificates are checked before returning an optimum.

    A program naming a variable outside ``range(num_vars)``, or whose
    ``bounds`` has another length, raises ValueError before any pivot."""
    n = lp.num_vars
    if lp.bounds is not None and len(lp.bounds) != n:
        raise ValueError(f"bounds has {len(lp.bounds)} entries for {n} variables")
    named = [("the objective", lp.objective)]
    named += [(f"row {r}", row.coeffs) for r, row in enumerate(lp.constraints)]
    for what, coeffs in named:
        for j in coeffs:
            if not (isinstance(j, int) and 0 <= j < n):
                raise ValueError(f"{what} names variable {j!r}, outside range({n})")
    for j, c in lp.objective.items():
        _exact(c, f"the objective entry of variable {j}")
    for j, bound in enumerate(lp.bounds or ()):
        for side, v in zip(("lower", "upper"), bound):
            if v is not None:
                _exact(v, f"the {side} bound of variable {j}")
    std = _Standardized(lp)
    tab = _Tableau(std)
    if not tab.phase_one():
        return LPResult("infeasible", None, None)
    if tab.phase_two(std.objective) == "unbounded":
        return LPResult("unbounded", None, None)
    dx, xs = std.recover(tab)
    value = _certify(lp, dx, xs, tab, std)
    return LPResult("optimal", tuple([Fraction(v, dx) if v else ZERO for v in xs]), value)


class _Standardized:
    """Rewrite general form into max c.y, A y rel b, y >= 0, on int rows.

    Row ``r`` of the rewritten program is ``rows[r] / scale[r]``, with
    right-hand side ``rhs[r] / scale[r]`` (lower bounds folded in), and its
    objective is ``objective / cost_scale``.
    """

    def __init__(self, lp: LinearProgram):
        # x_j = shift_j + y_col - (y_neg if free), with the nonzero shifts only
        self.shift: dict[int, Fraction] = {}
        self.pos_col: list[int] = []
        self.neg_col: list[Optional[int]] = []
        cols = 0
        extra_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        for j in range(lp.num_vars):
            lo, hi = lp.bound(j)
            if lo is None:
                self.pos_col.append(cols)
                self.neg_col.append(cols + 1)
                cols += 2
            else:
                if lo:
                    self.shift[j] = lo
                self.pos_col.append(cols)
                self.neg_col.append(None)
                cols += 1
            if hi is not None:
                if lo is not None and hi < lo:
                    extra_rows.append(({}, LE, Fraction(-1)))  # trivially infeasible
                extra_rows.append(({j: ONE}, LE, hi))
        self.num_cols = cols
        sign = 1 if lp.maximize else -1
        self.cost_scale, costs = over_common_denominator(lp.objective.values())
        self.objective = [0] * cols
        for j, c in zip(lp.objective, costs):
            self.objective[self.pos_col[j]] += sign * c
            if self.neg_col[j] is not None:
                self.objective[self.neg_col[j]] -= sign * c
        self.rows: list[tuple[list[int], str]] = []
        self.rhs: list[int] = []
        self.scale: list[int] = []
        all_rows = [(c.coeffs, c.rel, c.rhs) for c in lp.constraints] + extra_rows
        for coeffs, rel, rhs in all_rows:
            b = rhs
            for j, lo in self.shift.items():
                if j in coeffs:
                    b -= coeffs[j] * lo
            den = lcm(b.denominator, *(c.denominator for c in coeffs.values()))
            row = [0] * cols
            for j, c in coeffs.items():
                v = c.numerator * (den // c.denominator)
                row[self.pos_col[j]] += v
                if self.neg_col[j] is not None:
                    row[self.neg_col[j]] -= v
            self.rows.append((row, rel))
            self.rhs.append(b.numerator * (den // b.denominator))
            self.scale.append(den)

    def recover(self, tab: "_Tableau") -> tuple[int, list[int]]:
        """The solution ``x`` at ``tab``'s basis as ``(den, ints)``, ``x[j] ==
        Fraction(ints[j], den)``: the basic ints over ``tab.det``, with the
        shifts folded in over one ``den``."""
        y = [0] * self.num_cols
        for r, bv in enumerate(tab.basis):
            if bv < self.num_cols:
                y[bv] = tab.rows[r][-1]
        den = lcm(tab.det, *(lo.denominator for lo in self.shift.values()))
        per_y = den // tab.det
        x = []
        for pos, neg in zip(self.pos_col, self.neg_col):
            v = y[pos] if neg is None else y[pos] - y[neg]
            x.append(v * per_y)
        for j, lo in self.shift.items():
            x[j] += lo.numerator * (den // lo.denominator)
        return den, x


class _Tableau:
    """The standardized rows as ints over one shared positive ``det``.

    Program row ``i`` enters as its ints times ``flip``, -1 when its
    right-hand side is negative, plus one identity column ``dual_col[i]``:
    its slack for ``<=``, else its artificial (after a surplus for ``>=``).
    ``basis[r]`` is the column basic in tableau row ``r``; phase 1 may drop
    redundant rows, so ``rows`` can end shorter than ``dual_col``.
    """

    def __init__(self, std: _Standardized):
        n = std.num_cols
        specs = []
        for (row, rel), b, scale in zip(std.rows, std.rhs, std.scale):
            flip = 1
            if b < 0:
                row, b, flip = [-v for v in row], -b, -1
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            specs.append((row, rel, b, flip, scale))
        self.ncols = n + sum((rel != EQ) + (rel != LE) for _, rel, _, _, _ in specs)
        self.n_structural = n
        self.det = 1
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.artificial: set[int] = set()
        self.dual_col: list[int] = []
        self.dual_scale: list[int] = []  # flip * scale, per program row
        self.art_scale: dict[int, int] = {}  # artificial column -> its row's scale
        col = n
        for row, rel, b, flip, scale in specs:
            full = row + [0] * (self.ncols - n) + [b]
            if rel == GE:
                full[col] = -1
                col += 1
            full[col] = 1
            if rel != LE:
                self.artificial.add(col)
                self.art_scale[col] = scale
            self.basis.append(col)
            self.dual_col.append(col)
            self.dual_scale.append(flip * scale)
            self.rows.append(full)
            col += 1

    def _pivot(self, r: int, j: int, z: list[int]):
        prow = self.rows[r]
        p, det = prow[j], self.det
        if p < 0:  # -prow over -p is prow over p, and keeps det positive
            prow = self.rows[r] = [-v for v in prow]
            p = -p
        for k, row in enumerate(self.rows):
            if k != r:
                self.rows[k] = _bareiss(row, prow, j, p, det)
        z[:] = _bareiss(z, prow, j, p, det)
        self.det = p
        self.basis[r] = j

    def _reduced_costs(self, c: list[int]) -> list[int]:
        """``c - c_B B^-1 A``, over ``det`` times the scale of ``c``."""
        z = [v * self.det for v in c]
        for r, bv in enumerate(self.basis):
            cb = c[bv]
            if cb:
                z = [a - cb * b for a, b in zip(z, self.rows[r])]
        return z

    def _simplex(self, z: list[int], excluded) -> str:
        while True:
            enter = next((j for j, v in enumerate(z) if v > 0 and j not in excluded), None)
            if enter is None:
                return "optimal"
            # least ratio rhs / a over a > 0, compared cross-multiplied, ties
            # to the least basic column
            leave = None
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    b = row[-1]
                    if leave is None or b * best_a < best_b * a or (
                            b * best_a == best_b * a and self.basis[r] < self.basis[leave]):
                        leave, best_a, best_b = r, a, b
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter, z)

    def phase_one(self) -> bool:
        if not self.artificial:
            return True
        # the artificial of a row of scale s is s times the Fraction one
        scale = lcm(*self.art_scale.values())
        c = [0] * self.ncols
        for j, s in self.art_scale.items():
            c[j] = -(scale // s)
        z = self._reduced_costs(c)
        status = self._simplex(z, ())
        if status != "optimal":  # the phase-1 objective is bounded above by 0
            raise InternalCheckError(f"phase 1 ended {status}, not optimal")
        if sum(c[bv] * row[-1] for bv, row in zip(self.basis, self.rows)) != 0:
            return False
        # drive remaining artificials out of the basis, on any nonzero column
        # but an artificial (a slack or surplus too: the row still binds
        # through it); a row with none is redundant and is dropped
        for r in range(len(self.rows) - 1, -1, -1):
            if self.basis[r] in self.artificial:
                prow = self.rows[r]
                pivot_col = next((j for j in range(self.ncols)
                                  if prow[j] and j not in self.artificial), None)
                if pivot_col is None:
                    del self.rows[r]
                    del self.basis[r]
                else:
                    self._pivot(r, pivot_col, z)
        return True

    def phase_two(self, objective: list[int]) -> str:
        c = objective + [0] * (self.ncols - self.n_structural)
        z = self._reduced_costs(c)
        status = self._simplex(z, self.artificial)
        self._final_z = z
        return status

    def duals(self) -> list[int]:
        """Each program row's dual, over ``det`` times the cost scale: minus
        the final reduced cost at its ``dual_col``, times its flip and
        scale. A row phase 1 dropped reads 0, as its artificial column stays
        a unit column of that row."""
        z = self._final_z
        return [-z[col] * s for col, s in zip(self.dual_col, self.dual_scale)]


def _bareiss(row: list[int], prow: list[int], j: int, p: int, det: int) -> list[int]:
    """``row`` after a pivot on ``p = prow[j]``, its old divisor ``det``."""
    f = row[j]
    if f:
        return [(a * p - f * b) // det for a, b in zip(row, prow)]
    if p == det:
        return row
    return [a * p // det for a in row]


def _certify(lp: LinearProgram, dx: int, xs: list[int], tab: _Tableau,
             std: _Standardized) -> Fraction:
    """The objective value of ``x = xs / dx`` (``dx > 0``), once ``x`` and
    the tableau's duals are checked against ``lp`` itself, in ints over the
    lcm ``g`` of its coefficients' denominators."""
    rows = lp.constraints
    g = lcm(*(q.denominator for c in rows for q in c.coeffs.values()),
            *(c.rhs.denominator for c in rows),
            *(q.denominator for q in lp.objective.values()))
    scaled = [({j: q.numerator * (g // q.denominator) for j, q in c.coeffs.items()},
               c.rel, c.rhs.numerator * (g // c.rhs.denominator)) for c in rows]
    cost = {j: q.numerator * (g // q.denominator) for j, q in lp.objective.items()}
    # primal
    for coeffs, rel, b in scaled:
        lhs, rhs = sum(a * xs[j] for j, a in coeffs.items()), b * dx
        if not (lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs):
            raise InternalCheckError(
                f"optimum violates constraint: {format_rational(Fraction(lhs, g * dx))} "
                f"{rel} {format_rational(Fraction(rhs, g * dx))}")
    for j in range(lp.num_vars):
        lo, hi = lp.bound(j)
        # lo <= xs[j] / dx <= hi, cross-multiplied
        if (lo is not None and xs[j] * lo.denominator < lo.numerator * dx) or \
                (hi is not None and xs[j] * hi.denominator > hi.numerator * dx):
            raise InternalCheckError(f"optimum violates bounds of variable {j}")
    cx = sum(a * xs[j] for j, a in cost.items())  # the value, over g * dx
    for j in range(tab.ncols):
        if j not in tab.artificial and tab._final_z[j] > 0 and j not in tab.basis:
            raise InternalCheckError("positive reduced cost at claimed optimum")
    # dual: y = ys / dy for max sign * c.x; weak duality bounds the objective
    # by b.y plus, per variable, its reduced cost d_j times the bound it
    # pushes against, and that bound must be value itself
    sign = 1 if lp.maximize else -1
    dy = tab.det * std.cost_scale
    ys = tab.duals()
    d = [0] * lp.num_vars
    for j, a in cost.items():
        d[j] = sign * a * dy
    bound = 0
    for (coeffs, rel, b), y in zip(scaled, ys):
        if (rel == LE and y < 0) or (rel == GE and y > 0):
            raise InternalCheckError(f"dual of a {rel} row has the wrong sign")
        if y:
            bound += b * y
            for j, a in coeffs.items():
                d[j] -= a * y
    # each variable's reduced cost times the bound it pushes against, over
    # the lcm of those bounds' denominators
    pushed = []
    for j, dj in enumerate(d):
        if dj:
            limit = lp.bound(j)[1 if dj > 0 else 0]
            if limit is None:
                raise InternalCheckError(f"dual is infeasible at variable {j}")
            pushed.append((dj, limit))
    den = lcm(*(limit.denominator for _dj, limit in pushed))
    pushed_sum = sum(dj * limit.numerator * (den // limit.denominator) for dj, limit in pushed)
    # b.y + pushed == sign * value * (g * dy), with value = cx / (g * dx)
    if (bound * den + pushed_sum) * dx != sign * cx * dy * den:
        raise InternalCheckError("dual bound does not match the optimum")
    return Fraction(cx, g * dx)
