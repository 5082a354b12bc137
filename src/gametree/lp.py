"""Exact linear programming over the rationals.

Dense two-phase primal simplex with Bland's smallest-index rule for both the
entering and leaving choices, so no cycling and fully deterministic pivots.
Every coefficient is a Fraction and every returned optimum is certified
before it leaves this module: original constraints and bounds are re-checked
with zero residual, the objective is recomputed from the solution, and the
final reduced costs must carry optimal signs. Infeasible and unbounded are
ordinary outcomes, not errors.

Problem sizes here are desk scale (hundreds of variables); no sparsity, no
revised simplex, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import InternalCheckError
from .rational import format_rational

ZERO = Fraction(0)
ONE = Fraction(1)

LE, EQ, GE = "<=", "==", ">="


@dataclass(frozen=True)
class Constraint:
    coeffs: dict[int, Fraction]
    rel: str
    rhs: Fraction


@dataclass
class LinearProgram:
    """max (or min) c.x subject to rational rows and per-variable bounds.

    ``bounds[j]`` is (lo, hi) with None for unbounded; variables default to
    lo = 0, hi = +inf.
    """

    num_vars: int
    objective: dict[int, Fraction] = field(default_factory=dict)
    maximize: bool = True
    constraints: list[Constraint] = field(default_factory=list)
    bounds: Optional[list[tuple[Optional[Fraction], Optional[Fraction]]]] = None

    def add(self, coeffs: dict[int, Fraction], rel: str, rhs: Fraction):
        if rel not in (LE, EQ, GE):
            raise ValueError(f"relation must be one of {LE!r}, {EQ!r}, {GE!r}")
        self.constraints.append(Constraint(dict(coeffs), rel, Fraction(rhs)))

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
    """Solve exactly; certificates are checked before returning an optimum."""
    std = _Standardized(lp)
    tab = _Tableau(std.rows, std.rhs, std.num_cols)
    if not tab.phase_one():
        return LPResult("infeasible", None, None)
    status = tab.phase_two(std.objective)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    y = tab.solution(std.num_cols)
    x = std.recover(y)
    value = _dot(lp.objective, x)
    _certify(lp, x, value, tab, std)
    return LPResult("optimal", tuple(x), value)


def _dot(coeffs: dict[int, Fraction], x) -> Fraction:
    return sum((c * x[j] for j, c in coeffs.items()), ZERO)


class _Standardized:
    """Rewrite general form into max c.y, A y rel b, y >= 0."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.shift: list[Fraction] = []       # x_j = shift_j + y_col - (y_neg if free)
        self.pos_col: list[int] = []
        self.neg_col: list[Optional[int]] = []
        cols = 0
        extra_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        for j in range(lp.num_vars):
            lo, hi = lp.bound(j)
            if lo is None:
                self.shift.append(ZERO)
                self.pos_col.append(cols)
                self.neg_col.append(cols + 1)
                cols += 2
            else:
                self.shift.append(lo)
                self.pos_col.append(cols)
                self.neg_col.append(None)
                cols += 1
            if hi is not None:
                if lo is not None and hi < lo:
                    extra_rows.append(({}, LE, Fraction(-1)))  # trivially infeasible
                extra_rows.append(({j: ONE}, LE, hi))
        self.num_cols = cols
        sign = ONE if lp.maximize else Fraction(-1)
        self.objective = [ZERO] * cols
        for j, c in lp.objective.items():
            self.objective[self.pos_col[j]] += sign * c
            if self.neg_col[j] is not None:
                self.objective[self.neg_col[j]] -= sign * c
        self.rows: list[tuple[list[Fraction], str]] = []
        self.rhs: list[Fraction] = []
        all_rows = [(c.coeffs, c.rel, c.rhs) for c in lp.constraints] + extra_rows
        for coeffs, rel, rhs in all_rows:
            row = [ZERO] * cols
            b = rhs
            for j, c in coeffs.items():
                row[self.pos_col[j]] += c
                if self.neg_col[j] is not None:
                    row[self.neg_col[j]] -= c
                b -= c * self.shift[j]
            self.rows.append((row, rel))
            self.rhs.append(b)

    def recover(self, y: list[Fraction]) -> list[Fraction]:
        x = []
        for j in range(self.lp.num_vars):
            v = self.shift[j] + y[self.pos_col[j]]
            if self.neg_col[j] is not None:
                v -= y[self.neg_col[j]]
            x.append(v)
        return x


class _Tableau:
    def __init__(self, rows, rhs, n: int):
        self.artificial: set[int] = set()
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        ncols = n
        specs = []
        for (row, rel), b in zip(rows, rhs):
            row = list(row)
            if b < 0:
                row = [-v for v in row]
                b = -b
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            specs.append((row, rel, b))
            ncols += 1 if rel != EQ else 0
        # second pass: artificials for >= and == rows
        for _row, rel, _b in specs:
            if rel != LE:
                ncols += 1
        self.ncols = ncols
        col = n
        art_rows = []
        for row, rel, b in specs:
            full = row + [ZERO] * (ncols - n)
            if rel == LE:
                full[col] = ONE
                self.basis.append(col)
                col += 1
            elif rel == GE:
                full[col] = Fraction(-1)
                col += 1
                full[col] = ONE
                self.artificial.add(col)
                self.basis.append(col)
                art_rows.append(len(self.rows))
                col += 1
            else:
                full[col] = ONE
                self.artificial.add(col)
                self.basis.append(col)
                art_rows.append(len(self.rows))
                col += 1
            full.append(b)
            self.rows.append(full)
        self.n_structural = n
        self._art_rows = art_rows

    def _pivot(self, r: int, j: int, z: list[Fraction]):
        piv = self.rows[r][j]
        self.rows[r] = [v / piv for v in self.rows[r]]
        prow = self.rows[r]
        for k, row in enumerate(self.rows):
            if k != r and row[j] != 0:
                f = row[j]
                self.rows[k] = [a - f * b for a, b in zip(row, prow)]
        if z[j] != 0:
            f = z[j]
            z[:] = [a - f * b for a, b in zip(z, prow)]
        self.basis[r] = j

    def _reduced_costs(self, c: list[Fraction]) -> list[Fraction]:
        z = list(c)
        for r, bv in enumerate(self.basis):
            cb = c[bv]
            if cb != 0:
                row = self.rows[r]
                for j in range(self.ncols):
                    if row[j] != 0:
                        z[j] -= cb * row[j]
        return z

    def _value(self, c: list[Fraction]) -> Fraction:
        return sum((c[bv] * self.rows[r][-1] for r, bv in enumerate(self.basis)), ZERO)

    def _simplex(self, z: list[Fraction], allowed) -> str:
        while True:
            enter = None
            for j in range(self.ncols):
                if allowed(j) and z[j] > 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    key = (ratio, self.basis[r])
                    if best is None or key < best:
                        best = key
                        leave = r
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter, z)

    def phase_one(self) -> bool:
        if not self.artificial:
            return True
        c = [ZERO] * self.ncols
        for j in self.artificial:
            c[j] = Fraction(-1)
        z = self._reduced_costs(c)
        status = self._simplex(z, lambda j: True)
        if status != "optimal":  # the phase-1 objective is bounded above by 0
            raise InternalCheckError(f"phase 1 ended {status}, not optimal")
        if self._value(c) != 0:
            return False
        # drive remaining artificials out of the basis; drop redundant rows
        for r in range(len(self.rows) - 1, -1, -1):
            if self.basis[r] in self.artificial:
                prow = self.rows[r]
                pivot_col = next((j for j in range(self.n_structural)
                                  if prow[j] != 0), None)
                if pivot_col is None:
                    del self.rows[r]
                    del self.basis[r]
                else:
                    self._pivot(r, pivot_col, z)
        return True

    def phase_two(self, objective: list[Fraction]) -> str:
        c = objective + [ZERO] * (self.ncols - self.n_structural)
        for j in self.artificial:
            c[j] = ZERO
        z = self._reduced_costs(c)
        status = self._simplex(z, lambda j: j not in self.artificial)
        self._final_z = z
        return status

    def solution(self, num_cols: int) -> list[Fraction]:
        y = [ZERO] * self.ncols
        for r, bv in enumerate(self.basis):
            y[bv] = self.rows[r][-1]
        return y[:num_cols]


def _certify(lp: LinearProgram, x, value, tab: _Tableau, std: _Standardized):
    for c in lp.constraints:
        lhs = _dot(c.coeffs, x)
        ok = lhs <= c.rhs if c.rel == LE else lhs >= c.rhs if c.rel == GE else lhs == c.rhs
        if not ok:
            raise InternalCheckError(
                f"optimum violates constraint: {format_rational(lhs)} {c.rel} "
                f"{format_rational(c.rhs)}")
    for j in range(lp.num_vars):
        lo, hi = lp.bound(j)
        if (lo is not None and x[j] < lo) or (hi is not None and x[j] > hi):
            raise InternalCheckError(f"optimum violates bounds of variable {j}")
    if _dot(lp.objective, x) != value:
        raise InternalCheckError("objective value does not match the solution")
    for j in range(tab.ncols):
        if j not in tab.artificial and tab._final_z[j] > 0 and j not in tab.basis:
            raise InternalCheckError("positive reduced cost at claimed optimum")
