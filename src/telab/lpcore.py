"""Sparse linear programs, the solver backend contract, and a bundled simplex.

``solve`` is the one path from an ``LpProblem`` to its ``LpSolution``.  It
hands the working rows (below) to a backend named in ``BACKENDS``, as
``backend(prob, A, b, ineq, c) -> (status, x, iterations, message)``: rows
``A x <= b`` where ``ineq`` holds and ``A x = b`` elsewhere, ``c`` the
objective in maximizing form, bounds and ``simplex`` read from ``prob``.
Backends are interchangeable because solution quality, tunnel usage, and
runtime all depend on which one is picked.

The bundled backend is a bounded dual simplex (sparse constraint columns,
dense basis inverse, implicit logical columns) that always returns a vertex
solution and falls back to Bland's rule when it stalls on degenerate bases.
It starts from the all-logical basis with every column at the bound its
objective favours, which is dual feasible on every LP telab builds, so it has
one phase and no artificial columns.  A hand-built LP whose favoured bound is
infinite gets an artificial bound there, widened while a verdict rests on it.
A nonbasic column's one state is the way it may move from its bound, with
the free columns listed apart.  Its dense products are numpy sums, not BLAS
calls, so its pivots and its answer are the same on every CPU.
Its pivots are hypersparse: the updates of the basic values and of the inverse
touch only the rows where the entering column is nonzero, which on B4 are a
few dozen of hundreds, and the inverse update only the columns where the pivot
row is nonzero, which on B4 is one column in the median.  It refuses, as a
numerical failure, a working LP whose dense inverse would pass
``DENSE_INVERSE_BUDGET_BYTES``.  The scipy backend hands the same rows to a
HiGHS simplex, the one the problem's ``simplex`` field names: the primal on
FFC LPs, which are feasible at x = 0, so it starts there with no phase 1 and
takes about half the dual's time on syn40; the dual on TE, calibration and
hand-built LPs, which it solves faster.  Both backends return vertices, so
solution dumps record ``"solution_kind": "vertex"``.  Interior-point methods
are deliberately not offered.

An ``LpProblem`` holds its rows as a block store: each ``add_rows`` call
appends one block, a CSR matrix with one sense, its right-hand sides, its
implied marks and its names, and every reader walks the blocks in place.
Every model builder names its blocks by a ``NameRule``, one format over a
grid of indices, so a model with a million rows holds no string per row;
only hand-built rows pass a list.  ``row_names`` and ``rows`` build a new
list and a new stacked matrix on each call, for the tests; a solve reads
neither.

A model builder may mark a row as implied by another row of the problem over
the variable bounds; the mark is the whole presolve.  Both backends solve
only the unmarked (working) rows, while ``rows`` and the row count keep
every literal row.  Every optimal solution is re-verified by
direct substitution into all the original rows before ``solve`` returns it,
so a wrong mark, like any other fault, is reported as a numerical failure,
never as a silent wrong answer.  A bundled infeasible verdict is checked too,
as a proof that the working rows, some of the LP's rows, have no point.
"""
from __future__ import annotations

import math
import operator
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"

FEASIBILITY_TOL = 1e-6  # absolute, on rows normalized by max(1, ||row||_inf)
BOUND_TOL = 1e-9
FLOW_EPS = 1e-9  # positivity threshold for "carries flow" classification

_SENSES = ("<=", ">=", "=")
# HiGHS's simplex_strategy for each value of LpProblem.simplex.
_HIGHS_SIMPLEX_STRATEGY = {"dual": 1, "primal": 4}

# The bundled simplex keeps a dense basis inverse.  It refuses a working LP
# whose inverse plus the two temporaries of one update (the flat indices and
# the outer product of the entries it touches, each up to m x m), 24*m*m
# bytes, passes this.  A product with the inverse makes one m x m temporary,
# never while those two exist, so the bound covers it too.
DENSE_INVERSE_BUDGET_BYTES = 2 << 30


class NameRule(Sequence):
    """Names of a block of rows from one format, each made when it is read.

    Row i of the block is cell ``cells[i]`` (without ``cells``, cell i) of a
    grid of ``shape`` (rows, columns), in row-major order, and is named
    ``fmt.format(grid_row, grid_column)``: ``NameRule("del_f{1}_q{0}",
    (n_scenarios, n_demands))`` names scenario-major delivery rows.  An index
    may be negative; one past either end raises ``IndexError``.
    """

    def __init__(self, fmt: str, shape: tuple[int, int], cells: np.ndarray | None = None):
        self.fmt, self.shape, self.cells = fmt, shape, cells

    def __len__(self) -> int:
        return self.shape[0] * self.shape[1] if self.cells is None else len(self.cells)

    def __getitem__(self, i) -> str:
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError(f"name index {i} out of range for {n} names")
        i %= n
        return self.fmt.format(*divmod(i if self.cells is None else int(self.cells[i]),
                                       self.shape[1]))


class _Block(NamedTuple):
    """The rows of one ``add_rows`` call."""

    start: int  # LP index of the block's first row
    matrix: sp.csr_matrix  # over every variable of the LP
    sense: str
    rhs: np.ndarray
    implied: np.ndarray
    names: Sequence[str]


@dataclass(eq=False)
class LpProblem:
    """A sparse LP built incrementally: variables, constraint rows, objective.

    The columns are float64 arrays of length ``n_vars``: the bounds ``lower``
    and ``upper`` and the objective ``c``, which ``add_vars`` extends with
    zeros.  The rows are a store of blocks, one per ``add_rows`` call (one
    row: ``add_constraint``), each a CSR matrix over all columns with one
    sense, its right-hand sides, its builder's marks "implied by another row"
    and its names: a ``NameRule`` from every model builder, a list for
    hand-built rows.  ``row_names`` (a list), ``rows`` and ``implied`` are
    made anew from the blocks on each call and keep nothing.  ``simplex``
    ("dual" or "primal") names the simplex a backend that has both should
    run; ``solve`` checks it.
    """

    name: str = ""
    var_names: list[str] = field(default_factory=list)
    lower: np.ndarray = field(default_factory=lambda: np.zeros(0))
    upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    c: np.ndarray = field(default_factory=lambda: np.zeros(0))
    maximize: bool = True
    simplex: str = "dual"
    _blocks: list[_Block] = field(default_factory=list, init=False, repr=False)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_constraints(self) -> int:
        return self._blocks[-1].start + len(self._blocks[-1].rhs) if self._blocks else 0

    @property
    def row_names(self) -> list[str]:
        """Every row's name, in row order, as a new list on each call."""
        return [name for blk in self._blocks for name in blk.names]

    def add_vars(self, names: list[str], lower, upper) -> int:
        """Append a block of variables; returns the index of the first."""
        lower = np.array(lower, dtype=float).reshape(-1)
        upper = np.array(upper, dtype=float).reshape(-1)
        if not len(names) == len(lower) == len(upper):
            raise ValidationError(f"variable block: {len(names)} names, {len(lower)} lower "
                                  f"and {len(upper)} upper bounds")
        bad = ~(lower <= upper) | (lower == math.inf) | (upper == -math.inf)  # NaN fails <=
        if bad.any():
            raise ValidationError(f"variable {names[int(bad.argmax())]!r}: "
                                  "bounds must satisfy lb <= ub")
        self.var_names.extend(names)
        self.lower = np.concatenate([self.lower, lower])
        self.upper = np.concatenate([self.upper, upper])
        self.c = np.concatenate([self.c, np.zeros(len(names))])
        for blk in self._blocks:  # widens the LP's own header, never the arrays
            blk.matrix.resize((len(blk.rhs), self.n_vars))
        return self.n_vars - len(names)

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf) -> int:
        return self.add_vars([name], [lb], [ub])

    def add_rows(self, matrix, sense: str, rhs, names: Sequence[str], implied=None) -> int:
        """Append a block of rows sharing one sense; returns the first new row index.

        ``implied`` marks, per row, that another row of the problem implies it
        over the variable bounds, so the backends need not solve it.  The LP
        owns a CSR ``matrix`` of float64 and the ``names`` sequence from then
        on: both are kept, not copied, and the caller must not change them.
        """
        if sense not in _SENSES:
            raise ValidationError(f"unknown constraint sense {sense!r}")
        block = sp.csr_matrix(matrix, dtype=float)
        rhs = np.array(rhs, dtype=float).reshape(-1)
        m = block.shape[0]
        implied = np.zeros(m, dtype=bool) if implied is None else np.array(
            implied, dtype=bool).reshape(-1)
        if not len(rhs) == len(names) == len(implied) == m:
            raise ValidationError(f"row block: {m} rows, {len(rhs)} rhs, {len(names)} names, "
                                  f"{len(implied)} implied marks")
        if not np.isfinite(rhs).all():
            name = names[int(np.argmax(~np.isfinite(rhs)))]
            raise ValidationError(f"constraint {name!r}: right-hand side must be finite")
        j = block.indices
        bad = (j < 0) | (j >= self.n_vars) | ~np.isfinite(block.data)
        if bad.any():
            k = int(np.argmax(bad))
            name = names[np.searchsorted(block.indptr, k, side="right") - 1]
            what = ("non-finite coefficient" if 0 <= j[k] < self.n_vars
                    else f"unknown variable index {j[k]}")
            raise ValidationError(f"constraint {name!r}: {what}")
        block.resize((m, self.n_vars))
        self._blocks.append(_Block(self.n_constraints, block, sense, rhs, implied, names))
        return self._blocks[-1].start

    def add_constraint(
        self,
        coeffs: list[tuple[int, float]],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> int:
        """Append one row given as (column, coefficient) pairs."""
        cols, vals = zip(*coeffs) if coeffs else ((), ())
        row = sp.csr_matrix((np.array(vals, dtype=float), np.array(cols, dtype=np.int64),
                             [0, len(cols)]), shape=(1, self.n_vars))
        return self.add_rows(row, sense, [rhs], [name])

    def rows(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Every constraint row, stacked anew: (CSR matrix over all variables,
        senses, rhs)."""
        blocks = self._blocks
        return (sp.vstack([sp.csr_matrix((0, self.n_vars))] + [b.matrix for b in blocks],
                          format="csr"),
                np.repeat(np.array([b.sense for b in blocks], dtype="<U2"),
                          [len(b.rhs) for b in blocks]),
                np.concatenate([np.zeros(0)] + [b.rhs for b in blocks]))

    @property
    def implied(self) -> np.ndarray:
        """Per row: marked by its builder as implied by another row."""
        return np.concatenate([np.zeros(0, dtype=bool)] + [b.implied for b in self._blocks])

    def set_objective(self, coeffs: list[tuple[int, float]], maximize: bool = True) -> None:
        """Set ``c`` from (column, coefficient) pairs, summing a repeated column's."""
        c = np.zeros(self.n_vars)
        for j, v in coeffs:
            if not 0 <= j < self.n_vars:
                raise ValidationError(f"objective: unknown variable index {j}")
            if not math.isfinite(v):
                raise ValidationError("objective: non-finite coefficient")
            c[j] += v
        self.c = c
        self.maximize = maximize


@dataclass
class LpSolution:
    status: str
    objective: float
    values: np.ndarray | None
    solve_time: float
    iterations: int = 0
    message: str = ""


def check_feasibility(prob: LpProblem, x: np.ndarray) -> list[str]:
    """Substitute x into the original rows and bounds; return violations."""
    issues: list[str] = []
    for j in np.flatnonzero(~np.isfinite(x)):
        issues.append(f"var {prob.var_names[j]}: {float(x[j])!r} is not finite")
    low_bad = np.nonzero(x < prob.lower - BOUND_TOL)[0]
    up_bad = np.nonzero(x > prob.upper + BOUND_TOL)[0]
    for j in low_bad:
        issues.append(f"var {prob.var_names[j]}: {float(x[j])!r} below lower bound "
                      f"{float(prob.lower[j])!r}")
    for j in up_bad:
        issues.append(f"var {prob.var_names[j]}: {float(x[j])!r} above upper bound "
                      f"{float(prob.upper[j])!r}")
    for blk in prob._blocks:
        A = blk.matrix
        lhs = A @ x
        filled = np.diff(A.indptr) > 0
        starts = A.indptr[:-1][filled]
        scale = np.ones(len(lhs))  # max(1, largest |coefficient|) per row, with no |A| copy
        top = np.maximum.reduceat(A.data, starts)
        np.maximum(top, -np.minimum.reduceat(A.data, starts), out=top)
        scale[filled] = np.maximum(top, 1.0, out=top)
        resid, tol = lhs - blk.rhs, FEASIBILITY_TOL * scale
        bad = (resid > tol if blk.sense == "<=" else resid < -tol if blk.sense == ">="
               else np.abs(resid) > tol)
        for i in np.flatnonzero(bad):
            row_lhs = float(lhs[i]) if filled[i] else 0  # an empty sum is the integer 0
            issues.append(f"row {blk.names[i] or blk.start + i}: lhs {row_lhs!r} {blk.sense} "
                          f"rhs {float(blk.rhs[i])!r} violated")
    return issues


def _standardize(prob: LpProblem):
    """The working rows both backends solve, as (A, b, ineq), or None for a
    constant row that can never hold.

    The rows not marked implied, with >= rows negated to <=, duplicate
    coefficients merged, zero coefficients dropped, and an empty row that
    holds dropped.  The FFC builder marks every failure-scenario capacity row
    implied, so both capacity modes give the same working rows.
    """
    mats, bs, ineqs = [sp.csr_matrix((0, prob.n_vars))], [np.zeros(0)], [np.zeros(0, dtype=bool)]
    for blk in prob._blocks:
        keep = ~blk.implied
        flip = -1.0 if blk.sense == ">=" else 1.0
        A = blk.matrix[keep] * flip
        A.sum_duplicates()
        A.eliminate_zeros()
        b, ineq = flip * blk.rhs[keep], blk.sense != "="
        filled = np.diff(A.indptr) > 0
        if (~filled & ((b < -FEASIBILITY_TOL) if ineq else (np.abs(b) > FEASIBILITY_TOL))).any():
            return None
        mats.append(A[filled])
        bs.append(b[filled])
        ineqs.append(np.full(len(bs[-1]), ineq))
    return sp.vstack(mats, format="csr"), np.concatenate(bs), np.concatenate(ineqs)


# ---------------------------------------------------------------------------
# Bundled dual simplex
# ---------------------------------------------------------------------------

# Stand-in for an infinite bound that a column's objective favours: it puts the
# column at a finite start that keeps the all-logical basis dual feasible.  It
# is widened tenfold whenever an infeasible or unbounded verdict would rest
# on it, up to ARTIFICIAL_BOUND_CAP.
ARTIFICIAL_BOUND = 1e7
ARTIFICIAL_BOUND_CAP = 1e13
MAX_ITERATIONS = 200_000  # pivots before the bundled simplex reports a numerical failure


class _Simplex:
    """Bounded dual simplex on ``A x + s = b``, maximizing ``c @ x``.

    Row i has an implicit logical column ``e_i`` in [0, inf) for an inequality
    and [0, 0] for an equality; logicals are numbered after the structurals.
    The start is the all-logical basis (``Binv = I``) with every structural at
    the bound its objective favours, which is dual feasible, so there is no
    phase 1.  The basis inverse ``Binv`` is a dense m x m array, updated in
    product form at every pivot.  Only the rows where the entering column
    ``w = Binv a_q`` is nonzero change in ``x_B`` and ``Binv``, and in ``Binv``
    only the columns where the pivot row ``Binv[r]`` is nonzero; every other
    entry would subtract ``0 * y``.  Products with ``Binv`` are elementwise
    products and numpy sums: a BLAS kernel sums in an order the CPU picks.
    The bounds of the basic columns (``lo_B``, ``hi_B``) are kept up to date
    at the columns a pivot swaps.  A nonbasic column's one state is the way
    it may move, ``direction``: +1 up from its lower bound, -1 down from its
    upper bound, 0 for a basic or fixed column (at 0 or at its one bound).
    The free nonbasic columns, at 0 and movable either way, are in ``free``.
    """

    def __init__(self, A: sp.csr_matrix, b: np.ndarray, ineq: np.ndarray, lb: np.ndarray,
                 ub: np.ndarray, c: np.ndarray):
        self.m, self.n = m, n = A.shape
        self.AT = A.T.tocsr()
        self.A = self.AT.T  # A in CSC, over the same arrays
        self.b = b
        self.c = np.concatenate([c, np.zeros(m)])
        lb = np.concatenate([lb, np.zeros(m)])
        ub = np.concatenate([ub, np.where(ineq, np.inf, 0.0)])
        up, down = self.c > 0, self.c < 0
        # A favoured bound that is infinite becomes an artificial one.
        self.art_ub, self.art_lb = up & np.isinf(ub), down & np.isinf(lb)
        self.art_bound = ARTIFICIAL_BOUND
        ub = np.where(self.art_ub, np.where(np.isfinite(lb), lb, 0.0) + ARTIFICIAL_BOUND, ub)
        lb = np.where(self.art_lb, np.where(np.isfinite(ub), ub, 0.0) - ARTIFICIAL_BOUND, lb)
        self.lb, self.ub = lb, ub
        self.free = np.flatnonzero(np.isinf(lb) & np.isinf(ub))
        self.direction = np.where(up | (~down & np.isinf(lb)), -1.0, 1.0) * (ub > lb)
        self.direction[self.free] = 0.0
        self.direction[n:] = 0.0
        self.basis = np.arange(n, n + m)
        self.Binv = np.eye(m)
        self.iterations = 0
        self.message = ""
        self._refresh()

    def _widen(self, what: str) -> bool:
        """Move the artificial bounds ten times further out; False at the cap."""
        if self.art_bound >= ARTIFICIAL_BOUND_CAP:
            self.message = f"{what} rests on an artificial bound"
            return False
        self.ub[self.art_ub] += 9.0 * self.art_bound
        self.lb[self.art_lb] -= 9.0 * self.art_bound
        self.art_bound *= 10.0
        self._refresh()
        return True

    def _at_artificial_bound(self) -> np.ndarray:
        return (self.art_ub & (self.direction < 0)) | (self.art_lb & (self.direction > 0))

    def _has_unbounded_ray(self, tol: float) -> bool:
        """Whether widening the artificial bounds without end keeps the basic
        columns within their real bounds.  The widening moves the point
        along a ray that gains the reduced cost of each column it pushes, so
        such a ray proves the LP unbounded."""
        out = np.flatnonzero(self._at_artificial_bound())
        r = -(self.Binv * (self.A[:, out] @ np.where(self.art_ub[out], 1.0, -1.0))).sum(axis=1)
        lo = np.where(self.art_lb[self.basis], -np.inf, self.lb[self.basis])
        hi = np.where(self.art_ub[self.basis], np.inf, self.ub[self.basis])
        return not (((r < -tol) & np.isfinite(lo)) | ((r > tol) & np.isfinite(hi))).any()

    def _nonbasic_point(self) -> np.ndarray:
        x = np.where(self.direction < 0, self.ub, self.lb)
        x[self.basis] = 0.0
        x[self.free] = 0.0
        return x

    def _refresh(self) -> None:
        """Recompute the basic values and the reduced costs from ``Binv``."""
        x = self._nonbasic_point()
        self.x_B = (self.Binv * (self.b - self.A @ x[:self.n] - x[self.n:])).sum(axis=1)
        c_B = self.c[self.basis]
        i = np.flatnonzero(c_B)  # a sum in row order: rows with no cost add only zeros
        y = (self.Binv[i].T * c_B[i]).sum(axis=1)
        self.d = self.c - np.concatenate([self.AT @ y, y])
        self.d[self.basis] = 0.0
        self.lo_B, self.hi_B = self.lb[self.basis], self.ub[self.basis]

    def solution(self) -> np.ndarray:
        """The current point, with one step of iterative refinement of the
        basic values against the rounding in ``Binv``."""
        x = self._nonbasic_point()
        x[self.basis] = self.x_B
        x[self.basis] += (self.Binv * (self.b - self.A @ x[:self.n] - x[self.n:])).sum(axis=1)
        return x

    def optimize(self) -> str:
        """Run dual simplex pivots to an optimal basis; returns a status string.

        The leaving row is the one with the largest bound violation; the
        entering column comes from a plain dual ratio test over the pivot
        row.  Basic values and reduced costs are updated at every pivot and
        recomputed every 100 pivots and before a verdict: an optimum (no
        violated row), kept only if its exact reduced costs are dual
        feasible, or an infeasibility proof (no entering column).  A verdict
        that rests on an artificial bound (an infeasibility proof whose row or
        pivot row touches one, or an optimum where a column's reduced cost
        pushes against one) widens the artificial bounds and goes on from the
        same basis, unless widening them moves the point along an unbounded
        ray.  At the cap either verdict becomes a numerical failure.
        """
        primal_tol = 1e-9
        dual_tol = 1e-9
        piv_tol = 1e-9
        m, n = self.m, self.n
        lb, ub, direction = self.lb, self.ub, self.direction
        flat = self.Binv.reshape(-1)
        stall = 0
        bland = False
        exact = True

        while True:
            if self.iterations % 100 == 0 and not exact:
                self._refresh()
                exact = True
            lo, hi = self.lo_B, self.hi_B
            infeas = np.maximum(lo - self.x_B, self.x_B - hi)
            if bland:
                rows = np.flatnonzero(infeas > primal_tol)
                r = int(rows[np.argmin(self.basis[rows])]) if len(rows) else 0
            else:
                r = int(infeas.argmax()) if m else 0
            optimal = not m or infeas[r] <= primal_tol
            if not optimal:
                if self.iterations >= MAX_ITERATIONS:
                    return NUMERICAL_FAILURE
                # The leaving variable rises to its lower bound (s = 1) or falls
                # to its upper bound (s = -1); the reduced costs move by
                # -t * s * alpha, so a column enters only if that pushes it the
                # way it may move.
                s = 1.0 if self.x_B[r] < lo[r] else -1.0
                rho = self.Binv[r]
                alpha = np.concatenate([self.AT @ rho, rho])
                push = direction * alpha
                cand = (push < -piv_tol if s > 0 else push > piv_tol).nonzero()[0]
                free = self.free
                if len(free):
                    cand = np.union1d(cand, free[np.abs(alpha[free]) > piv_tol])
            if optimal or not len(cand):
                if not exact:
                    self._refresh()
                    exact = True
                    continue
                if optimal:
                    verdict, what = self._check_optimum(dual_tol), "optimum"
                    artificial = verdict == UNBOUNDED and not self._has_unbounded_ray(primal_tol)
                else:
                    verdict, what, self.proof = INFEASIBLE, "infeasibility proof", rho
                    leave = self.basis[r]
                    artificial = ((self.art_lb[leave] if s > 0 else self.art_ub[leave])
                                  or (self._at_artificial_bound()
                                      & (np.abs(alpha) > piv_tol)).any())
                if not artificial:
                    return verdict
                if self._widen(what):
                    continue
                return NUMERICAL_FAILURE
            s_alpha = s * alpha[cand]
            ratios = np.maximum(self.d[cand] / s_alpha, 0.0)
            t = ratios.min()
            # Ties go to the largest |alpha|, or under Bland's rule to the
            # smallest column index.
            tied = ratios <= t + 1e-12 * (1.0 + t)
            k = tied.argmax() if bland else np.where(tied, np.abs(s_alpha), -1.0).argmax()
            q = int(cand[k])

            if t * infeas[r] <= 1e-12:
                stall += 1
                bland = bland or stall >= 300
            else:
                stall = 0
                bland = False

            if q < n:
                a, z = self.A.indptr[q], self.A.indptr[q + 1]
                w = (self.Binv[:, self.A.indices[a:z]] * self.A.data[a:z]).sum(axis=1)
            else:
                w = self.Binv[:, q - n].copy()
            nz = w.nonzero()[0]  # the only rows this pivot changes
            w_nz = w[nz]
            leave = self.basis[r]
            step = (self.x_B[r] - (lo[r] if s > 0 else hi[r])) / w[r]
            # An entering column with no direction is free, at 0.
            enter_val = (ub[q] if direction[q] < 0 else lb[q] if direction[q] > 0
                         else 0.0) + step
            self.x_B[nz] -= w_nz * step
            self.x_B[r] = enter_val
            lo[r], hi[r] = lb[q], ub[q]
            if not direction[q]:
                self.free = free[free != q]
            direction[leave] = s * (ub[leave] > lb[leave])
            direction[q] = 0.0
            self.basis[r] = q

            self.d -= (t * s) * alpha
            self.d[self.basis] = 0.0
            self.d[leave] = -s * t

            # Rank-1 update of Binv at rows nz and columns rnz, the only columns
            # where rho is nonzero, in place through flat indices; every other
            # entry would subtract w_i * 0.  Row r is then set to rho / w_r.
            rnz = rho.nonzero()[0]
            pivot_row = rho[rnz] / w[r]
            np.subtract.at(flat, (nz[:, None] * m + rnz).reshape(-1),
                           (w_nz[:, None] * pivot_row).reshape(-1))
            self.Binv[r, rnz] = pivot_row
            self.iterations += 1
            exact = False

    def _check_optimum(self, dual_tol: float) -> str:
        d = self.d
        if (self.direction * d > dual_tol).any() or (np.abs(d[self.free]) > dual_tol).any():
            return NUMERICAL_FAILURE
        if (self._at_artificial_bound() & (np.abs(d) > dual_tol)).any():
            return UNBOUNDED
        return OPTIMAL


def _proves_infeasible(prob: LpProblem, A, b, ineq, y: np.ndarray) -> bool:
    """Whether y is a Farkas certificate for the rows ``A x + s = b`` over the
    real bounds: ``y @ b`` lies more than ``FEASIBILITY_TOL`` outside the span
    of ``g @ (x, s)``, g = (A^T y, y), with |g_j| <= 1e-9 taken as 0."""
    g = np.concatenate([A.T @ y, y])
    on = np.abs(g) > 1e-9
    lo, hi = np.r_[prob.lower, np.zeros(len(b))], np.r_[prob.upper, np.where(ineq, np.inf, 0.0)]
    least, most = np.sort(g[on] * [lo[on], hi[on]], axis=0).sum(axis=1)
    return not least - FEASIBILITY_TOL <= y @ b <= most + FEASIBILITY_TOL


def bundled_simplex(prob: LpProblem, A, b, ineq, c) -> tuple[str, np.ndarray | None, int, str]:
    """Reference backend: deterministic bounded dual simplex, maximizing ``c @ x``
    over the working rows.

    One phase from the all-logical basis, which every LP telab builds makes
    dual feasible.  It has no primal simplex, so ``prob.simplex`` does not
    apply to it.  The optimum is clipped to the bounds, against round-off, and
    an infeasible verdict kept only if ``_proves_infeasible`` accepts its row
    of the inverse.  Returns a numerical failure, before allocating anything
    m x m, when the dense basis inverse and the temporaries of one update
    (24*m*m bytes) would pass ``DENSE_INVERSE_BUDGET_BYTES``.
    """
    m = A.shape[0]
    if 24 * m * m > DENSE_INVERSE_BUDGET_BYTES:
        return (NUMERICAL_FAILURE, None, 0,
                f"dense basis inverse of {m} working rows needs {24 * m * m:,} bytes, "
                f"over the {DENSE_INVERSE_BUDGET_BYTES:,}-byte budget")
    sx = _Simplex(A, b, ineq, prob.lower, prob.upper, c)
    status = sx.optimize()
    if status == INFEASIBLE and not _proves_infeasible(prob, A, b, ineq, sx.proof):
        return NUMERICAL_FAILURE, None, sx.iterations, "infeasibility proof failed re-check"
    if status != OPTIMAL:
        return status, None, sx.iterations, sx.message or f"simplex ended with {status}"
    x = sx.solution()[:prob.n_vars]
    np.clip(x, prob.lower, prob.upper, out=x)
    return OPTIMAL, x, sx.iterations, ""


def scipy_backend(prob: LpProblem, A, b, ineq, c) -> tuple[str, np.ndarray | None, int, str]:
    """External backend: HiGHS simplex through scipy, minimizing ``-c @ x``
    over the working rows, handed over sparse (vertex solutions).

    ``method="highs-ds"`` keeps HiGHS off its interior-point solver;
    ``prob.simplex`` becomes HiGHS's ``simplex_strategy``, which scipy passes
    on verbatim with an "Unrecognized options" warning, filtered here by that
    message alone.  HiGHS's presolve can call an unbounded LP infeasible, so
    an infeasible verdict is solved once more without presolve, and stands
    unless that solve ends optimal or unbounded; the iterations of both
    solves are reported.  An LP without variables is optimal at x = [].
    """
    from scipy.optimize import OptimizeWarning, linprog

    if not prob.n_vars:
        return OPTIMAL, np.zeros(0), 0, ""

    def highs(**extra):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
            return linprog(-c, A_ub=A[ineq], b_ub=b[ineq], A_eq=A[~ineq], b_eq=b[~ineq],
                           bounds=np.column_stack([prob.lower, prob.upper]), method="highs-ds",
                           options={"simplex_strategy": _HIGHS_SIMPLEX_STRATEGY[prob.simplex],
                                    **extra})

    res = highs()
    iterations = int(res.get("nit", 0))
    if res.status == 2:
        again = highs(presolve=False)
        iterations += int(again.get("nit", 0))
        if again.status in (0, 3):  # an optimum or a ray overturns the verdict; an error does not
            res = again
    if res.status == 0:
        return OPTIMAL, np.asarray(res.x), iterations, ""
    status = {2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, NUMERICAL_FAILURE)
    return status, None, iterations, str(res.message)


BACKENDS = {"bundled": bundled_simplex, "scipy": scipy_backend}


def solve(prob: LpProblem, backend: str = "bundled") -> LpSolution:
    """Solve with the named backend; the only maker of an ``LpSolution``.

    It checks the backend name and ``prob.simplex``, then calls
    ``backend(prob, A, b, ineq, c) -> (status, x, iterations, message)`` on the
    working rows with ``c`` in maximizing form, unless a constant row that can
    never hold makes the LP infeasible.  ``solve_time`` covers these steps, not
    the first import of scipy's solvers.  An optimal ``x`` is accepted only
    after direct substitution into the original rows and bounds succeeds;
    otherwise the status is downgraded to a numerical failure with the
    violations listed.  The objective is ``prob.c @ x``.
    """
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ValidationError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}") from None
    if prob.simplex not in _HIGHS_SIMPLEX_STRATEGY:
        raise ValidationError(f"unknown simplex {prob.simplex!r}; "
                              f"available: {sorted(_HIGHS_SIMPLEX_STRATEGY)}")
    if backend == "scipy":
        import scipy.optimize  # noqa: F401  (lazy, and outside solve_time)
    t0 = time.perf_counter()
    std = _standardize(prob)
    if std is None:
        status, x, iterations, message = INFEASIBLE, None, 0, "constant infeasible row"
    else:
        status, x, iterations, message = fn(prob, *std, prob.c if prob.maximize else -prob.c)
    solve_time = time.perf_counter() - t0
    if status == OPTIMAL:
        issues = check_feasibility(prob, x)
        if issues:
            status, x = NUMERICAL_FAILURE, None
            message = "solution failed feasibility re-check: " + "; ".join(issues[:5])
    objective = float(prob.c @ x) if status == OPTIMAL else math.nan
    return LpSolution(status, objective, x, solve_time, iterations, message)
