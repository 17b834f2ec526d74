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
one phase and no artificial columns.  It refuses a hand-built LP whose
objective favours an infinite bound; the scipy backend solves any LP.
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
appends one block, a rule for its rows, and every reader walks the blocks in
place.  A block is a CSR template with one sense, held over scenarios: each
row is a template row without the columns its scenario kills.  The FFC
builder's blocks hold every failure scenario so; any other block is one
scenario in which no column dies.  Every model builder names a block's rows
by one format over their (scenario, template row) cells, so a model with a
million rows holds no string per row; only hand-built rows pass a list.
Nothing here stacks every literal row or lists every name: a solve never
needs them, and the tests' views of them are in their oracles.

A model builder may mark a row as implied by another row of the problem over
the variable bounds; the mark is the whole presolve.  Both backends solve
only the unmarked (working) rows, built straight from the templates, while
the row count keeps every literal row.  Every optimal solution is
re-verified by direct substitution into all the original rows, a chunk of
scenarios at a time, before ``solve`` returns it; the rows that fail at scale
1 are rebuilt by ``_scenario_rows`` and tested at the scale their kept entries
give.  So a wrong mark, like any other fault, is reported as a numerical
failure, never as a silent wrong answer.  A bundled infeasible verdict is
checked too, as a proof that the working rows, some of the LP's rows, have
no point.
"""
from __future__ import annotations

import math
import time
import warnings
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
# Values of x, one copy per scenario, that the re-check of a block holds at once.
_RECHECK_CHUNK = 1 << 14


class _Block(NamedTuple):
    """The rows of one ``add_rows`` call, held as a rule over a template.

    Row (q, i) of the block is template row i without the leading columns
    dead in scenario q (``alive[q, j]`` false), for each cell where
    ``live[q, i]`` holds, in scenario-major order, with right-hand side
    ``rhs[i]``.  A plain block is the one-scenario case with no columns that
    can die.  ``names`` is a list, one per row of the block, or one format
    that names row (q, i) ``names.format(q, i)``.
    """

    start: int  # LP index of the block's first row
    size: int  # rows of the block
    template: sp.csr_matrix  # over every variable of the LP
    sense: str
    rhs: np.ndarray  # per template row
    alive: np.ndarray  # scenario x leading column
    live: np.ndarray  # scenario x template row: the row exists
    implied: np.ndarray  # scenario x template row: the row is marked implied
    names: str | list[str]  # a format over (q, i), or one per row of the block

    def name(self, q: int, i: int, j: int) -> str:
        """The name of the block's row j, which is its cell (q, i)."""
        return self.names.format(q, i) if isinstance(self.names, str) else self.names[j]


def _scenario_rows(template: sp.csr_matrix, alive: np.ndarray,
                   rows: np.ndarray) -> sp.csr_matrix:
    """The template's rows for every scenario q in turn, those where
    ``rows[q]`` holds, each without the leading columns dead in q, as one CSR.

    ``alive`` is scenario x leading column; a column past them never dies.
    One mask over the template's entries, for each scenario with a row to
    build, selects the kept entries of all of them at once.
    """
    m = template.shape[0]
    qs = np.flatnonzero(rows.any(axis=1))
    keep = np.repeat(rows[qs], np.diff(template.indptr), axis=1)
    dies = template.indices < alive.shape[1]
    keep[:, dies] &= alive[np.ix_(qs, template.indices[dies])]
    q, e = np.nonzero(keep)  # scenario-major, entries ascending: so are their rows
    cell = qs[q] * m + np.searchsorted(template.indptr, e, side="right") - 1
    indptr = np.append(np.searchsorted(cell, np.flatnonzero(rows)), len(cell))
    return sp.csr_matrix((template.data[e], template.indices[e], indptr),
                         shape=(len(indptr) - 1, template.shape[1]))


@dataclass(eq=False)
class LpProblem:
    """A sparse LP built incrementally: variables, constraint rows, objective.

    The columns are float64 arrays of length ``n_vars``: the bounds ``lower``
    and ``upper`` and the objective ``c``, which ``add_vars`` extends with
    zeros.  The rows are a store of blocks, one per ``add_rows`` call, each
    a rule (``_Block``) with one sense, its builder's marks "implied by
    another row" and its names: a format from every model builder, a list
    for hand-built rows.  The solve, the re-check and the row count read the
    blocks in place.  ``simplex`` ("dual" or "primal") names the simplex a
    backend that has both should run; ``solve`` checks it.
    """

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
        return self._blocks[-1].start + self._blocks[-1].size if self._blocks else 0

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
            blk.template.resize((len(blk.rhs), self.n_vars))
        return self.n_vars - len(names)

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf) -> int:
        return self.add_vars([name], [lb], [ub])

    def add_rows(self, matrix, sense: str, rhs, names: str | list[str], implied=None,
                 alive=None, live=None) -> int:
        """Append a block of rows sharing one sense; returns the first new row index.

        Without ``alive`` and ``live`` each row of ``matrix`` is one row of the
        LP, and ``implied`` marks, per row, that another row of the problem
        implies it over the variable bounds, so the backends need not solve
        it.  With them ``matrix`` is a template over scenarios: ``alive`` is
        scenario x leading column (false where the column is dead) and
        ``live`` and ``implied`` are scenario x template row, and the block's
        rows are, for each scenario q in turn, the template rows i with
        ``live[q, i]``, each without the columns dead in q, right-hand side
        ``rhs[i]``.  ``names`` is a list with one name per row, or one format
        that names row (q, i) ``names.format(q, i)``.  The LP owns a CSR
        ``matrix`` of float64, the masks and a ``names`` list from then on:
        they are kept, not copied, and the caller must not change them.
        """
        if sense not in _SENSES:
            raise ValidationError(f"unknown constraint sense {sense!r}")
        template = sp.csr_matrix(matrix, dtype=float)
        rhs = np.array(rhs, dtype=float).reshape(-1)
        m = template.shape[0]
        live = np.ones((1, m), dtype=bool) if live is None else np.asarray(live, dtype=bool)
        alive = (np.ones((len(live), 0), dtype=bool) if alive is None
                 else np.asarray(alive, dtype=bool))
        implied = np.zeros(live.shape, dtype=bool) if implied is None else np.asarray(
            implied, dtype=bool)
        size = int(np.count_nonzero(live))
        n_names = size if isinstance(names, str) else len(names)
        if not (len(rhs) == m and n_names == size and implied.size == live.size):
            raise ValidationError(f"row block: {m} rows, {len(rhs)} rhs, {n_names} names, "
                                  f"{implied.size} implied marks")
        if not (alive.ndim == live.ndim == 2 and len(alive) == len(live)
                and live.shape[1] == m and alive.shape[1] <= self.n_vars):
            raise ValidationError(f"row block: masks of shapes {alive.shape} and {live.shape} "
                                  f"for {m} rows over {self.n_vars} variables")
        if isinstance(names, str):
            try:  # one cell now, not a bare error from a later reader of the names
                names.format(0, 0)
            except (LookupError, ValueError, AttributeError, TypeError) as e:
                raise ValidationError(f"row names format {names!r}: {e}") from None
        blk = _Block(self.n_constraints, size, template, sense, rhs, alive, live,
                     implied.reshape(live.shape), names)

        def name_of(i):  # a template row is named by its first row in the block
            q = int(live[:, i].argmax())
            j = int(np.count_nonzero(live[:q])) + int(np.count_nonzero(live[q, :i]))
            return blk.name(q, int(i), j) if live[q, i] else f"template row {i}"

        if not np.isfinite(rhs).all():
            name = name_of(int(np.argmax(~np.isfinite(rhs))))
            raise ValidationError(f"constraint {name!r}: right-hand side must be finite")
        j = template.indices
        bad = (j < 0) | (j >= self.n_vars) | ~np.isfinite(template.data)
        if bad.any():
            k = int(np.argmax(bad))
            name = name_of(np.searchsorted(template.indptr, k, side="right") - 1)
            what = ("non-finite coefficient" if 0 <= j[k] < self.n_vars
                    else f"unknown variable index {j[k]}")
            raise ValidationError(f"constraint {name!r}: {what}")
        template.resize((m, self.n_vars))
        self._blocks.append(blk)
        return blk.start

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
    """Substitute x into the original rows and bounds; return violations.

    A block's rows are evaluated a chunk of scenarios at a time, as the
    template times ``x`` with the columns dead in each scenario set to 0:
    every kept entry adds the term it adds to the row, in the row's order, and
    a dead one adds 0, so each row's sum is the one its own entries give.  A
    row's tolerance is ``FEASIBILITY_TOL`` times its largest kept |coefficient|
    (a repeated column's entries unmerged), at least 1: the rows that fail at
    scale 1 are rebuilt by ``_scenario_rows`` and tested again at that scale.
    """
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
        T, alive, live, sense = blk.template, blk.alive, blk.live, blk.sense
        n_die = alive.shape[1]
        step = max(1, _RECHECK_CHUNK // max(len(x), 1))
        first = 0  # the block's index of the chunk's first row
        for q0 in range(0, len(live), step):
            on, kept = live[q0:q0 + step], alive[q0:q0 + step]
            X = np.empty((len(x), len(on)))
            X[:n_die] = np.where(kept.T, x[:n_die, None], 0.0)
            X[n_die:] = x[n_die:, None]
            lhs = (T @ X).T  # scenario x template row
            resid = lhs - blk.rhs
            # No row's scale is below 1, so only a row that fails at scale 1 is
            # tested again, at the scale of the entries its scenario keeps.
            bad = _violated(resid, FEASIBILITY_TOL, sense) & on
            if bad.any():
                rows = _scenario_rows(T, kept, bad)
                filled = np.diff(rows.indptr) > 0
                scale = np.ones(len(filled))
                scale[filled] = np.maximum(1.0, np.maximum.reduceat(
                    np.abs(rows.data), rows.indptr[:-1][filled]))
                q, i = np.nonzero(bad)
                index = (first - 1 + np.cumsum(on).reshape(bad.shape))[q, i]
                for k in np.flatnonzero(_violated(resid[q, i], FEASIBILITY_TOL * scale, sense)):
                    row_lhs = float(lhs[q[k], i[k]]) if filled[k] else 0  # an empty sum is int 0
                    j = int(index[k])
                    name = blk.name(q0 + int(q[k]), int(i[k]), j) or blk.start + j
                    issues.append(f"row {name}: lhs {row_lhs!r} "
                                  f"{sense} rhs {float(blk.rhs[i[k]])!r} violated")
            first += int(np.count_nonzero(on))
    return issues


def _violated(resid, tol, sense: str):
    return resid > tol if sense == "<=" else resid < -tol if sense == ">=" else np.abs(resid) > tol


def _standardize(prob: LpProblem):
    """The working rows both backends solve, as (A, b, ineq), or None for a
    constant row that can never hold.

    The rows not marked implied, built straight from each block's template,
    with >= rows negated to <=, duplicate coefficients merged, zero
    coefficients dropped, and an empty row that holds dropped.  The FFC
    builder marks every failure-scenario capacity row implied, so both
    capacity modes give the same working rows.
    """
    mats, bs, ineqs = [sp.csr_matrix((0, prob.n_vars))], [np.zeros(0)], [np.zeros(0, dtype=bool)]
    for blk in prob._blocks:
        keep = blk.live & ~blk.implied
        flip = -1.0 if blk.sense == ">=" else 1.0
        A = _scenario_rows(blk.template, blk.alive, keep) * flip
        A.sum_duplicates()
        A.eliminate_zeros()
        b, ineq = flip * np.broadcast_to(blk.rhs, keep.shape)[keep], blk.sense != "="
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

MAX_ITERATIONS = 200_000  # pivots before the bundled simplex reports a numerical failure


class _Simplex:
    """Bounded dual simplex on ``A x + s = b``, maximizing ``c @ x``.

    Row i has an implicit logical column ``e_i`` in [0, inf) for an inequality
    and [0, 0] for an equality; logicals are numbered after the structurals.
    The start is the all-logical basis (``Binv = I``) with every structural at
    the bound its objective favours, which must be finite, so the start is
    dual feasible and there is no phase 1.  The basis inverse ``Binv`` is a
    dense m x m array, updated in product form at every pivot.  Only the
    rows where the entering column ``w = Binv a_q`` is nonzero change in
    ``x_B`` and ``Binv``, and in ``Binv`` only the columns where the pivot row
    ``Binv[r]`` is nonzero; every other entry would subtract ``0 * y``.  Products with ``Binv`` are elementwise
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
        self.lb, self.ub = lb, ub
        self.free = np.flatnonzero(np.isinf(lb) & np.isinf(ub))
        self.direction = np.where(up | (~down & np.isinf(lb)), -1.0, 1.0) * (ub > lb)
        self.direction[self.free] = 0.0
        self.direction[n:] = 0.0
        self.basis = np.arange(n, n + m)
        self.Binv = np.eye(m)
        self.iterations = 0
        self._refresh()

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
        feasible, or an infeasibility proof (no entering column), whose row
        of the inverse is kept as ``proof``.
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
                if not optimal:
                    self.proof = rho
                    return INFEASIBLE
                d = self.d
                dual_ok = not ((direction * d > dual_tol).any()
                               or (np.abs(d[self.free]) > dual_tol).any())
                return OPTIMAL if dual_ok else NUMERICAL_FAILURE
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


def _proves_infeasible(prob: LpProblem, A, b, ineq, y: np.ndarray) -> bool:
    """Whether y is a Farkas certificate for the rows ``A x + s = b`` over the
    real bounds: ``y @ b`` lies more than ``FEASIBILITY_TOL`` outside the span
    of ``g @ (x, s)``, g = (A^T y, y), with |g_j| <= 1e-9 taken as 0."""
    g = np.concatenate([A.T @ y, y])
    on = np.abs(g) > 1e-9
    lo, hi = np.r_[prob.lower, np.zeros(len(b))], np.r_[prob.upper, np.where(ineq, np.inf, 0.0)]
    least, most = np.sort(g[on] * [lo[on], hi[on]], axis=0).sum(axis=1)
    return not least - FEASIBILITY_TOL <= (y * b).sum() <= most + FEASIBILITY_TOL


def bundled_simplex(prob: LpProblem, A, b, ineq, c) -> tuple[str, np.ndarray | None, int, str]:
    """Reference backend: deterministic bounded dual simplex, maximizing ``c @ x``
    over the working rows.

    One phase from the all-logical basis, which every LP telab builds makes
    dual feasible.  It has no primal simplex, so ``prob.simplex`` does not
    apply to it, and no unbounded verdict.  The optimum is clipped to the
    bounds, against round-off, and an infeasible verdict kept only if
    ``_proves_infeasible`` accepts its row of the inverse.  Before allocating
    anything m x m, it returns a numerical failure with 0 iterations for an
    LP with no such start, one whose objective favours an infinite bound
    (``c_j > 0``, ``upper = inf`` or ``c_j < 0``, ``lower = -inf``), and for
    one whose dense basis inverse and the temporaries of one update (24*m*m
    bytes) would pass ``DENSE_INVERSE_BUDGET_BYTES``.
    """
    unstartable = ((c > 0) & (prob.upper == math.inf)) | ((c < 0) & (prob.lower == -math.inf))
    if unstartable.any():
        return (NUMERICAL_FAILURE, None, 0,
                f"variable {prob.var_names[int(unstartable.argmax())]!r}: its objective "
                "favours an infinite bound, which the bundled simplex cannot start from; "
                "use the scipy backend")
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
        return status, None, sx.iterations, f"simplex ended with {status}"
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
    violations listed.  The objective is ``prob.c @ x``, summed by numpy rather
    than BLAS, so its bits do not depend on the CPU.
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
    objective = float((prob.c * x).sum()) if status == OPTIMAL else math.nan
    return LpSolution(status, objective, x, solve_time, iterations, message)
