"""Sparse linear programs, the solver backend contract, and a bundled simplex.

The backend interface is a function ``backend(problem) -> LpSolution`` looked
up by name in ``BACKENDS``; backends are interchangeable because solution
quality, tunnel usage, and runtime all depend on which one is picked.  The
bundled backend is a bounded-variable two-phase revised simplex (dense basis
inverse, sparse constraint columns) that always returns a vertex solution and
falls back to Bland's rule when it stalls on degenerate bases.  The scipy
backend hands the same rows to HiGHS (dual simplex); both report
``solution_kind="vertex"``.  Interior-point methods are deliberately not
offered.

A model builder may mark a row as implied by another row of the problem over
the variable bounds; the mark is the whole presolve.  Both backends solve
only the unmarked (working) rows, while ``rows``, the LP text export and the
row count keep every literal row.  Every optimal solution is re-verified by
direct substitution into all the original rows before it leaves this module,
so a wrong mark, like any other fault, is reported as a numerical failure,
never as a silent wrong answer.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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


@dataclass(eq=False)
class LpProblem:
    """A sparse LP built incrementally: variables, constraint rows, objective.

    The rows are one CSR store, appended in blocks that share a sense by
    ``add_rows`` (one row: ``add_constraint``) and read back whole by ``rows``.
    Each row also carries its builder's mark "implied by another row"
    (``implied``, default False).
    """

    name: str = ""
    var_names: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)
    objective: list[tuple[int, float]] = field(default_factory=list)
    maximize: bool = True
    _blocks: list[tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=lambda: [(sp.csr_matrix((0, 0)), np.empty(0, "<U2"), np.empty(0),
                                  np.empty(0, dtype=bool))],
        init=False, repr=False)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_constraints(self) -> int:
        return len(self.row_names)

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf) -> int:
        if math.isnan(lb) or math.isnan(ub) or lb > ub or lb == math.inf or ub == -math.inf:
            raise ValidationError(f"variable {name!r}: bounds must satisfy lb <= ub")
        self.var_names.append(name)
        self.lower.append(float(lb))
        self.upper.append(float(ub))
        return len(self.var_names) - 1

    def add_rows(self, matrix, sense: str, rhs, names: list[str], implied=None) -> int:
        """Append a block of rows sharing one sense; returns the first new row index.

        ``implied`` marks, per row, that another row of the problem implies it
        over the variable bounds, so the backends need not solve it.
        """
        if sense not in _SENSES:
            raise ValidationError(f"unknown constraint sense {sense!r}")
        block = sp.csr_matrix(matrix, dtype=float, copy=True)
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
        self._blocks.append((block, np.full(m, sense), rhs, implied))
        self.row_names.extend(names)
        return self.n_constraints - m

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

    def _merged(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
        if len(self._blocks) > 1 or self._blocks[0][0].shape[1] != self.n_vars:
            for mat, *_ in self._blocks:
                mat.resize((mat.shape[0], self.n_vars))
            mats, senses, rhs, implied = zip(*self._blocks)
            self._blocks = [(sp.vstack(mats, format="csr"), np.concatenate(senses),
                             np.concatenate(rhs), np.concatenate(implied))]
        return self._blocks[0]

    def rows(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Every constraint row: (CSR matrix over all variables, senses, rhs)."""
        return self._merged()[:3]

    @property
    def implied(self) -> np.ndarray:
        """Per row: marked by its builder as implied by another row."""
        return self._merged()[3]

    def set_objective(self, coeffs: list[tuple[int, float]], maximize: bool = True) -> None:
        for j, c in coeffs:
            if not 0 <= j < self.n_vars:
                raise ValidationError(f"objective: unknown variable index {j}")
            if not math.isfinite(c):
                raise ValidationError("objective: non-finite coefficient")
        self.objective = list(coeffs)
        self.maximize = maximize

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        for j, v in self.objective:
            c[j] += v
        return c


@dataclass
class LpSolution:
    status: str
    objective: float
    values: np.ndarray | None
    solve_time: float
    solution_kind: str
    iterations: int = 0
    message: str = ""


def check_feasibility(
    prob: LpProblem,
    x: np.ndarray,
    row_tol: float = FEASIBILITY_TOL,
    bound_tol: float = BOUND_TOL,
) -> list[str]:
    """Substitute x into the original rows and bounds; return violations."""
    issues: list[str] = []
    lower = np.asarray(prob.lower)
    upper = np.asarray(prob.upper)
    low_bad = np.nonzero(x < lower - bound_tol)[0]
    up_bad = np.nonzero(x > upper + bound_tol)[0]
    for j in low_bad:
        issues.append(f"var {prob.var_names[j]}: {float(x[j])!r} below lower bound "
                      f"{float(lower[j])!r}")
    for j in up_bad:
        issues.append(f"var {prob.var_names[j]}: {float(x[j])!r} above upper bound "
                      f"{float(upper[j])!r}")
    A, senses, rhs = prob.rows()
    lhs = A @ x
    filled = np.diff(A.indptr) > 0
    scale = np.ones(len(rhs))  # max(1, largest |coefficient|) per row
    scale[filled] = np.maximum(1.0, np.maximum.reduceat(np.abs(A.data), A.indptr[:-1][filled]))
    resid, tol = lhs - rhs, row_tol * scale
    bad = np.where(senses == "<=", resid > tol,
                   np.where(senses == ">=", resid < -tol, np.abs(resid) > tol))
    for i in np.flatnonzero(bad):
        row_lhs = float(lhs[i]) if filled[i] else 0  # an empty sum is the integer 0
        issues.append(f"row {prob.row_names[i] or i}: lhs {row_lhs!r} {senses[i]} "
                      f"rhs {float(rhs[i])!r} violated")
    return issues


def _working_rows(prob: LpProblem) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """What both backends solve: the rows not marked implied, >= rows negated
    to <= and duplicate coefficients merged, as (A, b, inequality mask)."""
    A, senses, rhs = prob.rows()
    keep = ~prob.implied
    flip = np.where(senses[keep] == ">=", -1.0, 1.0)
    A = sp.diags(flip) @ A[keep]
    A.sum_duplicates()
    return A, flip * rhs[keep], senses[keep] != "="


# ---------------------------------------------------------------------------
# Bundled revised simplex
# ---------------------------------------------------------------------------

_AT_LB, _AT_UB, _BASIC, _FREE = 0, 1, 2, 3


def _standardize(prob: LpProblem):
    """Convert the working rows to equality standard form with slacks.

    The FFC builder marks every failure-scenario capacity row implied, so both
    capacity modes give the same working rows.  Zero coefficients are dropped,
    and so is an empty row that holds.  Returns (A, b, slack_of_row) where A
    has one slack column per remaining inequality row, or None for a
    constant-false row.
    """
    n = prob.n_vars
    A, b, ineq = _working_rows(prob)
    A.eliminate_zeros()
    filled = np.diff(A.indptr) > 0
    if (~filled & np.where(ineq, b < -FEASIBILITY_TOL, np.abs(b) > FEASIBILITY_TOL)).any():
        return None  # constant row that can never hold
    A, b, ineq = A[filled], b[filled], ineq[filled]
    n_slack = int(ineq.sum())
    slack_of_row = np.full(len(b), -1, dtype=int)
    slack_of_row[ineq] = n + np.arange(n_slack)
    slacks = sp.csr_matrix((np.ones(n_slack), (np.flatnonzero(ineq), np.arange(n_slack))),
                           shape=(len(b), n_slack))
    return sp.hstack([A, slacks], format="csc"), b, slack_of_row


class _Simplex:
    """Bounded-variable revised simplex over equality form with artificials."""

    def __init__(self, A: sp.csc_matrix, b: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                 slack_of_row: np.ndarray, max_iter: int):
        self.m, n_cols = A.shape
        self.max_iter = max_iter
        m = self.m

        # Nonbasic start: finite lower bound, else finite upper, else free at 0.
        status = np.full(n_cols, _AT_LB, dtype=np.int8)
        start = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        status[~np.isfinite(lb) & np.isfinite(ub)] = _AT_UB
        status[~np.isfinite(lb) & ~np.isfinite(ub)] = _FREE

        resid = b - A @ start

        basis = np.empty(m, dtype=int)
        x_B = np.empty(m)
        art_sign = np.zeros(m)
        art_rows: list[int] = []
        for i in range(m):
            s_col = slack_of_row[i]
            if s_col >= 0 and resid[i] >= 0.0:
                basis[i] = s_col
                x_B[i] = resid[i]
                status[s_col] = _BASIC
            else:
                art_rows.append(i)
                art_sign[i] = 1.0 if resid[i] >= 0.0 else -1.0
                x_B[i] = abs(resid[i])

        n_art = len(art_rows)
        if n_art:
            art_data = art_sign[art_rows]
            art_mat = sp.csc_matrix((art_data, (art_rows, np.arange(n_art))), shape=(m, n_art))
            A = sp.hstack([A, art_mat], format="csc")
            lb = np.concatenate([lb, np.zeros(n_art)])
            ub = np.concatenate([ub, np.full(n_art, np.inf)])
            status = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int8)])
            for k, i in enumerate(art_rows):
                basis[i] = n_cols + k

        self.A = A
        self.AT = A.T.tocsr()
        self.b = b
        self.lb = lb
        self.ub = ub
        self.status = status
        self.basis = basis
        self.x_B = x_B
        self.n_total = A.shape[1]
        self.n_art = n_art
        self.art_cols = np.arange(n_cols, n_cols + n_art)
        self.Binv = np.eye(m)
        for i in art_rows:
            if art_sign[i] < 0:
                self.Binv[i, i] = -1.0
        self.total_iters = 0

    def _column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        a, z = self.A.indptr[j], self.A.indptr[j + 1]
        return self.A.indices[a:z], self.A.data[a:z]

    def _nonbasic_point(self) -> np.ndarray:
        x = np.where(self.status == _AT_UB, self.ub, np.where(np.isfinite(self.lb), self.lb, 0.0))
        x[self.status == _FREE] = 0.0
        x[self.status == _BASIC] = 0.0
        return x

    def _refresh_basics(self) -> None:
        resid = self.b - self.A @ self._nonbasic_point()
        self.x_B = self.Binv @ resid

    def solution(self) -> np.ndarray:
        x = self._nonbasic_point()
        x[self.basis] = self.x_B
        return x

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        y = self.Binv.T @ c[self.basis]
        return c - self.AT @ y

    def optimize(self, c: np.ndarray) -> str:
        """Maximize c @ x from the current basis; returns a status string.

        Reduced costs are carried between iterations with the pivot-row
        update and recomputed exactly on a fixed cadence and before any
        claim of optimality.
        """
        m = self.m
        dual_tol = 1e-9
        piv_tol = 1e-10
        stall = 0
        bland = False
        with np.errstate(invalid="ignore"):
            fixed = (self.ub - self.lb) <= 0  # fixed columns can never change value
        d = self._reduced_costs(c)
        d_exact = True
        iters_left = self.max_iter - self.total_iters

        for _ in range(max(iters_left, 0)):
            self.total_iters += 1
            if self.total_iters % 100 == 0:
                self._refresh_basics()
                d = self._reduced_costs(c)
                d_exact = True
            up = (d > dual_tol) & ((self.status == _AT_LB) | (self.status == _FREE)) & ~fixed
            down = (d < -dual_tol) & ((self.status == _AT_UB) | (self.status == _FREE)) & ~fixed
            eligible = up | down
            if not eligible.any():
                if not d_exact:
                    d = self._reduced_costs(c)
                    d_exact = True
                    continue
                self._refresh_basics()
                return OPTIMAL
            if bland:
                j = int(np.nonzero(eligible)[0][0])
            else:
                score = np.where(eligible, np.abs(d), 0.0)
                j = int(np.argmax(score))
            sigma = 1.0 if up[j] else -1.0

            rows, vals = self._column(j)
            w = self.Binv[:, rows] @ vals
            swi = sigma * w

            ratios = np.full(m, np.inf)
            dec = swi > piv_tol
            inc = swi < -piv_tol
            if dec.any():
                ratios[dec] = (self.x_B[dec] - self.lb[self.basis[dec]]) / swi[dec]
            if inc.any():
                ratios[inc] = (self.ub[self.basis[inc]] - self.x_B[inc]) / (-swi[inc])
            np.maximum(ratios, 0.0, out=ratios)
            r_min = ratios.min() if m else np.inf
            span = self.ub[j] - self.lb[j]
            t_flip = span if np.isfinite(span) else np.inf

            if not np.isfinite(min(r_min, t_flip)):
                return UNBOUNDED

            gain = abs(d[j]) * min(r_min, t_flip)
            if gain <= 1e-12:
                stall += 1
                if stall >= 300:
                    bland = True
            else:
                stall = 0
                bland = False

            if t_flip <= r_min:
                # Bound flip: variable jumps to its opposite bound, basis unchanged.
                self.x_B -= swi * t_flip
                self.status[j] = _AT_UB if self.status[j] == _AT_LB else _AT_LB
                continue

            cand = np.nonzero(ratios <= r_min + 1e-12 * (1.0 + r_min))[0]
            if bland:
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                r = int(cand[np.argmax(np.abs(w[cand]))])
            t = float(ratios[r])

            self.x_B -= swi * t
            leave = self.basis[r]
            self.status[leave] = _AT_LB if swi[r] > 0 else _AT_UB
            if self.status[j] == _AT_UB:
                enter_val = self.ub[j] - t
            elif self.status[j] == _AT_LB:
                enter_val = self.lb[j] + t
            else:
                enter_val = sigma * t
            self.status[j] = _BASIC
            self.basis[r] = j
            self.x_B[r] = enter_val

            pivot = w[r]
            self.Binv[r, :] /= pivot
            col = w.copy()
            col[r] = 0.0
            self.Binv -= np.outer(col, self.Binv[r, :])
            d_j = d[j]
            d -= d_j * (self.AT @ self.Binv[r, :])
            d[j] = 0.0
            d_exact = False
        return NUMERICAL_FAILURE


def bundled_simplex(prob: LpProblem, max_iter: int = 200_000) -> LpSolution:
    """Reference backend: deterministic two-phase bounded revised simplex.

    Phase 1 drives artificials to zero when the all-slack start is infeasible;
    phase 2 optimizes the real objective.  Returns a vertex solution.
    """
    n = prob.n_vars
    std = _standardize(prob)
    if std is None:
        return LpSolution(INFEASIBLE, math.nan, None, 0.0, "vertex",
                          message="constant infeasible row")
    A, b, slack_of_row = std
    n_cols = A.shape[1]
    lb = np.concatenate([np.asarray(prob.lower, dtype=float), np.zeros(n_cols - n)])
    ub = np.concatenate([np.asarray(prob.upper, dtype=float), np.full(n_cols - n, np.inf)])

    sx = _Simplex(A, b, lb, ub, slack_of_row, max_iter)

    if sx.n_art:
        c1 = np.zeros(sx.n_total)
        c1[sx.art_cols] = -1.0
        status = sx.optimize(c1)
        if status != OPTIMAL:
            return LpSolution(NUMERICAL_FAILURE, math.nan, None, 0.0, "vertex",
                              iterations=sx.total_iters,
                              message=f"phase 1 ended with {status}")
        infeas = float(sx.solution()[sx.art_cols].sum())
        if infeas > 1e-7 * (1.0 + float(np.abs(b).max(initial=0.0))):
            return LpSolution(INFEASIBLE, math.nan, None, 0.0, "vertex",
                              iterations=sx.total_iters,
                              message=f"phase 1 residual {infeas:.3e}")
        sx.ub[sx.art_cols] = 0.0

    sign = 1.0 if prob.maximize else -1.0
    c2 = np.zeros(sx.n_total)
    c2[:n] = sign * prob.objective_vector()
    status = sx.optimize(c2)
    if status != OPTIMAL:
        return LpSolution(status, math.nan, None, 0.0, "vertex",
                          iterations=sx.total_iters,
                          message=f"simplex ended with {status}")

    x = sx.solution()[:n]
    # Snap round-off noise at the bounds.
    np.clip(x, np.asarray(prob.lower), np.asarray(prob.upper), out=x)
    obj = float(prob.objective_vector() @ x)
    return LpSolution(OPTIMAL, obj, x, 0.0, "vertex", iterations=sx.total_iters)


def scipy_backend(prob: LpProblem) -> LpSolution:
    """External backend: HiGHS dual simplex through scipy (vertex solutions).

    The working rows are handed over sparse so the backend stays usable on
    instances far beyond what the bundled dense-basis simplex can hold.
    """
    from scipy.optimize import linprog

    sign = -1.0 if prob.maximize else 1.0
    c = sign * prob.objective_vector()
    A, b, ineq = _working_rows(prob)
    a_ub, b_ub = (A[ineq], b[ineq]) if ineq.any() else (None, None)
    a_eq, b_eq = (A[~ineq], b[~ineq]) if not ineq.all() else (None, None)
    bounds = [
        (lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None)
        for lo, hi in zip(prob.lower, prob.upper)
    ]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs-ds",
    )
    if res.status == 0:
        x = np.asarray(res.x)
        obj = float(prob.objective_vector() @ x)
        return LpSolution(OPTIMAL, obj, x, 0.0, "vertex", iterations=int(res.nit))
    status = {2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, NUMERICAL_FAILURE)
    return LpSolution(status, math.nan, None, 0.0, "vertex",
                      iterations=int(getattr(res, "nit", 0)), message=str(res.message))


BACKENDS = {
    "bundled": bundled_simplex,
    "scipy": scipy_backend,
}


def solve(prob: LpProblem, backend: str = "bundled") -> LpSolution:
    """Solve with the named backend; solve_time covers the solve call only,
    not the first import of scipy's solvers.

    An optimal result is accepted only after direct substitution into the
    original rows and bounds succeeds; otherwise the status is downgraded to
    a numerical failure with the violations listed.
    """
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ValidationError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}") from None
    if backend == "scipy":
        import scipy.optimize  # noqa: F401  (lazy, and outside solve_time)
    t0 = time.perf_counter()
    sol = fn(prob)
    sol.solve_time = time.perf_counter() - t0
    if sol.status == OPTIMAL:
        issues = check_feasibility(prob, sol.values)
        if issues:
            return LpSolution(
                NUMERICAL_FAILURE, math.nan, None, sol.solve_time, sol.solution_kind,
                iterations=sol.iterations,
                message="solution failed feasibility re-check: " + "; ".join(issues[:5]),
            )
    return sol


def write_lp_text(prob: LpProblem) -> str:
    """Render in the fixed LP text format for cross-checks with other tools."""

    def num(v: float) -> str:
        return repr(float(v))

    def term(j: int, c: float, first: bool) -> str:
        name = prob.var_names[j]
        if first:
            return f"{num(c)} {name}"
        return f"{'+' if c >= 0 else '-'} {num(abs(c))} {name}"

    lines = [f"\\ {prob.name or 'lp'}", "Maximize" if prob.maximize else "Minimize"]
    obj_terms = " ".join(term(j, c, i == 0) for i, (j, c) in enumerate(prob.objective))
    lines.append(f" obj: {obj_terms or '0'}")
    lines.append("Subject To")
    A, senses, rhs = prob.rows()
    indptr, cols, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    for i, (name, sense, b) in enumerate(zip(prob.row_names, senses.tolist(), rhs.tolist())):
        body = " ".join(term(cols[k], vals[k], k == indptr[i])
                        for k in range(indptr[i], indptr[i + 1]))
        lines.append(f" {name or f'c{i}'}: {body or '0'} {sense} {num(b)}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(zip(prob.lower, prob.upper)):
        name = prob.var_names[j]
        if lo == hi:
            lines.append(f" {name} = {num(lo)}")
        elif not math.isfinite(lo) and not math.isfinite(hi):
            lines.append(f" {name} free")
        elif not math.isfinite(hi):
            lines.append(f" {num(lo)} <= {name}")
        elif not math.isfinite(lo):
            lines.append(f" -inf <= {name} <= {num(hi)}")
        else:
            lines.append(f" {num(lo)} <= {name} <= {num(hi)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
