"""Solving MilpModels with HiGHS, in process through scipy.optimize.milp.

``solve`` takes a model and returns a SolveResult; nothing else about the
engine leaks out. External solvers can be reached through LP files
(milp.export_lp / milp.read_lp).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

from .milp import BINARY, MilpModel

# One home for the numeric tolerances used across solve/validate/oracle.
FEASIBILITY_TOL = 1e-6
OBJECTIVE_REL_TOL = 1e-6

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIME_LIMIT = "time_limit"
STATUS_ERROR = "error"


@dataclass
class SolveResult:
    status: str
    objective_value: float | None
    variable_values: dict[str, float] | None
    solve_time_s: float
    gap: float = 0.0
    message: str = ""
    node_count: int = 0                 # branch-and-bound nodes HiGHS explored
    dual_bound: float | None = None     # in the model's own objective sense


def _solve_highs(model: MilpModel, time_limit_s: float | None,
                 mip_rel_gap: float) -> SolveResult:
    n = model.num_variables
    if n == 0:
        return SolveResult(STATUS_OPTIMAL, 0.0, {}, 0.0)
    sign = -1.0 if model.objective_sense == "maximize" else 1.0
    c = np.zeros(n)
    for var_id, coef in model.objective.items():
        c[var_id] = sign * coef
    integrality = np.array([1 if v.kind == BINARY else 0 for v in model.variables])
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])

    constraints = []
    if model.constraints:
        rows, cols, data = [], [], []
        lo = np.empty(len(model.constraints))
        hi = np.empty(len(model.constraints))
        for i, con in enumerate(model.constraints):
            for var_id, coef in con.coeffs.items():
                rows.append(i)
                cols.append(var_id)
                data.append(coef)
            if con.sense == "<=":
                lo[i], hi[i] = -np.inf, con.rhs
            elif con.sense == ">=":
                lo[i], hi[i] = con.rhs, np.inf
            else:
                lo[i], hi[i] = con.rhs, con.rhs
        a = sparse.csr_array((data, (rows, cols)), shape=(len(model.constraints), n))
        constraints.append(LinearConstraint(a, lo, hi))

    options: dict = {"presolve": True, "mip_rel_gap": mip_rel_gap}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)

    start = time.perf_counter()
    res = scipy_milp(c=c, constraints=constraints,
                     integrality=integrality, bounds=Bounds(lower, upper),
                     options=options)
    elapsed = time.perf_counter() - start

    gap = float(res.mip_gap) if getattr(res, "mip_gap", None) is not None else 0.0
    nodes = getattr(res, "mip_node_count", None)
    bound = getattr(res, "mip_dual_bound", None)
    stats = {"node_count": int(nodes) if nodes is not None else 0,
             "dual_bound": (sign * float(bound)
                            if bound is not None and math.isfinite(bound) else None)}
    if res.status == 0:
        values = {model.variables[i].name: float(res.x[i]) for i in range(n)}
        return SolveResult(STATUS_OPTIMAL, sign * float(res.fun), values,
                           elapsed, gap, res.message, **stats)
    if res.status == 1:
        if res.x is not None:
            values = {model.variables[i].name: float(res.x[i]) for i in range(n)}
            return SolveResult(STATUS_TIME_LIMIT, sign * float(res.fun), values,
                               elapsed, gap, res.message, **stats)
        return SolveResult(STATUS_TIME_LIMIT, None, None, elapsed, math.inf, res.message,
                           **stats)
    if res.status == 2:
        return SolveResult(STATUS_INFEASIBLE, None, None, elapsed, 0.0, res.message, **stats)
    return SolveResult(STATUS_ERROR, None, None, elapsed, 0.0, res.message, **stats)


def solve(model: MilpModel, time_limit_s: float | None = None,
          mip_rel_gap: float = 0.0) -> SolveResult:
    """Solve a model with HiGHS.

    The default relative MIP gap of 0 demands proven optimality; pass a
    time limit to accept incumbents (status "time_limit", gap reported).
    """
    try:
        return _solve_highs(model, time_limit_s, mip_rel_gap)
    except Exception as exc:  # a solver crash becomes a result, not an exception
        return SolveResult(STATUS_ERROR, None, None, 0.0, 0.0,
                           f"{type(exc).__name__}: {exc}")
