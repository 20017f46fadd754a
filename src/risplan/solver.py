"""Solving MilpModels with HiGHS, in process through scipy.optimize.milp.

``solve`` takes a model and returns a SolveResult; nothing else about the
engine leaks out. External solvers can be reached through LP files
(milp.export_lp / milp.read_lp).

scipy is imported on the first solve, not with this module, so work that
never solves (scenarios, LP files, blockage simulation) does not pay for
loading it. Without scipy, a solve returns the error status and a message
that names the missing module.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .milp import MilpModel

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
    node_count: int | None = None       # branch-and-bound nodes HiGHS explored, if known
    dual_bound: float | None = None     # in the model's own objective sense


def scipy_milp(**kwargs):
    """scipy.optimize.milp, loaded on first use; a module attribute, so
    tests can replace the solver call."""
    from scipy.optimize import milp
    return milp(**kwargs)


def _solve_highs(model: MilpModel, time_limit_s: float | None,
                 mip_rel_gap: float) -> SolveResult:
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint

    n = model.num_variables
    if n == 0:   # every row's activity is 0
        lower, upper = model.row_bounds()
        if np.any((lower > 0.0) | (upper < 0.0)):
            return SolveResult(STATUS_INFEASIBLE, None, None, 0.0)
        return SolveResult(STATUS_OPTIMAL, 0.0, {}, 0.0)
    sign = -1.0 if model.objective_sense == "maximize" else 1.0
    c = np.zeros(n)
    c[list(model.objective)] = sign * np.array(list(model.objective.values()))
    binary, lower, upper = model.columns()

    constraints = []
    if model.num_constraints:
        indptr, indices, data = model.csr()
        a = sparse.csr_array((data, indices, indptr), shape=(model.num_constraints, n),
                             copy=True)
        constraints.append(LinearConstraint(a, *model.row_bounds()))

    options: dict = {"presolve": True, "mip_rel_gap": mip_rel_gap}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)

    # HiGHS prints some lines straight to file descriptor 1; point it at
    # standard error for the call, so standard output carries results only.
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    start = time.perf_counter()
    try:
        res = scipy_milp(c=c, constraints=constraints, integrality=binary.astype(np.int64),
                         bounds=Bounds(lower, upper), options=options)
    finally:
        elapsed = time.perf_counter() - start
        os.dup2(saved, 1)
        os.close(saved)

    gap = float(res.mip_gap) if getattr(res, "mip_gap", None) is not None else 0.0
    nodes = getattr(res, "mip_node_count", None)
    bound = getattr(res, "mip_dual_bound", None)
    stats = {"node_count": int(nodes) if nodes is not None else None,
             "dual_bound": (sign * float(bound)
                            if bound is not None and math.isfinite(bound) else None)}
    status = {0: STATUS_OPTIMAL, 1: STATUS_TIME_LIMIT, 2: STATUS_INFEASIBLE}.get(res.status,
                                                                               STATUS_ERROR)
    if status in (STATUS_OPTIMAL, STATUS_TIME_LIMIT) and res.x is not None:
        return SolveResult(status, sign * float(res.fun), dict(zip(model.names(), res.x.tolist())),
                           elapsed, gap, res.message, **stats)
    return SolveResult(status, None, None, elapsed,
                       math.inf if status == STATUS_TIME_LIMIT else 0.0, res.message, **stats)


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
