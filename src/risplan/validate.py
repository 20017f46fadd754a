"""Independent feasibility audit of a decoded plan.

Every planning constraint is re-evaluated directly from the plan, the
link tables and the planning knobs, without touching the model builders:
this is the second leg of the dual route that keeps the MILP encodings
honest. Aperture membership is checked with true circular angular
distance from the plan's orientation. One body checks both modes; only
the activation, colocation or no_ris_in_baseline, and core_injection or
wired_capacity checks differ. Violations are data, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import circular_distance
from .planner import MODE_BASELINE, MODE_RIS, NetworkPlan, access_airtime
from .radio import LinkBudgetTable
from .scenario import PlanningConfig, Scenario

# Slack for every comparison of the audit.
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    constraint_name: str
    lhs_value: float
    sense: str
    rhs_value: float
    magnitude: float

    def __str__(self) -> str:
        return (f"{self.constraint_name}: {self.lhs_value:.9g} {self.sense} "
                f"{self.rhs_value:.9g} violated by {self.magnitude:.3g}")


class _Auditor:
    def __init__(self):
        self.violations: list[Violation] = []

    def require_le(self, name: str, lhs: float, rhs: float) -> None:
        if lhs > rhs + FEASIBILITY_TOL:
            self.violations.append(Violation(name, lhs, "<=", rhs, lhs - rhs))

    def require_ge(self, name: str, lhs: float, rhs: float) -> None:
        if lhs < rhs - FEASIBILITY_TOL:
            self.violations.append(Violation(name, lhs, ">=", rhs, rhs - lhs))

    def require_eq(self, name: str, lhs: float, rhs: float) -> None:
        if abs(lhs - rhs) > FEASIBILITY_TOL:
            self.violations.append(Violation(name, lhs, "=", rhs, abs(lhs - rhs)))

    def require_true(self, name: str, ok: bool, detail: float = 1.0) -> None:
        if not ok:
            self.violations.append(Violation(name, detail, "=", 0.0, detail))

    def result(self) -> list[Violation]:
        return sorted(self.violations, key=lambda v: v.constraint_name)


def _tree_checks(aud: _Auditor, plan: NetworkPlan, tables: LinkBudgetTable) -> None:
    """The backhaul must be an arborescence rooted at the donor: at most
    one ingress per station, none at the donor, and every installed
    station reachable from the donor along backhaul edges."""
    installed = set(plan.iab_nodes)
    parents: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    for (c, d) in plan.backhaul_edges:
        aud.require_true(f"backhaul_activation_c{c}_c{d}",
                         tables.delta_bh[c, d] == 1
                         and c in installed and d in installed)
        if d in parents:
            aud.require_le(f"tree_ingress_c{d}", 2.0, 1.0)
        parents[d] = c
        children.setdefault(c, []).append(d)
    if plan.donor in parents:
        aud.require_le(f"tree_ingress_c{plan.donor}",
                       1.0 + 1.0, 1.0)  # donor must have no ingress
    reached = {plan.donor}
    frontier = [plan.donor]
    while frontier:
        for d in children.get(frontier.pop(), ()):
            if d not in reached:
                reached.add(d)
                frontier.append(d)
    for c in sorted(installed - reached):
        aud.require_true(f"tree_reach_c{c}", False)


def _flow_checks(aud: _Auditor, plan: NetworkPlan, tables: LinkBudgetTable,
                 demand_at: dict[int, float], injection: dict[int, float]) -> None:
    """Flows lie exactly on the backhaul edges, within capacity, and
    balance at every station."""
    for (c, d) in sorted(set(plan.backhaul_edges).symmetric_difference(plan.flows_mbps)):
        aud.require_true(f"flow_edge_c{c}_c{d}", False)
    for (c, d), f in plan.flows_mbps.items():
        aud.require_ge(f"flow_nonneg_c{c}_c{d}", f, 0.0)
        aud.require_le(f"flow_capacity_c{c}_c{d}", f, float(tables.cap_bh[c, d]))
    for c in plan.iab_nodes:
        inflow = sum(f for (a, b), f in plan.flows_mbps.items() if b == c)
        outflow = sum(f for (a, b), f in plan.flows_mbps.items() if a == c)
        aud.require_eq(f"flow_balance_c{c}",
                       injection.get(c, 0.0) + inflow - outflow,
                       demand_at.get(c, 0.0))


def _half_duplex_checks(aud: _Auditor, plan: NetworkPlan, tables: LinkBudgetTable,
                        access_air: dict[int, float]) -> None:
    # A flow on a pair without backhaul capacity takes no airtime here;
    # flow_capacity reports it.
    airtime = {(a, b): f / float(tables.cap_bh[a, b])
               for (a, b), f in plan.flows_mbps.items() if tables.cap_bh[a, b] > 0}
    for c in plan.iab_nodes:
        rx = sum(x for (a, b), x in airtime.items() if b == c)
        tx = sum(x for (a, b), x in airtime.items() if a == c)
        tx += access_air.get(c, 0.0)
        aud.require_le(f"half_duplex_c{c}", rx + tx, 1.0)


def _index_checks(aud: _Auditor, plan: NetworkPlan, n_t: int, n_c: int) -> None:
    """Every site number names a site of the scenario, and every
    per-test-point tuple has one entry per test point. The other checks
    index the link tables with these numbers."""
    sites = [("donor", plan.donor)]
    sites += [("iab_nodes", c) for c in plan.iab_nodes]
    sites += [("ris_sites", c) for c in plan.ris_sites]
    sites += [(f"assignment_t{t}", c) for t, pair in enumerate(plan.assignments) for c in pair]
    sites += [("backhaul_edges", c) for edge in plan.backhaul_edges for c in edge]
    sites += [("flows", c) for edge in plan.flows_mbps for c in edge]
    sites += [("orientations", c) for c in plan.orientations_rad]
    for where, c in sites:
        aud.require_true(f"site_index_{where}", 0 <= c < n_c, detail=float(c))
    for name, values in (("assignment_partition", plan.assignments),
                         ("theta_per_tp_length", plan.theta_per_tp),
                         ("len_per_tp_length", plan.len_per_tp)):
        aud.require_true(name, len(values) == n_t, detail=float(len(values) - n_t))


def validate_plan(plan: NetworkPlan, scenario: Scenario, tables: LinkBudgetTable,
                  cfg: PlanningConfig) -> list[Violation]:
    """Check a plan against every constraint of its mode; empty list means
    feasible within FEASIBILITY_TOL. A plan whose site numbers or
    per-test-point tuples do not fit the scenario gets only those
    violations."""
    aud = _Auditor()
    n_t = scenario.n_test_points
    demand = cfg.demand_mbps
    installed = set(plan.iab_nodes)

    _index_checks(aud, plan, n_t, scenario.n_sites)
    if aud.violations:
        return aud.result()
    aud.require_true("donor_requires_iab", plan.donor in installed)
    ris = plan.mode == MODE_RIS
    if not ris and plan.mode != MODE_BASELINE:
        aud.require_true("known_mode", False)
        return aud.result()

    if ris:
        surfaces = set(plan.ris_sites)
        for c in installed & surfaces:
            aud.require_le(f"colocation_c{c}", 2.0, 1.0)
    else:
        surfaces = set()
        aud.require_true("no_ris_in_baseline", not plan.ris_sites,
                         detail=float(len(plan.ris_sites)))
    aud.require_le("budget",
                   cfg.price_iab * len(installed) + cfg.price_ris * len(surfaces),
                   cfg.budget)

    # assignments[t] is (station, surface) or (primary, backup); loads are
    # the (station, demand, airtime) the pair adds, counted only for a pair
    # the link tables activate.
    demand_at: dict[int, float] = {}
    access_air: dict[int, float] = {}
    ris_air: dict[int, float] = {}
    ris_rays: dict[int, list[float]] = {}
    for t, (a, b) in enumerate(plan.assignments):
        if ris:
            aud.require_true(f"src_activation_t{t}_c{a}_r{b}",
                             tables.delta_src[t, a, b] == 1
                             and a in installed and b in surfaces)
            if tables.delta_src[t, a, b] != 1:
                continue
            loads = ((a, demand, access_airtime(tables, cfg, t, a, b)),)
            ris_air[b] = ris_air.get(b, 0.0) + cfg.xi * demand / float(tables.cap_ref[t, a, b])
            ris_rays.setdefault(b, []).extend(
                [float(tables.phi_a[b, t]), float(tables.phi_b[b, a])])
        else:
            aud.require_true(f"distinct_links_t{t}", a != b)
            aud.require_true(f"x_activation_t{t}_c{a}",
                             tables.delta_acc[t, a] == 1 and a in installed)
            aud.require_true(f"s_activation_t{t}_c{b}",
                             tables.delta_acc[t, b] == 1 and b in installed)
            if tables.delta_acc[t, a] != 1 or tables.delta_acc[t, b] != 1:
                continue
            loads = ((a, demand, demand / float(tables.cap_acc[t, a])),
                     (b, cfg.xi * demand, cfg.xi * demand / float(tables.cap_acc[t, b])))
        for c, mbps, airtime in loads:
            demand_at[c] = demand_at.get(c, 0.0) + mbps
            access_air[c] = access_air.get(c, 0.0) + airtime
        aud.require_le(f"theta_consistency_t{t}", plan.theta_per_tp[t],
                       float(tables.theta[t, a, b]))
        aud.require_ge(f"len_consistency_t{t}", plan.len_per_tp[t],
                       0.5 * float(tables.len_tc[t, a] + tables.len_tc[t, b]))

    for r, air in sorted(ris_air.items()):
        aud.require_le(f"ris_airtime_c{r}", air, 1.0)
    for r, rays in sorted(ris_rays.items()):
        if r not in plan.orientations_rad:
            aud.require_true(f"fov_orientation_missing_c{r}", False)
            continue
        phi = plan.orientations_rad[r]
        for ray in rays:
            aud.require_le(f"fov_c{r}", circular_distance(phi, ray), cfg.fov_rad / 2.0)
    for r in sorted(set(plan.orientations_rad) - surfaces):
        aud.require_true(f"fov_orientation_stray_c{r}", False)

    if ris:
        aud.require_eq("core_injection", plan.wired_inflow_mbps, n_t * demand)
    else:
        aud.require_le("wired_capacity", plan.wired_inflow_mbps, cfg.wired_capacity_mbps)
    _tree_checks(aud, plan, tables)
    _flow_checks(aud, plan, tables, demand_at, {plan.donor: plan.wired_inflow_mbps})
    _half_duplex_checks(aud, plan, tables, access_air)
    return aud.result()
