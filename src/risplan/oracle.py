"""Exhaustive reference optimizer for tiny instances.

One search serves both models. It enumerates installation subsets, donor
choices, spanning trees over the installed stations, and one (a, b) pair
per test point: (station, surface) with surfaces, (primary, backup)
without. Flows are forced by the tree (subtree demand sums), so
feasibility reduces to arithmetic checks of the airtime, capacity and
aperture rules. Per mode are only the pairs and the (station, demand,
airtime) loads each adds (_pairs), the surfaces with their airtime and
apertures, and the station-only wired-capacity cut-off. Apertures are
checked with true circular geometry: a surface's rays must fit in an arc
of the field of view (minimal_covering_arc), and the surface points at
the centre of the smallest such arc. No linear programming is involved,
and nothing comes from milp, solver or the model builders (from planner
only the plan type, the airtime rule and the mode names), which makes
this a genuinely independent oracle for the MILP route.

Branch-and-bound style pruning is used for speed, with the bound applied
strictly below the incumbent-minus-epsilon, so every tied optimum is
offered. Ties go to the cheapest plan (total installation cost), then to
the lexicographically smallest plan encoding, so a plan never carries
equipment that a tied, cheaper plan leaves out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .geometry import APERTURE_TOL, minimal_covering_arc
from .planner import MODE_BASELINE, MODE_RIS, NetworkPlan, access_airtime
from .radio import LinkBudgetTable
from .scenario import PlanningConfig, Scenario

# One slack for every arithmetic check, the same one the MILP's aperture
# candidates use.
ORACLE_TOL = APERTURE_TOL
TIE_TOL = 1e-12
MAX_SITES = 7
MAX_TEST_POINTS = 4


class OracleError(ValueError):
    """Instance too large for exhaustive search, or bad mode."""


@dataclass
class OracleResult:
    feasible: bool
    objective: float | None
    plan: NetworkPlan | None


@dataclass
class _Incumbent:
    objective: float = -math.inf
    key: tuple | None = None        # (total cost, plan encoding)
    plan: NetworkPlan | None = None

    def offer(self, objective: float, key: tuple, make_plan) -> None:
        if (objective > self.objective + TIE_TOL
                or (objective > self.objective - TIE_TOL and key < self.key)):
            self.objective, self.key, self.plan = objective, key, make_plan()

    def result(self) -> OracleResult:
        if self.plan is None:
            return OracleResult(False, None, None)
        return OracleResult(True, self.objective, self.plan)


def _spanning_trees(nodes: tuple[int, ...], delta_bh) -> list[tuple[tuple[int, int], ...]]:
    """All undirected spanning trees of the installed stations over active
    backhaul pairs. A single node has exactly the empty tree."""
    k = len(nodes)
    if k == 1:
        return [()]
    edges = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
             if delta_bh[u, v] == 1]
    if len(edges) < k - 1:
        return []
    trees = []
    for combo in itertools.combinations(edges, k - 1):
        parent = {v: v for v in nodes}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for (u, v) in combo:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            trees.append(combo)
    return trees


def _orient_and_check(tree: tuple[tuple[int, int], ...], donor: int,
                      nodes: tuple[int, ...], dem: dict[int, float],
                      air: dict[int, float], cap_bh) -> tuple | None:
    """Root the tree at the donor, force flows as subtree demand sums, and
    check capacity plus half-duplex at every node. Returns (directed
    edges, flows) or None."""
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for (u, v) in tree:
        adj[u].append(v)
        adj[v].append(u)
    parent = {donor: None}
    order = [donor]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != len(nodes):
        return None  # tree edges do not span the node set

    subtree = {v: dem.get(v, 0.0) for v in nodes}
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            subtree[p] += subtree[v]

    edges_directed = []
    flows: dict[tuple[int, int], float] = {}
    for v in order[1:]:
        p = parent[v]
        f = subtree[v]
        if f > cap_bh[p, v] + ORACLE_TOL:
            return None
        edges_directed.append((p, v))
        flows[(p, v)] = f

    for v in nodes:
        rx = 0.0
        p = parent[v]
        if p is not None:
            rx = flows[(p, v)] / cap_bh[p, v]
        tx = sum(flows[(v, w)] / cap_bh[v, w]
                 for w in adj[v] if parent.get(w) == v)
        if rx + tx + air.get(v, 0.0) > 1.0 + ORACLE_TOL:
            return None
    return tuple(sorted(edges_directed)), flows


def _first_feasible_routing(iab: tuple[int, ...], trees, dem, air, cap_bh):
    """Deterministic scan: donors ascending, trees in enumeration order."""
    for donor in iab:
        for tree in trees:
            routed = _orient_and_check(tree, donor, iab, dem, air, cap_bh)
            if routed is not None:
                return donor, routed[0], routed[1]
    return None


def _iter_subsets(universe: list[int]):
    for mask in range(1 << len(universe)):
        yield tuple(universe[i] for i in range(len(universe)) if mask >> i & 1)


def brute_force_plan(scenario: Scenario, tables: LinkBudgetTable,
                     cfg: PlanningConfig, mode: str) -> OracleResult:
    """Exhaustive optimum for instances with at most 7 sites and 4 test
    points; raises OracleError beyond that guard."""
    n_c = scenario.n_sites
    n_t = scenario.n_test_points
    if n_c > MAX_SITES or n_t > MAX_TEST_POINTS:
        raise OracleError(
            f"instance too large for oracle: {n_c} sites x {n_t} test points "
            f"(guard: {MAX_SITES} x {MAX_TEST_POINTS})")
    if mode not in (MODE_RIS, MODE_BASELINE):
        raise OracleError(f"unknown mode {mode!r}")
    return _search(mode, n_c, n_t, tables, cfg)


def _contribution(tables, cfg, t: int, a: int, b: int) -> float:
    return (cfg.mu / cfg.theta_norm_rad * tables.theta[t, a, b]
            - (1.0 - cfg.mu) / cfg.len_norm_m
            * 0.5 * (tables.len_tc[t, a] + tables.len_tc[t, b]))


def _pairs(mode: str, tables: LinkBudgetTable, cfg: PlanningConfig, t: int, n_c: int):
    """(a, b, loads, surface airtime) for each pair test point t may use;
    loads are the (station, demand, airtime) it adds: the station of a
    (station, surface) pair, or a primary and, at xi, its backup."""
    demand, xi = cfg.demand_mbps, cfg.xi
    if mode == MODE_RIS:
        return [(c, r, ((c, demand, access_airtime(tables, cfg, t, c, r)),),
                 xi * demand / tables.cap_ref[t, c, r])
                for c in range(n_c) for r in range(n_c) if tables.delta_src[t, c, r] == 1]
    acc = [c for c in range(n_c) if tables.delta_acc[t, c] == 1]
    return [(a, b, ((a, demand, demand / tables.cap_acc[t, a]),
                    (b, xi * demand, xi * demand / tables.cap_acc[t, b])), None)
            for a in acc for b in acc if a != b]


def _make_plan(mode, donor, iab, ris, assignments, edges, flows, wired,
               orientations, tables, cfg, objective) -> NetworkPlan:
    return NetworkPlan(
        mode=mode,
        donor=donor,
        iab_nodes=iab,
        ris_sites=ris,
        assignments=tuple(assignments),
        backhaul_edges=edges,
        flows_mbps=dict(flows),
        wired_inflow_mbps=wired,
        orientations_rad=dict(orientations),
        theta_per_tp=tuple(float(tables.theta[t, a, b])
                           for t, (a, b) in enumerate(assignments)),
        len_per_tp=tuple(0.5 * float(tables.len_tc[t, a] + tables.len_tc[t, b])
                         for t, (a, b) in enumerate(assignments)),
        total_cost=cfg.price_iab * len(iab) + cfg.price_ris * len(ris),
        objective_value=objective,
    )


def _orientations(assign, tables: LinkBudgetTable, cfg: PlanningConfig) -> dict | None:
    """Each surface points at the centre of the smallest arc covering its
    rays; None when some surface's rays do not fit its field of view."""
    rays: dict[int, list[float]] = {}
    for t, (c, r) in enumerate(assign):
        rays.setdefault(r, []).extend((float(tables.phi_a[r, t]), float(tables.phi_b[r, c])))
    orientations = {}
    for r, arc in rays.items():
        width, center = minimal_covering_arc(arc)
        if width > cfg.fov_rad + APERTURE_TOL:
            return None
        orientations[r] = center
    return orientations


def _search(mode: str, n_c: int, n_t: int, tables: LinkBudgetTable,
            cfg: PlanningConfig) -> OracleResult:
    ris = mode == MODE_RIS
    if ris:
        wired = float(n_t) * cfg.demand_mbps
    else:
        wired = (1.0 + cfg.xi) * cfg.demand_mbps * n_t
        if wired > cfg.wired_capacity_mbps + ORACLE_TOL:
            return OracleResult(False, None, None)
    # Per test point: its pairs, best contribution first.
    pair_options = [sorted(((_contribution(tables, cfg, t, a, b), a, b, loads, surface_air)
                            for a, b, loads, surface_air in _pairs(mode, tables, cfg, t, n_c)),
                           key=lambda o: (-o[0], o[1], o[2]))
                    for t in range(n_t)]

    # Collect installation combos with their objective upper bounds, then
    # search best-first so the incumbent prunes aggressively.
    all_sites = list(range(n_c))
    combos = []
    for iab in _iter_subsets(all_sites):
        cost_iab = cfg.price_iab * len(iab)
        if not iab or cost_iab > cfg.budget + ORACLE_TOL:
            continue
        stations = set(iab)
        for surfaces in (_iter_subsets([c for c in all_sites if c not in stations])
                         if ris else [()]):
            cost = cost_iab + cfg.price_ris * len(surfaces)
            if cost > cfg.budget + ORACLE_TOL:
                continue
            partners = set(surfaces) if ris else stations
            options = [[o for o in opts if o[1] in stations and o[2] in partners]
                       for opts in pair_options]
            if all(options):
                combos.append((sum(opts[0][0] for opts in options), cost, iab, surfaces,
                               options))
    combos.sort(key=lambda item: (-item[0], item[2], item[3]))

    best = _Incumbent()
    tree_cache: dict[tuple[int, ...], list] = {}
    for bound, cost, iab, surfaces, options in combos:
        if bound < best.objective - TIE_TOL:
            break
        if iab not in tree_cache:
            tree_cache[iab] = _spanning_trees(iab, tables.delta_bh)
        trees = tree_cache[iab]
        if not trees:
            continue
        suffix = [0.0] * (n_t + 1)
        for t in range(n_t - 1, -1, -1):
            suffix[t] = suffix[t + 1] + options[t][0][0]

        assign: list[tuple[int, int]] = []
        dem: dict[int, float] = {}
        air: dict[int, float] = {}
        surface_air: dict[int, float] = {}

        def finish(obj: float) -> None:
            orientations = _orientations(assign, tables, cfg) if ris else {}
            if orientations is None:
                return
            routing = _first_feasible_routing(iab, trees, dem, air, tables.cap_bh)
            if routing is None:
                return
            donor, edges, flows = routing
            key = (cost, iab, surfaces, tuple(assign), donor, edges)
            best.offer(obj, key, lambda: _make_plan(
                mode, donor, iab, surfaces, list(assign), edges, flows,
                wired, orientations, tables, cfg, obj))

        def dfs(t: int, partial_obj: float) -> None:
            if partial_obj + suffix[t] < best.objective - TIE_TOL:
                return
            if t == n_t:
                finish(partial_obj)
                return
            for contrib, a, b, loads, reflected_air in options[t]:
                if partial_obj + contrib + suffix[t + 1] < best.objective - TIE_TOL:
                    break  # options sorted: nothing below can recover
                if ris:
                    old_air_b = surface_air.get(b, 0.0)
                    if old_air_b + reflected_air > 1.0 + ORACLE_TOL:
                        continue
                    surface_air[b] = old_air_b + reflected_air
                for s, d, x in loads:
                    dem[s] = dem.get(s, 0.0) + d
                    air[s] = air.get(s, 0.0) + x
                assign.append((a, b))

                dfs(t + 1, partial_obj + contrib)

                assign.pop()
                for s, d, x in reversed(loads):
                    air[s] -= x
                    dem[s] -= d
                if ris:
                    surface_air[b] = old_air_b

        dfs(0, 0.0)

    return best.result()
