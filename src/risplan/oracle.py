"""Exhaustive reference optimizer for tiny instances.

Enumerates installation subsets, donor choices, spanning trees over the
installed stations, and per-test-point assignments; flows are then
forced by the tree (subtree demand sums), so feasibility reduces to
arithmetic checks of the airtime, capacity and aperture rules. No linear
programming is involved anywhere, which makes this a genuinely
independent oracle for the MILP route. Apertures are checked with true
circular geometry: the rays a surface assists must fit in an arc of the
field of view (minimal_covering_arc), and the surface points at the
centre of the smallest such arc.

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
        if objective > self.objective + TIE_TOL:
            self.objective, self.key, self.plan = objective, key, make_plan()
        elif (objective > self.objective - TIE_TOL
              and (self.key is None or key < self.key)):
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
    if mode == MODE_RIS:
        return _search_ris(scenario, tables, cfg)
    if mode == MODE_BASELINE:
        return _search_baseline(scenario, tables, cfg)
    raise OracleError(f"unknown mode {mode!r}")


def _contribution(tables, cfg, t: int, a: int, b: int) -> float:
    return (cfg.mu / cfg.theta_norm_rad * tables.theta[t, a, b]
            - (1.0 - cfg.mu) / cfg.len_norm_m
            * 0.5 * (tables.len_tc[t, a] + tables.len_tc[t, b]))


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


def _search_ris(scenario: Scenario, tables: LinkBudgetTable,
                cfg: PlanningConfig) -> OracleResult:
    n_c = scenario.n_sites
    n_t = scenario.n_test_points
    demand = cfg.demand_mbps
    all_sites = list(range(n_c))
    tuples_by_tp: list[list[tuple[int, int]]] = [
        [(c, r) for c in range(n_c) for r in range(n_c)
         if tables.delta_src[t, c, r] == 1]
        for t in range(n_t)]

    best = _Incumbent()
    tree_cache: dict[tuple[int, ...], list] = {}

    # Collect installation combos with their objective upper bounds, then
    # search best-first so the incumbent prunes aggressively.
    combos = []
    for iab in _iter_subsets(all_sites):
        if not iab:
            continue
        cost_iab = cfg.price_iab * len(iab)
        if cost_iab > cfg.budget + ORACLE_TOL:
            continue
        remaining = [c for c in all_sites if c not in iab]
        iab_set = set(iab)
        for ris in _iter_subsets(remaining):
            if cost_iab + cfg.price_ris * len(ris) > cfg.budget + ORACLE_TOL:
                continue
            ris_set = set(ris)
            per_tp = [[(c, r) for (c, r) in tuples_by_tp[t]
                       if c in iab_set and r in ris_set] for t in range(n_t)]
            if any(not lst for lst in per_tp):
                continue
            bound = sum(max(_contribution(tables, cfg, t, c, r)
                            for (c, r) in per_tp[t]) for t in range(n_t))
            combos.append((bound, iab, ris, per_tp))
    combos.sort(key=lambda item: (-item[0], item[1], item[2]))

    for bound, iab, ris, per_tp in combos:
        if bound < best.objective - TIE_TOL:
            break
        if iab not in tree_cache:
            tree_cache[iab] = _spanning_trees(iab, tables.delta_bh)
        trees = tree_cache[iab]
        if not trees:
            continue

        # Per test point: assignments sorted by decreasing contribution,
        # plus suffix bounds over the remaining test points.
        options = [sorted(((_contribution(tables, cfg, t, c, r), c, r)
                           for (c, r) in per_tp[t]), key=lambda o: (-o[0], o[1], o[2]))
                   for t in range(n_t)]
        suffix = [0.0] * (n_t + 1)
        for t in range(n_t - 1, -1, -1):
            suffix[t] = suffix[t + 1] + options[t][0][0]

        assign: list[tuple[int, int]] = []

        def dfs(t: int, partial_obj: float, dem: dict[int, float],
                air: dict[int, float], ris_air: dict[int, float],
                ris_rays: dict[int, list[float]]) -> None:
            threshold = best.objective - TIE_TOL
            if partial_obj + suffix[t] < threshold:
                return
            if t == n_t:
                _finish_ris(partial_obj, assign, dem, air, ris_air, ris_rays,
                            iab, ris, trees)
                return
            for contrib, c, r in options[t]:
                if partial_obj + contrib + suffix[t + 1] < threshold:
                    break  # options sorted: nothing below can recover
                new_air_r = ris_air.get(r, 0.0) + cfg.xi * demand / tables.cap_ref[t, c, r]
                if new_air_r > 1.0 + ORACLE_TOL:
                    continue
                dem[c] = dem.get(c, 0.0) + demand
                air[c] = air.get(c, 0.0) + access_airtime(tables, cfg, t, c, r)
                old_air_r = ris_air.get(r)
                ris_air[r] = new_air_r
                rays = ris_rays.setdefault(r, [])
                rays.extend((float(tables.phi_a[r, t]), float(tables.phi_b[r, c])))
                assign.append((c, r))

                dfs(t + 1, partial_obj + contrib, dem, air, ris_air, ris_rays)

                assign.pop()
                rays.pop()
                rays.pop()
                if not rays:
                    del ris_rays[r]
                if old_air_r is None:
                    del ris_air[r]
                else:
                    ris_air[r] = old_air_r
                air[c] -= access_airtime(tables, cfg, t, c, r)
                dem[c] -= demand

        def _finish_ris(obj, assign, dem, air, ris_air, ris_rays, iab, ris, trees):
            orientations: dict[int, float] = {}
            for r, rays in ris_rays.items():
                width, center = minimal_covering_arc(rays)
                if width > cfg.fov_rad + APERTURE_TOL:
                    return
                orientations[r] = center
            routing = _first_feasible_routing(iab, trees, dem, air, tables.cap_bh)
            if routing is None:
                return
            donor, edges, flows = routing
            cost = cfg.price_iab * len(iab) + cfg.price_ris * len(ris)
            key = (cost, iab, ris, tuple(assign), donor, edges)
            wired = float(n_t) * demand
            best.offer(obj, key, lambda: _make_plan(
                MODE_RIS, donor, iab, ris, list(assign), edges, flows,
                wired, orientations, tables, cfg, obj))

        dfs(0, 0.0, {}, {}, {}, {})

    return best.result()


def _search_baseline(scenario: Scenario, tables: LinkBudgetTable,
                     cfg: PlanningConfig) -> OracleResult:
    n_c = scenario.n_sites
    n_t = scenario.n_test_points
    demand = cfg.demand_mbps
    all_sites = list(range(n_c))
    acc_by_tp = [[c for c in range(n_c) if tables.delta_acc[t, c] == 1]
                 for t in range(n_t)]

    best = _Incumbent()
    tree_cache: dict[tuple[int, ...], list] = {}

    total_demand = (1.0 + cfg.xi) * demand * n_t
    if total_demand > cfg.wired_capacity_mbps + ORACLE_TOL:
        return OracleResult(False, None, None)

    combos = []
    for iab in _iter_subsets(all_sites):
        if len(iab) < 2:
            continue
        if cfg.price_iab * len(iab) > cfg.budget + ORACLE_TOL:
            continue
        iab_set = set(iab)
        per_tp = [[(cp, cb) for cp in acc_by_tp[t] if cp in iab_set
                   for cb in acc_by_tp[t] if cb in iab_set and cb != cp]
                  for t in range(n_t)]
        if any(not lst for lst in per_tp):
            continue
        bound = sum(max(_contribution(tables, cfg, t, cp, cb)
                        for (cp, cb) in per_tp[t]) for t in range(n_t))
        combos.append((bound, iab, per_tp))
    combos.sort(key=lambda item: (-item[0], item[1]))

    for bound, iab, per_tp in combos:
        if bound < best.objective - TIE_TOL:
            break
        if iab not in tree_cache:
            tree_cache[iab] = _spanning_trees(iab, tables.delta_bh)
        trees = tree_cache[iab]
        if not trees:
            continue

        options = [sorted(((_contribution(tables, cfg, t, cp, cb), cp, cb)
                           for (cp, cb) in per_tp[t]),
                          key=lambda o: (-o[0], o[1], o[2]))
                   for t in range(n_t)]
        suffix = [0.0] * (n_t + 1)
        for t in range(n_t - 1, -1, -1):
            suffix[t] = suffix[t + 1] + options[t][0][0]

        assign: list[tuple[int, int]] = []

        def dfs(t: int, partial_obj: float, dem: dict[int, float],
                air: dict[int, float]) -> None:
            if partial_obj + suffix[t] < best.objective - TIE_TOL:
                return
            if t == n_t:
                routing = _first_feasible_routing(iab, trees, dem, air, tables.cap_bh)
                if routing is None:
                    return
                donor, edges, flows = routing
                key = (cfg.price_iab * len(iab), iab, (), tuple(assign), donor, edges)
                obj = partial_obj
                best.offer(obj, key, lambda: _make_plan(
                    MODE_BASELINE, donor, iab, (), list(assign), edges, flows,
                    total_demand, {}, tables, cfg, obj))
                return
            for contrib, cp, cb in options[t]:
                if partial_obj + contrib + suffix[t + 1] < best.objective - TIE_TOL:
                    break
                dem[cp] = dem.get(cp, 0.0) + demand
                dem[cb] = dem.get(cb, 0.0) + cfg.xi * demand
                air[cp] = air.get(cp, 0.0) + demand / tables.cap_acc[t, cp]
                air[cb] = air.get(cb, 0.0) + cfg.xi * demand / tables.cap_acc[t, cb]
                assign.append((cp, cb))

                dfs(t + 1, partial_obj + contrib, dem, air)

                assign.pop()
                air[cb] -= cfg.xi * demand / tables.cap_acc[t, cb]
                air[cp] -= demand / tables.cap_acc[t, cp]
                dem[cb] -= cfg.xi * demand
                dem[cp] -= demand

        dfs(0, 0.0, {}, {})

    return best.result()
