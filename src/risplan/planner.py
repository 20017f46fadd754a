"""Placement model builders and solution decoding.

Two mixed-integer programs share most of their structure:

* the surface-enabled model: every test point is served by one
  (station, surface) pair giving a direct link plus a reflected backup;
  stations relay traffic over a spanning tree rooted at a single wired
  donor; each surface takes one aperture of F radians, chosen among
  discrete candidates (binaries o_c{r}_k{k}, see aperture_candidates),
  that covers the azimuths of all endpoints it assists, seam included.
  Rows orient_c{r}, cover_a_t{t}_r{r} and cover_t{t}_c{c}_r{r} encode
  the aperture; src_iab_t{t}_c{c} and cut_theta_t{t} tie x to stations
  and to theta;

* the station-only baseline: every test point gets a primary and a
  distinct backup station; both demands flow through the tree; no
  surfaces, no orientations.

The structure they share, from the backhaul tree to the objective, is
assembled by _Backbone; each builder adds only its access layer.

The objective maximizes mu * sum(theta_t) / theta_norm
- (1 - mu) * sum(l_t) / len_norm, where theta_t is the angular
separation between a test point's two link directions and l_t the mean
of its two link lengths: spread the links apart, keep them short.

The objective prices neither stations nor surfaces, so tied optima may
differ in installed equipment; decoding returns one canonical form of
such a tie (see extract_plan): every installed station serves a test
point or relays to one that does, every surface assists a test point,
and an idle donor with a single child hands the donor role to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .geometry import APERTURE_TOL, minimal_covering_arc
from .milp import BINARY, CONTINUOUS, MilpModel
from .radio import LinkBudgetTable
from .scenario import PlanningConfig, Scenario

TWO_PI = 2.0 * math.pi

MODE_RIS = "ris"
MODE_BASELINE = "baseline"

PLAN_FORMAT_VERSION = 1
# Bumped whenever extract_plan can return a different plan for the same
# solver output, so cached results keyed on it are recomputed.
DECODE_VERSION = 3
DECODE_TOL = 1e-6


class PlannerError(ValueError):
    """Model construction or solution decoding failure."""


@dataclass(frozen=True)
class NetworkPlan:
    """Decoded deployment: who is installed where, who serves whom.

    assignments[t] is (serving station, assisting surface) in ris mode
    and (primary station, backup station) in baseline mode.
    backhaul_edges are (parent, child) pairs oriented away from the
    donor; flows_mbps carries the downlink traffic per edge.
    """

    mode: str
    donor: int
    iab_nodes: tuple[int, ...]
    ris_sites: tuple[int, ...]
    assignments: tuple[tuple[int, int], ...]
    backhaul_edges: tuple[tuple[int, int], ...]
    flows_mbps: dict[tuple[int, int], float]
    wired_inflow_mbps: float
    orientations_rad: dict[int, float]
    theta_per_tp: tuple[float, ...]
    len_per_tp: tuple[float, ...]
    total_cost: float
    objective_value: float

    @property
    def mean_theta(self) -> float:
        return sum(self.theta_per_tp) / len(self.theta_per_tp)

    @property
    def mean_len(self) -> float:
        return sum(self.len_per_tp) / len(self.len_per_tp)


def src_tuples(tables: LinkBudgetTable) -> list[tuple[int, int, int]]:
    """All (t, c, r) triples whose activation flag is set, in index order."""
    t_idx, c_idx, r_idx = np.nonzero(tables.delta_src)
    return list(zip(t_idx.tolist(), c_idx.tolist(), r_idx.tolist()))


def bh_pairs(tables: LinkBudgetTable) -> list[tuple[int, int]]:
    """All directed station pairs with an active backhaul flag."""
    c_idx, d_idx = np.nonzero(tables.delta_bh)
    return list(zip(c_idx.tolist(), d_idx.tolist()))


def access_airtime(tables: LinkBudgetTable, cfg: PlanningConfig,
                   t: int, c: int, r: int) -> float:
    """Airtime a station spends on one served test point: the longer of
    the direct and the reflected transmission."""
    return max(cfg.demand_mbps / tables.cap_dir[t, c, r],
               cfg.xi * cfg.demand_mbps / tables.cap_ref[t, c, r])


class _Backbone:
    """The part of a placement model that both builders share.

    Variables: yIAB, yDON and tTX per site, z and f per backhaul pair, and
    theta and l per test point with their objective coefficients. Rows:
    bh_act, tree_in, flow_bal, flow_cap, tx_time, half_duplex and
    link_len. A builder adds its access layer between the add_* calls, in
    model order, and reports each of its assignment variables through
    assign().
    """

    def __init__(self, name: str, scenario: Scenario, tables: LinkBudgetTable,
                 cfg: PlanningConfig):
        if (tables.n_sites != scenario.n_sites
                or tables.n_test_points != scenario.n_test_points):
            raise PlannerError(
                f"dimension mismatch: tables are {tables.n_test_points} TP x "
                f"{tables.n_sites} CS, scenario is {scenario.n_test_points} x "
                f"{scenario.n_sites}")
        self.model = MilpModel(name=name)
        self.tables = tables
        self.cfg = cfg
        self.n_c = scenario.n_sites
        self.n_t = scenario.n_test_points
        self.pairs = bh_pairs(tables)
        # The backhaul pairs of each station, in pair order, so the
        # per-station rows are built in time proportional to the pairs they hold.
        self.out: list[list[int]] = [[] for _ in range(self.n_c)]
        self.into: list[list[int]] = [[] for _ in range(self.n_c)]
        # (pair, sign) for each pair leaving (-1) or entering (+1) a station
        self.touching: list[list[tuple[tuple[int, int], float]]] = [[] for _ in range(self.n_c)]
        for (c, d) in self.pairs:
            self.out[c].append(d)
            self.into[d].append(c)
            self.touching[c].append(((c, d), -1.0))
            self.touching[d].append(((c, d), 1.0))
        # (variable, pull, airtime) per station and (variable, length
        # share) per test point, in the order assign() reported them.
        self.served: list[list[tuple[int, float, float]]] = [[] for _ in range(self.n_c)]
        self.shares: list[list[tuple[int, float]]] = [[] for _ in range(self.n_t)]
        self.y_iab = self.site_vars("yIAB")

    def site_vars(self, tag: str, kind: str = BINARY, upper: float = 1.0) -> list[int]:
        """One variable per site, named "{tag}_c{c}"."""
        return [self.model.add_variable((tag, c), kind, 0.0, upper, name=f"{tag}_c{c}")
                for c in range(self.n_c)]

    def add_donors(self) -> None:
        self.y_don = self.site_vars("yDON")

    def add_backhaul(self) -> None:
        model = self.model
        self.z = {(c, d): model.add_variable(("z", c, d), BINARY, name=f"z_c{c}_c{d}")
                  for (c, d) in self.pairs}
        self.f = {(c, d): model.add_variable(("f", c, d), CONTINUOUS, 0.0, math.inf,
                                             name=f"f_c{c}_c{d}")
                  for (c, d) in self.pairs}

    def add_airtime(self) -> None:
        self.t_tx = self.site_vars("tTX", CONTINUOUS)

    def add_objective(self) -> None:
        model, cfg = self.model, self.cfg
        self.theta = [model.add_variable(("theta", t), CONTINUOUS, 0.0, math.pi,
                                         name=f"theta_t{t}") for t in range(self.n_t)]
        self.l_var = [model.add_variable(("l", t), CONTINUOUS, 0.0, math.inf, name=f"l_t{t}")
                      for t in range(self.n_t)]
        for t in range(self.n_t):
            model.set_objective_coeff(self.theta[t], cfg.mu / cfg.theta_norm_rad)
            model.set_objective_coeff(self.l_var[t], -(1.0 - cfg.mu) / cfg.len_norm_m)

    def assign(self, t: int, c: int, var: int, pull_mbps: float, airtime: float,
               len_share: float) -> None:
        """Assignment variable var links test point t to station c: it pulls
        pull_mbps through c, costs c airtime of transmission and adds
        len_share to t's mean link length."""
        self.served[c].append((var, pull_mbps, airtime))
        self.shares[t].append((var, len_share))

    def add_activation_rows(self) -> None:
        """Link activations require both endpoints installed."""
        y_iab = self.y_iab
        for (c, d), zv in self.z.items():
            self.model.add_constraint(f"bh_act_c{c}_c{d}",
                                      {zv: 1.0, y_iab[c]: -0.5, y_iab[d]: -0.5}, "<=", 0.0)

    def add_tree_rows(self, inflow: list[int], per_unit: float) -> None:
        """Spanning tree: at most one ingress link, none at the donor. Flow
        balance: per_unit * inflow[c] enters at station c, and every
        assignment variable served there pulls its traffic."""
        model = self.model
        for c in range(self.n_c):
            coeffs = {self.z[(d, c)]: 1.0 for d in self.into[c]}
            coeffs[self.y_don[c]] = 1.0
            model.add_constraint(f"tree_in_c{c}", coeffs, "<=", 1.0)
        for c in range(self.n_c):
            coeffs = {inflow[c]: per_unit}
            for pair, sign in self.touching[c]:
                vid = self.f[pair]
                coeffs[vid] = coeffs.get(vid, 0.0) + sign
            for var, pull, _ in self.served[c]:
                coeffs[var] = -pull
            model.add_constraint(f"flow_bal_c{c}", coeffs, "=", 0.0)

    def add_capacity_rows(self) -> None:
        """Backhaul capacity; transmit airtime per station (beams to its
        children plus its access links); half duplex: receive plus
        transmit airtime fits in one."""
        model, cap_bh = self.model, self.tables.cap_bh
        for (c, d), fv in self.f.items():
            model.add_constraint(f"flow_cap_c{c}_c{d}",
                                 {fv: 1.0, self.z[(c, d)]: -cap_bh[c, d]}, "<=", 0.0)
        for c in range(self.n_c):
            coeffs = {self.t_tx[c]: 1.0}
            for d in self.out[c]:
                coeffs[self.f[(c, d)]] = -1.0 / cap_bh[c, d]
            for var, _, airtime in self.served[c]:
                coeffs[var] = -airtime
            model.add_constraint(f"tx_time_c{c}", coeffs, "=", 0.0)
        for c in range(self.n_c):
            coeffs = {self.t_tx[c]: 1.0}
            for d in self.into[c]:
                coeffs[self.f[(d, c)]] = 1.0 / cap_bh[d, c]
            model.add_constraint(f"half_duplex_c{c}", coeffs, "<=", 1.0)

    def add_length_rows(self) -> None:
        """l_t is at least the active assignment's mean link length."""
        for t in range(self.n_t):
            coeffs = {self.l_var[t]: 1.0}
            for var, share in self.shares[t]:
                coeffs[var] = -share
            self.model.add_constraint(f"link_len_t{t}", coeffs, ">=", 0.0)


def aperture_candidates(rays: np.ndarray, fov: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate apertures of one surface: (sorted distinct rays, coverage
    matrix with one row per kept candidate).

    Candidate k starts at distinct ray alpha_k and spans ``fov`` radians
    counter-clockwise, covering ray beta iff (beta - alpha_k) mod 2*pi <=
    fov + APERTURE_TOL. Rays that fit in one aperture fit in the candidate
    starting at the first of them, so the candidates are exact. A
    candidate whose covered set lies in another's is dropped; of equal
    sets, the first is kept.
    """
    distinct = np.unique(rays)
    cover = np.mod(distinct[None, :] - distinct[:, None], TWO_PI) <= fov + APERTURE_TOL
    as_int = cover.astype(np.int64)
    inside = (as_int @ (1 - as_int).T) == 0         # inside[k, m]: set k within set m
    larger = inside & ~inside.T                      # set m strictly contains set k
    earlier_equal = np.tril(inside & inside.T, -1)   # an equal set starts earlier
    return distinct, cover[~(larger | earlier_equal).any(axis=1)]


def build_ris_model(scenario: Scenario, tables: LinkBudgetTable,
                    cfg: PlanningConfig) -> MilpModel:
    """Assemble the surface-enabled placement MILP."""
    net = _Backbone(MODE_RIS, scenario, tables, cfg)
    model, n_c, n_t = net.model, net.n_c, net.n_t
    demand = cfg.demand_mbps
    tuples = src_tuples(tables)
    by_tp: list[list[tuple[int, int]]] = [[] for _ in range(n_t)]
    by_surface: dict[int, list[tuple[int, int]]] = {}
    for (t, c, r) in tuples:
        by_tp[t].append((c, r))
        by_surface.setdefault(r, []).append((t, c))

    y_iab = net.y_iab
    y_ris = net.site_vars("yRIS")
    net.add_donors()
    y_don = net.y_don
    x_ids = [model.add_variable(("x", t, c, r), BINARY, name=f"x_t{t}_c{c}_r{r}")
             for (t, c, r) in tuples]
    x_var = dict(zip(tuples, x_ids))
    # The assignment variables of each (t, c) and (t, r) pair.
    per_tc: dict[tuple[int, int], list[int]] = {}
    per_tr: dict[tuple[int, int], list[int]] = {}
    for (t, c, r), xv in x_var.items():
        per_tc.setdefault((t, c), []).append(xv)
        per_tr.setdefault((t, r), []).append(xv)
    net.add_backhaul()
    net.add_airtime()
    ris_candidates = sorted(by_surface)
    # The candidate aperture variables of each surface, and per ray the
    # ones that cover it.
    orient: dict[int, list[int]] = {}
    covering: dict[int, dict[float, list[int]]] = {}
    for r in ris_candidates:
        ts, cs = np.array(by_surface[r]).T
        distinct, cover = aperture_candidates(
            np.concatenate([tables.phi_a[r, ts], tables.phi_b[r, cs]]), cfg.fov_rad)
        orient[r] = [model.add_variable(("o", r, k), BINARY, name=f"o_c{r}_k{k}")
                     for k in range(len(cover))]
        covering[r] = {ray: [orient[r][k] for k in np.flatnonzero(cover[:, j]).tolist()]
                       for j, ray in enumerate(distinct.tolist())}
    net.add_objective()
    theta = net.theta

    # A served test point pulls D from its serving station, which spends
    # the longer of the direct and reflected airtime on it.
    for (t, c, r), xv in zip(tuples, x_ids):
        net.assign(t, c, xv, demand, access_airtime(tables, cfg, t, c, r),
                   0.5 * (tables.len_tc[t, c] + tables.len_tc[t, r]))

    # One technology per site; donors only where a station stands.
    for c in range(n_c):
        model.add_constraint(f"colocation_c{c}", {y_iab[c]: 1.0, y_ris[c]: 1.0}, "<=", 1.0)
        model.add_constraint(f"donor_iab_c{c}", {y_don[c]: 1.0, y_iab[c]: -1.0}, "<=", 0.0)

    model.add_constraint(
        "budget",
        {**{y_iab[c]: cfg.price_iab for c in range(n_c)},
         **{y_ris[c]: cfg.price_ris for c in range(n_c)}},
        "<=", cfg.budget)

    net.add_activation_rows()
    # A test point is served from an installed station; the surface side
    # follows from the aperture rows (x <= sum of o <= yRIS).
    for (t, c), xs in per_tc.items():
        model.add_constraint(f"src_iab_t{t}_c{c}",
                             {**dict.fromkeys(xs, 1.0), y_iab[c]: -1.0}, "<=", 0.0)

    # Exactly one serving pair per test point. A test point with no
    # feasible pair yields an empty row "0 = 1": correctly infeasible.
    for t in range(n_t):
        model.add_constraint(
            f"one_src_t{t}", {x_var[(t, c, r)]: 1.0 for (c, r) in by_tp[t]}, "=", 1.0)

    # Core injection |T| * D at the donor.
    net.add_tree_rows(y_don, float(n_t) * demand)
    net.add_capacity_rows()

    # A surface serves its test points by time sharing.
    for r in ris_candidates:
        coeffs = {x_var[(t, c, r)]: cfg.xi * demand / tables.cap_ref[t, c, r]
                  for (t, c) in by_surface[r]}
        model.add_constraint(f"ris_airtime_c{r}", coeffs, "<=", 1.0)

    # Apertures: an installed surface takes at most one candidate, and
    # both rays of every active triple must lie in the one it takes. The
    # per-(t, r) rows aggregate the test point's side over stations; the
    # per-triple rows ask for one candidate that covers both rays.
    for r in ris_candidates:
        model.add_constraint(f"orient_c{r}",
                             {**dict.fromkeys(orient[r], 1.0), y_ris[r]: -1.0}, "<=", 0.0)
    for (t, r), xs in per_tr.items():
        ray = float(tables.phi_a[r, t])
        model.add_constraint(f"cover_a_t{t}_r{r}", {**dict.fromkeys(xs, 1.0),
                                                    **dict.fromkeys(covering[r][ray], -1.0)},
                             "<=", 0.0)
    for (t, c, r), xv in x_var.items():
        on_b = set(covering[r][float(tables.phi_b[r, c])])
        both = [ov for ov in covering[r][float(tables.phi_a[r, t])] if ov in on_b]
        model.add_constraint(f"cover_t{t}_c{c}_r{r}", {xv: 1.0, **dict.fromkeys(both, -1.0)},
                             "<=", 0.0)
    net.add_length_rows()

    # theta_t is capped by the active pair's table angle: exactly one x
    # per test point is active at integer points.
    for t in range(n_t):
        coeffs = {theta[t]: 1.0}
        for (c, r) in by_tp[t]:
            coeffs[x_var[(t, c, r)]] = -float(tables.theta[t, c, r])
        model.add_constraint(f"cut_theta_t{t}", coeffs, "<=", 0.0)

    return model


def build_baseline_model(scenario: Scenario, tables: LinkBudgetTable,
                         cfg: PlanningConfig) -> MilpModel:
    """Assemble the station-only placement MILP (primary + backup station
    per test point, both demands flowing through the tree)."""
    net = _Backbone(MODE_BASELINE, scenario, tables, cfg)
    model, n_c, n_t = net.model, net.n_c, net.n_t
    demand = cfg.demand_mbps
    acc = [(t, c) for t in range(n_t) for c in range(n_c)
           if tables.delta_acc[t, c] == 1]
    sites_of: list[list[int]] = [[] for _ in range(n_t)]
    for (t, c) in acc:
        sites_of[t].append(c)

    y_iab = net.y_iab
    net.add_donors()
    y_don = net.y_don
    x_var = {(t, c): model.add_variable(("x", t, c), BINARY, name=f"x_t{t}_c{c}")
             for (t, c) in acc}
    s_var = {(t, c): model.add_variable(("s", t, c), BINARY, name=f"s_t{t}_c{c}")
             for (t, c) in acc}
    net.add_backhaul()
    w_var = net.site_vars("w", CONTINUOUS, math.inf)
    net.add_airtime()
    net.add_objective()
    theta = net.theta

    # The primary link pulls D and the backup xi * D from their stations.
    for (t, c) in acc:
        for var, pull in ((x_var[(t, c)], demand), (s_var[(t, c)], cfg.xi * demand)):
            net.assign(t, c, var, pull, pull / tables.cap_acc[t, c], 0.5 * tables.len_tc[t, c])

    for c in range(n_c):
        model.add_constraint(f"donor_iab_c{c}", {y_don[c]: 1.0, y_iab[c]: -1.0}, "<=", 0.0)
    model.add_constraint("single_donor", {y_don[c]: 1.0 for c in range(n_c)}, "<=", 1.0)
    model.add_constraint("budget", {y_iab[c]: cfg.price_iab for c in range(n_c)},
                         "<=", cfg.budget)

    net.add_activation_rows()
    for (t, c) in acc:
        model.add_constraint(f"x_act_t{t}_c{c}",
                             {x_var[(t, c)]: 1.0, y_iab[c]: -1.0}, "<=", 0.0)
        model.add_constraint(f"s_act_t{t}_c{c}",
                             {s_var[(t, c)]: 1.0, y_iab[c]: -1.0}, "<=", 0.0)
        # Primary and backup must differ: dual connectivity is the point.
        model.add_constraint(f"distinct_t{t}_c{c}",
                             {x_var[(t, c)]: 1.0, s_var[(t, c)]: 1.0}, "<=", 1.0)

    for t in range(n_t):
        model.add_constraint(f"one_primary_t{t}",
                             {x_var[(t, c)]: 1.0 for c in sites_of[t]}, "=", 1.0)
        model.add_constraint(f"one_backup_t{t}",
                             {s_var[(t, c)]: 1.0 for c in sites_of[t]}, "=", 1.0)

    # Wired inflow w_c, capped at the donor.
    net.add_tree_rows(w_var, 1.0)
    for c in range(n_c):
        model.add_constraint(f"wired_cap_c{c}",
                             {w_var[c]: 1.0, y_don[c]: -cfg.wired_capacity_mbps},
                             "<=", 0.0)
    net.add_capacity_rows()

    # Angular separation rows bind only when x_t,c and s_t,r are both
    # active; c == r pairs are excluded by the distinctness row.
    for t in range(n_t):
        for c in sites_of[t]:
            for r in sites_of[t]:
                if r == c:
                    continue
                model.add_constraint(
                    f"ang_sep_t{t}_c{c}_r{r}",
                    {theta[t]: 1.0, x_var[(t, c)]: TWO_PI, s_var[(t, r)]: TWO_PI},
                    "<=", tables.theta[t, c, r] + 2.0 * TWO_PI)
    net.add_length_rows()

    # Strengthening cuts, redundant at integer points: with the primary
    # (or backup) station fixed, the separation can never exceed the best
    # partner's angle. Without these the LP bound floats theta_t to pi.
    for t in range(n_t):
        sites_t = sites_of[t]
        best_for = {c: max((float(tables.theta[t, c, r]) for r in sites_t if r != c),
                           default=0.0)
                    for c in sites_t}
        if not sites_t:
            continue
        model.add_constraint(
            f"cut_theta_x_t{t}",
            {theta[t]: 1.0, **{x_var[(t, c)]: -best_for[c] for c in sites_t}},
            "<=", 0.0)
        model.add_constraint(
            f"cut_theta_s_t{t}",
            {theta[t]: 1.0, **{s_var[(t, c)]: -best_for[c] for c in sites_t}},
            "<=", 0.0)

    return model


def _round_binary(name: str, value: float) -> int:
    r = round(value)
    if abs(value - r) > DECODE_TOL:
        raise PlannerError(f"non-integral solution: {name} = {value!r}")
    return int(r)


def _canonical_topology(donor: int, edges: list[tuple[int, int]],
                        serving: set[int]) -> tuple[int, set[int]]:
    """Reduce the decoded backhaul to its canonical form.

    Keeps the stations whose subtree, in the tree rooted at the donor,
    contains a serving station; idle leaves, idle subtrees and stations
    not connected to the donor are dropped. Then, while the donor serves
    nothing and has exactly one kept child, the child becomes the donor.
    Returns the final donor and the set of kept stations.
    """
    children: dict[int, list[int]] = {}
    for (c, d) in edges:
        children.setdefault(c, []).append(d)
    order = [donor]
    seen = {donor}
    for c in order:
        for d in children.get(c, ()):
            if d not in seen:
                seen.add(d)
                order.append(d)
    if serving - seen:
        raise PlannerError(f"decode-time infeasibility: serving station "
                           f"{min(serving - seen)} is not connected to the donor")
    keep: set[int] = set()
    for c in reversed(order):
        if c in serving or any(d in keep for d in children.get(c, ())):
            keep.add(c)
    while donor not in serving:
        kept_children = [d for d in children.get(donor, ()) if d in keep]
        if len(kept_children) != 1:
            break
        keep.discard(donor)
        donor = kept_children[0]
    return donor, keep


def extract_plan(model: MilpModel, solution: dict[str, float],
                 scenario: Scenario, tables: LinkBudgetTable,
                 cfg: PlanningConfig) -> NetworkPlan:
    """Turn a feasible variable assignment into a NetworkPlan.

    Binaries are rounded (tolerance 1e-6), installation/assignment/tree
    structure is read through the index map, and cost and objective are
    recomputed from first principles; a recomputed objective that drifts
    from the solver's by more than 1e-6 is an error.

    The objective does not price installation cost, so a tied optimum
    may carry equipment that serves nothing. The decoded plan is put in
    canonical form: only stations that serve a test point (as server,
    primary or backup) or relay to one that does are kept, and they form
    a tree rooted at the donor; while the donor serves nothing and has a
    single child, that child becomes the donor; only surfaces that assist
    a test point are kept, each oriented at the centre of the smallest
    arc that covers the rays of its assigned test points and stations
    (the model's aperture candidates are not read). Backhaul edges,
    flows and total cost are those of the kept equipment. Assignments,
    the wired inflow and the objective are read unchanged. Every
    constraint stays satisfied: dropped stations carry no flow, and a
    promoted donor only loses receive airtime.
    """
    mode = model.name
    if mode not in (MODE_RIS, MODE_BASELINE):
        raise PlannerError(f"model {model.name!r} is not a planning model")
    missing = [v.name for v in model.variables if v.name not in solution]
    if missing:
        raise PlannerError(f"solution missing variables, e.g. {missing[:3]}")

    def val(key) -> float:
        return solution[model.name_of(model.var_id(key))]

    n_c = scenario.n_sites
    n_t = scenario.n_test_points

    iab = tuple(c for c in range(n_c)
                if _round_binary(f"yIAB_c{c}", val(("yIAB", c))) == 1)
    donors = [c for c in range(n_c)
              if _round_binary(f"yDON_c{c}", val(("yDON", c))) == 1]
    if len(donors) != 1:
        raise PlannerError(f"decode-time infeasibility: {len(donors)} donors active")
    donor = donors[0]

    if mode == MODE_RIS:
        ris = tuple(c for c in range(n_c)
                    if _round_binary(f"yRIS_c{c}", val(("yRIS", c))) == 1)
        chosen: dict[int, tuple[int, int]] = {}
        for (t, c, r) in src_tuples(tables):
            if model.has_var(("x", t, c, r)) and _round_binary(
                    f"x_t{t}_c{c}_r{r}", val(("x", t, c, r))) == 1:
                if t in chosen:
                    raise PlannerError(f"decode-time infeasibility: test point {t} "
                                       f"has multiple active pairs")
                chosen[t] = (c, r)
        wired = float(n_t) * cfg.demand_mbps
    else:
        ris = ()
        chosen = {}
        for t in range(n_t):
            primary = [c for c in range(n_c) if model.has_var(("x", t, c))
                       and _round_binary(f"x_t{t}_c{c}", val(("x", t, c))) == 1]
            backup = [c for c in range(n_c) if model.has_var(("s", t, c))
                      and _round_binary(f"s_t{t}_c{c}", val(("s", t, c))) == 1]
            if len(primary) != 1 or len(backup) != 1:
                raise PlannerError(f"decode-time infeasibility: test point {t} has "
                                   f"{len(primary)} primary / {len(backup)} backup links")
            chosen[t] = (primary[0], backup[0])
        wired = float(val(("w", donor)))

    if sorted(chosen) != list(range(n_t)):
        raise PlannerError("decode-time infeasibility: incomplete assignment")
    assignments = tuple(chosen[t] for t in range(n_t))

    active = [(c, d) for (c, d) in bh_pairs(tables)
              if _round_binary(f"z_c{c}_c{d}", val(("z", c, d))) == 1]
    orientations: dict[int, float] = {}
    if mode == MODE_RIS:
        serving = {c for (c, _) in assignments}
        rays: dict[int, list[float]] = {}
        for t, (c, r) in enumerate(assignments):
            rays.setdefault(r, []).extend((float(tables.phi_a[r, t]),
                                           float(tables.phi_b[r, c])))
        ris = tuple(r for r in ris if r in rays)
        orientations = {r: minimal_covering_arc(rays[r])[1] for r in ris}
    else:
        serving = {c for pair in assignments for c in pair}
    donor, kept = _canonical_topology(donor, active, serving)
    iab = tuple(c for c in iab if c in kept)
    edges = [(c, d) for (c, d) in active if c in kept and d in kept]
    flows = {(c, d): float(val(("f", c, d))) for (c, d) in edges}

    theta_per_tp = tuple(float(tables.theta[t, a, b])
                         for t, (a, b) in enumerate(assignments))
    len_per_tp = tuple(0.5 * float(tables.len_tc[t, a] + tables.len_tc[t, b])
                       for t, (a, b) in enumerate(assignments))

    if mode == MODE_RIS:
        total_cost = cfg.price_iab * len(iab) + cfg.price_ris * len(ris)
    else:
        total_cost = cfg.price_iab * len(iab)

    objective = (cfg.mu / cfg.theta_norm_rad * sum(theta_per_tp)
                 - (1.0 - cfg.mu) / cfg.len_norm_m * sum(len_per_tp))
    solver_objective = model.evaluate_objective(solution)
    if abs(objective - solver_objective) > DECODE_TOL * max(1.0, abs(solver_objective)):
        raise PlannerError(
            f"decode drift: recomputed objective {objective!r} vs "
            f"solver objective {solver_objective!r}")

    return NetworkPlan(
        mode=mode,
        donor=donor,
        iab_nodes=iab,
        ris_sites=ris,
        assignments=assignments,
        backhaul_edges=tuple(edges),
        flows_mbps=flows,
        wired_inflow_mbps=wired,
        orientations_rad=orientations,
        theta_per_tp=theta_per_tp,
        len_per_tp=len_per_tp,
        total_cost=total_cost,
        objective_value=objective,
    )


# -- plan persistence ---------------------------------------------------


def plan_to_dict(plan: NetworkPlan) -> dict:
    return {
        "version": PLAN_FORMAT_VERSION,
        "mode": plan.mode,
        "donor": plan.donor,
        "iab_nodes": list(plan.iab_nodes),
        "ris_sites": list(plan.ris_sites),
        "assignments": [list(a) for a in plan.assignments],
        "backhaul": [list(e) for e in plan.backhaul_edges],
        "flows": [[c, d, plan.flows_mbps[(c, d)]] for (c, d) in plan.backhaul_edges],
        "orientations": [[r, plan.orientations_rad[r]]
                         for r in sorted(plan.orientations_rad)],
        "metrics": {
            "theta_per_tp": list(plan.theta_per_tp),
            "len_per_tp": list(plan.len_per_tp),
            "total_cost": plan.total_cost,
            "objective_value": plan.objective_value,
            "wired_inflow_mbps": plan.wired_inflow_mbps,
        },
    }


def plan_from_dict(doc: dict) -> NetworkPlan:
    try:
        if doc["version"] != PLAN_FORMAT_VERSION:
            raise PlannerError(f"unsupported plan file version {doc['version']!r}")
        metrics = doc["metrics"]
        return NetworkPlan(
            mode=doc["mode"],
            donor=doc["donor"],
            iab_nodes=tuple(doc["iab_nodes"]),
            ris_sites=tuple(doc["ris_sites"]),
            assignments=tuple((a, b) for a, b in doc["assignments"]),
            backhaul_edges=tuple((c, d) for c, d in doc["backhaul"]),
            flows_mbps={(c, d): f for c, d, f in doc["flows"]},
            wired_inflow_mbps=metrics["wired_inflow_mbps"],
            orientations_rad={r: phi for r, phi in doc["orientations"]},
            theta_per_tp=tuple(metrics["theta_per_tp"]),
            len_per_tp=tuple(metrics["len_per_tp"]),
            total_cost=metrics["total_cost"],
            objective_value=metrics["objective_value"],
        )
    except KeyError as exc:
        raise PlannerError(f"plan document missing field {exc.args[0]!r}") from None


def save_plan(plan: NetworkPlan, path: str | Path) -> None:
    """Write the plan as JSON, atomically."""
    write_atomic(path, json.dumps(plan_to_dict(plan), indent=2) + "\n")


def load_plan(path: str | Path) -> NetworkPlan:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise PlannerError(f"cannot read plan {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlannerError(f"plan file is not valid JSON: {exc}") from exc
    return plan_from_dict(doc)
