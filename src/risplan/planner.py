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
from itertools import repeat
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


def access_airtime(tables: LinkBudgetTable, cfg: PlanningConfig, t, c, r) -> float:
    """Airtime a station spends on a served test point (on each, given index
    arrays): the longer of the direct and the reflected transmission."""
    return np.maximum(cfg.demand_mbps / tables.cap_dir[t, c, r],
                      cfg.xi * cfg.demand_mbps / tables.cap_ref[t, c, r])


def _names(tags: str | tuple[str, ...], letters: str, *index) -> list[str]:
    """Names such as "x_t3_c0_r7": a tag, then each index after its letter.
    With several tags, each index gets one name per tag, in tag order."""
    patterns = [tag + "".join(f"_{letter}%d" for letter in letters)
                for tag in ((tags,) if isinstance(tags, str) else tags)]
    return [p % i for i in zip(*(np.asarray(i).tolist() for i in index)) for p in patterns]


def _add_vars(model: MilpModel, tag: str, letters: str, index, kind: str,
              upper: float = math.inf) -> np.ndarray:
    """One variable per element of the index arrays, keyed (tag, *index)."""
    index = [np.asarray(i).tolist() for i in index]
    return model.add_variables(zip(repeat(tag), *index), _names(tag, letters, *index),
                               kind, 0.0, upper)


def _add_rows(model: MilpModel, names: list[str], sense: str, rhs, *terms) -> None:
    """Append one row per name, as one block. Each term is (row, variable,
    coefficient) arrays of entries; any of the three may be one value for all."""
    parts = [[column.ravel() for column in np.broadcast_arrays(*term)] for term in terms]
    rows, cols, vals = (np.concatenate([part[i] for part in parts] or [np.zeros(0, np.int64)])
                        for i in range(3))
    order = np.lexsort((cols, rows))
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=len(names)))]
    model.add_rows(names, sense, rhs, indptr, cols[order], vals[order])


class _Backbone:
    """The part of a placement model that both builders share.

    Variables: yIAB, yDON and tTX per site (builders declare the last two
    through site_vars), z and f per backhaul pair, theta and l per test
    point with their objective coefficients. Rows: bh_act, tree_in,
    flow_bal, flow_cap, tx_time, half_duplex, link_len. A builder adds its
    access layer in model order and reports assignments through assign().
    """

    def __init__(self, name: str, scenario: Scenario, tables: LinkBudgetTable,
                 cfg: PlanningConfig):
        if (tables.n_sites != scenario.n_sites
                or tables.n_test_points != scenario.n_test_points):
            raise PlannerError(
                f"dimension mismatch: tables are {tables.n_test_points} TP x "
                f"{tables.n_sites} CS, scenario is {scenario.n_test_points} x "
                f"{scenario.n_sites}")
        self.model, self.tables, self.cfg = MilpModel(name=name), tables, cfg
        self.n_c, self.n_t = scenario.n_sites, scenario.n_test_points
        self.sites, self.tps = np.arange(self.n_c), np.arange(self.n_t)
        self.src, self.dst = np.nonzero(tables.delta_bh)    # the backhaul pairs
        self.pair = np.arange(len(self.src))
        # (test point, station, variable, pull, airtime, length share) blocks
        self.assigned: list[list[np.ndarray]] = []
        self.y_iab = self.site_vars("yIAB")

    def site_vars(self, tag: str, kind: str = BINARY, upper: float = 1.0) -> np.ndarray:
        """One variable per site, named "{tag}_c{c}"."""
        return _add_vars(self.model, tag, "c", [self.sites], kind, upper)

    def add_backhaul(self) -> None:
        self.z = _add_vars(self.model, "z", "cc", [self.src, self.dst], BINARY)
        self.f = _add_vars(self.model, "f", "cc", [self.src, self.dst], CONTINUOUS)

    def add_objective(self) -> None:
        model, cfg = self.model, self.cfg
        self.theta = _add_vars(model, "theta", "t", [self.tps], CONTINUOUS, math.pi)
        self.l_var = _add_vars(model, "l", "t", [self.tps], CONTINUOUS)
        for theta, l_var in zip(self.theta.tolist(), self.l_var.tolist()):
            model.set_objective_coeff(theta, cfg.mu / cfg.theta_norm_rad)
            model.set_objective_coeff(l_var, -(1.0 - cfg.mu) / cfg.len_norm_m)

    def assign(self, t, c, var, pull_mbps, airtime, len_share) -> None:
        """Assignment variables var link test points t to stations c: each
        pulls pull_mbps through its station, costs it airtime of
        transmission and adds len_share to its test point's mean link
        length. Each argument is an array or one value for all."""
        self.assigned.append(np.broadcast_arrays(t, c, var, pull_mbps, airtime, len_share))

    def served(self) -> list[np.ndarray]:
        return [np.concatenate(column) for column in zip(*self.assigned)]

    def add_activation_rows(self) -> None:
        """Link activations require both endpoints installed."""
        _add_rows(self.model, _names("bh_act", "cc", self.src, self.dst), "<=", 0.0,
                  (self.pair, self.z, 1.0), (self.pair, self.y_iab[self.src], -0.5),
                  (self.pair, self.y_iab[self.dst], -0.5))

    def add_tree_rows(self, inflow: np.ndarray, per_unit: float) -> None:
        """Spanning tree: at most one ingress link, none at the donor. Flow
        balance: per_unit * inflow[c] enters at station c, and every
        assignment variable served there pulls its traffic."""
        _, station, var, pull, _, _ = self.served()
        _add_rows(self.model, _names("tree_in", "c", self.sites), "<=", 1.0,
                  (self.dst, self.z, 1.0), (self.sites, self.y_don, 1.0))
        _add_rows(self.model, _names("flow_bal", "c", self.sites), "=", 0.0,
                  (self.sites, inflow, per_unit), (self.src, self.f, -1.0),
                  (self.dst, self.f, 1.0), (station, var, -pull))

    def add_capacity_rows(self) -> None:
        """Backhaul capacity; transmit airtime per station (beams to its
        children plus its access links); half duplex: receive plus
        transmit airtime fits in one."""
        cap = self.tables.cap_bh[self.src, self.dst]
        _, station, var, _, airtime, _ = self.served()
        _add_rows(self.model, _names("flow_cap", "cc", self.src, self.dst), "<=", 0.0,
                  (self.pair, self.f, 1.0), (self.pair, self.z, -cap))
        _add_rows(self.model, _names("tx_time", "c", self.sites), "=", 0.0,
                  (self.sites, self.t_tx, 1.0), (self.src, self.f, -1.0 / cap),
                  (station, var, -airtime))
        _add_rows(self.model, _names("half_duplex", "c", self.sites), "<=", 1.0,
                  (self.sites, self.t_tx, 1.0), (self.dst, self.f, 1.0 / cap))

    def add_length_rows(self) -> None:
        """l_t is at least the active assignment's mean link length."""
        t, _, var, _, _, share = self.served()
        _add_rows(self.model, _names("link_len", "t", self.tps), ">=", 0.0,
                  (self.tps, self.l_var, 1.0), (t, var, -share))


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
    model, n_c, sites, tps = net.model, net.n_c, net.sites, net.tps
    demand = cfg.demand_mbps
    t, c, r = np.nonzero(tables.delta_src)
    triple = np.arange(len(t))

    y_iab = net.y_iab
    y_ris = net.site_vars("yRIS")
    y_don = net.y_don = net.site_vars("yDON")
    x = _add_vars(model, "x", "tcr", [t, c, r], BINARY)
    net.add_backhaul()
    net.t_tx = net.site_vars("tTX", CONTINUOUS)
    # Apertures: an installed surface takes at most one candidate, and
    # both rays of every active triple must lie in the one it takes. The
    # per-(t, r) rows, in order of first appearance, aggregate the test
    # point's side over stations; the per-triple rows ask for one
    # candidate that covers both rays. Each surface's candidates cover
    # the rays of its triples, one column per triple.
    surfaces = np.unique(r)
    _, heads, tr_of = np.unique(t * n_c + r, return_index=True, return_inverse=True)
    tr_row = np.argsort(np.argsort(heads))[tr_of]
    is_head = np.isin(triple, heads)
    orient_terms, cover_a_terms, cover_t_terms = [], [], []
    for j, s in enumerate(surfaces.tolist()):
        mine = np.flatnonzero(r == s)
        ray_a, ray_b = tables.phi_a[s, t[mine]], tables.phi_b[s, c[mine]]
        distinct, cover = aperture_candidates(np.concatenate([ray_a, ray_b]), cfg.fov_rad)
        orient = _add_vars(model, "o", "ck", [np.full(len(cover), s), range(len(cover))], BINARY)
        cover_a = cover[:, np.searchsorted(distinct, ray_a)]
        cover_b = cover[:, np.searchsorted(distinct, ray_b)]
        orient_terms += [(j, orient, 1.0), (j, y_ris[s], -1.0)]
        row, k = np.nonzero(cover_a[:, is_head[mine]].T)
        cover_a_terms.append((tr_row[mine[is_head[mine]][row]], orient[k], -1.0))
        row, k = np.nonzero((cover_a & cover_b).T)
        cover_t_terms.append((mine[row], orient[k], -1.0))
    net.add_objective()

    # A served test point pulls D from its serving station, which spends
    # the longer of the direct and reflected airtime on it.
    net.assign(t, c, x, demand, access_airtime(tables, cfg, t, c, r),
               0.5 * (tables.len_tc[t, c] + tables.len_tc[t, r]))

    # One technology per site; donors only where a station stands.
    _add_rows(model, _names(("colocation", "donor_iab"), "c", sites), "<=",
              np.tile([1.0, 0.0], n_c), (2 * sites, y_iab, 1.0), (2 * sites, y_ris, 1.0),
              (2 * sites + 1, y_don, 1.0), (2 * sites + 1, y_iab, -1.0))
    model.add_constraint("budget", {**dict.fromkeys(y_iab.tolist(), cfg.price_iab),
                                    **dict.fromkeys(y_ris.tolist(), cfg.price_ris)},
                         "<=", cfg.budget)

    net.add_activation_rows()
    # A test point is served from an installed station; the surface side
    # follows from the aperture rows (x <= sum of o <= yRIS).
    tc, tc_row = np.unique(t * n_c + c, return_inverse=True)
    _add_rows(model, _names("src_iab", "tc", tc // n_c, tc % n_c), "<=", 0.0,
              (tc_row, x, 1.0), (np.arange(len(tc)), y_iab[tc % n_c], -1.0))

    # Exactly one serving pair per test point. A test point with no
    # feasible pair yields an empty row "0 = 1": correctly infeasible.
    _add_rows(model, _names("one_src", "t", tps), "=", 1.0, (t, x, 1.0))

    # Core injection |T| * D at the donor.
    net.add_tree_rows(y_don, float(net.n_t) * demand)
    net.add_capacity_rows()

    # A surface serves its test points by time sharing.
    _add_rows(model, _names("ris_airtime", "c", surfaces), "<=", 1.0,
              (np.searchsorted(surfaces, r), x, cfg.xi * demand / tables.cap_ref[t, c, r]))

    _add_rows(model, _names("orient", "c", surfaces), "<=", 0.0, *orient_terms)
    heads.sort()
    _add_rows(model, _names("cover_a", "tr", t[heads], r[heads]), "<=", 0.0,
              (tr_row, x, 1.0), *cover_a_terms)
    _add_rows(model, _names("cover", "tcr", t, c, r), "<=", 0.0, (triple, x, 1.0), *cover_t_terms)
    net.add_length_rows()

    # theta_t is capped by the active pair's table angle: exactly one x
    # per test point is active at integer points.
    _add_rows(model, _names("cut_theta", "t", tps), "<=", 0.0,
              (tps, net.theta, 1.0), (t, x, -tables.theta[t, c, r]))
    return model


def build_baseline_model(scenario: Scenario, tables: LinkBudgetTable,
                         cfg: PlanningConfig) -> MilpModel:
    """Assemble the station-only placement MILP (primary + backup station
    per test point, both demands flowing through the tree)."""
    net = _Backbone(MODE_BASELINE, scenario, tables, cfg)
    model, n_t, sites, tps = net.model, net.n_t, net.sites, net.tps
    demand = cfg.demand_mbps
    t, c = np.nonzero(tables.delta_acc == 1)
    pair = np.arange(len(t))

    y_iab = net.y_iab
    y_don = net.y_don = net.site_vars("yDON")
    x = _add_vars(model, "x", "tc", [t, c], BINARY)
    s = _add_vars(model, "s", "tc", [t, c], BINARY)
    net.add_backhaul()
    w_var = net.site_vars("w", CONTINUOUS, math.inf)
    net.t_tx = net.site_vars("tTX", CONTINUOUS)
    net.add_objective()
    theta = net.theta

    # The primary link pulls D and the backup xi * D from their stations.
    for var, pull in ((x, demand), (s, cfg.xi * demand)):
        net.assign(t, c, var, pull, pull / tables.cap_acc[t, c], 0.5 * tables.len_tc[t, c])

    _add_rows(model, _names("donor_iab", "c", sites), "<=", 0.0,
              (sites, y_don, 1.0), (sites, y_iab, -1.0))
    model.add_constraint("single_donor", dict.fromkeys(y_don.tolist(), 1.0), "<=", 1.0)
    model.add_constraint("budget", dict.fromkeys(y_iab.tolist(), cfg.price_iab),
                         "<=", cfg.budget)

    net.add_activation_rows()
    # Primary and backup must differ: dual connectivity is the point.
    _add_rows(model, _names(("x_act", "s_act", "distinct"), "tc", t, c), "<=",
              np.tile([0.0, 0.0, 1.0], len(t)), (3 * pair, x, 1.0), (3 * pair, y_iab[c], -1.0),
              (3 * pair + 1, s, 1.0), (3 * pair + 1, y_iab[c], -1.0),
              (3 * pair + 2, x, 1.0), (3 * pair + 2, s, 1.0))
    _add_rows(model, _names(("one_primary", "one_backup"), "t", tps), "=", 1.0,
              (2 * t, x, 1.0), (2 * t + 1, s, 1.0))

    # Wired inflow w_c, capped at the donor.
    net.add_tree_rows(w_var, 1.0)
    _add_rows(model, _names("wired_cap", "c", sites), "<=", 0.0,
              (sites, w_var, 1.0), (sites, y_don, -cfg.wired_capacity_mbps))
    net.add_capacity_rows()

    # Angular separation rows bind only when x_t,c and s_t,r are both
    # active; c == r pairs are excluded by the distinctness row. Primary p
    # meets every access pair q of its test point, in pair order.
    n_sites = np.bincount(t, minlength=n_t)
    p = np.repeat(pair, n_sites[t])
    q = np.r_[0, np.cumsum(n_sites)][t[p]] + np.arange(len(p)) - np.repeat(
        np.r_[0, np.cumsum(n_sites[t])][:-1], n_sites[t])
    p, q = p[p != q], q[p != q]
    sep, row = tables.theta[t[p], c[p], c[q]], np.arange(len(p))
    _add_rows(model, _names("ang_sep", "tcr", t[p], c[p], c[q]), "<=", sep + 2.0 * TWO_PI,
              (row, theta[t[p]], 1.0), (row, x[p], TWO_PI), (row, s[q], TWO_PI))
    net.add_length_rows()

    # Strengthening cuts, redundant at integer points: with the primary
    # (or backup) station fixed, the separation can never exceed the best
    # partner's angle. Without these the LP bound floats theta_t to pi.
    best = np.full(len(t), -np.inf)
    np.maximum.at(best, p, sep)
    best[best == -np.inf] = 0.0
    served = np.flatnonzero(n_sites)
    row = np.zeros(n_t, np.int64)
    row[served] = 2 * np.arange(len(served))
    _add_rows(model, _names(("cut_theta_x", "cut_theta_s"), "t", served), "<=", 0.0,
              (row[served], theta[served], 1.0), (row[served] + 1, theta[served], 1.0),
              (row[t], x, -best), (row[t] + 1, s, -best))
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
    missing = [name for name in model.names() if name not in solution]
    if missing:
        raise PlannerError(f"solution missing variables, e.g. {missing[:3]}")

    def val(*key) -> float:
        return solution[model.name_of(model.var_id(key))]

    def on(*key) -> bool:    # the binary with this key exists and is 1
        return model.has_var(key) and _round_binary(model.name_of(model.var_id(key)),
                                                    val(*key)) == 1

    n_c, n_t = scenario.n_sites, scenario.n_test_points
    iab = tuple(c for c in range(n_c) if on("yIAB", c))
    donors = [c for c in range(n_c) if on("yDON", c)]
    if len(donors) != 1:
        raise PlannerError(f"decode-time infeasibility: {len(donors)} donors active")
    donor = donors[0]

    if mode == MODE_RIS:
        ris = tuple(c for c in range(n_c) if on("yRIS", c))
        chosen: dict[int, tuple[int, int]] = {}
        for (t, c, r) in src_tuples(tables):
            if on("x", t, c, r):
                if t in chosen:
                    raise PlannerError(f"decode-time infeasibility: test point {t} "
                                       f"has multiple active pairs")
                chosen[t] = (c, r)
        wired = float(n_t) * cfg.demand_mbps
    else:
        ris, chosen = (), {}
        for t in range(n_t):
            primary = [c for c in range(n_c) if on("x", t, c)]
            backup = [c for c in range(n_c) if on("s", t, c)]
            if len(primary) != 1 or len(backup) != 1:
                raise PlannerError(f"decode-time infeasibility: test point {t} has "
                                   f"{len(primary)} primary / {len(backup)} backup links")
            chosen[t] = (primary[0], backup[0])
        wired = float(val("w", donor))

    if sorted(chosen) != list(range(n_t)):
        raise PlannerError("decode-time infeasibility: incomplete assignment")
    assignments = tuple(chosen[t] for t in range(n_t))

    active = [(c, d) for (c, d) in bh_pairs(tables) if on("z", c, d)]
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
    flows = {(c, d): float(val("f", c, d)) for (c, d) in edges}

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

    return NetworkPlan(mode=mode, donor=donor, iab_nodes=iab, ris_sites=ris,
                       assignments=assignments, backhaul_edges=tuple(edges), flows_mbps=flows,
                       wired_inflow_mbps=wired, orientations_rad=orientations,
                       theta_per_tp=theta_per_tp, len_per_tp=len_per_tp,
                       total_cost=total_cost, objective_value=objective)


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(ok):
    return lambda value: isinstance(value, list) and all(ok(v) for v in value)


def _row_of(*oks):
    return lambda value: (isinstance(value, list) and len(value) == len(oks)
                          and all(ok(v) for ok, v in zip(oks, value)))


def _field(doc: dict, key: str, ok):
    """doc[key], or PlannerError when it has the wrong shape or type."""
    if not ok(doc[key]):
        raise PlannerError(f"malformed plan field {key!r}")
    return doc[key]


def plan_from_dict(doc: dict) -> NetworkPlan:
    if not isinstance(doc, dict):
        raise PlannerError("plan document must be a JSON object")
    pairs = _list_of(_row_of(_is_int, _is_int))
    numbers = _list_of(_is_number)
    try:
        if doc["version"] != PLAN_FORMAT_VERSION:
            raise PlannerError(f"unsupported plan file version {doc['version']!r}")
        metrics = _field(doc, "metrics", lambda value: isinstance(value, dict))
        return NetworkPlan(
            mode=doc["mode"],
            donor=_field(doc, "donor", _is_int),
            iab_nodes=tuple(_field(doc, "iab_nodes", _list_of(_is_int))),
            ris_sites=tuple(_field(doc, "ris_sites", _list_of(_is_int))),
            assignments=tuple((a, b) for a, b in _field(doc, "assignments", pairs)),
            backhaul_edges=tuple((c, d) for c, d in _field(doc, "backhaul", pairs)),
            flows_mbps={(c, d): f for c, d, f in _field(
                doc, "flows", _list_of(_row_of(_is_int, _is_int, _is_number)))},
            wired_inflow_mbps=_field(metrics, "wired_inflow_mbps", _is_number),
            orientations_rad={r: phi for r, phi in _field(
                doc, "orientations", _list_of(_row_of(_is_int, _is_number)))},
            theta_per_tp=tuple(_field(metrics, "theta_per_tp", numbers)),
            len_per_tp=tuple(_field(metrics, "len_per_tp", numbers)),
            total_cost=_field(metrics, "total_cost", _is_number),
            objective_value=_field(metrics, "objective_value", _is_number),
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
