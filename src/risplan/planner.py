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
  surfaces, no orientations. Rows sep_x_t{t}_c{c} and sep_s_t{t}_c{c}
  cap theta_t by the angle from c, as primary or as backup, to the
  active partner; cut_theta_x_t{t} and cut_theta_s_t{t} tighten them.

The structure they share, from the backhaul tree to the objective, is
assembled by _Backbone; each builder adds only its access layer.

The objective maximizes mu * sum(theta_t) / theta_norm
- (1 - mu) * sum(l_t) / len_norm, where theta_t is the angular
separation between a test point's two link directions and l_t the mean
of its two link lengths: spread the links apart, keep them short.

extract_plan decodes both models with one body: a single pass over the
model's own binaries, in model order, gives the installed sites and
each test point's pair (the sites of its active x, then of its s); the
wired inflow is w at the donor the model chose, or |T| * D in a model
without w. The objective prices neither stations nor surfaces, so tied
optima may differ in installed equipment; decoding returns one
canonical form of such a tie: every installed station serves a test
point or relays to one that does, every surface assists a test point,
and an idle donor with a single child hands the donor role to it.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .atomic import field, is_int, is_number, list_of, read_json, row_of, write_json
from .geometry import APERTURE_TOL, TWO_PI, minimal_covering_arc
from .milp import BINARY, CONTINUOUS, MilpModel
from .radio import LinkBudgetTable
from .scenario import PlanningConfig, Scenario

MODE_RIS = "ris"
MODE_BASELINE = "baseline"

PLAN_FORMAT_VERSION = 1
# Bumped whenever a plan can change for the same inputs (decoder or
# model), so cached results keyed on it are recomputed.
DECODE_VERSION = 4
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


def access_airtime(tables: LinkBudgetTable, cfg: PlanningConfig, t, c, r) -> float:
    """Airtime a station spends on a served test point (on each, given index
    arrays): the longer of the direct and the reflected transmission."""
    return np.maximum(cfg.demand_mbps / tables.cap_acc[t, c],
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

    # Angular separation, two rows per access pair (t, c): with primary c
    # (sep_x) or backup c (sep_s), theta_t is capped by the angle from c to
    # the active partner. At integer points only the rows of the two active
    # pairs bind, both at theta[t, c, r]; the rest are slack (theta_t <= pi).
    pair_id = np.full((n_t, net.n_c), -1)
    pair_id[t, c] = pair
    p, r = np.nonzero((pair_id[t] >= 0) & (sites != c[:, None]))   # pair p meets site r
    q, sep = pair_id[t[p], r], tables.theta[t[p], c[p], r]
    _add_rows(model, _names(("sep_x", "sep_s"), "tc", t, c), "<=", math.pi,
              (2 * pair, theta[t], 1.0), (2 * pair, x, math.pi), (2 * p, s[q], -sep),
              (2 * pair + 1, theta[t], 1.0), (2 * pair + 1, s, math.pi), (2 * p + 1, x[q], -sep))
    net.add_length_rows()

    # Strengthening cuts, redundant at integer points: with the primary
    # (or backup) station fixed, the separation can never exceed the best
    # partner's angle. Without these the LP bound floats theta_t to pi.
    best = np.zeros(len(t))
    np.maximum.at(best, p, sep)
    served, row = np.unique(t, return_inverse=True)
    head = np.arange(len(served))
    _add_rows(model, _names(("cut_theta_x", "cut_theta_s"), "t", served), "<=", 0.0,
              (2 * head, theta[served], 1.0), (2 * head + 1, theta[served], 1.0),
              (2 * row, x, -best), (2 * row + 1, s, -best))
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

    One pass over the model's variables, in model order, rounds every
    yIAB, yRIS, yDON, x, s and z binary (tolerance 1e-6) and collects the
    indices of those that are 1; the aperture binaries are not read. A
    test point's pair is the sites of its one active x followed by those
    of its s: (station, surface) from x[t, c, r], or (primary, backup)
    from x[t, c] and s[t, c]; the first site of each is a serving
    station. Cost and objective are recomputed from first principles; a
    recomputed objective that drifts from the solver's by more than 1e-6
    is an error.

    The objective does not price installation cost, so a tied optimum
    may carry equipment that serves nothing. The decoded plan is put in
    canonical form: only stations that serve a test point (as server,
    primary or backup) or relay to one that does are kept, and they form
    a tree rooted at the donor; while the donor serves nothing and has a
    single child, that child becomes the donor; only surfaces that assist
    a test point are kept, each oriented at the centre of the smallest
    arc that covers the rays of its assigned test points and stations
    (the model's aperture candidates are not read). Backhaul edges,
    flows and total cost are those of the kept equipment. Assignments
    and the objective are read unchanged. The wired inflow is w at the
    donor the model chose, read before an idle donor hands its role on;
    a model without w injects |T| * D there. Every constraint stays
    satisfied: dropped stations carry no flow, and a promoted donor only
    loses receive airtime.
    """
    if model.name not in (MODE_RIS, MODE_BASELINE):
        raise PlannerError(f"model {model.name!r} is not a planning model")
    names = model.names()
    missing = [name for name in names if name not in solution]
    if missing:
        raise PlannerError(f"solution missing variables, e.g. {missing[:3]}")

    def val(*key) -> float:
        return float(solution[model.name_of(model.var_id(key))])

    on: dict[str, list[tuple[int, ...]]] = {
        tag: [] for tag in ("yIAB", "yRIS", "yDON", "x", "s", "z")}
    for key, name in zip(model.keys(), names):
        if key[0] in on and _round_binary(name, solution[name]) == 1:
            on[key[0]].append(key[1:])

    n_t = scenario.n_test_points
    if len(on["yDON"]) != 1:
        raise PlannerError(f"decode-time infeasibility: {len(on['yDON'])} donors active")
    ((donor,),) = on["yDON"]
    links = on["x"] + on["s"]
    pairs: dict[int, list[int]] = {}
    for t, *sites in links:
        pairs.setdefault(t, []).extend(sites)
    n_x = Counter(t for t, *_ in on["x"])
    for t in range(n_t):
        pair = pairs.get(t, [])
        if n_x[t] != 1 or len(pair) != 2:
            raise PlannerError(f"decode-time infeasibility: test point {t} has {n_x[t]} "
                               f"active x and sites {pair}, not one pair")
    assignments = tuple(tuple(pairs[t]) for t in range(n_t))
    serving = {c for _, c, *_ in links}
    wired = val("w", donor) if model.has_var(("w", donor)) else float(n_t) * cfg.demand_mbps

    installed = [r for (r,) in on["yRIS"]]
    rays: dict[int, list[float]] = {}
    for t, (c, r) in enumerate(assignments):
        if r in installed:
            rays.setdefault(r, []).extend((float(tables.phi_a[r, t]),
                                           float(tables.phi_b[r, c])))
    ris = tuple(r for r in installed if r in rays)
    orientations = {r: minimal_covering_arc(rays[r])[1] for r in ris}

    donor, kept = _canonical_topology(donor, on["z"], serving)
    iab = tuple(c for (c,) in on["yIAB"] if c in kept)
    edges = [(c, d) for (c, d) in on["z"] if c in kept and d in kept]
    flows = {(c, d): val("f", c, d) for (c, d) in edges}

    theta_per_tp = tuple(float(tables.theta[t, a, b])
                         for t, (a, b) in enumerate(assignments))
    len_per_tp = tuple(0.5 * float(tables.len_tc[t, a] + tables.len_tc[t, b])
                       for t, (a, b) in enumerate(assignments))
    total_cost = cfg.price_iab * len(iab) + cfg.price_ris * len(ris)

    objective = (cfg.mu / cfg.theta_norm_rad * sum(theta_per_tp)
                 - (1.0 - cfg.mu) / cfg.len_norm_m * sum(len_per_tp))
    solver_objective = model.evaluate_objective(solution)
    if abs(objective - solver_objective) > DECODE_TOL * max(1.0, abs(solver_objective)):
        raise PlannerError(
            f"decode drift: recomputed objective {objective!r} vs "
            f"solver objective {solver_objective!r}")

    return NetworkPlan(mode=model.name, donor=donor, iab_nodes=iab, ris_sites=ris,
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


def plan_from_dict(doc: dict) -> NetworkPlan:
    if not isinstance(doc, dict):
        raise PlannerError("plan document must be a JSON object")
    get = functools.partial(field, PlannerError)
    pairs = list_of(row_of(is_int, is_int))
    numbers = list_of(is_number)
    version = get(doc, "version", is_int)
    if version != PLAN_FORMAT_VERSION:
        raise PlannerError(f"unsupported plan file version {version!r}")
    metrics = get(doc, "metrics", lambda value: isinstance(value, dict))
    return NetworkPlan(
        mode=get(doc, "mode", lambda value: isinstance(value, str)),
        donor=get(doc, "donor", is_int),
        iab_nodes=tuple(get(doc, "iab_nodes", list_of(is_int))),
        ris_sites=tuple(get(doc, "ris_sites", list_of(is_int))),
        assignments=tuple((a, b) for a, b in get(doc, "assignments", pairs)),
        backhaul_edges=tuple((c, d) for c, d in get(doc, "backhaul", pairs)),
        flows_mbps={(c, d): f for c, d, f in get(
            doc, "flows", list_of(row_of(is_int, is_int, is_number)))},
        wired_inflow_mbps=get(metrics, "wired_inflow_mbps", is_number),
        orientations_rad={r: phi for r, phi in get(
            doc, "orientations", list_of(row_of(is_int, is_number)))},
        theta_per_tp=tuple(get(metrics, "theta_per_tp", numbers)),
        len_per_tp=tuple(get(metrics, "len_per_tp", numbers)),
        total_cost=get(metrics, "total_cost", is_number),
        objective_value=get(metrics, "objective_value", is_number),
    )


def save_plan(plan: NetworkPlan, path: str | Path) -> None:
    """Write the plan as JSON, atomically."""
    write_json(path, plan_to_dict(plan))


def load_plan(path: str | Path) -> NetworkPlan:
    return plan_from_dict(read_json(path, PlannerError)[0])
