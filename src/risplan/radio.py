"""Link budgets for mm-wave access, backhaul and surface-reflected paths.

The budget is deliberately parametric: a log-distance path loss
(intercept + 10*n*log10(d)), thermal noise from bandwidth and noise
figure, array gain at base stations, and an N^2 beamforming law for
reflecting surfaces. Rates come from a monotone SNR -> spectral
efficiency ladder.

Each formula has one function: ``path_loss_db`` takes distances,
``direct_snr_db``, ``backhaul_snr_db`` and ``reflected_snr_db`` take path
losses, and ``snr_to_rate_mbps`` takes SNRs. Each works elementwise on a
scalar or an array, and a scalar in gives a scalar out.
``build_link_tables`` calls them to precompute, for a whole scenario,
every activation flag, capacity, distance and angle the planning models
consume, applying fixed-obstacle line-of-sight masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import TWO_PI, circular_distance, first_crossing, segment_coords
from .scenario import Scenario

THERMAL_NOISE_DBM_HZ = -174.0

# 15-entry 4-bit CQI ladder (64QAM table): (min SNR dB, efficiency bit/s/Hz).
# SNR entries are the commonly used AWGN operating points for each CQI.
DEFAULT_MCS_TABLE: tuple[tuple[float, float], ...] = (
    (-6.7, 0.1523),
    (-4.7, 0.2344),
    (-2.3, 0.3770),
    (0.2, 0.6016),
    (2.4, 0.8770),
    (4.3, 1.1758),
    (5.9, 1.4766),
    (8.1, 1.9141),
    (10.3, 2.4063),
    (11.7, 2.7305),
    (14.1, 3.3223),
    (16.3, 3.9023),
    (18.7, 4.5234),
    (21.0, 5.1152),
    (22.7, 5.5547),
)


class RadioModelError(ValueError):
    """Raised for invalid radio parameters, or for a non-positive link
    distance given to ``path_loss_db``."""


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer parameters of base stations and reflecting surfaces.

    Defaults are 28 GHz parameters: 30 dBm transmit power, 64-element
    arrays at base stations, a 50x50 cm surface with 1e4 passive
    elements (5 mm apart, within 10% of the 5.35 mm half wavelength),
    400 MHz channels, and the LOS log-distance loss 61.4 + 20*log10(d)
    (the 1 m free-space intercept at 28 GHz). ris_element_gain_db is the
    constant aperture term of the reflected budget: an element of area
    A_e gives 20*log10(4*pi*A_e / lambda^2), which for the
    half-wavelength-square element is 20*log10(pi) ~= 9.94 dB at any
    carrier. It is kept apart from ris_elements so the N^2 element law
    stays testable on its own. Every numeric field must be finite.
    """

    tx_power_dbm: float = 30.0
    bs_array_elements: int = 64
    ris_elements: int = 10_000
    bandwidth_hz: float = 400e6
    noise_figure_db: float = 7.0
    pathloss_intercept_db: float = 61.4
    pathloss_exponent: float = 2.0
    ris_element_gain_db: float = 20.0 * math.log10(math.pi)
    mcs_table: tuple[tuple[float, float], ...] = DEFAULT_MCS_TABLE

    def __post_init__(self) -> None:
        for f in fields(self):
            # A comparison, as math.isfinite overflows on an int beyond float range.
            if f.name != "mcs_table" and not -math.inf < getattr(self, f.name) < math.inf:
                raise RadioModelError(f"{f.name} must be finite")
        if self.bs_array_elements < 1:
            raise RadioModelError("bs_array_elements must be >= 1")
        if self.ris_elements < 1:
            raise RadioModelError("ris_elements must be >= 1")
        if self.bandwidth_hz <= 0:
            raise RadioModelError("bandwidth_hz must be positive")
        if len(self.mcs_table) == 0:
            raise RadioModelError("mcs_table must not be empty")
        prev_snr, prev_eff = -math.inf, 0.0
        for snr, eff in self.mcs_table:
            if not (snr > prev_snr and eff > prev_eff):
                raise RadioModelError(
                    "mcs_table must be strictly increasing in SNR and efficiency")
            prev_snr, prev_eff = snr, eff


def _noise_power_dbm(cfg: RadioConfig) -> float:
    """Thermal noise floor over the configured bandwidth, plus noise figure."""
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(cfg.bandwidth_hz) + cfg.noise_figure_db


def _bs_gain_db(cfg: RadioConfig) -> float:
    return 10.0 * math.log10(cfg.bs_array_elements)


def path_loss_db(distance_m, cfg: RadioConfig):
    """Log-distance path loss of distances in meters: intercept +
    10*exponent*log10(d). Raises RadioModelError if any distance is not
    positive."""
    if np.any(np.less_equal(distance_m, 0.0)):
        raise RadioModelError("non-positive link distance")
    return cfg.pathloss_intercept_db + 10.0 * cfg.pathloss_exponent * np.log10(distance_m)


def direct_snr_db(path_loss, cfg: RadioConfig):
    """SNR of direct base-station -> terminal links (omni receiver)."""
    return cfg.tx_power_dbm + _bs_gain_db(cfg) - path_loss - _noise_power_dbm(cfg)


def backhaul_snr_db(path_loss, cfg: RadioConfig):
    """SNR between base stations; the array gain counts at both ends."""
    return cfg.tx_power_dbm + 2.0 * _bs_gain_db(cfg) - path_loss - _noise_power_dbm(cfg)


def reflected_snr_db(loss_in, loss_out, cfg: RadioConfig):
    """SNR of surface-reflected paths, from the path losses of the station
    -> surface and surface -> terminal hops. The element count enters as
    20*log10(N) (the N^2 beamforming law) and the two hops contribute
    additive path losses (product of distances in linear terms)."""
    ris_gain = 20.0 * math.log10(cfg.ris_elements) + cfg.ris_element_gain_db
    return (cfg.tx_power_dbm + _bs_gain_db(cfg) + ris_gain - _noise_power_dbm(cfg)
            - loss_in - loss_out)


def snr_to_rate_mbps(snr_db, cfg: RadioConfig):
    """Rate of the best ladder entry whose threshold is <= the SNR
    (thresholds are inclusive): piecewise constant and monotone, 0 below
    the lowest entry (and for NaN), saturating at the top entry."""
    thresholds = np.array([s for s, _ in cfg.mcs_table])
    rates = np.array([0.0] + [eff * cfg.bandwidth_hz / 1e6 for _, eff in cfg.mcs_table])
    idx = np.searchsorted(thresholds, snr_db, side="right")
    return np.where(snr_db >= thresholds[0], rates[idx], 0.0)[()]


@dataclass(frozen=True)
class LinkBudgetTable:
    """Precomputed radio parameters for one scenario.

    Index conventions: t over test points, c/d over candidate sites
    hosting base stations, r over candidate sites hosting surfaces.
    Activation flags are 0/1 int8 arrays; capacities are Mbps and zeroed
    wherever the matching flag is 0; angles are radians.

      delta_acc[t, c], cap_acc[t, c]   direct access link
      delta_bh[c, d], cap_bh[c, d]     backhaul link (symmetric support)
      delta_src[t, c, r]               (terminal, station, surface) triple,
                                       whose direct leg is cap_acc[t, c]
      cap_ref[t, c, r]                 the triple's reflected path
      theta[t, c, r]                   angle at t between sites c and r
      len_tc[t, c]                     terminal-site distance, meters
      phi_a[r, t], phi_b[r, c]         azimuths from site r toward t / c
    """

    delta_acc: np.ndarray
    delta_bh: np.ndarray
    delta_src: np.ndarray
    cap_acc: np.ndarray
    cap_bh: np.ndarray
    cap_ref: np.ndarray
    theta: np.ndarray
    len_tc: np.ndarray
    phi_a: np.ndarray
    phi_b: np.ndarray

    @property
    def n_test_points(self) -> int:
        return self.delta_acc.shape[0]

    @property
    def n_sites(self) -> int:
        return self.delta_acc.shape[1]


def _obstacle_mask(ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
                   obstacles: np.ndarray) -> np.ndarray:
    """blocked[i, j] = 1 iff segment a_i -- b_j crosses a row of ``obstacles``.
    Pairs with coincident endpoints stay unblocked: they only occur on the
    site-site diagonal, which the activation logic excludes."""
    a_x, a_y, b_x, b_y = (v.ravel() for v in np.broadcast_arrays(
        ax[:, None], ay[:, None], bx[None, :], by[None, :]))
    blocked = first_crossing(a_x, a_y, b_x, b_y, obstacles) < len(obstacles)
    blocked &= (a_x != b_x) | (a_y != b_y)
    return blocked.reshape(len(ax), len(bx)).astype(np.int8)


def build_link_tables(scenario: Scenario, cfg: RadioConfig) -> LinkBudgetTable:
    """Precompute every link parameter for ``scenario``.

    Activation rules:
      delta_acc[t, c] = 1 iff the direct rate is positive and the t-c
        segment crosses no fixed obstacle;
      delta_bh[c, d]  = 1 iff both directed rates are positive and the
        segment is clear (symmetric by construction);
      delta_src[t, c, r] = 1 iff delta_acc[t, c] = 1, both the c-r and
        r-t segments are clear, the reflected rate is positive, and
        c != r.
    Capacities are masked to 0 wherever the flag is 0.
    """
    sites = list(scenario.candidate_sites)
    tps = list(scenario.test_points)
    n_c = len(sites)
    n_t = len(tps)
    sx = np.array([p.x for p in sites])
    sy = np.array([p.y for p in sites])
    tx = np.array([p.x for p in tps])
    ty = np.array([p.y for p in tps])

    # Distances.
    d_tc = np.hypot(sx[None, :] - tx[:, None], sy[None, :] - ty[:, None])  # (T, C)
    d_cc = np.hypot(sx[None, :] - sx[:, None], sy[None, :] - sy[:, None])  # (C, C)

    # Azimuth grids (radians in [0, 2*pi)).
    az_tc = np.arctan2(sy[None, :] - ty[:, None], sx[None, :] - tx[:, None]) % TWO_PI
    phi_a = np.arctan2(ty[None, :] - sy[:, None], tx[None, :] - sx[:, None]) % TWO_PI
    phi_b = np.arctan2(sy[None, :] - sy[:, None], sx[None, :] - sx[:, None]) % TWO_PI

    # Angle at t between sites c and r, in [0, pi].
    theta = circular_distance(az_tc[:, :, None], az_tc[:, None, :])

    # The site-site diagonal is no link: it keeps a zero loss, and ~eye
    # masks it out of every flag below.
    eye = np.eye(n_c, dtype=bool)
    pl_tc = path_loss_db(d_tc, cfg)
    pl_cc = np.zeros((n_c, n_c))
    pl_cc[~eye] = path_loss_db(d_cc[~eye], cfg)

    snr_acc = direct_snr_db(pl_tc, cfg)
    snr_bh = backhaul_snr_db(pl_cc, cfg)
    # Reflected: station c -> surface r (pl_cc[c, r]) plus surface r -> terminal t
    # (pl_tc[t, r]); broadcast to (T, C, R).
    snr_ref = reflected_snr_db(pl_cc[None, :, :], pl_tc[:, None, :], cfg)

    cap_acc_raw = snr_to_rate_mbps(snr_acc, cfg)
    cap_bh_raw = snr_to_rate_mbps(snr_bh, cfg)
    cap_ref_raw = snr_to_rate_mbps(snr_ref, cfg)

    obstacles = segment_coords(scenario.fixed_obstacles)
    blocked_tc = _obstacle_mask(tx, ty, sx, sy, obstacles)
    blocked_cc = _obstacle_mask(sx, sy, sx, sy, obstacles)

    delta_acc = ((cap_acc_raw > 0.0) & (blocked_tc == 0)).astype(np.int8)
    delta_bh = ((cap_bh_raw > 0.0) & (cap_bh_raw.T > 0.0)
                & (blocked_cc == 0) & (blocked_cc.T == 0) & ~eye).astype(np.int8)

    # (t, c, r): direct part from delta_acc, both reflected hops clear,
    # positive reflected rate, and distinct sites.
    hops_clear = ((blocked_cc == 0)[None, :, :]
                  & (blocked_tc == 0)[:, None, :])
    delta_src = ((delta_acc[:, :, None] == 1)
                 & hops_clear
                 & (cap_ref_raw > 0.0)
                 & ~eye[None, :, :]).astype(np.int8)

    cap_acc = cap_acc_raw * delta_acc
    cap_bh = cap_bh_raw * delta_bh
    cap_ref = cap_ref_raw * delta_src

    return LinkBudgetTable(
        delta_acc=delta_acc,
        delta_bh=delta_bh,
        delta_src=delta_src,
        cap_acc=cap_acc,
        cap_bh=cap_bh,
        cap_ref=cap_ref,
        theta=theta,
        len_tc=d_tc,
        phi_a=phi_a,
        phi_b=phi_b,
    )
