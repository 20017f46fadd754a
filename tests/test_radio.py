import hashlib
import math

import numpy as np
import pytest

from risplan.geometry import Point2D, Segment2D
from risplan.radio import (RadioConfig, RadioModelError, backhaul_snr_db,
                           build_link_tables, direct_snr_db,
                           path_loss_db, reflected_snr_db, snr_to_rate_mbps)
from risplan.scenario import Scenario, generate


def P(x, y):
    return Point2D(float(x), float(y))


@pytest.fixture
def cfg():
    return RadioConfig()


class TestPathLoss:
    def test_at_one_meter(self, cfg):
        assert path_loss_db(1.0, cfg) == pytest.approx(61.4)

    def test_at_ten_meters(self, cfg):
        assert path_loss_db(10.0, cfg) == pytest.approx(81.4)

    def test_decade_scaling(self, cfg):
        assert path_loss_db(100.0, cfg) - path_loss_db(10.0, cfg) == pytest.approx(20.0)

    def test_non_positive_distance(self, cfg):
        with pytest.raises(RadioModelError):
            path_loss_db(0.0, cfg)
        with pytest.raises(RadioModelError):
            path_loss_db(-3.0, cfg)

    def test_strictly_increasing(self, cfg):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            d1, d2 = sorted(rng.uniform(0.1, 2000.0, size=2))
            if d1 == d2:
                continue
            assert path_loss_db(d1, cfg) < path_loss_db(d2, cfg)


class TestDirectSnr:
    def test_hand_computed_value(self, cfg):
        # 30 + 10*log10(64) - (61.4 + 20*log10(100)) - (-174 + 10*log10(4e8) + 7)
        snr = direct_snr_db(P(0, 0), P(100, 0), cfg)
        assert snr == pytest.approx(27.64, abs=5e-3)

    def test_tx_power_linearity(self):
        a = RadioConfig(tx_power_dbm=30.0)
        b = RadioConfig(tx_power_dbm=33.0)
        sa = direct_snr_db(P(0, 0), P(50, 20), a)
        sb = direct_snr_db(P(0, 0), P(50, 20), b)
        assert sb - sa == pytest.approx(3.0)

    def test_doubling_distance(self, cfg):
        s1 = direct_snr_db(P(0, 0), P(70, 0), cfg)
        s2 = direct_snr_db(P(0, 0), P(140, 0), cfg)
        assert s1 - s2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_degenerate(self, cfg):
        with pytest.raises(RadioModelError):
            direct_snr_db(P(1, 1), P(1, 1), cfg)


class TestReflectedSnr:
    def test_element_count_law(self):
        a = RadioConfig(ris_elements=5000)
        b = RadioConfig(ris_elements=10000)
        tp, cs, ris = P(0, 0), P(100, 0), P(50, 40)
        sa = reflected_snr_db(tp, cs, ris, a)
        sb = reflected_snr_db(tp, cs, ris, b)
        assert sb - sa == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_hop_symmetry(self, cfg):
        tp, cs, ris = P(0, 0), P(120, 30), P(40, 80)
        assert reflected_snr_db(tp, cs, ris, cfg) == pytest.approx(
            reflected_snr_db(cs, tp, ris, cfg), abs=1e-12)

    def test_below_direct_on_grid(self, cfg):
        # Equal hop lengths d: two-hop budget trails the single hop for
        # every d beyond a few tens of meters with these element counts.
        for d in np.linspace(30.0, 500.0, 40):
            direct = direct_snr_db(P(0, 0), P(d, 0), cfg)
            reflected = reflected_snr_db(P(0, 0), P(2 * d, 0), P(d, 0), cfg)
            assert reflected < direct

    def test_aperture_constant_default(self, cfg):
        # Half-wavelength-square element: 20*log10(pi), carrier-independent.
        assert cfg.ris_element_gain_db == 20.0 * math.log10(math.pi)

    def test_aperture_constant_override(self, cfg):
        # The constant adds to the reflected budget and to nothing else.
        tp, station, ris = P(100.0, 80.0), P(0.0, 0.0), P(80.0, 40.0)
        other = RadioConfig(ris_element_gain_db=3.0)
        shift = reflected_snr_db(tp, station, ris, other) - reflected_snr_db(tp, station, ris, cfg)
        assert shift == pytest.approx(3.0 - cfg.ris_element_gain_db)
        assert direct_snr_db(tp, station, other) == direct_snr_db(tp, station, cfg)


class TestRadioConfig:
    @pytest.mark.parametrize("name", sorted(set(RadioConfig.__dataclass_fields__) - {"mcs_table"}))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(RadioModelError, match=f"{name} must be finite"):
            RadioConfig(**{name: value})

    def test_int_beyond_float_range_accepted(self):
        # --bs-elements takes any int; the finiteness check must not overflow on it.
        assert RadioConfig(bs_array_elements=10 ** 400).bs_array_elements == 10 ** 400


class TestSnrToRate:
    def test_below_lowest(self, cfg):
        assert snr_to_rate_mbps(-10.0, cfg) == 0.0

    def test_inclusive_threshold(self, cfg):
        min_snr, eff = cfg.mcs_table[3]
        assert snr_to_rate_mbps(min_snr, cfg) == pytest.approx(eff * cfg.bandwidth_hz / 1e6)

    def test_saturation(self, cfg):
        top = cfg.mcs_table[-1][1] * cfg.bandwidth_hz / 1e6
        assert snr_to_rate_mbps(80.0, cfg) == pytest.approx(top)

    def test_monotone(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s1, s2 = rng.uniform(-15.0, 35.0, size=2)
            if s1 > s2:
                s1, s2 = s2, s1
            assert snr_to_rate_mbps(s1, cfg) <= snr_to_rate_mbps(s2, cfg)

    def test_mcs_table_validation(self):
        with pytest.raises(RadioModelError):
            RadioConfig(mcs_table=((0.0, 1.0), (1.0, 0.5)))
        with pytest.raises(RadioModelError):
            RadioConfig(mcs_table=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(RadioModelError):
            RadioConfig(mcs_table=())


def _mask_scenario(scenario, obstacles):
    return Scenario(scenario.area_width, scenario.area_height,
                    scenario.candidate_sites, scenario.test_points,
                    tuple(obstacles), scenario.seed)


class TestBuildLinkTables:
    def test_obstacle_masks_access_and_src(self, cfg):
        s = Scenario(100.0, 100.0, (P(10, 50), P(90, 50), P(50, 90)),
                     (P(50, 50),), (), 0)
        # Vertical wall between the test point and site 0 only.
        wall = Segment2D(P(30, 30), P(30, 70))
        masked = _mask_scenario(s, [wall])
        t = build_link_tables(masked, cfg)
        assert t.delta_acc[0, 0] == 0
        assert t.delta_acc[0, 1] == 1
        assert (t.delta_src[0, 0, :] == 0).all()
        assert t.cap_acc[0, 0] == 0.0

    def test_saturated_clean_instance(self, cfg):
        # Small area, no obstacles: every SNR above the top threshold.
        s = generate(60.0, 60.0, 5, 3, seed=3)
        t = build_link_tables(s, cfg)
        top = cfg.mcs_table[-1][1] * cfg.bandwidth_hz / 1e6
        assert (t.delta_acc == 1).all()
        off_diag = ~np.eye(s.n_sites, dtype=bool)
        assert (t.delta_bh[off_diag] == 1).all()
        assert (t.delta_src[:, off_diag] == 1).all()
        assert t.cap_acc == pytest.approx(np.full_like(t.cap_acc, top))
        assert t.cap_bh[off_diag] == pytest.approx(np.full(int(off_diag.sum()), top))

    def test_matches_scalar_recomputation(self, cfg):
        s = Scenario(200.0, 200.0, (P(20, 30), P(150, 170)), (P(100, 40),), (), 0)
        t = build_link_tables(s, cfg)
        tp = s.test_points[0]
        for c, cs in enumerate(s.candidate_sites):
            assert t.cap_acc[0, c] == pytest.approx(
                snr_to_rate_mbps(direct_snr_db(tp, cs, cfg), cfg), abs=1e-9)
            assert t.len_tc[0, c] == pytest.approx(math.hypot(cs.x - tp.x, cs.y - tp.y),
                                                   abs=1e-12)
        for c in range(2):
            for d in range(2):
                if c == d:
                    continue
                assert t.cap_bh[c, d] == pytest.approx(snr_to_rate_mbps(
                    backhaul_snr_db(s.candidate_sites[c], s.candidate_sites[d], cfg), cfg))
                assert t.cap_ref[0, c, d] == pytest.approx(snr_to_rate_mbps(
                    reflected_snr_db(tp, s.candidate_sites[c],
                                     s.candidate_sites[d], cfg), cfg))

    def test_zero_capacity_consistency(self, cfg):
        s = generate(400.0, 400.0, 6, 3, seed=9)
        wall = Segment2D(P(200, 0), P(200, 400))
        t = build_link_tables(_mask_scenario(s, [wall]), cfg)
        assert (t.cap_acc[t.delta_acc == 0] == 0.0).all()
        assert (t.cap_bh[t.delta_bh == 0] == 0.0).all()
        assert (t.cap_ref[t.delta_src == 0] == 0.0).all()
        assert (t.cap_acc[t.delta_acc == 1] > 0.0).all()
        assert (t.cap_ref[t.delta_src == 1] > 0.0).all()

    def test_obstacles_only_destroy(self, cfg):
        rng = np.random.default_rng(12)
        s = generate(300.0, 300.0, 6, 3, seed=13)
        obstacles = []
        t_prev = build_link_tables(s, cfg)
        for _ in range(4):
            x, y, ang = rng.uniform(0, 300), rng.uniform(0, 300), rng.uniform(0, math.pi)
            obstacles.append(Segment2D(P(x - 40 * math.cos(ang), y - 40 * math.sin(ang)),
                                       P(x + 40 * math.cos(ang), y + 40 * math.sin(ang))))
            t_new = build_link_tables(_mask_scenario(s, obstacles), cfg)
            assert (t_new.delta_acc <= t_prev.delta_acc).all()
            assert (t_new.delta_bh <= t_prev.delta_bh).all()
            assert (t_new.delta_src <= t_prev.delta_src).all()
            t_prev = t_new

    def test_deterministic(self, cfg):
        s = generate(300.0, 400.0, 8, 5, seed=21)
        t1 = build_link_tables(s, cfg)
        t2 = build_link_tables(s, cfg)
        for name in ("delta_acc", "delta_bh", "delta_src", "cap_acc", "cap_bh",
                     "cap_ref", "theta", "len_tc", "phi_a", "phi_b"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_theta_range_and_symmetry(self, cfg):
        s = generate(300.0, 400.0, 7, 4, seed=5)
        t = build_link_tables(s, cfg)
        assert (t.theta >= 0.0).all() and (t.theta <= math.pi + 1e-12).all()
        assert np.allclose(t.theta, np.swapaxes(t.theta, 1, 2))

    def test_validation(self):
        with pytest.raises(RadioModelError):
            RadioConfig(bs_array_elements=0)
        with pytest.raises(RadioModelError):
            RadioConfig(bandwidth_hz=0.0)
        with pytest.raises(RadioModelError):
            RadioConfig(tx_power_dbm=math.inf)


def _cluttered_desk():
    """A 12 x 8 desk scenario with 16 random 12 m obstacles, one obstacle
    through test point 0 and one that starts exactly at site 0."""
    s = generate(190.0, 253.0, 12, 8, seed=3)
    rng = np.random.default_rng(5)
    obstacles = []
    for cx, cy, ang in (rng.random((16, 3)) * [190.0, 253.0, np.pi]).tolist():
        dx, dy = 6.0 * np.cos(ang), 6.0 * np.sin(ang)
        obstacles.append(Segment2D(P(cx - dx, cy - dy), P(cx + dx, cy + dy)))
    tp, site = s.test_points[0], s.candidate_sites[0]
    obstacles.append(Segment2D(P(tp.x - 2.0, tp.y), P(tp.x + 2.0, tp.y)))
    obstacles.append(Segment2D(P(site.x, site.y), P(site.x, site.y + 3.0)))
    return s, _mask_scenario(s, obstacles)


def _bit_rows(flags):
    return tuple("".join(map(str, row)) for row in flags.tolist())


class TestClutteredTablesPinned:
    """Masks of a cluttered desk scenario, recorded with the scalar
    intersection loop; the masking code must reproduce them exactly."""

    ACC = ("000000000000", "011111111111", "011011111111", "001111111111",
           "001101111011", "011011111111", "011111111011", "011111011111")
    BH = ("000000000000", "001011111111", "010011111111", "000011111100",
          "011101011111", "011110101111", "011101011011", "011110101010",
          "011111110111", "011111001001", "011011111001", "011011101110")
    SRC_SHA256 = "a8c80b216da7e979a1e3709d3f2df13c98f9e6779e01f770c16f403c60fe62ea"
    # theta must keep its bits whichever code takes the circular distance.
    THETA_SHA256 = "00f2da13230fbb473cca8b3276a3081a70f4dd1de12c7f79b0d29e42cc7b6e1f"

    def test_fields_equal_recorded(self, cfg):
        open_s, cluttered = _cluttered_desk()
        o = build_link_tables(open_s, cfg)
        t = build_link_tables(cluttered, cfg)
        assert _bit_rows(t.delta_acc) == self.ACC
        assert _bit_rows(t.delta_bh) == self.BH
        assert t.delta_src.dtype == np.int8 and int(t.delta_src.sum()) == 514
        assert hashlib.sha256(t.delta_src.tobytes()).hexdigest() == self.SRC_SHA256
        assert hashlib.sha256(t.theta.tobytes()).hexdigest() == self.THETA_SHA256
        # Obstacles only mask: every other field equals the open tables,
        # whose links are all active.
        assert o.delta_acc.all() and int(o.delta_src.sum()) == 1056
        for name in ("theta", "len_tc", "phi_a", "phi_b"):
            assert np.array_equal(getattr(t, name), getattr(o, name)), name
        assert np.array_equal(t.cap_acc, o.cap_acc * t.delta_acc)
        assert np.array_equal(t.cap_bh, o.cap_bh * t.delta_bh)
        assert np.array_equal(t.cap_ref, o.cap_ref * t.delta_src)
