"""Tests of the benchmark's reference code on hand-made cases.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_reference.py

The expected values are worked out by hand, so a disagreement between the
benchmark and the program points at the program. The last test in each
group also holds the reference against the program on many cases.
"""

import math
import random

import numpy as np
import pytest

import reference as ref

# (a, b, c, d, expected): closed segments a-b and c-d.
SEGMENT_CASES = [
    ((0, 0), (4, 4), (0, 4), (4, 0), True),      # proper crossing
    ((0, 0), (2, 0), (2, 0), (2, 3), True),      # touching endpoints
    ((0, 0), (4, 0), (2, 0), (2, 3), True),      # endpoint on the interior (T)
    ((0, 0), (4, 0), (2, -1), (2, 3), True),     # crossing at an axis point
    ((0, 0), (4, 0), (2, 0), (6, 0), True),      # collinear overlap
    ((0, 0), (4, 0), (4, 0), (6, 0), True),      # collinear, touching ends
    ((0, 0), (4, 0), (1, 0), (3, 0), True),      # collinear, one inside the other
    ((0, 0), (4, 0), (5, 0), (6, 0), False),     # collinear, disjoint
    ((0, 0), (4, 0), (0, 1), (4, 1), False),     # parallel
    ((0, 0), (4, 4), (1, 0), (5, 4), False),     # parallel, diagonal
    ((0, 0), (1, 1), (3, 0), (2, 1), False),     # lines cross outside both
    ((0, 0), (4, 0), (2, 1e-12), (2, 3), False),  # just clear of the segment
]


def _many(cases):
    cols = np.array([[*a, *b, *c, *d] for a, b, c, d, _ in cases], dtype=float).T
    return ref.segments_intersect_many(*cols)


def test_segment_cases_by_hand():
    got = _many(SEGMENT_CASES)
    assert got.tolist() == [case[-1] for case in SEGMENT_CASES]


def test_segment_test_is_symmetric_in_its_arguments():
    swapped = [(c, d, a, b, e) for a, b, c, d, e in SEGMENT_CASES]
    assert _many(swapped).tolist() == [case[-1] for case in SEGMENT_CASES]


def test_segment_test_agrees_with_program_on_grid_points():
    from risplan.geometry import Point2D, Segment2D, segments_intersect

    rng = random.Random(5)
    cases = []
    while len(cases) < 3000:
        a, b, c, d = ((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(4))
        if a != b and c != d:
            seg1 = Segment2D(Point2D(*map(float, a)), Point2D(*map(float, b)))
            seg2 = Segment2D(Point2D(*map(float, c)), Point2D(*map(float, d)))
            cases.append((a, b, c, d, segments_intersect(seg1, seg2)))
    assert _many(cases).tolist() == [case[-1] for case in cases]


def test_first_crossing():
    obstacles = np.array([[5, -1, 5, 1],      # crosses the first segment
                          [2, -1, 2, 1],      # crosses it earlier along, later in order
                          [0, 5, 10, 5]])     # crosses only the second
    first = ref.first_crossing([0, 0], [0, 0], [10, 0], [0, 10], obstacles)
    assert first.tolist() == [0, 2]
    none = ref.first_crossing([0], [0], [1], [1], obstacles[2:])
    assert none.tolist() == [1]


def test_blocked_pairs_scans_every_chunk():
    # The one blocking obstacle sits past the first chunk.
    clear = [[50, 50, 51, 51]] * (ref.OBSTACLE_CHUNK + 6)
    obstacles = np.array(clear + [[1, -1, 1, 1]])
    blocked = ref.blocked_pairs([0, 0], [0, 5], [2, 2], [0, 5], obstacles)
    assert blocked.tolist() == [[True, False], [False, False]]


# -- link budget -------------------------------------------------------------


def test_direct_snr_at_100_m():
    # 30 dBm + 10 log10(64) - (61.4 + 20 log10(100)) - (-174 + 10 log10(4e8) + 7)
    expected = 30.0 + 18.061799739838872 - 101.4 + 80.97940008672037
    direct, reflected = ref.link_snr_db(np.array([[100.0, 0.0], [0.0, 50.0]]),
                                        np.array([[0.0, 0.0]]))
    assert direct[0, 0] == pytest.approx(expected, abs=1e-9)
    # Reflected 0 -> 1 -> test point: N^2 law and aperture 20 log10(pi),
    # two path losses, one station array gain.
    d1, d2 = math.hypot(100, 50), 50.0
    want = (30.0 + 18.061799739838872 + 80.0 + 20 * math.log10(math.pi)
            - (61.4 + 20 * math.log10(d1)) - (61.4 + 20 * math.log10(d2)) + 80.97940008672037)
    assert reflected[0, 0, 1] == pytest.approx(want, abs=1e-9)


def test_activation_range_obstacles_and_distinct_sites():
    # Direct SNR falls to -6.7 dB at about 5.2 km.
    sites = np.array([[5000.0, 0.0], [6000.0, 0.0], [0.0, 20.0]])
    tps = np.array([[0.0, 0.0]])
    acc, src, border = ref.link_activation(sites, tps, np.empty((0, 4)))
    assert acc.tolist() == [[True, False, True]]
    assert not border.any()
    assert not src[0, 0, 0] and not src[0, 2, 2]          # a site cannot assist itself
    assert not src[0, 1, 2]                                # no direct link from site 1
    # A wall across the test point's link to site 2 blocks access to it
    # and every triple that uses it as station or surface.
    wall = np.array([[-5.0, 10.0, 5.0, 10.0]])
    acc, src, _ = ref.link_activation(sites, tps, wall)
    assert acc.tolist() == [[True, False, False]]
    assert not src[0, :, 2].any() and not src[0, 2, :].any()


def test_activation_agrees_with_program():
    import risplan as rp

    scenario = rp.generate(300.0, 400.0, 10, 6, seed=3)
    obstacles = [rp.Segment2D(rp.Point2D(100.0, 0.0), rp.Point2D(100.0, 250.0)),
                 rp.Segment2D(rp.Point2D(0.0, 300.0), rp.Point2D(200.0, 300.0))]
    scenario = rp.Scenario(scenario.area_width, scenario.area_height,
                           scenario.candidate_sites, scenario.test_points,
                           tuple(obstacles), scenario.seed)
    tables = rp.build_link_tables(scenario, rp.RadioConfig())
    sites = np.array([[p.x, p.y] for p in scenario.candidate_sites])
    tps = np.array([[p.x, p.y] for p in scenario.test_points])
    acc, src, border = ref.link_activation(
        sites, tps, np.array([[s.a.x, s.a.y, s.b.x, s.b.y] for s in obstacles]))
    assert not border.any()
    assert (acc == (tables.delta_acc == 1)).all()
    assert (src == (tables.delta_src == 1)).all()
    assert 0 < src.sum() < src.size


# -- blockage ----------------------------------------------------------------


def test_served_shares_by_hand():
    tps = np.array([[0.0, 0.0], [100.0, 100.0]])
    sites = np.array([[10.0, 0.0], [0.0, 10.0], [100.0, 110.0], [110.0, 100.0]])
    assignments = [(0, 1), (2, 3)]
    obstacles = np.array([[5.0, -1.0, 5.0, 1.0],           # crosses tp 0 -> site 0
                          [100.0, 105.0, 101.0, 105.0],    # touches tp 1 -> site 2
                          [200.0, 200.0, 201.0, 201.0]])   # crosses nothing
    # tp 0's sector (span 2*pi/3 around +y) covers its link to site 1;
    # tp 1's sector faces -y and covers neither of its links.
    spans = np.array([2 * math.pi / 3, 2 * math.pi / 3])
    centres = np.array([math.pi / 2, 3 * math.pi / 2])
    shares = ref.served_shares(tps, sites, assignments, [0, 1, 2, 3],
                               obstacles, spans, centres)
    assert shares == (1.0, 0.5, 0.5, 0.5)


def test_sector_boundary_is_inclusive():
    tps = np.array([[0.0, 0.0]])
    sites = np.array([[10.0, 0.0], [-10.0, 0.0]])
    # Span pi/2 centred on pi/4: the ray at azimuth 0 sits on the boundary.
    shares = ref.served_shares(tps, sites, [(0, 0)], [0], np.empty((0, 4)),
                               np.array([math.pi / 2]), np.array([math.pi / 4]))
    assert shares == (0.0,)


def test_redraw_trial_draw_order():
    obstacles, spans, centres = ref.redraw_trial(200.0, 100.0, 3, 2, seed=11)
    rng = np.random.default_rng(11)
    for i in range(3):
        cx, cy, ang = rng.random() * 200.0, rng.random() * 100.0, rng.random() * math.pi
        half = ref.OBSTACLE_LENGTH_M / 2
        assert obstacles[i].tolist() == [cx - half * math.cos(ang), cy - half * math.sin(ang),
                                         cx + half * math.cos(ang), cy + half * math.sin(ang)]
    for t in range(2):
        span = ref.SECTOR_SPANS[0] if rng.random() < 0.5 else ref.SECTOR_SPANS[1]
        assert spans[t] == span and centres[t] == rng.random() * 2 * math.pi
    assert np.hypot(obstacles[:, 2] - obstacles[:, 0],
                    obstacles[:, 3] - obstacles[:, 1]) == pytest.approx(5.0)


def test_redraw_matches_program_trial():
    import risplan as rp
    from risplan.resilience import trial_seed_for

    tps = tuple(rp.Point2D(10.0 * i + 1, 5.0) for i in range(4))
    seed = trial_seed_for(7, 3)
    trial = rp.sample_trial(190.0, 253.0, 50, tps, seed)
    obstacles, spans, centres = ref.redraw_trial(190.0, 253.0, 50, 4, seed)
    assert obstacles.tolist() == [[o.a.x, o.a.y, o.b.x, o.b.y] for o in trial.obstacles]
    assert spans.tolist() == [s.span for s in trial.self_blockage]
    assert centres.tolist() == [s.center_azimuth for s in trial.self_blockage]


# -- objective ---------------------------------------------------------------


def test_plan_objective_by_hand():
    tps = np.array([[0.0, 0.0]])
    sites = np.array([[3.0, 0.0], [0.0, 4.0]])
    # theta = pi/2, mean length 3.5.
    got = ref.plan_objective(tps, sites, [(0, 1)], 0.5, math.pi, 500.0)
    assert got == pytest.approx(0.5 * 0.5 - 0.5 * 3.5 / 500.0, rel=1e-15)
    # Separation wraps around: azimuths 350 and 10 degrees are 20 apart.
    sites = np.array([[math.cos(math.radians(350)), math.sin(math.radians(350))],
                      [math.cos(math.radians(10)), math.sin(math.radians(10))]])
    got = ref.plan_objective(tps, sites, [(0, 1)], 1.0, math.pi, 500.0)
    assert got == pytest.approx(20.0 / 180.0, rel=1e-12)
