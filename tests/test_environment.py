import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coastsim.asv import VehicleState3DOF, ZERO_WRENCH
from coastsim.core import SeededRng, rotate_body_to_nav, rotate_nav_to_body
from coastsim.environment import (MUD, RHO_AIR, ROCK, SAND, STREAM_GUST,
                                  WIND_CW_AW, DampingCoeffs, DisturbanceField,
                                  GustProcess, OutOfBounds, TerrainMap,
                                  damping_wrench, disturbance_wrench,
                                  load_terrain)


# --- wind and waves ----------------------------------------------------------

def test_calm_field_gives_exact_zero_wrench():
    fld = DisturbanceField()
    w = disturbance_wrench(fld, VehicleState3DOF(u=2.0, v=0.3, r=0.1), t=12.3)
    assert w is ZERO_WRENCH
    assert (w.X, w.Y, w.N) == (0.0, 0.0, 0.0)


def test_headwind_drag_at_upper_wind_bound():
    # 8.33 m/s dead against the bow, hull at rest:
    # X = -0.5 * 1.225 * 0.4 * 8.33^2
    fld = DisturbanceField(mean_wind_speed=8.33, wind_direction=math.pi)
    w = disturbance_wrench(fld, VehicleState3DOF(), t=0.0)
    expected = -0.5 * RHO_AIR * 0.4 * 8.33 ** 2
    assert expected == pytest.approx(-17.0, abs=0.01)
    assert w.X == pytest.approx(expected, abs=1e-12)
    assert w.Y == pytest.approx(0.0, abs=1e-12)
    assert w.N == 0.0


def test_wind_acts_on_air_relative_velocity():
    # driving into still air at 3 m/s feels the same drag as a 3 m/s headwind
    fld_still = DisturbanceField(mean_wind_speed=1e-12)  # not calm, no wind
    moving = disturbance_wrench(fld_still, VehicleState3DOF(u=3.0), t=0.0)
    fld_head = DisturbanceField(mean_wind_speed=3.0, wind_direction=math.pi)
    parked = disturbance_wrench(fld_head, VehicleState3DOF(), t=0.0)
    assert moving.X == pytest.approx(parked.X, abs=1e-6)
    # and a tailwind at hull speed cancels
    fld_tail = DisturbanceField(mean_wind_speed=3.0, wind_direction=0.0)
    w = disturbance_wrench(fld_tail, VehicleState3DOF(u=3.0), t=0.0)
    assert w.X == pytest.approx(0.0, abs=1e-12)


def test_crosswind_maps_to_body_axes():
    # hull heading +y (psi = pi/2), air moving toward -x: that is a pure
    # crosswind onto the +y body axis, no surge component
    fld = DisturbanceField(mean_wind_speed=5.0, wind_direction=math.pi)
    w = disturbance_wrench(fld, VehicleState3DOF(psi=math.pi / 2), t=0.0)
    mag = 0.5 * RHO_AIR * 0.4 * 25.0
    assert w.X == pytest.approx(0.0, abs=1e-12)
    assert w.Y == pytest.approx(mag, abs=1e-9)


def reference_wind_wrench(fld, state, gust):
    # reference: the wind term with the hull velocity rotated body->nav and
    # the relative wind back nav->body by the two core rotations
    wind_speed = max(0.0, fld.mean_wind_speed + gust)
    if wind_speed == 0.0:
        return (0.0, 0.0, 0.0)
    wind_x = wind_speed * math.cos(fld.wind_direction)
    wind_y = wind_speed * math.sin(fld.wind_direction)
    vel_x, vel_y = rotate_body_to_nav((state.u, state.v), state.psi)
    rel_u, rel_v = rotate_nav_to_body((wind_x - vel_x, wind_y - vel_y),
                                      state.psi)
    mag = math.hypot(rel_u, rel_v)
    return (0.0 + 0.5 * RHO_AIR * WIND_CW_AW * mag * rel_u,
            0.0 + 0.5 * RHO_AIR * WIND_CW_AW * mag * rel_v, 0.0)


wide_floats = (st.floats(-1e300, 1e300) | st.floats(-10.0, 10.0)
               | st.sampled_from([0.0, -0.0, 5e-324, math.pi, -math.pi,
                                  math.pi / 2, 1e22, math.inf, -math.inf,
                                  math.nan]))


@settings(max_examples=500)
@given(u=wide_floats, v=wide_floats, psi=wide_floats,
       wind=st.floats(1e-12, 1e3), direction=st.floats(-1e3, 1e3),
       gust=st.floats(-1e3, 1e3))
def test_wind_term_matches_the_two_rotations_bit_for_bit(u, v, psi, wind,
                                                         direction, gust):
    # one cos/sin pair for both rotations gives the same bytes, because
    # cos(-psi) == cos(psi) and sin(-psi) == -sin(psi) exactly; non-finite
    # inputs still raise ValueError
    fld = DisturbanceField(mean_wind_speed=wind, wind_direction=direction)
    state = VehicleState3DOF(psi=psi, u=u, v=v)

    def outcome(wrench):
        try:
            return struct.pack("<3d", *wrench())
        except ValueError:
            return ValueError
    assert outcome(lambda: disturbance_wrench(fld, state, 0.0, gust)) == (
        outcome(lambda: reference_wind_wrench(fld, state, gust)))


def test_wave_perturbation_closed_values():
    # height 0.5 m, period 4 s, t = 1 s: sway = 8*0.5*sin(pi/2) = 4 N,
    # yaw = 4*0.5*sin(pi/2 + pi/3) = 2 sin(5pi/6) = 1 N m
    fld = DisturbanceField(wave_height=0.5, wave_period=4.0)
    w = disturbance_wrench(fld, VehicleState3DOF(), t=1.0)
    assert w.X == 0.0
    assert w.Y == pytest.approx(4.0, abs=1e-12)
    assert w.N == pytest.approx(1.0, abs=1e-12)


def test_wave_perturbation_is_zero_mean():
    fld = DisturbanceField(wave_height=0.5, wave_period=4.0)
    state = VehicleState3DOF()
    times = np.arange(0.0, 40.0, 0.01)  # 10 whole periods
    sway = [disturbance_wrench(fld, state, float(t)).Y for t in times]
    yaw = [disturbance_wrench(fld, state, float(t)).N for t in times]
    assert abs(np.mean(sway)) < 1e-10
    assert abs(np.mean(yaw)) < 1e-10
    assert max(sway) == pytest.approx(4.0, abs=1e-4)


# --- gusts -------------------------------------------------------------------

def test_gust_sequence_is_seed_deterministic():
    fld = DisturbanceField(mean_wind_speed=8.0)
    a = GustProcess(fld, SeededRng(42))
    b = GustProcess(fld, SeededRng(42))
    seq_a = [a.step(0.1) for _ in range(100)]
    seq_b = [b.step(0.1) for _ in range(100)]
    assert seq_a == seq_b


def test_gust_process_is_stationary():
    # long-run mean of (mean + gust) within 2% of the mean; empirical
    # variance near sigma^2 = (0.1 * 8)^2
    fld = DisturbanceField(mean_wind_speed=8.0, gust_tau=10.0, gust_fraction=0.1)
    gust = GustProcess(fld, SeededRng(7))
    samples = np.array([gust.step(1.0) for _ in range(10_000)])
    speeds = fld.mean_wind_speed + samples
    assert abs(np.mean(speeds) - 8.0) / 8.0 < 0.02
    assert np.var(samples) == pytest.approx(0.8 ** 2, rel=0.15)


def test_gust_variance_is_step_size_invariant():
    # exact discretization: the stationary spread cannot depend on dt
    fld = DisturbanceField(mean_wind_speed=8.0, gust_tau=5.0)
    coarse = GustProcess(fld, SeededRng(3))
    fine = GustProcess(fld, SeededRng(4))
    var_coarse = np.var([coarse.step(2.0) for _ in range(8000)])
    var_fine = np.var([fine.step(0.25) for _ in range(64_000)])
    assert var_coarse == pytest.approx(0.64, rel=0.2)
    assert var_fine == pytest.approx(0.64, rel=0.2)


def test_zero_wind_gust_is_silent():
    fld = DisturbanceField(mean_wind_speed=0.0)
    gust = GustProcess(fld, SeededRng(1))
    assert all(gust.step(0.1) == 0.0 for _ in range(10))


def test_gust_matches_the_recursion_when_the_step_size_changes():
    # the process caches a and sigma sqrt(1 - a^2) per step size: a changed
    # dt must recompute them, and the values must be the recursion's own
    fld = DisturbanceField(mean_wind_speed=8.0, gust_tau=5.0)
    gust = GustProcess(fld, SeededRng(9))
    gen = SeededRng(9).stream(STREAM_GUST)
    sigma, value = 0.1 * 8.0, 0.0
    for dt in (0.1, 0.1, 0.05, 0.05, 0.1, 2.0, 0.1):
        a = math.exp(-dt / 5.0)
        value = a * value + sigma * math.sqrt(1.0 - a * a) * gen.standard_normal()
        assert gust.step(dt) == value


# --- damping and current -----------------------------------------------------

def test_damping_opposes_body_velocity():
    coeffs = DampingCoeffs(d11=12.0, d22=35.0, d33=8.0)
    w = damping_wrench(VehicleState3DOF(u=2.0, v=-0.5, r=0.1), coeffs,
                       current_nav=(0.0, 0.0))
    assert (w.X, w.Y, w.N) == (-24.0, 17.5, -0.8)


def test_current_offsets_relative_velocity_in_damping():
    coeffs = DampingCoeffs(d11=10.0)
    # hull drifting exactly with the water feels no damping
    state = VehicleState3DOF(u=0.5, psi=0.0)
    w = damping_wrench(state, coeffs, current_nav=np.array([0.5, 0.0]))
    assert w.X == pytest.approx(0.0, abs=1e-12)
    # heading north, current setting east: body-frame surge unaffected
    state = VehicleState3DOF(u=1.0, psi=math.pi / 2)
    w = damping_wrench(state, coeffs, current_nav=np.array([0.3, 0.0]))
    assert w.X == pytest.approx(-10.0 * 1.0, abs=1e-12)


def test_untethered_neutral_body_drifts_with_current():
    # terminal condition: relative speed decays below 1e-3 m/s (quadratic
    # drag has a 1/t tail, so this needs a long horizon)
    from coastsim.tuv import TowedBodyState, TuvParams, tuv_step
    params = TuvParams(buoyancy_fraction=1.0)  # neutrally buoyant
    current = np.array([0.4, -0.1, 0.0])
    state = TowedBodyState(np.zeros(3), np.zeros(3))
    for _ in range(15_000):  # 3000 s
        state = tuv_step(state, params, np.zeros(3), current, dt=0.2)
    assert np.linalg.norm(state.velocity - current) < 1e-3


# --- terrain map -------------------------------------------------------------

def test_uniform_map_everywhere_sand():
    m = TerrainMap.uniform(SAND, extent=100.0, origin=(-50.0, -50.0))
    for p in [(-50.0, -50.0), (0.0, 0.0), (49.9, 49.9)]:
        cls, depth = m.terrain_at(p)
        assert cls == SAND
        assert depth == 5.0


def test_cells_are_half_open():
    # two columns, two rows; first listed row is the northern one
    grid = [[SAND, ROCK],
            [MUD, SAND]]
    m = TerrainMap(grid, cell_size=10.0, origin=(0.0, 0.0))
    assert m.terrain_at((0.0, 0.0))[0] == MUD  # SW corner
    assert m.terrain_at((10.0, 0.0))[0] == SAND  # lower edge of east column
    assert m.terrain_at((0.0, 10.0))[0] == SAND  # north row starts at y=10
    assert m.terrain_at((10.0, 10.0))[0] == ROCK
    assert m.terrain_at((9.999, 9.999))[0] == MUD
    with pytest.raises(OutOfBounds):
        m.terrain_at((20.0, 0.0))  # east edge is exclusive
    with pytest.raises(OutOfBounds):
        m.terrain_at((-0.001, 5.0))


def test_checkerboard_pattern_matches_fixture():
    n = 4
    grid = [[SAND if (r + c) % 2 == 0 else ROCK for c in range(n)]
            for r in range(n)]
    m = TerrainMap(grid, cell_size=5.0, origin=(0.0, 0.0))
    for r in range(n):
        for c in range(n):
            # centre of grid cell (r, c): row 0 is northernmost
            x = (c + 0.5) * 5.0
            y = (n - 1 - r + 0.5) * 5.0
            assert m.terrain_at((x, y))[0] == grid[r][c]


def test_depth_table_per_class():
    m = TerrainMap([[SAND, ROCK, MUD]], cell_size=1.0,
                   depths={SAND: 5.5, ROCK: 7.0})
    assert m.terrain_at((0.5, 0.5)) == (SAND, 5.5)
    assert m.terrain_at((1.5, 0.5)) == (ROCK, 7.0)
    assert m.terrain_at((2.5, 0.5)) == (MUD, 4.0)  # default kept


def ref_terrain_at(m, point):
    # terrain_at before it read the point as floats
    p = np.asarray(point, dtype=float)
    col = math.floor((p[0] - m.origin[0]) / m.cell_size)
    row_from_south = math.floor((p[1] - m.origin[1]) / m.cell_size)
    row = m.n_rows - 1 - row_from_south
    if not (0 <= col < m.n_cols and 0 <= row < m.n_rows):
        raise OutOfBounds(f"point ({p[0]:.3f}, {p[1]:.3f}) outside terrain map")
    cls = m.grid[row][col]
    return cls, m.depths[cls]


@settings(max_examples=500)
@given(x=st.floats(-30.0, 30.0), y=st.floats(-30.0, 30.0),
       kind=st.sampled_from([tuple, list, np.array]))
def test_terrain_at_matches_array_reference(x, y, kind):
    m = TerrainMap([[SAND, ROCK, MUD], [MUD, SAND, ROCK]], cell_size=7.5,
                   origin=(-11.25, -7.5))
    point = kind((x, y))
    try:
        expected = ref_terrain_at(m, point)
    except OutOfBounds as exc:
        with pytest.raises(OutOfBounds) as info:
            m.terrain_at(point)
        assert str(info.value) == str(exc)
        return
    assert m.terrain_at(point) == expected


def test_map_validation():
    with pytest.raises(ValueError):
        TerrainMap([], cell_size=1.0)
    with pytest.raises(ValueError):
        TerrainMap([[SAND], [MUD, ROCK]], cell_size=1.0)
    with pytest.raises(ValueError):
        TerrainMap([["granite"]], cell_size=1.0)
    with pytest.raises(ValueError):
        TerrainMap([[SAND]], cell_size=0.0)


def test_load_terrain_round_trip(tmp_path):
    path = tmp_path / "seabed.txt"
    path.write_text(
        "# pier survey strip\n"
        "cell_size: 10\n"
        "origin: -20 -10\n"
        "depths: s=5.5 r=6.5 m=4.0\n"
        "grid:\n"
        "ssrr\n"
        "mmss\n",
        encoding="ascii")
    m = load_terrain(path)
    assert m.n_rows == 2
    assert m.n_cols == 4
    assert m.cell_size == 10.0
    assert tuple(m.origin) == (-20.0, -10.0)
    assert m.terrain_at((-20.0, -10.0))[0] == MUD  # SW corner, southern row
    assert m.terrain_at((0.0, 0.0)) == (ROCK, 6.5)  # third column, north row
    assert m.terrain_at((-15.0, 5.0)) == (SAND, 5.5)


def test_load_terrain_errors(tmp_path):
    bad_char = tmp_path / "bad.txt"
    bad_char.write_text("cell_size: 1\ngrid:\nsxq\n", encoding="ascii")
    with pytest.raises(ValueError, match="unknown terrain character"):
        load_terrain(bad_char)
    no_size = tmp_path / "nosize.txt"
    no_size.write_text("grid:\nss\n", encoding="ascii")
    with pytest.raises(ValueError, match="cell_size"):
        load_terrain(no_size)
    bad_key = tmp_path / "badkey.txt"
    bad_key.write_text("cell_size: 1\nwetness: 3\ngrid:\ns\n", encoding="ascii")
    with pytest.raises(ValueError, match="unknown header key"):
        load_terrain(bad_key)
