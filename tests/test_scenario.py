import dataclasses
import hashlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from coastsim import scenario
from coastsim.control import LOITER, WAYPOINT
from coastsim.environment import TerrainMap
from coastsim.scenario import (ScenarioError, guidance_for_loiter,
                               guidance_for_waypoint, load_scenario,
                               parse_scenario)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_tree(**overrides):
    """Smallest legal scenario: only the seed is mandatory."""
    tree = {"run": {"seed": 7}}
    tree.update(overrides)
    return tree


# --- defaults ----------------------------------------------------------------

def test_minimal_scenario_run_defaults():
    scn = parse_scenario(minimal_tree())
    assert scn.name == "run"
    assert scn.dt == 0.01
    assert scn.duration == 600.0
    assert scn.seed == 7


def test_minimal_scenario_vehicle_defaults():
    scn = parse_scenario(minimal_tree())
    assert scn.asv_params.m11 == 50.0
    assert scn.asv_params.m22 == 60.0
    assert scn.asv_params.m33 == 20.0
    assert scn.asv_params.thruster_half_spacing == 0.35
    assert scn.asv_params.max_thrust == 40.0
    assert scn.asv_initial.x == 0.0 and scn.asv_initial.u == 0.0
    assert (scn.damping.d11, scn.damping.d22, scn.damping.d33) == (12.0, 35.0, 8.0)


def test_minimal_scenario_tow_defaults():
    scn = parse_scenario(minimal_tree())
    assert scn.tuv_enabled is True
    assert scn.towline.unstretched_length == 30.0
    assert scn.towline.stiffness == 800.0
    assert scn.towline.damping == 50.0
    assert scn.towline.max_slew_rate == 0.5
    assert scn.tow_attach_x == -0.5  # stern attach, aft of the reference point
    assert scn.tuv_params.rho == 1025.0  # fed from world.water_density
    fresh = parse_scenario(minimal_tree(world={"water_density": 1000.0}))
    assert fresh.tuv_params.rho == 1000.0


def test_minimal_scenario_mission_defaults():
    scn = parse_scenario(minimal_tree())
    m = scn.mission
    assert m.kind == "search"
    assert (m.area.x, m.area.y, m.area.width, m.area.height) == (0.0, 0.0, 100.0, 100.0)
    assert m.swath == 10.0
    assert m.entry == "sw"
    assert m.objects == []
    assert m.p_detect == 1.0
    assert m.footprint == 5.0
    assert m.deploy_time == 5.0
    assert m.tether_reach == 30.0
    assert m.confirm_radius == 0.5


def test_minimal_scenario_controller_defaults():
    scn = parse_scenario(minimal_tree())
    # actuator authority: surge = 2*40 N, yaw = 2*40*0.35 N m
    assert scn.speed_pid.output_limits == (-80.0, 80.0)
    assert scn.heading_pid.output_limits == (-28.0, 28.0)
    assert (scn.heading_pid.kp, scn.heading_pid.ki, scn.heading_pid.kd) == (12.0, 0.5, 24.0)
    assert (scn.speed_pid.kp, scn.speed_pid.ki, scn.speed_pid.kd) == (12.0, 2.0, 0.0)
    assert scn.cruise_speed == 2.0
    assert scn.arrival_radius == 2.0
    assert scn.sensors.gps_rate == 1.0
    assert scn.sensors.compass_rate == 10.0
    assert scn.sensors.gyro_rate == 100.0
    assert scn.sensors.gps_sigma == 1.25


def test_integral_limit_is_half_authority_in_state_units():
    # ki * integral_limit == output_limit / 2, so the integral term alone can
    # never command more than half the actuator range
    scn = parse_scenario(minimal_tree(
        controllers={"speed_pid": {"ki": 5.0}, "heading_pid": {"ki": 2.0}}))
    assert scn.speed_pid.integral_limits == (-8.0, 8.0)  # 0.5*80/5
    assert scn.heading_pid.integral_limits == (-7.0, 7.0)  # 0.5*28/2


def test_integral_limit_with_zero_ki_falls_back_to_output_limit():
    scn = parse_scenario(minimal_tree(controllers={"speed_pid": {"ki": 0.0}}))
    assert scn.speed_pid.integral_limits == (-80.0, 80.0)


def test_default_process_noise_trusts_the_model():
    scn = parse_scenario(minimal_tree())
    assert scn.ekf.q_psd == (1e-4, 1e-4, 1e-5, 0.05, 0.05, 0.01)
    assert scn.ekf.gps_sigma == 1.25
    assert scn.ekf.compass_sigma == 0.02
    assert scn.ekf.gyro_sigma == 0.005


def test_q_psd_override_and_gate():
    scn = parse_scenario(minimal_tree(controllers={
        "ekf": {"q_psd": [1, 2, 3, 4, 5, 6], "gate_sigma": 3.0}}))
    assert scn.ekf.q_psd == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert scn.ekf.gate_sigma == 3.0


def test_q_psd_wrong_length_rejected():
    with pytest.raises(ScenarioError, match=r"q_psd: expected six spectral"):
        parse_scenario(minimal_tree(controllers={"ekf": {"q_psd": [1, 2, 3]}}))


# --- quantities and units ----------------------------------------------------

def test_unit_strings_convert_to_si():
    scn = parse_scenario(minimal_tree(
        world={"disturbances": {"mean_wind_speed": "20 km/h",
                                "wind_direction": "180 deg",
                                "current_speed": "3 kn",
                                "gust_tau": "5 min"}},
        mission={"kind": "cruise", "heading": "-90 deg", "speed": "4 kn"}))
    d = scn.disturbances
    assert d.mean_wind_speed == pytest.approx(5.555555555555555, rel=1e-12)
    assert d.wind_direction == pytest.approx(math.pi)
    assert d.current_speed == pytest.approx(1.543332)  # 3 * 0.514444
    assert d.gust_tau == 300.0
    assert scn.mission.heading == pytest.approx(-math.pi / 2.0)
    assert scn.mission.speed == pytest.approx(4 * 0.514444)


def test_length_and_time_units():
    scn = parse_scenario(minimal_tree(
        run={"seed": 1, "duration": "10 min"},
        mission={"kind": "search", "area": {"width": "1 km", "height": "0.5 km"}}))
    assert scn.duration == 600.0
    assert scn.mission.area.width == 1000.0
    assert scn.mission.area.height == 500.0


def test_bare_numbers_stay_si():
    scn = parse_scenario(minimal_tree(
        world={"disturbances": {"mean_wind_speed": 4}}))
    assert scn.disturbances.mean_wind_speed == 4.0


def test_unknown_unit_rejected():
    with pytest.raises(ScenarioError, match=r"unknown unit 'mph'"):
        parse_scenario(minimal_tree(
            world={"disturbances": {"mean_wind_speed": "5 mph"}}))


def test_malformed_quantity_string_rejected():
    with pytest.raises(ScenarioError, match=r"expected '<number> <unit>'"):
        parse_scenario(minimal_tree(run={"seed": 1, "dt": "fast"}))


def test_boolean_is_not_a_number():
    with pytest.raises(ScenarioError,
                       match=r"scenario\.run\.dt: expected a number, got a boolean"):
        parse_scenario(minimal_tree(run={"seed": 1, "dt": True}))


# --- schema enforcement ------------------------------------------------------

def test_seed_is_mandatory():
    with pytest.raises(ScenarioError,
                       match=r"scenario\.run\.seed: required field is missing"):
        parse_scenario({"run": {"name": "x"}})
    with pytest.raises(ScenarioError, match=r"scenario\.run\.seed"):
        parse_scenario({})


def test_seed_must_be_an_integer():
    with pytest.raises(ScenarioError, match=r"expected an integer, got 1\.5"):
        parse_scenario({"run": {"seed": 1.5}})


def test_unknown_key_is_an_error_and_names_the_alternatives():
    with pytest.raises(ScenarioError,
                       match=r"scenario\.run\.velocity: unknown key; allowed keys "
                             r"are \['dt', 'duration', 'name', 'seed'\]"):
        parse_scenario({"run": {"seed": 1, "velocity": 3}})


def test_unknown_nested_key_is_an_error():
    with pytest.raises(ScenarioError, match=r"scenario\.world\.disturbances\.wind"):
        parse_scenario(minimal_tree(world={"disturbances": {"wind": 5}}))


def test_negative_dt_rejected():
    with pytest.raises(ScenarioError, match=r"must be positive, got -0\.01"):
        parse_scenario({"run": {"seed": 1, "dt": -0.01}})


def test_negative_duration_rejected_but_zero_allowed():
    with pytest.raises(ScenarioError, match=r"must be >= 0\.0, got -1\.0"):
        parse_scenario({"run": {"seed": 1, "duration": -1.0}})
    assert parse_scenario({"run": {"seed": 1, "duration": 0}}).duration == 0.0


def test_p_detect_bounded():
    with pytest.raises(ScenarioError, match=r"must be <= 1\.0, got 1\.5"):
        parse_scenario(minimal_tree(mission={"kind": "search", "p_detect": 1.5}))


def test_mission_kind_choices():
    with pytest.raises(ScenarioError, match=r"must be one of \['cruise', 'loiter', 'search'\]"):
        parse_scenario(minimal_tree(mission={"kind": "patrol"}))


def test_sensor_rate_must_divide_sim_rate():
    with pytest.raises(ScenarioError,
                       match=r"scenario\.controllers\.sensors\.gyro_rate: sensor "
                             r"rate 100\.0 Hz does not divide the sim rate 50 Hz"):
        parse_scenario(minimal_tree(run={"seed": 1, "dt": 0.02}))


def test_compatible_sensor_rates_pass():
    scn = parse_scenario(minimal_tree(
        run={"seed": 1, "dt": 0.02},
        controllers={"sensors": {"gyro_rate": 50, "compass_rate": 10}}))
    assert scn.sensors.gyro_rate == 50.0


# --- mission cross-checks ----------------------------------------------------

def test_objects_parse_and_convert():
    scn = parse_scenario(minimal_tree(mission={
        "kind": "search",
        "objects": [{"id": "o1", "position": [30, 15], "class": "device"},
                    {"id": "o2", "position": [5, 5]}]}))
    objs = scn.mission.objects
    assert [o.object_id for o in objs] == ["o1", "o2"]
    assert np.allclose(objs[0].position, [30.0, 15.0])
    assert objs[0].object_class == "device"
    assert objs[1].object_class == "other"  # default class


def test_object_outside_area_names_the_object():
    with pytest.raises(ScenarioError,
                       match=r"object 'o2' lies outside the search area"):
        parse_scenario(minimal_tree(mission={
            "kind": "search",
            "area": {"x": 0, "y": 0, "width": 50, "height": 50},
            "objects": [{"id": "o1", "position": [10, 10]},
                        {"id": "o2", "position": [60, 10]}]}))


def test_duplicate_object_id_rejected():
    with pytest.raises(ScenarioError, match=r"duplicate object id 'o1'"):
        parse_scenario(minimal_tree(mission={
            "kind": "search",
            "objects": [{"id": "o1", "position": [1, 1]},
                        {"id": "o1", "position": [2, 2]}]}))


def test_object_class_choices():
    with pytest.raises(ScenarioError, match=r"must be one of \['clothing', 'device'"):
        parse_scenario(minimal_tree(mission={
            "kind": "search",
            "objects": [{"id": "o1", "position": [1, 1], "class": "treasure"}]}))


def test_loiter_mission_point():
    scn = parse_scenario(minimal_tree(mission={"kind": "loiter",
                                               "point": [12.5, -3.0]}))
    assert scn.mission.kind == "loiter"
    assert np.allclose(scn.mission.point, [12.5, -3.0])


def test_loiter_keys_rejected_for_search():
    # keys are checked per kind: a loiter point on a search mission is unknown
    with pytest.raises(ScenarioError, match=r"scenario\.mission\.point"):
        parse_scenario(minimal_tree(mission={"kind": "search", "point": [0, 0]}))


# --- terrain -----------------------------------------------------------------

def test_uniform_terrain_with_extent_and_no_depth():
    scn = parse_scenario(minimal_tree(world={"terrain": {
        "uniform": "rock", "extent": 200}}))
    assert scn.terrain.terrain_at([0.0, 0.0]) == ("rock", 6.0)
    assert scn.terrain.terrain_at([99.9, -100.0])[0] == "rock"
    with pytest.raises(ScenarioError, match=r"^scenario\.world\.terrain\.depth: "
                                            r"unknown key"):
        parse_scenario(minimal_tree(world={"terrain": {
            "uniform": "rock", "extent": 200, "depth": 8.0}}))


def test_terrain_file_resolved_relative_to_scenario(tmp_path):
    (tmp_path / "bay.terrain").write_text(
        "cell_size: 50\norigin: 0 0\ngrid:\nsr\nms\n")
    (tmp_path / "s.yaml").write_text(
        "run: {seed: 3}\nworld: {terrain: bay.terrain}\n")
    scn = load_scenario(tmp_path / "s.yaml")
    # row 1 of the file is the northernmost: (25, 75) is in that row
    assert scn.terrain.terrain_at([25.0, 75.0])[0] == "sand"
    assert scn.terrain.terrain_at([75.0, 75.0])[0] == "rock"
    assert scn.terrain.terrain_at([25.0, 25.0])[0] == "mud"


def test_missing_terrain_file_names_the_path():
    with pytest.raises(ScenarioError, match=r"terrain file not found"):
        parse_scenario(minimal_tree(world={"terrain": "no-such.terrain"}),
                       base_dir="/tmp")


def test_unknown_terrain_class_rejected():
    with pytest.raises(ScenarioError, match=r"must be one of \['mud', 'rock', 'sand'\]"):
        parse_scenario(minimal_tree(world={"terrain": {"uniform": "lava"}}))


# --- file loading ------------------------------------------------------------

def test_load_scenario_missing_file():
    with pytest.raises(FileNotFoundError, match=r"scenario file not found"):
        load_scenario("/nonexistent/run.yaml")


def test_load_scenario_rejects_invalid_yaml(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("run: [unclosed\n")
    with pytest.raises(ScenarioError, match=r"not valid YAML"):
        load_scenario(bad)


def test_load_scenario_rejects_non_mapping(tmp_path):
    bad = tmp_path / "list.yaml"
    bad.write_text("- a\n- b\n")
    with pytest.raises(ScenarioError, match=r"top level must be a mapping"):
        load_scenario(bad)


def test_load_scenario_empty_file_still_needs_seed(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ScenarioError, match=r"scenario\.run\.seed"):
        load_scenario(empty)


def test_shipped_scenarios_parse():
    for name in ("calm_search.yaml", "storm_loiter.yaml", "calm_cruise.yaml"):
        scn = load_scenario(SCENARIO_DIR / name)
        assert scn.dt > 0.0
    storm = load_scenario(SCENARIO_DIR / "storm_loiter.yaml")
    assert storm.mission.kind == "loiter"
    assert storm.tuv_enabled is False
    assert storm.disturbances.mean_wind_speed == pytest.approx(30 / 3.6)


# --- guidance wiring ---------------------------------------------------------

def test_guidance_helpers_carry_scenario_tuning():
    scn = parse_scenario(minimal_tree(controllers={
        "cruise_speed": 1.5, "arrival_radius": 3.0}))
    wp = guidance_for_waypoint(scn, np.array([10.0, 0.0]))
    assert wp.mode == WAYPOINT
    assert wp.cruise_speed == 1.5
    assert wp.arrival_radius == 3.0
    lo = guidance_for_loiter(scn, np.zeros(2))
    assert lo.mode == LOITER
    # station keeping has fixed gains: the old loiter-law keys are unknown
    for key in ("loiter_dead_band", "loiter_gain"):
        with pytest.raises(ScenarioError,
                           match=rf"scenario\.controllers\.{key}: unknown key"):
            parse_scenario(minimal_tree(controllers={key: 1.0}))


# --- crawler inputs the walk cannot run --------------------------------------

@pytest.mark.parametrize("speed", [0, -0.1, "-1 km/h", float("inf"),
                                   float("nan")])
def test_terrain_speed_must_be_positive_and_finite(speed):
    tree = minimal_tree(hexapod={"terrain_speeds": {"sand": speed}})
    with pytest.raises(ScenarioError,
                       match=r"scenario\.hexapod\.terrain_speeds\.sand: must be"):
        parse_scenario(tree)


@pytest.mark.parametrize("hexapod", [
    {"home_radius": 0.5},  # beyond l1 + l2
    {"home_radius": 0.01, "home_height": 0.0},  # inside |l1 - l2|
    {"home_radius": 0.05, "home_height": 0.0},  # reachable, elbow past its limit
    {"geometry": {"l1": 0.02, "l2": 0.03}},
])
def test_stand_pose_must_be_reachable(hexapod):
    with pytest.raises(ScenarioError,
                       match=r"scenario\.hexapod\.home_radius: the stand pose"):
        parse_scenario(minimal_tree(hexapod=hexapod))


# --- numbers the run cannot use ---------------------------------------------

@pytest.mark.parametrize("overrides, field", [
    ({"run": {"seed": 7, "duration": float("inf")}}, "scenario.run.duration"),
    pytest.param({"run": {"seed": 7, "duration": 10 ** 400}},
                 "scenario.run.duration", id="duration-10**400"),
    ({"run": {"seed": 7, "dt": "nan s"}}, "scenario.run.dt"),
    ({"asv": {"initial": {"psi": float("nan")}}}, "scenario.asv.initial.psi"),
    ({"asv": {"initial": {"x": "1e308 km"}}}, "scenario.asv.initial.x"),
    ({"world": {"disturbances": {"gust_tau": float("nan")}}},
     "scenario.world.disturbances.gust_tau"),
    ({"mission": {"kind": "loiter", "point": [float("inf"), 0]}},
     "scenario.mission.point[0]"),
    ({"controllers": {"ekf": {"q_psd": [1, 1, 1, 1, 1, float("-inf")]}}},
     "scenario.controllers.ekf.q_psd[5]"),
    ({"hexapod": {"home_height": float("nan")}}, "scenario.hexapod.home_height"),
])
def test_non_finite_number_rejected_with_field_path(overrides, field):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(minimal_tree(**overrides))
    assert str(info.value).startswith(f"{field}: must be finite, got ")


@pytest.mark.parametrize("run, field, message", [
    ({"seed": -1}, "seed", "must be in [0, 2**64), got -1"),
    ({"seed": 2 ** 64}, "seed", "must be in [0, 2**64)"),
    ({"seed": 7, "dt": 1e-320, "duration": 1.0}, "duration",
     "too many steps of dt"),
    ({"seed": 7, "duration": 1e307}, "duration", "too many steps of dt"),
])
def test_uncountable_run_rejected(run, field, message):
    # a seed outside uint64 or a step count past the float range once
    # passed validate and ended simulate in an OverflowError traceback
    with pytest.raises(ScenarioError) as info:
        parse_scenario({"run": run})
    assert str(info.value).startswith(f"scenario.run.{field}: {message}")


def test_seed_at_the_uint64_edges_accepted():
    for seed in (0, 2 ** 64 - 1):
        assert parse_scenario({"run": {"seed": seed}}).seed == seed


def test_unknown_keys_of_mixed_types_name_one():
    with pytest.raises(ScenarioError, match=r"scenario\.5: unknown key"):
        parse_scenario({"run": {"seed": 7}, 5: 1, "zz": 2, None: 3})


def test_collections_in_messages_are_named_by_type():
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ScenarioError,
                       match=r"scenario\.run\.name: expected a string, got a list$"):
        parse_scenario({"run": {"seed": 7, "name": deep}})
    with pytest.raises(ScenarioError,
                       match=r"scenario\.run\.seed: expected an integer, got a dict$"):
        parse_scenario({"run": {"seed": {"a": deep}}})


# --- reading and parsing the file -------------------------------------------

C_LOADER = getattr(yaml, "CSafeLoader", None)
LOADERS = [
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
    pytest.param(C_LOADER, id="CSafeLoader", marks=pytest.mark.skipif(
        C_LOADER is None, reason="PyYAML built without libyaml")),
]


def _through(loader):
    """Route the loader's shallow texts through `loader`."""
    return mock.patch.object(scenario, "_C_LOADER", loader)


def _same_tree(got, want):
    # repr tells 1 from 1.0 and True, '1' from 1, -0.0 from 0.0, and shows
    # key order; nan reprs equal
    assert repr(got) == repr(want)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("name", ["calm_search.yaml", "storm_loiter.yaml",
                                  "calm_cruise.yaml"])
def test_shipped_scenario_trees_equal_under_both_loaders(loader, name):
    path = SCENARIO_DIR / name
    with _through(loader):
        _same_tree(scenario._read_tree(path), yaml.safe_load(path.read_text()))


def _trees(characters):
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(characters))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(characters, max_size=8)
                                         | st.integers(), inner, max_size=4)),
        max_leaves=24)


DUMP_STYLES = pytest.mark.parametrize("flow, allow_unicode", [
    (False, False), (True, False), (False, True), (True, True)],
    ids=["block", "flow", "block-unicode", "flow-unicode"])


@pytest.mark.parametrize("loader", LOADERS)
@DUMP_STYLES
@settings(max_examples=150)
# with allow_unicode, PyYAML's emitter writes U+0085 (NEL) raw inside a
# quoted scalar and both loaders fold it to a space: a dump defect, so the
# round trip leaves it out (the next test keeps it)
@given(tree=_trees(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x85")))
def test_dumped_trees_load_back_type_exact_under_both_loaders(
        loader, flow, allow_unicode, tree):
    text = yaml.safe_dump(tree, default_flow_style=flow, sort_keys=False,
                          allow_unicode=allow_unicode)
    with _through(loader):
        _same_tree(scenario._parse_yaml(text, Path("tree.yaml")), tree)


@pytest.mark.skipif(C_LOADER is None, reason="PyYAML built without libyaml")
@DUMP_STYLES
@settings(max_examples=150)
@given(tree=_trees(st.characters(blacklist_categories=("Cs",))))
def test_dumped_trees_load_alike_under_both_loaders(flow, allow_unicode, tree):
    text = yaml.safe_dump(tree, default_flow_style=flow, sort_keys=False,
                          allow_unicode=allow_unicode)
    _same_tree(yaml.load(text, Loader=C_LOADER),
               yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", [
    "run: [unclosed\n",
    "run: 'unclosed\n",
    "a: b: c\n",
    "- a\nb: c\n",
    "{a: 1}}\n",
    "a: *nowhere\n",
    "--- a\n--- b\n",
    "a: \x07\n",
    "{[1]: 2}\n",
    "a: !!python/name:os.system\n",
    # PyYAML's constructors raise plain ValueError, KeyError, IndexError or
    # AttributeError on these
    "a: !!int abc\n",
    "a: !!float ''\n",
    "a: !!bool maybe\n",
    "a: !!timestamp soon\n",
    "a: 2024-13-45\n",
    "a: " + "9" * 5000 + "\n",
], ids=lambda text: repr(text[:20]))
def test_malformed_yaml_is_a_scenario_error_under_both_loaders(
        loader, text, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with _through(loader), pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert str(info.value).startswith(f"{path}: not valid YAML (")
    assert "<unicode string>" not in str(info.value)


@pytest.mark.parametrize("loader", LOADERS)
def test_tab_after_a_colon_is_the_one_known_loader_difference(
        loader, tmp_path):
    # libyaml reads the tab as separation; the pure loader stops on it
    path = tmp_path / "tab.yaml"
    path.write_text("run:\n  seed:\t7\n")
    with _through(loader):
        if loader is yaml.SafeLoader:
            with pytest.raises(ScenarioError, match=r"not valid YAML"):
                load_scenario(path)
        else:
            assert load_scenario(path).seed == 7


def test_texts_past_the_nesting_bound_use_the_pure_loader(yaml_loaders_built,
                                                          tmp_path):
    text = (SCENARIO_DIR / "storm_loiter.yaml").read_text()
    assert scenario._nesting_bound(text) <= scenario.MAX_C_NESTING
    # a long comment line lifts the bound without nesting anything
    long = tmp_path / "long.yaml"
    long.write_text(text + "#" * scenario.MAX_C_NESTING + "\n")
    assert scenario._nesting_bound(long.read_text()) > scenario.MAX_C_NESTING
    _same_tree(scenario._read_tree(long),
               scenario._read_tree(SCENARIO_DIR / "storm_loiter.yaml"))
    assert yaml_loaders_built == [yaml.SafeLoader, scenario._C_LOADER]


@pytest.mark.parametrize("text, depth", [
    ("a: " + "[" * 30 + "]" * 30, 31),
    ("[a:\n" * 20 + "]\n" * 20, 40),
    ("a:\n" + "".join(" " * i + "- b:\n" for i in range(0, 40, 2)), 41),
    ("- " * 25 + "x\n", 25),
], ids=["flow", "implicit-pairs", "block-chain", "inline-dashes"])
def test_nesting_bound_is_at_least_the_depth(text, depth):
    def measured(node):
        if isinstance(node, dict):
            return 1 + max(map(measured, [*node, *node.values()]), default=0)
        if isinstance(node, list):
            return 1 + max(map(measured, node), default=0)
        return 0
    assert measured(yaml.safe_load(text)) == depth
    assert scenario._nesting_bound(text) >= depth + 1


def test_non_utf8_file_names_the_path(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"run: {seed: 7}\n# \xff\n")
    with pytest.raises(ScenarioError, match=r"latin1\.yaml: not UTF-8 text"):
        load_scenario(path)


def test_directory_path_names_the_path(tmp_path):
    with pytest.raises(ScenarioError,
                       match=rf"{tmp_path.name}: cannot read the file"):
        load_scenario(tmp_path)


# --- the schema table ---------------------------------------------------------

def _tree_at(section):
    """A minimal tree that holds SCHEMA section `section`, that section's
    mapping in it, and the section's field path."""
    path, _, kind = section.partition(":")
    tree = minimal_tree(mission={"kind": kind} if kind else {})
    node = tree
    for part in path.split("."):
        if part.endswith("[]"):  # the one entry of a list
            entry = {"id": "o1", "position": [1, 1]}
            node[part[:-2]] = [entry]
            node = entry
        else:
            node = node.setdefault(part, {})
    if path == "world.terrain":
        node["uniform"] = "sand"
    return tree, node, f"scenario.{path.replace('[]', '[0]')}"


def _past_bounds():
    for section, key, _, _, low, high in scenario.SCHEMA:
        if low is scenario.POSITIVE:
            yield pytest.param(section, key, 0.0, "must be positive, got 0.0",
                               id=f"{section}.{key}-low")
        elif low is not None:
            below = math.nextafter(low, -math.inf)
            yield pytest.param(section, key, below,
                               f"must be >= {low}, got {below}",
                               id=f"{section}.{key}-low")
        if high is not None:
            above = math.nextafter(high, math.inf)
            yield pytest.param(section, key, above,
                               f"must be <= {high}, got {above}",
                               id=f"{section}.{key}-high")


@pytest.mark.parametrize("section, key, value, message", list(_past_bounds()))
def test_every_bound_rejects_the_next_number_past_it(section, key, value,
                                                     message):
    tree, node, path = _tree_at(section)
    node[key] = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(tree)
    assert str(info.value) == f"{path}.{key}: {message}"


@pytest.mark.parametrize("section, key, default",
                         [pytest.param(*row[:3], id=f"{row[0]}.{row[1]}")
                          for row in scenario.SCHEMA])
def test_every_row_is_read_with_its_default(section, key, default):
    # the loader reads the key (an unread key is unknown), and writing its
    # default out changes nothing
    tree, node, _ = _tree_at(section)
    implicit = _canonical(parse_scenario(tree))
    node[key] = default
    assert _canonical(parse_scenario(tree)) == implicit


def _canonical(value):
    """`value` as nested tuples of type names and reprs: equal exactly when
    every field, type, signed zero and array byte is."""
    if isinstance(value, TerrainMap):
        return ("TerrainMap", _canonical(value.grid),
                _canonical(value.cell_size), _canonical(value.origin),
                _canonical(value.depths))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, tuple(
            (f.name, _canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, dict):
        return ("dict", tuple((_canonical(k), _canonical(v))
                              for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canonical(v) for v in value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return (type(value).__name__, repr(value))
    raise TypeError(f"no canonical form for {type(value).__name__}")


# sha256 of repr(_canonical(parsed scenario)), pinned from the loader as it
# was before its numbers moved into one table: a change to any parsed field
# of these inputs must be deliberate and re-pinned here (re-pinned once
# since, when TerrainMap.origin became a float pair instead of an ndarray)
PARSED = {
    "minimal": "926d7030a07b64cbda27e24d93710696d20a2186e9f5976e4fde4653c0527903",
    "calm_cruise": "b1f9c681dca9391ddd69cfdc52b6afd51713cd4b22768af5c4b83ad5a567f4b4",
    "calm_search": "5f0e0cfea58b167210964ca982704ec435fbb13ee85d4388065a924ceb75d2ea",
    "storm_loiter": "bab54eed456438ef1754a90c64120fe2611c43bab59389602d943638bff5d30d",
}


@pytest.mark.parametrize("name", sorted(PARSED))
def test_parsed_scenarios_match_their_pinned_dumps(name):
    if name == "minimal":
        scn = parse_scenario(minimal_tree())
    else:
        scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    text = repr(_canonical(scn))
    assert hashlib.sha256(text.encode()).hexdigest() == PARSED[name]
