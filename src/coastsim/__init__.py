"""Deterministic multi-vehicle marine survey simulator.

A surface vehicle with differential thrust tows an underwater survey body
over a search area while a six-legged crawler handles close-up inspection
on the seabed; navigation runs on an extended Kalman filter over GPS,
compass and gyro. Scenarios come in as YAML, logs go out as CSV + JSON,
and identical (scenario, seed) pairs reproduce byte-identical output.
"""

from .asv import (AsvParams, BodyWrench, VehicleState3DOF, ZERO_WRENCH,
                  allocate_differential_thrust, asv_step)
from .control import (GuidanceSetpoint, PidController, guidance_step,
                      pid_step, station_keeping)
from .core import (IntegrationFault, SeededRng, SimulationFault,
                   rotate_body_to_nav, rotate_nav_to_body, wrap_angle)
from .environment import (DampingCoeffs, DisturbanceField, GustProcess,
                          OutOfBounds, TerrainMap, damping_wrench,
                          disturbance_wrench, load_terrain)
from .hexapod import (HexapodParams, HexapodState, JointLimitError,
                      LegGeometry, WorkspaceViolation, body_advance,
                      closed_gait_phase, gait_foot_position, leg_fk, leg_ik)
from .mission import (DetectionEvent, MissionPhase, MissionState,
                      PlantedObject, SearchArea, SweepSensor, WorldEvents,
                      coverage_report, generate_lawnmower, mission_step)
from .nav import (EkfParams, EstimatorState, SensorConfig, ekf_predict,
                  ekf_update, initial_estimate, sample_sensors)
from .runner import (COLUMNS, RunLog, Simulation, emit_outputs, read_run,
                     run_simulation)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .tuv import (TowedBodyState, Towline, TuvParams, towline_tension,
                  tuv_step, winch_set_length)

__version__ = "0.1.0"
