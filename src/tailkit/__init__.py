"""tailkit: design toolkit and desk-scale simulator for cable-driven
fish-bone robotic dolphin tails.

Pipeline: fit body-profile curves, generate a tunable tensegrity-style
skeleton, map cable actuation to tail poses, predict cruise speed and
cost of transport, sweep the design space and extract the speed/COT
Pareto front.
"""

from .energetics import (
    BATTERY_WH,
    DERIVED_MASS_KG,
    P_ACTUATION_FULL_W,
    P_IDLE_W,
    MeasurementLog,
    PowerModel,
    SwimResult,
    average_power,
    cot,
    predict_power,
    runtime_hours,
    speed_bl,
    speed_from_track,
)
from .errors import ComputationError, ValidationError
from .explorer import (
    DesignGrid,
    DesignRecord,
    default_curves,
    emit_report,
    evaluate_design,
    pareto_front,
    parse_report_json,
    reference_records,
    run_sweep,
)
from .export import SvgDocument, skeleton_from_json, skeleton_to_json, skeleton_to_svg
from .hydro import (
    HydroParams,
    MidlineHistory,
    calibrate,
    drag_force,
    mean_thrust,
    sample_kinematics,
    steady_speed,
)
from .profile import (
    FitReport,
    PolyCurve,
    ProfileSamples,
    eval_profile,
    excise_dorsal,
    fit_polynomial,
    interpolate_gap,
    load_profile,
    load_reference_profile,
)
from .skeleton import (
    Rib,
    SkeletonGraph,
    SkeletonSpec,
    generate_skeleton,
    preset,
    rib_thicknesses,
    six_presets,
)
from .tendon import (
    ActuationCommand,
    CableRouting,
    TailPose,
    actuation_waveform,
    bend_antagonistic,
    bend_from_cables,
    cable_lengths,
    route_cables,
    segment_stiffnesses,
)

__version__ = "0.1.0"
