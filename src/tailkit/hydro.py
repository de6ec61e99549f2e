"""Steady swimming speed from tail kinematics.

The tail's periodic midline motion feeds a slender-body mean-thrust
estimate evaluated at the trailing edge,

    thrust = m_a / 2 * <hdot**2 - U**2 * hx**2>,

with m_a = rho * pi * tip_span**2 / 4 * added_mass_coeff the virtual
mass per unit length at the trailing edge, hdot the lateral velocity
and hx the local midline slope there, and <.> the average over one
actuation period. Balancing against quadratic body drag
D = 1/2 * rho * Cd * A * U**2 gives the cruise speed. Thrust is
A - B*U**2 and drag is D*U**2, so the balance has the closed form
U = sqrt(A / (B + D)), and the drag coefficient that hits a measured
speed follows just as directly.

The kinematics come from one batched bend solve over all actuation
phases (``tendon.bend_antagonistic``) as a (phases, stations, 2) array.
``sample_kinematics_stack`` solves the phases of several designs with the
same joint count in one call, from their stacked ``tendon.Chain``, as a
sweep does; its history carries a leading design axis, and
``steady_speeds`` takes every design's thrust coefficients and speed from
it in one pass.

This is a desk-scale surrogate, not a flow solver: absolute speeds are
meaningful only after calibrating the drag coefficient against a
measured operating point, and cross-design comparisons are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ComputationError, ValidationError, require_finite
from .formats import Fields, number
from .skeleton import SkeletonGraph
from .tendon import CableRouting, Chain, bend_antagonistic_stack, check_actuation, waveform_delta

DEFAULT_N_SAMPLES = 64
MAX_SPEED_M_S = 2.0
BALANCE_TOL_N = 1e-6
CALIBRATION_REL_TOL = 1e-3  # 0.1 %


@dataclass(frozen=True)
class HydroParams:
    """Fluid and body constants of the thrust/drag balance."""

    rho: float = 1000.0  # kg/m^3
    drag_coeff: float = 0.5
    frontal_area: float = 0.003  # m^2
    added_mass_coeff: float = 1.0
    tip_span: float = 0.08  # m, fluke trailing-edge depth

    def __post_init__(self):
        require_finite("hydro parameters", self.rho, self.drag_coeff, self.frontal_area,
                       self.added_mass_coeff, self.tip_span)
        for name in ("rho", "drag_coeff", "frontal_area", "added_mass_coeff", "tip_span"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be strictly positive")

    def to_dict(self) -> dict:
        return HYDRO_FIELDS.write(self)

    @classmethod
    def from_dict(cls, d) -> "HydroParams":
        return HYDRO_FIELDS(d, "hydro JSON: $")


HYDRO_FIELDS = Fields(
    HydroParams, ("rho", "rho_kg_m3", number), ("drag_coeff", "drag_coeff", number),
    ("frontal_area", "frontal_area_m2", number), ("added_mass_coeff", "added_mass_coeff", number),
    ("tip_span", "tip_span_m", number))


@dataclass(frozen=True, eq=False)
class MidlineHistory:
    """Midline snapshots over one actuation period, uniform time grid: float
    arrays ``times`` (n,) and ``midlines`` (n, stations, 2), or (designs, n,
    stations, 2) for a stack of designs; sequences are converted."""

    times: np.ndarray
    midlines: np.ndarray
    period: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        try:
            midlines = np.asarray(self.midlines, dtype=float)
        except ValueError:  # numpy refuses ragged nesting
            raise ValidationError("all midlines must share the same stations") from None
        if midlines.ndim < 3 or midlines.shape[-1] != 2:
            raise ValidationError("midline points must be (x, y) pairs")
        if times.shape != midlines.shape[-3:-2]:
            raise ValidationError("one midline per time sample required")
        if len(times) < 2:
            raise ValidationError("history needs at least 2 samples")
        if midlines.shape[-2] < 2:
            raise ValidationError("midlines need at least 2 stations")
        if not (np.isfinite(times).all() and np.isfinite(midlines).all()):
            raise ValidationError("times and midlines must be finite")
        if not 0 < self.period < math.inf:
            raise ValidationError("period must be finite and positive")
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise ValidationError("times must be strictly increasing")
        if np.ptp(steps) > 1e-9 * self.period:
            raise ValidationError("time steps must be uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "midlines", midlines)


def sample_kinematics(
    graph: SkeletonGraph,
    routing: CableRouting,
    stiffnesses,
    amplitude: float,
    frequency: float,
    n_samples: int = DEFAULT_N_SAMPLES,
) -> MidlineHistory:
    """Solve the bend pose at uniform phases over one actuation period."""
    return sample_kinematics_stack(
        Chain.from_graph(graph, routing), stiffnesses, amplitude, frequency, n_samples
    )


def sample_kinematics_stack(
    chain: Chain,
    stiffnesses,
    amplitude: float,
    frequency: float,
    n_samples: int = DEFAULT_N_SAMPLES,
) -> MidlineHistory:
    """``sample_kinematics`` of each design of a stacked ``tendon.Chain``, with
    stiffnesses (designs, n_seg), from one stacked bend solve
    (``tendon.bend_antagonistic_stack``); design i's midlines in the one
    history equal, bit for bit, those of its history alone."""
    if n_samples < 16:
        raise ValidationError("need at least 16 samples per period")
    check_actuation(amplitude, frequency)
    period = 1.0 / frequency
    times = np.array([period * j / n_samples for j in range(n_samples)])
    deltas = [waveform_delta(amplitude, frequency, t) for t in times.tolist()]
    _, midlines = bend_antagonistic_stack(chain, stiffnesses, deltas)
    return MidlineHistory(times=times, midlines=midlines, period=period)


def _trailing_edge_series(history: MidlineHistory) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-edge lateral velocity and midline slope per time sample."""
    x, y = history.midlines[..., 0], history.midlines[..., 1]
    if len(history.times) < 3:
        raise ValidationError("need at least 3 time samples for finite differences")
    dt = history.times[1] - history.times[0]
    tip = y[..., -1]
    periodic = abs((history.times[-1] - history.times[0]) + dt - history.period) < 1e-9
    if periodic:  # central differences that wrap around the period
        wrapped = np.concatenate((tip[..., -1:], tip, tip[..., :1]), axis=-1)
        hdot = (wrapped[..., 2:] - wrapped[..., :-2]) / (2.0 * dt)
    else:
        hdot = np.gradient(tip, dt, axis=-1)
    hx = (y[..., -1] - y[..., -2]) / (x[..., -1] - x[..., -2])
    return hdot, hx


def _thrust_coefficients(history: MidlineHistory, params: HydroParams):
    """A and B of the mean thrust A - B*U**2: floats, or lists for a stack."""
    m_a = params.rho * math.pi * params.tip_span**2 / 4.0 * params.added_mass_coeff
    with np.errstate(over="ignore"):  # an overflow is refused below, once per call
        a, b = (0.5 * m_a * np.mean(v**2, axis=-1) for v in _trailing_edge_series(history))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ComputationError("thrust estimate overflows: the trailing edge moves too fast")
    return a.tolist(), b.tolist()


def mean_thrust(history: MidlineHistory, speed: float, params: HydroParams) -> float:
    """Period-averaged trailing-edge thrust at forward speed ``speed``.

    Can be negative: a fast-moving body with a waving tail may see net
    drag from the tail itself.
    """
    if speed < 0:
        raise ValidationError("forward speed cannot be negative")
    a, b = _thrust_coefficients(history, params)
    return a - b * speed**2


def drag_force(speed: float, params: HydroParams) -> float:
    """Quadratic body drag, N."""
    if speed < 0:
        raise ValidationError("forward speed cannot be negative")
    return 0.5 * params.rho * params.drag_coeff * params.frontal_area * speed**2


def steady_speed_from_history(history: MidlineHistory, params: HydroParams) -> float:
    """Speed where thrust A - B*U**2 meets drag D*U**2: sqrt(A / (B + D))."""
    return _balance_speed(*_thrust_coefficients(history, params), params)


def steady_speeds(history: MidlineHistory, params: HydroParams) -> list[float]:
    """``steady_speed_from_history`` of each design of a stacked history
    (``sample_kinematics_stack``), with its checks applied to each."""
    return [_balance_speed(a, b, params) for a, b in zip(*_thrust_coefficients(history, params))]


def _balance_speed(a: float, b: float, params: HydroParams) -> float:
    if a <= 0.0:
        return 0.0
    u_star = math.sqrt(a / (b + drag_force(1.0, params)))
    # written so that a NaN fails the checks too
    if not u_star <= MAX_SPEED_M_S:
        raise ComputationError(f"no thrust/drag balance below {MAX_SPEED_M_S} m/s")
    residual = abs(a - b * u_star**2 - drag_force(u_star, params))
    if not residual <= BALANCE_TOL_N:
        raise ComputationError(
            f"thrust/drag residual {residual:.2e} N exceeds {BALANCE_TOL_N} N"
        )
    return u_star


def steady_speed(
    graph: SkeletonGraph,
    routing: CableRouting,
    stiffnesses,
    amplitude: float,
    frequency: float,
    params: HydroParams,
    n_samples: int = DEFAULT_N_SAMPLES,
) -> float:
    """Predicted cruise speed for one design and actuation setting, m/s."""
    history = sample_kinematics(graph, routing, stiffnesses, amplitude, frequency, n_samples)
    return steady_speed_from_history(history, params)


def calibrate(
    graph: SkeletonGraph,
    routing: CableRouting,
    stiffnesses,
    amplitude: float,
    frequency: float,
    params: HydroParams,
    target_speed: float,
    n_samples: int = DEFAULT_N_SAMPLES,
) -> HydroParams:
    """Set drag_coeff so the predicted speed hits a measured one.

    At the target U*, drag must equal the thrust A - B*U*^2 left over, so
    Cd = 2 * (A - B*U*^2) / (rho * frontal_area * U*^2) in closed form.
    """
    if not (target_speed > 0 and 0 < target_speed * target_speed < math.inf):
        raise ValidationError("calibration target speed must be positive, with a finite "
                              "nonzero square")
    history = sample_kinematics(graph, routing, stiffnesses, amplitude, frequency, n_samples)

    a, b = _thrust_coefficients(history, params)
    if a <= 0:
        raise ComputationError("design produces no thrust; cannot calibrate")
    # the drag-free ceiling sqrt(A/B) bounds what any positive drag_coeff can reach
    surplus = a - b * target_speed**2
    if surplus <= 0:
        raise ComputationError(
            f"target speed {target_speed} m/s is unreachable: the drag-free "
            f"ceiling is {math.sqrt(a / b):.4f} m/s"
        )
    calibrated = replace(
        params, drag_coeff=2.0 * surplus / (params.rho * params.frontal_area * target_speed**2)
    )
    miss = steady_speed_from_history(history, calibrated) - target_speed
    if abs(miss) > CALIBRATION_REL_TOL * target_speed:
        raise ComputationError(f"calibration missed its target by {miss:.3e} m/s")
    return calibrated
